"""Core market types: instances, allocations, transfers, outcomes, welfare accounting.

Agents and items are dense 0-based indices.  The null item is represented by
``None`` and is worth exactly 0 to every agent.  All core objects are immutable
after construction and safe to share across threads.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence, Union

import numpy as np
from scipy.special import ndtri

SCHEMA_VERSION = 1

# Upper bound on entries we are willing to serialize from a generated
# valuation field.
_DENSIFY_LIMIT = 4_000_000


# ---------------------------------------------------------------------------
# Deterministic valuation storage
# ---------------------------------------------------------------------------

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX_1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX_2 = np.uint64(0x94D049BB133111EB)
_U_MAX = np.nextafter(1.0, 0.0)


def _hash_inputs(key: int, indices: np.ndarray) -> np.ndarray:
    """``key + (index + 1) * GOLDEN`` per index, the input to the finalizer."""
    z = np.array(indices, dtype=np.uint64)  # an array even for one index
    z += np.uint64(1)
    z *= _GOLDEN
    z += np.uint64(key % (1 << 64))
    return z


def _uniforms(z: np.ndarray) -> np.ndarray:
    """Uniforms in open (0, 1) from hash inputs (see ``_hash_inputs``).

    The splitmix64 finalizer runs in place on ``z`` (overwritten) and the top
    53 bits become ``(k + 0.5) * 2**-53``.  That rounds to exactly 1.0 when all
    53 bits are set, so u is capped at the largest double below 1.  uint64
    arithmetic wraps mod 2**64 by design.
    """
    u = np.empty(z.shape)
    t = u.view(np.uint64)  # shift scratch; the uniforms overwrite it last
    np.right_shift(z, 30, out=t)
    z ^= t
    z *= _MIX_1
    np.right_shift(z, 27, out=t)
    z ^= t
    z *= _MIX_2
    np.right_shift(z, 31, out=t)
    z ^= t
    z >>= 11
    # k * 2**-53 is exact, so adding 2**-54 rounds as (k + 0.5) * 2**-53 does.
    np.multiply(z, 2.0**-53, out=u)
    u += 2.0**-54
    return np.minimum(u, _U_MAX, out=u)


def _normals(z: np.ndarray, means: np.ndarray, stds: np.ndarray) -> np.ndarray:
    """``means + stds * ndtri(u)`` for the uniforms of ``z``, in one buffer."""
    u = _uniforms(z)
    ndtri(u, out=u)
    u *= stds
    u += means
    return u


def hashed_uniforms(key: int, indices: np.ndarray) -> np.ndarray:
    """Deterministic uniforms in open (0, 1), one per uint64 index.

    The value depends only on ``(key, index)``, so any access pattern (row
    sweep or point lookup) reproduces bit-identical draws.
    """
    return _uniforms(_hash_inputs(key, indices))


def derive_seed(master_seed: int, index: int) -> int:
    """Stable derived seed for replication ``index`` under ``master_seed``."""
    u = hashed_uniforms(master_seed, np.asarray([index], dtype=np.uint64))
    return int(u[0] * 2**63)


class DenseValuations:
    """Valuations held as a dense (n_agents, n_items) float matrix."""

    __slots__ = ("matrix",)

    def __init__(self, matrix: np.ndarray) -> None:
        m = np.array(matrix, dtype=np.float64)
        if m.ndim != 2:
            raise ValueError("valuation matrix must be 2-dimensional")
        if not np.all(np.isfinite(m)):
            raise ValueError("valuation matrix entries must be finite")
        m.setflags(write=False)
        self.matrix = m

    @property
    def n_agents(self) -> int:
        return self.matrix.shape[0]

    @property
    def n_items(self) -> int:
        return self.matrix.shape[1]

    def row(self, agent: int) -> np.ndarray:
        return self.matrix[agent]

    def values(self, agents: np.ndarray, items: np.ndarray) -> np.ndarray:
        return self.matrix[agents, items]


@dataclass(frozen=True)
class HashedNormalValuations:
    """On-demand normal valuations keyed by (seed, agent, item).

    Each item ``i`` has its own mean and standard deviation; agent ``j``'s
    value for it is ``means[i] + stds[i] * ndtri(u(seed, j, i))``.  Nothing of
    size n_agents x n_items is ever materialized, and repeated queries of the
    same cell are bit-identical.
    """

    key: int
    means: np.ndarray
    stds: np.ndarray
    n_agents: int
    # Hash inputs of agent 0's cells.  Agent j's row adds the scalar
    # j * n * GOLDEN, which is exact because uint64 arithmetic is a ring.
    offsets: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        offsets = _hash_inputs(self.key, np.arange(self.n_items))
        offsets.setflags(write=False)
        object.__setattr__(self, "offsets", offsets)

    @property
    def n_items(self) -> int:
        return self.means.shape[0]

    def _stride(self, agent: int) -> np.uint64:
        """What agent ``agent``'s hash inputs add to agent 0's."""
        return np.uint64(int(agent) * self.n_items * int(_GOLDEN) % (1 << 64))

    def row(self, agent: int) -> np.ndarray:
        return _normals(self.offsets + self._stride(agent), self.means, self.stds)

    def values(self, agents: np.ndarray, items: np.ndarray | int) -> np.ndarray:
        """Cells ``(agents[k], items[k])``; one item broadcasts over the agents."""
        it = np.asarray(items)
        # A ufunc call, not ``+``: NumPy scalar arithmetic warns when it wraps.
        z = np.add(self.offsets[it], np.asarray(agents, dtype=np.uint64) * self._stride(1))
        return _normals(np.asarray(z), self.means[it], self.stds[it])


ValuationBackend = Union[DenseValuations, HashedNormalValuations]


# ---------------------------------------------------------------------------
# Instances
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MarketInstance:
    """An economy: agents with quasilinear utility, items, and cash endowments.

    ``valuations`` maps (agent, item) to utility units; ``budgets[j]`` is the
    cash agent ``j`` walks in with, finite and nonnegative.  Querying the null
    item yields exactly 0.
    """

    valuations: ValuationBackend
    budgets: np.ndarray

    def __post_init__(self) -> None:
        if self.budgets.shape != (self.valuations.n_agents,):
            raise ValueError("budgets must have one entry per agent")
        if not np.all(np.isfinite(self.budgets) & (self.budgets >= 0)):
            raise ValueError("budgets must be finite and nonnegative")

    @property
    def n_agents(self) -> int:
        return self.valuations.n_agents

    @property
    def n_items(self) -> int:
        return self.valuations.n_items

    def value(self, agent: int, item: int | None) -> float:
        """One cell.  On a hashed field this builds the agent's whole row, so
        read many cells with ``cells`` or ``held_values``."""
        if not 0 <= agent < self.n_agents:
            raise ValueError(f"agent {agent} out of range")
        if item is None:
            return 0.0
        if not 0 <= item < self.n_items:
            raise ValueError(f"item {item} out of range")
        return float(self.valuations.row(agent)[item])

    def cells(self, agents: Sequence[int], items: Sequence[int]) -> np.ndarray:
        """Cells ``(agents[k], items[k])``, read in one backend call.

        Ids are range-checked as in ``value``: a negative id never wraps, and
        a hashed field never hashes an id outside it.
        """
        a = np.asarray(agents, dtype=np.int64)
        i = np.asarray(items, dtype=np.int64)
        if np.any((a < 0) | (a >= self.n_agents)):
            raise ValueError("agent id out of range")
        if np.any((i < 0) | (i >= self.n_items)):
            raise ValueError("item id out of range")
        return self.valuations.values(a, i)

    def held_values(self, assignment: np.ndarray) -> np.ndarray:
        """Each agent's value for the item it holds under ``assignment``, an
        item id per agent with -1 for none (worth 0)."""
        a = np.asarray(assignment, dtype=np.int64)
        if a.shape != (self.n_agents,):
            raise ValueError("assignment must hold one item id per agent")
        values = np.zeros(self.n_agents)
        holders = np.flatnonzero(a != -1)
        values[holders] = self.cells(holders, a[holders])
        return values

    def row(self, agent: int) -> np.ndarray:
        """All item values for one agent.  Treat the result as read-only."""
        if not 0 <= agent < self.n_agents:
            raise ValueError(f"agent {agent} out of range")
        return self.valuations.row(agent)

    @classmethod
    def from_matrix(
        cls, valuations: Sequence[Sequence[float]], budgets: Sequence[float] | None = None
    ) -> "MarketInstance":
        backend = DenseValuations(np.asarray(valuations, dtype=np.float64))
        if budgets is None:
            b = np.zeros(backend.n_agents)
        else:
            b = np.array(budgets, dtype=np.float64)
        b.setflags(write=False)
        return cls(valuations=backend, budgets=b)

    def dense_matrix(self, items: Sequence[int] | None = None) -> np.ndarray:
        """Every agent's values for ``items`` (default: all items), one row per
        agent.  A dense backend is sliced from the stored matrix; any other is
        read one row per agent.  Treat the result as read-only."""
        cols = slice(None) if items is None else np.asarray(items, dtype=np.int64)
        if isinstance(self.valuations, DenseValuations):
            return self.valuations.matrix[:, cols]
        return np.vstack([self.valuations.row(j)[cols] for j in range(self.n_agents)])


def instance_to_json(instance: MarketInstance) -> dict:
    if (
        not isinstance(instance.valuations, DenseValuations)
        and instance.n_agents * instance.n_items > _DENSIFY_LIMIT
    ):
        raise ValueError("valuation field too large to serialize")
    return {
        "schema_version": SCHEMA_VERSION,
        "n_agents": instance.n_agents,
        "n_items": instance.n_items,
        "valuations": [[float(v) for v in row] for row in instance.dense_matrix()],
        "budgets": [float(b) for b in instance.budgets],
    }


def _is_number(x: object) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _is_count(x: object, least: int) -> bool:
    return isinstance(x, int) and not isinstance(x, bool) and x >= least


def instance_from_json(payload: object) -> MarketInstance:
    """Rebuild an instance from its JSON document; ``ValueError`` if malformed."""
    if not isinstance(payload, dict):
        raise ValueError("instance must be a JSON object")
    missing = [key for key in ("n_agents", "n_items", "valuations") if key not in payload]
    if missing:
        raise ValueError(f"instance lacks {', '.join(missing)}")
    n_agents, n_items, rows = payload["n_agents"], payload["n_items"], payload["valuations"]
    if not (_is_count(n_agents, 1) and _is_count(n_items, 0)):
        raise ValueError("n_agents must be a positive and n_items a nonnegative integer")
    if not (
        isinstance(rows, list)
        and len(rows) == n_agents
        and all(isinstance(r, list) and len(r) == n_items and all(map(_is_number, r)) for r in rows)
    ):
        raise ValueError("valuations must be an n_agents x n_items matrix of numbers")
    budgets = payload.get("budgets")
    if budgets is not None and not (
        isinstance(budgets, list) and len(budgets) == n_agents and all(map(_is_number, budgets))
    ):
        raise ValueError("budgets must be a list of n_agents numbers")
    try:
        vals = np.array(rows, dtype=np.float64).reshape(n_agents, n_items)
        return MarketInstance.from_matrix(vals, budgets)
    except OverflowError as exc:
        raise ValueError("instance holds a number too large for a float") from exc


def save_instance(instance: MarketInstance, path: str | Path) -> None:
    Path(path).write_text(json.dumps(instance_to_json(instance), indent=2) + "\n")


def load_instance(path: str | Path) -> MarketInstance:
    return instance_from_json(json.loads(Path(path).read_text()))


# ---------------------------------------------------------------------------
# Allocations, transfers, outcomes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Allocation:
    """Injective map from agents to items; ``None`` marks an unmatched agent.

    The same type serves both as a mechanism's final assignment and as the
    endowment fixed by a pick stage.
    """

    assignment: tuple[int | None, ...]

    def __post_init__(self) -> None:
        seen: set[int] = set()
        for item in self.assignment:
            if item is None:
                continue
            # bool subclasses int; np.bool_ is no np.integer.
            if type(item) is bool or not isinstance(item, (int, np.integer)) or item < 0:
                raise ValueError(f"invalid item id {item!r}")
            if item in seen:
                raise ValueError(f"allocation not injective: item {item} assigned twice")
            seen.add(int(item))

    @property
    def n_agents(self) -> int:
        return len(self.assignment)

    def items(self) -> frozenset[int]:
        return frozenset(i for i in self.assignment if i is not None)

    def owner_of(self) -> dict[int, int]:
        return {item: agent for agent, item in enumerate(self.assignment) if item is not None}

    def validate_for(self, instance: MarketInstance) -> list[str]:
        problems = []
        if self.n_agents != instance.n_agents:
            problems.append("allocation length does not match agent count")
        n_items = instance.n_items
        for item in self.items():
            if item >= n_items:
                problems.append(f"item {item} out of range")
        return problems

    @classmethod
    def from_array(cls, assignment: np.ndarray) -> "Allocation":
        """Build from an int array using -1 as the null marker."""
        if np.asarray(assignment).dtype == bool:
            raise ValueError("item ids must be integers, not booleans")
        return cls(tuple(None if i < 0 else int(i) for i in assignment))

    def to_array(self) -> np.ndarray:
        return np.array([-1 if i is None else i for i in self.assignment], dtype=np.int64)


PickOrder = tuple[int, ...]


def validate_order(order: Sequence[int], n_agents: int) -> PickOrder:
    order_t = tuple(int(j) for j in order)
    if sorted(order_t) != list(range(n_agents)):
        raise ValueError("order must be a permutation of all agent ids")
    return order_t


def random_order(n_agents: int, seed: int) -> PickOrder:
    return tuple(int(j) for j in np.random.default_rng(seed).permutation(n_agents))


@dataclass(frozen=True)
class TradeRecord:
    """One executed bilateral trade.

    ``price`` is signed from proposer to counterparty (positive: the proposer
    pays).  ``cost`` is the transaction fee collected from the counterparty's
    (seller's) proceeds; it leaves the system rather than moving between
    agents.
    """

    step: int
    proposer: int
    counterparty: int
    item_acquired: int
    item_given: int
    price: float
    cost: float = 0.0


@dataclass(frozen=True)
class Outcome:
    """An allocation together with a zero-sum transfer profile and trade log."""

    allocation: Allocation
    transfers: tuple[float, ...]
    trade_log: tuple[TradeRecord, ...] = field(default=())

    def seller_costs(self) -> np.ndarray:
        """Per-agent transaction fees paid out of sale proceeds."""
        costs = np.zeros(self.allocation.n_agents)
        for rec in self.trade_log:
            costs[rec.counterparty] += rec.cost
        return costs


def zero_outcome(allocation: Allocation) -> Outcome:
    return Outcome(allocation=allocation, transfers=(0.0,) * allocation.n_agents)


# ---------------------------------------------------------------------------
# Welfare accounting
# ---------------------------------------------------------------------------


def utilities(instance: MarketInstance, outcome: Outcome) -> np.ndarray:
    """Quasilinear payoffs: item value plus cash plus net transfer, less sale fees."""
    held = instance.held_values(outcome.allocation.to_array())
    return held + instance.budgets + np.asarray(outcome.transfers, float) - outcome.seller_costs()


def total_welfare(instance: MarketInstance, allocation: Allocation) -> float:
    """Sum of assigned item values; transfers cancel and never enter."""
    # Builtin ``sum`` adds in agent order; ``ndarray.sum`` sums pairwise and
    # would change the last bits.
    return float(sum(instance.held_values(allocation.to_array()).tolist()))


def pareto_dominates(instance: MarketInstance, a: Outcome, b: Outcome) -> bool:
    """True iff ``a`` leaves every agent weakly better off than ``b`` and one strictly."""
    ua = utilities(instance, a)
    ub = utilities(instance, b)
    return bool(np.all(ua >= ub) and np.any(ua > ub))


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


def replay_trade_log(outcome: Outcome) -> tuple[Allocation, np.ndarray]:
    """Undo the trade log to recover the pre-trade allocation and transfers."""
    assignment = list(outcome.allocation.assignment)
    transfers = np.array(outcome.transfers, dtype=np.float64)
    for rec in reversed(outcome.trade_log):
        if assignment[rec.proposer] != rec.item_acquired:
            raise ValueError(f"trade log inconsistent at step {rec.step}")
        if assignment[rec.counterparty] != rec.item_given:
            raise ValueError(f"trade log inconsistent at step {rec.step}")
        assignment[rec.proposer] = rec.item_given
        assignment[rec.counterparty] = rec.item_acquired
        transfers[rec.proposer] += rec.price
        transfers[rec.counterparty] -= rec.price
    return Allocation(tuple(assignment)), transfers


def validate_outcome(
    instance: MarketInstance, outcome: Outcome, *, atol: float | None = None
) -> list[str]:
    """Check all outcome invariants; returns a list of violations (empty = ok).

    ``atol`` bounds the allowed deviation of the transfer sum from zero;
    ``None`` means ``1e-9 * n_agents``.  An exact check (0) fails on valid
    integer markets whose prices split a surplus inexactly, e.g. at 0.3.
    """
    if atol is None:
        atol = 1e-9 * instance.n_agents
    problems = outcome.allocation.validate_for(instance)
    if len(outcome.transfers) != instance.n_agents:
        problems.append("transfer profile length does not match agent count")
        return problems
    if not all(np.isfinite(t) for t in outcome.transfers):
        problems.append("transfers must be finite")
    # Summed exactly: running sums at a budget's scale round by more than atol.
    elif abs(total := math.fsum(outcome.transfers)) > atol:
        problems.append(f"transfer sum != 0 (got {total!r})")
    for rec in outcome.trade_log:
        if not np.isfinite(rec.price):
            problems.append(f"trade step {rec.step}: price not finite")
        if rec.cost < 0:
            problems.append(f"trade step {rec.step}: negative transaction cost")
    if outcome.trade_log:
        try:
            _, pre_transfers = replay_trade_log(outcome)
        except ValueError as exc:
            problems.append(str(exc))
        else:
            # Mechanisms start the trade phase from an all-zero profile, so
            # undoing the log must land back on zero.
            if np.max(np.abs(pre_transfers)) > max(atol, 1e-9):
                problems.append("trade log does not replay to the recorded transfers")
    return problems
