"""Assignment-market optimization: welfare-maximal reallocation, supporting prices, oracles.

The centerpiece is the price computation: given a welfare-maximizing
reallocation of a set of endowed items, find the componentwise-minimal
nonnegative item prices under which every agent's assigned item maximizes
``value - price``.  Transfers read off those prices make the whole reshuffle
budget-balanced and individually rational.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

import numpy as np
from scipy.optimize import linear_sum_assignment

from .errors import InternalInvariantError, PreconditionError
from .market import Allocation, MarketInstance

_ATOL = 1e-9

# Agents evaluated per NumPy expression by the block sweeps below.
_BLOCK = 16

BRUTE_FORCE_MAX_AGENTS = 10


@dataclass(frozen=True)
class PriceVector:
    """Per-item prices supporting a competitive reallocation of endowed items."""

    prices: np.ndarray

    def __post_init__(self) -> None:
        p = np.asarray(self.prices, dtype=np.float64)
        if not np.all(np.isfinite(p)):
            raise ValueError("prices must be finite")
        p.setflags(write=False)
        object.__setattr__(self, "prices", p)

    def __getitem__(self, item: int) -> float:
        return float(self.prices[item])


# ---------------------------------------------------------------------------
# Welfare-maximizing assignment
# ---------------------------------------------------------------------------


def _tight_edges(values: np.ndarray, match: np.ndarray) -> np.ndarray:
    """Zero-reduced-cost edges of a square assignment problem, given an optimal matching.

    Column potentials are the least fixed point, floored at 0, of
        p[c] >= p[a(j)] + V[j, c] - V[j, a(j)]
    (a Bellman-Ford longest-path sweep, vectorized over agents); with
    ``u[j] = V[j, a(j)] - p[a(j)]`` the pair ``(u, p)`` is an optimal dual.
    """
    m = len(match)
    own = values[np.arange(m), match]
    gain = values - own[:, None]
    potentials = np.zeros(m)
    for _sweep in range(m + 1):
        bound = np.max(potentials[match][:, None] + gain, axis=0)
        if not np.any(bound > potentials + 1e-12):
            break
        np.maximum(potentials, bound, out=potentials)
    else:
        raise InternalInvariantError("assignment solve returned a non-optimal matching")
    utility = own - potentials[match]
    return utility[:, None] + potentials[None, :] - values <= _ATOL


def _item_ids(instance: MarketInstance, item_subset: Iterable[int] | None) -> list[int]:
    """``item_subset`` (default: all items) as sorted distinct ids, each in
    range, at least one and no more than there are agents."""
    if item_subset is None:
        item_subset = range(instance.n_items)
    items = sorted(set(int(i) for i in item_subset))
    if not items:
        raise ValueError("item_subset must contain at least one item")
    if items[0] < 0 or items[-1] >= instance.n_items:
        raise ValueError("item_subset contains out-of-range ids")
    if len(items) > instance.n_agents:
        raise ValueError("cannot assign more items than agents")
    return items


def max_welfare_allocation(
    instance: MarketInstance, item_subset: Iterable[int] | None = None
) -> Allocation:
    """Welfare-maximizing assignment of exactly the given items to agents.

    Every item in ``item_subset`` (default: all items) is assigned; agents can
    be left unmatched when there are fewer items than agents.  Ties are broken
    toward the lexicographically smallest assignment vector, with ``None``
    sorting after every real item id.

    One assignment solve decides every tie.  The k items are padded with
    m - k zero-valued null columns (sorting after every item) and the square
    problem is solved once.  By Shapley-Shubik (1971) a single optimal dual
    supports every efficient allocation, so the optimal assignments are
    exactly the perfect matchings of the tight (zero-reduced-cost) graph of
    the dual read off that solution.  Agents are then fixed in id order, each
    to its smallest tight column that is either its current column or reaches
    that column by an alternating path through the columns still unfixed (arc
    c -> c' when the holder of c is tight to c'); the matching is rotated
    along the path.  The walk is a block sweep: the columns still unfixed for
    agent b are those held by agents >= b, and b keeps its column exactly when
    that column is its first tight unfixed one, so one NumPy expression tests
    a block of agents against the current matching.  Only the first agent in
    the block that fails the test runs the reverse breadth-first search and
    the rotation, and the sweep resumes after it; every agent therefore sees
    the matching it would see one agent at a time, and the result is the
    same.  Each search is O(m^2), so the tie-break is O(m^3) after the solve.
    """
    items = _item_ids(instance, item_subset)
    m = instance.n_agents
    k = len(items)
    values = np.zeros((m, m))
    values[:, :k] = instance.dense_matrix(items)
    _, match = linear_sum_assignment(values, maximize=True)
    tight = _tight_edges(values, match)

    holder = np.empty(m, dtype=np.int64)
    holder[match] = np.arange(m)
    agent = 0
    while agent < m:
        # Block sweep (see the docstring): jump to the first agent in the
        # block whose first tight unfixed column is not its own.
        block = np.arange(agent, min(agent + _BLOCK, m))
        first = (tight[block] & (holder >= block[:, None])).argmax(axis=1)
        kept = first == match[block]
        if kept.all():
            agent += block.size
            continue
        agent = int(block[kept.argmin()])
        target = int(match[agent])
        unfixed = holder >= agent
        candidates = np.flatnonzero(tight[agent] & unfixed)
        if candidates.size == 0:
            raise InternalInvariantError("tie-break search exhausted all candidates")
        # Reverse breadth-first search: which unfixed columns reach the
        # agent's current column along alternating paths?  levels[d] holds
        # the columns first reached after d arcs, in increasing id order.
        unreached = unfixed.copy()
        unreached[target] = False
        levels = [np.array([target])]
        while levels[-1].size and unreached[candidates[0]]:
            entering = tight[:, levels[-1]].any(axis=1)[holder] & unreached
            levels.append(np.flatnonzero(entering))
            unreached[levels[-1]] = False
        reachable = candidates[~unreached[candidates]]
        if reachable.size == 0:
            raise InternalInvariantError("tie-break search lost the optimum")
        # Walk back from the smallest reachable candidate, each column's
        # holder moving to the first column of the level before it that it
        # is tight to, and rotate the matching along that path.
        path = [int(reachable[0])]
        depth = next(d for d, level in enumerate(levels) if path[0] in level)
        for level in reversed(levels[:depth]):
            path.append(int(level[tight[holder[path[-1]], level].argmax()]))
        movers = holder[path[:-1]]
        match[movers] = path[1:]
        holder[path[1:]] = movers
        match[agent] = path[0]
        holder[path[0]] = agent
        agent += 1
    return Allocation(tuple(items[c] if c < k else None for c in match.tolist()))


# ---------------------------------------------------------------------------
# Brute-force oracle
# ---------------------------------------------------------------------------


@lru_cache(maxsize=16)
def _agent_tuples_small(m: int, k: int) -> np.ndarray:
    """All injective choices of k agents out of m, as a (P, k) array."""
    return np.array(list(itertools.permutations(range(m), k)), dtype=np.int64)


def _iter_agent_tuples(m: int, k: int, chunk: int = 200_000) -> Iterable[np.ndarray]:
    if m <= 8:
        yield _agent_tuples_small(m, k)
        return
    it = itertools.permutations(range(m), k)
    while True:
        block = list(itertools.islice(it, chunk))
        if not block:
            return
        yield np.array(block, dtype=np.int64)


def brute_force_optimal(
    instance: MarketInstance, item_subset: Iterable[int] | None = None
) -> tuple[Allocation, float]:
    """Exhaustive-enumeration welfare maximum; independent of the solver above.

    Guarded to ``n_agents <= 10``; use :func:`max_welfare_allocation` beyond
    that.  Returns the lexicographically smallest argmax for determinism.
    """
    m = instance.n_agents
    if m > BRUTE_FORCE_MAX_AGENTS:
        raise PreconditionError(
            f"instance too large for enumeration ({m} agents > {BRUTE_FORCE_MAX_AGENTS})"
        )
    items = _item_ids(instance, item_subset)
    values = instance.dense_matrix(items)
    k = len(items)
    cols = np.arange(k)[None, :]
    null_mark = instance.n_items  # sorts after every real item id

    best = -np.inf
    best_key: tuple[int, ...] | None = None
    for choosers in _iter_agent_tuples(m, k):
        welfare = values[choosers, cols].sum(axis=1)
        chunk_best = float(welfare.max())
        if chunk_best > best + _ATOL:
            best = chunk_best
            best_key = None
        if chunk_best >= best - _ATOL:
            for row in np.nonzero(welfare >= best - _ATOL)[0]:
                assignment: list[int] = [null_mark] * m
                for col, agent in enumerate(choosers[row]):
                    assignment[agent] = items[col]
                key = tuple(assignment)
                if best_key is None or key < best_key:
                    best_key = key
    assert best_key is not None
    allocation = Allocation(tuple(None if i == null_mark else i for i in best_key))
    return allocation, best


# ---------------------------------------------------------------------------
# Supporting prices
# ---------------------------------------------------------------------------


def ce_prices(
    instance: MarketInstance, endowment: Allocation, allocation: Allocation
) -> PriceVector:
    """Componentwise-minimal nonnegative prices supporting ``allocation``.

    ``allocation`` must be a welfare-maximizing reassignment of exactly the
    endowed items (otherwise no supporting prices exist and a
    ``PreconditionError`` is raised).  Items outside the endowment are pinned
    at price 0; when some agent would rather take one of them for free than
    keep their assignment, no supporting prices exist either, and the same
    error is raised.

    The minimal vector is the least fixed point of the demand constraints
        p[i] >= p[a(j)] + v_j(i) - v_j(a(j))        (assigned agents j)
        p[i] >= v_j(i)                              (unassigned agents j)
    over the endowed items, floored at 0.  Iterating the constraints is a
    longest-path/Bellman-Ford computation; an improving cycle (which would
    make it diverge) exists exactly when the allocation is not optimal.

    The iteration is a Gauss-Seidel sweep over the assigned agents in id
    order, applying an agent's bound only when it raises some price by more
    than 1e-12.  Each sweep is a block sweep: one NumPy expression computes
    ``(p[a(j)] + v_j) - v_j(a(j))`` for the next block of agents at the
    current prices, and the sweep jumps to the first agent whose bound raises
    a price, applies that bound and resumes after it.  The agents it skips
    would have changed nothing, so every agent sees the prices it would see
    sequentially and every price comes from the same two additions: the
    result is bit-identical to the one-agent-at-a-time loop.  Each agent's
    values are read once (dense valuations straight from the stored matrix),
    and the unassigned agents' bounds and the checks against non-endowed
    items are exact maxima over them.
    """
    if endowment.items() != allocation.items():
        raise PreconditionError("allocation must redistribute exactly the endowed items")
    for problems in (endowment.validate_for(instance), allocation.validate_for(instance)):
        if problems:
            raise ValueError("; ".join(problems))

    held = allocation.to_array()
    assigned = np.flatnonzero(held >= 0)
    items = held[assigned]
    in_market = np.zeros(instance.n_items, dtype=bool)
    in_market[items] = True
    values = instance.dense_matrix()
    rows = values[assigned]
    own = rows[np.arange(assigned.size), items]
    prices = np.zeros(instance.n_items)

    # Base lower bounds from agents who hold nothing: no item may offer them
    # positive surplus.
    if assigned.size < held.size:
        np.maximum(prices, values[held < 0].max(axis=0), out=prices, where=in_market)

    # Block sweeps (see the docstring).  Items outside the market never
    # raise a bound (their slack is infinite) and are never raised.
    slack = np.where(in_market, 1e-12, np.inf)
    limit = prices + slack
    for _sweep in range(assigned.size + 1):
        changed = False
        start = 0
        while start < assigned.size:
            stop = start + _BLOCK
            bound = prices[items[start:stop], None] + rows[start:stop]
            bound -= own[start:stop, None]
            raises = bound > limit
            at = int(raises.argmax())
            if not raises.flat[at]:
                start = stop
                continue
            first = at // rows.shape[1]
            np.maximum(prices, bound[first], out=prices, where=in_market)
            limit = prices + slack
            changed = True
            start += first + 1
        if not changed:
            break
    else:
        raise PreconditionError(
            "no supporting prices: allocation is not welfare-maximal over the endowed items"
        )

    # Demand constraints on non-endowed items (pinned at price 0) are pure
    # feasibility checks, for assigned and unassigned agents alike; they can
    # fail only when some item was left unpicked.
    if not np.all(in_market):
        own_surplus = np.zeros(held.size)
        own_surplus[assigned] = own - prices[items]
        if np.any(values[:, ~in_market].max(axis=1) > own_surplus + _ATOL):
            raise PreconditionError(
                "no supporting prices exist with unpicked items pinned at zero"
            )
    return PriceVector(prices)


def verify_ce(
    instance: MarketInstance,
    endowment: Allocation,
    allocation: Allocation,
    prices: PriceVector | np.ndarray,
) -> bool:
    """Check the competitive-reallocation conditions.

    True iff (1) every assigned agent's item attains ``max_i v_j(i) - p(i)``
    over all items, and unassigned agents see no positive surplus anywhere;
    (2) the allocated item set equals the endowed item set; (3) non-endowed
    items are priced at 0; and (4) prices are nonnegative, which is part of
    the canonical normalization here.  An allocation for another number of
    agents is rejected.  Condition (1) is one max over the valuation matrix.
    """
    p = prices.prices if isinstance(prices, PriceVector) else np.asarray(prices, dtype=float)
    if p.shape != (instance.n_items,):
        return False
    if allocation.items() != endowment.items():
        return False
    if np.any(p < -_ATOL):
        return False
    in_market = np.zeros(instance.n_items, dtype=bool)
    in_market[sorted(allocation.items())] = True
    if np.any(np.abs(p[~in_market]) > _ATOL):
        return False
    if allocation.n_agents != instance.n_agents:
        return False
    surplus = instance.dense_matrix() - p
    best = surplus.max(axis=1) if instance.n_items else np.zeros(instance.n_agents)
    items = allocation.to_array()
    holders = np.flatnonzero(items >= 0)
    own = surplus[holders, items[holders]]
    unassigned = items < 0
    return not (np.any(best[unassigned] > _ATOL) or np.any(own < best[holders] - _ATOL))


def transfers_from_prices(
    endowment: Allocation, allocation: Allocation, prices: PriceVector
) -> tuple[float, ...]:
    """Endowment value minus final purchase at the supporting prices."""
    priced = np.append(prices.prices, 0.0)  # index -1, the null item, is free
    return tuple((priced[endowment.to_array()] - priced[allocation.to_array()]).tolist())


# ---------------------------------------------------------------------------
# Bilateral trade tests
# ---------------------------------------------------------------------------


def trade_surplus(instance: MarketInstance, allocation: Allocation, j: int, k: int) -> float:
    """Joint gain if agents ``j`` and ``k`` swap their current items.

    The surplus is ``[v_j(a(k)) + v_k(a(j))] - [v_j(a(j)) + v_k(a(k))]``;
    some payment makes both sides strictly better off iff it is positive.
    """
    if j == k:
        raise ValueError("agents must be distinct")
    item_j = allocation.assignment[j]
    item_k = allocation.assignment[k]
    if item_j is None or item_k is None:
        raise ValueError("both agents must hold an item")
    j_gets, k_gets, j_has, k_has = instance.cells(
        [j, k, j, k], [item_k, item_j, item_j, item_k]
    ).tolist()
    return j_gets + k_gets - j_has - k_has
