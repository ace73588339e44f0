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
from typing import Iterable, Sequence

import numpy as np
from scipy.optimize import linear_sum_assignment

from .errors import InternalInvariantError, PreconditionError
from .market import Allocation, MarketInstance, validate_order

_ATOL = 1e-9

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

    def of(self, item: int | None) -> float:
        """Price of an item, with the null item priced at 0."""
        return 0.0 if item is None else float(self.prices[item])


@dataclass(frozen=True)
class TradeSurplus:
    """Joint gain from a bilateral item swap; positive means the swap is viable."""

    surplus: float

    @property
    def feasible(self) -> bool:
        return self.surplus > 0


# ---------------------------------------------------------------------------
# Welfare-maximizing assignment
# ---------------------------------------------------------------------------


def _submatrix(instance: MarketInstance, items: Sequence[int]) -> np.ndarray:
    cols = np.asarray(items, dtype=np.int64)
    return np.vstack([instance.row(j)[cols] for j in range(instance.n_agents)])


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
    along the path.  Each agent costs one reverse breadth-first search over
    the columns, O(m^2), so the tie-break is O(m^3) after the solve.
    """
    if item_subset is None:
        item_subset = range(instance.n_items)
    items = sorted(set(int(i) for i in item_subset))
    if not items:
        raise ValueError("item_subset must contain at least one item")
    if any(i < 0 or i >= instance.n_items for i in items):
        raise ValueError("item_subset contains out-of-range ids")
    m = instance.n_agents
    k = len(items)
    if k > m:
        raise ValueError("cannot assign more items than agents")

    values = np.zeros((m, m))
    values[:, :k] = _submatrix(instance, items)
    _, match = linear_sum_assignment(values, maximize=True)
    tight = _tight_edges(values, match)

    holder = np.empty(m, dtype=np.int64)
    holder[match] = np.arange(m)
    unfixed = np.ones(m, dtype=bool)
    for agent in range(m):
        target = int(match[agent])
        candidates = np.flatnonzero(tight[agent] & unfixed)
        if candidates.size == 0:
            raise InternalInvariantError("tie-break search exhausted all candidates")
        best = int(candidates[0])
        if best != target:
            # Reverse breadth-first search: which unfixed columns reach the
            # agent's current column along alternating paths?
            reached = np.zeros(m, dtype=bool)
            reached[target] = True
            successor = np.full(m, -1, dtype=np.int64)
            frontier = np.array([target])
            while frontier.size and not reached[best]:
                pending = np.flatnonzero(unfixed & ~reached)
                hits = tight[np.ix_(holder[pending], frontier)]
                found = hits.any(axis=1)
                successor[pending[found]] = frontier[hits[found].argmax(axis=1)]
                frontier = pending[found]
                reached[frontier] = True
            reachable = candidates[reached[candidates]]
            if reachable.size == 0:
                raise InternalInvariantError("tie-break search lost the optimum")
            best = int(reachable[0])
            path = [best]
            while path[-1] != target:
                path.append(int(successor[path[-1]]))
            movers = holder[path[:-1]]
            match[movers] = path[1:]
            holder[path[1:]] = movers
            match[agent] = best
            holder[best] = agent
        unfixed[best] = False
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
    if item_subset is None:
        item_subset = range(instance.n_items)
    items = sorted(set(int(i) for i in item_subset))
    if len(items) > m:
        raise ValueError("cannot assign more items than agents")
    values = _submatrix(instance, items)
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
    at price 0.

    The minimal vector is the least fixed point of the demand constraints
        p[i] >= p[a(j)] + v_j(i) - v_j(a(j))        (assigned agents j)
        p[i] >= v_j(i)                              (unassigned agents j)
    over the endowed items, floored at 0.  Iterating the constraints is a
    longest-path/Bellman-Ford computation; an improving cycle (which would
    make it diverge) exists exactly when the allocation is not optimal.
    """
    if endowment.items() != allocation.items():
        raise PreconditionError("allocation must redistribute exactly the endowed items")
    for problems in (endowment.validate_for(instance), allocation.validate_for(instance)):
        if problems:
            raise ValueError("; ".join(problems))

    allocated = sorted(allocation.items())
    prices = np.zeros(instance.n_items)
    in_market = np.zeros(instance.n_items, dtype=bool)
    in_market[allocated] = True

    assigned = [(j, item) for j, item in enumerate(allocation.assignment) if item is not None]
    unassigned = [j for j, item in enumerate(allocation.assignment) if item is None]

    # Base lower bounds from agents who hold nothing: no item may offer them
    # positive surplus.
    for j in unassigned:
        np.maximum(prices, np.where(in_market, instance.row(j), 0.0), out=prices)

    for _sweep in range(len(assigned) + 1):
        changed = False
        for j, item in assigned:
            row = instance.row(j)
            bound = prices[item] + row - row[item]
            bound[~in_market] = 0.0
            if np.any(bound > prices + 1e-12):
                prices = np.maximum(prices, bound)
                changed = True
        if not changed:
            break
    else:
        raise PreconditionError(
            "no supporting prices: allocation is not welfare-maximal over the endowed items"
        )

    # Demand constraints involving non-endowed items (pinned at price 0) are
    # pure feasibility checks; they can fail only when some item was left
    # unpicked, a configuration outside the square-market setting.
    for j, item in assigned:
        row = instance.row(j)
        own_surplus = row[item] - prices[item]
        outside = np.where(~in_market, row, -np.inf)
        if outside.size and np.max(outside) > own_surplus + _ATOL:
            raise InternalInvariantError(
                "no supporting prices exist with unpicked items pinned at zero"
            )
    return PriceVector(prices)


def verify_ce(
    instance: MarketInstance,
    endowment: Allocation,
    allocation: Allocation,
    prices: PriceVector | np.ndarray,
    *,
    atol: float = _ATOL,
) -> bool:
    """Check the competitive-reallocation conditions.

    True iff (1) every assigned agent's item attains ``max_i v_j(i) - p(i)``
    over all items, and unassigned agents see no positive surplus anywhere;
    (2) the allocated item set equals the endowed item set; (3) non-endowed
    items are priced at 0; and (4) prices are nonnegative, which is part of
    the canonical normalization here.
    """
    p = prices.prices if isinstance(prices, PriceVector) else np.asarray(prices, dtype=float)
    if p.shape != (instance.n_items,):
        return False
    if allocation.items() != endowment.items():
        return False
    if np.any(p < -atol):
        return False
    in_market = np.zeros(instance.n_items, dtype=bool)
    in_market[sorted(allocation.items())] = True
    if np.any(np.abs(p[~in_market]) > atol):
        return False
    for j, item in enumerate(allocation.assignment):
        surplus = instance.row(j) - p
        best = float(np.max(surplus)) if surplus.size else 0.0
        own = 0.0 if item is None else float(surplus[item])
        if item is None:
            if best > atol:
                return False
        elif own < best - atol:
            return False
    return True


def transfers_from_prices(
    endowment: Allocation, allocation: Allocation, prices: PriceVector
) -> tuple[float, ...]:
    """Endowment value minus final purchase at the supporting prices."""
    return tuple(
        prices.of(e) - prices.of(a)
        for e, a in zip(endowment.assignment, allocation.assignment)
    )


# ---------------------------------------------------------------------------
# Bilateral trade tests
# ---------------------------------------------------------------------------


def trade_feasible(
    instance: MarketInstance, allocation: Allocation, j: int, k: int
) -> tuple[bool, TradeSurplus]:
    """Swap viability for agents ``j`` and ``k`` under the current allocation.

    The joint surplus is ``[v_j(a(k)) + v_k(a(j))] - [v_j(a(j)) + v_k(a(k))]``;
    some payment makes both sides strictly better off iff it is positive.
    """
    if j == k:
        raise ValueError("agents must be distinct")
    item_j = allocation.assignment[j]
    item_k = allocation.assignment[k]
    if item_j is None or item_k is None:
        raise ValueError("both agents must hold an item")
    surplus = (
        instance.value(j, item_k)
        + instance.value(k, item_j)
        - instance.value(j, item_j)
        - instance.value(k, item_k)
    )
    return surplus > 0, TradeSurplus(surplus)


# ---------------------------------------------------------------------------
# Feasibility of sequential correction
# ---------------------------------------------------------------------------


def interim_feasibility_check(instance: MarketInstance, order: Sequence[int]) -> bool:
    """Can each picker reach the running welfare optimum with one pick plus one swap?

    Simulates the sequential pick-and-backward-trade play under gain-aligned
    bargaining (the proposer captures the whole surplus, reservations may be
    negative) and checks, after every turn, that the welfare of the processed
    prefix equals the optimum an assignment solver finds for those agents over
    all items.  Under that bargaining the play always attains whatever a
    single pick plus a single backward swap can reach, so welfare tracking the
    prefix optimum is exactly one-swap reachability at every turn.
    """
    from .mechanisms import TradePolicy, interim_transfers  # deferred: avoids module cycle

    order_t = validate_order(order, instance.n_agents)
    policy = TradePolicy(surplus_split=0.0, seller_reservation_floor=False)
    outcome = interim_transfers(instance, order_t, "lookback-strategic", policy)

    # Undoing the trade log recovers each agent's own pick; trades are logged
    # one per turn in pick order, so prefix states can be replayed exactly.
    from .market import replay_trade_log

    picks, _ = replay_trade_log(outcome)
    held: dict[int, int] = {}
    trades = {rec.proposer: rec for rec in outcome.trade_log}
    for turn, j in enumerate(order_t):
        pick = picks.assignment[j]
        if pick is None:
            break
        held[j] = pick
        rec = trades.get(j)
        if rec is not None:
            held[j] = rec.item_acquired
            held[rec.counterparty] = rec.item_given
        prefix = list(order_t[: turn + 1])
        rows = np.vstack([instance.row(a) for a in prefix])
        rr, cc = linear_sum_assignment(rows, maximize=True)
        target = float(rows[rr, cc].sum())
        achieved = float(sum(instance.value(a, held[a]) for a in prefix))
        if achieved < target - _ATOL:
            return False
    return True
