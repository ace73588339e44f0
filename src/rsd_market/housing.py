"""Large-scale housing-market simulation with budgets and transaction costs.

One replication runs two arms over the same agents, rooms, and pick order:

* baseline: truthful serial dictatorship on private values, no trading;
* treatment: picks driven by resale-informed ("augmented") values, followed by
  a single-pass bilateral aftermarket at seller-indifference prices, subject
  to budgets and the configured transaction cost.

Room values are drawn from per-room normal distributions whose parameters are
themselves random, so tastes are correlated across agents.  Valuations are
generated on demand from a hash of (seed, agent, room), never materialized as
a full matrix, and are bit-identical for a given seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Literal, Sequence

import numpy as np

from .market import (
    Allocation,
    HashedNormalValuations,
    MarketInstance,
    Outcome,
    TradeRecord,
    derive_seed,
)
from .mechanisms import NO_COST, TradePolicy, TransactionCost, pairwise_aftermarket, sd_assignment

MEAN_RANGE = (100.0, 10_000.0)
VARIANCE_RANGE = (500.0, 1_000.0)
DELTA_HISTOGRAM_BINS = 50

# The treatment arm's aftermarket: buyers pay the seller's (floored,
# fee-grossed) reservation, budgets bind, and each agent buys at most once.
HOUSING_POLICY = TradePolicy(surplus_split=0.0, pairwise_mode="single-pass", budget_enforced=True)


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WealthModel:
    """Initial cash: everyone equal, or exponentially spread income groups."""

    kind: Literal["equal", "power-law"] = "equal"
    amount: float = 10_000.0
    n_groups: int = 1000
    base: float = 1.01
    agents_per_group: int = 10

    def __post_init__(self) -> None:
        if self.kind not in ("equal", "power-law"):
            raise ValueError(f"unknown wealth model {self.kind!r}")
        if self.kind == "equal" and self.amount <= 0:
            raise ValueError("equal endowment must be positive")
        if self.kind == "power-law" and (
            self.n_groups < 1 or self.agents_per_group < 1 or self.base <= 0
        ):
            raise ValueError("power-law parameters must be positive")

    def budgets(self, n_agents: int) -> np.ndarray:
        if self.kind == "equal":
            return np.full(n_agents, float(self.amount))
        if n_agents != self.n_groups * self.agents_per_group:
            raise ValueError(
                "power-law wealth requires n_agents == n_groups * agents_per_group"
            )
        groups = np.arange(n_agents) // self.agents_per_group
        return np.power(float(self.base), groups.astype(np.float64))


def parse_wealth(spec: str) -> WealthModel:
    """Parse ``equal:AMOUNT`` or ``powerlaw:GROUPS,BASE,PER_GROUP``."""
    kind, _, rest = spec.partition(":")
    if kind == "equal":
        return WealthModel(kind="equal", amount=float(rest) if rest else 10_000.0)
    if kind == "powerlaw":
        groups, base, per = rest.split(",")
        return WealthModel(
            kind="power-law",
            n_groups=int(groups),
            base=float(base),
            agents_per_group=int(per),
        )
    raise ValueError(f"malformed wealth spec {spec!r}")


@dataclass(frozen=True)
class SimConfig:
    """Per-replication settings; one market has as many rooms as agents."""

    n_agents: int = 10_000
    wealth: WealthModel = field(default_factory=WealthModel)
    cost: TransactionCost = NO_COST

    def __post_init__(self) -> None:
        if self.n_agents < 1:
            raise ValueError("need at least one agent")


@dataclass(frozen=True)
class HousingInstance:
    """A generated market; its valuation field holds the per-room means and stds."""

    market: MarketInstance


def generate_instance(config: SimConfig, seed: int) -> HousingInstance:
    """Deterministically generate rooms, the valuation field, and budgets."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(0,)))
    means = rng.uniform(*MEAN_RANGE, size=config.n_agents)
    variances = rng.uniform(*VARIANCE_RANGE, size=config.n_agents)
    key = int(np.random.SeedSequence(entropy=seed, spawn_key=(1,)).generate_state(1)[0])
    backend = HashedNormalValuations(
        key=key,
        means=means,
        stds=np.sqrt(variances),
        n_agents=config.n_agents,
    )
    budgets = config.wealth.budgets(config.n_agents)
    budgets.setflags(write=False)
    means.setflags(write=False)
    return HousingInstance(market=MarketInstance(valuations=backend, budgets=budgets))


def replication_order(config: SimConfig, seed: int) -> tuple[int, ...]:
    """The fixed random ordering shared by both arms of a replication."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(2,)))
    return tuple(int(j) for j in rng.permutation(config.n_agents))


# ---------------------------------------------------------------------------
# Public and augmented valuations
# ---------------------------------------------------------------------------


def public_valuations(market: MarketInstance, assignment: np.ndarray) -> np.ndarray:
    """Resale estimate per room: the value its holder under ``assignment``
    (the truthful-pick baseline) places on it; 0 for unheld rooms."""
    v_pub = np.zeros(market.n_items)
    held = assignment >= 0
    v_pub[assignment[held]] = market.held_values(assignment)[held]
    return v_pub


@dataclass(frozen=True)
class AugmentedValuations:
    """Private values blended with a per-room public resale estimate.

    Each entry is ``max(private, (private + public) / 2)``: holding a room is
    always worth at least its private value, and a high resale estimate pulls
    the pick value up toward the average of the two.
    """

    base: object
    public: np.ndarray

    @property
    def n_agents(self) -> int:
        return self.base.n_agents

    @property
    def n_items(self) -> int:
        return self.base.n_items

    def row(self, agent: int) -> np.ndarray:
        private = self.base.row(agent)
        blend = private + self.public
        blend *= 0.5
        return np.maximum(private, blend, out=blend)


def augmented_valuations(
    market: MarketInstance, v_pub: np.ndarray, cost: TransactionCost = NO_COST
) -> AugmentedValuations:
    """Build the strategic pick values from private values and resale estimates.

    Agents know the transaction cost and discount the resale component by it:
    a fixed fee comes straight off the resale price, a proportional one scales
    it.  With no cost this is exactly the private/public blend.
    """
    if cost.kind == "fixed":
        net_public = v_pub - cost.amount
    else:
        net_public = v_pub * max(0.0, 1.0 - cost.amount)
    return AugmentedValuations(base=market.valuations, public=net_public)


# ---------------------------------------------------------------------------
# One replication
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SimReport:
    """Everything measured in one replication.

    Two reference points are tracked per agent.  ``delta`` compares the
    treatment arm against a separate truthful-pick run under the same seed and
    order (so it includes the noise of strategically distorted picks), while
    ``trade_stage_delta`` compares against the treatment arm's own pre-trade
    allocation and isolates what the transfer stage itself contributed; the
    latter is the no-losers statistic, since every executed trade weakly
    benefits both sides.
    """

    seed: int
    budgets0: np.ndarray
    baseline_assignment: np.ndarray
    treatment_endowment: np.ndarray
    final_assignment: np.ndarray
    transfers: np.ndarray
    fees: np.ndarray
    welfare_baseline: np.ndarray
    welfare_endowment: np.ndarray
    welfare_treatment: np.ndarray
    delta: np.ndarray
    trade_stage_delta: np.ndarray
    trades: tuple[TradeRecord, ...]
    histogram_counts: np.ndarray
    histogram_edges: np.ndarray

    @property
    def trade_count(self) -> int:
        return len(self.trades)

    @property
    def total_gain(self) -> float:
        return float(self.delta.sum())

    @property
    def trade_stage_gain(self) -> float:
        return float(self.trade_stage_delta.sum())

    @property
    def fees_collected(self) -> float:
        return float(self.fees.sum())


def run_housing_sim(config: SimConfig, seed: int) -> SimReport:
    """One full replication; identical (config, seed) gives a bit-identical report."""
    inst = generate_instance(config, seed)
    market = inst.market
    order = replication_order(config, seed)

    baseline = sd_assignment(market.valuations, order)
    pick_values = augmented_valuations(market, public_valuations(market, baseline), config.cost)
    endowment = sd_assignment(pick_values, order)

    final_alloc, transfers_t, log = pairwise_aftermarket(
        market, Allocation.from_array(endowment), order, HOUSING_POLICY, config.cost
    )
    transfers = np.asarray(transfers_t)
    fees = Outcome(final_alloc, transfers_t, log).seller_costs()

    welfare_baseline = inst.market.budgets + market.held_values(baseline)
    welfare_endowment = inst.market.budgets + market.held_values(endowment)
    final_assignment = final_alloc.to_array()
    # Not ``market.utilities``: its order of additions would change the report's last bits.
    welfare_treatment = (
        inst.market.budgets + transfers - fees + market.held_values(final_assignment)
    )
    delta = welfare_treatment - welfare_baseline
    counts, edges = np.histogram(delta, bins=DELTA_HISTOGRAM_BINS)
    return SimReport(
        seed=seed,
        budgets0=inst.market.budgets,
        baseline_assignment=baseline,
        treatment_endowment=endowment,
        final_assignment=final_assignment,
        transfers=transfers,
        fees=fees,
        welfare_baseline=welfare_baseline,
        welfare_endowment=welfare_endowment,
        welfare_treatment=welfare_treatment,
        delta=delta,
        trade_stage_delta=welfare_treatment - welfare_endowment,
        trades=log,
        histogram_counts=counts,
        histogram_edges=edges,
    )


# ---------------------------------------------------------------------------
# Batches and sweeps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BatchReport:
    """Replications in index order."""

    reports: tuple[SimReport, ...]

    @property
    def gains(self) -> np.ndarray:
        return np.array([r.total_gain for r in self.reports])

    @property
    def mean_gain(self) -> float:
        return float(self.gains.mean())

    @property
    def median_gain(self) -> float:
        return float(np.median(self.gains))

    @property
    def pooled_delta(self) -> np.ndarray:
        return np.concatenate([r.delta for r in self.reports])

    @property
    def pooled_trade_stage_delta(self) -> np.ndarray:
        return np.concatenate([r.trade_stage_delta for r in self.reports])

    @property
    def negative_delta_fraction(self) -> float:
        pooled = self.pooled_delta
        return float(np.sum(pooled < 0) / pooled.size)

    @property
    def negative_trade_stage_fraction(self) -> float:
        pooled = self.pooled_trade_stage_delta
        return float(np.sum(pooled < 0) / pooled.size)


def batch_run(
    config: SimConfig, n_reps: int, master_seed: int, parallelism: int = 1
) -> BatchReport:
    """Independent replications on derived seeds, run one after another in index order.

    ``parallelism`` no longer changes how they run; it goes with the benchmark's next change."""
    if n_reps < 1:
        raise ValueError("n_reps must be >= 1")
    if parallelism < 1:
        raise ValueError("parallelism must be >= 1")
    seeds = (derive_seed(master_seed, r) for r in range(n_reps))
    return BatchReport(reports=tuple(run_housing_sim(config, s) for s in seeds))


@dataclass(frozen=True)
class SweepRow:
    tau: float
    total_gain: float
    trades: int


def transaction_cost_sweep(
    config: SimConfig, tau_values: Sequence[float], seed: int
) -> list[SweepRow]:
    """Re-run one replication per amount of ``config.cost``'s kind on a shared seed."""
    taus = [float(t) for t in tau_values]
    if not all(0 <= t < np.inf for t in taus) or sorted(taus) != taus:
        raise ValueError("tau values must be finite, nonnegative and sorted")
    rows = []
    for tau in taus:
        report = run_housing_sim(replace(config, cost=replace(config.cost, amount=tau)), seed)
        rows.append(SweepRow(tau=tau, total_gain=report.total_gain, trades=report.trade_count))
    return rows


def prohibitive_cost_bound(instance: HousingInstance) -> float:
    """A fixed fee above every budget-plus-value sum, which stops all trade."""
    rooms = instance.market.valuations
    max_value = float(rooms.means.max() + 12.0 * rooms.stds.max())
    return float(instance.market.budgets.max()) + max_value + 1.0


# ---------------------------------------------------------------------------
# Transaction-cost checks
# ---------------------------------------------------------------------------


def tax_incidence_check(
    instance: MarketInstance,
    j: int,
    j_other: int,
    items: tuple[int, int, int],
    tau: float,
    splits: Sequence[float],
) -> bool:
    """Does the trade decision ignore how the fee is split between the parties?

    ``items`` is (the picker's fallback item, the item they would pick to
    trade away, the counterparty's item).  For every split the counterparty's
    minimal acceptable payment is substituted into the picker's preference;
    all decisions must agree with the split-free joint-surplus rule.
    """
    i_keep, i_give, i_get = items
    if tau < 0:
        raise ValueError("tau must be nonnegative")
    get, keep, other_give, other_get = instance.cells(
        [j, j, j_other, j_other], [i_get, i_keep, i_give, i_get]
    ).tolist()
    base = get + other_give - other_get - tau > keep
    for c in splits:
        if not 0 <= c <= tau + 1e-12:
            raise ValueError("each split must lie within [0, tau]")
        min_payment = other_get + (tau - c) - other_give
        decision = get - c - min_payment > keep
        if decision != base:
            return False
    return True


def small_tau_bound(
    instance: MarketInstance,
    allocation: Allocation,
    order: Sequence[int] | None = None,
    policy: TradePolicy | None = None,
) -> float:
    """Smallest executed-trade margin of the frictionless aftermarket.

    Any fixed fee strictly below the returned value leaves every trade
    decision (and hence the final room swaps) unchanged, because a fixed fee
    shifts all candidate prices uniformly.  Infinite when the frictionless run
    executes no trades.  Budgets are ignored: the bound concerns the trade
    decisions themselves.
    """
    order_t = tuple(range(instance.n_agents)) if order is None else tuple(order)
    pol = policy or replace(HOUSING_POLICY, budget_enforced=False)
    if pol.budget_enforced:
        raise ValueError("the friction bound is defined for unconstrained budgets")
    _, _, log = pairwise_aftermarket(instance, allocation, order_t, pol, NO_COST)
    if not log:
        return float("inf")
    proposers = [rec.proposer for rec in log]
    acquired, given = instance.cells(
        proposers * 2, [rec.item_acquired for rec in log] + [rec.item_given for rec in log]
    ).reshape(2, -1)
    margins = acquired - given - np.array([rec.price for rec in log])
    return float(min(margins.tolist()))
