"""Housing-market simulation: generation, arms, aftermarket, frictions."""

import dataclasses
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from rsd_market.housing import (
    MEAN_RANGE,
    VARIANCE_RANGE,
    SimConfig,
    WealthModel,
    augmented_valuations,
    batch_run,
    generate_instance,
    parse_wealth,
    prohibitive_cost_bound,
    public_valuations,
    replication_order,
    run_housing_sim,
    small_tau_bound,
    tax_incidence_check,
    transaction_cost_sweep,
)
from rsd_market.market import Allocation, MarketInstance, Outcome, derive_seed, validate_outcome
from rsd_market.mechanisms import NO_COST, TradePolicy, TransactionCost, sd_assignment
from rsd_market.scenarios import get_scenario
from rsd_market.suite import trade_log_soundness


@pytest.fixture(scope="module")
def desk_config() -> SimConfig:
    return SimConfig(n_agents=300)


@pytest.fixture(scope="module")
def desk_report(desk_config):
    return run_housing_sim(desk_config, seed=77)


class TestGeneration:
    def test_same_seed_same_values(self, desk_config):
        a = generate_instance(desk_config, 5)
        b = generate_instance(desk_config, 5)
        agents = np.array([0, 7, 123, 299])
        rooms = np.array([3, 44, 123, 0])
        assert np.array_equal(
            a.market.valuations.values(agents, rooms),
            b.market.valuations.values(agents, rooms),
        )
        assert np.array_equal(a.market.valuations.means, b.market.valuations.means)

    def test_room_parameter_ranges(self, desk_config):
        rooms = generate_instance(desk_config, 9).market.valuations
        assert rooms.means.min() >= MEAN_RANGE[0] and rooms.means.max() <= MEAN_RANGE[1]
        low, high = np.sqrt(VARIANCE_RANGE)
        assert rooms.stds.min() >= low and rooms.stds.max() <= high

    def test_equal_wealth(self, desk_config):
        inst = generate_instance(desk_config, 1)
        assert np.all(inst.market.budgets == 10_000.0)

    def test_power_law_wealth(self):
        model = WealthModel(kind="power-law", n_groups=100, base=1.01, agents_per_group=10)
        budgets = model.budgets(1000)
        assert budgets[0] == 1.0
        assert budgets[-1] == pytest.approx(1.01**99)
        assert budgets[995] == budgets[999]  # same group
        with pytest.raises(ValueError):
            model.budgets(999)

    def test_full_wealth_ladder_top_group(self):
        model = WealthModel(kind="power-law")  # 1000 groups of 10
        budgets = model.budgets(10_000)
        assert budgets[-1] == pytest.approx(1.01**999)

    def test_parse_wealth_specs(self):
        assert parse_wealth("equal:500").amount == 500.0
        pl = parse_wealth("powerlaw:1000,1.01,10")
        assert (pl.n_groups, pl.base, pl.agents_per_group) == (1000, 1.01, 10)
        with pytest.raises(ValueError):
            parse_wealth("lognormal:1")


class TestPublicAndAugmentedValues:
    def test_public_values_follow_winners(self):
        inst = MarketInstance.from_matrix([[5.0, 1.0], [4.0, 3.0]])
        v_pub = public_valuations(inst, sd_assignment(inst.valuations, (0, 1)))
        assert v_pub.tolist() == [5.0, 3.0]

    def test_identical_agents_reproduce_the_row(self):
        row = [9.0, 5.0, 7.0]
        inst = MarketInstance.from_matrix(np.tile(row, (3, 1)))
        picks = sd_assignment(inst.valuations, (2, 0, 1))
        assert public_valuations(inst, picks).tolist() == row

    def test_augmented_formula(self):
        inst = MarketInstance.from_matrix([[10.0, 10.0, 4.0]])
        aug = augmented_valuations(inst, np.array([4.0, 30.0, 4.0]))
        # Private wins when it beats the blend; equal signals pass through.
        assert aug.row(0).tolist() == [10.0, 20.0, 4.0]

    def test_augmented_never_below_private(self, desk_config):
        inst = generate_instance(desk_config, 3)
        order = replication_order(desk_config, 3)
        v_pub = public_valuations(inst.market, sd_assignment(inst.market.valuations, order))
        aug = augmented_valuations(inst.market, v_pub)
        for agent in (0, 11, 299):
            assert np.all(aug.row(agent) >= inst.market.row(agent))

    def test_fee_discounts_resale_component(self):
        inst = MarketInstance.from_matrix([[10.0]])
        v_pub = np.array([30.0])
        flat = augmented_valuations(inst, v_pub, TransactionCost("fixed", 6.0))
        assert flat.row(0).tolist() == [17.0]  # (10 + 24) / 2
        prop = augmented_valuations(inst, v_pub, TransactionCost("proportional", 0.5))
        assert prop.row(0).tolist() == [12.5]  # (10 + 15) / 2


class TestSingleReplication:
    def test_deterministic(self, desk_config, desk_report):
        again = run_housing_sim(desk_config, seed=77)
        assert np.array_equal(again.delta, desk_report.delta)
        assert again.trades == desk_report.trades

    def test_money_conservation(self, desk_report):
        assert abs(desk_report.transfers.sum()) <= 1e-9 * len(desk_report.budgets0)
        final_cash = desk_report.budgets0 + desk_report.transfers - desk_report.fees
        total = final_cash.sum() + desk_report.fees_collected
        assert total == pytest.approx(desk_report.budgets0.sum(), rel=1e-12)

    def test_budgets_never_go_negative(self, desk_report):
        final_cash = desk_report.budgets0 + desk_report.transfers - desk_report.fees
        assert final_cash.min() >= -1e-9

    def test_no_loss_from_trading(self, desk_report):
        # Transfer-stage deltas are bounded below by float rounding only.
        assert desk_report.trade_stage_delta.min() >= -1e-6

    def test_buyers_exit(self, desk_report):
        bought_step: dict[int, int] = {}
        for rec in desk_report.trades:
            assert rec.proposer not in bought_step
            assert rec.counterparty not in bought_step
            bought_step[rec.proposer] = rec.step

    def test_welfare_identity(self, desk_report):
        treatment = desk_report.welfare_treatment.sum()
        baseline = desk_report.welfare_baseline.sum()
        assert treatment - baseline == pytest.approx(desk_report.total_gain)
        assert desk_report.histogram_counts.sum() == len(desk_report.budgets0)

    @pytest.mark.parametrize(
        "n_agents, seed, expected",
        [
            (1, 7, "0x1.1d8ca93e9b7b5p+14"),
            (2, 3, "0x1.eeb311585b5a3p+13"),
            (200, 55, "0x1.3cce5873bce66p+14"),
            (1000, 4096, "0x1.3ded028d97b81p+14"),
        ],
    )
    def test_prohibitive_bound_is_pinned(self, n_agents, seed, expected):
        inst = generate_instance(SimConfig(n_agents=n_agents), seed)
        assert prohibitive_cost_bound(inst).hex() == expected

    def test_prohibitive_fee_stops_trade(self, desk_config):
        inst = generate_instance(desk_config, 55)
        bound = prohibitive_cost_bound(inst)
        cfg = SimConfig(
            n_agents=desk_config.n_agents, cost=TransactionCost("fixed", bound)
        )
        rep = run_housing_sim(cfg, seed=55)
        assert rep.trade_count == 0
        assert rep.total_gain == 0.0  # picks join the truthful baseline exactly

    def test_every_trade_has_positive_buyer_utility(self, desk_config, desk_report):
        state = dict(enumerate(desk_report.treatment_endowment))
        inst = generate_instance(desk_config, desk_report.seed)
        for rec in desk_report.trades:
            gain = (
                inst.market.value(rec.proposer, rec.item_acquired)
                - inst.market.value(rec.proposer, rec.item_given)
                - rec.price
            )
            assert gain > 0
            assert rec.price >= 0.0
            state[rec.proposer] = rec.item_acquired
            state[rec.counterparty] = rec.item_given
        assert state == dict(enumerate(desk_report.final_assignment))


class TestBatch:
    def test_single_rep_equals_derived_seed_run(self, desk_config):
        batch = batch_run(desk_config, 1, master_seed=2024)
        direct = run_housing_sim(desk_config, derive_seed(2024, 0))
        assert np.array_equal(batch.reports[0].delta, direct.delta)

    def test_parallel_merge_is_deterministic(self, desk_config):
        serial = batch_run(desk_config, 4, master_seed=7, parallelism=1)
        threaded = batch_run(desk_config, 4, master_seed=7, parallelism=4)
        for a, b in zip(serial.reports, threaded.reports):
            assert np.array_equal(a.delta, b.delta)
            assert a.trades == b.trades

    def test_batch_starts_no_thread(self, desk_config, monkeypatch):
        # Replications run on the calling thread: a traced run sees every span.
        def refuse(self):
            raise AssertionError("batch_run started a thread")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        batch = batch_run(desk_config, 2, master_seed=7, parallelism=2)
        assert len(batch.reports) == 2

    @pytest.mark.parametrize("parallelism", [0, -1])
    def test_nonpositive_parallelism_rejected(self, desk_config, parallelism):
        with pytest.raises(ValueError, match="parallelism"):
            batch_run(desk_config, 1, master_seed=7, parallelism=parallelism)

    def test_aggregates(self, desk_config):
        batch = batch_run(desk_config, 3, master_seed=90)
        assert batch.gains.shape == (3,)
        assert batch.pooled_delta.shape == (3 * desk_config.n_agents,)
        assert batch.mean_gain == pytest.approx(float(batch.gains.mean()))


class TestSweep:
    def test_zero_fee_row_matches_plain_run(self, desk_config):
        rows = transaction_cost_sweep(desk_config, [0.0, 50.0], seed=13)
        plain = run_housing_sim(desk_config, seed=13)
        assert rows[0].total_gain == plain.total_gain
        assert rows[0].trades == plain.trade_count

    def test_trades_nonincreasing_in_fixed_fee(self, desk_config):
        inst = generate_instance(desk_config, 13)
        taus = [0.0, 10.0, 40.0, 150.0, prohibitive_cost_bound(inst)]
        rows = transaction_cost_sweep(desk_config, taus, seed=13)
        trades = [r.trades for r in rows]
        assert trades == sorted(trades, reverse=True)
        assert rows[-1].trades == 0 and rows[-1].total_gain == 0.0

    def test_unsorted_taus_rejected(self, desk_config):
        with pytest.raises(ValueError):
            transaction_cost_sweep(desk_config, [5.0, 1.0], seed=1)

    @pytest.mark.parametrize("taus", [[0.0, float("inf")], [float("nan")]])
    def test_non_finite_taus_rejected(self, desk_config, taus):
        with pytest.raises(ValueError, match="finite"):
            transaction_cost_sweep(desk_config, taus, seed=1)


class TestTaxIncidence:
    def test_paired_market_threshold(self):
        inst = get_scenario("example-3.1").instance
        # Joint surplus of the swap is 8; the decision flips there for every split.
        for tau in (7.9, 8.1):
            assert tax_incidence_check(inst, 0, 1, (0, 0, 1), tau, [0.0, tau / 2, tau])

    def test_zero_fee_reduces_to_surplus_rule(self):
        inst = get_scenario("example-3.1").instance
        assert tax_incidence_check(inst, 0, 1, (0, 0, 1), 0.0, [0.0])

    def test_random_markets_split_free(self):
        rng = np.random.default_rng(314)
        for _ in range(60):
            n = int(rng.integers(3, 7))
            inst = MarketInstance.from_matrix(rng.integers(0, 60, (n, n)).astype(float))
            j, k = (int(x) for x in rng.choice(n, 2, replace=False))
            items = tuple(int(x) for x in rng.choice(n, 3, replace=False))
            tau = float(rng.integers(0, 30))
            assert tax_incidence_check(inst, j, k, items, tau, [0.0, tau / 3, tau / 2, tau])


class TestSmallTauBound:
    def test_paired_market_headroom(self):
        inst = get_scenario("example-3.1").instance
        assert small_tau_bound(inst, Allocation((0, 1))) == 8.0

    def test_stable_market_is_unbounded(self):
        sc = get_scenario("example-4.1")
        alloc = Allocation((2, 0, 1))
        assert small_tau_bound(sc.instance, alloc) == np.inf

    def test_half_headroom_preserves_swaps(self):
        from rsd_market.mechanisms import NO_COST, pairwise_aftermarket

        cfg = SimConfig(n_agents=50)
        inst = generate_instance(cfg, 21).market
        order = replication_order(cfg, 21)
        endow = Allocation.from_array(sd_assignment(inst.valuations, order))
        policy = TradePolicy(
            surplus_split=0.0, pairwise_mode="single-pass", budget_enforced=False
        )
        bound = small_tau_bound(inst, endow, order, policy)
        assert bound < np.inf
        _, _, base_log = pairwise_aftermarket(inst, endow, order, policy, NO_COST)
        _, _, taxed_log = pairwise_aftermarket(
            inst, endow, order, policy, TransactionCost("fixed", bound / 2)
        )
        base = [(r.proposer, r.counterparty, r.item_acquired) for r in base_log]
        taxed = [(r.proposer, r.counterparty, r.item_acquired) for r in taxed_log]
        assert base == taxed

    def test_budget_enforcement_rejected(self):
        inst = get_scenario("example-3.1").instance
        with pytest.raises(ValueError):
            small_tau_bound(
                inst, Allocation((0, 1)), policy=TradePolicy(budget_enforced=True)
            )


@st.composite
def housing_configs(draw):
    """20-200 agents; equal or power-law wealth; no, fixed or proportional cost."""
    if draw(st.booleans()):
        n_agents = draw(st.integers(20, 200))
        wealth = WealthModel(kind="equal", amount=draw(st.sampled_from([50.0, 2_000.0, 10_000.0])))
    else:
        per_group = draw(st.integers(1, 10))
        n_groups = draw(st.integers(-(-20 // per_group), 200 // per_group))
        n_agents = n_groups * per_group
        base = draw(st.sampled_from([1.01, 1.05, 1.2]))
        wealth = WealthModel(kind="power-law", n_groups=n_groups, base=base, agents_per_group=per_group)
    cost = draw(
        st.one_of(
            st.just(NO_COST),
            st.floats(0.0, 500.0).map(lambda a: TransactionCost("fixed", a)),
            st.floats(0.0, 1.5).map(lambda r: TransactionCost("proportional", r)),
        )
    )
    return SimConfig(n_agents=n_agents, wealth=wealth, cost=cost), draw(st.integers(0, 2**32 - 1))


def _reports_equal(a, b):
    for f in dataclasses.fields(a):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if isinstance(x, np.ndarray):
            if x.dtype != y.dtype or x.tobytes() != y.tobytes():
                return False
        elif x != y:
            return False
    return True


class TestInvariantsAcrossConfigs:
    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(housing_configs())
    # Budgets near 2e10 dwarf a seller-indifferent swap's values: summed with
    # the budget, the swap's zero gain rounds to a one-ulp loss.
    @example(
        (
            SimConfig(
                n_agents=159,
                wealth=WealthModel(kind="power-law", n_groups=159, base=1.2, agents_per_group=1),
            ),
            0,
        )
    )
    def test_outcome_sound_and_no_loser(self, drawn):
        config, seed = drawn
        report = run_housing_sim(config, seed)
        inst = generate_instance(config, seed).market
        outcome = Outcome(
            Allocation.from_array(report.final_assignment), tuple(report.transfers), report.trades
        )
        assert validate_outcome(inst, outcome) == []
        assert trade_log_soundness(inst, outcome) == []
        # No loser from the transfer stage, up to rounding at the value scale.
        agents = np.arange(config.n_agents)
        own = np.concatenate(
            [
                inst.valuations.values(agents, report.final_assignment),
                inst.valuations.values(agents, report.treatment_endowment),
            ]
        )
        scale = float(report.budgets0.max()) + float(np.abs(own).max())
        assert float(report.trade_stage_delta.min()) >= -1e-9 * scale

    @settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(housing_configs())
    def test_batch_independent_of_parallelism(self, drawn):
        config, seed = drawn
        serial = batch_run(config, 2, seed, parallelism=1)
        parallel = batch_run(config, 2, seed, parallelism=2)
        assert len(serial.reports) == len(parallel.reports) == 2
        assert all(_reports_equal(a, b) for a, b in zip(serial.reports, parallel.reports))
