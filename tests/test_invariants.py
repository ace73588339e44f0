"""Market invariants across every engine and every trade setting.

Over small dense markets (square and rectangular; integer, normal and
tie-heavy values; mixed budgets), every engine must return a valid outcome;
every logged trade must be mutually beneficial; no trader may end with
negative cash when budgets are enforced; and on square markets the ex-post
equilibrium reshuffle must be supported by its prices, reach the
brute-force welfare optimum and leave no agent below their plain-pick
utility.  An exhaustive search over permuted reports checks that no agent
gains by misreporting under serial dictatorship, and pins how often each
transfer engine can be manipulated.
"""

import itertools

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from rsd_market.equilibrium import brute_force_optimal, ce_prices, verify_ce
from rsd_market.market import (
    MarketInstance,
    total_welfare,
    utilities,
    validate_outcome,
    zero_outcome,
)
from rsd_market.mechanisms import (
    NO_COST,
    TradePolicy,
    TransactionCost,
    expost_ce_transfers,
    expost_pairwise_transfers,
    interim_transfers,
    serial_dictatorship,
    ttc,
)
from rsd_market.scenarios import get_scenario
from rsd_market.suite import trade_log_soundness

SPLITS = (0.0, 0.3, 0.5, 1.0)
COSTS = (
    NO_COST,
    TransactionCost("fixed", 1.5),
    TransactionCost("proportional", 0.3),
    TransactionCost("proportional", 1.0),
    TransactionCost("proportional", 1.5),
)
# The two budget cases: interim lets agent 1 pay 52 from cash 1, and the
# unfloored aftermarket lets agent 1 pay 23 from cash 0, unless budgets bind
# on both sides of a trade.
INTERIM_BUDGET = MarketInstance.from_matrix([[5, 0], [100, 1]], [0, 1])
SELLER_BUDGET = MarketInstance.from_matrix([[-4, -4], [21, -2]], [0, 0])
# Normal values where floor + 1.0 * (ceiling - floor) rounds an ulp below the
# ceiling; in the order (3, 2, 1, 0) (seed 3) that made a zero-surplus interim
# swap look profitable to agent 1.
FULL_SPLIT = MarketInstance.from_matrix([
    [125.42699416457813, 103.95608213726467, 107.46136529115347],
    [86.27945918349162, 23.475577296576603, 104.3340685641049],
    [124.76015706858087, 52.92062874652412, 67.0181632293532],
    [146.73750713840315, 91.55551251920203, 125.74422563849701],
])


@st.composite
def markets(draw, max_agents=6, max_items=8):
    m = draw(st.integers(2, max_agents))
    n = draw(st.integers(max(1, m - 2), min(m + 2, max_items)))
    kind = draw(st.sampled_from(["integer", "normal", "ties"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "integer":
        values = rng.integers(-10, 51, (m, n)).astype(float)
    elif kind == "normal":
        values = rng.normal(100.0, 30.0, (m, n))
    else:
        values = rng.integers(0, 3, (m, n)).astype(float)
    budgets = draw(st.lists(st.sampled_from([0.0, 5.0, 50.0, 1e4]), min_size=m, max_size=m))
    return MarketInstance.from_matrix(values, budgets)


def cash(instance, outcome):
    return instance.budgets + np.asarray(outcome.transfers) - outcome.seller_costs()


def assert_sound(instance, outcome, policy, context):
    assert validate_outcome(instance, outcome) == [], context
    problems = trade_log_soundness(instance, outcome, buyer_strict=policy.surplus_split < 1)
    assert problems == [], (context, problems)
    if policy.budget_enforced:
        assert np.all(cash(instance, outcome) >= -1e-9), (context, cash(instance, outcome))


def buyer_gains(instance, outcome):
    return [
        instance.value(rec.proposer, rec.item_acquired)
        - instance.value(rec.proposer, rec.item_given)
        - rec.price
        for rec in outcome.trade_log
    ]


def report_payoffs(engine, instance, order, j):
    """Agent j's true payoff under each distinct permutation of its own row.

    The engine re-runs on the same order with the permuted report; the row
    itself is among the reports, so the maximum is the best deviation.
    """
    values = instance.dense_matrix()
    for row in set(itertools.permutations(values[j].tolist())):
        report = values.copy()
        report[j] = row
        outcome = engine(MarketInstance.from_matrix(report, instance.budgets), order)
        yield float(utilities(instance, outcome)[j])


def manipulable(engine, instance, order):
    truthful = utilities(instance, engine(instance, order))
    return any(
        payoff > truthful[j] + 1e-9
        for j in range(instance.n_agents)
        for payoff in report_payoffs(engine, instance, order, j)
    )


class TestEveryEngine:
    @given(inst=markets(), seed=st.integers(0, 2**16))
    @example(inst=INTERIM_BUDGET, seed=0)
    @example(inst=SELLER_BUDGET, seed=0)
    @example(inst=FULL_SPLIT, seed=3)
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_invariants_hold(self, inst, seed):
        order = tuple(int(j) for j in np.random.default_rng(seed).permutation(inst.n_agents))
        sd = serial_dictatorship(inst, order)
        assert validate_outcome(inst, sd) == []
        u_sd = utilities(inst, sd)
        swapped = zero_outcome(ttc(inst, sd.allocation))
        assert validate_outcome(inst, swapped) == []
        assert np.all(utilities(inst, swapped) >= u_sd)

        for split, floor, budget in itertools.product(SPLITS, (True, False), (True, False)):
            for mode, cost in itertools.product(("fixed-point", "single-pass"), COSTS):
                policy = TradePolicy(split, floor, mode, budget)
                out = expost_pairwise_transfers(inst, order, policy, cost)
                assert_sound(inst, out, policy, ("pairwise", policy, cost))
                # At split 1 the buyer pays the whole ceiling, unless a rate
                # above 100 % forces the price down to the floor.
                if split == 1.0 and not (cost.kind == "proportional" and cost.amount > 1.0):
                    assert all(g == 0.0 for g in buyer_gains(inst, out)), (policy, cost)
            policy = TradePolicy(split, floor, budget_enforced=budget)
            for model in ("myopic", "lookback-strategic"):
                out = interim_transfers(inst, order, model, policy)
                assert_sound(inst, out, policy, ("interim", model, policy))
                if split == 1.0:
                    # A picker who pays the whole ceiling has nothing to gain.
                    assert out.trade_log == (), (model, policy)

        if inst.n_agents == inst.n_items:
            ce = expost_ce_transfers(inst, order)
            assert validate_outcome(inst, ce) == []
            prices = ce_prices(inst, sd.allocation, ce.allocation)
            assert verify_ce(inst, sd.allocation, ce.allocation, prices)
            assert np.all(utilities(inst, ce) >= u_sd - 1e-9)
            _, best = brute_force_optimal(inst)
            assert abs(total_welfare(inst, ce.allocation) - best) <= 1e-9 * max(1.0, abs(best))


class TestSerialDictatorshipIsStrategyProof:
    @given(inst=markets(max_agents=4, max_items=4), seed=st.integers(0, 2**16))
    @settings(max_examples=60, deadline=None)
    def test_no_permuted_report_pays(self, inst, seed):
        # The paper's premise (Abdulkadiroglu and Sonmez, 1998): without
        # transfers, no agent gains by misreporting.  Every permutation of an
        # agent's own row covers every ranking of its values.
        order = tuple(int(j) for j in np.random.default_rng(seed).permutation(inst.n_agents))
        truthful = utilities(inst, serial_dictatorship(inst, order))
        for j in range(inst.n_agents):
            assert max(report_payoffs(serial_dictatorship, inst, order, j)) <= truthful[j], j


class TestPermutedReportSearch:
    """An exhaustive misreport search: transfers break strategy-proofness."""

    ENGINES = {
        "sd": serial_dictatorship,
        "expost-ce": expost_ce_transfers,
        "expost-pairwise": expost_pairwise_transfers,
        "interim-lookback": interim_transfers,  # lookback is its default model
    }

    @pytest.fixture(scope="class")
    def integer_markets(self):
        rng = np.random.default_rng(2024)
        out = []
        for _ in range(200):
            n = int(rng.integers(2, 5))
            values = rng.integers(0, 20, (n, n)).astype(float)
            order = tuple(int(j) for j in rng.permutation(n))
            out.append((MarketInstance.from_matrix(values), order))
        return out

    # Counts of the 200 markets where some agent's permuted report pays; a
    # change in any engine's incentives moves its count.
    @pytest.mark.parametrize(
        "engine, count",
        [("sd", 0), ("expost-ce", 126), ("expost-pairwise", 132), ("interim-lookback", 129)],
    )
    def test_manipulable_market_counts(self, integer_markets, engine, count):
        run = self.ENGINES[engine]
        assert sum(manipulable(run, inst, order) for inst, order in integer_markets) == count

    @pytest.mark.parametrize("split", [0.0, 0.5, 1.0])
    def test_example_42_best_deviation(self, split):
        # Truthful play gives agent 0 its favourite, worth 20; a misreported
        # ranking can pay more once the engine's trades let it sell agent 1
        # the room that agent 1 values at 200.
        inst = get_scenario("example-4.2").instance
        policy = TradePolicy(surplus_split=split)
        engines = {
            "expost-pairwise": lambda i, o: expost_pairwise_transfers(i, o, policy),
            "expost-ce": expost_ce_transfers,
            "interim-lookback": lambda i, o: interim_transfers(i, o, "lookback-strategic", policy),
        }
        lookback = {0.0: 30.0, 0.5: 120.0, 1.0: 20.0}[split]
        expected = {"expost-pairwise": 30.0 + 180.0 * split, "expost-ce": 30.0,
                    "interim-lookback": lookback}
        order = (0, 1, 2, 3)
        for name, run in engines.items():
            assert utilities(inst, run(inst, order))[0] == 20.0, name
            assert max(report_payoffs(run, inst, order, 0)) == expected[name], name


class TestPinnedCases:
    def test_zero_surplus_offer_is_not_taken(self):
        # The second picker has one item left, so its lure is its favorite
        # and both agent models face the same offer, which at split 1 leaves
        # the buyer no gain.
        inst = MarketInstance.from_matrix([[5.0, 6.8], [0.2, 4.9]])
        policy = TradePolicy(surplus_split=1.0)
        outs = [interim_transfers(inst, (0, 1), model, policy)
                for model in ("myopic", "lookback-strategic")]
        assert outs[0] == outs[1]
        assert outs[1].trade_log == ()
        assert trade_log_soundness(inst, outs[1], buyer_strict=True) == []

    def test_interim_buyer_cannot_overspend(self):
        policy = TradePolicy(surplus_split=0.5, budget_enforced=True)
        for model in ("myopic", "lookback-strategic"):
            out = interim_transfers(INTERIM_BUDGET, (0, 1), model, policy)
            assert out.transfers == (0.0, 0.0)
            assert np.all(cash(INTERIM_BUDGET, out) >= 0.0)

    def test_unfloored_seller_cannot_overspend(self):
        for mode in ("fixed-point", "single-pass"):
            policy = TradePolicy(0.0, seller_reservation_floor=False, pairwise_mode=mode,
                                 budget_enforced=True)
            out = expost_pairwise_transfers(SELLER_BUDGET, (0, 1), policy)
            assert out.transfers == (0.0, 0.0)
            assert np.all(cash(SELLER_BUDGET, out) >= 0.0)
