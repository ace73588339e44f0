"""Market invariants across every engine and every trade setting.

Over small dense markets (square and rectangular; integer, normal and
tie-heavy values; mixed budgets), every engine must return a valid outcome;
every logged trade must be mutually beneficial; no trader may end with
negative cash when budgets are enforced; and on square markets the ex-post
equilibrium reshuffle must be supported by its prices, reach the
brute-force welfare optimum and leave no agent below their plain-pick
utility.
"""

import itertools

import numpy as np
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


@st.composite
def markets(draw):
    m = draw(st.integers(2, 6))
    n = draw(st.integers(max(1, m - 2), m + 2))
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


class TestEveryEngine:
    @given(inst=markets(), seed=st.integers(0, 2**16))
    @example(inst=INTERIM_BUDGET, seed=0)
    @example(inst=SELLER_BUDGET, seed=0)
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
            policy = TradePolicy(split, floor, budget_enforced=budget)
            for model in ("myopic", "lookback-strategic"):
                out = interim_transfers(inst, order, model, policy)
                assert_sound(inst, out, policy, ("interim", model, policy))

        if inst.n_agents == inst.n_items:
            ce = expost_ce_transfers(inst, order)
            assert validate_outcome(inst, ce) == []
            prices = ce_prices(inst, sd.allocation, ce.allocation)
            assert verify_ce(inst, sd.allocation, ce.allocation, prices)
            assert np.all(utilities(inst, ce) >= u_sd - 1e-9)
            _, best = brute_force_optimal(inst)
            assert abs(total_welfare(inst, ce.allocation) - best) <= 1e-9 * max(1.0, abs(best))


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
