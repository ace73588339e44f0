"""Assignment optimization, supporting prices, and the brute-force oracle."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.optimize import linear_sum_assignment

from rsd_market import equilibrium
from rsd_market.equilibrium import (
    brute_force_optimal,
    ce_prices,
    interim_feasibility_check,
    max_welfare_allocation,
    trade_feasible,
    transfers_from_prices,
    verify_ce,
)
from rsd_market.errors import PreconditionError
from rsd_market.market import Allocation, MarketInstance, total_welfare
from rsd_market.mechanisms import serial_dictatorship
from rsd_market.scenarios import get_scenario


def _assignment_value(values):
    rows, cols = linear_sum_assignment(values, maximize=True)
    return float(values[rows, cols].sum())


def _resolve_greedy(instance, items):
    """Reference tie-break: fix agents in id order to the smallest item whose
    best completion (one assignment re-solve per candidate) stays optimal."""
    values = instance.dense_matrix()[:, items]
    best = _assignment_value(values)
    assignment = [None] * instance.n_agents
    free_agents = list(range(instance.n_agents))
    free_cols = list(range(len(items)))
    fixed_value = 0.0
    for agent in range(instance.n_agents):
        free_agents.remove(agent)
        for col in free_cols:
            rest_cols = [c for c in free_cols if c != col]
            if len(rest_cols) > len(free_agents):
                continue
            rest = fixed_value + values[agent, col]
            if rest_cols:
                rest += _assignment_value(values[np.ix_(free_agents, rest_cols)])
            if rest >= best - 1e-9:
                assignment[agent] = items[col]
                free_cols.remove(col)
                fixed_value += values[agent, col]
                break
    return Allocation(tuple(assignment))


@st.composite
def tie_heavy_markets(draw):
    """Integer values 0..4 on a random item subset with a random endowment of
    it; items outside the subset are worth nothing, so minimal prices exist."""
    n_agents = draw(st.integers(1, 40))
    n_items = draw(st.integers(1, 40))
    values = draw(arrays(np.int64, (n_agents, n_items), elements=st.integers(0, 4)))
    items = sorted(
        draw(
            st.lists(
                st.integers(0, n_items - 1),
                min_size=1,
                max_size=min(n_agents, n_items),
                unique=True,
            )
        )
    )
    outside = np.ones(n_items, dtype=bool)
    outside[items] = False
    values[:, outside] = 0
    holders = draw(st.permutations(range(n_agents)))
    endowment = [None] * n_agents
    for agent, item in zip(holders, items):
        endowment[agent] = item
    return MarketInstance.from_matrix(values.astype(float)), items, Allocation(tuple(endowment))


@pytest.fixture
def swap_market():
    return get_scenario("example-3.1").instance


@pytest.fixture
def dead_end_market():
    return get_scenario("example-4.1").instance


class TestMaxWelfare:
    def test_two_agent_swap(self, swap_market):
        alloc = max_welfare_allocation(swap_market)
        assert alloc.assignment == (1, 0)
        assert total_welfare(swap_market, alloc) == 11.0

    def test_sequential_miss_table(self):
        inst = get_scenario("example-5.1").instance
        alloc = max_welfare_allocation(inst)
        assert alloc.assignment == (1, 2, 0)
        assert total_welfare(inst, alloc) == 22.0

    def test_single_pair(self):
        inst = MarketInstance.from_matrix([[3.0]])
        assert max_welfare_allocation(inst).assignment == (0,)

    def test_assigns_exactly_the_subset(self, dead_end_market):
        alloc = max_welfare_allocation(dead_end_market, item_subset=[0, 2])
        assert alloc.items() == {0, 2}
        assert sum(1 for i in alloc.assignment if i is None) == 1

    def test_lexicographic_tie_break(self):
        inst = MarketInstance.from_matrix(np.full((3, 3), 5.0))
        assert max_welfare_allocation(inst).assignment == (0, 1, 2)

    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(tie_heavy_markets())
    def test_matches_resolve_greedy(self, market):
        inst, items, endowment = market
        alloc = max_welfare_allocation(inst, items)
        reference = _resolve_greedy(inst, items)
        assert alloc == reference
        prices = ce_prices(inst, endowment, alloc)
        assert np.array_equal(prices.prices, ce_prices(inst, endowment, reference).prices)
        assert verify_ce(inst, endowment, alloc, prices)

    @pytest.mark.parametrize(
        "values, items",
        [
            (np.random.default_rng(1).integers(0, 5, (320, 320)), None),
            (np.random.default_rng(2).normal(100.0, 30.0, (320, 320)), None),
            (np.random.default_rng(3).integers(0, 5, (320, 400)), range(0, 400, 2)),
        ],
        ids=["ties", "normal", "subset"],
    )
    def test_one_assignment_solve(self, monkeypatch, values, items):
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return linear_sum_assignment(*args, **kwargs)

        monkeypatch.setattr(equilibrium, "linear_sum_assignment", counting)
        max_welfare_allocation(MarketInstance.from_matrix(values.astype(float)), items)
        assert len(calls) == 1


class TestBruteForce:
    def test_dead_end_table(self, dead_end_market):
        alloc, welfare = brute_force_optimal(dead_end_market)
        assert welfare == 14.0
        assert alloc.assignment == (0, 1, 2)

    def test_rescue_table(self):
        inst = get_scenario("example-5.2").instance
        alloc, welfare = brute_force_optimal(inst)
        assert welfare == 120.0
        assert alloc.assignment == (0, 1, 3, 2)

    def test_one_by_one(self):
        inst = MarketInstance.from_matrix([[7.0]])
        alloc, welfare = brute_force_optimal(inst)
        assert alloc.assignment == (0,) and welfare == 7.0

    def test_size_guard(self):
        inst = MarketInstance.from_matrix(np.zeros((11, 11)))
        with pytest.raises(PreconditionError):
            brute_force_optimal(inst)

    def test_agrees_with_solver_on_random_markets(self):
        # Square markets on all items, then rectangular ones on random item
        # subsets; every other market draws tie-heavy values in 0..2.
        rng = np.random.default_rng(2024)
        for trial in range(150):
            n = int(rng.integers(2, 8))
            low, high = (-10, 40) if trial % 2 else (0, 3)
            if trial < 50:
                n_items, subset = n, None
            else:
                n_items = int(rng.integers(1, 10))
                size = int(rng.integers(1, min(n, n_items) + 1))
                subset = rng.choice(n_items, size=size, replace=False).tolist()
            inst = MarketInstance.from_matrix(rng.integers(low, high, (n, n_items)).astype(float))
            expected, best = brute_force_optimal(inst, subset)
            alloc = max_welfare_allocation(inst, subset)
            assert alloc == expected
            assert total_welfare(inst, alloc) == best


class TestCePrices:
    def test_two_agent_minimal_point(self, swap_market):
        endow = Allocation((0, 1))
        alloc = Allocation((1, 0))
        prices = ce_prices(swap_market, endow, alloc)
        assert prices.prices.tolist() == [1.0, 0.0]
        transfers = transfers_from_prices(endow, alloc, prices)
        assert transfers == (1.0, -1.0)
        assert sum(transfers) == 0.0

    def test_constant_values_price_to_zero(self):
        inst = MarketInstance.from_matrix(np.full((3, 3), 4.0))
        endow = Allocation((2, 0, 1))
        alloc = max_welfare_allocation(inst)
        prices = ce_prices(inst, endow, alloc)
        assert prices.prices.tolist() == [0.0, 0.0, 0.0]
        assert transfers_from_prices(endow, alloc, prices) == (0.0, 0.0, 0.0)

    def test_unpicked_item_priced_at_zero(self):
        inst = MarketInstance.from_matrix([[10.0, 8.0]])
        endow = Allocation((0,))
        prices = ce_prices(inst, endow, Allocation((0,)))
        assert prices[1] == 0.0
        assert prices[0] <= 2.0

    def test_suboptimal_allocation_rejected(self, swap_market):
        endow = Allocation((0, 1))
        with pytest.raises(PreconditionError):
            ce_prices(swap_market, endow, Allocation((0, 1)))

    def test_wrong_item_set_rejected(self, dead_end_market):
        with pytest.raises(PreconditionError):
            ce_prices(dead_end_market, Allocation((0, 1, None)), Allocation((0, None, 2)))


class TestVerifyCe:
    def test_minimal_point_verifies(self, swap_market):
        assert verify_ce(swap_market, Allocation((0, 1)), Allocation((1, 0)), np.array([1.0, 0.0]))

    def test_interior_point_verifies(self, swap_market):
        assert verify_ce(swap_market, Allocation((0, 1)), Allocation((1, 0)), np.array([2.0, 0.0]))

    def test_zero_prices_rejected_when_demand_fails(self, swap_market):
        # At equal prices the first agent strictly prefers the other item.
        assert not verify_ce(
            swap_market, Allocation((0, 1)), Allocation((1, 0)), np.array([0.0, 0.0])
        )

    def test_identity_with_zero_prices(self):
        inst = MarketInstance.from_matrix([[9.0, 0.0], [0.0, 9.0]])
        assert verify_ce(inst, Allocation((0, 1)), Allocation((0, 1)), np.array([0.0, 0.0]))

    def test_price_minimality_under_perturbation(self):
        rng = np.random.default_rng(99)
        for _ in range(25):
            n = int(rng.integers(2, 7))
            inst = MarketInstance.from_matrix(rng.integers(0, 50, (n, n)).astype(float))
            endow = Allocation(tuple(int(i) for i in rng.permutation(n)))
            alloc = max_welfare_allocation(inst)
            prices = ce_prices(inst, endow, alloc)
            assert verify_ce(inst, endow, alloc, prices)
            for item in alloc.items():
                for delta in (1e-6, 0.5):
                    lowered = prices.prices.copy()
                    lowered[item] -= delta
                    assert not verify_ce(inst, endow, alloc, lowered)

    def test_supports_any_endowment_over_same_items(self):
        rng = np.random.default_rng(123)
        for _ in range(25):
            n = int(rng.integers(2, 7))
            inst = MarketInstance.from_matrix(rng.integers(0, 50, (n, n)).astype(float))
            alloc = max_welfare_allocation(inst)
            prices = ce_prices(inst, alloc, alloc)
            for _ in range(3):
                endow = Allocation(tuple(int(i) for i in rng.permutation(n)))
                assert verify_ce(inst, endow, alloc, prices)
                assert sum(transfers_from_prices(endow, alloc, prices)) == pytest.approx(0.0)


class TestTradeFeasible:
    def test_dead_end_pairs(self, dead_end_market):
        # Stable allocation from picking in order first, third, second.
        alloc = Allocation((2, 0, 1))
        feasible, surplus = trade_feasible(dead_end_market, alloc, 0, 1)
        assert not feasible and surplus.surplus == -5.0
        feasible, surplus = trade_feasible(dead_end_market, alloc, 1, 2)
        assert not feasible and surplus.surplus == -6.0

    def test_swap_market_pair(self, swap_market):
        feasible, surplus = trade_feasible(swap_market, Allocation((0, 1)), 0, 1)
        assert feasible and surplus.surplus == 8.0

    def test_identical_rows_never_trade(self):
        inst = MarketInstance.from_matrix([[3.0, 7.0], [3.0, 7.0]])
        feasible, surplus = trade_feasible(inst, Allocation((1, 0)), 0, 1)
        assert not feasible and surplus.surplus == 0.0

    def test_unassigned_agent_rejected(self, swap_market):
        with pytest.raises(ValueError):
            trade_feasible(swap_market, Allocation((0, None)), 0, 1)


class TestInterimFeasibility:
    def test_three_agent_miss_is_infeasible(self):
        sc = get_scenario("example-5.1")
        assert not interim_feasibility_check(sc.instance, (0, 1, 2))

    def test_two_agent_always_feasible(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            inst = MarketInstance.from_matrix(rng.integers(0, 100, (2, 2)).astype(float))
            assert interim_feasibility_check(inst, (0, 1))

    def test_swap_market_feasible(self, swap_market):
        assert interim_feasibility_check(swap_market, (0, 1))


class TestEndowmentReshuffle:
    def test_truthful_picks_already_optimal(self):
        # Strong diagonal: picks are the optimum, so no prices move money.
        inst = MarketInstance.from_matrix(np.diag([50.0, 40.0, 30.0]) + 1.0)
        order = (0, 1, 2)
        endow = serial_dictatorship(inst, order).allocation
        alloc = max_welfare_allocation(inst, endow.items())
        assert alloc.assignment == endow.assignment
        prices = ce_prices(inst, endow, alloc)
        assert transfers_from_prices(endow, alloc, prices) == (0.0, 0.0, 0.0)
