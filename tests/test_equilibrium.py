"""Assignment optimization, supporting prices, and the brute-force oracle."""

import hashlib
import re

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
    max_welfare_allocation,
    trade_surplus,
    transfers_from_prices,
    verify_ce,
)
from rsd_market.errors import PreconditionError
from rsd_market.market import Allocation, MarketInstance, total_welfare
from rsd_market.mechanisms import (
    expost_ce_transfers,
    interim_feasibility_check,
    sd_assignment,
    serial_dictatorship,
)
from rsd_market.scenarios import get_scenario

BLOCK = equilibrium._BLOCK


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


def _ce_prices_reference(instance, endowment, allocation):
    """The per-agent Gauss-Seidel loop that ``ce_prices`` must equal bit for bit."""
    allocated = sorted(allocation.items())
    prices = np.zeros(instance.n_items)
    in_market = np.zeros(instance.n_items, dtype=bool)
    in_market[allocated] = True
    assigned = [(j, item) for j, item in enumerate(allocation.assignment) if item is not None]
    unassigned = [j for j, item in enumerate(allocation.assignment) if item is None]
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
    if not np.all(in_market):
        for j, item in enumerate(allocation.assignment):
            row = instance.row(j)
            own_surplus = 0.0 if item is None else row[item] - prices[item]
            if np.max(row[~in_market]) > own_surplus + 1e-9:
                raise PreconditionError(
                    "no supporting prices exist with unpicked items pinned at zero"
                )
    return prices


def _assert_prices_match_reference(instance, endowment, allocation):
    try:
        expected = _ce_prices_reference(instance, endowment, allocation)
    except PreconditionError as exc:
        with pytest.raises(PreconditionError, match=f"^{re.escape(str(exc))}$"):
            ce_prices(instance, endowment, allocation)
        return
    prices = ce_prices(instance, endowment, allocation).prices
    assert np.array_equal(prices, expected)
    assert prices.tobytes() == expected.tobytes()


def _verify_ce_reference(instance, endowment, allocation, prices, atol=equilibrium._ATOL):
    """The per-agent loop whose verdicts ``verify_ce`` must reproduce."""
    p = np.asarray(prices, dtype=float)
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


def _endowed_subset(draw, values, outside_worthless):
    """A random item subset of ``values``' columns and a random endowment of it."""
    n_agents, n_items = values.shape
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
    if outside_worthless:
        outside = np.ones(n_items, dtype=bool)
        outside[items] = False
        values[:, outside] = 0
    holders = draw(st.permutations(range(n_agents)))
    endowment = [None] * n_agents
    for agent, item in zip(holders, items):
        endowment[agent] = item
    return MarketInstance.from_matrix(values.astype(float)), items, Allocation(tuple(endowment))


@st.composite
def tie_heavy_markets(draw, outside_worthless=True):
    """Integer values 0..4 on a random item subset with a random endowment of
    it.  By default items outside the subset are worth nothing, so minimal
    prices exist; with ``outside_worthless=False`` they keep their values."""
    n_agents = draw(st.integers(1, 40))
    n_items = draw(st.integers(1, 40))
    values = draw(arrays(np.int64, (n_agents, n_items), elements=st.integers(0, 4)))
    return _endowed_subset(draw, values, outside_worthless)


@st.composite
def normal_markets(draw, outside_worthless=True):
    """Like ``tie_heavy_markets``, with N(100, 30) values: no ties, and prices
    that depend on the 1e-12 tolerance and the order of the additions."""
    n_agents = draw(st.integers(1, 40))
    n_items = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.normal(100.0, 30.0, (n_agents, n_items))
    return _endowed_subset(draw, values, outside_worthless)


def _ce_dense_digest(family, n, seed):
    """sha256 of ``expost_ce_transfers``' allocation and transfers and of the
    supporting prices, on a market shaped like the benchmark's ce-dense ops."""
    rng = np.random.default_rng([seed, n])
    if family == "normal":
        values = rng.normal(100.0, 30.0, (n, n))
    else:
        values = rng.integers(0, 5, (n, n)).astype(float)
    order = tuple(int(j) for j in rng.permutation(n))
    inst = MarketInstance.from_matrix(values)
    out = expost_ce_transfers(inst, order)
    endowment = Allocation.from_array(sd_assignment(inst.valuations, order))
    prices = ce_prices(inst, endowment, out.allocation)
    h = hashlib.sha256()
    for array in (out.allocation.to_array(), np.array(out.transfers), prices.prices):
        h.update(array.tobytes())
    return h.hexdigest()


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
        "n", [BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1], ids=["b-1", "b", "b+1", "2b+1"]
    )
    def test_matches_resolve_greedy_across_block_sizes(self, n):
        # Square on all items, then rectangular or with unassigned agents.
        rng = np.random.default_rng(n)
        for n_items, size in ((n, n), (n + 7, n), (n, n - 3), (n + 7, n - 3)):
            items = sorted(rng.choice(n_items, size, replace=False).tolist())
            values = rng.integers(0, 3, (n, n_items)).astype(float)
            inst = MarketInstance.from_matrix(values)
            assert max_welfare_allocation(inst, items) == _resolve_greedy(inst, items)

    def test_all_equal_market_across_block_sizes(self):
        for n in (BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1):
            inst = MarketInstance.from_matrix(np.full((n, n), 5.0))
            assert max_welfare_allocation(inst).assignment == tuple(range(n))

    @pytest.mark.parametrize(
        "swapped",
        [(0,), (BLOCK - 2,), (BLOCK - 1,), (BLOCK,), (BLOCK + 1,), (2 * BLOCK,),
         (BLOCK - 1, BLOCK + 3), tuple(range(0, 2 * BLOCK, 2))],
    )
    def test_rotation_where_the_fast_path_breaks(self, monkeypatch, swapped):
        # Every matching of an all-equal market is optimal.  The solver is made
        # to return the identity with agents q and q+1 exchanged for each q in
        # ``swapped``, so the first agent to fail the fast-path test sits at a
        # chosen place: inside a block, at its last agent, at the next block's
        # first agent.  The tie-break must still return the identity.
        n = 2 * BLOCK + 2
        match = np.arange(n)
        for q in swapped:
            match[[q, q + 1]] = match[[q + 1, q]]
        monkeypatch.setattr(
            equilibrium, "linear_sum_assignment", lambda values, maximize: (np.arange(n), match.copy())
        )
        inst = MarketInstance.from_matrix(np.full((n, n), 5.0))
        assert max_welfare_allocation(inst).assignment == tuple(range(n))

    def test_rotation_of_a_reversed_matching(self, monkeypatch):
        n = 2 * BLOCK + 1
        monkeypatch.setattr(
            equilibrium, "linear_sum_assignment",
            lambda values, maximize: (np.arange(n), np.arange(n)[::-1].copy()),
        )
        values = np.full((n, n), 5.0)
        values[:, 0] = 1.0  # worth less to everyone, so every matching stays optimal
        inst = MarketInstance.from_matrix(values)
        assert max_welfare_allocation(inst) == _resolve_greedy(inst, list(range(n)))

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

    @pytest.mark.parametrize(
        "subset, message",
        [([2], "out-of-range"), ([-1], "out-of-range"), ([], "at least one item")],
    )
    def test_rejects_the_subsets_the_solver_rejects(self, swap_market, subset, message):
        for solve in (brute_force_optimal, max_welfare_allocation):
            with pytest.raises(ValueError, match=message):
                solve(swap_market, subset)

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


    @pytest.mark.parametrize("m, n_items, low, high", [(9, 9, 0, 3), (10, 4, -10, 40)])
    def test_chunked_enumeration_agrees_with_solver(self, m, n_items, low, high):
        # Past 8 agents the tuples arrive in chunks of 200,000: a 9 x 9 market
        # with values in 0..2 takes two chunks and ties across them.
        rng = np.random.default_rng(m)
        inst = MarketInstance.from_matrix(rng.integers(low, high, (m, n_items)).astype(float))
        expected, best = brute_force_optimal(inst)
        alloc = max_welfare_allocation(inst)
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

    @pytest.mark.parametrize(
        "values",
        [
            [[1.0, 0.0], [0.0, 3.0]],  # the unassigned agent wants the unpicked item
            [[1.0, 5.0], [0.0, 0.0]],  # the holder prefers the unpicked item
        ],
    )
    def test_unpicked_item_demanded_at_zero_rejected(self, values):
        inst = MarketInstance.from_matrix(values)
        endow = Allocation((0, None))
        alloc = max_welfare_allocation(inst, endow.items())
        assert alloc == endow
        with pytest.raises(PreconditionError, match="no supporting prices"):
            ce_prices(inst, endow, alloc)

    def test_unpicked_item_within_tolerance_stays_at_zero(self):
        # Agent 0 raises item 1's price to 2 while its bound on the unpicked
        # item 2 is 5e-10, and the unassigned agent 2 values item 2 at 5e-10:
        # within the feasibility tolerance, and no price.
        inst = MarketInstance.from_matrix(
            [[10.0, 12.0, 10.0 + 5e-10], [0.0, 20.0, 0.0], [0.0, 0.0, 5e-10]]
        )
        endow = Allocation((0, 1, None))
        prices = ce_prices(inst, endow, endow)
        assert prices.prices.tolist() == [0.0, 2.0, 0.0]
        assert verify_ce(inst, endow, endow, prices)

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(tie_heavy_markets(outside_worthless=False))
    def test_prices_verify_or_precondition_error(self, market):
        inst, items, endowment = market
        alloc = max_welfare_allocation(inst, items)
        try:
            prices = ce_prices(inst, endowment, alloc)
        except PreconditionError:
            return
        assert verify_ce(inst, endowment, alloc, prices)

    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        st.one_of(
            tie_heavy_markets(),
            tie_heavy_markets(outside_worthless=False),
            normal_markets(),
            normal_markets(outside_worthless=False),
        )
    )
    def test_matches_per_agent_loop(self, market):
        # The optimal allocation, and the endowment itself, which is usually
        # not optimal: then both must raise the same PreconditionError.
        inst, items, endowment = market
        for allocation in (max_welfare_allocation(inst, items), endowment):
            _assert_prices_match_reference(inst, endowment, allocation)

    @pytest.mark.parametrize("n", [BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1])
    def test_matches_per_agent_loop_across_block_sizes(self, n):
        rng = np.random.default_rng(n)
        for values in (rng.normal(100.0, 30.0, (n, n)), rng.integers(0, 5, (n, n + 3))):
            inst = MarketInstance.from_matrix(values.astype(float))
            order = tuple(int(j) for j in rng.permutation(n))
            endowment = Allocation.from_array(sd_assignment(inst.valuations, order))
            allocation = max_welfare_allocation(inst, endowment.items())
            _assert_prices_match_reference(inst, endowment, allocation)

    @pytest.mark.parametrize(
        "family, n, seed, digest",
        [
            ("normal", 120, 0, "94dd0943074a0522871f37534424a25267438dab8bf707f521fe5c4a10046578"),
            ("normal", 120, 1, "2d4bccc9308fab6ef0360e52b720094d451cd98a8dd9d4f30540181444b348e8"),
            ("normal", 120, 2, "5d620143d5b159cd69f78d48810c608780ba72835a6fd98c2d87c20592ad6feb"),
            ("ties", 240, 0, "2d7827b06cd556a9c9d612223668aef1aca3670a2e9d590c2334dbf685f3cdc0"),
            ("ties", 240, 1, "aee08868613c2dcc7abdb874345b1d4895fa9ae48bef984f8ffd789e3774a838"),
            ("ties", 240, 2, "172bc6b7cfc63749cb34e8caced781c784d689508bc92a6f4f539b77de21b8c7"),
        ],
    )
    def test_expost_ce_transfers_digest_is_pinned(self, family, n, seed, digest):
        # Captured from the per-agent loops the block sweeps replaced.
        assert _ce_dense_digest(family, n, seed) == digest

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


    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        st.one_of(
            tie_heavy_markets(),
            tie_heavy_markets(outside_worthless=False),
            normal_markets(),
            normal_markets(outside_worthless=False),
        ),
        st.booleans(),
        st.data(),
    )
    def test_matches_per_agent_loop(self, market, optimal, data):
        # Ties, unassigned agents, items outside the endowment, and prices at
        # and around the tolerance on either side of every comparison.
        inst, items, endowment = market
        allocation = max_welfare_allocation(inst, items) if optimal else endowment
        try:
            prices = ce_prices(inst, endowment, allocation).prices
        except PreconditionError:
            prices = np.zeros(inst.n_items)
        nudge = data.draw(arrays(np.int64, inst.n_items, elements=st.integers(-4, 4)))
        for p in (prices, prices + nudge * (equilibrium._ATOL / 2), prices + 0.25 * nudge):
            assert verify_ce(inst, endowment, allocation, p) is _verify_ce_reference(
                inst, endowment, allocation, p
            )

    def test_other_agent_count_rejected(self, swap_market):
        assert not verify_ce(swap_market, Allocation((0,)), Allocation((0,)), np.zeros(2))


class TestTradeSurplus:
    def test_dead_end_pairs(self, dead_end_market):
        # Stable allocation from picking in order first, third, second.
        alloc = Allocation((2, 0, 1))
        assert trade_surplus(dead_end_market, alloc, 0, 1) == -5.0
        assert trade_surplus(dead_end_market, alloc, 1, 2) == -6.0

    def test_swap_market_pair(self, swap_market):
        assert trade_surplus(swap_market, Allocation((0, 1)), 0, 1) == 8.0

    def test_identical_rows_never_trade(self):
        inst = MarketInstance.from_matrix([[3.0, 7.0], [3.0, 7.0]])
        assert trade_surplus(inst, Allocation((1, 0)), 0, 1) == 0.0

    def test_unassigned_agent_rejected(self, swap_market):
        with pytest.raises(ValueError):
            trade_surplus(swap_market, Allocation((0, None)), 0, 1)


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
