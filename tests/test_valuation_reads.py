"""One valuation read path: ``cells``, ``held_values`` and ``dense_matrix``.

Every caller that reads several valuation cells goes through these three
readers.  The references below are the per-cell and per-turn implementations
they replaced (each cell through ``MarketInstance.value``, each turn's rows
stacked again through ``MarketInstance.row``); the property asserts that the
callers reproduce them byte for byte on dense and hashed instances.
"""

import dataclasses
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from rsd_market.equilibrium import _ATOL, trade_feasible
from rsd_market.housing import HOUSING_POLICY, small_tau_bound, tax_incidence_check
from rsd_market.market import (
    Allocation,
    HashedNormalValuations,
    MarketInstance,
    Outcome,
    TradeRecord,
    instance_to_json,
    replay_trade_log,
    total_welfare,
    utilities,
    validate_order,
)
from rsd_market.mechanisms import (
    NO_COST,
    TradePolicy,
    bilateral_price,
    interim_feasibility_check,
    interim_transfers,
    pairwise_aftermarket,
    ttc,
)


def bits(x):
    """A comparable form that tells apart every float bit pattern and type."""
    if isinstance(x, np.ndarray):
        return ("ndarray", x.dtype.str, x.shape, x.tobytes())
    if isinstance(x, (tuple, list)):
        return (type(x).__name__, tuple(bits(v) for v in x))
    if dataclasses.is_dataclass(x):
        return (type(x).__name__, tuple(bits(getattr(x, f.name)) for f in dataclasses.fields(x)))
    return (type(x).__name__, repr(x))


# ---------------------------------------------------------------------------
# References: the per-cell and per-turn implementations
# ---------------------------------------------------------------------------


def utilities_reference(instance, outcome):
    return np.array(
        [
            instance.value(j, outcome.allocation.assignment[j])
            + float(instance.budgets[j])
            + outcome.transfers[j]
            for j in range(instance.n_agents)
        ]
    )


def total_welfare_reference(instance, allocation):
    return float(sum(instance.value(j, item) for j, item in enumerate(allocation.assignment)))


def trade_surplus_reference(instance, allocation, j, k):
    item_j, item_k = allocation.assignment[j], allocation.assignment[k]
    surplus = (
        instance.value(j, item_k)
        + instance.value(k, item_j)
        - instance.value(j, item_j)
        - instance.value(k, item_k)
    )
    return surplus > 0, surplus


def tax_incidence_reference(instance, j, j_other, items, tau, splits):
    i_keep, i_give, i_get = items
    base = (
        instance.value(j, i_get)
        + instance.value(j_other, i_give)
        - instance.value(j_other, i_get)
        - tau
        > instance.value(j, i_keep)
    )
    for c in splits:
        min_payment = instance.value(j_other, i_get) + (tau - c) - instance.value(j_other, i_give)
        decision = instance.value(j, i_get) - c - min_payment > instance.value(j, i_keep)
        if decision != base:
            return False
    return True


def small_tau_reference(instance, allocation, order, policy):
    _, _, log = pairwise_aftermarket(instance, allocation, order, policy, NO_COST)
    if not log:
        return float("inf"), False
    margins = [
        instance.value(rec.proposer, rec.item_acquired)
        - instance.value(rec.proposer, rec.item_given)
        - rec.price
        for rec in log
    ]
    return float(min(margins)), True


def interim_feasibility_reference(instance, order):
    order_t = validate_order(order, instance.n_agents)
    policy = TradePolicy(surplus_split=0.0, seller_reservation_floor=False)
    outcome = interim_transfers_reference(instance, order_t, "lookback-strategic", policy)
    picks, _ = replay_trade_log(outcome)
    held = {}
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


def interim_transfers_reference(instance, order, agent_model, policy):
    order_t = validate_order(order, instance.n_agents)
    m, n = instance.n_agents, instance.n_items
    assignment = np.full(m, -1, dtype=np.int64)
    available = np.ones(n, dtype=bool)
    transfers = np.zeros(m)
    log = []
    for turn, j in enumerate(order_t):
        if not np.any(available):
            break
        row = instance.row(j)
        favorite = int(np.argmax(np.where(available, row, -np.inf)))
        earlier = np.asarray(order_t[:turn], dtype=np.int64)
        held = assignment[earlier]
        pick, trade_with, trade_price = favorite, None, 0.0
        if agent_model == "myopic":
            assignment[j] = favorite
            available[favorite] = False
            if earlier.size:
                ceiling = row[held] - row[favorite]
                feasible, price = bilateral_price(
                    instance.valuations.values(earlier, held)
                    - instance.valuations.values(earlier, favorite),
                    ceiling,
                    policy,
                )
                gain = np.where(feasible, ceiling - price, -np.inf)
                best = int(np.argmax(gain))
                if gain[best] > 0.0:
                    trade_with, trade_price = int(earlier[best]), float(price[best])
        else:
            if earlier.size:
                krows = np.vstack([instance.row(int(k)) for k in earlier])
                lures = np.argmax(np.where(available, krows, -np.inf), axis=1)
                slots = np.arange(earlier.size)
                feasible, price = bilateral_price(
                    krows[slots, held] - krows[slots, lures], row[held] - row[lures], policy
                )
                gain = np.where(feasible, row[held] - row[lures] - price, -np.inf)
                score = gain - (row[favorite] - row[lures])
                best = int(np.argmax(score))
                if score[best] > 0.0:
                    pick = int(lures[best])
                    trade_with, trade_price = int(earlier[best]), float(price[best])
            assignment[j] = pick
            available[pick] = False
        if trade_with is not None:
            k = trade_with
            item_j, item_k = int(assignment[j]), int(assignment[k])
            assignment[j], assignment[k] = item_k, item_j
            transfers[j] -= trade_price
            transfers[k] += trade_price
            log.append(TradeRecord(len(log), j, k, item_k, item_j, trade_price))
    return Outcome(
        allocation=Allocation.from_array(assignment),
        transfers=tuple(float(t) for t in transfers),
        trade_log=tuple(log),
    )


def ttc_reference(instance, endowment):
    owner = endowment.owner_of()
    active = {j for j, item in enumerate(endowment.assignment) if item is not None}
    remaining = np.zeros(instance.n_items, dtype=bool)
    remaining[list(owner)] = True
    result = [None] * instance.n_agents
    while active:
        favorite = {}
        for j in active:
            favorite[j] = int(np.argmax(np.where(remaining, instance.row(j), -np.inf)))
        points_to = {j: owner[favorite[j]] for j in active}
        walk = [min(active)]
        seen = {walk[0]}
        while True:
            nxt = points_to[walk[-1]]
            if nxt in seen:
                cycle = walk[walk.index(nxt):]
                break
            walk.append(nxt)
            seen.add(nxt)
        for j in cycle:
            result[j] = favorite[j]
            remaining[favorite[j]] = False
            active.remove(j)
    return Allocation(tuple(result))


# ---------------------------------------------------------------------------
# Instances
# ---------------------------------------------------------------------------


def hashed_instance(rng, m, n):
    backend = HashedNormalValuations(
        key=int(rng.integers(0, 2**63)),
        means=rng.uniform(100.0, 1_000.0, n),
        stds=rng.uniform(20.0, 40.0, n),
        agent_count=m,
    )
    return MarketInstance(backend, rng.uniform(0.0, 300.0, m))


def make_instance(kind, m, n, rng):
    if kind == "hashed":
        return hashed_instance(rng, m, n)
    if kind == "integer":
        values = rng.integers(-10, 51, (m, n)).astype(float)
    elif kind == "ties":
        values = rng.integers(0, 3, (m, n)).astype(float)
    else:
        values = rng.normal(100.0, 30.0, (m, n))
    return MarketInstance.from_matrix(values, rng.uniform(0.0, 50.0, m))


def partial_allocation(rng, m, n, k):
    items = rng.permutation(n)[:k]
    assignment = np.full(m, -1)
    assignment[rng.permutation(m)[:k]] = items
    return Allocation.from_array(assignment)


@st.composite
def markets(draw):
    kind = draw(st.sampled_from(["integer", "normal", "ties", "hashed"]))
    # Up to 12 agents: ``ndarray.sum`` on 8 or more values adds in another
    # order than the builtin ``sum``, so a pairwise sum would show.
    m = draw(st.integers(1, 12))
    n = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return make_instance(kind, m, n, rng), rng


class TestReadersMatchReferences:
    @given(market=markets(), split=st.sampled_from([0.0, 0.3, 1.0]), floor=st.booleans())
    @settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_callers_equal_the_per_cell_reads(self, market, split, floor):
        inst, rng = market
        m, n = inst.n_agents, inst.n_items
        alloc = partial_allocation(rng, m, n, int(rng.integers(0, min(m, n) + 1)))
        outcome = Outcome(alloc, tuple(rng.normal(0.0, 10.0, m).tolist()))
        assert bits(utilities(inst, outcome)) == bits(utilities_reference(inst, outcome))
        assert bits(total_welfare(inst, alloc)) == bits(total_welfare_reference(inst, alloc))

        holders = [j for j, item in enumerate(alloc.assignment) if item is not None]
        for j, k in zip(holders, holders[1:]):
            feasible, surplus = trade_feasible(inst, alloc, j, k)
            assert bits((feasible, surplus.surplus)) == bits(
                trade_surplus_reference(inst, alloc, j, k)
            )

        j, j_other = (int(a) for a in rng.integers(0, m, 2))
        items = tuple(int(i) for i in rng.integers(0, n, 3))
        tau = float(rng.uniform(0.0, 20.0))
        splits = [0.0, tau / 3, tau]
        assert tax_incidence_check(inst, j, j_other, items, tau, splits) == (
            tax_incidence_reference(inst, j, j_other, items, tau, splits)
        )

        order = tuple(int(a) for a in rng.permutation(m))
        policy = TradePolicy(split, floor, str(rng.choice(["fixed-point", "single-pass"])))
        bound = small_tau_bound(inst, alloc, order, policy)
        assert bits((bound.gamma_star, bound.has_feasible_trade)) == bits(
            small_tau_reference(inst, alloc, order, policy)
        )

        assert interim_feasibility_check(inst, order) == interim_feasibility_reference(inst, order)
        for model in ("myopic", "lookback-strategic"):
            assert bits(interim_transfers(inst, order, model, policy)) == bits(
                interim_transfers_reference(inst, order, model, policy)
            )
        assert bits(ttc(inst, alloc)) == bits(ttc_reference(inst, alloc))

    def test_default_small_tau_policy_on_hashed_market(self):
        rng = np.random.default_rng(9)
        inst = hashed_instance(rng, 30, 30)
        alloc = Allocation.from_array(rng.permutation(30))
        order = tuple(range(30))
        bound = small_tau_bound(inst, alloc)
        policy = replace(HOUSING_POLICY, budget_enforced=False)
        assert bound.has_feasible_trade
        expected = small_tau_reference(inst, alloc, order, policy)
        assert bits((bound.gamma_star, True)) == bits(expected)

    @pytest.mark.parametrize("kind", ["normal", "hashed"])
    def test_welfare_adds_in_agent_order(self, kind):
        # 60 held cells: a pairwise ``ndarray.sum`` would round differently.
        rng = np.random.default_rng(11)
        inst = make_instance(kind, 60, 60, rng)
        alloc = Allocation.from_array(rng.permutation(60))
        outcome = Outcome(alloc, tuple(rng.normal(0.0, 10.0, 60).tolist()))
        assert bits(total_welfare(inst, alloc)) == bits(total_welfare_reference(inst, alloc))
        assert bits(utilities(inst, outcome)) == bits(utilities_reference(inst, outcome))

    @pytest.mark.parametrize("kind", ["normal", "hashed"])
    def test_dense_matrix_reads_rows_and_columns(self, kind):
        rng = np.random.default_rng(3)
        inst = make_instance(kind, 5, 6, rng)
        full = np.vstack([inst.row(j) for j in range(5)])
        assert bits(inst.dense_matrix()) == bits(full)
        assert bits(inst.dense_matrix([4, 1])) == bits(full[:, [4, 1]])


class TestReaderValidation:
    @pytest.fixture(params=["normal", "hashed"])
    def inst(self, request):
        return make_instance(request.param, 3, 4, np.random.default_rng(5))

    def test_cells_equal_point_reads(self, inst):
        agents, items = [2, 0, 1, 2], [3, 0, 0, 3]
        expected = [inst.value(a, i) for a, i in zip(agents, items)]
        assert inst.cells(agents, items).tolist() == expected
        assert inst.cells([], []).shape == (0,)

    @pytest.mark.parametrize(
        "agents, items",
        [([-1], [0]), ([3], [0]), ([0], [-1]), ([0], [4]), ([0, 1, 2], [0, 1, 2**40])],
    )
    def test_cells_reject_ids_outside_the_field(self, inst, agents, items):
        with pytest.raises(ValueError):
            inst.cells(agents, items)

    def test_held_values(self, inst):
        held = inst.held_values(np.array([3, -1, 0]))
        assert held.tolist() == [inst.value(0, 3), 0.0, inst.value(2, 0)]

    @pytest.mark.parametrize(
        "assignment", [[0, 1], [0, 1, 2, 3], [0, -2, 1], [0, 1, 4], [[0, 1, 2]]]
    )
    def test_held_values_rejects_bad_assignments(self, inst, assignment):
        with pytest.raises(ValueError):
            inst.held_values(np.array(assignment))

    def test_serializing_a_huge_hashed_field_is_refused(self):
        inst = hashed_instance(np.random.default_rng(1), 2_001, 2_000)
        with pytest.raises(ValueError):
            instance_to_json(inst)
