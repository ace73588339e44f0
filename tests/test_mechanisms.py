"""Mechanism engines: picks, cycle trading, transfer stages."""

import hashlib
import itertools
import warnings
from dataclasses import replace

import numpy as np
import pytest

from rsd_market.housing import SimConfig, generate_instance, replication_order
from rsd_market.market import (
    Allocation,
    HashedNormalValuations,
    MarketInstance,
    Outcome,
    TradeRecord,
    random_order,
    total_welfare,
    utilities,
    validate_outcome,
)
from rsd_market.mechanisms import (
    NO_COST,
    TradePolicy,
    TransactionCost,
    bilateral_price,
    expost_ce_transfers,
    expost_pairwise_transfers,
    interim_transfers,
    pairwise_aftermarket,
    parse_cost,
    serial_dictatorship,
    ttc,
)
from rsd_market.scenarios import get_scenario
from rsd_market.suite import trade_log_soundness


def identical_rows(n: int, seed: int) -> MarketInstance:
    rng = np.random.default_rng(seed)
    row = rng.integers(0, 100, n).astype(float)
    return MarketInstance.from_matrix(np.tile(row, (n, 1)))


def _scalar_terms(vj_own, vj_other, vk_own, vk_other, policy):
    """(feasible, price, buyer_gain) for one swap, priced one pair at a time."""
    reservation = vk_own - vk_other
    if policy.seller_reservation_floor:
        reservation = max(reservation, 0.0)
    floor_price = float(np.asarray(NO_COST.gross_price(reservation)))
    ceiling = vj_other - vj_own
    if not ceiling > floor_price:
        return False, 0.0, 0.0
    price = floor_price + policy.surplus_split * (ceiling - floor_price)
    return True, price, ceiling - price


def interim_reference(instance, order, agent_model, policy):
    """Scalar reference for ``interim_transfers``: one predecessor at a time,
    every predecessor cell read through ``MarketInstance.value``.  An offer
    scores its buyer gain less what picking the lure forgoes against the
    favorite, and the first strictly best positive score executes."""
    m, n = instance.n_agents, instance.n_items
    assignment = np.full(m, -1, dtype=np.int64)
    available = np.ones(n, dtype=bool)
    transfers = np.zeros(m)
    log = []
    for turn, j in enumerate(order):
        if not np.any(available):
            break
        row = instance.row(j)
        favorite = int(np.argmax(np.where(available, row, -np.inf)))
        earlier = [k for k in order[:turn] if assignment[k] >= 0]
        pick, trade_with, trade_price, best_score = favorite, None, 0.0, 0.0
        for k in earlier:
            item_k = int(assignment[k])
            if agent_model == "myopic":
                lure = favorite
            else:
                lure = int(np.argmax(np.where(available, instance.row(k), -np.inf)))
            feasible, price, gain = _scalar_terms(
                float(row[lure]),
                float(row[item_k]),
                instance.value(k, item_k),
                instance.value(k, lure),
                policy,
            )
            score = gain - (float(row[favorite]) - float(row[lure]))
            if feasible and score > best_score:
                best_score, pick, trade_with, trade_price = score, lure, k, price
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


def aftermarket_reference(instance, endowment, order, policy, cost):
    """Reference for ``pairwise_aftermarket``: every visit rebuilds the
    candidate mask from the owners and a per-agent ``bought`` flag, offers
    every held item (no preference filter, in either mode), reads seller
    values with one item id per seller, and checks each unfloored seller's
    cash one candidate at a time."""
    m, n = instance.n_agents, instance.n_items
    assignment = endowment.to_array()
    owner = np.full(n, -1, dtype=np.int64)
    own_value = np.zeros(n)
    for j, item in enumerate(assignment):
        if item >= 0:
            owner[item] = j
            own_value[item] = instance.value(j, int(item))
    transfers = np.zeros(m)
    fees = np.zeros(m)
    bought = np.zeros(m, dtype=bool)
    log = []
    single_pass = policy.pairwise_mode == "single-pass"

    def visit(j):
        item_j = int(assignment[j])
        if item_j < 0:
            return False
        row = instance.row(j)
        mask = (owner >= 0) & (owner != j)
        if single_pass:
            mask &= ~bought[np.clip(owner, 0, None)]
        cand = np.nonzero(mask)[0]
        if cand.size == 0:
            return False
        sellers = owner[cand]
        seller_other = instance.valuations.values(sellers, np.full(cand.size, item_j))
        ceiling = row[cand] - row[item_j]
        ok, price = bilateral_price(own_value[cand] - seller_other, ceiling, policy, cost)
        gain = ceiling - price
        if policy.budget_enforced:
            ok &= price <= instance.budgets[j] + transfers[j] - fees[j]
            if not policy.seller_reservation_floor:
                for c, k in enumerate(sellers.tolist()):
                    cash = instance.budgets[k] + transfers[k] - fees[k]
                    ok[c] &= float(price[c]) - cost.fee(float(price[c])) >= -cash
        if not np.any(ok):
            return False
        gain = np.where(ok, gain, -np.inf)
        pick = int(np.argmax(gain))
        if not np.isfinite(gain[pick]):
            return False
        item_k, k, p = int(cand[pick]), int(sellers[pick]), float(price[pick])
        fee = cost.fee(p)
        transfers[j] -= p
        transfers[k] += p
        fees[k] += fee
        assignment[j], assignment[k] = item_k, item_j
        owner[item_k], owner[item_j] = j, k
        own_value[item_k] = float(row[item_k])
        own_value[item_j] = float(seller_other[pick])
        log.append(TradeRecord(len(log), j, k, item_k, item_j, p, fee))
        if single_pass:
            bought[j] = True
        return True

    if single_pass:
        for j in order:
            if not bought[j]:
                visit(j)
    else:
        while any([visit(j) for j in order]):
            pass
    return Allocation.from_array(assignment), tuple(float(t) for t in transfers), tuple(log)


class TestSerialDictatorship:
    def test_paired_market(self):
        sc = get_scenario("example-3.1")
        out = serial_dictatorship(sc.instance, (0, 1))
        assert out.allocation.assignment == (0, 1)
        assert utilities(sc.instance, out).tolist() == [7.0, 6.0]
        assert out.transfers == (0.0, 0.0)

    def test_dead_end_order(self):
        sc = get_scenario("example-4.1")
        out = serial_dictatorship(sc.instance, (0, 2, 1))
        assert out.allocation.assignment == (2, 0, 1)

    def test_single_agent(self):
        inst = MarketInstance.from_matrix([[3.0]])
        out = serial_dictatorship(inst, (0,))
        assert out.allocation.assignment == (0,)

    def test_more_agents_than_items(self):
        inst = MarketInstance.from_matrix([[5.0], [9.0]])
        out = serial_dictatorship(inst, (1, 0))
        assert out.allocation.assignment == (None, 0)

    def test_ties_break_to_lowest_item(self):
        inst = MarketInstance.from_matrix([[4.0, 4.0, 4.0]] * 3)
        out = serial_dictatorship(inst, (2, 0, 1))
        assert out.allocation.assignment == (1, 2, 0)

    def test_order_validation(self):
        inst = MarketInstance.from_matrix([[1.0, 2.0], [3.0, 4.0]])
        with pytest.raises(ValueError):
            serial_dictatorship(inst, (0, 0))


def rsd(inst, seed):
    return serial_dictatorship(inst, random_order(inst.n_agents, seed))


class TestRsd:
    def test_same_seed_same_outcome(self):
        rng = np.random.default_rng(5)
        inst = MarketInstance.from_matrix(rng.integers(0, 30, (6, 6)).astype(float))
        assert rsd(inst, 99) == rsd(inst, 99)

    def test_rank_property_under_identical_rows(self):
        inst = MarketInstance.from_matrix(
            np.tile(np.array([10.0, 40.0, 30.0, 20.0]), (4, 1))
        )
        out = rsd(inst, 31)
        order = np.random.default_rng(31).permutation(4)
        ranked_items = [1, 2, 3, 0]  # items sorted by the shared row, descending
        for rank, agent in enumerate(order):
            assert out.allocation.assignment[agent] == ranked_items[rank]

    def test_single_agent_any_seed(self):
        inst = MarketInstance.from_matrix([[2.0]])
        for seed in (0, 1, 17):
            assert rsd(inst, seed).allocation.assignment == (0,)


class TestTtc:
    def test_two_agent_swap(self):
        inst = MarketInstance.from_matrix([[1.0, 9.0], [9.0, 1.0]])
        result = ttc(inst, Allocation((0, 1)))
        assert result.assignment == (1, 0)

    def test_three_way_rotation(self):
        # Each agent prefers the next agent's endowed item.
        inst = MarketInstance.from_matrix(
            [[0.0, 9.0, 1.0], [1.0, 0.0, 9.0], [9.0, 1.0, 0.0]]
        )
        result = ttc(inst, Allocation((0, 1, 2)))
        assert result.assignment == (1, 2, 0)

    def test_truthful_picks_are_stable(self):
        rng = np.random.default_rng(404)
        for _ in range(40):
            n = int(rng.integers(2, 9))
            inst = MarketInstance.from_matrix(rng.integers(-5, 60, (n, n)).astype(float))
            order = tuple(int(j) for j in rng.permutation(n))
            endow = serial_dictatorship(inst, order).allocation
            assert ttc(inst, endow).assignment == endow.assignment

    def test_nonparticipants_stay_out(self):
        inst = MarketInstance.from_matrix([[1.0, 9.0], [9.0, 1.0]])
        result = ttc(inst, Allocation((0, None)))
        assert result.assignment == (0, None)

    def test_malformed_endowment(self):
        inst = MarketInstance.from_matrix([[1.0, 9.0], [9.0, 1.0]])
        with pytest.raises(ValueError):
            ttc(inst, Allocation((5, None)))


class TestExpostCeTransfers:
    def test_paired_market(self):
        sc = get_scenario("example-3.1")
        out = expost_ce_transfers(sc.instance, (0, 1))
        assert out.allocation.assignment == (1, 0)
        assert out.transfers == (1.0, -1.0)
        assert utilities(sc.instance, out).tolist() == [7.0, 14.0]

    def test_dead_end_reaches_optimum(self):
        sc = get_scenario("example-4.1")
        out = expost_ce_transfers(sc.instance, (0, 2, 1))
        assert out.allocation.assignment == (0, 1, 2)
        assert total_welfare(sc.instance, out.allocation) == 14.0
        assert sum(out.transfers) == 0.0

    def test_no_reshuffle_when_picks_optimal(self):
        inst = MarketInstance.from_matrix(np.diag([9.0, 7.0, 5.0]))
        out = expost_ce_transfers(inst, (0, 1, 2))
        assert out.allocation.assignment == (0, 1, 2)
        assert out.transfers == (0.0, 0.0, 0.0)


class TestPairwiseTransfers:
    def test_paired_market_midpoint_price(self):
        sc = get_scenario("example-3.1")
        out = expost_pairwise_transfers(sc.instance, (0, 1))
        assert len(out.trade_log) == 1
        rec = out.trade_log[0]
        assert (rec.proposer, rec.counterparty) == (1, 0)
        assert rec.price == 5.0
        assert utilities(sc.instance, out).tolist() == [11.0, 10.0]

    def test_utilities_pay_the_seller_fee(self):
        # The seller (agent 0) pays the fixed fee of 2 out of the price of 5.
        sc = get_scenario("example-3.1")
        out = expost_pairwise_transfers(sc.instance, (0, 1), cost=TransactionCost("fixed", 2.0))
        assert out.seller_costs().tolist() == [2.0, 0.0]
        assert utilities(sc.instance, out).tolist() == [10.0, 9.0]

    def test_inconsistent_log_is_reported_not_raised(self):
        sc = get_scenario("example-3.1")
        out = expost_pairwise_transfers(sc.instance, (0, 1))
        rec = out.trade_log[0]
        swapped = replace(rec, item_acquired=rec.item_given, item_given=rec.item_acquired)
        corrupt = Outcome(out.allocation, out.transfers, (swapped,))
        assert trade_log_soundness(sc.instance, corrupt) == ["trade log inconsistent at step 0"]

    def test_dead_end_executes_nothing(self):
        sc = get_scenario("example-4.1")
        out = expost_pairwise_transfers(sc.instance, sc.default_order)
        assert out.trade_log == ()
        assert total_welfare(sc.instance, out.allocation) == 10.0

    def test_identical_preferences_match_plain_picks(self):
        for seed in range(10):
            inst = identical_rows(6, seed)
            order = tuple(int(j) for j in np.random.default_rng(seed).permutation(6))
            plain = serial_dictatorship(inst, order)
            traded = expost_pairwise_transfers(inst, order)
            assert traded.allocation.assignment == plain.allocation.assignment
            assert traded.transfers == plain.transfers
            assert traded.trade_log == ()

    def test_zero_sum_and_validity_on_random_markets(self):
        rng = np.random.default_rng(808)
        for _ in range(30):
            n = int(rng.integers(2, 9))
            inst = MarketInstance.from_matrix(rng.integers(-10, 60, (n, n)).astype(float))
            order = tuple(int(j) for j in rng.permutation(n))
            out = expost_pairwise_transfers(inst, order)
            assert validate_outcome(inst, out, atol=0) == []

    def test_fixed_point_not_worse_than_single_pass(self):
        rng = np.random.default_rng(33)
        for _ in range(20):
            n = int(rng.integers(3, 8))
            inst = MarketInstance.from_matrix(rng.integers(0, 60, (n, n)).astype(float))
            order = tuple(int(j) for j in rng.permutation(n))
            multi = expost_pairwise_transfers(inst, order)
            single = expost_pairwise_transfers(
                inst, order, TradePolicy(pairwise_mode="single-pass")
            )
            assert total_welfare(inst, multi.allocation) >= total_welfare(
                inst, single.allocation
            )

    def test_budget_blocks_unaffordable_trades(self):
        inst = MarketInstance.from_matrix([[2, 1], [10, 1]], [5, 2])
        policy = TradePolicy(budget_enforced=True)
        out = expost_pairwise_transfers(inst, (0, 1), policy)
        # Midpoint price 5 exceeds the buyer's budget of 2.
        assert out.trade_log == ()
        buyer_optimal = TradePolicy(surplus_split=0.0, budget_enforced=True)
        out = expost_pairwise_transfers(inst, (0, 1), buyer_optimal)
        assert len(out.trade_log) == 1 and out.trade_log[0].price == 1.0


class TestBilateralPrice:
    def test_fixed_fee_grosses_up(self):
        feasible, price = bilateral_price(
            np.array([3.0, -2.0]),
            np.array([10.0, 10.0]),
            TradePolicy(surplus_split=0.0),
            TransactionCost("fixed", 2.0),
        )
        # The negative reservation is floored at 0 before the fee is added.
        assert feasible.tolist() == [True, True]
        assert price.tolist() == [5.0, 2.0]

    def test_proportional_fee_grosses_up(self):
        feasible, price = bilateral_price(
            np.array([3.0, -1.0]),
            np.array([10.0, 10.0]),
            TradePolicy(surplus_split=0.5),
            TransactionCost("proportional", 0.5),
        )
        # Floors 3 / (1 - 0.5) = 6 and 0, then half of the remaining gap.
        assert feasible.tolist() == [True, True]
        assert price.tolist() == [8.0, 5.0]

    def test_unfloored_reservation_stays_negative(self):
        feasible, price = bilateral_price(
            np.array([-4.0]), np.array([2.0]), TradePolicy(seller_reservation_floor=False)
        )
        assert feasible.tolist() == [True]
        assert price.tolist() == [-1.0]

    def test_ceiling_equal_to_floor_is_infeasible(self):
        for reservation, cost in ((3.0, NO_COST), (1.0, TransactionCost("fixed", 2.0))):
            feasible, price = bilateral_price(
                np.array([reservation]), np.array([3.0]), TradePolicy(), cost
            )
            assert feasible.tolist() == [False]
            assert price.tolist() == [0.0]

    def test_unreachable_floor_is_infeasible(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            feasible, price = bilateral_price(
                np.array([1.0, 0.0]),
                np.array([5.0, 5.0]),
                TradePolicy(),
                TransactionCost("proportional", 1.0),
            )
        assert feasible.tolist() == [False, True]
        assert price.tolist() == [0.0, 2.5]


class TestTransactionCosts:
    def test_nan_amount_rejected(self):
        for kind in ("fixed", "proportional"):
            with pytest.raises(ValueError):
                TransactionCost(kind, float("nan"))
            assert TransactionCost(kind, float("inf")).amount == float("inf")
        with pytest.raises(ValueError):
            parse_cost("fixed:nan")

    def test_parse_specs(self):
        assert parse_cost("none") == NO_COST == TransactionCost("fixed", 0.0)
        assert parse_cost("fixed:3.5") == TransactionCost("fixed", 3.5)
        assert parse_cost("prop:0.1") == TransactionCost("proportional", 0.1)
        for spec in ("fixed", "proportional:0.1", "none:0", "fixed:abc", "prop:1,2"):
            with pytest.raises(ValueError, match="^malformed transaction cost spec"):
                parse_cost(spec)

    def test_no_cost_kind_is_gone(self):
        # "No fee" is a fixed fee of 0; only the CLI spells it "none".
        with pytest.raises(ValueError, match="unknown transaction cost kind"):
            TransactionCost("none")

    def test_fee_is_a_python_float(self):
        # An int amount must not change the logged cost's type.
        for cost, fee in (
            (TransactionCost("fixed", 2), 2.0),
            (TransactionCost("proportional", 1), 3.0),
            (NO_COST, 0.0),
        ):
            assert type(cost.fee(3.0)) is float and cost.fee(3.0) == fee
        assert TransactionCost("proportional", 0.5).fee(-4.0) == 0.0

    def test_infinite_rate_charges_no_fee_on_a_swap_down(self):
        # Unfloored, the seller pays 23 to swap down; an infinite rate on a
        # nonpositive price is no fee, not inf * 0.
        market = MarketInstance.from_matrix([[-4, -4], [21, -2]])
        out = expost_pairwise_transfers(
            market,
            (0, 1),
            TradePolicy(surplus_split=0.0, seller_reservation_floor=False),
            TransactionCost("proportional", float("inf")),
        )
        (rec,) = out.trade_log
        assert rec.price == -23.0 and rec.cost == 0.0
        assert out.seller_costs().tolist() == [0.0, 0.0]
        assert utilities(market, out).tolist() == [19.0, -2.0]

    def test_fee_gates_trades_by_surplus(self):
        sc = get_scenario("example-3.1")
        # Joint surplus is 8: a fee of 7.9 still trades, 8.1 does not.
        out = expost_pairwise_transfers(
            sc.instance, (0, 1), cost=TransactionCost("fixed", 7.9)
        )
        assert len(out.trade_log) == 1
        out = expost_pairwise_transfers(
            sc.instance, (0, 1), cost=TransactionCost("fixed", 8.1)
        )
        assert out.trade_log == ()

    def test_seller_made_whole_under_fixed_fee(self):
        sc = get_scenario("example-3.1")
        out = expost_pairwise_transfers(
            sc.instance,
            (0, 1),
            TradePolicy(surplus_split=0.0),
            TransactionCost("fixed", 2.0),
        )
        rec = out.trade_log[0]
        assert rec.cost == 2.0
        seller_net = (
            sc.instance.value(rec.counterparty, rec.item_given)
            - sc.instance.value(rec.counterparty, rec.item_acquired)
            + rec.price
            - rec.cost
        )
        assert seller_net == 0.0

    def test_proportional_fee_grosses_up(self):
        sc = get_scenario("example-3.1")
        out = expost_pairwise_transfers(
            sc.instance,
            (0, 1),
            TradePolicy(surplus_split=0.0),
            TransactionCost("proportional", 0.5),
        )
        rec = out.trade_log[0]
        assert rec.price == pytest.approx(2.0)  # reservation 1 grossed by 1/(1-0.5)
        assert rec.cost == pytest.approx(1.0)

    @pytest.mark.parametrize("mode", ["fixed-point", "single-pass"])
    @pytest.mark.parametrize("split", [0.0, 0.5])
    @pytest.mark.parametrize("rate", [1.0, 1.5])
    def test_rate_of_100_percent_or_more_warns_nothing(self, rate, split, mode):
        rng = np.random.default_rng(2)
        inst = MarketInstance.from_matrix(rng.normal(100, 30, (12, 12)))
        order = tuple(int(j) for j in rng.permutation(12))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = expost_pairwise_transfers(
                inst,
                order,
                TradePolicy(surplus_split=split, pairwise_mode=mode),
                TransactionCost("proportional", rate),
            )
        assert validate_outcome(inst, out) == []


    @pytest.mark.parametrize(
        "cost",
        [
            NO_COST,
            TransactionCost("fixed", 1.5),
            TransactionCost("proportional", 0.3),
            TransactionCost("proportional", 1.0),
            TransactionCost("proportional", 1.5),
        ],
        ids=["none", "fixed", "prop0.3", "prop1.0", "prop1.5"],
    )
    @pytest.mark.parametrize("split", [0.0, 0.5, 1.0])
    def test_every_logged_trade_is_sound(self, split, cost):
        # Every other TradePolicy field in every combination, on integer and
        # normal 6x6 markets with random budgets and pick orders.  At split 1
        # the buyer pays the whole ceiling, so only weak buyer gain holds.
        rng = np.random.default_rng(31)
        fields = itertools.product((True, False), ("fixed-point", "single-pass"), (True, False))
        policies = [TradePolicy(split, *rest) for rest in fields]
        for trial in range(12):
            values = rng.integers(0, 10, (6, 6)) if trial % 2 else rng.normal(10.0, 4.0, (6, 6))
            inst = MarketInstance.from_matrix(values.astype(float), rng.uniform(0.0, 8.0, 6))
            order = tuple(int(j) for j in rng.permutation(6))
            for policy in policies:
                out = expost_pairwise_transfers(inst, order, policy, cost)
                assert trade_log_soundness(inst, out, buyer_strict=split < 1) == [], policy

    def test_rate_above_100_percent_prices_at_the_floor(self):
        # Reservation -2 (the seller gains 2 by swapping) stays unfloored;
        # reservation 1 cannot be grossed up.  No share of the gap is added.
        feasible, price = bilateral_price(
            np.array([-2.0, 1.0]),
            np.array([5.0, 5.0]),
            TradePolicy(surplus_split=0.5, seller_reservation_floor=False),
            TransactionCost("proportional", 1.5),
        )
        assert feasible.tolist() == [True, False]
        assert price.tolist() == [-2.0, 0.0]


class TestInterimTransfers:
    def test_miss_and_rescue(self):
        miss = get_scenario("example-5.1")
        for model in ("myopic", "lookback-strategic"):
            out = interim_transfers(miss.instance, miss.default_order, model)
            assert out.allocation.assignment == (0, 1, 2)
            assert out.trade_log == ()
        rescue = get_scenario("example-5.2")
        for model in ("myopic", "lookback-strategic"):
            out = interim_transfers(rescue.instance, rescue.default_order, model)
            assert out.allocation.assignment == (0, 1, 3, 2)
            assert len(out.trade_log) == 1
            assert total_welfare(rescue.instance, out.allocation) == 120.0

    def test_hashed_1k_lookback_outcome_is_pinned(self):
        # Too large for the scalar reference, so the lookback outcome is pinned.
        config = SimConfig(n_agents=1000)
        inst = generate_instance(config, 4096).market
        out = interim_transfers(inst, replication_order(config, 4096), "lookback-strategic")
        h = hashlib.sha256()
        h.update(out.allocation.to_array().tobytes())
        h.update(np.array(out.transfers).tobytes())
        for rec in out.trade_log:
            h.update(repr((rec.proposer, rec.counterparty, rec.item_acquired,
                           rec.item_given, rec.price)).encode())
        assert len(out.trade_log) == 906
        assert h.hexdigest() == "7fa2037c1ef9ef9b67e3922ae99030c5a83e6230d341a4b1aa78f22016e1f9bc"

    def test_single_agent(self):
        inst = MarketInstance.from_matrix([[5.0]])
        out = interim_transfers(inst, (0,))
        assert out.allocation.assignment == (0,)
        assert out.trade_log == ()

    def test_zero_sum_on_random_markets(self):
        rng = np.random.default_rng(660)
        for model in ("myopic", "lookback-strategic"):
            for _ in range(20):
                n = int(rng.integers(2, 8))
                inst = MarketInstance.from_matrix(rng.integers(0, 80, (n, n)).astype(float))
                order = tuple(int(j) for j in rng.permutation(n))
                out = interim_transfers(inst, order, model)
                assert validate_outcome(inst, out, atol=0) == []

    @pytest.mark.parametrize("floor", [True, False])
    @pytest.mark.parametrize("split", [0.0, 0.3, 1.0])
    def test_matches_scalar_reference(self, split, floor):
        rng = np.random.default_rng(int(split * 10) + 100 * floor)
        policy = TradePolicy(surplus_split=split, seller_reservation_floor=floor)
        trades = 0
        for trial in range(40):
            n_agents, n_items = (int(x) for x in rng.integers(1, 9, size=2))
            if trial % 2:
                values = rng.integers(-5, 20, (n_agents, n_items)).astype(float)
            else:
                values = rng.normal(50.0, 20.0, (n_agents, n_items))
            inst = MarketInstance.from_matrix(values)
            order = tuple(int(j) for j in rng.permutation(n_agents))
            for model in ("myopic", "lookback-strategic"):
                out = interim_transfers(inst, order, model, policy)
                assert out == interim_reference(inst, order, model, policy)
                trades += len(out.trade_log)
        # At split 1 the seller takes the whole gain, so no buyer ever gains.
        assert trades > 20 if split < 1 else trades == 0

    def test_unknown_model_rejected(self):
        inst = MarketInstance.from_matrix([[1.0]])
        with pytest.raises(ValueError):
            interim_transfers(inst, (0,), "clairvoyant")


def resale_payoff(split: float) -> float:
    """Example 4.2's manipulator: grab room 1, sell it back for room 0."""
    value = get_scenario("example-4.2").instance.value
    viable, price = bilateral_price(
        value(0, 1) - value(0, 0), value(1, 1) - value(1, 0), TradePolicy(split)
    )
    assert viable
    return value(0, 0) + float(price)


class TestStrategicScenario:
    def test_branch_payoffs_at_midpoint(self):
        sc = get_scenario("example-4.2")
        value = sc.instance.value
        assert serial_dictatorship(sc.instance, sc.default_order).allocation.assignment[0] == 0
        assert value(0, 0) == 20.0 > value(0, 2) == 10.0
        # The resale transfer is what the manipulator gains over the honest pick.
        assert resale_payoff(0.5) == 115.0
        assert resale_payoff(0.5) - value(0, 0) == 95.0

    def test_payoffs_come_from_the_scenario(self):
        value = get_scenario("example-4.2").instance.value
        assert resale_payoff(1.0) == value(0, 0) + value(1, 1) - value(1, 0)

    def test_buyer_optimal_split_still_weakly_dominant(self):
        assert resale_payoff(0.0) == 20.0

    def test_manipulation_grows_with_split(self):
        gains = [resale_payoff(k / 10) - 20.0 for k in range(11)]
        assert gains == sorted(gains)
        assert gains[-1] == 190.0


class TestAftermarketEngine:
    @pytest.mark.parametrize("mode", ["fixed-point", "single-pass"])
    def test_unfloored_seller_pays_to_swap_down(self, mode):
        # Agent 0 is indifferent between the rooms; agent 1 values its own
        # room at -2 and agent 0's at 21, so with no floor agent 0 is paid 23
        # to swap.  Agent 0 proposes first and takes that trade in both modes.
        inst = MarketInstance.from_matrix([[-4, -4], [21, -2]])
        policy = TradePolicy(0.0, seller_reservation_floor=False, pairwise_mode=mode)
        out = expost_pairwise_transfers(inst, (0, 1), policy)
        assert out.allocation.assignment == (1, 0)
        assert out.transfers == (23.0, -23.0)
        assert out.trade_log == (TradeRecord(0, 0, 1, 1, 0, -23.0, 0.0),)

    def test_single_pass_buyer_exit(self):
        rng = np.random.default_rng(12)
        inst = MarketInstance.from_matrix(rng.normal(100, 30, (30, 30)))
        order = tuple(int(j) for j in rng.permutation(30))
        endow = serial_dictatorship(inst, order).allocation
        policy = TradePolicy(surplus_split=0.0, pairwise_mode="single-pass")
        _, _, log = pairwise_aftermarket(inst, endow, order, policy)
        bought_at: dict[int, int] = {}
        for rec in log:
            assert rec.proposer not in bought_at, "agent bought twice"
            assert rec.counterparty not in bought_at, "buyer later resurfaced as seller"
            bought_at[rec.proposer] = rec.step

    @pytest.mark.parametrize("mode", ["fixed-point", "single-pass"])
    def test_matches_the_rebuilt_mask_reference(self, mode):
        # Dense integer and normal markets (square and rectangular, with
        # random partial endowments) and hashed normal markets, under every
        # floor/budget setting, three splits and four costs.
        rng = np.random.default_rng(47 if mode == "single-pass" else 48)
        costs = [NO_COST, TransactionCost("fixed", 2.0), TransactionCost("proportional", 0.2),
                 TransactionCost("proportional", 1.5)]
        trades = 0
        for trial in range(24):
            m, n = (int(x) for x in rng.integers(1, 10, size=2))
            if trial % 3 == 0:
                values = rng.integers(-3, 12, (m, n)).astype(float)
            elif trial % 3 == 1:
                values = rng.normal(20.0, 8.0, (m, n))
            if trial % 3 < 2:
                inst = MarketInstance.from_matrix(values, rng.uniform(0.0, 10.0, m))
                items = rng.permutation(n)[: min(m, n)]
                slots = rng.permutation(m)[: items.size]
                assignment = np.full(m, -1)
                assignment[slots] = items
                endow = Allocation.from_array(assignment)
            else:
                m = n = int(rng.integers(5, 40))
                backend = HashedNormalValuations(
                    key=int(rng.integers(0, 2**63)),
                    means=rng.uniform(100.0, 1_000.0, n),
                    stds=rng.uniform(20.0, 40.0, n),
                    n_agents=n,
                )
                inst = MarketInstance(backend, rng.uniform(0.0, 300.0, n))
                endow = Allocation.from_array(rng.permutation(n))
            order = tuple(int(j) for j in rng.permutation(m))
            for split, floor, budget, cost in itertools.product(
                (0.0, 0.5, 1.0), (True, False), (True, False), costs
            ):
                policy = TradePolicy(split, floor, mode, budget)
                out = pairwise_aftermarket(inst, endow, order, policy, cost)
                assert out == aftermarket_reference(inst, endow, order, policy, cost)
                trades += len(out[2])
        assert trades > 500
