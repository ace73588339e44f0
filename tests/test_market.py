"""Core types: instances, allocations, outcomes, welfare accounting."""

import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rsd_market.market import (
    Allocation,
    HashedNormalValuations,
    MarketInstance,
    Outcome,
    TradeRecord,
    derive_seed,
    hashed_uniforms,
    load_instance,
    pareto_dominates,
    replay_trade_log,
    save_instance,
    total_welfare,
    utilities,
    utility,
    validate_outcome,
    zero_outcome,
)


@pytest.fixture
def paired_market() -> MarketInstance:
    # Two agents, two items: one agent cares a lot about the first item.
    return MarketInstance.from_matrix([[2, 1], [10, 1]], [5, 5])


class TestInstance:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            MarketInstance.from_matrix([[1.0, np.inf]], [0.0])
        with pytest.raises(ValueError):
            MarketInstance.from_matrix([[1.0, 2.0]], [0.0, 0.0])

    def test_null_item_is_worth_zero(self, paired_market):
        for agent in range(2):
            assert paired_market.value(agent, None) == 0.0

    def test_out_of_range_queries(self, paired_market):
        with pytest.raises(ValueError):
            paired_market.value(2, 0)
        with pytest.raises(ValueError):
            paired_market.value(0, 5)

    def test_json_roundtrip(self, paired_market, tmp_path):
        path = tmp_path / "inst.json"
        save_instance(paired_market, path)
        loaded = load_instance(path)
        assert np.array_equal(loaded.dense_matrix(), paired_market.dense_matrix())
        assert np.array_equal(loaded.budgets, paired_market.budgets)
        payload = json.loads(path.read_text())
        assert payload["n_agents"] == 2 and payload["n_items"] == 2


class TestHashedValuations:
    def test_bit_identical_across_access_patterns(self):
        field = HashedNormalValuations(
            key=1234,
            means=np.array([100.0, 5000.0, 900.0]),
            stds=np.array([25.0, 30.0, 28.0]),
            agent_count=4,
        )
        row = field.row(2)
        points = field.values(np.array([2, 2, 2]), np.array([0, 1, 2]))
        assert np.array_equal(row, points)
        assert np.array_equal(row, field.row(2))

    def test_distinct_cells_differ(self):
        field = HashedNormalValuations(
            key=7, means=np.full(50, 100.0), stds=np.full(50, 25.0), agent_count=50
        )
        assert len(set(field.row(0).tolist())) == 50

    def test_uniforms_are_open_unit_interval(self):
        u = hashed_uniforms(99, np.arange(10_000, dtype=np.uint64))
        assert u.min() > 0.0 and u.max() < 1.0


_M64 = (1 << 64) - 1
_GOLDEN, _MIX_1, _MIX_2 = 0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB
_PIN_KEYS = (0, 12345, 2**64 - 1, 0x5DEECE66D)


def _unxorshift(y: int, shift: int) -> int:
    x = y
    for _ in range(64 // shift + 1):
        x = y ^ (x >> shift)
    return x


def hash_index_for(key: int, z: int) -> int:
    """The index whose splitmix64 output under ``key`` is ``z``: the finalizer
    run backwards (xorshifts undone, constants multiplied by their inverses)."""
    x = _unxorshift(z, 31)
    x = x * pow(_MIX_2, -1, 1 << 64) & _M64
    x = _unxorshift(x, 27)
    x = x * pow(_MIX_1, -1, 1 << 64) & _M64
    x = _unxorshift(x, 30)
    return ((x - key) * pow(_GOLDEN, -1, 1 << 64) - 1) & _M64


def _pin_backend(key: int, n: int) -> HashedNormalValuations:
    rng = np.random.default_rng(n)
    return HashedNormalValuations(
        key=key,
        means=rng.uniform(100, 10_000, n),
        stds=np.sqrt(rng.uniform(500, 1_000, n)),
        agent_count=max(n, 2**32 // n + 3),
    )


def _sha256(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


class TestHashedKernelPins:
    """Digests of the hashed draws: every row, point read, uniform and derived
    seed below must keep its bits, whatever the kernel's order of operations.

    Agents around ``2**32 // n`` put ``j * n`` on both sides of ``2**32``.
    """

    PINS = {
        1: ("7c5131dcb086e877452c741f30a92f714de124f1787f1512350f8d34bd3b16d6",
            "b9f26114d6266b1f63168927be6efcd3d02e870088fe7e93dfaeaf3dd50fc3a2"),
        7: ("c4db9e4176bbc1185d1291d89401f8c5dc1b1d28af74a37970d0373b89263f03",
            "8166eae3687d1908247fdb6dfa1cfe9ee249c1fd5bfc7089961f76208ac44974"),
        1000: ("c50bbe6e70f6909503d127c1e7b09a7f976b439947f41d4c53b380b80a0339ea",
               "46be3c2a0a7fc0fae35cf03d2ae127b42ee33a1f70842d0ad32ef768caa8a116"),
        4096: ("ad0f8b310260dae32a746912f34d459e73bce01bf07978ff7646d34fdef4a8dd",
               "009f93af2fcefff6fd41adbc3a592477fd5e2c9e22485718a51cc6abcbae2da4"),
    }

    @pytest.mark.parametrize("n", sorted(PINS))
    def test_rows_and_values(self, n):
        rows, vals = [], []
        for key in _PIN_KEYS:
            field = _pin_backend(key, n)
            big = 2**32 // n
            for j in (0, 1, n // 2, big - 1, big, big + 1, field.n_agents - 1):
                rows.append(field.row(j))
            rng = np.random.default_rng(key % 1000 + n)
            agents = rng.integers(0, field.n_agents, 300)
            items = rng.integers(0, n, 300)
            vals.append(field.values(agents, items))
        assert (_sha256(rows), _sha256(vals)) == self.PINS[n]

    def test_uniforms_and_seeds(self):
        draws = []
        for key in _PIN_KEYS + (-7, 2**70 + 3):
            big = np.random.default_rng(abs(key) % 97).integers(0, 2**63, 1000, dtype=np.uint64)
            indices = np.concatenate([np.arange(50, dtype=np.uint64), big])
            draws.append(hashed_uniforms(key, indices))
        assert _sha256(draws) == "be207dc1e0eef995faf2b9c0334ffd8ceba3c5d6812726d09f29d30165565397"
        seeds = [derive_seed(s, r) for s, r in ((0, 0), (7, 3), (2**40, 11), (12345, 999))]
        assert seeds == [
            8147104208329304064, 5376582964150736896, 7785069281213990912, 5573186182202589184
        ]

    @pytest.mark.parametrize("n", [1, 7, 1000])
    def test_row_cells_equal_point_reads(self, n):
        field = _pin_backend(99, n)
        rng = np.random.default_rng(n)
        for j in (0, 2**32 // n, int(rng.integers(0, field.n_agents))):
            row = field.row(j)
            for i in rng.integers(0, n, 20):
                assert row[i].tobytes() == field.values([j], [i]).tobytes()

    def test_scalar_arguments_broadcast(self):
        field = _pin_backend(2**64 - 3, 7)
        agents = np.array([2**32 // 7 + 1, 5, 0])
        assert field.values(agents, 3).tobytes() == field.values(agents, np.full(3, 3)).tobytes()
        assert field.values(agents[0], 3) == field.values(agents[:1], [3])[0]
        pair = np.full(2, agents[0])
        assert field.values(agents[0], [3, 4]).tobytes() == field.values(pair, [3, 4]).tobytes()
        assert hashed_uniforms(2**64 - 1, 2**63 + 9) == hashed_uniforms(2**64 - 1, [2**63 + 9])[0]

    def test_top_draw_is_capped_below_one(self):
        key = 12345
        index = hash_index_for(key, _M64)  # all 53 kept bits set
        assert index == 16289131937665224234
        u = hashed_uniforms(key, np.array([index], dtype=np.uint64))
        assert u[0] == np.nextafter(1.0, 0.0)
        n = 7
        agent, item = divmod(index, n)
        field = HashedNormalValuations(
            key=key, means=np.zeros(n), stds=np.ones(n), agent_count=agent + 1
        )
        value = field.values([agent], [item])[0]
        assert np.isfinite(value) and value == field.row(agent)[item]
        # The neighbouring cells are ordinary draws.
        assert np.all(np.isfinite(field.row(agent)))


class TestAllocation:
    def test_booleans_are_not_item_ids(self):
        for assignment in ((True, 0), (0, False), (np.True_, None)):
            with pytest.raises(ValueError):
                Allocation(assignment)
        with pytest.raises(ValueError):
            Allocation.from_array(np.array([True, False]))
        assert Allocation((np.int64(1), 0, None)).items() == {0, 1}

    def test_injectivity_enforced(self):
        with pytest.raises(ValueError):
            Allocation((0, 0))
        Allocation((0, None, 1))  # nulls may repeat

    def test_array_roundtrip(self):
        alloc = Allocation((2, None, 0))
        assert Allocation.from_array(alloc.to_array()) == alloc

    def test_owner_map(self):
        alloc = Allocation((2, None, 0))
        assert alloc.owner_of() == {2: 0, 0: 2}


class TestUtility:
    def test_quasilinear_sum(self, paired_market):
        out = Outcome(Allocation((0, 1)), (0.0, 0.0))
        assert utility(paired_market, out, 0) == 7.0
        assert utility(paired_market, out, 1) == 6.0

    def test_swap_with_payment(self, paired_market):
        out = Outcome(Allocation((1, 0)), (2.0, -2.0))
        assert utilities(paired_market, out).tolist() == [8.0, 13.0]

    def test_null_assignment_contributes_nothing(self):
        inst = MarketInstance.from_matrix([[4.0]], [0.0])
        out = Outcome(Allocation((None,)), (0.0,))
        assert utility(inst, out, 0) == 0.0

    def test_agent_out_of_range(self, paired_market):
        out = zero_outcome(Allocation((0, 1)))
        with pytest.raises(ValueError):
            utility(paired_market, out, 7)

    @given(delta=st.floats(-1e6, 1e6), agent=st.integers(0, 1))
    @settings(max_examples=50, deadline=None)
    def test_additive_in_transfers(self, delta, agent):
        inst = MarketInstance.from_matrix([[2, 1], [10, 1]], [5, 5])
        base = Outcome(Allocation((0, 1)), (0.0, 0.0))
        transfers = [0.0, 0.0]
        transfers[agent] += delta
        shifted = Outcome(Allocation((0, 1)), tuple(transfers))
        assert utility(inst, shifted, agent) == pytest.approx(
            utility(inst, base, agent) + delta
        )


class TestTotalWelfare:
    def test_three_agent_table(self):
        inst = MarketInstance.from_matrix([[5, 0, 10], [0, 4, 0], [-10, 0, 5]])
        assert total_welfare(inst, Allocation((2, 0, 1))) == 10.0
        assert total_welfare(inst, Allocation((0, 1, 2))) == 14.0

    def test_empty_allocation(self):
        inst = MarketInstance.from_matrix([[5, 0], [1, 2]])
        assert total_welfare(inst, Allocation((None, None))) == 0.0

    def test_invariant_to_transfers(self, paired_market):
        a = Outcome(Allocation((1, 0)), (2.0, -2.0))
        b = Outcome(Allocation((1, 0)), (-4.0, 4.0))
        assert total_welfare(paired_market, a.allocation) == total_welfare(
            paired_market, b.allocation
        )


class TestValidateOutcome:
    def test_zero_sum_accepted(self, paired_market):
        out = Outcome(Allocation((1, 0)), (2.0, -2.0))
        assert validate_outcome(paired_market, out, atol=0) == []

    def test_nonzero_sum_reported(self, paired_market):
        out = Outcome(Allocation((0, 1)), (1.0, 0.0))
        problems = validate_outcome(paired_market, out, atol=0)
        assert any("transfer sum" in p for p in problems)

    def test_duplicate_item_reported(self, paired_market):
        with pytest.raises(ValueError):
            Outcome(Allocation((0, 0)), (0.0, 0.0))

    def test_out_of_range_item_reported(self, paired_market):
        out = Outcome(Allocation((0, 9)), (0.0, 0.0))
        assert any("out of range" in p for p in validate_outcome(paired_market, out))

    def test_log_replay_consistency(self, paired_market):
        log = (TradeRecord(0, proposer=1, counterparty=0, item_acquired=0, item_given=1,
                           price=5.0),)
        out = Outcome(Allocation((1, 0)), (5.0, -5.0), log)
        assert validate_outcome(paired_market, out, atol=0) == []
        pre, pre_t = replay_trade_log(out)
        assert pre.assignment == (0, 1)
        assert pre_t.tolist() == [0.0, 0.0]

    def test_corrupt_log_reported(self, paired_market):
        log = (TradeRecord(0, proposer=1, counterparty=0, item_acquired=1, item_given=0,
                           price=5.0),)
        out = Outcome(Allocation((1, 0)), (5.0, -5.0), log)
        assert validate_outcome(paired_market, out, atol=0)


class TestParetoDominates:
    def test_paired_swap_dominates(self, paired_market):
        plain = Outcome(Allocation((0, 1)), (0.0, 0.0))
        swapped = Outcome(Allocation((1, 0)), (2.0, -2.0))
        assert pareto_dominates(paired_market, swapped, plain)
        assert not pareto_dominates(paired_market, plain, swapped)

    def test_irreflexive(self, paired_market):
        out = Outcome(Allocation((0, 1)), (0.0, 0.0))
        assert not pareto_dominates(paired_market, out, out)

    def test_trade_off_is_not_dominance(self, paired_market):
        # (8, 5) against (7, 6): the second agent is worse off.
        a = Outcome(Allocation((0, 1)), (1.0, -1.0))
        b = Outcome(Allocation((0, 1)), (0.0, 0.0))
        assert not pareto_dominates(paired_market, a, b)
        assert not pareto_dominates(paired_market, b, a)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_asymmetric_on_random_outcomes(self, seed):
        rng = np.random.default_rng(seed)
        inst = MarketInstance.from_matrix(rng.integers(0, 9, (3, 3)).astype(float))
        perm_a, perm_b = rng.permutation(3), rng.permutation(3)
        t = rng.integers(-3, 4, 3).astype(float)
        t[-1] = -t[:-1].sum()
        a = Outcome(Allocation(tuple(int(i) for i in perm_a)), tuple(t))
        b = zero_outcome(Allocation(tuple(int(i) for i in perm_b)))
        assert not (pareto_dominates(inst, a, b) and pareto_dominates(inst, b, a))
