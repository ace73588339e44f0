"""Two-player bargaining: acceptance integral, optimal offers, first mover."""

import hashlib

import numpy as np
import pytest

from rsd_market import two_agent
from rsd_market.errors import PreconditionError
from rsd_market.two_agent import (
    PointMass,
    TruncatedNormal,
    Uniform,
    acceptance_curve,
    acceptance_probability,
    first_mover_expected_utility,
    offer_distribution,
    optimal_offer,
    parse_distribution,
    seller_expected_payoff,
    simulate_first_mover_game,
    stieltjes_cdf_integral,
)

UNIT = Uniform(0.0, 1.0)


class TestDistributions:
    def test_uniform_cdf_bounds(self):
        assert UNIT.cdf(0.0) == 0.0 and UNIT.cdf(1.0) == 1.0
        xs = np.linspace(-0.5, 1.5, 50)
        cdf = UNIT.cdf(xs)
        assert np.all(np.diff(cdf) >= 0) and cdf.min() == 0.0 and cdf.max() == 1.0

    def test_truncnorm_cdf_bounds(self):
        tn = TruncatedNormal(0.0, 1.0, mu=0.3, sigma=0.2)
        assert tn.cdf(0.0) == 0.0 and tn.cdf(1.0) == 1.0
        xs = np.linspace(0, 1, 101)
        assert np.all(np.diff(tn.cdf(xs)) >= 0)

    def test_quantile_inverts_cdf(self):
        tn = TruncatedNormal(0.0, 1.0, mu=0.6, sigma=0.4)
        us = np.linspace(0.01, 0.99, 25)
        assert np.allclose(tn.cdf(tn.quantile(us)), us, atol=1e-12)

    def test_sampling_is_seeded(self):
        tn = TruncatedNormal(0.0, 1.0, mu=0.5, sigma=0.3)
        a = tn.sample(np.random.default_rng(4), 100)
        b = tn.sample(np.random.default_rng(4), 100)
        assert np.array_equal(a, b)
        assert a.min() >= 0.0 and a.max() <= 1.0

    @pytest.mark.parametrize(
        "cls, params",
        [
            (Uniform, (0.0, float("inf"))),
            (Uniform, (float("nan"), 1.0)),
            (TruncatedNormal, (0.0, 1.0, 0.5, float("nan"))),
            (TruncatedNormal, (0.0, 1.0, float("nan"), 0.2)),
            (TruncatedNormal, (0.0, 1.0, 0.5, float("inf"))),
            (TruncatedNormal, (float("-inf"), 1.0, 0.5, 0.2)),
            (PointMass, (float("nan"),)),
            (PointMass, (float("inf"),)),
        ],
    )
    def test_nonfinite_parameters_rejected(self, cls, params):
        with pytest.raises(ValueError, match="finite"):
            cls(*params)

    def test_parse_specs(self):
        assert parse_distribution("uniform:0,1") == UNIT
        assert parse_distribution("truncnorm:0,1,0.5,0.2") == TruncatedNormal(0, 1, 0.5, 0.2)
        assert parse_distribution("point:3") == PointMass(3.0)
        with pytest.raises(ValueError):
            parse_distribution("pareto:1")


class TestAcceptanceProbability:
    def test_uniform_closed_form(self):
        for t in np.linspace(0, 1, 21):
            expected = 1 - (1 - t) ** 2 / 2
            assert acceptance_probability(UNIT, UNIT, float(t)) == pytest.approx(
                expected, abs=1e-6
            )

    def test_symmetry_at_zero(self):
        tn = TruncatedNormal(0.0, 1.0, mu=0.4, sigma=0.25)
        assert acceptance_probability(tn, tn, 0.0) == pytest.approx(0.5, abs=1e-6)

    def test_saturates_outside_width_band(self):
        assert acceptance_probability(UNIT, UNIT, 1.0) == 1.0
        assert acceptance_probability(UNIT, UNIT, 2.5) == 1.0
        assert acceptance_probability(UNIT, UNIT, -1.0) == 0.0

    def test_nondecreasing_in_offer(self):
        tn = TruncatedNormal(0.0, 1.0, mu=0.7, sigma=0.5)
        ts = np.linspace(-1.2, 1.2, 121)
        probs = [acceptance_probability(UNIT, tn, float(t)) for t in ts]
        assert all(b >= a - 1e-12 for a, b in zip(probs, probs[1:]))

    def test_rejects_nonfinite_offer(self):
        with pytest.raises(ValueError):
            acceptance_probability(UNIT, UNIT, float("nan"))

    def test_mismatched_supports_rejected(self):
        with pytest.raises(ValueError):
            acceptance_probability(UNIT, Uniform(0, 2), 0.0)

    def test_matches_monte_carlo(self):
        rng = np.random.default_rng(2025)
        n = 100_000
        tn = TruncatedNormal(0.0, 1.0, mu=0.35, sigma=0.3)
        for t in (-0.3, 0.0, 0.2, 0.6):
            va = UNIT.sample(rng, n)
            vb = tn.sample(rng, n)
            hat = float(np.mean(vb + t >= va))
            se = float(np.std((vb + t >= va).astype(float)) / np.sqrt(n))
            assert abs(acceptance_probability(UNIT, tn, t) - hat) <= 3 * se + 1e-4

    def test_vectorized_curve_matches_scalar(self):
        tn = TruncatedNormal(0.0, 1.0, mu=0.5, sigma=0.35)
        ts = np.linspace(-1, 1, 37)
        curve = acceptance_curve(UNIT, tn, ts)
        scalar = [acceptance_probability(UNIT, tn, float(t)) for t in ts]
        assert np.allclose(curve, scalar, atol=1e-6)


class TestSellerExpectedPayoff:
    def test_equal_values_pin_the_payoff(self):
        assert seller_expected_payoff(0.3, 0.3, UNIT, UNIT, 0.0) == pytest.approx(0.3)

    def test_certain_acceptance(self):
        assert seller_expected_payoff(0.9, 0.1, UNIT, UNIT, 1.0) == pytest.approx(-0.1)

    def test_even_odds_at_zero(self):
        assert seller_expected_payoff(0.9, 0.1, UNIT, UNIT, 0.0) == pytest.approx(0.5)

    def test_continuity_modulus(self):
        # Sampled increments stay within the coarse Lipschitz-style envelope.
        v2a, v2b = 0.9, 0.1
        h = 1e-4
        ts = np.linspace(0.0, 1.0, 200)
        omega = max(
            float(np.max(np.abs(UNIT.cdf(ts + h) - UNIT.cdf(ts)))), h
        )
        for t in np.linspace(0.0, 0.99, 34):
            jump = abs(
                seller_expected_payoff(v2a, v2b, UNIT, UNIT, float(t + h))
                - seller_expected_payoff(v2a, v2b, UNIT, UNIT, float(t))
            )
            bound = (abs(v2a) + abs(v2b) + abs(t) + 1) * omega + h
            assert jump <= bound


class TestOptimalOffer:
    def test_matches_dense_grid_oracle(self):
        # Exhaustive maximization of the closed-form objective.
        tg = np.linspace(0.0, 1.0, 1_000_001)
        accept = 1 - (1 - tg) ** 2 / 2
        payoff = (0.9 - tg) * accept + 0.1 * (1 - accept)
        oracle_t = float(tg[np.argmax(payoff)])
        offer = optimal_offer(0.9, 0.1, UNIT, UNIT)
        assert abs(offer.t_star - oracle_t) <= 1e-4
        assert offer.expected_payoff == pytest.approx(float(payoff.max()), abs=1e-6)

    def test_boundary_gain_offers_zero(self):
        offer = optimal_offer(0.4, 0.4, UNIT, UNIT, allow_equal_values=True)
        assert abs(offer.t_star) <= 1e-4

    def test_no_trade_motive_rejected(self):
        with pytest.raises(PreconditionError):
            optimal_offer(0.1, 0.9, UNIT, UNIT)
        with pytest.raises(PreconditionError):
            optimal_offer(0.5, 0.5, UNIT, UNIT)

    def test_weakly_increasing_in_gain(self):
        t_small = optimal_offer(0.5, 0.1, UNIT, UNIT).t_star
        t_large = optimal_offer(0.9, 0.1, UNIT, UNIT).t_star
        assert t_large >= t_small - 1e-5

    def test_bounded_by_support_width(self):
        tn = TruncatedNormal(0.0, 2.0, mu=1.4, sigma=0.6)
        offer = optimal_offer(1.9, 0.2, tn, tn)
        assert 0.0 <= offer.t_star <= 2.0


class TestOfferDistribution:
    def test_point_masses_never_offer(self):
        dist = offer_distribution(
            PointMass(0.2), PointMass(0.8), UNIT, UNIT, "B", 500, seed=3
        )
        assert dist.no_offer_probability == 1.0
        assert dist.degenerate and dist.offers.size == 0

    def test_uniform_no_offer_probability(self):
        dist = offer_distribution(UNIT, UNIT, UNIT, UNIT, "B", 50_000, seed=11)
        assert dist.no_offer_probability == pytest.approx(0.5, abs=1e-9)
        # Empirical motive frequency agrees within Monte-Carlo noise.
        share = 1 - dist.offers.size / dist.n_draws
        assert abs(share - 0.5) <= 3 * 0.5 / np.sqrt(dist.n_draws) + 0.01

    def test_same_seed_same_distribution(self):
        a = offer_distribution(UNIT, UNIT, UNIT, UNIT, "B", 5000, seed=21)
        b = offer_distribution(UNIT, UNIT, UNIT, UNIT, "B", 5000, seed=21)
        assert np.array_equal(a.offers, b.offers)

    def test_cdf_is_a_cdf(self):
        dist = offer_distribution(UNIT, UNIT, UNIT, UNIT, "A", 20_000, seed=8)
        ss = np.linspace(-0.2, 1.2, 57)
        vals = [dist.cdf(float(s)) for s in ss]
        assert all(0 <= v <= 1 for v in vals)
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_offers_respect_the_floor(self):
        dist = offer_distribution(UNIT, UNIT, UNIT, UNIT, "B", 20_000, seed=5)
        assert dist.offers.min() >= 0.0


class TestFirstMover:
    def test_silent_opponent_means_keep_value(self):
        # Picking A leaves an opponent who prefers what they got: no offers,
        # so the expected utility is exactly the kept value.  (Picking B is
        # better still: the eager opponent buys the item back at a premium.)
        result = first_mover_expected_utility(
            0.7, 0.4, PointMass(0.1), PointMass(0.9), UNIT, UNIT, 1000, seed=17
        )
        assert result.eu_choose_a == 0.7
        assert result.eu_choose_b > 0.7
        assert result.best_choice == "B"

    def test_symmetric_values_tie(self):
        result = first_mover_expected_utility(
            0.5, 0.5, UNIT, UNIT, UNIT, UNIT, 60_000, seed=23
        )
        tol = 3 * float(np.hypot(result.se_choose_a, result.se_choose_b)) + 1e-3
        assert abs(result.eu_choose_a - result.eu_choose_b) <= tol

    def test_decomposition_matches_game_rollout(self):
        result = first_mover_expected_utility(
            0.9, 0.2, UNIT, UNIT, UNIT, UNIT, 100_000, seed=31
        )
        for choice, eu, se in (
            ("A", result.eu_choose_a, result.se_choose_a),
            ("B", result.eu_choose_b, result.se_choose_b),
        ):
            sim, sim_se = simulate_first_mover_game(
                0.9, 0.2, UNIT, UNIT, UNIT, UNIT, choice, 100_000, seed=131
            )
            assert abs(eu - sim) <= max(3 * float(np.hypot(se, sim_se)), 1e-6)


class TestNonFiniteValues:
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_nonfinite_values_rejected(self, bad):
        calls = (
            lambda: optimal_offer(bad, 0.1, UNIT, UNIT),
            lambda: optimal_offer(0.9, bad, UNIT, UNIT),
            lambda: first_mover_expected_utility(bad, 0.4, UNIT, UNIT, UNIT, UNIT, 100, seed=1),
            lambda: first_mover_expected_utility(0.7, bad, UNIT, UNIT, UNIT, UNIT, 100, seed=1),
            lambda: simulate_first_mover_game(bad, 0.4, UNIT, UNIT, UNIT, UNIT, "A", 100, seed=1),
            lambda: simulate_first_mover_game(0.7, bad, UNIT, UNIT, UNIT, UNIT, "B", 100, seed=1),
        )
        for call in calls:
            with pytest.raises(ValueError, match="finite"):
                call()


class TestStieltjes:
    def test_point_mass_outer_collapses_to_lookup(self):
        assert stieltjes_cdf_integral(PointMass(0.8), UNIT, 0.0) == pytest.approx(0.8)

    def test_uniform_pair_at_zero_shift(self):
        assert stieltjes_cdf_integral(UNIT, UNIT, 0.0) == pytest.approx(0.5, abs=1e-9)


def _digest(*values):
    h = hashlib.sha256()
    for v in values:
        h.update(np.asarray(v, dtype=float).tobytes())
    return h.hexdigest()


def _acceptance_curve_reference(f1a, f1b, ts):
    """The whole-chunk evaluation ``acceptance_curve`` must equal byte for byte."""
    nodes, weights = two_agent._composite_gl_nodes(1024, 4)
    x = np.asarray(f1a.quantile(nodes), dtype=float)
    out = np.empty(ts.size)
    chunk = max(1, 4_000_000 // x.size)
    for start in range(0, ts.size, chunk):
        block = ts[start : start + chunk]
        inner = np.asarray(f1b.cdf(x[None, :] - block[:, None]), dtype=float)
        out[start : start + chunk] = inner @ weights
    return np.clip(1.0 - out, 0.0, 1.0)


FAMILIES = {
    "uniform": Uniform(0.0, 1.0),
    "truncnorm": TruncatedNormal(0.0, 1.0, 0.6, 0.2),
    "wide-truncnorm": TruncatedNormal(0.0, 2.0, 1.4, 0.6),
}


class TestSharedCurves:
    """Curves and offer envelopes are computed once per distribution pair and
    shared; the outputs are pinned to the bytes of the per-call rebuild."""

    @pytest.mark.parametrize(
        "family, digest",
        [
            ("uniform", "f0f70a38cb41c04d62c10239957e247fac975e811e8817d6a4c9e35f8392396e"),
            ("truncnorm", "b5a0fdd97619f4b2818bc50fdd2ba94425e6f28e0c32983c09818c343f0d9c12"),
            ("wide-truncnorm", "2871c90c08e501b129a421e201331fd7ab1b09b9921e142a01c44f599e31933f"),
        ],
    )
    def test_optimal_offer_digest_is_pinned(self, family, digest):
        d = FAMILIES[family]
        rows = []
        for v2a, v2b in ((0.9, 0.1), (0.6, 0.3), (1.0, 0.05), (0.75, 0.7)):
            offer = optimal_offer(v2a, v2b, d, d)
            rows.append((offer.t_star, offer.expected_payoff, offer.acceptance))
        assert _digest(rows) == digest

    @pytest.mark.parametrize(
        "family, digest",
        [
            ("uniform", "4417bf95083f58174ab9df41453603987979b94fc838b84f484bdb8b67d01d7e"),
            ("truncnorm", "975ec4f74a27ef75b35c75d1859144a3ef6ed4cb3cde5ba17daa9bd0241ebb92"),
        ],
    )
    def test_offer_distribution_digest_is_pinned(self, family, digest):
        d = FAMILIES[family]
        parts = []
        for item, seed in (("A", 3), ("B", 4)):
            dist = offer_distribution(d, d, d, d, item, 20_000, seed)
            parts += [dist.offers, [dist.no_offer_probability, dist.offers.size]]
        assert _digest(*parts) == digest

    @pytest.mark.parametrize(
        "family, digest",
        [
            ("uniform", "e282df6f141a70f7fdf621656be092671d545a75ac5f6391b1f1a66f10a6c236"),
            ("truncnorm", "7e23abeec793232382e50df2869f8710ab4ffcdff35bad5bc66fef1424f2f71b"),
        ],
    )
    def test_first_mover_and_rollout_digest_is_pinned(self, family, digest):
        d = FAMILIES[family]
        rows = []
        for v1a, v1b, seed in ((0.9, 0.2, 31), (0.3, 0.7, 32)):
            r = first_mover_expected_utility(v1a, v1b, d, d, d, d, 30_000, seed)
            rows.append((r.eu_choose_a, r.eu_choose_b, r.se_choose_a, r.se_choose_b))
            rows.append(
                [simulate_first_mover_game(v1a, v1b, d, d, d, d, c, 30_000, seed + 100) for c in "AB"]
            )
        assert _digest(*rows) == digest

    @pytest.mark.parametrize("n", [1, 15, 976, 977, 1953])
    def test_curve_matches_whole_chunk_evaluation(self, n):
        # Offer counts around the 976-offer chunk, on both families and a mixed pair.
        uniform, truncnorm = FAMILIES["uniform"], FAMILIES["truncnorm"]
        ts = np.linspace(-0.3, 1.1, n)
        for f1a, f1b in ((uniform, uniform), (truncnorm, truncnorm), (truncnorm, uniform)):
            got = acceptance_curve(f1a, f1b, ts)
            assert got.tobytes() == _acceptance_curve_reference(f1a, f1b, ts).tobytes()

    def test_cached_grids_match_whole_chunk_evaluation(self):
        for d in FAMILIES.values():
            for n in (two_agent._OFFER_GRID_POINTS, two_agent._ENVELOPE_GRID_POINTS):
                ts, accept = two_agent._offer_grid(d, d, n)
                assert ts.tobytes() == np.linspace(0.0, d.width, n).tobytes()
                assert accept.tobytes() == _acceptance_curve_reference(d, d, ts).tobytes()

    def test_cached_arrays_are_read_only(self):
        d = FAMILIES["truncnorm"]
        ts, accept = two_agent._offer_grid(d, d, two_agent._OFFER_GRID_POINTS)
        offers, cuts = two_agent._offer_envelope(d, d)
        for array in (ts, accept, offers, cuts):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 0.0
        # What callers get back is theirs to change.
        dist = offer_distribution(d, d, d, d, "B", 500, seed=1)
        dist.offers[0] = -1.0
        again = offer_distribution(d, d, d, d, "B", 500, seed=1)
        assert again.offers.min() >= 0.0

    def test_equal_pair_reuses_the_curve(self, monkeypatch):
        calls = []

        def counted(f1a, f1b, ts):
            calls.append(np.size(ts))
            return acceptance_curve(f1a, f1b, ts)

        monkeypatch.setattr(two_agent, "acceptance_curve", counted)
        two_agent._offer_grid.cache_clear()
        two_agent._offer_envelope.cache_clear()
        optimal_offer(0.9, 0.1, Uniform(0, 1), Uniform(0, 1))
        assert calls == [two_agent._OFFER_GRID_POINTS]
        # An equal pair written with floats shares the cache entry.
        optimal_offer(0.8, 0.3, Uniform(0.0, 1.0), Uniform(0.0, 1.0))
        first_mover_expected_utility(0.9, 0.2, UNIT, UNIT, UNIT, UNIT, 1000, seed=3)
        assert calls == [two_agent._OFFER_GRID_POINTS, two_agent._ENVELOPE_GRID_POINTS]
        # Both first-mover branches and the rollout hit the same envelope.
        first_mover_expected_utility(0.2, 0.9, UNIT, UNIT, UNIT, UNIT, 1000, seed=4)
        simulate_first_mover_game(0.9, 0.2, UNIT, UNIT, UNIT, UNIT, "B", 1000, seed=5)
        assert len(calls) == 2
        assert two_agent._offer_envelope.cache_info().misses == 1

    @pytest.mark.parametrize("family", ["uniform", "truncnorm", "wide-truncnorm"])
    def test_envelope_attains_the_grid_maximum(self, family):
        d = FAMILIES[family]
        ts, accept = two_agent._offer_grid(d, d, two_agent._ENVELOPE_GRID_POINTS)
        gains = np.random.default_rng(7).uniform(0.0, 1.2 * d.width, 300)
        offers = two_agent._grid_optimal_offers(gains, d, d)
        assert np.all(np.isin(offers, ts))
        chosen = (gains - offers) * accept[np.searchsorted(ts, offers)]
        best = ((gains[:, None] - ts[None, :]) * accept[None, :]).max(axis=1)
        assert np.all(chosen >= best - 1e-12 * np.maximum(1.0, gains))


def _offer_law_reference(f2a, f2b, f1a, f1b, received_item, n_draws, seed):
    """Per-draw envelope lookup, then a sort: the offers ``offer_distribution``
    must equal byte for byte."""
    rng = np.random.default_rng(seed)
    va = f2a.sample(rng, n_draws)
    vb = f2b.sample(rng, n_draws)
    if received_item == "B":
        gains, outer, inner = va - vb, f1a, f1b
    else:
        gains, outer, inner = vb - va, f1b, f1a
    gains = gains[gains > 0]
    if not gains.size:
        return np.array([])
    return np.sort(two_agent._grid_optimal_offers(gains, outer, inner))


# (f2a, f2b, f1a, f1b); the mixed pair gives each branch its own envelope.
OFFER_LAW_PAIRS = {
    "uniform": (FAMILIES["uniform"],) * 4,
    "truncnorm": (FAMILIES["truncnorm"],) * 4,
    "mixed": (FAMILIES["uniform"], FAMILIES["truncnorm"], FAMILIES["truncnorm"], FAMILIES["uniform"]),
}


class TestOfferLaw:
    """The sorted offers come from bucket counts over the envelope's cut
    points; they must equal the per-draw lookup followed by a sort."""

    def assert_matches_reference(self, dists, item, n_draws, seed):
        got = offer_distribution(*dists, item, n_draws, seed)
        ref = _offer_law_reference(*dists, item, n_draws, seed)
        assert got.offers.dtype == ref.dtype
        assert got.offers.tobytes() == ref.tobytes()
        assert got.degenerate == (ref.size == 0)
        return got

    @pytest.mark.parametrize("n_draws", [1, 2, 3, 1000, 100_000])
    @pytest.mark.parametrize("pair", sorted(OFFER_LAW_PAIRS))
    def test_matches_per_draw_reference(self, pair, n_draws):
        for item, seed in (("A", 41), ("B", 42)):
            self.assert_matches_reference(OFFER_LAW_PAIRS[pair], item, n_draws, seed)

    @pytest.mark.parametrize("low, high", [(0.2, 0.8), (0.5, 0.5)])
    def test_degenerate_draws(self, low, high):
        # Point masses give every draw the same gain: all negative, all
        # positive, or exactly 0.0 (no motive) when the values are equal.
        dists = (PointMass(low), PointMass(high), UNIT, UNIT)
        sizes = [self.assert_matches_reference(dists, item, 500, 3).offers.size for item in "AB"]
        assert sizes == ([500, 0] if low < high else [0, 0])

    def test_gains_at_zero_and_at_cut_points(self, monkeypatch):
        d = FAMILIES["truncnorm"]
        _, cuts = two_agent._offer_envelope(d, d)
        picks = cuts[[0, 1, cuts.size // 2, -2, -1]]
        planted = np.concatenate(
            [
                [0.0, -0.0, -1e-300, 5e-324, -1.0, 2.0 * cuts[-1], 10.0],
                picks,
                np.nextafter(picks, -np.inf),
                np.nextafter(picks, np.inf),
            ]
        )
        # Two uniforms whose draws are scripted: one yields the planted gains,
        # the other zeros, so either received item sees exactly those gains.
        gain_source, zero_source = Uniform(0.0, 1.0), Uniform(0.0, 2.0)
        scripted = {gain_source: planted, zero_source: np.zeros(planted.size)}
        monkeypatch.setattr(Uniform, "sample", lambda self, rng, size: scripted[self].copy())
        for item, f2 in (("B", (gain_source, zero_source)), ("A", (zero_source, gain_source))):
            got = self.assert_matches_reference((*f2, d, d), item, planted.size, 1)
            assert got.offers.size == np.count_nonzero(planted > 0)

    def test_equal_truncated_normals_share_cached_curves(self, monkeypatch):
        calls = []

        def counted(f1a, f1b, ts):
            calls.append(np.size(ts))
            return acceptance_curve(f1a, f1b, ts)

        monkeypatch.setattr(two_agent, "acceptance_curve", counted)
        two_agent._offer_grid.cache_clear()
        two_agent._offer_envelope.cache_clear()
        # The stored truncation bounds stay out of equality, hashing and repr.
        a, b = TruncatedNormal(0, 1, 0.6, 0.2), TruncatedNormal(0.0, 1.0, 0.6, 0.2)
        assert a == b and hash(a) == hash(b) and "phi" not in repr(a)
        optimal_offer(0.9, 0.1, a, a)
        optimal_offer(0.8, 0.3, b, b)
        offer_distribution(a, a, a, a, "B", 1000, seed=2)
        offer_distribution(b, b, b, b, "A", 1000, seed=3)
        assert calls == [two_agent._OFFER_GRID_POINTS, two_agent._ENVELOPE_GRID_POINTS]
