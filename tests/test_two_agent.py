"""Two-player bargaining: acceptance integral, optimal offers, first mover."""

import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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

    @pytest.mark.parametrize("d", [UNIT, TruncatedNormal(0.0, 1.0, 0.6, 0.2), PointMass(0.5)])
    def test_quantile_returns_a_new_array(self, d):
        u = np.linspace(0.0, 0.99, 7)
        before = u.copy()
        q = d.quantile(u)
        assert u.tobytes() == before.tobytes()
        assert isinstance(q, np.ndarray) and q.shape == u.shape and not np.shares_memory(q, u)
        for zero_d in (0.25, np.float64(0.25), np.array(0.25)):
            scalar = d.quantile(zero_d)
            assert np.isscalar(scalar) and scalar == d.quantile(np.array([0.25]))[0]

    @pytest.mark.parametrize("d", [UNIT, TruncatedNormal(0.0, 1.0, 0.6, 0.2), PointMass(0.5)])
    def test_sample_is_the_quantile_of_fresh_uniforms(self, d):
        # A mixed pair draws from one stream in turn, as a first-mover call does.
        other = TruncatedNormal(-1.0, 2.0, 0.3, 0.7)
        rng = np.random.default_rng(9)
        got = [d.sample(rng, 1000), other.sample(rng, 1000)]
        rng = np.random.default_rng(9)
        want = [d.quantile(rng.random(1000)), other.quantile(rng.random(1000))]
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]

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

    def test_upper_tail_interval_keeps_its_cdf(self):
        # Both bounds lie beyond where ndtr rounds to 1; measured from the
        # upper tail, the cdf still spans [0, 1] and inverts the quantile.
        tn = TruncatedNormal(10.0, 11.0, mu=0.0, sigma=1.0)
        xs = np.linspace(10.0, 11.0, 1001)
        cdf = tn.cdf(xs)
        assert cdf[0] == 0.0 and cdf[-1] == 1.0
        assert np.all(np.diff(cdf) > 0)
        us = np.linspace(0.01, 0.99, 25)
        assert np.allclose(tn.cdf(tn.quantile(us)), us, atol=1e-12)
        offer = optimal_offer(10.9, 10.1, tn, tn)
        assert all(np.isfinite([offer.t_star, offer.expected_payoff, offer.acceptance]))

    def test_interval_without_normal_mass_rejected(self):
        with pytest.raises(ValueError, match="no probability mass"):
            TruncatedNormal(40.0, 41.0, mu=0.0, sigma=1.0)

    def test_parse_specs(self):
        assert parse_distribution("uniform:0,1") == UNIT
        assert parse_distribution("truncnorm:0,1,0.5,0.2") == TruncatedNormal(0, 1, 0.5, 0.2)
        assert parse_distribution("point:3") == PointMass(3.0)
        for spec in ("pareto:1", "uniform:0,x", "uniform:0", "point:", "truncnorm:0,1,0.5"):
            with pytest.raises(ValueError, match=f"^malformed distribution spec '{spec}'$"):
                parse_distribution(spec)


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
        scalar = np.array([acceptance_probability(UNIT, tn, float(t)) for t in ts])
        assert curve.tobytes() == scalar.tobytes()

    def test_equal_point_masses_accept_a_free_swap(self):
        # As in the rollout, the swap is taken when v + t >= v, so at t = 0 too.
        pm = PointMass(0.5)
        assert acceptance_probability(pm, pm, 0.0) == 1.0
        assert acceptance_probability(pm, pm, -1e-9) == 0.0
        curve = acceptance_curve(pm, pm, np.array([-0.1, 0.0, 0.2]))
        assert curve.tolist() == [0.0, 1.0, 1.0]


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
        # Equal values need no flag: the payoff v - t * accept(t) peaks at 0.
        assert optimal_offer(0.4, 0.4, UNIT, UNIT).t_star == 0.0
        assert optimal_offer(0.5, 0.5, UNIT, UNIT).t_star == 0.0

    def test_no_trade_motive_rejected(self):
        with pytest.raises(PreconditionError):
            optimal_offer(0.1, 0.9, UNIT, UNIT)

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
        assert dist.offers.size == 0

    def test_uniform_no_offer_probability(self):
        n_draws = 50_000
        dist = offer_distribution(UNIT, UNIT, UNIT, UNIT, "B", n_draws, seed=11)
        assert dist.no_offer_probability == pytest.approx(0.5, abs=1e-9)
        # Empirical motive frequency agrees within Monte-Carlo noise.
        share = 1 - dist.offers.size / n_draws
        assert abs(share - 0.5) <= 3 * 0.5 / np.sqrt(n_draws) + 0.01

    def test_same_seed_same_distribution(self):
        a = offer_distribution(UNIT, UNIT, UNIT, UNIT, "B", 5000, seed=21)
        b = offer_distribution(UNIT, UNIT, UNIT, UNIT, "B", 5000, seed=21)
        assert np.array_equal(a.offers, b.offers)

    def test_cdf_is_a_cdf(self):
        # The offers are sorted, so P(offer < s) is one binary search.
        dist = offer_distribution(UNIT, UNIT, UNIT, UNIT, "A", 20_000, seed=8)
        assert np.all(np.diff(dist.offers) >= 0)
        ss = np.linspace(-0.2, 1.2, 57)
        vals = np.searchsorted(dist.offers, ss, side="left") / dist.offers.size
        assert vals[0] == 0.0 and vals[-1] == 1.0
        assert np.all(np.diff(vals) >= 0)

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

    def test_tied_point_mass_opponent_never_offers(self):
        # Equal values give a zero gain, which makes no offer: each pick keeps
        # its own value, so A (0.7) is the better pick.
        tied = PointMass(0.5)
        result = first_mover_expected_utility(0.7, 0.4, tied, tied, UNIT, UNIT, 1000, seed=1)
        assert (result.eu_choose_a, result.eu_choose_b, result.best_choice) == (0.7, 0.4, "A")

    @pytest.mark.parametrize("low, high", [(0.5, 0.5), (0.25, 0.75), (0.75, 0.25)])
    @pytest.mark.parametrize("v1a, v1b", [(0.75, 0.25), (0.25, 0.75), (0.5, 0.5)])
    def test_decomposition_equals_rollout_on_point_mass_opponents(self, low, high, v1a, v1b):
        # Dyadic values and offers (the envelope grid is k / 8192 on [0, 1])
        # keep every sum exact, so the two must agree to the last bit.
        result = first_mover_expected_utility(
            v1a, v1b, PointMass(low), PointMass(high), UNIT, UNIT, 1000, seed=9
        )
        for choice, eu in (("A", result.eu_choose_a), ("B", result.eu_choose_b)):
            sim, _ = simulate_first_mover_game(
                v1a, v1b, PointMass(low), PointMass(high), UNIT, UNIT, choice, 1000, seed=10
            )
            assert eu == sim

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

    @pytest.mark.parametrize("outer, inner, shift, expected", [
        (0.5, 0.5, 0.0, 1.0),  # P(X - 0 >= 0.5): the tie counts
        (0.5, 0.5, 1e-9, 0.0),
        (0.2, 0.8, 0.0, 0.0),
        (0.8, 0.2, 0.0, 1.0),
    ])
    def test_point_mass_pair_closed_form(self, outer, inner, shift, expected):
        assert stieltjes_cdf_integral(PointMass(outer), PointMass(inner), shift) == expected

    def test_point_mass_inner_closed_form(self):
        tn = TruncatedNormal(0.0, 1.0, 0.6, 0.2)
        for w in (0.0, 0.3, 0.6, 1.0):
            assert stieltjes_cdf_integral(tn, PointMass(w), 0.0) == 1.0 - float(tn.cdf(w))


def _clear_quadrature_caches():
    for cache in (two_agent._curve, two_agent._offer_envelope, two_agent.no_offer_probability):
        cache.cache_clear()


def _grid(d, points):
    """The cached acceptance curve on ``linspace(0, width, points)``."""
    return two_agent._curve(d, d, 0.0, max(d.width, 0.0), points)


def _digest(*values):
    h = hashlib.sha256()
    for v in values:
        h.update(np.asarray(v, dtype=float).tobytes())
    return h.hexdigest()


_GL_REFERENCE_NODES = {n: np.polynomial.legendre.leggauss(n) for n in (48, 96)}


def _gl_panel(f, a, b, n):
    x, w = _GL_REFERENCE_NODES[n]
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return float(half * (w * f(mid + half * x)).sum())


def _adaptive_gl(f, a, b, tol, depth=0):
    if b - a <= 0:
        return 0.0
    coarse = _gl_panel(f, a, b, 48)
    fine = _gl_panel(f, a, b, 96)
    if abs(fine - coarse) <= tol or depth >= 12:
        return fine
    mid = 0.5 * (a + b)
    return _adaptive_gl(f, a, mid, tol / 2, depth + 1) + _adaptive_gl(
        f, mid, b, tol / 2, depth + 1
    )


def _stieltjes_reference(outer, inner, shift):
    """The scalar recursive banded rule, one offer per call: what the
    vectorized rule must equal byte for byte on continuous distributions."""
    u_lo = min(max(float(outer.cdf(shift + inner.lower)), 0.0), 1.0)
    u_hi = min(max(float(outer.cdf(shift + inner.upper)), 0.0), 1.0)
    if u_hi < u_lo:
        u_lo, u_hi = u_hi, u_lo

    def integrand(u):
        return np.asarray(inner.cdf(outer.quantile(u) - shift), dtype=float)

    middle = _adaptive_gl(integrand, u_lo, u_hi, 1e-9)
    return min(max(middle + (1.0 - u_hi), 0.0), 1.0)


def _acceptance_curve_reference(f1a, f1b, ts):
    return np.array([1.0 - _stieltjes_reference(f1a, f1b, float(t)) for t in ts])


FAMILIES = {
    "uniform": Uniform(0.0, 1.0),
    "truncnorm": TruncatedNormal(0.0, 1.0, 0.6, 0.2),
    "wide-truncnorm": TruncatedNormal(0.0, 2.0, 1.4, 0.6),
    # Narrow enough that the rule halves some bands down to the depth limit.
    "narrow-truncnorm": TruncatedNormal(0.0, 1.0, 0.5, 0.02),
}

# (f1a, f1b) pairs for the curve checks: each family with itself, and two
# mixed pairs.
CURVE_PAIRS = [(d, d) for d in FAMILIES.values()] + [
    (FAMILIES["truncnorm"], FAMILIES["uniform"]),
    (FAMILIES["narrow-truncnorm"], FAMILIES["uniform"]),
]


@st.composite
def support_pairs(draw):
    """Two distributions on one random support: uniforms and truncated
    normals from narrow to wide, with the mean inside, below or above it."""
    lower = draw(st.floats(-5.0, 5.0))
    width = draw(st.floats(0.1, 4.0))

    def one():
        if draw(st.booleans()):
            return Uniform(lower, lower + width)
        sigma = width * 10.0 ** draw(st.floats(-2.0, 0.5))
        # A mean at most 20 sigma outside the support, which keeps its mass.
        offset = draw(st.floats(-1.0, 1.0)) * (0.5 * width + 20.0 * sigma)
        return TruncatedNormal(lower, lower + width, lower + 0.5 * width + offset, sigma)

    return one(), one()


class TestBandedRule:
    """The vectorized banded rule against the scalar reference."""

    @settings(max_examples=60, deadline=None)
    @given(support_pairs(), st.lists(st.floats(-1.2, 1.2), min_size=1, max_size=6))
    def test_matches_reference_and_is_a_probability(self, pair, fractions):
        outer, inner = pair
        shifts = np.sort(np.concatenate([
            np.linspace(-1.1, 1.1, 9), np.asarray(fractions)
        ])) * outer.width
        got = two_agent._shifted_cdf_mean(outer, inner, shifts)
        ref = np.array([_stieltjes_reference(outer, inner, float(s)) for s in shifts])
        assert got.tobytes() == ref.tobytes()
        assert np.all((got >= 0.0) & (got <= 1.0))
        # Nonincreasing in the shift, up to an ulp or two of rounding.
        assert np.all(np.diff(got) <= 4 * np.finfo(float).eps)


class TestSharedCurves:
    """Curves and offer envelopes are computed once per distribution pair and
    shared; the outputs are pinned, and each curve equals the pointwise rule
    byte for byte."""

    @pytest.mark.parametrize(
        "family, digest",
        [
            ("uniform", "90b77542d920e41a5fac3fbcddd4516cda51bd67d5e7e714cf546dc6b789db9b"),
            ("truncnorm", "d5be9cce0328fb655c797980248dfc5f68a97bfd7a2f921ff8b96193b30b492b"),
            ("wide-truncnorm", "f1c70c6d946b0b18deb17ef29c142aff74410a3e9e120515f487e7bb617cf460"),
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
            ("uniform", "7ed5fa9f11978cf86c09bacad1d481d966107a2854f5d0bcc2986fa6a92ec68d"),
            ("truncnorm", "27078485e0aac75d1be00041b97a6f9c82e314de5e6b61541b55210f77511e3c"),
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
            ("uniform", "ad4967b09a19a3cd00c6e725069aa1f8e779050af32a4f88343d817dd002af96"),
            ("truncnorm", "c96ecc1689495b387a75b3105fa6190466bb49f332880de969e63d324f36da91"),
        ],
    )
    def test_first_mover_digest_is_pinned(self, family, digest):
        d = FAMILIES[family]
        rows = []
        for v1a, v1b, seed in ((0.9, 0.2, 31), (0.3, 0.7, 32)):
            r = first_mover_expected_utility(v1a, v1b, d, d, d, d, 30_000, seed)
            rows.append((r.eu_choose_a, r.eu_choose_b, r.se_choose_a, r.se_choose_b))
        assert _digest(*rows) == digest

    @pytest.mark.parametrize(
        "family, digest",
        [
            ("uniform", "9d00f0140c088451e8c93526beb7db62cd572f87af613b371e2d4762d56f2f6f"),
            ("truncnorm", "ec69fa4cfea2f55deebadcd3527daa4be435b516420b7c21942d4baa50f8f590"),
        ],
    )
    def test_rollout_digest_is_pinned(self, family, digest):
        d = FAMILIES[family]
        rows = [
            [simulate_first_mover_game(v1a, v1b, d, d, d, d, c, 30_000, seed + 100) for c in "AB"]
            for v1a, v1b, seed in ((0.9, 0.2, 31), (0.3, 0.7, 32))
        ]
        assert _digest(*rows) == digest

    @pytest.mark.parametrize("n", [1, 15, 511, 512, 513, 976, 977, 1953, 2001, 8193])
    def test_curve_matches_pointwise_reference(self, n):
        # Offer counts around the 512-offer block and the lengths of the two
        # cached grids; the offers run past both ends of the support band.
        for f1a, f1b in CURVE_PAIRS:
            ts = np.linspace(-0.3, 1.1 * f1a.width, n)
            got = acceptance_curve(f1a, f1b, ts)
            assert got.tobytes() == _acceptance_curve_reference(f1a, f1b, ts).tobytes()

    def test_cached_grids_match_pointwise_reference(self):
        for d in FAMILIES.values():
            for n in (two_agent._OFFER_GRID_POINTS, two_agent._ENVELOPE_GRID_POINTS):
                ts, accept = _grid(d, n)
                assert ts.tobytes() == np.linspace(0.0, d.width, n).tobytes()
                assert accept.tobytes() == _acceptance_curve_reference(d, d, ts).tobytes()

    def test_cached_arrays_are_read_only(self):
        d = FAMILIES["truncnorm"]
        ts, accept = _grid(d, two_agent._OFFER_GRID_POINTS)
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
            if np.size(ts) != two_agent._ZOOM_POINTS:  # the grids, not the zoom windows
                calls.append(np.size(ts))
            return acceptance_curve(f1a, f1b, ts)

        monkeypatch.setattr(two_agent, "acceptance_curve", counted)
        _clear_quadrature_caches()
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

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_envelope_attains_the_grid_maximum(self, family):
        d = FAMILIES[family]
        ts, accept = _grid(d, two_agent._ENVELOPE_GRID_POINTS)
        gains = np.random.default_rng(7).uniform(0.0, 1.2 * d.width, 300)
        offers = two_agent._grid_optimal_offers(gains, d, d)
        assert np.all(np.isin(offers, ts))
        chosen = (gains - offers) * accept[np.searchsorted(ts, offers)]
        best = ((gains[:, None] - ts[None, :]) * accept[None, :]).max(axis=1)
        assert np.all(chosen >= best - 1e-12 * np.maximum(1.0, gains))


SEARCH_FAMILIES = [*FAMILIES.values(), Uniform(0.0, 1000.0)]
SEARCH_VALUES = ((0.9, 0.1), (0.6, 0.3), (1.0, 0.05), (0.75, 0.7))


def _scaled(d, v):
    return d.lower + v * d.width


def _optimal_offer_reference(v2a, v2b, f1a, f1b):
    """The zoom search with every 33-offer window integrated afresh by
    ``_acceptance``: the ``(t_star, expected_payoff, acceptance)`` that
    ``optimal_offer`` must return byte for byte, cached windows or not."""
    ts, accept = two_agent._curve(f1a, f1b, 0.0, f1a.width, two_agent._OFFER_GRID_POINTS)
    points, span = [], math.inf
    while True:
        payoff = (v2a - ts) * accept + v2b * (1.0 - accept)
        i = int(np.argmax(payoff))
        points.append((-float(payoff[i]), float(ts[i]), float(accept[i])))
        lo, hi = ts[max(i - 1, 0)], ts[min(i + 1, ts.size - 1)]
        if not 1e-5 < hi - lo < span:
            break
        span = hi - lo
        ts = np.linspace(lo, hi, two_agent._ZOOM_POINTS)
        accept = two_agent._acceptance(f1a, f1b, ts)
    neg_payoff, t_star, acceptance = min(points)
    return t_star, -neg_payoff, acceptance


def _offer_bytes(offer):
    return np.array([offer.t_star, offer.expected_payoff, offer.acceptance]).tobytes()


class TestOfferSearch:
    """``optimal_offer`` narrows its own grid argmax with the vectorized rule."""

    @pytest.mark.parametrize("d", SEARCH_FAMILIES, ids=repr)
    def test_cached_windows_match_fresh_ones(self, d, monkeypatch):
        # A 200-call sweep of the offerer's value that revisits each of 50
        # values four times, so most calls read cached windows: every answer
        # equals the answer computed with every window fresh and the reference.
        v2a = _scaled(d, 0.95)
        distinct = [_scaled(d, v) for v in np.linspace(0.0, 0.9, 50)]
        reference = [
            np.array(_optimal_offer_reference(v2a, v2b, d, d)).tobytes() for v2b in distinct
        ]
        grid, fresh = _grid(d, two_agent._OFFER_GRID_POINTS), two_agent._curve.__wrapped__

        def fresh_windows(outer, inner, lo, hi, points):
            # The grid as cached; each zoom window integrated on every read.
            return fresh(outer, inner, lo, hi, points) if points == two_agent._ZOOM_POINTS else grid

        with monkeypatch.context() as m:
            m.setattr(two_agent, "_curve", fresh_windows)
            cold = [_offer_bytes(optimal_offer(v2a, v2b, d, d)) for v2b in distinct]
        assert cold == reference
        two_agent._curve.cache_clear()
        warm = [_offer_bytes(optimal_offer(v2a, v2b, d, d)) for v2b in distinct * 4]
        assert warm == reference * 4
        # Every call but the first reads the grid from the cache; 150 more hits are windows.
        assert two_agent._curve.cache_info().hits >= len(warm) - 1 + 150

    @pytest.mark.parametrize("d", SEARCH_FAMILIES, ids=repr)
    def test_zoom_windows_are_read_only(self, d):
        ts, _ = _grid(d, two_agent._OFFER_GRID_POINTS)
        zoom = two_agent._curve(d, d, float(ts[1]), float(ts[3]), two_agent._ZOOM_POINTS)
        for array in zoom:
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 0.0

    @pytest.mark.parametrize("d", SEARCH_FAMILIES, ids=repr)
    def test_repeated_offer_integrates_nothing(self, d, monkeypatch):
        first = optimal_offer(_scaled(d, 0.8), _scaled(d, 0.2), d, d)
        monkeypatch.setattr(two_agent, "_acceptance", lambda *a: pytest.fail("integrated again"))
        assert optimal_offer(_scaled(d, 0.8), _scaled(d, 0.2), d, d) == first

    @pytest.mark.parametrize("d", SEARCH_FAMILIES, ids=repr)
    def test_zero_offers_share_their_windows(self, d, monkeypatch):
        # Every offer whose grid optimum is the zero offer zooms into the same
        # windows, whatever its gap: the repeat that callers outside a
        # fixed-value sweep (C10's gap grid, demo 03) meet.
        assert optimal_offer(_scaled(d, 0.21), _scaled(d, 0.2), d, d).t_star == 0.0
        monkeypatch.setattr(two_agent, "_acceptance", lambda *a: pytest.fail("integrated again"))
        assert optimal_offer(_scaled(d, 0.23), _scaled(d, 0.2), d, d).t_star == 0.0

    def test_curve_cache_keeps_at_most_2048_curves(self):
        assert two_agent._curve.cache_info().maxsize == 2048

    @pytest.mark.parametrize("d", SEARCH_FAMILIES, ids=repr)
    def test_calls_only_the_vectorized_rule(self, d, monkeypatch):
        single, vectorized = [], []
        rule = two_agent._acceptance

        def counted(f1a, f1b, ts):
            vectorized.append(ts.size)
            return rule(f1a, f1b, ts)

        monkeypatch.setattr(two_agent, "acceptance_probability", lambda *a: single.append(a))
        optimal_offer(_scaled(d, 0.9), _scaled(d, 0.1), d, d)  # fills the cached grid
        monkeypatch.setattr(two_agent, "_acceptance", counted)
        for v2a, v2b in SEARCH_VALUES:
            # Cached zoom windows would make no call: clear them, then refill the grid.
            two_agent._curve.cache_clear()
            _grid(d, two_agent._OFFER_GRID_POINTS)
            vectorized.clear()
            optimal_offer(_scaled(d, v2a), _scaled(d, v2b), d, d)
            bound = math.ceil(math.log(2 * d.width / 2000 / 1e-5, 16))
            assert 1 <= len(vectorized) <= bound
            assert set(vectorized) <= {two_agent._ZOOM_POINTS}
        assert single == []

    @pytest.mark.parametrize("d", SEARCH_FAMILIES, ids=repr)
    def test_reports_the_rule_at_a_local_maximum(self, d):
        for v2a, v2b in SEARCH_VALUES:
            v2a, v2b = _scaled(d, v2a), _scaled(d, v2b)
            offer = optimal_offer(v2a, v2b, d, d)
            t = offer.t_star
            assert offer.expected_payoff == seller_expected_payoff(v2a, v2b, d, d, t)
            assert offer.acceptance == acceptance_probability(d, d, t)
            # No offer on a 1e-6 grid within 1e-4 of t* pays more.
            ts = t + np.arange(-100, 101) * 1e-6
            ts = ts[ts >= 0.0]
            accept = acceptance_curve(d, d, ts)
            payoff = (v2a - ts) * accept + v2b * (1.0 - accept)
            assert payoff.max() <= offer.expected_payoff + 1e-10

    @pytest.mark.parametrize("d", SEARCH_FAMILIES, ids=repr)
    def test_equal_values_offer_zero(self, d):
        for v in (0.1, 0.5, 0.9):
            offer = optimal_offer(_scaled(d, v), _scaled(d, v), d, d)
            assert offer.t_star == 0.0

    def test_point_mass_returns_at_once(self, monkeypatch):
        pm = PointMass(0.5)
        optimal_offer(0.5, 0.5, pm, pm)  # fills the cached grid
        monkeypatch.setattr(two_agent, "_acceptance", lambda *a: pytest.fail("zoomed"))
        offer = optimal_offer(0.5, 0.5, pm, pm)
        assert (offer.t_star, offer.expected_payoff, offer.acceptance) == (0.0, 0.5, 1.0)

    def test_support_wider_than_the_resolution_allows(self):
        # At 1e12, adjacent offers are 1.2e-4 apart: the search stops when
        # the bracket stops narrowing instead of looping forever.
        d = Uniform(0.0, 1e12)
        offer = optimal_offer(0.9e12, 0.1e12, d, d)
        assert offer.expected_payoff == seller_expected_payoff(0.9e12, 0.1e12, d, d, offer.t_star)


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
        assert got.offers.size == ref.size
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
            if np.size(ts) != two_agent._ZOOM_POINTS:  # the grids, not the zoom windows
                calls.append(np.size(ts))
            return acceptance_curve(f1a, f1b, ts)

        monkeypatch.setattr(two_agent, "acceptance_curve", counted)
        _clear_quadrature_caches()
        # The stored truncation bounds stay out of equality, hashing and repr.
        a, b = TruncatedNormal(0, 1, 0.6, 0.2), TruncatedNormal(0.0, 1.0, 0.6, 0.2)
        assert a == b and hash(a) == hash(b) and "phi" not in repr(a)
        optimal_offer(0.9, 0.1, a, a)
        optimal_offer(0.8, 0.3, b, b)
        offer_distribution(a, a, a, a, "B", 1000, seed=2)
        offer_distribution(b, b, b, b, "A", 1000, seed=3)
        assert calls == [two_agent._OFFER_GRID_POINTS, two_agent._ENVELOPE_GRID_POINTS]


@st.composite
def opponent_pairs(draw):
    """The second player's (f2a, f2b): uniforms, truncated normals and point
    masses, each on its own support, so the pair is often mixed.  Point
    masses give every draw the same gain, and so empty laws."""

    def one():
        lower = draw(st.floats(-1.0, 1.0))
        kind = draw(st.sampled_from(["uniform", "truncnorm", "point"]))
        if kind == "point":
            return PointMass(draw(st.sampled_from([0.0, 0.5, 1.0])))
        width = draw(st.floats(0.1, 2.0))
        if kind == "uniform":
            return Uniform(lower, lower + width)
        mu = lower + draw(st.floats(0.0, 1.0)) * width
        return TruncatedNormal(lower, lower + width, mu, width * 10.0 ** draw(st.floats(-1.5, 0.5)))

    if draw(st.booleans()):
        d = one()
        return d, d
    return one(), one()


def _first_mover_reference(v1a, v1b, f2a, f2b, f1a, f1b, n_draws, seed):
    """The first mover in plain array algebra: a negated copy of the gains for
    pick B, each branch's sorted offers repeated out, and the utilities
    concatenated.  Returns ``(eu_a, eu_b, se_a, se_b)`` and the offer laws
    after picks A and B as ``(offers, no_offer)``."""
    rng = np.random.default_rng(seed)
    va = f2a.quantile(rng.random(n_draws))
    gains = va - f2b.quantile(rng.random(n_draws))
    gains.sort()

    def offer_law(gains, outer, inner, no_offer):
        gains = gains[np.searchsorted(gains, 0.0, side="right") :]
        if not gains.size:
            return np.array([]), no_offer
        envelope_offers, cuts = two_agent._offer_envelope(outer, inner)
        counts = np.diff(np.searchsorted(gains, cuts, side="right"), prepend=0, append=gains.size)
        return np.repeat(envelope_offers, counts), no_offer

    def branch_eu(v_keep, v_other, offers, no_offer):
        theta = v_keep - v_other
        size = offers.size
        short = int(np.searchsorted(offers, theta, side="left"))
        tail = offers[short:]
        t_short = short / size if size else 0.0
        tail_mean = float(tail.mean()) if tail.size else 0.0
        eu = no_offer * v_keep + (1.0 - no_offer) * (
            t_short * v_keep + (1.0 - t_short) * (v_other + tail_mean)
        )
        util = np.concatenate([np.full(short, float(v_keep)), v_other + tail])
        if size < 2 or util.min() == util.max():
            return float(eu), 0.0
        return float(eu), float(util.std(ddof=1) / math.sqrt(size))

    after_a = offer_law(gains, f1a, f1b, stieltjes_cdf_integral(f2b, f2a, 0.0))
    after_b = offer_law(-gains[::-1], f1b, f1a, stieltjes_cdf_integral(f2a, f2b, 0.0))
    (eu_a, se_a), (eu_b, se_b) = branch_eu(v1a, v1b, *after_a), branch_eu(v1b, v1a, *after_b)
    return (eu_a, eu_b, se_a, se_b), after_a, after_b


class TestFirstMoverContract:
    """The first mover and both offer laws equal :func:`_first_mover_reference`
    byte for byte."""

    def assert_matches_reference(self, v1a, v1b, f2, f1, n_draws, seed):
        r = first_mover_expected_utility(v1a, v1b, *f2, *f1, n_draws, seed)
        eus, *laws = _first_mover_reference(v1a, v1b, *f2, *f1, n_draws, seed)
        got = [r.eu_choose_a, r.eu_choose_b, r.se_choose_a, r.se_choose_b]
        assert [x.hex() for x in got] == [x.hex() for x in eus]
        assert r.best_choice == ("A" if eus[0] >= eus[1] else "B")
        for item, (offers, no_offer) in zip("BA", laws):
            dist = offer_distribution(*f2, *f1, item, n_draws, seed)
            assert dist.offers.dtype == offers.dtype and dist.offers.tobytes() == offers.tobytes()
            assert dist.no_offer_probability.hex() == no_offer.hex()

    @settings(max_examples=40, deadline=None)
    # Point-mass opponents: an empty law after one pick, then after both.
    @example((PointMass(0.2), PointMass(0.8)), (UNIT, UNIT), 0.7, 0.4, 500, 3)
    @example((PointMass(0.5), PointMass(0.5)), (UNIT, UNIT), 0.7, 0.4, 500, 3)
    # One, two and three draws: empty laws, one-offer laws, and no SE.
    @example((UNIT, UNIT), (UNIT, UNIT), 0.7, 0.4, 1, 5)
    @example((UNIT, UNIT), (UNIT, UNIT), 0.7, 0.4, 2, 5)
    @example((UNIT, FAMILIES["truncnorm"]), (UNIT, UNIT), 0.4, 0.7, 3, 6)
    @given(
        opponent_pairs(),
        st.one_of(support_pairs(), st.just((UNIT, UNIT)), st.just((PointMass(0.5),) * 2)),
        st.floats(-1.0, 2.0),
        st.floats(-1.0, 2.0),
        st.integers(1, 5000),
        st.integers(0, 2**32 - 1),
    )
    def test_branches_equal_their_offer_laws(self, f2, f1, v1a, v1b, n_draws, seed):
        self.assert_matches_reference(v1a, v1b, f2, f1, n_draws, seed)

    @pytest.mark.parametrize("pair", sorted(OFFER_LAW_PAIRS))
    def test_cold_and_warm_no_offer_agree(self, pair):
        f2a, f2b, f1a, f1b = OFFER_LAW_PAIRS[pair]

        def run():
            r = first_mover_expected_utility(0.7, 0.4, f2a, f2b, f1a, f1b, 5000, 8)
            return [x.hex() for x in (r.eu_choose_a, r.eu_choose_b, r.se_choose_a, r.se_choose_b)]

        two_agent.no_offer_probability.cache_clear()
        cold = run()
        misses = two_agent.no_offer_probability.cache_info().misses
        assert misses == len({(f2b, f2a), (f2a, f2b)})
        assert run() == cold
        assert two_agent.no_offer_probability.cache_info().misses == misses

    @pytest.mark.parametrize("family", ["uniform", "truncnorm"])
    def test_threshold_on_an_envelope_offer(self, family):
        # The threshold of each pick is the median offer of its law, so some
        # offers equal it and clear it.  Law "B" follows pick A, whose
        # threshold is v1a - v1b; law "A" follows pick B.
        d = FAMILIES[family]
        for item in "BA":
            offers = offer_distribution(d, d, d, d, item, 20_000, 12).offers
            t = float(offers[offers.size // 2])
            v1a, v1b = (t, 0.0) if item == "B" else (0.0, t)
            self.assert_matches_reference(v1a, v1b, (d, d), (d, d), 20_000, 12)

    @pytest.mark.parametrize("family", ["uniform", "truncnorm"])
    def test_peak_memory_is_two_draw_arrays(self, family):
        d = FAMILIES[family]
        first_mover_expected_utility(0.7, 0.4, d, d, d, d, 100, 5)  # fills the cached curves
        tracemalloc.start()
        try:
            first_mover_expected_utility(0.7, 0.4, d, d, d, d, 200_000, 5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2.25 * 8 * 200_000
