"""Two-player, two-item bargaining with privately known values.

After the first player picks, the second may offer a payment ``t`` to swap.
This module computes the probability such an offer is accepted, the offerer's
expected payoff and its maximizer, the Monte-Carlo distribution of optimal
offers, and the first mover's expected utility from either initial pick.

Offers are restricted to ``t >= 0`` (the proposer pays to obtain the better
item).  An acceptance curve, and the envelope of optimal offers read off it,
depend only on the (frozen, hashable) distribution pair, so each is computed
once per process and shared read-only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import ndtr, ndtri

from .errors import PreconditionError

_QUAD_TOL = 1e-9
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_OFFER_GRID_POINTS = 2001
_OFFER_RESOLUTION = 1e-5
_ENVELOPE_GRID_POINTS = 8193
_CDF_ROWS = 16


# ---------------------------------------------------------------------------
# Value distributions
# ---------------------------------------------------------------------------


class ValueDistribution:
    """Common interface: compact support, cdf, quantile, seeded sampling."""

    lower: float
    upper: float

    def cdf(self, x):  # pragma: no cover - interface stub
        raise NotImplementedError

    def quantile(self, u):  # pragma: no cover - interface stub
        raise NotImplementedError

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return self.quantile(rng.random(size))

    @property
    def width(self) -> float:
        return self.upper - self.lower


@dataclass(frozen=True)
class Uniform(ValueDistribution):
    lower: float
    upper: float

    def __post_init__(self) -> None:
        if not self.upper > self.lower:
            raise ValueError("uniform support must have positive width")

    def cdf(self, x):
        return np.clip((np.asarray(x, dtype=float) - self.lower) / self.width, 0.0, 1.0)

    def quantile(self, u):
        return self.lower + np.asarray(u, dtype=float) * self.width


@dataclass(frozen=True)
class TruncatedNormal(ValueDistribution):
    """Normal(mu, sigma) conditioned on the compact interval [lower, upper]."""

    lower: float
    upper: float
    mu: float
    sigma: float

    def __post_init__(self) -> None:
        if not self.upper > self.lower:
            raise ValueError("support must have positive width")
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")

    def _phi_bounds(self) -> tuple[float, float]:
        a = ndtr((self.lower - self.mu) / self.sigma)
        b = ndtr((self.upper - self.mu) / self.sigma)
        return float(a), float(b)

    def cdf(self, x):
        a, b = self._phi_bounds()
        z = ndtr((np.asarray(x, dtype=float) - self.mu) / self.sigma)
        return np.clip((z - a) / (b - a), 0.0, 1.0)

    def quantile(self, u):
        a, b = self._phi_bounds()
        return self.mu + self.sigma * ndtri(a + np.asarray(u, dtype=float) * (b - a))


@dataclass(frozen=True)
class PointMass(ValueDistribution):
    """Degenerate distribution concentrated on a single value."""

    value: float

    @property
    def lower(self) -> float:  # type: ignore[override]
        return self.value

    @property
    def upper(self) -> float:  # type: ignore[override]
        return self.value

    def cdf(self, x):
        return (np.asarray(x, dtype=float) >= self.value).astype(float)

    def quantile(self, u):
        return np.full_like(np.asarray(u, dtype=float), self.value)


def parse_distribution(spec: str) -> ValueDistribution:
    """Parse ``uniform:LO,HI``, ``truncnorm:LO,HI,MU,SIGMA`` or ``point:V``."""
    kind, _, rest = spec.partition(":")
    parts = [float(x) for x in rest.split(",")] if rest else []
    if kind == "uniform" and len(parts) == 2:
        return Uniform(*parts)
    if kind == "truncnorm" and len(parts) == 4:
        return TruncatedNormal(*parts)
    if kind == "point" and len(parts) == 1:
        return PointMass(parts[0])
    raise ValueError(f"malformed distribution spec {spec!r}")


# ---------------------------------------------------------------------------
# Quadrature
# ---------------------------------------------------------------------------


@lru_cache(maxsize=8)
def _gl_nodes(n: int) -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(n)


def _gl_panel(f, a: float, b: float, n: int) -> float:
    x, w = _gl_nodes(n)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return float(half * np.sum(w * f(mid + half * x)))


def _adaptive_gl(f, a: float, b: float, tol: float, depth: int = 0) -> float:
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


def stieltjes_cdf_integral(
    outer: ValueDistribution, inner: ValueDistribution, shift: float = 0.0
) -> float:
    """Evaluate the expectation of ``inner.cdf(X - shift)`` for ``X ~ outer``.

    Substituting ``u = outer.cdf(x)`` turns the measure integral into an
    ordinary one over [0, 1]; the integrand is identically 0 (resp. 1) outside
    the band where ``x - shift`` crosses the inner support, so only the middle
    band needs quadrature.
    """
    u_lo = float(np.clip(outer.cdf(shift + inner.lower), 0.0, 1.0))
    u_hi = float(np.clip(outer.cdf(shift + inner.upper), 0.0, 1.0))
    if u_hi < u_lo:
        u_lo, u_hi = u_hi, u_lo

    def integrand(u: np.ndarray) -> np.ndarray:
        return np.asarray(inner.cdf(outer.quantile(u) - shift), dtype=float)

    middle = _adaptive_gl(integrand, u_lo, u_hi, _QUAD_TOL)
    return float(np.clip(middle + (1.0 - u_hi), 0.0, 1.0))


# ---------------------------------------------------------------------------
# Acceptance and payoff of an offer
# ---------------------------------------------------------------------------


def _require_common_support(f_a: ValueDistribution, f_b: ValueDistribution) -> None:
    if not (
        math.isclose(f_a.lower, f_b.lower, abs_tol=1e-12)
        and math.isclose(f_a.upper, f_b.upper, abs_tol=1e-12)
    ):
        raise ValueError("acceptor value distributions must share a common support")


def acceptance_probability(
    f1a: ValueDistribution, f1b: ValueDistribution, t: float
) -> float:
    """Probability the first player swaps item A for item B plus a payment ``t``.

    They accept when ``v1(B) + t >= v1(A)``; with ``v1(A) ~ f1a`` and
    ``v1(B) ~ f1b`` independent, this equals one minus the expectation of
    ``f1b(v1(A) - t)``.  Nondecreasing in ``t`` and pinned to 0/1 once ``t``
    leaves the support-width band.
    """
    if not np.isfinite(t):
        raise ValueError("offer must be finite")
    _require_common_support(f1a, f1b)
    return 1.0 - stieltjes_cdf_integral(f1a, f1b, shift=t)


def seller_expected_payoff(
    v2a: float, v2b: float, f1a: ValueDistribution, f1b: ValueDistribution, t: float
) -> float:
    """Expected payoff of offering ``t`` while holding B: get A and pay on
    acceptance, keep B otherwise."""
    accept = acceptance_probability(f1a, f1b, t)
    return (v2a - t) * accept + v2b * (1.0 - accept)


# ---------------------------------------------------------------------------
# Optimal offer
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OptimalOffer:
    t_star: float
    expected_payoff: float
    acceptance: float


@lru_cache(maxsize=4)
def _composite_gl_nodes(panels: int, order: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = _gl_nodes(order)
    edges = np.linspace(0.0, 1.0, panels + 1)
    mids = 0.5 * (edges[:-1] + edges[1:])
    halves = 0.5 * np.diff(edges)
    nodes = (mids[:, None] + halves[:, None] * x[None, :]).ravel()
    weights = (halves[:, None] * w[None, :]).ravel()
    return nodes, weights


def acceptance_curve(
    f1a: ValueDistribution, f1b: ValueDistribution, ts: np.ndarray
) -> np.ndarray:
    """Vectorized acceptance probabilities over an array of offers.

    Uses one shared composite quadrature grid for every offer; accuracy is a
    few 1e-7, well below Monte-Carlo resolution.  Distributions without a
    continuous quantile fall back to the pointwise adaptive rule.

    The inner cdf is evaluated ``_CDF_ROWS`` offers at a time, so its
    temporaries stay in cache, into one buffer of ``chunk`` offers that is
    then contracted with the weights.  The ``chunk``-row products are kept as
    they are: BLAS ``dgemv`` can round a row differently when its position
    within the call changes, so another chunking would change the last bits.
    """
    ts = np.asarray(ts, dtype=float)
    if f1a.width <= 0 or f1b.width <= 0:
        return np.array([acceptance_probability(f1a, f1b, float(t)) for t in ts])
    _require_common_support(f1a, f1b)
    nodes, weights = _composite_gl_nodes(1024, 4)
    x = np.asarray(f1a.quantile(nodes), dtype=float)
    out = np.empty(ts.size)
    chunk = max(1, 4_000_000 // x.size)
    inner = np.empty((min(chunk, ts.size), x.size))
    for start in range(0, ts.size, chunk):
        stop = min(start + chunk, ts.size)
        for lo in range(start, stop, _CDF_ROWS):
            hi = min(lo + _CDF_ROWS, stop)
            inner[lo - start : hi - start] = f1b.cdf(x[None, :] - ts[lo:hi, None])
        out[start:stop] = inner[: stop - start] @ weights
    return np.clip(1.0 - out, 0.0, 1.0)


@lru_cache(maxsize=16)
def _offer_grid(
    outer: ValueDistribution, inner: ValueDistribution, grid_points: int
) -> tuple[np.ndarray, np.ndarray]:
    """Offers ``linspace(0, width, grid_points)`` and their acceptance curve.

    The curve depends only on the (frozen, hashable) distribution pair, so it
    is computed once per process and shared; both arrays are read-only.
    """
    ts = np.linspace(0.0, max(outer.width, 0.0), grid_points)
    accept = acceptance_curve(outer, inner, ts)
    ts.setflags(write=False)
    accept.setflags(write=False)
    return ts, accept


def optimal_offer(
    v2a: float,
    v2b: float,
    f1a: ValueDistribution,
    f1b: ValueDistribution,
    *,
    allow_equal_values: bool = False,
) -> OptimalOffer:
    """Maximize the offerer's expected payoff over nonnegative offers.

    A 2001-point grid over [0, support width] locates the neighborhood of the
    maximum and golden-section search refines it to 1e-5; ties break toward
    the smallest offer.  Requires a trade motive ``v2a > v2b`` (pass
    ``allow_equal_values`` to admit the boundary case, whose optimum is 0).
    """
    if v2a < v2b or (v2a == v2b and not allow_equal_values):
        raise PreconditionError("no trade motive: the held item is already preferred")
    _require_common_support(f1a, f1b)
    ts, accept = _offer_grid(f1a, f1b, _OFFER_GRID_POINTS)
    payoff = (v2a - ts) * accept + v2b * (1.0 - accept)
    best_idx = int(np.argmax(payoff))

    def objective(t: float) -> float:
        return seller_expected_payoff(v2a, v2b, f1a, f1b, t)

    a = float(ts[max(best_idx - 1, 0)])
    b = float(ts[min(best_idx + 1, _OFFER_GRID_POINTS - 1)])
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = objective(c), objective(d)
    while b - a > _OFFER_RESOLUTION:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = objective(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = objective(d)

    grid_t = float(ts[best_idx])
    refined = 0.5 * (a + b)
    candidates = [(grid_t, objective(grid_t)), (refined, objective(refined))]
    best_t, best_val = min(candidates, key=lambda tv: (-tv[1], tv[0]))
    return OptimalOffer(
        t_star=best_t,
        expected_payoff=best_val,
        acceptance=acceptance_probability(f1a, f1b, best_t),
    )


# ---------------------------------------------------------------------------
# Offer distribution and first-mover utility
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OfferDistribution:
    """Empirical law of the optimal offer, conditional on an offer being made.

    ``no_offer_probability`` is the chance the second player already prefers
    the item they received (computed by quadrature, not from the draws).
    """

    offers: np.ndarray
    no_offer_probability: float
    n_draws: int
    degenerate: bool

    def cdf(self, s: float) -> float:
        """P(offer < s), strict, among draws where an offer is made."""
        if self.offers.size == 0:
            return 0.0
        return float(np.searchsorted(self.offers, s, side="left")) / self.offers.size

    def tail_mean(self, threshold: float) -> float:
        """Mean offer among offers >= threshold (0 when none)."""
        idx = int(np.searchsorted(self.offers, threshold, side="left"))
        tail = self.offers[idx:]
        return float(tail.mean()) if tail.size else 0.0


@lru_cache(maxsize=16)
def _offer_envelope(
    outer: ValueDistribution, inner: ValueDistribution
) -> tuple[np.ndarray, np.ndarray]:
    """Grid argmax of ``(gain - t) * accept(t)`` as a function of the gain.

    Per grid offer the objective is ``accept[i] * g - accept[i] * ts[i]``, a
    line in the gain ``g``; the argmax over the grid is the upper envelope of
    those lines.  Acceptance is nondecreasing in ``t``, so slopes arrive
    sorted and the envelope builds in one stack pass.  Returns the offers on
    the envelope and the cut points between them (``cuts[k]`` is the gain
    where offer ``k + 1`` overtakes offer ``k``), read-only and computed once
    per distribution pair per process.
    """
    ts, accept = _offer_grid(outer, inner, _ENVELOPE_GRID_POINTS)
    slopes = accept
    intercepts = -accept * ts

    stack: list[int] = []  # line indices on the envelope, slopes increasing
    cuts: list[float] = []  # cuts[k]: gain where stack[k+1] overtakes stack[k]

    def crossing(i: int, j: int) -> float:
        return (intercepts[i] - intercepts[j]) / (slopes[j] - slopes[i])

    for i in range(ts.size):
        if stack and slopes[stack[-1]] == slopes[i]:
            # Same acceptance: the earlier (cheaper) offer dominates.
            if intercepts[stack[-1]] >= intercepts[i]:
                continue
            stack.pop()
            if cuts:
                cuts.pop()
        while len(stack) >= 2 and crossing(stack[-1], i) <= cuts[-1]:
            stack.pop()
            cuts.pop()
        if stack:
            cuts.append(crossing(stack[-1], i))
        stack.append(i)

    offers = ts[np.asarray(stack)]
    cut_points = np.asarray(cuts, dtype=float)
    offers.setflags(write=False)
    cut_points.setflags(write=False)
    return offers, cut_points


def _grid_optimal_offers(
    gains: np.ndarray, outer: ValueDistribution, inner: ValueDistribution
) -> np.ndarray:
    """Each gain's grid-optimal offer: one binary search on the cached envelope."""
    offers, cuts = _offer_envelope(outer, inner)
    return offers[np.searchsorted(cuts, gains, side="left")]


def offer_distribution(
    f2a: ValueDistribution,
    f2b: ValueDistribution,
    f1a: ValueDistribution,
    f1b: ValueDistribution,
    received_item: str,
    n_draws: int,
    seed: int,
) -> OfferDistribution:
    """Monte-Carlo law of the second player's optimal offer.

    Draws the second player's private values, keeps the draws with a motive to
    trade away from ``received_item``, and computes each draw's optimal offer
    on a shared dense grid.  Same seed, same distribution.
    """
    if n_draws < 1:
        raise ValueError("n_draws must be at least 1")
    if received_item not in ("A", "B"):
        raise ValueError("received_item must be 'A' or 'B'")
    _require_common_support(f1a, f1b)
    rng = np.random.default_rng(seed)
    va = f2a.sample(rng, n_draws)
    vb = f2b.sample(rng, n_draws)
    if received_item == "B":
        gains = va - vb
        # Holder of B courts the holder of A.
        outer, inner = f1a, f1b
        no_offer = stieltjes_cdf_integral(f2b, f2a, 0.0)
    else:
        gains = vb - va
        outer, inner = f1b, f1a
        no_offer = stieltjes_cdf_integral(f2a, f2b, 0.0)
    gains = gains[gains > 0]
    offers = np.sort(_grid_optimal_offers(gains, outer, inner)) if gains.size else np.array([])
    return OfferDistribution(
        offers=offers,
        no_offer_probability=float(no_offer),
        n_draws=n_draws,
        degenerate=gains.size == 0,
    )


@dataclass(frozen=True)
class FirstMoverResult:
    eu_choose_a: float
    eu_choose_b: float
    best_choice: str
    se_choose_a: float
    se_choose_b: float


def _branch_eu(
    v_keep: float, v_other: float, offers: OfferDistribution
) -> tuple[float, float]:
    """Expected utility of a pick given the opposing offer law, plus a rough SE.

    Three cases: no offer arrives (keep), an arriving offer falls short of the
    indifference threshold (keep), or it clears the threshold (swap and pocket
    the payment).
    """
    theta = v_keep - v_other
    t_short = offers.cdf(theta)
    eu = offers.no_offer_probability * v_keep + (1.0 - offers.no_offer_probability) * (
        t_short * v_keep + (1.0 - t_short) * (v_other + offers.tail_mean(theta))
    )
    # Spread of the per-offer utility, scaled by the conditional sample size.
    if offers.offers.size:
        util = np.where(offers.offers < theta, v_keep, v_other + offers.offers)
        se = float(util.std(ddof=1) / math.sqrt(offers.offers.size)) if util.size > 1 else 0.0
    else:
        se = 0.0
    return float(eu), se


def first_mover_expected_utility(
    v1a: float,
    v1b: float,
    f2a: ValueDistribution,
    f2b: ValueDistribution,
    f1a: ValueDistribution,
    f1b: ValueDistribution,
    n_draws: int,
    seed: int,
) -> FirstMoverResult:
    """Expected utility of the first pick, composed from the offer law.

    Picking A leaves the opponent with B, so the relevant offer distribution
    conditions on them wanting A, and symmetrically for picking B.  Ties on
    the comparison go to A.
    """
    seeds = np.random.SeedSequence(seed).generate_state(2)
    offers_after_a = offer_distribution(f2a, f2b, f1a, f1b, "B", n_draws, int(seeds[0]))
    offers_after_b = offer_distribution(f2a, f2b, f1a, f1b, "A", n_draws, int(seeds[1]))
    eu_a, se_a = _branch_eu(v1a, v1b, offers_after_a)
    eu_b, se_b = _branch_eu(v1b, v1a, offers_after_b)
    return FirstMoverResult(
        eu_choose_a=eu_a,
        eu_choose_b=eu_b,
        best_choice="A" if eu_a >= eu_b else "B",
        se_choose_a=se_a,
        se_choose_b=se_b,
    )


def simulate_first_mover_game(
    v1a: float,
    v1b: float,
    f2a: ValueDistribution,
    f2b: ValueDistribution,
    f1a: ValueDistribution,
    f1b: ValueDistribution,
    choice: str,
    n_draws: int,
    seed: int,
) -> tuple[float, float]:
    """Direct rollout of the whole game for one initial pick: (mean, std-error).

    Independent oracle for :func:`first_mover_expected_utility`: it never uses
    the three-case decomposition, it just plays out every draw.
    """
    if choice not in ("A", "B"):
        raise ValueError("choice must be 'A' or 'B'")
    _require_common_support(f1a, f1b)
    rng = np.random.default_rng(seed)
    va = f2a.sample(rng, n_draws)
    vb = f2b.sample(rng, n_draws)
    if choice == "A":
        v_keep, v_other = v1a, v1b
        gains = va - vb
        outer, inner = f1a, f1b
    else:
        v_keep, v_other = v1b, v1a
        gains = vb - va
        outer, inner = f1b, f1a
    theta = v_keep - v_other
    util = np.full(n_draws, float(v_keep))
    motive = gains > 0
    if np.any(motive):
        offers = _grid_optimal_offers(gains[motive], outer, inner)
        accepted = offers >= theta
        branch = np.where(accepted, v_other + offers, v_keep)
        util[motive] = branch
    se = float(util.std(ddof=1) / math.sqrt(n_draws)) if n_draws > 1 else 0.0
    return float(util.mean()), se
