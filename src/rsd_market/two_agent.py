"""Two-player, two-item bargaining with privately known values.

After the first player picks, the second may offer a payment ``t`` to swap.
This module computes the probability such an offer is accepted, the offerer's
expected payoff and its maximizer, the Monte-Carlo distribution of optimal
offers, and the first mover's expected utility from either initial pick.

Offers are restricted to ``t >= 0`` (the proposer pays to obtain the better
item).  Acceptance comes from one banded adaptive Gauss-Legendre rule,
vectorized over offers.  An acceptance curve, and the envelope of optimal
offers read off it, depend only on the (frozen, hashable) distribution pair,
so each is computed once per process and shared read-only.  The optimal offer
is nondecreasing in the gain from trade, so the sorted offer law is the
envelope's offers, each repeated by the number of sorted draws between its
cut points.

Distribution parameters and player values must be finite; anything else
raises ``ValueError``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.special import ndtr, ndtri

from .errors import PreconditionError, parse_spec

_QUAD_TOL = 1e-9
_OFFER_GRID_POINTS = 2001
_ZOOM_POINTS = 33
_OFFER_RESOLUTION = 1e-5
_ENVELOPE_GRID_POINTS = 8193


def _require_finite(what: str, *values: float) -> None:
    if not all(math.isfinite(v) for v in values):
        raise ValueError(f"{what} must be finite")


# ---------------------------------------------------------------------------
# Value distributions
# ---------------------------------------------------------------------------


class ValueDistribution:
    """Common interface: compact support, cdf, quantile, seeded sampling."""

    lower: float
    upper: float

    def cdf(self, x):  # pragma: no cover - interface stub
        raise NotImplementedError

    def _quantile_in_place(self, u: np.ndarray) -> np.ndarray:  # pragma: no cover - interface stub
        raise NotImplementedError

    def quantile(self, u):
        """Quantiles of ``u`` in a new array (a scalar for a 0-d ``u``)."""
        return self._quantile_in_place(np.array(u, dtype=float))[()]

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """``quantile(rng.random(size))``, computed in the fresh uniforms."""
        return self._quantile_in_place(rng.random(size))

    @property
    def width(self) -> float:
        return self.upper - self.lower


@dataclass(frozen=True)
class Uniform(ValueDistribution):
    lower: float
    upper: float

    def __post_init__(self) -> None:
        _require_finite("uniform support", self.lower, self.upper)
        if not self.upper > self.lower:
            raise ValueError("uniform support must have positive width")

    def cdf(self, x):
        return ((np.asarray(x, dtype=float) - self.lower) / self.width).clip(0.0, 1.0)

    def _quantile_in_place(self, u):
        u *= self.width
        u += self.lower
        return u


@dataclass(frozen=True)
class TruncatedNormal(ValueDistribution):
    """Normal(mu, sigma) conditioned on the compact interval [lower, upper].

    An interval above the mean is standardized with ``sign = -1``, so ``ndtr``
    works in the lower tail, where it keeps its precision."""

    lower: float
    upper: float
    mu: float
    sigma: float
    # Standard normal cdf at the two signed truncation points, and their gap.
    sign: float = field(init=False, repr=False, compare=False)
    phi_lower: float = field(init=False, repr=False, compare=False)
    phi_gap: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        _require_finite("truncated normal parameters", self.lower, self.upper, self.mu, self.sigma)
        if not self.upper > self.lower:
            raise ValueError("support must have positive width")
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")
        sign = -1.0 if self.lower > self.mu else 1.0
        a = float(ndtr((self.lower - self.mu) / (sign * self.sigma)))
        b = float(ndtr((self.upper - self.mu) / (sign * self.sigma)))
        if b == a:
            raise ValueError("truncated normal has no probability mass on its support")
        object.__setattr__(self, "sign", sign)
        object.__setattr__(self, "phi_lower", a)
        object.__setattr__(self, "phi_gap", b - a)

    def cdf(self, x):
        z = ndtr((np.asarray(x, dtype=float) - self.mu) / (self.sign * self.sigma))
        return ((z - self.phi_lower) / self.phi_gap).clip(0.0, 1.0)

    def _quantile_in_place(self, u):
        # mu + sign * sigma * ndtri(phi_lower + u * phi_gap), step by step.
        u *= self.phi_gap
        u += self.phi_lower
        ndtri(u, out=u)
        u *= self.sign * self.sigma
        u += self.mu
        return u


@dataclass(frozen=True)
class PointMass(ValueDistribution):
    """Degenerate distribution concentrated on a single value."""

    value: float

    def __post_init__(self) -> None:
        _require_finite("point mass", self.value)

    @property
    def lower(self) -> float:  # type: ignore[override]
        return self.value

    @property
    def upper(self) -> float:  # type: ignore[override]
        return self.value

    def cdf(self, x):
        return (np.asarray(x, dtype=float) >= self.value).astype(float)

    def _quantile_in_place(self, u):
        u.fill(self.value)
        return u


def parse_distribution(spec: str) -> ValueDistribution:
    """Parse ``uniform:LO,HI``, ``truncnorm:LO,HI,MU,SIGMA`` or ``point:V``."""
    kinds = {"uniform": (float,) * 2, "truncnorm": (float,) * 4, "point": (float,)}
    kind, fields = parse_spec(spec, "distribution", kinds)
    return {"uniform": Uniform, "truncnorm": TruncatedNormal, "point": PointMass}[kind](*fields)


# ---------------------------------------------------------------------------
# Quadrature
# ---------------------------------------------------------------------------


# Offers per block: keeps a long curve's node arrays to a few megabytes.
_SHIFT_BLOCK = 512


@lru_cache(maxsize=1)
def _gl_rule() -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of a 48-node Gauss-Legendre panel on [-1, 1], then of
    a 96-node one, so one integrand call serves both panels.  Built on first
    use: ``leggauss`` solves an eigenproblem, and starting LAPACK at import
    would cost every importer about 1 MB."""
    (x48, w48), (x96, w96) = (np.polynomial.legendre.leggauss(n) for n in (48, 96))
    return np.concatenate([x48, x96]), np.concatenate([w48, w96])


def _adaptive_bands(outer, inner, shift, a, b, tol, depth=0):
    """Integral of ``inner.cdf(outer.quantile(u) - shift)`` over ``u`` in
    ``[a, b]``, one row per entry of the equal-length arrays.  A row whose 48-
    and 96-node panels differ by more than ``tol`` is the sum of its halves,
    each with ``tol / 2``, down to depth 12; any other row is its 96-node panel.
    """
    nodes, weights = _gl_rule()
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    u = mid[:, None] + half[:, None] * nodes
    wf = weights * inner.cdf(outer.quantile(u) - shift[:, None])
    coarse = half * wf[:, :48].sum(axis=1)
    fine = half * wf[:, 48:].sum(axis=1)
    split = np.flatnonzero(np.abs(fine - coarse) > tol) if depth < 12 else []
    if len(split):
        s, m = shift[split], mid[split]
        halves = _adaptive_bands(
            outer, inner, np.concatenate([s, s]), np.concatenate([a[split], m]),
            np.concatenate([m, b[split]]), tol / 2, depth + 1,
        )
        fine[split] = halves[: len(split)] + halves[len(split) :]
    return fine


def _shifted_cdf_mean(
    outer: ValueDistribution, inner: ValueDistribution, shifts: np.ndarray
) -> np.ndarray:
    """``E[inner.cdf(X - s)]`` for ``X ~ outer``, for each ``s`` in the 1-d ``shifts``.

    With ``u = outer.cdf(x)`` the integrand is 0 below and 1 above the band
    ``[outer.cdf(s + inner.lower), outer.cdf(s + inner.upper)]``, so only the
    band needs quadrature.  A band of width 0 integrates to exactly 0, which
    gives a point-mass inner its closed form ``1 - outer.cdf(s + value)``; a
    point-mass outer is ``inner.cdf(value - s)``.  Each value depends only on
    its own shift.
    """
    if isinstance(outer, PointMass):
        return np.asarray(inner.cdf(outer.value - shifts), dtype=float)
    u_lo, u_hi = outer.cdf(np.add.outer((inner.lower, inner.upper), shifts)).clip(0.0, 1.0)
    middle = np.empty(shifts.size)
    for i in range(0, shifts.size, _SHIFT_BLOCK):
        block = slice(i, i + _SHIFT_BLOCK)
        middle[block] = _adaptive_bands(
            outer, inner, shifts[block], u_lo[block], u_hi[block], _QUAD_TOL
        )
    return (middle + (1.0 - u_hi)).clip(0.0, 1.0)


def stieltjes_cdf_integral(
    outer: ValueDistribution, inner: ValueDistribution, shift: float = 0.0
) -> float:
    """Evaluate the expectation of ``inner.cdf(X - shift)`` for ``X ~ outer``."""
    return float(_shifted_cdf_mean(outer, inner, np.array([float(shift)]))[0])


# ---------------------------------------------------------------------------
# Acceptance and payoff of an offer
# ---------------------------------------------------------------------------


def _require_common_support(f_a: ValueDistribution, f_b: ValueDistribution) -> None:
    if not (
        math.isclose(f_a.lower, f_b.lower, abs_tol=1e-12)
        and math.isclose(f_a.upper, f_b.upper, abs_tol=1e-12)
    ):
        raise ValueError("acceptor value distributions must share a common support")


def _acceptance(f1a: ValueDistribution, f1b: ValueDistribution, ts: np.ndarray) -> np.ndarray:
    _require_common_support(f1a, f1b)
    if isinstance(f1a, PointMass):
        # The common support makes f1b the same point mass: v + t >= v.
        return (ts >= 0.0).astype(float)
    return 1.0 - _shifted_cdf_mean(f1a, f1b, ts)


def acceptance_probability(
    f1a: ValueDistribution, f1b: ValueDistribution, t: float
) -> float:
    """Probability the first player swaps item A for item B plus a payment ``t``.

    They accept when ``v1(B) + t >= v1(A)``; with ``v1(A) ~ f1a`` and
    ``v1(B) ~ f1b`` independent, this equals one minus the expectation of
    ``f1b(v1(A) - t)``.  Nondecreasing in ``t`` up to rounding, and pinned to
    0/1 once ``t`` leaves the support-width band.
    """
    _require_finite("offer", t)
    return float(_acceptance(f1a, f1b, np.array([float(t)]))[0])


def acceptance_curve(
    f1a: ValueDistribution, f1b: ValueDistribution, ts: np.ndarray
) -> np.ndarray:
    """Acceptance probabilities over a 1-d array of offers, each equal to
    :func:`acceptance_probability` at that offer bit for bit."""
    return _acceptance(f1a, f1b, np.asarray(ts, dtype=float))


def _payoff(v2a, v2b, t, accept):
    return (v2a - t) * accept + v2b * (1.0 - accept)


def seller_expected_payoff(
    v2a: float, v2b: float, f1a: ValueDistribution, f1b: ValueDistribution, t: float
) -> float:
    """Expected payoff of offering ``t`` while holding B: get A and pay on
    acceptance, keep B otherwise."""
    return _payoff(v2a, v2b, t, acceptance_probability(f1a, f1b, t))


# ---------------------------------------------------------------------------
# Optimal offer
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OptimalOffer:
    t_star: float
    expected_payoff: float
    acceptance: float


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
) -> OptimalOffer:
    """Maximize the offerer's expected payoff over nonnegative offers.

    The argmax over a 2001-point grid on [0, support width], then over 33
    offers between the best point's neighbours, until they lie within 1e-5 or
    stop narrowing (where 1e-5 is below an ulp); ties break toward the smallest
    offer.  Requires ``v2a >= v2b``; at equal values the optimum is the zero
    offer.
    """
    _require_finite("values", v2a, v2b)
    if v2a < v2b:
        raise PreconditionError("no trade motive: the held item is already preferred")
    ts, accept = _offer_grid(f1a, f1b, _OFFER_GRID_POINTS)
    points, span = [], math.inf
    while True:
        payoff = _payoff(v2a, v2b, ts, accept)
        i = int(np.argmax(payoff))
        points.append((-float(payoff[i]), float(ts[i]), float(accept[i])))
        lo, hi = ts[max(i - 1, 0)], ts[min(i + 1, ts.size - 1)]
        if not _OFFER_RESOLUTION < hi - lo < span:
            break
        span = hi - lo
        ts = np.linspace(lo, hi, _ZOOM_POINTS)
        accept = _acceptance(f1a, f1b, ts)
    neg_payoff, t_star, acceptance = min(points)
    return OptimalOffer(t_star=t_star, expected_payoff=-neg_payoff, acceptance=acceptance)


# ---------------------------------------------------------------------------
# Offer distribution and first-mover utility
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OfferDistribution:
    """Empirical law of the optimal offer, conditional on an offer being made.

    ``offers`` holds one offer per draw that makes one, sorted ascending.
    ``no_offer_probability`` is the chance the second player already prefers
    the item they received (computed by quadrature, not from the draws).
    """

    offers: np.ndarray
    no_offer_probability: float


@lru_cache(maxsize=16)
def _offer_envelope(
    outer: ValueDistribution, inner: ValueDistribution
) -> tuple[np.ndarray, np.ndarray]:
    """Grid argmax of ``(gain - t) * accept(t)`` as a function of the gain.

    Per grid offer the objective is ``accept[i] * g - accept[i] * ts[i]``, a
    line in the gain ``g``; the argmax over the grid is the upper envelope of
    those lines.  The slopes are the running maximum of the acceptance, which
    can dip by an ulp where it saturates (an offer that dips stays dominated by
    a cheaper one), so they arrive sorted and the envelope builds in one stack
    pass.  Returns the offers on the envelope and the cut points between them
    (``cuts[k]`` is the gain where offer ``k + 1`` overtakes offer ``k``),
    read-only and computed once per distribution pair per process.
    """
    ts, accept = _offer_grid(outer, inner, _ENVELOPE_GRID_POINTS)
    slopes = np.maximum.accumulate(accept)
    intercepts = -slopes * ts

    stack: list[int] = []  # line indices on the envelope, slopes increasing
    cuts: list[float] = []  # cuts[k]: gain where stack[k+1] overtakes stack[k]

    def crossing(i: int, j: int) -> float:
        return (intercepts[i] - intercepts[j]) / (slopes[j] - slopes[i])

    for i in range(ts.size):
        if stack and slopes[stack[-1]] == slopes[i]:
            continue  # same slope: the earlier (cheaper) offer dominates
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


def _sorted_gains(
    f2a: ValueDistribution, f2b: ValueDistribution, n_draws: int, seed: int
) -> np.ndarray:
    """The second player's ``va - vb`` over ``n_draws`` seeded value pairs,
    sorted, computed in the array of ``va`` draws."""
    if n_draws < 1:
        raise ValueError("n_draws must be at least 1")
    rng = np.random.default_rng(seed)
    gains = f2a.sample(rng, n_draws)
    gains -= f2b.sample(rng, n_draws)
    gains.sort()
    return gains


def _offer_law(
    gains: np.ndarray,
    f2a: ValueDistribution,
    f2b: ValueDistribution,
    f1a: ValueDistribution,
    f1b: ValueDistribution,
    received_item: str,
) -> tuple[float, np.ndarray, np.ndarray]:
    """Offer law of the holder of ``received_item``, from :func:`_sorted_gains`:
    the no-offer probability, the envelope's offers and how many draws make
    each, so the sorted offers are ``np.repeat(offers, counts)``.

    The positive gains make offers, and offer ``k`` of the cached envelope
    takes those in ``(cuts[k-1], cuts[k]]``: one binary search per cut, none
    per draw.  The holder of A gains ``vb - va``, which is ``-gains`` bit for
    bit (``fl(a - b) == -fl(b - a)``), so that branch counts the negative
    gains, where ``-g <= c`` exactly when ``g >= -c``.
    """
    _require_common_support(f1a, f1b)
    if received_item == "B":
        # Holder of B courts the holder of A.
        outer, inner, no_offer = f1a, f1b, stieltjes_cdf_integral(f2b, f2a, 0.0)
        motive = gains[np.searchsorted(gains, 0.0, side="right") :]
    else:
        outer, inner, no_offer = f1b, f1a, stieltjes_cdf_integral(f2a, f2b, 0.0)
        motive = gains[: np.searchsorted(gains, 0.0, side="left")]
    if not motive.size:
        return no_offer, np.array([]), np.array([], dtype=np.intp)
    offers, cuts = _offer_envelope(outer, inner)
    if received_item == "B":
        at_or_below = np.searchsorted(motive, cuts, side="right")
    else:
        at_or_below = motive.size - np.searchsorted(motive, -cuts, side="left")
    return no_offer, offers, np.diff(at_or_below, prepend=0, append=motive.size)


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

    Draws the second player's private values and keeps the positive gains
    from trading away ``received_item``, each mapped to its grid-optimal
    offer.  Same seed, same distribution.
    """
    if received_item not in ("A", "B"):
        raise ValueError("received_item must be 'A' or 'B'")
    gains = _sorted_gains(f2a, f2b, n_draws, seed)
    no_offer, offers, counts = _offer_law(gains, f2a, f2b, f1a, f1b, received_item)
    return OfferDistribution(offers=np.repeat(offers, counts), no_offer_probability=float(no_offer))


@dataclass(frozen=True)
class FirstMoverResult:
    eu_choose_a: float
    eu_choose_b: float
    best_choice: str
    se_choose_a: float
    se_choose_b: float


def _branch_eu(
    v_keep: float, v_other: float, no_offer: float, offers: np.ndarray, counts: np.ndarray
) -> tuple[float, float]:
    """Expected utility of a pick given the opposing :func:`_offer_law`, plus a rough SE.

    Three cases: no offer arrives (keep), an arriving offer falls short of the
    indifference threshold (keep), or it clears the threshold (swap and pocket
    the payment).
    """
    theta = v_keep - v_other
    size = int(counts.sum())
    k = int(np.searchsorted(offers, theta, side="left"))  # offers[:k] fall short
    short = int(counts[:k].sum())
    t_short = short / size if size else 0.0
    tail_mean = float(np.repeat(offers[k:], counts[k:]).mean()) if short < size else 0.0
    eu = no_offer * v_keep + (1.0 - no_offer) * (
        t_short * v_keep + (1.0 - t_short) * (v_other + tail_mean)
    )
    # Spread of the per-offer utility, scaled by the conditional sample size;
    # a constant utility has no spread at all, not a rounding residue.
    util = np.repeat(np.append(float(v_keep), v_other + offers[k:]), np.append(short, counts[k:]))
    if size < 2 or util.min() == util.max():
        return float(eu), 0.0
    return float(eu), float(util.std(ddof=1) / math.sqrt(size))


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
    conditions on them wanting A, and symmetrically for picking B.  One seeded
    sample of the opponent's value pairs serves both picks: a pair with
    ``va > vb`` offers after pick A, one with ``vb > va`` after pick B, and a
    tie in neither.  So each branch's offers are those of
    :func:`offer_distribution` at this same ``seed``, bit for bit.  Ties on
    the comparison go to A.
    """
    _require_finite("values", v1a, v1b)
    gains = _sorted_gains(f2a, f2b, n_draws, seed)
    eu_a, se_a = _branch_eu(v1a, v1b, *_offer_law(gains, f2a, f2b, f1a, f1b, "B"))
    eu_b, se_b = _branch_eu(v1b, v1a, *_offer_law(gains, f2a, f2b, f1a, f1b, "A"))
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
    _require_finite("values", v1a, v1b)
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
