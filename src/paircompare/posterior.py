"""Posterior summaries and decisions: Monte Carlo event frequencies,
highest-density intervals, ROPE verdicts, and interval-null Bayes factors."""

from __future__ import annotations

import bisect
import functools
import math
from enum import Enum

import numpy as np

from .bayes import BetaParams, PosteriorPair
from .core import DecisionValue, Direction, Hypothesis, HypothesisKind, Record
from .errors import DomainError, TooFewSamples, UnstableEstimate

MIN_HDI_SAMPLES = 100
# Smallest Bayes-factor component, p0 or 1 - p0, put in a ratio: the larger of
# MIN_COMPONENT and COMPONENT_PER_SHAPE times the larger shape sum of its pair.
# Below it the quadrature's relative error can pass 1e-6 (see bayes_factor_interval_null).
MIN_COMPONENT = 1e-9
COMPONENT_PER_SHAPE = 6e-11
# Tanh-sinh (double-exponential) rule on (0, 1), Takahasi & Mori (1974):
# u = 1 / (1 + exp(-pi sinh t)) at t = k h, |t| <= 4, h = 1/32.  The
# complement 1 - u comes from the mirrored formula, not by subtraction, so no
# node rounds onto an endpoint; the outermost sit 6e-38 from it.  Built by
# _de_rule on first use.
_DE_POINTS = 257  # k = -128 .. 128
# A density with both shapes >= 2 holds under 1e-8 of its mass beyond this
# many sd of its mean; lower shapes pile mass against an endpoint.
_WINDOW_SD = 14.0
# Outer terms below this share of the largest get no inner integral; together
# they move a probability by under 1e-17.
_NEGLIGIBLE_TERM = 1e-20
# Outer nodes per block of inner integrals, for temporaries under 64 KiB.
_BLOCK_ROWS = (1 << 16) // (8 * _DE_POINTS)
# Beyond these shapes the interval probability's measured error passes 1e-6.
MIN_SHAPE = 0.2
MAX_SHAPE_SUM = 1.5e10
# hdi_of_difference: the degree of the Chebyshev series on each panel of the
# difference's window, and the steps each root-find may take, the last under
# this many sd of the difference.
_CHEBYSHEV_DEGREE = 64
_NEWTON_STEPS = 50
_NEWTON_TOL = 1e-12
# A panel's series has settled when its last _TAIL coefficients are within
# _RESOLVED of the largest density; the window holds at most _MAX_PANELS.
_TAIL = 8
_RESOLVED = 1e-8
_ROUNDING = 1e-16
_MAX_PANELS = 64


class EventProbability(Record):
    """Monte Carlo estimate of a posterior event probability.

    ``mc_se`` is ``sqrt(p (1 - p) / n)`` over ``n`` draws; ``halfwidth95`` is
    the 1.96 * mc_se margin reported next to the estimate.
    """

    estimate: float
    mc_se: float
    halfwidth95: float
    n: int


class Hdi(Record):
    """Highest-density interval of a sample: the shortest window holding ``mass``."""

    lower: float
    upper: float
    mass: float

    @property
    def width(self) -> float:
        return self.upper - self.lower


class RopeRelation(Enum):
    HDI_INSIDE_ROPE = "hdi_inside_rope"
    HDI_OUTSIDE_ROPE = "hdi_outside_rope"
    OVERLAP = "overlap"


class BayesFactorResult(Record):
    """Interval-null Bayes factor BF01 and the two probabilities it is built from.

    ``bf01`` is exactly ``(post_p0 / (1 - post_p0)) / (prior_p0 / (1 - prior_p0))``.
    """

    bf01: float
    prior_p0: float
    post_p0: float


def hdi_from_samples(samples, mass: float = 0.95) -> Hdi:
    """Shortest contiguous window of order statistics holding ``mass``.

    Ties between equally narrow windows resolve to the smallest lower
    endpoint.  The endpoints are always order statistics of the input.  A
    sample already in ascending order is used as it is, with no sorted copy.

    Raises
    ------
    TooFewSamples
        With fewer than 100 samples the window ends are too noisy.
    DomainError
        If ``mass`` is outside (0, 1].
    """
    x = np.asarray(samples, dtype=float).ravel()
    if not np.all(x[:-1] <= x[1:]):  # a sorted sample is read in place
        x = np.sort(x)
    if x.size < MIN_HDI_SAMPLES:
        raise TooFewSamples(f"need at least {MIN_HDI_SAMPLES} samples, got {x.size}")
    if not 0.0 < mass <= 1.0:
        raise DomainError(f"mass must lie in (0, 1], got {mass!r}")
    window = int(math.ceil(mass * x.size))
    window = min(window, x.size)
    widths = x[window - 1:] - x[: x.size - window + 1]
    i = int(np.argmin(widths))  # argmin takes the first minimum: smallest lower endpoint
    return Hdi(float(x[i]), float(x[i + window - 1]), mass)


def event_probability_from_sorted(sorted_diffs, hypothesis: Hypothesis) -> EventProbability:
    """Frequency of ``hypothesis``'s event in a sample of difference draws in
    ascending order, NaNs last, as ``numpy.sort`` leaves them.  The count
    comes from binary searches, so the sample is read in place, with no mask."""
    diffs = np.asarray(sorted_diffs, dtype=float)
    if diffs.ndim != 1 or diffs.size == 0:
        raise DomainError("sorted_diffs must be a non-empty 1-D array")
    return _frequency(_sorted_event_count(diffs, hypothesis), diffs.size)


def _frequency(hits: int, n: int) -> EventProbability:
    estimate = float(hits) / n
    mc_se = math.sqrt(estimate * (1.0 - estimate) / n)
    return EventProbability(estimate, mc_se, 1.96 * mc_se, n)


def _sorted_event_count(diffs: np.ndarray, hypothesis: Hypothesis) -> int:
    """How many of the ascending ``diffs`` hold the event: d > margin, d < margin
    or |d| > margin for a directional margin, and |d - margin| < rope_radius,
    with ``d - margin`` rounded, for an interval null.

    Each event is a run of the sorted sample, or the complement of one, so
    its ends are binary searches.  The interval null tests the rounded
    ``diffs - margin``, which is monotone in ``diffs``, so its ends are
    searched on that rounded value; no event holds for a NaN.
    """
    margin = hypothesis.margin
    n = int(np.searchsorted(diffs, np.nan))  # NaNs sort last
    if hypothesis.kind is HypothesisKind.DIRECTIONAL_MARGIN:
        above = n - int(np.searchsorted(diffs, margin, "right"))  # d > m
        if hypothesis.direction is Direction.GREATER:
            return above
        if hypothesis.direction is Direction.LESS:
            return int(np.searchsorted(diffs, margin))  # d < m
        # |d| > m: d > m or d < -m, which overlap to cover every d when m < 0.
        return min(n, above + int(np.searchsorted(diffs, -margin)))
    radius = hypothesis.rope_radius
    start = bisect.bisect_left(diffs, True, 0, n, key=lambda d: d - margin > -radius)
    stop = bisect.bisect_left(diffs, True, 0, n, key=lambda d: d - margin >= radius)
    return max(0, stop - start)


def rope_decision(hdi: Hdi, rope_radius: float) -> tuple[RopeRelation, DecisionValue]:
    """Trichotomous comparison of an HDI against the region of practical
    equivalence ``[-rope_radius, rope_radius]`` around a zero difference,
    and the decision it supports (Kruschke 2018).

    Intervals are closed: touching endpoints count as overlap.  The three
    relations map onto decisions as

    * HDI entirely inside the ROPE  -> accept the interval null
    * HDI entirely outside the ROPE -> reject the null
    * any overlap                   -> undecided
    """
    if rope_radius <= 0.0:
        raise DomainError(f"rope_radius must be positive, got {rope_radius!r}")
    if -rope_radius < hdi.lower and hdi.upper < rope_radius:
        return RopeRelation.HDI_INSIDE_ROPE, DecisionValue.ACCEPT_NULL
    if hdi.upper < -rope_radius or hdi.lower > rope_radius:
        return RopeRelation.HDI_OUTSIDE_ROPE, DecisionValue.REJECT_NULL
    return RopeRelation.OVERLAP, DecisionValue.UNDECIDED


@functools.cache
def _de_rule() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The tanh-sinh nodes u, their complements 1 - u, and the log weights;
    built on first use, since the first sinh and exp load numpy kernels that
    a command with no quadrature never runs."""
    t = np.arange(-128, 129) / 32.0
    nodes = 1.0 / (1.0 + np.exp(-np.pi * np.sinh(t)))
    complements = 1.0 / (1.0 + np.exp(np.pi * np.sinh(t)))
    return nodes, complements, np.log(np.pi * np.cosh(t) * nodes * complements / 32.0)


def _panels(params: BetaParams, radius: float) -> tuple[np.ndarray, np.ndarray]:
    # Panel starts and complements of panel ends: the window, cut at radius and 1 - radius.
    lo, hi = 0.0, 1.0
    if min(params.alpha, params.beta) >= 2.0:
        half = _WINDOW_SD * math.sqrt(params.variance)
        lo, hi = max(lo, params.mean - half), min(hi, params.mean + half)
    cuts = np.array(sorted({lo, hi} | {c for c in (radius, 1.0 - radius) if lo < c < hi}))
    return cuts[:-1], 1.0 - cuts[1:]


def _log_density(params: BetaParams, t: np.ndarray, t_c: np.ndarray) -> np.ndarray:
    """log(Beta density / its value at the mean) at t, given t and 1 - t: log(mean)
    goes before the scaling by a - 1, so only the rounding of log(t) grows with a."""
    s = params.alpha + params.beta
    return ((params.alpha - 1.0) * (np.log(t) - math.log(params.alpha / s))
            + (params.beta - 1.0) * (np.log(t_c) - math.log(params.beta / s)))


def _rule(params: BetaParams, lo: np.ndarray, hi_c: np.ndarray):
    """Tanh-sinh nodes t and 1 - t on each panel [lo, 1 - hi_c], a row each, and
    log(weight x Beta density / its value at the mean) there."""
    nodes, complements, log_weights = _de_rule()
    width = 1.0 - hi_c - lo
    t = lo[:, None] + np.multiply.outer(width, nodes)
    t_c = hi_c[:, None] + np.multiply.outer(width, complements)
    return t, t_c, _log_density(params, t, t_c) + (log_weights + np.log(width)[:, None])


def interval_probability_quadrature(params1: BetaParams, params2: BetaParams,
                                    radius: float) -> float:
    """P(|theta1 - theta2| < radius) for independent Beta variates.

    A double tanh-sinh integral.  Each density is normalised by the rule over
    its window (mean +- 14 sd, or [0, 1] when a shape is below 2) cut at
    ``radius`` and ``1 - radius``.  The narrower is integrated over those
    panels, and at each of its nodes t the other over [t +- radius] in its window.

    Worst relative error against scipy's adaptive quadrature, by items per
    system (60 random posterior pairs each) and by smallest shape (priors
    and posteriors of up to 1,000 items against each other).  The rounding
    of log(t) sets the first, the mass beyond the outermost node the second:

    =====  =====  =====  =====  =====  =====  =====  =======  =======
    items  10^2   10^4   10^6   10^8   10^9   10^10  2*10^10  3*10^10
    error  2e-10  1e-9   2e-9   6e-9   6e-8   4e-7   1e-6     2e-6
    shape  0.1    0.13   0.15   0.17   0.2    0.3
    error  2e-4   2e-5   3e-6   5e-7   4e-8   7e-9
    =====  =====  =====  =====  =====  =====  =====  =======  =======

    Raises
    ------
    DomainError
        If ``radius`` is not positive.
    UnstableEstimate
        If a shape is below ``MIN_SHAPE`` (0.2) or a + b exceeds
        ``MAX_SHAPE_SUM`` (1.5e10).
    """
    if radius <= 0.0:
        raise DomainError(f"radius must be positive, got {radius!r}")
    for p in (params1, params2):
        if not (min(p.alpha, p.beta) >= MIN_SHAPE and p.alpha + p.beta <= MAX_SHAPE_SUM):
            raise UnstableEstimate(
                f"Beta({p.alpha:.4g}, {p.beta:.4g}) is outside the quadrature's accurate "
                f"range: shapes >= {MIN_SHAPE:g}, sum <= {MAX_SHAPE_SUM:g}")
    if params2.variance < params1.variance:
        params1, params2 = params2, params1
    t, t_c, log_terms = (x.ravel() for x in _rule(params1, *_panels(params1, radius)))
    terms = np.exp(log_terms - log_terms.max())
    starts, ends_c = _panels(params2, radius)
    norm = np.exp(_rule(params2, starts, ends_c)[2]).sum()
    # The other's mass in [t +- radius]: all where that spans its window, none where they miss.
    lo = np.maximum(t - radius, starts[0])
    hi_c = np.maximum(t_c - radius, ends_c[-1])
    band = ((lo == starts[0]) & (hi_c == ends_c[-1])).astype(float)
    partial = np.flatnonzero((terms > _NEGLIGIBLE_TERM) & (band == 0.0) & (lo < 1.0 - hi_c))
    for start in range(0, partial.size, _BLOCK_ROWS):
        rows = partial[start:start + _BLOCK_ROWS]
        band[rows] = np.exp(_rule(params2, lo[rows], hi_c[rows])[2]).sum(axis=1) / norm
    return float(np.dot(terms, band) / terms.sum())


def bayes_factor_interval_null(prior: BetaParams, posteriors: PosteriorPair,
                               epsilon: float) -> BayesFactorResult:
    """Bayes factor for H0: |theta1 - theta2| < epsilon against its complement.

    BF01 is the ratio of posterior to prior odds of H0, with both systems
    under the one ``prior``.  The prior and posterior probabilities of H0 come
    from :func:`interval_probability_quadrature`; nothing is drawn.  Against
    mpmath at 40 digits (2,000 items per system, epsilon = 0.01) the relative
    error of p0 is at most 5e-10 from p0 = 0.5 down to 1.2e-9, and 4e-9 at
    1.7e-14.  The absolute error of 1 - p0 grows with the shape sum a + b.
    For two equal posteriors at p = 0.5 and epsilon = 6 sd of the difference,
    against scipy and, from 10^8 items, the normal limit:

    =====  =======  =====  =====  =======  ======  ======
    items  2,376    10^4   10^6   10^7     10^8    10^9
    error  4e-14    4e-13  1e-11  1.7e-10  2.6e-9  1.9e-8
    =====  =======  =====  =====  =======  ======  ======

    Over 580 random pairs of 6e5 to 4e9 items, 1 - p0 at 2.5e-11 to 2e-10
    times a + b, against scipy and the normal limit with its skewness and
    kurtosis terms, the worst error was 5.9e-17 (a + b).  So each of p0 and
    1 - p0, prior and posterior, must reach the larger of ``MIN_COMPONENT``
    (1e-9) and ``COMPONENT_PER_SHAPE`` (6e-11) times the larger shape sum of
    its pair, which keeps every component, and both odds, to about 1e-6.

    Raises
    ------
    DomainError
        If ``epsilon`` is outside (0, 1).
    UnstableEstimate
        When p0 or 1 - p0, prior or posterior, falls below that floor.
    """
    if not 0.0 < epsilon < 1.0:
        raise DomainError(f"epsilon must lie in (0, 1), got {epsilon!r}")
    prior_p0 = interval_probability_quadrature(prior, prior, epsilon)
    post_p0 = interval_probability_quadrature(posteriors.post1, posteriors.post2, epsilon)
    for name, p0, pair in (("prior_p0", prior_p0, (prior,)),
                           ("post_p0", post_p0, (posteriors.post1, posteriors.post2))):
        shape_sum = max(q.alpha + q.beta for q in pair)
        floor = max(MIN_COMPONENT, COMPONENT_PER_SHAPE * shape_sum)
        for label, p in ((name, p0), (f"1 - {name}", 1.0 - p0)):
            if p < floor:
                raise UnstableEstimate(
                    f"{label} = {p:.3g} is below {floor:.3g}, the larger of "
                    f"{MIN_COMPONENT:g} and {COMPONENT_PER_SHAPE:g} (a + b) at "
                    f"a + b = {shape_sum:.4g}, where the Bayes factor's quadrature "
                    f"stops being accurate; change epsilon"
                )
    bf01 = (post_p0 / (1.0 - post_p0)) / (prior_p0 / (1.0 - prior_p0))
    return BayesFactorResult(bf01, prior_p0, post_p0)


def _difference_density(post1: BetaParams, post2: BetaParams, x: np.ndarray) -> np.ndarray:
    """Density of theta1 - theta2 at each point of ``x``.

    At each x the rule runs over theta1 = t on the overlap of theta1's window
    and theta2's shifted by x, with theta2 = t - x.  Each panel end is taken
    with its complement, so an end at 0 or 1 stays exact.  Each density is
    normalized by the rule over its own window, as in the quadrature.
    """
    (lo1, c1, norm1), (lo2, c2, norm2) = (
        (starts[0], ends_c[-1], np.exp(_rule(p, starts, ends_c)[2]).sum())
        for p in (post1, post2) for starts, ends_c in [_panels(p, 0.0)])
    de_nodes, de_complements, log_weights = _de_rule()
    density = np.zeros(x.size)
    for start in range(0, x.size, _BLOCK_ROWS):
        shift = x[start:start + _BLOCK_ROWS]
        t_lo, t_c = np.maximum(lo1, lo2 + shift), np.maximum(c1, c2 - shift)
        s_lo, s_c = np.maximum(lo1 - shift, lo2), np.maximum(c1 + shift, c2)
        width = 1.0 - t_c - t_lo
        rows = np.flatnonzero(width > 0.0)  # the windows overlap
        width = width[rows, None]
        nodes, complements = width * de_nodes, width * de_complements
        log_terms = (_log_density(post1, t_lo[rows, None] + nodes, t_c[rows, None] + complements)
                     + _log_density(post2, s_lo[rows, None] + nodes, s_c[rows, None] + complements)
                     + (log_weights + np.log(width)))
        density[start + rows] = np.exp(log_terms).sum(axis=1)
    return density / (norm1 * norm2)


@functools.cache
def _chebyshev_basis() -> np.ndarray:
    """T_k(y_j) = cos(pi j k / n) at the Chebyshev-Lobatto points y_j = cos(pi j / n),
    j <= n, for k <= n + 1, the degree of a series' integral; built on first use."""
    n = _CHEBYSHEV_DEGREE
    return np.cos(np.pi / n * np.outer(np.arange(n + 1), np.arange(n + 2)))


class _DifferenceModel:
    """d's density on the window [lo, hi] as Chebyshev series on panels, cut at
    0, where a shape of exactly 1 leaves a kink.  A panel whose series has not
    settled, its last coefficients above ``_RESOLVED`` times the largest
    density, is halved, at most ``_MAX_PANELS`` panels in all: a posterior
    much narrower than the other, at the same end of [0, 1], leaves a cliff
    at 0 that no one series resolves.  ``at`` gives f and the integral of f
    from lo anywhere in the window; ``cdf`` holds that integral at the nodes."""

    def __init__(self, post1: BetaParams, post2: BetaParams, lo: float, hi: float):
        n = _CHEBYSHEV_DEGREE
        basis = _chebyshev_basis()
        cuts = [lo, 0.0, hi] if lo < 0.0 < hi else [lo, hi]
        pending, panels, peak = list(zip(cuts, cuts[1:])), [], 0.0
        # Each node's log density rounds by about (a + b) 5e-17: no series settles below that.
        resolved = max(_RESOLVED, _ROUNDING * max(p.alpha + p.beta for p in (post1, post2)))
        while pending:
            if len(panels) + len(pending) > _MAX_PANELS:
                raise UnstableEstimate("the density of the difference is not resolved")
            ends = np.array(pending)
            points = ends.mean(axis=1)[:, None] + np.multiply.outer(
                0.5 * (ends[:, 1] - ends[:, 0]), basis[:, 1])
            values = _difference_density(post1, post2, points.ravel()).reshape(points.shape)
            peak = max(peak, float(values.max()))
            values[:, [0, -1]] *= 0.5
            coefficients = (2.0 / n) * (values @ basis[:, :n + 1])
            coefficients[:, [0, -1]] *= 0.5
            settled = np.abs(coefficients[:, -_TAIL:]).max(axis=1) <= resolved * peak
            split = []
            for (a, b), x, c, ok in zip(pending, points, coefficients, settled):
                if ok:
                    panels.append((a, b, x, c))
                else:
                    split += [(a, 0.5 * (a + b)), (0.5 * (a + b), b)]
            pending = split
        panels.sort(key=lambda panel: panel[0])
        signs = (-1.0) ** np.arange(1, n + 2)
        self.ends = [b for _, b, *_ in panels]
        self.degrees = np.arange(n + 2.0)
        self.series, self.nodes, self.cdf = [], [], []
        start = 0.0
        for a, b, x, c in panels:
            half = 0.5 * (b - a)
            # The integral's series: T_k integrates to T_(k+1)/(2(k+1)) - T_(k-1)/(2(k-1)).
            padded = np.concatenate((c, [0.0, 0.0]))
            padded[0] *= 2.0
            integral = np.empty(n + 2)
            integral[1:] = half * (padded[:n + 1] - padded[2:]) / (2.0 * np.arange(1, n + 2))
            integral[0] = -(integral[1:] @ signs)  # zero at the panel's start, y = -1
            # Rows: f and F - F(a), each a series in T_0 .. T_(n+1).
            self.series.append((0.5 * (a + b), half, np.array([[*c, 0.0], integral]), start))
            self.nodes.append(x[::-1])
            self.cdf.append(start + (basis @ integral)[::-1])
            start += integral.sum()
        self.nodes, self.cdf = np.concatenate(self.nodes), np.concatenate(self.cdf)

    def at(self, x: float) -> tuple[float, float]:
        mid, half, rows, start = self.series[min(bisect.bisect_left(self.ends, x),
                                                 len(self.series) - 1)]
        y = min(1.0, max(-1.0, (x - mid) / half))
        f, cdf = rows.dot(np.cos(self.degrees * math.acos(y))).tolist()
        return f, start + cdf


def _quantile(model: _DifferenceModel, p: float, tol: float) -> tuple[float, float]:
    """Where F reaches ``p``, and f there: Newton's method on F, with f as its
    slope, from the chord between the two nodes whose F brackets ``p``, kept
    inside that bracket and halving it where a step would leave."""
    k = min(max(int(np.searchsorted(model.cdf, p)), 1), model.cdf.size - 1)
    (a, b), (cdf_a, cdf_b) = model.nodes[k - 1:k + 1].tolist(), model.cdf[k - 1:k + 1].tolist()
    x = a + (b - a) * (p - cdf_a) / (cdf_b - cdf_a) if cdf_a < p < cdf_b else (
        a if p <= cdf_a else b)
    for _ in range(_NEWTON_STEPS):
        f, cdf = model.at(x)
        if cdf < p:
            a = x
        else:
            b = x
        step = (p - cdf) / f if f > 0.0 else math.inf
        if min(abs(step), b - a) <= max(tol, 4.0 * math.ulp(x)):
            return x, f
        x = x + step if a < x + step < b else 0.5 * (a + b)
    raise UnstableEstimate("the HDI of the difference did not converge")


def _solve_hdi(model: _DifferenceModel, mass: float, tol: float) -> tuple[float, float]:
    """The interval [l, u] holding ``mass`` with f(l) = f(u).  Each lower end l
    has its upper end u(l), where F reaches F(l) + ``mass``; f is unimodal, so
    g(l) = f(u(l)) - f(l) changes sign once, from + to -, at the HDI.
    Bisection over the nodes below l_max, whose u is hi, and l_max itself
    brackets that change; the Illinois form of false position closes the
    bracket to ``tol``."""
    total = float(model.cdf[-1])
    if total < mass:
        raise UnstableEstimate(f"the window's interpolant holds less than mass {mass!r}")

    def gap(lower):  # g(lower), u(lower) and the larger f of the two ends
        f_l, cdf = model.at(lower)
        upper, f_u = _quantile(model, cdf + mass, tol)
        return f_u - f_l, upper, max(f_l, f_u)

    flat = UnstableEstimate("the density of the difference is flat to rounding "
                            "where the HDI would end")
    l_max, f_max = _quantile(model, total - mass, tol)
    points = [*model.nodes[model.nodes < l_max].tolist(), l_max]
    i, j = 0, len(points) - 1
    g_a, g_b = gap(points[i])[0], model.at(float(model.nodes[-1]))[0] - f_max
    if not g_a > 0.0 >= g_b:
        raise flat
    while j - i > 1:
        k = (i + j) // 2
        g = gap(points[k])[0]
        if g > 0.0:
            i, g_a = k, g
        else:
            j, g_b = k, g
    a, b = points[i], points[j]
    kept = 0  # the end kept by the last step: -1 for a, +1 for b
    for _ in range(_NEWTON_STEPS):
        x = (a * g_b - b * g_a) / (g_b - g_a)
        if not a < x < b:
            x = 0.5 * (a + b)
        g, upper, f_end = gap(x)
        if g > 0.0:
            a, g_a = x, g
            g_b *= 0.5 if kept == 1 else 1.0  # b kept twice: halve its weight
            kept = 1
        elif g < 0.0:
            b, g_b = x, g
            g_a *= 0.5 if kept == -1 else 1.0
            kept = -1
        if g == 0.0 or b - a <= max(tol, 4.0 * math.ulp(max(abs(a), abs(b)))):
            break
    else:
        raise UnstableEstimate("the HDI of the difference did not converge")
    # On a flat top the ends are rounding's choice: f must rise between them.
    f_mid = model.at(0.5 * (x + upper))[0]
    if f_mid - f_end <= _RESOLVED * f_mid:
        raise flat
    return x, upper


def hdi_of_difference(post1: BetaParams, post2: BetaParams, mass: float = 0.95) -> Hdi:
    """Exact highest-density interval of d = theta1 - theta2 for independent
    Beta posteriors, with nothing drawn.

    With every shape at least 1 both densities are log-concave, and so is d's,
    since convolution keeps log-concavity (Prekopa 1973).  The HDI is then
    the level set {f >= c} that holds ``mass``: the one interval [l, u] with
    f(l) = f(u) and F(u) - F(l) = ``mass``.  f is the tanh-sinh rule of
    :func:`interval_probability_quadrature` at the Chebyshev points of d's
    window, mean +- (2 + ln(1 / (1 - mass))) sd, on panels split at 0 and
    halved until each series settles; F is the integral of the
    interpolant.  For each lower end l, Newton's method on F places u(l),
    where F reaches F(l) + ``mass``; f(u(l)) - f(l) changes sign once, at the
    HDI, and one root-find over l, bisection over the nodes and then false
    position, places it.  ``mass`` 1 gives d's support, [-1, 1].

    The window is set by the HDI's level c.  The chords of log f from the
    mode through l and u bound f from below inside [l, u] and from above
    outside it, so the tails hold at most c / max f of the mass: c >= (1 -
    mass) max f.  Any log-concave density falls below that within mean +-
    (3.25 + ln(1 / (1 - mass))) sd, since its mode lies within sqrt(3) sd of
    its mean, max f >= 1 / (sqrt(12) sd), and its tail past mean + s sd
    holds at most e^(1 - s) (Lovasz and Vempala 2007, sec. 5).  Densities of
    two exponential pieces, cut or not, which meet each of those bounds,
    fall below it within mean +- (sqrt(3) + ln(1 / (1 - mass))) sd; the
    window's reach lies between.  No input tried has reached past it, but
    where the interpolant's own error, 1e-14 to 1e-12 of the mass, leaves
    the window's F short of a ``mass`` that close to 1.

    Worst endpoint error against scipy's ``quad`` and ``brentq``, at masses
    0.5 and 0.95.  The rounding of each node's log density, about (a + b)
    5e-17, sets the error at large sizes:

    ===================================================================  =======
    the three presets, 10^2 to 10^8 items per system                     8e-11
    the three presets, 10^9 items per system                             2.4e-10
    the presets at 0 or all of n right (a shape of 1 or 1.5), n <= 1000  2.3e-11
    shapes 1.1 to 1.5 at one end of both posteriors (custom priors)      1.1e-11
    ``mass`` 3e-4 and 1e-3, uniform prior, ARC, demo and 10^6 items      1.6e-10
    ===================================================================  =======

    Near ``mass`` 1 the ends lose accuracy without a raise: F's error,
    over the small f at the ends, moves them.  Mirrored posteriors give one
    d, Beta(1, a) - Beta(1, b) and Beta(b, 1) - Beta(a, 1); over a != b in
    10 .. 10^5 their ends lie up to 2e-13 apart at ``mass`` 0.95, 1.5e-11 at
    0.9999, 3e-9 at 1 - 1e-6, 5.7e-7 at 1 - 1e-9 and 3.2e-3 at 1 - 1e-12.

    Raises
    ------
    DomainError
        If ``mass`` is outside (0, 1], or a shape is below 1, where d's
        density need not be unimodal and its HDI need not be one interval.
    UnstableEstimate
        If the density does not settle on ``_MAX_PANELS`` panels, is flat to
        rounding where an end must be placed (a Beta(1, 1) posterior against
        a narrower one can leave it so, and on the counts of the table's last
        row so does any ``mass`` of 1e-4 or less, whose ends lie in d's flat
        top), the window's interpolant holds less than ``mass``, or a
        root-find does not converge.
    """
    if not 0.0 < mass <= 1.0:
        raise DomainError(f"mass must lie in (0, 1], got {mass!r}")
    for p in (post1, post2):
        if min(p.alpha, p.beta) < 1.0:
            raise DomainError(
                f"Beta({p.alpha:.4g}, {p.beta:.4g}) has a shape below 1: the difference's "
                f"density need not be unimodal, so its HDI need not be one interval")
    if mass == 1.0:
        return Hdi(-1.0, 1.0, mass)
    mean, sd = post1.mean - post2.mean, math.sqrt(post1.variance + post2.variance)
    (starts1, ends_c1), (starts2, ends_c2) = _panels(post1, 0.0), _panels(post2, 0.0)
    support = (starts1[0] - (1.0 - ends_c2[-1]), 1.0 - ends_c1[-1] - starts2[0])
    reach = 2.0 + math.log(1.0 / (1.0 - mass))
    lo, hi = max(support[0], mean - reach * sd), min(support[1], mean + reach * sd)
    lower, upper = _solve_hdi(_DifferenceModel(post1, post2, lo, hi), mass, _NEWTON_TOL * sd)
    return Hdi(float(lower), float(upper), mass)
