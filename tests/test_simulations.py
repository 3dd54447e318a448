"""The stopping-intention p-values have exact combinatorial answers, so the
oracles here are integer fractions and scipy's binomial families rather than
any part of this package.
"""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
import scipy.special
import scipy.stats

from conftest import seed_sequence_generator
from paircompare.bayes import PRIOR_PRESETS, BetaParams, conjugate_update
from paircompare.core import Direction
from paircompare.errors import DegenerateTest, DomainError
from paircompare.frequentist import pooled_statistic, rejection_boundary, two_proportion_z_test
from paircompare.numerics import std_normal_pdf, std_normal_quantile, stream_keys
from paircompare.simulations import (
    _item_rule,
    _threshold_window,
    _tie_hits,
    optional_stopping_fpr,
    prior_sensitivity_sweep,
    pvalue_fixed_n,
    pvalue_fixed_successes,
    stopping_comparison,
)

# Exact tails for 7 successes in 24 trials at a fair-coin null, computed with
# integer arithmetic: sum_{k<=7} C(24,k) / 2^24 and the matching
# negative-binomial tail P(N >= 24).
FIXED_N_LOWER = Fraction(536155, 16777216)
FIXED_SUCCESSES_LOWER = Fraction(145499, 8388608)


def test_fixed_n_classic_counts_frozen():
    assert pvalue_fixed_n(7, 24, 0.5) == pytest.approx(float(FIXED_N_LOWER), rel=1e-12)


def test_fixed_successes_classic_counts_frozen():
    assert pvalue_fixed_successes(7, 24, 0.5) == pytest.approx(
        float(FIXED_SUCCESSES_LOWER), rel=1e-12)


@pytest.mark.parametrize("s,n,theta", [
    (0, 10, 0.3), (3, 10, 0.3), (10, 10, 0.3),
    (7, 24, 0.5), (45, 120, 0.5), (2, 200, 0.01), (198, 200, 0.97),
])
def test_fixed_n_matches_scipy_binom(s, n, theta):
    assert pvalue_fixed_n(s, n, theta) == pytest.approx(
        scipy.stats.binom(n, theta).cdf(s), rel=1e-10)


@pytest.mark.parametrize("s,n,theta", [
    (1, 5, 0.5), (7, 24, 0.5), (3, 40, 0.1), (12, 30, 0.4), (5, 5, 0.9),
])
def test_fixed_successes_matches_scipy_nbinom(s, n, theta):
    # N >= n is the event of at least n - s failures before the s-th success.
    assert pvalue_fixed_successes(s, n, theta) == pytest.approx(
        scipy.stats.nbinom(s, theta).sf(n - s - 1), rel=1e-10)


def _exact_negative_binomial_tail(a, n, rate):
    """P(N >= n) for the trial N of the a-th success, summed from the
    negative-binomial pmf in integers scaled by the rate's denominator and
    rounded once, in the final division."""
    p, d = rate.as_integer_ratio()
    q = d - p
    below = sum(math.comb(m - 1, a - 1) * p**a * q**(m - a) * d**(n - 1 - m)
                for m in range(a, n))  # P(N <= n - 1) * d**(n - 1)
    return (d**(n - 1) - below) / d**(n - 1)


@pytest.mark.parametrize("rate", [0.1, 0.5, 0.9])
def test_fixed_successes_matches_exact_tails_on_a_grid(rate):
    # The lower tail is small where the complement 1 - P(N <= n - 1) would
    # cancel: 4 successes in 59 trials at rate 0.9 has P(N >= 59) = 2.26e-51.
    for n in range(1, 61):
        for a in range(1, n + 1):
            assert pvalue_fixed_successes(a, n, rate) == pytest.approx(
                _exact_negative_binomial_tail(a, n, rate), rel=1e-12)
    if rate == 0.9:
        assert pvalue_fixed_successes(4, 59, rate) == pytest.approx(2.26284e-51, rel=1e-5)


def test_fixed_n_tails_partition_unit_mass():
    # P(K <= s) at rate p and P(K >= s + 1) = P(24 - K <= 23 - s), the lower
    # tail of the mirrored count at rate 1 - p, add up to one.
    for s in range(0, 24):
        total = pvalue_fixed_n(s, 24, 0.37) + pvalue_fixed_n(23 - s, 24, 1.0 - 0.37)
        assert total == pytest.approx(1.0, abs=1e-12)


def test_fixed_n_certain_null_rate():
    assert pvalue_fixed_n(24, 24, 1.0) == 1.0
    assert pvalue_fixed_n(23, 24, 1.0) == 0.0


def test_fixed_successes_certain_null_rate():
    assert pvalue_fixed_successes(7, 7, 1.0) == 1.0
    assert pvalue_fixed_successes(7, 8, 1.0) == 0.0


def test_stopping_args_validated():
    with pytest.raises(DomainError):
        pvalue_fixed_n(5, 0, 0.5)
    with pytest.raises(DomainError):
        pvalue_fixed_n(11, 10, 0.5)
    with pytest.raises(DomainError):
        pvalue_fixed_n(5, 10, 0.0)
    with pytest.raises(DomainError):
        pvalue_fixed_successes(0, 10, 0.5)


def test_stopping_comparison_same_data_different_pvalues():
    result = stopping_comparison(7, 24, 0.5)
    assert result.fixed_trials_pvalue == pytest.approx(float(FIXED_N_LOWER), rel=1e-12)
    assert result.fixed_successes_pvalue == pytest.approx(
        float(FIXED_SUCCESSES_LOWER), rel=1e-12)
    assert result.gap == pytest.approx(0.01461249589920044, abs=1e-12)
    # The intention alone moves the answer across a 0.025 threshold.
    assert result.fixed_trials_pvalue > 0.025 > result.fixed_successes_pvalue


# Per-direction outcome of 500 null trials with 20 looks (seed 1729): the
# false-positive count and each look's first rejections, pinned so that any
# change to the per-look z-test or the trial streams shows up exactly.
PINNED_PEEKING = {
    Direction.GREATER: (114, (34, 10, 13, 6, 7, 12, 3, 0, 3, 1, 6, 3, 2, 2, 2, 5, 2, 2, 1, 0)),
    Direction.LESS: (117, (24, 15, 19, 8, 4, 7, 7, 3, 4, 3, 3, 1, 1, 4, 3, 0, 1, 5, 1, 4)),
    Direction.TWO_SIDED: (129, (21, 19, 17, 15, 4, 10, 7, 3, 5, 2, 3, 1, 4, 0, 2, 2, 2, 4, 2, 6)),
}


@pytest.mark.parametrize("direction", list(Direction))
def test_optional_stopping_pinned_counts(direction):
    report = optional_stopping_fpr(range(10, 201, 10), 0.5, 0.05, 500, 1729, direction)
    assert (report.false_positives, report.first_rejection_counts) == PINNED_PEEKING[direction]


def test_optional_stopping_single_look_holds_nominal_level():
    report = optional_stopping_fpr([400], 0.5, 0.05, 2000, 99,
                                   direction=Direction.GREATER)
    assert report.false_positive_rate == pytest.approx(0.05, abs=0.02)


def test_optional_stopping_inflates_false_positives():
    looks = list(range(20, 201, 20))
    report = optional_stopping_fpr(looks, 0.5, 0.05, 800, 7)
    single = optional_stopping_fpr([200], 0.5, 0.05, 800, 7)
    assert report.false_positive_rate > 2.0 * single.false_positive_rate
    assert report.false_positive_rate > 0.10


def test_optional_stopping_monotone_under_nested_looks():
    # Stream-per-trial means the same seed replays identical outcome paths,
    # so adding looks can only add rejections. This identity is exact.
    fprs = []
    for looks in ([100], [50, 100], [25, 50, 75, 100]):
        fprs.append(optional_stopping_fpr(looks, 0.5, 0.05, 400, 11).false_positive_rate)
    assert fprs[0] <= fprs[1] <= fprs[2]


def test_optional_stopping_bookkeeping():
    report = optional_stopping_fpr([30, 60, 90], 0.4, 0.05, 300, 5)
    assert sum(report.first_rejection_counts) == report.false_positives
    assert report.false_positive_rate == report.false_positives / 300
    assert report.looks == (30, 60, 90)
    assert report.master_seed == 5


def test_optional_stopping_deterministic():
    a = optional_stopping_fpr([50, 100], 0.5, 0.05, 200, 23)
    b = optional_stopping_fpr([50, 100], 0.5, 0.05, 200, 23)
    assert a == b


def test_optional_stopping_validation():
    with pytest.raises(DomainError):
        optional_stopping_fpr([], 0.5, 0.05, 100, 1)
    with pytest.raises(DomainError):
        optional_stopping_fpr([100, 50], 0.5, 0.05, 100, 1)
    with pytest.raises(DomainError):
        optional_stopping_fpr([50, 50], 0.5, 0.05, 100, 1)
    with pytest.raises(DomainError):
        optional_stopping_fpr([50], 1.0, 0.05, 100, 1)
    with pytest.raises(DomainError):
        optional_stopping_fpr([50], 0.5, 0.0, 100, 1)
    with pytest.raises(DomainError):
        optional_stopping_fpr([50], 0.5, 0.05, 0, 1)
    # Non-integer look sizes and trial counts are refused, not truncated.
    for looks, trials in (([10.5], 100), ([10, 20.5], 100), ([10.0], 100),
                          ([50], 2.5), ([50], 100.0), ([50], np.float64(3))):
        with pytest.raises(DomainError):
            optional_stopping_fpr(looks, 0.5, 0.05, trials, 1)
    with pytest.raises(DomainError):
        optional_stopping_fpr([True, 50], 0.5, 0.05, 100, 1)
    # numpy integers and bools are integers.
    plain = optional_stopping_fpr([10, 20], 0.5, 0.05, 30, 1)
    assert optional_stopping_fpr(np.array([10, 20]), 0.5, 0.05, np.int64(30), 1) == plain
    assert optional_stopping_fpr((n for n in (10, 20)), 0.5, 0.05, 30, 1) == plain
    assert optional_stopping_fpr([10, 20], 0.5, 0.05, True, 1).trials == 1


@pytest.mark.parametrize("seed", [-1, 2**63, 1.5, True], ids=repr)
def test_optional_stopping_refuses_bad_seeds(seed):
    # The seed is refused with the message numerics.stream gives, before any draw.
    with pytest.raises(DomainError, match="master_seed must be an integer in"):
        optional_stopping_fpr([10, 20], 0.5, 0.05, 30, seed)


def _scalar_first_rejection(looks, theta, alpha, seed, t, direction):
    """Reference for one trial, item by item, then the z-test at each look
    until the first rejection.  Returns that look's index or None.

    Item i of the trial's 2 n_max (system 1's n_max, then system 2's) is byte
    i % 8, least significant first, of raw word i // 8 of its stream.  A byte
    other than floor(256 theta) decides the item alone; the j-th item whose
    byte equals it reads the j-th word after the item words.  Each such item
    is a hit iff the 61-bit fraction (2**53 byte + (word >> 11)) / 2**61 lies
    below theta, compared exactly."""
    n_max = looks[-1]
    bitgen = seed_sequence_generator(seed, t).bit_generator
    words = bitgen.random_raw(-(-2 * n_max // 8)).tolist()
    exact = Fraction(theta)
    tie = math.floor(256 * exact)
    hits = []
    for i in range(2 * n_max):
        byte = words[i // 8] >> 8 * (i % 8) & 0xFF
        if byte == tie:
            fraction = Fraction(2**53 * byte + (int(bitgen.random_raw()) >> 11), 2**61)
            hits.append(fraction < exact)
        else:
            hits.append(byte < tie)
    cum1 = np.cumsum(hits[:n_max])
    cum2 = np.cumsum(hits[n_max:])
    for i, n in enumerate(looks):
        try:
            if two_proportion_z_test(int(cum1[n - 1]), n, int(cum2[n - 1]), n,
                                     direction).p_value < alpha:
                return i
        except DegenerateTest:
            pass
    return None


@pytest.mark.parametrize("theta", [2.0**-70, 1e-300, 1 / 256, 0.3, 0.5, 1 - 2.0**-53], ids=repr)
def test_item_rule_is_the_exact_61_bit_comparison(theta):
    # An item with byte b is a hit iff b < t8, or b == t8 and its fallback
    # word's top 53 bits k fall below the bound: exactly when the 61-bit
    # fraction (2**53 b + k) / 2**61 lies below theta, on both sides of the
    # bound and at k's extremes.  The word's low 11 bits, here all set, must
    # not count.
    t8, bound = _item_rule(theta)
    assert 0 <= bound < 2**53
    exact = Fraction(theta)
    for byte in range(256):
        for k in {bound - 1, bound, 0, 2**53 - 1} - {-1}:
            word = np.array([k << 11 | 0x7FF], dtype=np.uint64)
            hit = byte < t8 or (byte == t8 and bool(_tie_hits(word, bound)[0]))
            assert hit == (Fraction(2**53 * byte + k, 2**61) < exact), (byte, k)


def _look_test(direction, alpha):
    """Array reference for the look decisions: ``rejects(c1, c2, n)`` is
    ``two_proportion_z_test(c1, n, c2, n, direction).p_value < alpha`` for (rows,
    looks) count arrays and (looks,) sizes.  ``z`` is the test's own
    ``pooled_statistic`` and the p-value falls as ``s`` (``z``, ``-z`` or ``|z|``)
    rises, so only p-value rounding can disagree with ``s > critical``: cells
    within ``band`` of it (1e-6, plus eight ulps of the tail for subnormal
    ``alpha``) take the scalar test.  A NaN ``z`` (pooled rate 0 or 1) never
    rejects."""
    tail = max(alpha / 2.0 if direction is Direction.TWO_SIDED else alpha, math.ulp(0.0))
    critical = -std_normal_quantile(tail)
    band = 1e-6 + 8.0 * math.ulp(tail) / std_normal_pdf(critical)
    sign = {Direction.GREATER: 1.0, Direction.LESS: -1.0}.get(direction)

    def rejects(c1, c2, n):
        z = pooled_statistic(c1, n, c2, n)[0]
        s = np.abs(z) if sign is None else sign * z
        reject = s > critical
        for i, j in np.argwhere(np.abs(s - critical) <= band):
            reject[i, j] = two_proportion_z_test(
                int(c1[i, j]), int(n[j]), int(c2[i, j]), int(n[j]), direction).p_value < alpha
        return reject

    return rejects


def _assert_look_test_matches_z_test(c1, c2, n, alphas):
    c1, c2 = c1.reshape(-1, 1), c2.reshape(-1, 1)
    degenerate = (c1[:, 0] + c2[:, 0]) % (2 * n) == 0
    for direction in Direction:
        p_values = np.array([
            math.nan if d else two_proportion_z_test(a, n, b, n, direction).p_value
            for a, b, d in zip(c1[:, 0].tolist(), c2[:, 0].tolist(), degenerate)])
        for alpha in alphas:
            mask = _look_test(direction, alpha)(c1, c2, np.array([n]))[:, 0]
            assert not mask[degenerate].any()
            assert np.array_equal(mask[~degenerate], p_values[~degenerate] < alpha), \
                (direction, alpha)


@pytest.mark.parametrize("n", [2, 3, 10, 57, 150])
def test_look_test_matches_pooled_z_on_every_cell(n):
    # The array look test must reject exactly where the pooled z-test's
    # p-value is below alpha, on every (c1, c2) cell, and never on a
    # degenerate one.
    c1, c2 = np.meshgrid(np.arange(n + 1), np.arange(n + 1))
    _assert_look_test_matches_z_test(c1, c2, n, (1e-320, 1e-12, 0.05, 0.5, 0.9999999))


@pytest.mark.parametrize("n", [740, 795, 833])
def test_look_test_matches_pooled_z_at_subnormal_alpha(n):
    # |z| reaches the critical value of a subnormal alpha (about 38) only in
    # the corners of large grids.  There the p-value's rounding moves some
    # decisions by up to 1e-2 in z; at these sizes a band of 1e-6 alone would
    # get cells wrong at each of these alphas.
    low, high = np.meshgrid(np.arange(121), np.arange(n - 120, n + 1))
    for c1, c2 in ((high, low), (low, high)):
        _assert_look_test_matches_z_test(c1, c2, n, (5e-324, 1e-323, 1e-320))


def _boundary_cells(n, s, direction, e):
    """The (c1, c2) of the cells at ``e`` (``c1 - c2``, ``c2 - c1`` for ``less``,
    ``|c1 - c2|`` two-sided) and pooled counts ``s``."""
    high, low = (s + e) // 2, (s - e) // 2
    return (low, high) if direction is Direction.LESS else (high, low)


def _assert_boundary_matches_look_test(ns, alphas):
    n = np.concatenate([np.full(2 * m + 1, m) for m in ns])
    s = np.concatenate([np.arange(2 * m + 1) for m in ns])
    top = np.minimum(s, 2 * n - s)
    for direction in Direction:
        least = s & 1 if direction is Direction.TWO_SIDED else -top
        for alpha in alphas:
            bound = rejection_boundary(n, s, direction, alpha)
            assert ((bound - s) % 2 == 0).all() and (least <= bound).all() \
                and (bound <= top + 2).all(), (direction, alpha)
            rejects = _look_test(direction, alpha)
            for e, want, exists in ((bound, True, bound <= top),
                                    (bound - 2, False, bound - 2 >= least)):
                c1, c2 = _boundary_cells(n[exists], s[exists], direction, e[exists])
                decided = rejects(c1[None], c2[None], n[exists])[0]
                assert (decided == want).all(), (direction, alpha, want)


def test_rejection_boundary_matches_look_test():
    # T(n, s) is the least e of s's parity at which the z-test rejects: the
    # reference rejects at e = T and not at T - 2, for every (n, s) up to
    # n = 400 with both ends of s, and at larger looks, where a subnormal
    # alpha's critical value (about 38) is reached in the corners and the
    # p-value's rounding moves decisions by up to 1e-2 in z: without its
    # confirmation the closed form gets 176 of the 790,614 cells of
    # test_look_test_matches_pooled_z_at_subnormal_alpha wrong.  At fixed
    # (n, s) the look test's z cannot fall as e rises, so these two cells pin
    # every decision.  T's cell at e = 0 relies on std_normal_quantile keeping
    # the sign of p - 0.5.
    _assert_boundary_matches_look_test(
        range(2, 401), (0.5, 0.2, 0.05, 0.01, 1e-3, 1e-6, 1e-12, 1e-320))
    _assert_boundary_matches_look_test((740, 795, 833), (5e-324, 1e-323, 1e-320))
    assert std_normal_quantile(0.5) == 0.0
    for toward in (0.0, 1.0):
        p = 0.5
        for _ in range(1000):
            p = math.nextafter(p, toward)
            assert (std_normal_quantile(p) > 0.0) == (p > 0.5), p


def test_one_sided_half_alpha_build_confirms_few_entries(monkeypatch):
    # At one-sided alpha 0.5 the critical value is 0, so every cell at e = 0
    # lies at it; those cells' z is exactly 0 and needs no scalar test.  The
    # dense schedule's window (43,042 entries) used to send 21,484 of them to
    # the scalar test in each direction.
    from paircompare import frequentist

    calls = []
    real = frequentist.two_proportion_z_test

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(frequentist, "two_proportion_z_test", counting)
    sizes = np.arange(2, 501, 2)
    for direction in (Direction.GREATER, Direction.LESS):
        assert _threshold_window(sizes, 0.5, direction, 0.5, 10**9) is not None
    assert len(calls) <= 4, len(calls)


def _exact_fpr(looks, theta, alpha, direction):
    """Exact false-positive rate of the repeated pooled z-test (Armitage,
    McPherson & Rowe, JRSS A 132(2), 1969).  The joint pmf of the two arms'
    success counts is carried from look to look, convolved on each axis with
    the binomial pmf of the new items, and the rejection region's mass is
    removed at each look."""
    pmf = np.ones((1, 1))
    prev = 0
    rate = 0.0
    for n in looks:
        kernel = scipy.stats.binom.pmf(np.arange(n - prev + 1), n - prev, theta)
        grown = np.zeros((n + 1, prev + 1))
        for j, w in enumerate(kernel):
            grown[j:j + prev + 1, :] += w * pmf
        pmf = np.zeros((n + 1, n + 1))
        for j, w in enumerate(kernel):
            pmf[:, j:j + prev + 1] += w * grown
        counts = np.arange(n + 1, dtype=float)
        c1, c2 = counts[:, None], counts[None, :]
        pooled = (c1 + c2) / (2.0 * n)
        with np.errstate(divide="ignore", invalid="ignore"):
            z = (c1 - c2) / n / np.sqrt(pooled * (1.0 - pooled) * 2.0 / n)
        if direction is Direction.GREATER:
            p = 0.5 * scipy.special.erfc(z / math.sqrt(2.0))
        elif direction is Direction.LESS:
            p = 0.5 * scipy.special.erfc(-z / math.sqrt(2.0))
        else:
            p = np.minimum(1.0, scipy.special.erfc(np.abs(z) / math.sqrt(2.0)))
        reject = (pooled > 0.0) & (pooled < 1.0) & (p < alpha)
        rate += float(pmf[reject].sum())
        pmf[reject] = 0.0
        prev = n
    return rate


@pytest.mark.parametrize("looks,theta,direction,trials", [
    (tuple(range(10, 501, 10)), 0.5, Direction.TWO_SIDED, 10_000),  # criterion 9's schedule
    ((500,), 0.5, Direction.GREATER, 10_000),                       # criterion 12's single look
    (tuple(range(2, 501, 2)), 0.5, Direction.TWO_SIDED, 4_000),     # the dense peeking run
    (tuple(range(10, 501, 10)), 0.03, Direction.GREATER, 10_000),   # rates off 1/256's grid,
    (tuple(range(10, 501, 10)), 0.9, Direction.LESS, 10_000),       # where ties read a word more
], ids=["looks0-Direction.TWO_SIDED", "looks1-Direction.GREATER", "dense-Direction.TWO_SIDED",
        "theta=0.03-Direction.GREATER", "theta=0.9-Direction.LESS"])
def test_optional_stopping_within_4se_of_exact_rate(looks, theta, direction, trials):
    exact = _exact_fpr(looks, theta, 0.05, direction)
    report = optional_stopping_fpr(looks, theta, 0.05, trials, 20260815, direction)
    se = math.sqrt(exact * (1.0 - exact) / trials)
    assert abs(report.false_positive_rate - exact) <= 4.0 * se, (report, exact)


FIBONACCI_LOOKS = (2, 3, 5, 8, 13, 21, 34, 55, 89)


def test_optional_stopping_block_boundaries(monkeypatch):
    # Trial t reads only its own stream, so N trials report what N - 1 do plus
    # trial N - 1's own first rejection, wherever the batch boundaries fall.
    # A batch is the trials whose words, counts and keys fill about 40K 64-bit
    # words, less a threshold window's: here 353, 57 (the dense peeking
    # schedule) and 3 trials with no window, and 638 with one.  Only the
    # 9-look Fibonacci schedule has few enough window entries per cell to
    # build one at these trial counts; the 4,098-look run takes the rejection
    # boundary on every cell.  At theta 0.5 every byte decides its item; at 0.3
    # one in 256 reads a fallback word.  A seed of 2**32 or more takes two
    # entropy words.
    from paircompare import simulations

    for looks, batch, windowed in ((tuple(range(10, 201, 10)), 353, False),
                                   (tuple(range(2, 501, 2)), 57, False),
                                   (tuple(range(2, 4100)), 3, False),
                                   (FIBONACCI_LOOKS, 638, True)):
        # Keys are hashed once per batch, so the hashed ranges show where the
        # batches fall.
        hashed, built = [], []

        def recording(seed, start, count):
            hashed.append(range(start, start + count))
            return stream_keys(seed, start, count)

        def window(*args, build=simulations._threshold_window):
            built.append(build(*args))
            return built[-1]

        monkeypatch.setattr(simulations, "stream_keys", recording)
        with monkeypatch.context() as patch:
            patch.setattr(simulations, "_threshold_window", window)
            optional_stopping_fpr(looks, 0.5, 0.2, 2 * batch + 1, 1729)
        monkeypatch.undo()
        assert hashed == [range(0, batch), range(batch, 2 * batch),
                          range(2 * batch, 2 * batch + 1)], len(looks)
        assert [w is not None for w in built] == [windowed], len(looks)

        counts = {1, batch - 1, batch, batch + 1, 2 * batch + 1} - {0}
        for theta in (0.5, 0.3):
            for seed in (1729, 2**40 + 1729):
                for direction in Direction:
                    for trials in sorted(counts):
                        report = optional_stopping_fpr(looks, theta, 0.2, trials, seed,
                                                       direction)
                        before = ([0] * len(looks) if trials == 1 else list(
                            optional_stopping_fpr(looks, theta, 0.2, trials - 1, seed,
                                                  direction).first_rejection_counts))
                        first = _scalar_first_rejection(looks, theta, 0.2, seed, trials - 1,
                                                        direction)
                        if first is not None:
                            before[first] += 1
                        assert report.first_rejection_counts == tuple(before), \
                            (len(looks), theta, seed, direction, trials)
                        assert report.false_positives == sum(before)


@pytest.mark.parametrize("theta", [0.5, 0.03])
@pytest.mark.parametrize("looks", [tuple(range(10, 501, 10)), tuple(range(2, 501, 2)),
                                   FIBONACCI_LOOKS], ids=["default", "dense", "fibonacci"])
def test_threshold_window_matches_look_test(looks, theta):
    # A cell whose pooled count lies in its look's window is decided by a
    # gather from the table alone, which is built in pieces of whole looks.
    # Every entry must be T(n, s), which test_rejection_boundary_matches_look_test
    # holds to the look test: a cell at e = T must reject and one at T - 2 must
    # not, at subnormal, tiny, usual and large alpha, in every direction.
    sizes = np.array(looks)
    for direction in Direction:
        for alpha in (1e-320, 1e-12, 0.05, 0.5):
            window = _threshold_window(sizes, theta, direction, alpha, 10**9)
            width = window.hi - window.lo + 1
            s = window.lo[:, None] + np.arange(width.max()) % width[:, None]  # every entry
            bound = rejection_boundary(sizes[:, None], s, direction, alpha)
            for below in (0, 2):
                decided = window.rejects(bound - below, s.copy())
                assert decided.all() if below == 0 else not decided.any(), (direction, alpha)


def test_narrow_window_falls_back_to_look_test(monkeypatch):
    # A batch whose pooled counts do not all lie in their looks' windows, and
    # every batch of a run with no window, is decided by T itself
    # (rejection_boundary on its cells).  With a window of half a standard
    # deviation many batches are; every report must match the full window's,
    # where none is, and that of a run with no window, where every cell is.
    from paircompare import simulations

    looks = tuple(range(10, 201, 10))
    direct = []

    def counting(n, s, direction, alpha, boundary=simulations.rejection_boundary):
        if s.ndim == 2:  # a batch's (looks, trials) cells, not a window's entries
            direct.append(s.size)
        return boundary(n, s, direction, alpha)

    monkeypatch.setattr(simulations, "rejection_boundary", counting)
    for theta in (0.5, 0.3):
        for direction in Direction:
            direct.clear()
            full = optional_stopping_fpr(looks, theta, 0.2, 1000, 7, direction)
            assert not direct, (theta, direction)
            for name, value in (("_CELLS_PER_ENTRY", 10**9), ("_WINDOW_SDS", 0.5)):
                with monkeypatch.context() as patch:
                    patch.setattr(simulations, name, value)
                    direct.clear()
                    assert optional_stopping_fpr(looks, theta, 0.2, 1000, 7, direction) == full
                    assert 0 < sum(direct) <= 1000 * len(looks), (name, theta, direction)
                    if name == "_CELLS_PER_ENTRY":
                        assert sum(direct) == 1000 * len(looks)


@pytest.mark.parametrize("looks,trials", [
    (tuple(range(10, 501, 10)), 400),  # the default peeking schedule, 6 batches
    (tuple(range(2, 501, 2)), 160),    # the dense one, 9 batches
], ids=["50-looks", "250-looks"])
def test_optional_stopping_memory_flat_in_trials(looks, trials):
    # The run holds one batch's words, keys and counts, whatever ``trials``
    # is: 10x the trials must not raise the traced peak.  A batch is sized to
    # fill about 320 KB with its threshold window's table, so the peak holds
    # though the 10x run builds a window and the 1x run does not (too few
    # cells per entry).  It is about 400 KB on both schedules with numpy 2.4,
    # whose ufunc buffers take up to 64 KB more.
    optional_stopping_fpr(looks, 0.5, 0.05, trials, 3)  # caches filled outside the trace
    peaks = []
    for n in (trials, 10 * trials):
        tracemalloc.start()
        try:
            optional_stopping_fpr(looks, 0.5, 0.05, n, 3)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert abs(peaks[1] - peaks[0]) <= 8192, peaks
    assert peaks[1] <= 512 * 1024, peaks


EASY_COUNTS = ((1721, 2376), (1637, 2376))


def test_prior_sweep_rows_sorted_and_deterministic():
    rows = prior_sensitivity_sweep(EASY_COUNTS, PRIOR_PRESETS, 0.01)
    again = prior_sensitivity_sweep(EASY_COUNTS, PRIOR_PRESETS, 0.01)
    assert [r.label for r in rows] == sorted(PRIOR_PRESETS)
    assert rows == again


def test_prior_sweep_posterior_means_match_conjugate():
    rows = prior_sensitivity_sweep(EASY_COUNTS, PRIOR_PRESETS, 0.01)
    for row in rows:
        post1 = conjugate_update(row.prior, *EASY_COUNTS[0])
        post2 = conjugate_update(row.prior, *EASY_COUNTS[1])
        assert row.posterior_mean_diff == pytest.approx(post1.mean - post2.mean)


def test_prior_sweep_bayes_factor_moves_more_than_hdi():
    rows = prior_sensitivity_sweep(EASY_COUNTS, PRIOR_PRESETS, 0.01)
    bfs = [r.bf01 for r in rows]
    widths = [r.hdi.width for r in rows]
    bf_spread = max(bfs) / min(bfs)
    width_spread = max(widths) / min(widths)
    assert bf_spread > 2.0
    assert width_spread < 1.1
    assert bf_spread > 10.0 * (width_spread - 1.0) + 1.0
    # Every interval estimate still lands in the same region.
    lo = max(r.hdi.lower for r in rows)
    hi = min(r.hdi.upper for r in rows)
    assert lo < hi


def test_prior_sweep_rejects_empty_priors():
    with pytest.raises(DomainError):
        prior_sensitivity_sweep(EASY_COUNTS, {}, 0.01)


def test_prior_sweep_single_custom_prior():
    rows = prior_sensitivity_sweep(((9, 12), (6, 12)), {"flat": BetaParams(1.0, 1.0)}, 0.05)
    assert len(rows) == 1
    assert rows[0].prior == BetaParams(1.0, 1.0)
    assert math.isfinite(rows[0].bf01)
