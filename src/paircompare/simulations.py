"""Executable demonstrations of classical testing pitfalls.

Three simulations live here: the dependence of a p-value on the
experimenter's stopping intention, the false-positive inflation caused by
peeking at accumulating data, and the sensitivity of Bayesian conclusions to
the prior.
"""

from __future__ import annotations

import math
from numbers import Integral

import numpy as np

from .bayes import BetaParams, posterior_pair
from .core import Counts, Direction, Record
from .errors import DomainError
from .frequentist import pooled_statistic, two_proportion_z_test
from .numerics import log_binomial_coefficient, std_normal_pdf, std_normal_quantile, stream_keys
from .posterior import Hdi, bayes_factor_interval_null, hdi_of_difference


class StoppingComparison(Record):
    """One data set, two sampling intentions, two p-values."""

    successes: int
    trials: int
    null_rate: float
    fixed_trials_pvalue: float
    fixed_successes_pvalue: float

    @property
    def gap(self) -> float:
        return abs(self.fixed_trials_pvalue - self.fixed_successes_pvalue)


class OptionalStoppingReport(Record):
    looks: tuple[int, ...]
    theta: float
    nominal_alpha: float
    trials: int
    false_positives: int
    false_positive_rate: float
    first_rejection_counts: tuple[int, ...]
    master_seed: int


class PriorSweepRow(Record):
    label: str
    prior: BetaParams
    bf01: float
    hdi: Hdi
    posterior_mean_diff: float


def _log_sum_exp(terms) -> float:
    peak = max(terms)
    if peak == -math.inf:
        return -math.inf
    return peak + math.log(sum(math.exp(t - peak) for t in terms))


def _check_stopping_args(successes: int, trials: int, null_rate: float) -> None:
    if trials < 1:
        raise DomainError(f"trials must be at least 1, got {trials!r}")
    if not 0 <= successes <= trials:
        raise DomainError(f"successes {successes!r} outside [0, {trials!r}]")
    if not 0.0 < null_rate <= 1.0:
        raise DomainError(f"null_rate must lie in (0, 1], got {null_rate!r}")


def pvalue_fixed_n(successes: int, trials: int, null_rate: float) -> float:
    """Binomial lower tail when the number of trials was fixed.

    Sums P(K <= successes) under K ~ Binomial(trials, null_rate).  Terms are
    accumulated in log space so long tails survive underflow.
    """
    _check_stopping_args(successes, trials, null_rate)
    if null_rate == 1.0:
        # All mass sits at K = trials.
        return 1.0 if successes >= trials else 0.0
    log_p = math.log(null_rate)
    log_q = math.log1p(-null_rate)
    terms = [log_binomial_coefficient(trials, k) + k * log_p + (trials - k) * log_q
             for k in range(0, successes + 1)]
    return min(1.0, math.exp(_log_sum_exp(terms)))


def pvalue_fixed_successes(successes: int, trials: int, null_rate: float) -> float:
    """Negative-binomial tail when sampling stopped at the final success.

    Under this intention the random quantity is N, the number of trials
    needed to reach ``successes``.  Returns P(N >= trials): data needing at
    least this many trials are evidence of a low rate, mirroring the lower
    binomial tail.  It is a binomial tail, with no subtraction to cancel:
    N >= n exactly when the first n - 1 trials hold at most a - 1 successes.
    """
    _check_stopping_args(successes, trials, null_rate)
    if successes < 1:
        raise DomainError("stopping on a success count needs at least one success")
    if trials == 1:
        return 1.0
    return pvalue_fixed_n(successes - 1, trials - 1, null_rate)


def stopping_comparison(successes: int, trials: int, null_rate: float) -> StoppingComparison:
    """Evaluate the same counts under both stopping intentions."""
    return StoppingComparison(
        successes=successes,
        trials=trials,
        null_rate=null_rate,
        fixed_trials_pvalue=pvalue_fixed_n(successes, trials, null_rate),
        fixed_successes_pvalue=pvalue_fixed_successes(successes, trials, null_rate),
    )


# 64-bit words a batch of trials fills.  Per trial: its raw words, a zero
# word and its key as Python ints (_TRIAL_WORDS); per look, _LOOK_BYTES of
# counts, 8 per system, and of each count's last word.  The decisions reuse
# the counts' memory, and a threshold window's table comes out of the same
# budget, so a run's traced peak is the same whether it builds a window or
# not.  At 320 KB a batch spreads each batch's numpy calls over many trials,
# and the peak, with numpy's ufunc buffers, stays near 400 KB, under the
# 512 KB that the memory-flat test allows.
_BATCH_WORDS = 5 << 13
_TRIAL_WORDS = 21
_LOOK_BYTES = 18
# A word of 0/1 bytes times this holds in byte k the sum of its bytes 0..k:
# at most 8, so no carry crosses a byte.  Products wrap modulo 2**64.
_PREFIX_SUMS = np.uint64(0x0101010101010101)
# A look's threshold window spans its pooled count's mean +- (this many sd + 1),
# and is built only when it has at most one entry per _CELLS_PER_ENTRY cells.
_WINDOW_SDS = 8.0
_CELLS_PER_ENTRY = 8
_WINDOW_CHUNK = 1024  # entries checked per _look_test call while a window is built


def _item_rule(theta: float) -> tuple[int, int]:
    """``(t8, bound)``: an item whose byte ``b`` and fallback word ``w`` are drawn
    is a hit iff ``b < t8``, or ``b == t8`` and ``w >> 11 < bound``.

    That is exactly ``(2**53 b + (w >> 11)) / 2**61 < theta``: a 61-bit uniform
    below ``theta``, so P(hit) = ceil(theta 2**61) / 2**61.  ``256 theta`` and its
    fractional part are exact in floating point, so ``bound`` is too.
    """
    scaled = 256.0 * theta
    t8 = math.floor(scaled)
    return t8, math.ceil(math.ldexp(scaled - t8, 53))


def _tie_hits(fallback, bound: int):
    """Which tied items are hits, from their fallback words (``_item_rule``)."""
    return fallback >> np.uint64(11) < np.uint64(bound)


def _critical(direction: Direction, alpha: float) -> tuple[float, float]:
    """``(tail, critical)``: the one-sided tail ``alpha`` leaves, at least the least
    subnormal, and the statistic above which the test rejects, ``-quantile(tail)``."""
    tail = max(alpha / 2.0 if direction is Direction.TWO_SIDED else alpha, math.ulp(0.0))
    return tail, -std_normal_quantile(tail)


def _look_test(direction: Direction, alpha: float):
    """``rejects(c1, c2, n)``: ``two_proportion_z_test(c1, n, c2, n).p_value < alpha``
    for (rows, looks) count arrays and (looks,) sizes.  ``z`` is the test's own
    ``pooled_statistic`` and the p-value falls as ``s`` (``z``, ``-z`` or ``|z|``)
    rises, so only p-value rounding can disagree with ``s > critical``: cells within
    ``band`` of it (1e-6, plus eight ulps of the tail for subnormal ``alpha``) are
    decided by that z-test's p-value.  A NaN ``z`` (pooled rate 0 or 1) never rejects.
    """
    tail, critical = _critical(direction, alpha)
    band = 1e-6 + 8.0 * math.ulp(tail) / std_normal_pdf(critical)
    sign = {Direction.GREATER: 1.0, Direction.LESS: -1.0}.get(direction)

    def rejects(c1, c2, n):
        z = pooled_statistic(c1, n, c2, n)[0]
        s = np.abs(z) if sign is None else sign * z
        reject = s > critical
        for i, j in np.argwhere(np.abs(s - critical) <= band):
            reject[i, j] = two_proportion_z_test(
                c1[i, j], n[j], c2[i, j], n[j], direction).p_value < alpha
        return reject

    return rejects


def _rejects_at(rejects, direction: Direction, n, s, e):
    """``rejects`` at pooled counts ``s`` and differences ``e`` (``c1 - c2``, ``c2 - c1``
    for ``less``), for (rows, cells) ``e`` and (cells,) ``n`` and ``s``."""
    high, low = (s + e) // 2, (s - e) // 2
    return rejects(low, high, n) if direction is Direction.LESS else rejects(high, low, n)


class _ThresholdWindow:
    """Each look's rejection threshold on ``e`` at the pooled counts ``s = c1 + c2``
    near their mean, where ``e`` is ``c1 - c2``, ``c2 - c1`` for ``less`` or
    ``|c1 - c2|`` for ``two_sided``, and has ``s``'s parity.

    Look ``n``'s window covers ``s`` in ``[lo, hi]``, ``2 n theta +- (8 sd + 1)``
    with ``sd = sqrt(2 n theta (1 - theta))``, clipped to ``[0, 2 n]``
    (``_threshold_window``).  Its entry for ``s`` is the least ``e`` of ``s``'s
    parity at which ``_look_test`` rejects, or ``min(s, 2 n - s) + 2`` where none
    does.  Each entry starts from the closed form ``floor(critical sqrt(s (2 n -
    s) / 2 n)) + 1``, raised to ``s``'s parity, and moves by 2 until
    ``_look_test`` rejects at it and not at 2 below it.  The entries are built
    ``_WINDOW_CHUNK`` at a time, so the build's temporaries stay below a batch's.

    At fixed ``(n, s)`` the computed ``z`` cannot fall as ``c1`` rises, each
    step being a correctly rounded monotone operation, and cells 2 apart in
    ``e`` differ by at least 2.8 / sqrt(n) in ``z``, far more than
    ``_look_test``'s band.  So the rejected cells of each ``(n, s)`` are those at
    or above one ``e``, and the table gives ``_look_test``'s decisions.
    """

    def __init__(self, sizes, lo, hi, direction: Direction, alpha: float):
        self.sizes, self.lo, self.hi, self.direction = sizes, lo, hi, direction
        self.test = _look_test(direction, alpha)
        width = hi - lo + 1
        start = np.cumsum(width) - width
        self.base = start - lo  # look j's entry for s is s + base[j]
        self.table = np.empty(int(width.sum()), dtype=np.min_scalar_type(-2 * int(sizes[-1]) - 3))
        critical = _critical(direction, alpha)[1]
        for first in range(0, len(self.table), _WINDOW_CHUNK):
            entry = np.arange(first, min(first + _WINDOW_CHUNK, len(self.table)))
            look = np.searchsorted(start, entry, side="right") - 1
            n = sizes[look]
            s = entry - self.base[look]
            top = np.minimum(s, 2 * n - s)  # the largest e at this s
            least = s & 1 if direction is Direction.TWO_SIDED else -top
            e = np.floor(critical * np.sqrt(s * (2 * n - s) / (2.0 * n))).astype(np.int64) + 1
            e += (e - s) & 1
            np.clip(e, least, top + 2, out=e)
            while True:
                # The test at e and at e - 2, each clipped to a cell that exists.
                at = _rejects_at(self.test, direction, n, s,
                                 np.stack((np.minimum(e, top), np.maximum(e - 2, least))))
                up = (e <= top) & ~at[0]
                down = (e - 2 >= least) & at[1]
                if not (up.any() or down.any()):
                    break
                e[up] += 2
                e[down] -= 2
            self.table[first:first + len(e)] = e
        self.nbytes = self.table.nbytes + 24 * len(sizes)  # with lo, hi and base

    def rejects(self, c1, c2, looks=slice(None)):
        """Which cells of the (looks, trials) counts ``c1`` and ``c2`` at ``looks``
        reject; it overwrites the counts with ``e`` and ``s``.  A cell whose ``s``
        lies outside its look's window takes ``_look_test``."""
        e, s = (c2, c1) if self.direction is Direction.LESS else (c1, c2)
        e -= s
        s <<= 1
        s += e  # c1 + c2
        if self.direction is Direction.TWO_SIDED:
            np.abs(e, out=e)
        lo, hi = self.lo[looks, None], self.hi[looks, None]
        outside = None
        if (s.min(axis=1, keepdims=True) < lo).any() or (s.max(axis=1, keepdims=True) > hi).any():
            outside = np.nonzero((s < lo) | (s > hi))
            test = _rejects_at(self.test, self.direction, self.sizes[looks][outside[0]],
                               s[outside], e[outside][None])[0]
        s += self.base[looks, None]
        e -= self.table.take(s, mode="clip")
        reject = e >= 0
        if outside is not None:
            reject[outside] = test
        return reject


def _threshold_window(sizes, theta: float, direction: Direction, alpha: float, cells: int):
    """The looks' ``_ThresholdWindow``, or None where it would hold more than one
    entry per ``_CELLS_PER_ENTRY`` of the run's ``cells``."""
    mean = 2.0 * theta * sizes
    half = _WINDOW_SDS * np.sqrt(mean * (1.0 - theta)) + 1.0
    lo = np.maximum(np.floor(mean - half), 0.0).astype(np.int64)
    hi = np.minimum(np.ceil(mean + half), 2 * sizes).astype(np.int64)
    if _CELLS_PER_ENTRY * int((hi - lo + 1).sum()) > cells:
        return None
    return _ThresholdWindow(sizes, lo, hi, direction, alpha)


def _look_counts(words, sizes):
    """``(c1, c2)``: each system's (looks, trials) hit counts from a batch's (rows,
    trials) words of hit flags, item ``i`` in byte ``i % 8`` of row ``i // 8 + 1``
    under a row of zeros, which it overwrites."""
    ends = np.concatenate((sizes, sizes[-1] + sizes)) - 1  # each look's last item, per system
    np.multiply(words, _PREFIX_SUMS, out=words)
    last = words.view(np.uint8).reshape(len(words), -1, 8)[ends // 8 + 1, :, ends % 8]
    np.right_shift(words, np.uint64(56), out=words)
    np.cumsum(words, axis=0, out=words)
    counts = words.take(ends // 8, axis=0)  # the hits in the words before each end's,
    counts += last  # and in its own up to it
    c1, c2 = counts.view(np.int64).reshape(2, len(sizes), -1)
    c2 -= c1[-1]  # system 2's items follow system 1's n_max
    return c1, c2


def _first_rejections(words, sizes, window, rejects):
    """How many of a batch's trials first reject at each look, from its words of
    hit flags (``_look_counts``)."""
    c1, c2 = _look_counts(words, sizes)
    if window is not None:
        reject = window.rejects(c1, c2)
    else:
        reject = np.empty(c1.shape, dtype=bool)
        step = max(1, len(sizes) // 64)  # looks per call, so its temporaries stay small
        for j in range(0, len(sizes), step):
            reject[j:j + step] = rejects(c1[j:j + step].T, c2[j:j + step].T, sizes[j:j + step]).T
    return np.bincount(reject.argmax(axis=0)[reject.any(axis=0)], minlength=len(sizes))


def optional_stopping_fpr(looks, theta: float, nominal_alpha: float, trials: int,
                          master_seed: int,
                          direction: Direction = Direction.TWO_SIDED) -> OptionalStoppingReport:
    """False-positive rate of a z-test applied at every interim look.

    Both systems share the true rate ``theta``, so every rejection is a
    false positive.  A trial counts as rejected if the test crosses
    ``nominal_alpha`` at any look.  Trial ``t`` reads the stream
    ``(master_seed, t)``: trials are independent, reproducible, and the same
    seed replays the same outcome paths for any subset of looks with the
    same ``n_max``.

    A trial's items, system 1's ``n_max`` then system 2's, come from the raw
    Philox words of its stream (``random_raw``, whose bits NEP 19 fixes).
    Item ``i`` is byte ``i % 8`` of word ``i // 8``, least significant first,
    of its first ``W = ceil(2 n_max / 8)`` words.  With ``t8 = floor(256 theta)``
    a byte below ``t8`` is a hit and one above it a miss; the ``j``-th item
    whose byte equals ``t8`` reads word ``W + j`` and is a hit iff that word's
    top 53 bits lie below ``ceil((256 theta - t8) 2**53)`` (``_item_rule``).
    An item is thus a hit exactly when a 61-bit uniform lies below ``theta``:
    P(hit) = ceil(theta 2**61) / 2**61.  One item in 256 reads a second word
    (Knuth & Yao's lazy comparison, 1976); at ``theta`` a multiple of 1/256
    the bound is 0 and none needs to.

    One Philox serves every trial: set to counter 0 under trial ``t``'s key,
    it draws exactly what ``stream(master_seed, t)`` would.  Each trial draws
    its ``W`` words in one call; a trial with ``j`` ties draws its stream
    again, ``W + j`` words, and keeps the last ``j``.  Trials run in batches
    that fill ``_BATCH_WORDS``, at least one trial, whose keys are hashed
    once, as the index range ``stream_keys(master_seed, first trial, batch
    size)``.

    A batch's words are laid out trial by column: row ``w + 1`` holds word
    ``w`` of every trial, under a row of zeros.  Per batch, one comparison
    turns every byte into its 0/1 hit flag in place.  Counts: a word of flags
    times ``0x0101010101010101`` holds in byte ``k`` the hits of its bytes
    0..k, and its top byte, summed down the rows before it, the hits before
    it; so the hits among items ``0..i`` are that sum above row ``i // 8 + 1``
    plus byte ``i % 8`` of that row's product.  System 1's count at look ``n``
    reads item ``n - 1``, system 2's item ``n_max + n - 1`` less system 1's
    total (``_look_counts``).  Decisions: a run whose threshold window holds
    at most one entry per 8 (trial, look) cells builds it
    (``_threshold_window``), and a cell whose pooled count ``s`` lies in its
    look's window is then decided by integer adds on its counts, one gather
    from the table and one compare (``_ThresholdWindow``); a cell outside it,
    or every cell of a run with no window, takes ``_look_test``.  Either way
    each (trial, look) cell's decision is the z-test's.  Both peeking schedules
    build a window (8.7k entries against 500k cells at 50 looks, 43k against
    1M at 250); a few trials over looks 2 to 4,099 do not.

    On a Xeon with AVX-512 at theta 0.5, 50 looks x 10k trials (149 trials a
    batch) take about 41 ms: the state resets and ``random_raw`` calls 58%,
    some 2.4 us a trial, which is the floor; the counts 18%, the keys 8%,
    the look tests 8% and the window's build 3%.  250 looks x 4k trials (41
    a batch) take about 34 ms: raw words 28%, counts 22%, look tests 19%,
    the window's build 15% and keys 8%.  At theta 0.3 nearly every trial has
    a tie and so a second reset and ``random_raw`` call, which adds about
    3 us a trial.  Memory is flat in ``trials``: one batch's words, keys and
    counts and the window, about 400 KB traced on both schedules.
    """
    looks = tuple(looks)
    if not all(isinstance(n, Integral) for n in (*looks, trials)):
        raise DomainError("look sizes and trials must be integers")
    looks = tuple(map(int, looks))
    if not looks or any(n < 2 for n in looks) or list(looks) != sorted(set(looks)):
        raise DomainError("looks must be a strictly increasing sequence of sizes >= 2")
    if not 0.0 < theta < 1.0:
        raise DomainError(f"theta must lie in (0, 1), got {theta!r}")
    if not 0.0 < nominal_alpha < 1.0:
        raise DomainError(f"nominal_alpha must lie in (0, 1), got {nominal_alpha!r}")
    if trials < 1:
        raise DomainError(f"trials must be positive, got {trials!r}")

    n_max = looks[-1]
    sizes = np.array(looks)
    window = _threshold_window(sizes, theta, direction, nominal_alpha, trials * len(looks))
    rejects = _look_test(direction, nominal_alpha)
    t8, bound = _item_rule(theta)
    item_words = -(-2 * n_max // 8)
    # A window's table comes out of the budget, down to half of it.
    spare = _BATCH_WORDS - (0 if window is None else min(window.nbytes // 8, _BATCH_WORDS // 2))
    batch = max(1, spare // (_TRIAL_WORDS + item_words + _LOOK_BYTES * len(looks) // 8))
    # Row i // 8 + 1 of a batch's words holds item i of each trial (column) in
    # byte i % 8, little-endian on any host; row 0 stays zero.
    words = np.empty(batch * (1 + item_words), dtype="<u8")
    first_rejections = np.zeros(len(looks), dtype=np.int64)
    bitgen = np.random.Philox(0)
    state = bitgen.state  # counter 0 and an empty buffer; each trial sets the key
    fresh = state["state"]
    # As Python ints, which the state setter reads fastest.
    fresh["counter"] = tuple(fresh["counter"].tolist())
    state["buffer"] = tuple(state["buffer"].tolist())
    for lo in range(0, trials, batch):
        keys = stream_keys(master_seed, lo, int(min(batch, trials - lo))).tolist()
        block = words[:len(keys) * (1 + item_words)].reshape(1 + item_words, -1)  # contiguous
        block[0] = 0
        for t, key in enumerate(keys):
            fresh["key"] = key
            bitgen.state = state
            block[1:, t] = bitgen.random_raw(item_words)
        items = block.view(np.uint8).reshape(len(block), -1, 8)  # (word row, trial, byte)
        drawn = items[1:]
        if bound:  # at bound 0 every tie is a miss, whatever its fallback word
            row, trial, byte = np.unravel_index(np.flatnonzero(drawn == t8), drawn.shape)
            keep = np.argsort(trial, kind="stable")  # trial by trial, in item order,
            keep = keep[8 * row[keep] + byte[keep] < 2 * n_max]  # up to the last item
            row, trial, byte = row[keep] + 1, trial[keep], byte[keep]
            ties = np.bincount(trial, minlength=len(keys)).tolist()
            fallback = np.empty(len(trial), dtype=np.uint64)
            end = 0
            for key, n in zip(keys, ties):
                if n:  # the trial's stream again, up to its last tie's word
                    fresh["key"] = key
                    bitgen.state = state
                    fallback[end:end + n] = bitgen.random_raw(item_words + n)[item_words:]
                    end += n
        np.less(drawn, t8, out=drawn.view(bool))  # flags past item 2 n_max - 1 go unread
        if bound:
            items[row, trial, byte] = _tie_hits(fallback, bound)
        first_rejections += _first_rejections(block, sizes, window, rejects)
    false_positives = int(first_rejections.sum())
    return OptionalStoppingReport(
        looks=looks,
        theta=theta,
        nominal_alpha=nominal_alpha,
        trials=trials,
        false_positives=false_positives,
        false_positive_rate=false_positives / trials,
        first_rejection_counts=tuple(first_rejections.tolist()),
        master_seed=master_seed,
    )


def prior_sensitivity_sweep(counts: Counts,
                            priors: dict[str, BetaParams],
                            epsilon: float,
                            hdi_mass: float = 0.95) -> list[PriorSweepRow]:
    """Re-run the Bayesian analysis under each prior and collect the shifts.

    ``counts`` is the per-system ``(correct, total)`` pair; each prior is
    applied to both systems.  Rows come back ordered by prior label.  Each
    row's Bayes factor is exact quadrature and its HDI the exact HDI of the
    difference (:func:`posterior.hdi_of_difference`), so nothing is drawn.

    Raises
    ------
    DomainError
        If ``priors`` is empty, or a posterior has a shape below 1, where the
        exact HDI is not defined.
    """
    if not priors:
        raise DomainError("priors must not be empty")
    rows = []
    for label in sorted(priors):
        prior = priors[label]
        posts = posterior_pair(prior, counts)
        rows.append(PriorSweepRow(
            label=label,
            prior=prior,
            bf01=bayes_factor_interval_null(prior, posts, epsilon).bf01,
            hdi=hdi_of_difference(posts.post1, posts.post2, hdi_mass),
            posterior_mean_diff=posts.mean_diff,
        ))
    return rows
