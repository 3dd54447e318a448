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


# 64-bit words a batch of trials fills: per trial, n_max / 2 words of raw
# words and hit flags, and 9 words per look of counts and look-test
# temporaries.  At 384 KB a batch is large enough to spread each batch's
# numpy calls over many trials, and a run's traced peak, keys included, stays
# under the 512 KB that the memory-flat test allows.
_BATCH_WORDS = 6 << 13


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


def _look_test(direction: Direction, alpha: float):
    """``rejects(c1, c2, n)``: ``two_proportion_z_test(c1, n, c2, n).p_value < alpha``
    for (rows, looks) count arrays and (looks,) sizes.  ``z`` is the test's own
    ``pooled_statistic`` and the p-value falls as ``s`` (``z``, ``-z`` or ``|z|``)
    rises, so only p-value rounding can disagree with ``s > critical``: cells within
    ``band`` of it (1e-6, plus eight ulps of the tail for subnormal ``alpha``) are
    decided by that z-test's p-value.  A NaN ``z`` (pooled rate 0 or 1) never rejects.
    """
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
                c1[i, j], n[j], c2[i, j], n[j], direction).p_value < alpha
        return reject

    return rejects


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
    again, ``W + j`` words, and keeps the last ``j``.  Trials run in batches of
    ``_BATCH_WORDS // (n_max // 2 + 9 len(looks))`` trials, at least one,
    whose keys are hashed once, as the index range
    ``stream_keys(master_seed, first trial, batch size)``.  Per batch, one
    comparison decodes every byte, one ``reduceat`` counts each look's new
    successes, and one cumulative sum over looks and one array z-test decide
    every (trial, look) cell exactly (``_look_test``).

    At 50 looks x 10k trials and theta 0.5 (70 trials a batch, about 50 ms
    on a Xeon with AVX-512), the state resets and ``random_raw`` calls take
    about 40% of the time, some 2 us a trial, which is the floor; the counts
    25%, the look tests 22%, the keys 8% and the byte decode 2%.  At 250
    looks the counts take 42% and the look tests 32%: ``reduceat`` pays per
    look.  At theta 0.3 nearly every trial has a tie and so a second reset
    and ``random_raw`` call, which adds about 3 us a trial, a third of the
    time.  Memory is flat in ``trials``: one batch's words, hit flags,
    counts and keys, and its look test's temporaries, 360 to 390 KB on both
    schedules.
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
    starts = np.array((0,) + looks[:-1])
    rejects = _look_test(direction, nominal_alpha)
    t8, bound = _item_rule(theta)
    # The narrowest sum type that holds a look's new items; uint8 casts no flags.
    new_type = np.min_scalar_type(int((sizes - starts).max()))
    item_words = -(-2 * n_max // 8)
    batch = max(1, _BATCH_WORDS // (n_max // 2 + 9 * len(looks)))
    # Little-endian words, so byte i % 8 of word i // 8 is item i on any host.
    words = np.empty((batch, item_words), dtype="<u8")
    items = words.view(np.uint8)[:, :2 * n_max]
    counts = np.empty((batch, 2, len(looks)), dtype=np.int64)
    first_rejections = np.zeros(len(looks), dtype=np.int64)
    bitgen = np.random.Philox(0)
    state = bitgen.state  # counter 0 and an empty buffer; each trial sets the key
    fresh = state["state"]
    # As Python ints, which the state setter reads fastest.
    fresh["counter"] = tuple(fresh["counter"].tolist())
    state["buffer"] = tuple(state["buffer"].tolist())
    for lo in range(0, trials, batch):
        rows = words[:trials - lo]  # this batch's trials
        keys = stream_keys(master_seed, lo, len(rows)).tolist()
        for row, key in zip(rows, keys):
            fresh["key"] = key
            bitgen.state = state
            row[:] = bitgen.random_raw(len(row))
        drawn = items[:len(rows)]
        hits = drawn < t8
        if bound:  # at bound 0 every tie is a miss, whatever its fallback word
            tie = np.flatnonzero(drawn == t8)  # trial by trial, in item order
            ties = np.bincount(tie // (2 * n_max), minlength=len(rows)).tolist()
            fallback = np.empty(len(tie), dtype=np.uint64)
            end = 0
            for key, n in zip(keys, ties):
                if n:  # the trial's stream again, up to its last tie's word
                    fresh["key"] = key
                    bitgen.state = state
                    fallback[end:end + n] = bitgen.random_raw(item_words + n)[item_words:]
                    end += n
            hits.reshape(-1)[tie] = _tie_hits(fallback, bound)
        tally = counts[:len(rows)]
        # Successes in each look's new items, then up to each look.
        new_hits = np.add.reduceat(hits.view(np.uint8).reshape(len(rows), 2, n_max), starts,
                                   axis=2, dtype=new_type)
        np.cumsum(new_hits, axis=2, dtype=np.int64, out=tally)
        reject = rejects(tally[:, 0], tally[:, 1], sizes)
        first = reject.argmax(axis=1)[reject.any(axis=1)]
        first_rejections += np.bincount(first, minlength=len(looks))
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
