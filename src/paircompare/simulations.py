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


# Uniforms per draw block, and 64-bit count and key words per look-test batch:
# 64 KB each, below the allocator's mmap threshold.  Batches of whole blocks
# let one look test cover dozens of trials, not one block of a few.
_BLOCK_DRAWS = 1 << 13


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
    ``nominal_alpha`` at any look.  Trial ``t`` draws from the stream
    ``(master_seed, t)``: trials are independent, reproducible, and the same
    seed reuses the same outcome paths for any subset of looks.

    Trials run in draw blocks of ``_BLOCK_DRAWS`` uniforms (at least one
    trial's): trial ``t`` fills its row with system 1's ``n_max`` outcomes,
    then system 2's, as two ``random(n_max)`` calls would.  Each block adds
    its successes in each look's new items to the counts of a batch, whole
    blocks whose counts and Philox keys fill about ``_BLOCK_DRAWS`` 64-bit
    words: ``_BLOCK_DRAWS // (2 (len(looks) + 1))`` trials, rounded down to
    whole blocks, at least one.  Per batch, one cumulative sum over looks and
    one array z-test decide every (trial, look) cell exactly (``_look_test``).

    One Philox generator serves every trial: set to counter 0 under trial
    ``t``'s key, it draws exactly what ``stream(master_seed, t)`` would.  The
    keys are hashed once per batch, as the index range
    ``stream_keys(master_seed, first trial, batch size)``.
    At 50 looks x 10k trials (80 trials a batch) the draws and state resets
    take about 60% of the time, the block counts and the look tests 15%
    each, and the keys 6%.  Memory is flat in ``trials``: the draw block,
    one batch's counts and keys, and its look test's temporaries.
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
    block = np.empty((max(1, _BLOCK_DRAWS // (2 * n_max)), 2 * n_max))
    batch = len(block) * max(1, _BLOCK_DRAWS // (2 * (len(looks) + 1) * len(block)))
    counts = np.empty((batch, 2, len(looks)), dtype=np.int64)
    first_rejections = np.zeros(len(looks), dtype=np.int64)
    bitgen = np.random.Philox(0)
    gen = np.random.Generator(bitgen)
    state = bitgen.state  # counter 0 and an empty buffer; each trial sets the key
    fresh = state["state"]
    # As Python ints, which the state setter reads fastest.
    fresh["counter"] = tuple(fresh["counter"].tolist())
    state["buffer"] = tuple(state["buffer"].tolist())
    for lo in range(0, trials, batch):
        tally = counts[:trials - lo]  # this batch's trials
        keys = stream_keys(master_seed, lo, len(tally))
        for start in range(0, len(tally), len(block)):
            rows = block[:len(tally) - start]
            for row, key in zip(rows, keys[start:start + len(rows)].tolist()):
                fresh["key"] = key
                bitgen.state = state
                gen.random(out=row)
            hits = (rows < theta).reshape(len(rows), 2, n_max)
            # Successes in each look's new items.
            np.add.reduceat(hits, starts, axis=2, dtype=np.int64,
                            out=tally[start:start + len(rows)])
        np.cumsum(tally, axis=2, out=tally)  # successes up to each look
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
