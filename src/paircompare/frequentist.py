"""Frequentist procedures: the two-proportion z-test and confidence
intervals for the accuracy difference."""

from __future__ import annotations

import math
from enum import Enum

import numpy as np

from .core import Direction, Record
from .errors import DegenerateTest, DomainError
from .numerics import std_normal_cdf, std_normal_quantile


class CiMode(Enum):
    # Symmetric interval around the observed difference built from the
    # one-sided critical value and the pooled standard error.
    ONE_SIDED_POOLED_Z = "one_sided_pooled_z"
    # Conventional Wald interval: two-sided critical value, unpooled SE.
    STANDARD_TWO_SIDED = "standard_two_sided"


class ZTestResult(Record):
    """Two-proportion z-test outcome.

    ``diff`` is the observed accuracy difference (system1 - system2),
    ``pooled_rate`` the shared success rate under the null, and ``sigma``
    the pooled standard error used for the statistic.
    """

    z: float
    p_value: float
    direction: Direction
    diff: float
    pooled_rate: float
    sigma: float


class ConfidenceInterval(Record):
    lower: float
    upper: float
    level: float
    mode: CiMode
    diff: float
    sigma: float
    critical: float


def _check_counts(correct1: int, total1: int, correct2: int, total2: int) -> None:
    for correct, total in ((correct1, total1), (correct2, total2)):
        if total < 1:
            raise DomainError(f"totals must be at least 1, got {total!r}")
        if not 0 <= correct <= total:
            raise DomainError(f"correct count {correct!r} outside [0, {total!r}]")


def pooled_statistic(correct1, total1, correct2, total2):
    """``(z, pooled_rate, sigma)`` of :func:`two_proportion_z_test`, on numbers or arrays.

    Each step is one correctly rounded operation, so array cells equal scalar
    results bit for bit.  A pooled rate of 0 or 1 gives ``sigma`` 0, ``z`` NaN.
    """
    pooled = (correct1 + correct2) / (total1 + total2)
    sigma = np.sqrt(pooled * (1.0 - pooled) * (1.0 / total1 + 1.0 / total2))
    with np.errstate(invalid="ignore"):
        z = (correct1 / total1 - correct2 / total2) / sigma
    return z, pooled, sigma


def two_proportion_z_test(correct1: int, total1: int, correct2: int, total2: int,
                          direction: Direction = Direction.GREATER) -> ZTestResult:
    """Test whether two observed proportions share one underlying rate.

    The statistic is ``(p1 - p2) / sigma`` with the standard error pooled
    under the null: ``sigma = sqrt(pt (1 - pt) (1/n1 + 1/n2))`` where ``pt``
    is the combined success rate (:func:`pooled_statistic`).  No continuity
    correction.  The pooled interval and optional stopping's looks call it too.

    Raises
    ------
    DegenerateTest
        When the pooled rate is exactly 0 or 1, which makes ``sigma`` zero.
    """
    _check_counts(correct1, total1, correct2, total2)
    z, pooled, sigma = pooled_statistic(correct1, total1, correct2, total2)
    if pooled == 0.0 or pooled == 1.0:
        raise DegenerateTest(f"pooled rate is {pooled:g}; the z statistic is undefined for these counts")
    if direction is Direction.GREATER:
        p_value = std_normal_cdf(-z)
    elif direction is Direction.LESS:
        p_value = std_normal_cdf(z)
    else:
        p_value = min(1.0, 2.0 * std_normal_cdf(-abs(z)))
    return ZTestResult(
        z=float(z),
        p_value=p_value,
        direction=direction,
        diff=correct1 / total1 - correct2 / total2,
        pooled_rate=pooled,
        sigma=float(sigma),
    )


def diff_confidence_interval(correct1: int, total1: int, correct2: int, total2: int,
                             level: float = 0.95,
                             mode: CiMode = CiMode.STANDARD_TWO_SIDED) -> ConfidenceInterval:
    """Confidence interval for the accuracy difference (system1 - system2).

    ``ONE_SIDED_POOLED_Z`` pairs the one-sided critical value
    ``quantile(level)`` with the pooled standard error, so at level 0.95 the
    lower bound sits exactly where the one-sided test at 0.05 flips.
    ``STANDARD_TWO_SIDED`` is the usual Wald interval with the two-sided
    critical value and unpooled standard error.  No continuity correction.

    Raises
    ------
    DomainError
        If ``level`` is outside (0, 1).
    DegenerateTest
        If the applicable standard error is zero.
    """
    _check_counts(correct1, total1, correct2, total2)
    if not 0.0 < level < 1.0:
        raise DomainError(f"confidence level must lie in (0, 1), got {level!r}")
    p1 = correct1 / total1
    p2 = correct2 / total2
    diff = p1 - p2
    if mode is CiMode.ONE_SIDED_POOLED_Z:
        sigma = two_proportion_z_test(correct1, total1, correct2, total2).sigma
        critical = std_normal_quantile(level)
    else:
        sigma = math.sqrt(p1 * (1.0 - p1) / total1 + p2 * (1.0 - p2) / total2)
        if sigma == 0.0:
            raise DegenerateTest("both observed rates sit on a boundary; the interval has no width")
        critical = std_normal_quantile(1.0 - (1.0 - level) / 2.0)
    half = critical * sigma
    return ConfidenceInterval(
        lower=diff - half,
        upper=diff + half,
        level=level,
        mode=mode,
        diff=diff,
        sigma=sigma,
        critical=critical,
    )
