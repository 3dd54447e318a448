"""Accuracy and determinism checks for the numerical kernel.

scipy appears here purely as an independent oracle; the package itself never
imports it.
"""

import math
from unittest import mock

import numpy as np
import pytest
import scipy.special
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from paircompare.errors import DomainError
from paircompare.numerics import (
    RngStream,
    log_binomial_coefficient,
    regularized_incomplete_beta,
    sample_beta,
    std_normal_cdf,
    std_normal_pdf,
    std_normal_quantile,
)

Z_GRID = np.concatenate([
    np.linspace(-8.0, 8.0, 161),
    np.array([-37.0, -20.0, -10.0, 10.0, 20.0, 37.0]),
])


def test_cdf_matches_scipy_to_1e12():
    ours = np.array([std_normal_cdf(z) for z in Z_GRID])
    ref = scipy.stats.norm.cdf(Z_GRID)
    assert np.max(np.abs(ours - ref)) <= 1e-12


def test_cdf_frozen_values():
    # Reference values computed with scipy.stats.norm.cdf.
    assert std_normal_cdf(0.0) == 0.5
    assert std_normal_cdf(2.676) == pytest.approx(0.9962746677434706, abs=1e-12)
    assert std_normal_cdf(1.644853) == pytest.approx(0.949999935338925, abs=1e-12)


@given(st.floats(-37.0, 37.0))
def test_cdf_symmetry(z):
    assert std_normal_cdf(z) + std_normal_cdf(-z) == pytest.approx(1.0, abs=1e-14)


def test_cdf_monotone_on_grid():
    values = [std_normal_cdf(z) for z in np.linspace(-12, 12, 2001)]
    assert all(a <= b for a, b in zip(values, values[1:]))


def test_quantile_frozen_values():
    # Reference values computed with scipy.stats.norm.ppf.
    assert std_normal_quantile(0.975) == pytest.approx(1.959963984540054, abs=1e-12)
    assert std_normal_quantile(0.95) == pytest.approx(1.6448536269514722, abs=1e-12)
    assert std_normal_quantile(0.5) == pytest.approx(0.0, abs=1e-15)


def test_quantile_round_trip():
    # Above z ~ 5 the CDF saturates against 1 and float spacing of p alone
    # costs eps/pdf(z) > 1e-9, so the stated round-trip domain ends there.
    for z in np.linspace(-8.0, 5.0, 521):
        assert abs(std_normal_quantile(std_normal_cdf(z)) - z) <= 1e-9


def test_quantile_matches_scipy_everywhere():
    ps = np.concatenate([
        np.logspace(-300, -1, 120),
        np.linspace(0.001, 0.999, 499),
        1.0 - np.logspace(-15, -1, 60),
    ])
    for p in ps:
        assert std_normal_quantile(p) == pytest.approx(
            scipy.stats.norm.ppf(p), abs=1e-13)


@pytest.mark.parametrize("p", [0.0, 1.0, -0.2, 1.2, math.nan])
def test_quantile_domain(p):
    with pytest.raises(DomainError):
        std_normal_quantile(p)


def test_pdf_matches_scipy():
    for z in np.linspace(-10, 10, 101):
        assert std_normal_pdf(z) == pytest.approx(scipy.stats.norm.pdf(z), rel=1e-13)


BETA_CASES = [(a, b) for a in (0.5, 1.0, 2.0, 9.0, 120.5, 1722.0)
              for b in (0.5, 1.0, 3.0, 656.0)]


def test_incomplete_beta_matches_scipy_to_1e10():
    xs = np.linspace(0.001, 0.999, 101)
    worst = 0.0
    for a, b in BETA_CASES:
        ours = np.array([regularized_incomplete_beta(a, b, x) for x in xs])
        ref = scipy.special.betainc(a, b, xs)
        worst = max(worst, float(np.max(np.abs(ours - ref))))
    assert worst <= 1e-10


def test_incomplete_beta_frozen_tail():
    # P(theta < 0.70) under Beta(1722, 656); scipy.special.betainc reference.
    assert regularized_incomplete_beta(1722.0, 656.0, 0.70) == pytest.approx(
        0.004717922946470077, rel=1e-9)


def test_incomplete_beta_endpoints():
    assert regularized_incomplete_beta(2.0, 3.0, 0.0) == 0.0
    assert regularized_incomplete_beta(2.0, 3.0, 1.0) == 1.0


@given(
    st.floats(0.05, 300.0),
    st.floats(0.05, 300.0),
    st.floats(0.01, 0.99),
)
@settings(max_examples=200)
def test_incomplete_beta_reflection(a, b, x):
    # x stays away from 0 and 1: the 1 - x round-trip itself costs precision
    # there, which would test floating subtraction rather than the function.
    left = regularized_incomplete_beta(a, b, x)
    right = 1.0 - regularized_incomplete_beta(b, a, 1.0 - x)
    assert left == pytest.approx(right, abs=1e-11)


@pytest.mark.parametrize("a,b,x", [(0.0, 1.0, 0.5), (1.0, -2.0, 0.5), (1.0, 1.0, 1.5)])
def test_incomplete_beta_domain(a, b, x):
    with pytest.raises(DomainError):
        regularized_incomplete_beta(a, b, x)


def test_log_binomial_frozen():
    # ln C(24, 7); C(24, 7) = 346104 by math.comb.
    assert log_binomial_coefficient(24, 7) == pytest.approx(
        12.754494586910017, rel=1e-13)
    assert log_binomial_coefficient(24, 7) == pytest.approx(
        math.log(math.comb(24, 7)), rel=1e-13)


def test_log_binomial_boundary_exact_zero():
    assert log_binomial_coefficient(17, 0) == 0.0
    assert log_binomial_coefficient(17, 17) == 0.0


@given(st.integers(0, 60), st.integers(0, 60))
def test_log_binomial_matches_comb(n, k):
    if k > n:
        with pytest.raises(DomainError):
            log_binomial_coefficient(n, k)
    else:
        assert log_binomial_coefficient(n, k) == pytest.approx(
            math.log(math.comb(n, k)), abs=1e-11)


def test_rng_stream_reproducible():
    a = RngStream(12345, 7).standard_normal(100)
    b = RngStream(12345, 7).standard_normal(100)
    assert np.array_equal(a, b)


def test_rng_stream_distinct_streams():
    a = RngStream(12345, 0).uniform(100)
    b = RngStream(12345, 1).uniform(100)
    c = RngStream(54321, 0).uniform(100)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_rng_stream_validation():
    with pytest.raises(DomainError):
        RngStream(-1)
    with pytest.raises(DomainError):
        RngStream(3, -2)
    with pytest.raises(DomainError):
        RngStream(2 ** 63)


SAMPLER_CASES = [(0.5, 0.5), (1.0, 1.0), (2.0, 5.0), (9.0, 3.0), (1722.0, 656.0)]


@pytest.mark.parametrize("a,b", SAMPLER_CASES)
def test_sample_beta_distribution(a, b):
    draws = sample_beta(a, b, RngStream(99, 5), size=20_000)
    assert draws.shape == (20_000,)
    assert np.all((draws > 0.0) & (draws < 1.0))
    # Kolmogorov-Smirnov against the target distribution.
    _, p = scipy.stats.kstest(draws, scipy.stats.beta(a, b).cdf)
    assert p > 1e-3
    mean = a / (a + b)
    var = a * b / ((a + b) ** 2 * (a + b + 1.0))
    assert abs(draws.mean() - mean) < 5.0 * math.sqrt(var / draws.size)


def test_sample_beta_scalar():
    value = sample_beta(2.0, 5.0, RngStream(4, 0))
    assert isinstance(value, float)
    assert 0.0 < value < 1.0


def test_sample_beta_deterministic():
    a = sample_beta(3.0, 1.5, RngStream(7, 3), size=10)
    b = sample_beta(3.0, 1.5, RngStream(7, 3), size=10)
    assert np.array_equal(a, b)


def test_sample_beta_domain():
    with pytest.raises(DomainError):
        sample_beta(0.0, 1.0, RngStream(1, 0))
    with pytest.raises(DomainError):
        sample_beta(1.0, -3.0, RngStream(1, 0))


@pytest.mark.parametrize("a,b", [(float("nan"), 1.0), (1.0, float("nan")), (float("inf"), 1.0)])
def test_sample_beta_rejects_non_finite_shapes(a, b):
    # Such a shape never passes the gamma sampler's acceptance test, so the
    # generator here fails on its first draw instead of looping forever.
    gen = mock.create_autospec(np.random.Generator, instance=True)
    gen.random.side_effect = gen.standard_normal.side_effect = AssertionError("drew")
    with pytest.raises(DomainError):
        sample_beta(a, b, gen, size=10)
