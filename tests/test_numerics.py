"""Accuracy and determinism checks for the numerical kernel.

scipy appears here purely as an independent oracle; the package itself never
imports it.
"""

import math
import re
import statistics
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import scipy.stats
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import seed_sequence_generator
from paircompare import numerics
from paircompare.errors import DomainError
from paircompare.numerics import (
    log_binomial_coefficient,
    sample_beta,
    std_normal_cdf,
    std_normal_pdf,
    std_normal_quantile,
    stream,
    stream_keys,
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


def _as241_mismatches(ps):
    inv_cdf = statistics.NormalDist().inv_cdf
    found = ((p, numerics._as241(p).hex(), inv_cdf(p).hex()) for p in map(float, ps))
    return [hit for hit in found if hit[1] != hit[2]]


def test_as241_matches_statistics_bit_for_bit_on_random_p():
    # The quantile's starting point is CPython's AS241 ported, not imported:
    # it must return NormalDist().inv_cdf's doubles exactly, sign included.
    # Uniform p, then p log-uniform down to 1e-300 and 1 - p down to 1e-16.
    rng = np.random.default_rng(20261019)
    ps = np.concatenate([rng.random(50_000), 10.0 ** -rng.uniform(0.0, 300.0, 30_000),
                         1.0 - 10.0 ** -rng.uniform(0.0, 16.0, 30_000)])
    ps = ps[(ps > 0.0) & (ps < 1.0)]
    assert ps.size >= 100_000
    assert _as241_mismatches(ps) == []


def test_as241_matches_statistics_bit_for_bit_at_the_edges():
    edges = [10.0 ** -k for k in range(1, 301)] + [5e-324, 0.5]
    edges += [1.0 - 10.0 ** -k for k in range(1, 17)]
    # Both sides of the central branch's |p - 0.5| <= 0.425, of 0.425 itself,
    # and of the tails' switch at sqrt(-log(p)) = 5.
    for edge in (0.075, 0.425, 0.925, math.exp(-25.0), 1.0 - math.exp(-25.0)):
        edges += [math.nextafter(edge, 0.0), edge, math.nextafter(edge, 1.0)]
    assert _as241_mismatches(edges) == []


def test_pdf_matches_scipy():
    for z in np.linspace(-10, 10, 101):
        assert std_normal_pdf(z) == pytest.approx(scipy.stats.norm.pdf(z), rel=1e-13)


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
    a = stream(12345, 7).standard_normal(100)
    b = stream(12345, 7).standard_normal(100)
    assert np.array_equal(a, b)


def test_rng_stream_distinct_streams():
    a = stream(12345, 0).random(100)
    b = stream(12345, 1).random(100)
    c = stream(54321, 0).random(100)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_rng_stream_validation():
    with pytest.raises(DomainError):
        stream(-1, 0)
    with pytest.raises(DomainError):
        stream(3, -2)
    with pytest.raises(DomainError):
        stream(2 ** 63, 0)
    # A bool is not a seed or an index, as for stream_keys.
    with pytest.raises(DomainError):
        stream(True, 0)
    with pytest.raises(DomainError):
        stream(3, False)


def test_every_stream_starts_from_stream_keys():
    # One route to a random stream: no stream class or generator adapter
    # beside ``stream``, and numpy's SeedSequence only behind the seed pool.
    lines = [(path.name, line) for path in sorted(Path(numerics.__file__).parent.glob("*.py"))
             for line in path.read_text(encoding="utf-8").splitlines()]
    assert [hit for hit in lines if "RngStream" in hit[1] or "_as_generator" in hit[1]] == []
    seeded = [hit for hit in lines if "SeedSequence" in hit[1]]
    assert len(seeded) == 1, seeded
    assert seeded[0][0] == "numerics.py" and seeded[0][1].startswith("_seed_pool = "), seeded


# Word-boundary values: 2**32 - 1 and 2**32 take one and two 32-bit words.
EDGE_KEY_PARTS = [0, 1, 2**32 - 1, 2**32, 2**32 + 1, 2**63 - 1]


def _seed_sequence_keys(seed, indices):
    states = [np.random.SeedSequence(entropy=seed, spawn_key=(i,)).generate_state(2, np.uint64)
              for i in indices]
    return np.array(states).reshape(-1, 2)


def test_stream_keys_match_seed_sequence():
    # About 1e5 (seed, index) pairs against numpy's own SeedSequence: every
    # edge seed and random seeds of one and two words, each with ranges from
    # 0, across 2**32 and ending at 2**63 - 1, then random ranges of one-word
    # indices, of indices near 2**32 and of indices up to 63 bits.
    rng = np.random.default_rng(20261018)
    seeds = EDGE_KEY_PARTS + [int(x) for x in np.concatenate([
        rng.integers(0, 2**32, 15), rng.integers(2**32, 2**63, 15, dtype=np.uint64)])]
    checked = 0
    for seed in seeds:
        ranges = [(0, 16), (2**32 - 8, 16), (2**63 - 16, 16)] + [
            (int(rng.integers(lo, hi, dtype=np.uint64)), 1000)
            for lo, hi in ((0, 2**32 - 1000), (2**32 - 1000, 2**32 + 1), (0, 2**63 - 1000))]
        for start, count in ranges:
            keys = stream_keys(seed, start, count)
            assert keys.dtype == np.uint64 and keys.shape == (count, 2)
            want = _seed_sequence_keys(seed, range(start, start + count))
            assert np.array_equal(keys, want), (seed, start)
            checked += count
    assert checked >= 90_000


def test_stream_keys_draw_what_the_stream_draws():
    # A Philox at counter 0 under stream_keys(seed, i, 1)[0], and stream(seed, i),
    # start where numpy's SeedSequence stream (seed, i) starts and draw what it draws.
    for seed, index in ((2024, 0), (2024, 37), (2**40 + 3, 2**32 + 5), (1729, 0),
                        (1729, 10_000), (1729, 20_001), (2**63 - 1, 2**33 + 5), (0, 0)):
        bitgen = np.random.Philox(key=stream_keys(seed, index, 1)[0])
        mine = stream(seed, index)
        oracle = seed_sequence_generator(seed, index)
        np.testing.assert_equal(bitgen.state, oracle.bit_generator.state)
        np.testing.assert_equal(mine.bit_generator.state, oracle.bit_generator.state)
        want = oracle.random(50)
        assert np.array_equal(np.random.Generator(bitgen).random(50), want)
        assert np.array_equal(mine.random(50), want)


def test_stream_reads_no_os_entropy(monkeypatch):
    # A stream's bits come from its key alone: with numpy's entropy source
    # refusing, stream() still builds, and draws what the oracle draws.
    oracle = seed_sequence_generator(1729, 10_000).random(8)

    def refuse(bits):
        raise AssertionError("stream read OS entropy")

    monkeypatch.setattr(np.random.bit_generator, "randbits", refuse)
    with pytest.raises(AssertionError, match="OS entropy"):
        np.random.Philox()  # the patch reaches numpy's seeding
    assert np.array_equal(stream(1729, 10_000).random(8), oracle)


@pytest.mark.parametrize("start, count, message", [
    (-2, 5, "stream_index must be an integer in [0, 2**63), got -2"),
    (2**63 - 2, 4, f"last stream_index must be an integer in [0, 2**63), got {2**63 + 1}"),
    (0, 0, "last stream_index must be an integer in [0, 2**63), got -1"),
    (3, 2.0, "last stream_index must be an integer in [0, 2**63), got 4.0"),
], ids=["negative_start", "past_2**63", "empty", "float_count"])
def test_stream_keys_refuse_a_range_outside_the_indices(start, count, message):
    # A range is checked by its first and last index: it must hold at least
    # one index, and every index must lie in [0, 2**63).
    with pytest.raises(DomainError, match=re.escape(message)):
        stream_keys(1, start, count)


BAD_KEY_PARTS = [-1, 2**63, 2**64, 1.5, 3.0, True, False, None, np.int64(3)]


@pytest.mark.parametrize("bad", BAD_KEY_PARTS, ids=repr)
def test_stream_keys_refuse_what_rng_stream_refuses(bad):
    with pytest.raises(DomainError, match="master_seed must be an integer in"):
        stream_keys(bad, 0, 1)
    with pytest.raises(DomainError, match="master_seed must be an integer in"):
        stream(bad, 0)
    with pytest.raises(DomainError, match="stream_index must be an integer in"):
        stream_keys(1, bad, 1)
    with pytest.raises(DomainError, match="stream_index must be an integer in"):
        stream(1, bad)


SAMPLER_CASES = [(0.5, 0.5), (1.0, 1.0), (2.0, 5.0), (9.0, 3.0), (1722.0, 656.0)]


@pytest.mark.parametrize("a,b", SAMPLER_CASES)
def test_sample_beta_distribution(a, b):
    draws = sample_beta(a, b, stream(99, 5), size=20_000)
    assert draws.shape == (20_000,)
    assert np.all((draws > 0.0) & (draws < 1.0))
    # Kolmogorov-Smirnov against the target distribution.
    _, p = scipy.stats.kstest(draws, scipy.stats.beta(a, b).cdf)
    assert p > 1e-3
    mean = a / (a + b)
    var = a * b / ((a + b) ** 2 * (a + b + 1.0))
    assert abs(draws.mean() - mean) < 5.0 * math.sqrt(var / draws.size)


def test_sample_beta_scalar():
    value = sample_beta(2.0, 5.0, stream(4, 0))
    assert isinstance(value, float)
    assert 0.0 < value < 1.0


def test_sample_beta_deterministic():
    a = sample_beta(3.0, 1.5, stream(7, 3), size=10)
    b = sample_beta(3.0, 1.5, stream(7, 3), size=10)
    assert np.array_equal(a, b)


def test_sample_beta_domain():
    with pytest.raises(DomainError):
        sample_beta(0.0, 1.0, stream(1, 0))
    with pytest.raises(DomainError):
        sample_beta(1.0, -3.0, stream(1, 0))


@pytest.mark.parametrize("a,b", [(float("nan"), 1.0), (1.0, float("nan")), (float("inf"), 1.0)])
def test_sample_beta_rejects_non_finite_shapes(a, b):
    # Such a shape never passes the gamma sampler's acceptance test, so the
    # generator here fails on its first draw instead of looping forever.
    gen = mock.create_autospec(np.random.Generator, instance=True)
    gen.random.side_effect = gen.standard_normal.side_effect = AssertionError("drew")
    with pytest.raises(DomainError):
        sample_beta(a, b, gen, size=10)


@pytest.mark.parametrize("size", [2.5, -1, "3", np.float64(3.0)])
def test_sample_beta_rejects_sizes_that_are_not_counts(size):
    with pytest.raises(DomainError):
        sample_beta(2.0, 5.0, stream(1, 0), size=size)


@pytest.mark.parametrize("size", [0, 3, np.int64(3), np.uint8(3)])
def test_sample_beta_takes_python_and_numpy_integer_sizes(size):
    draws = sample_beta(2.0, 5.0, stream(1, 0), size=size)
    assert draws.shape == (int(size),)


# The whole-array Marsaglia-Tsang sampler the block-wise one replaced, kept
# verbatim as the oracle of its draw order and arithmetic.
def _whole_array_gamma(shape, gen, size):
    if shape < 1.0:
        g = _whole_array_gamma(shape + 1.0, gen, size)
        u = gen.random(size)
        return g * u ** (1.0 / shape)
    d = shape - 1.0 / 3.0
    c = 1.0 / math.sqrt(9.0 * d)
    out = np.empty(size)
    todo = np.arange(size)
    while todo.size:
        z = gen.standard_normal(todo.size)
        u = gen.random(todo.size)
        v = (1.0 + c * z) ** 3
        ok = v > 0.0
        logv = np.log(np.where(ok, v, 1.0))
        accept = ok & (np.log(u) < 0.5 * z * z + d - d * v + d * logv)
        out[todo[accept]] = d * v[accept]
        todo = todo[~accept]
    return out


def _whole_array_beta(a, b, gen, size=None):
    n = 1 if size is None else int(size)
    g1 = _whole_array_gamma(float(a), gen, n)
    g2 = _whole_array_gamma(float(b), gen, n)
    draws = g1 / (g1 + g2)
    return float(draws[0]) if size is None else draws


BLOCK = 4096
SHAPES = st.floats(-3.0, 9.0).map(lambda e: 10.0 ** e) | st.sampled_from([0.5, 1.0, 2.0])
SIZES = st.sampled_from([None, 0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1]) \
    | st.integers(0, 300_000)


@given(a=SHAPES, b=SHAPES, size=SIZES, index=st.integers(0, 2**20))
@example(a=1722.0, b=655.0, size=100_000, index=10_000)
@example(a=1e-3, b=1e9, size=2 * BLOCK + 1, index=0)
@example(a=0.5, b=0.5, size=None, index=1)
@settings(max_examples=60, deadline=None)
def test_sample_beta_keeps_the_whole_array_draws_bit_for_bit(a, b, size, index):
    mine, oracle = stream(2024, index), seed_sequence_generator(2024, index)
    # Shapes near 1e-3 underflow both gammas to 0 now and then: 0/0 is NaN on both sides.
    with np.errstate(invalid="ignore"):
        got = sample_beta(a, b, mine, size)
        want = _whole_array_beta(a, b, oracle, size)
    assert type(got) is type(want)
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
    np.testing.assert_equal(mine.bit_generator.state, oracle.bit_generator.state)


@pytest.mark.parametrize("a,b", [(1722.0, 655.0), (0.5, 0.5), (0.05, 0.05)])
def test_sample_beta_working_set_holds_no_per_draw_mask(a, b):
    # 100k draws return 800 kB, and the peak is 2.3-2.45 of that: the two
    # outputs, the redraws and their indices.  An n-byte rejection mask
    # (0.125 x) takes the (0.05, 0.05) case past 2.55 x; n-long temporaries,
    # as the whole-array form made (an 8.1 MB peak), take every case past it.
    gen = stream(3, 0)
    tracemalloc.start()
    try:
        sample_beta(a, b, gen, 100_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.55 * 800_000, peak / 800_000
