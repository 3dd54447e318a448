"""Self-contained numeric kernels.

Everything the statistical layers need beyond basic arithmetic lives here:
the standard normal CDF and quantile, beta-variate sampling, log binomial
coefficients, and the seeded random streams every draw comes from.  Accuracy
targets (absolute error unless noted):

* ``std_normal_cdf``              <= 1e-12
* ``std_normal_quantile``         round-trip |quantile(cdf(z)) - z| <= 1e-9
  for z in [-8, 5]; beyond that the CDF saturates against 1 and the float
  spacing of p, not the algorithm, limits what any inverse can recover
* ``log_binomial_coefficient``    relative error <= 1e-12

The quantile starts from Wichura's AS241 rational approximation (Applied
Statistics 37(3), 1988), ported as CPython's ``statistics.NormalDist`` writes
it, and polishes that with Newton steps against the CDF.

``sample_beta`` divides Marsaglia-Tsang gamma variates (ACM TOMS 26(3), 2000),
all of Gamma(a) before Gamma(b).  Pinned bytes rest on that draw order: each
rejection round draws all its normals, then its uniforms; a shape below 1 then
draws one boost uniform per draw.  In blocks of 4,096, n draws need the two
n-long outputs, the rejected indices, 8 bytes each, kept block by block (about
5% of n at shape 1, fewer above), the redraws and about 250 kB of block
temporaries: 16-17 bytes per draw beside those 250 kB.

Pinned bytes hold for one numpy build and SIMD level.  numpy's AVX-512
(``X86_V4``) kernels change the last bits of ``power``, ``log`` and ``exp``,
so ``sample_beta``'s draws, and the quadrature and the exact HDI built on the
same ufuncs, differ in their last bits on CPUs without AVX-512.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import DomainError

_SQRT_2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
_GAMMA_BLOCK = 4096  # draws per block of the gamma sampler's acceptance test


def std_normal_cdf(z: float) -> float:
    """Standard normal CDF, evaluated through the complementary error function."""
    return 0.5 * math.erfc(-z / _SQRT_2)


def std_normal_pdf(z: float) -> float:
    """Standard normal density."""
    return _INV_SQRT_2PI * math.exp(-0.5 * z * z)


def std_normal_quantile(p: float) -> float:
    """Inverse of :func:`std_normal_cdf`.

    AS241's estimate is polished with two Newton steps against
    ``std_normal_cdf``, which keeps the round-trip error below 1e-9.

    Parameters
    ----------
    p : float
        Probability, strictly between 0 and 1.

    Raises
    ------
    DomainError
        If ``p`` is outside the open interval (0, 1).
    """
    if not 0.0 < p < 1.0:
        raise DomainError(f"quantile requires p in (0, 1), got {p!r}")
    z = _as241(p)
    for _ in range(2):
        density = std_normal_pdf(z)
        if density <= 1e-300:
            break
        z -= (std_normal_cdf(z) - p) / density
    return z


def _as241(p: float) -> float:
    # Wichura, M.J. (1988). "Algorithm AS241: The Percentage Points of the
    # Normal Distribution".  Applied Statistics 37(3): 477-484.  Line for line
    # CPython's statistics._normal_dist_inv_cdf at mu = 0, sigma = 1, so it
    # returns NormalDist().inv_cdf(p) bit for bit.
    q = p - 0.5
    if math.fabs(q) <= 0.425:
        r = 0.180625 - q * q
        # Hash sum: 55.88319_28806_14901_4439
        num = (((((((2.50908_09287_30122_6727e+3 * r +
                     3.34305_75583_58812_8105e+4) * r +
                     6.72657_70927_00870_0853e+4) * r +
                     4.59219_53931_54987_1457e+4) * r +
                     1.37316_93765_50946_1125e+4) * r +
                     1.97159_09503_06551_4427e+3) * r +
                     1.33141_66789_17843_7745e+2) * r +
                     3.38713_28727_96366_6080e+0) * q
        den = (((((((5.22649_52788_52854_5610e+3 * r +
                     2.87290_85735_72194_2674e+4) * r +
                     3.93078_95800_09271_0610e+4) * r +
                     2.12137_94301_58659_5867e+4) * r +
                     5.39419_60214_24751_1077e+3) * r +
                     6.87187_00749_20579_0830e+2) * r +
                     4.23133_30701_60091_1252e+1) * r +
                     1.0)
        return num / den
    r = p if q <= 0.0 else 1.0 - p
    r = math.sqrt(-math.log(r))
    if r <= 5.0:
        r = r - 1.6
        # Hash sum: 49.33206_50330_16102_89036
        num = (((((((7.74545_01427_83414_07640e-4 * r +
                     2.27238_44989_26918_45833e-2) * r +
                     2.41780_72517_74506_11770e-1) * r +
                     1.27045_82524_52368_38258e+0) * r +
                     3.64784_83247_63204_60504e+0) * r +
                     5.76949_72214_60691_40550e+0) * r +
                     4.63033_78461_56545_29590e+0) * r +
                     1.42343_71107_49683_57734e+0)
        den = (((((((1.05075_00716_44416_84324e-9 * r +
                     5.47593_80849_95344_94600e-4) * r +
                     1.51986_66563_61645_71966e-2) * r +
                     1.48103_97642_74800_74590e-1) * r +
                     6.89767_33498_51000_04550e-1) * r +
                     1.67638_48301_83803_84940e+0) * r +
                     2.05319_16266_37758_82187e+0) * r +
                     1.0)
    else:
        r = r - 5.0
        # Hash sum: 47.52583_31754_92896_71629
        num = (((((((2.01033_43992_92288_13265e-7 * r +
                     2.71155_55687_43487_57815e-5) * r +
                     1.24266_09473_88078_43860e-3) * r +
                     2.65321_89526_57612_30930e-2) * r +
                     2.96560_57182_85048_91230e-1) * r +
                     1.78482_65399_17291_33580e+0) * r +
                     5.46378_49111_64114_36990e+0) * r +
                     6.65790_46435_01103_77720e+0)
        den = (((((((2.04426_31033_89939_78564e-15 * r +
                     1.42151_17583_16445_88870e-7) * r +
                     1.84631_83175_10054_68180e-5) * r +
                     7.86869_13114_56132_59100e-4) * r +
                     1.48753_61290_85061_48525e-2) * r +
                     1.36929_88092_27358_05310e-1) * r +
                     5.99832_20655_58879_37690e-1) * r +
                     1.0)
    x = num / den
    if q < 0.0:
        x = -x
    return x


def log_binomial_coefficient(n: int, k: int) -> float:
    """Natural log of C(n, k).

    Exact zero at the boundaries; elsewhere computed through ``lgamma``.

    Raises
    ------
    DomainError
        If ``n < 0`` or ``k`` is outside [0, n].
    """
    if n < 0 or k < 0 or k > n:
        raise DomainError(f"log binomial coefficient needs 0 <= k <= n, got n={n!r}, k={k!r}")
    if k == 0 or k == n:
        return 0.0
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)


# Stream indices under one master seed, by consumer.  Every consumer of one
# run draws from its own index, so no two share draws:
#
#   0 .. chains-1     MCMC chain k                    (mcmc.run_chains)
#   10_000            conjugate posterior draws       (reporting)
#   0 .. trials-1     optional-stopping trial t       (simulations; a command
#                                                      of its own)
#
# Every draw starts from its index's Philox key, which ``stream_keys`` hashes
# for a range of indices: ``stream`` asks for one, for the first two
# consumers; optional stopping asks for one batch of trials and resets one
# Philox to each trial's key, with no generator built per trial.  A trial
# reads raw words (``random_raw``, fixed bit for bit by NEP 19), not doubles:
# ceil(2 n_max / 8) words, one byte per item, then one word per item whose
# byte ties floor(256 theta).  Its items are hits with probability
# ceil(theta 2**61) / 2**61, exact to 2**-61.
#
# ``[mcmc] chains`` must stay below FIRST_RESERVED_STREAM, which
# ``config.McmcConfig`` enforces whenever one is built, from text or in code.
STREAM_POSTERIOR_DRAWS = 10_000
FIRST_RESERVED_STREAM = STREAM_POSTERIOR_DRAWS


def _check_key_part(name: str, value) -> None:
    if isinstance(value, bool) or not isinstance(value, int) or not 0 <= value < 2**63:
        raise DomainError(f"{name} must be an integer in [0, 2**63), got {value!r}")


# numpy's seed sequence (O'Neill's seed_seq design) hashes the entropy words
# into a pool of four uint32 words, then hashes the pool into its output.
# Each hash call xors with the next constant of a fixed sequence, whatever the
# data, and multiplies by the one after it.  Stream (master_seed, i) has the
# entropy words of master_seed, zero-padded to the pool size, then i's low
# word and, for i >= 2**32, its high word.  The seed's words take the first 16
# hash calls and leave the seed's own pool, which ``_seed_pool`` caches; i's
# words take calls 16-19 and 20-23, one per pool word.  The arithmetic runs on
# uint32 arrays, whose products wrap modulo 2**32 as the C code's do.
def _hash_constants(init: int, mult: int, first: int) -> tuple[np.ndarray, np.ndarray]:
    """(xor, multiplier) of hash calls ``first`` .. ``first + 3``, one per pool word."""
    consts = [init]
    for _ in range(first + 4):
        consts.append(consts[-1] * mult & 0xFFFFFFFF)
    consts = np.array(consts[first:], dtype=np.uint32)
    return consts[:-1], consts[1:]


# numpy's INIT_A and MULT_A hash the entropy into the pool, INIT_B and MULT_B
# the pool into the output.
_INDEX_HASH = [_hash_constants(0x43B0D7E5, 0x931E8875, first) for first in (16, 20)]
_OUT_HASH = _hash_constants(0x8B51F9DD, 0x58F38DED, 0)
# The pool of each recent seed, which stream_keys reads and never writes; built
# on first use, since numpy 2 imports numpy.random only when it is first used.
_seed_pool = functools.lru_cache(maxsize=8)(lambda seed: np.random.SeedSequence(seed).pool)


def _hash(value: np.ndarray, xor: np.ndarray, mult: np.ndarray) -> np.ndarray:
    value = (value ^ xor) * mult
    return value ^ value >> np.uint32(16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    value = np.uint32(0xCA01F9DD) * x - np.uint32(0x4973F715) * y
    return value ^ value >> np.uint32(16)


def stream_keys(master_seed: int, start: int, count: int) -> np.ndarray:
    """Philox keys of the streams ``(master_seed, start + j)`` for ``j < count``.

    Row ``j`` is the key numpy's seed sequence with entropy ``master_seed``
    and spawn key ``(start + j,)`` gives a Philox generator;
    ``stream(master_seed, i)`` is that Philox at counter 0.  The hash runs on
    the whole index range, so one call costs about 20 array operations
    whatever ``count``, and each seed's pool is hashed once.

    Parameters
    ----------
    master_seed : int
        Seed of the run, in [0, 2**63).
    start, count : int
        The first stream index and the number of consecutive indices, at
        least one; every index lies in [0, 2**63).

    Returns
    -------
    numpy.ndarray
        ``(count, 2)`` uint64 keys.

    Raises
    ------
    DomainError
        If ``master_seed``, ``start`` or the last index is not an ``int`` in
        [0, 2**63): a ``bool`` or a numpy integer is refused.
    """
    _check_key_part("master_seed", master_seed)
    _check_key_part("stream_index", start)
    _check_key_part("last stream_index", start + count - 1)
    indices = np.arange(count, dtype=np.uint64) + np.uint64(start)
    low = indices.astype(np.uint32)[:, None]  # the cast keeps the low 32 bits
    pool = _mix(_seed_pool(master_seed), _hash(low, *_INDEX_HASH[0]))
    high = indices >> np.uint64(32)
    wide = np.flatnonzero(high)  # indices of 2**32 and above have a second word
    if wide.size:
        high = high[wide].astype(np.uint32)[:, None]
        pool[wide] = _mix(pool[wide], _hash(high, *_INDEX_HASH[1]))
    # Little-endian word pairs, as the seed sequence's generate_state assembles them.
    words = _hash(pool, *_OUT_HASH).astype("<u4", copy=False)
    return words.view("<u8").astype(np.uint64, copy=False)


def stream(master_seed: int, index: int) -> np.random.Generator:
    """The random stream ``(master_seed, index)``: Philox at counter 0 under
    its key, ``stream_keys(master_seed, index, 1)[0]``.

    Equal keys give bit-identical draws and distinct indices independent
    streams; ``master_seed`` and ``index`` are checked as by ``stream_keys``.
    """
    key = stream_keys(master_seed, index, 1)[0]
    # Philox(key=...) would first seed itself from OS entropy, then discard it;
    # a fixed seed reads none, and the key set on its state replaces that seed's.
    bitgen = np.random.Philox(0)
    state = bitgen.state
    state["state"]["key"] = key
    bitgen.state = state
    return np.random.Generator(bitgen)


def _sample_gamma(shape: float, gen: np.random.Generator, size: int) -> np.ndarray:
    # Marsaglia-Tsang squeeze method; shapes below 1 use the power boost
    # Gamma(a) = Gamma(a + 1) * U^(1/a), with the whole-array form's operation order.
    if shape < 1.0:
        g = _sample_gamma(shape + 1.0, gen, size)
        for lo in range(0, size, _GAMMA_BLOCK):
            block = g[lo:lo + _GAMMA_BLOCK]
            block *= gen.random(block.size) ** (1.0 / shape)
        return g
    d = shape - 1.0 / 3.0
    c = 1.0 / math.sqrt(9.0 * d)
    out = gen.standard_normal(size)  # each block's draws overwrite its normals
    rejected = [np.empty(0, dtype=np.intp)]  # each block's rejected indices, in order
    for lo in range(0, size, _GAMMA_BLOCK):
        z = out[lo:lo + _GAMMA_BLOCK]
        u = gen.random(z.size)
        v = (1.0 + c * z) ** 3
        ok = v > 0.0
        logv = np.log(np.where(ok, v, 1.0))
        accept = ok & (np.log(u) < 0.5 * z * z + d - d * v + d * logv)
        rejected.append(np.flatnonzero(~accept) + lo)
        np.multiply(d, v, out=z)
    rejected = np.concatenate(rejected)
    if rejected.size:  # the next round redraws the rejected, in order, as a sample
        out[rejected] = _sample_gamma(shape, gen, rejected.size)
    return out


def sample_beta(a: float, b: float, rng, size=None):
    """Beta(a, b) draws built from two gamma variates.

    Parameters
    ----------
    a, b : float
        Shape parameters, both strictly positive.
    rng : numpy.random.Generator
        Source of randomness, usually ``stream(seed, index)``; the draws are
        deterministic given its state.
    size : int, optional
        Number of draws, a non-negative integer.  ``None`` returns a scalar.

    Raises
    ------
    DomainError
        If either shape parameter is not positive and finite, or ``size`` is
        neither None nor a non-negative integer.
    """
    if not (0.0 < a < math.inf and 0.0 < b < math.inf):  # a NaN shape would never accept a draw
        raise DomainError(f"beta sampling requires finite a > 0 and b > 0, got a={a!r}, b={b!r}")
    if not (size is None or isinstance(size, (int, np.integer)) and size >= 0):
        raise DomainError(f"size must be None or an integer >= 0, got {size!r}")
    n = 1 if size is None else int(size)
    g1 = _sample_gamma(float(a), rng, n)
    g2 = _sample_gamma(float(b), rng, n)
    g1 /= np.add(g1, g2, out=g2)
    if size is None:
        return float(g1[0])
    return g1
