"""Self-contained numeric kernels.

Everything the statistical layers need beyond basic arithmetic lives here:
the standard normal CDF and quantile, beta-variate sampling, log binomial
coefficients, and seeded random streams.  Accuracy targets (absolute error
unless noted):

* ``std_normal_cdf``              <= 1e-12
* ``std_normal_quantile``         round-trip |quantile(cdf(z)) - z| <= 1e-9
  for z in [-8, 5]; beyond that the CDF saturates against 1 and the float
  spacing of p, not the algorithm, limits what any inverse can recover
* ``log_binomial_coefficient``    relative error <= 1e-12

``sample_beta`` divides Marsaglia-Tsang gamma variates (ACM TOMS 26(3), 2000),
all of Gamma(a) before Gamma(b).  Pinned bytes rest on that draw order: each
rejection round draws all its normals, then its uniforms; a shape below 1 then
draws one boost uniform per draw.  In blocks of 4,096, n draws need the two
n-long outputs, an n-byte rejection mask, the redraws (about 5% of n at shape
1, fewer above) and about 250 kB of block temporaries: 17-18 bytes per draw.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field

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

    A rational initial estimate is polished with two Newton steps against
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
    z = statistics.NormalDist().inv_cdf(p)
    for _ in range(2):
        density = std_normal_pdf(z)
        if density <= 1e-300:
            break
        z -= (std_normal_cdf(z) - p) / density
    return z


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
#   20_000 + 2i + 1   prior-sweep row i: HDI draws    (simulations)
#   0 .. trials-1     optional-stopping trial t       (simulations; a command
#                                                      of its own)
#
# The even sweep indices 20_000 + 2i stay unused, so each row's HDI keeps the
# stream, and the bytes, of reports made before the Bayes factor was exact.
# ``[mcmc] chains`` must stay below FIRST_RESERVED_STREAM, which ``McmcConfig``
# enforces whenever one is built, from config text or in code.
STREAM_POSTERIOR_DRAWS = 10_000
STREAM_SWEEP_BASE = 20_000
FIRST_RESERVED_STREAM = STREAM_POSTERIOR_DRAWS


@dataclass
class RngStream:
    """Deterministic random stream keyed by ``(master_seed, stream_index)``.

    Streams constructed with equal keys yield bit-identical draw sequences;
    distinct indices give statistically independent streams.  Backed by the
    counter-based Philox generator, so any stream can be built directly from
    its key without touching shared state.
    """

    master_seed: int
    stream_index: int = 0
    generator: np.random.Generator = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not isinstance(self.master_seed, int) or not 0 <= self.master_seed < 2**63:
            raise DomainError(f"master_seed must be an integer in [0, 2**63), got {self.master_seed!r}")
        if not isinstance(self.stream_index, int) or not 0 <= self.stream_index < 2**63:
            raise DomainError(f"stream_index must be an integer in [0, 2**63), got {self.stream_index!r}")
        seq = np.random.SeedSequence(entropy=self.master_seed, spawn_key=(self.stream_index,))
        self.generator = np.random.Generator(np.random.Philox(seq))


def _as_generator(rng) -> np.random.Generator:
    if isinstance(rng, RngStream):
        return rng.generator
    if isinstance(rng, np.random.Generator):
        return rng
    raise DomainError(f"expected an RngStream or numpy Generator, got {type(rng).__name__}")


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
    rejected = np.empty(size, dtype=bool)
    for lo in range(0, size, _GAMMA_BLOCK):
        z = out[lo:lo + _GAMMA_BLOCK]
        u = gen.random(z.size)
        v = (1.0 + c * z) ** 3
        ok = v > 0.0
        logv = np.log(np.where(ok, v, 1.0))
        accept = ok & (np.log(u) < 0.5 * z * z + d - d * v + d * logv)
        np.logical_not(accept, out=rejected[lo:lo + z.size])
        np.multiply(d, v, out=z)
    redraw = np.flatnonzero(rejected)
    if redraw.size:  # the next round redraws the rejected, in order, as a sample
        out[redraw] = _sample_gamma(shape, gen, redraw.size)
    return out


def sample_beta(a: float, b: float, rng, size=None):
    """Beta(a, b) draws built from two gamma variates.

    Parameters
    ----------
    a, b : float
        Shape parameters, both strictly positive.
    rng : RngStream or numpy.random.Generator
        Source of randomness; the draw sequence is deterministic given the
        stream key.
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
    gen = _as_generator(rng)
    n = 1 if size is None else int(size)
    g1 = _sample_gamma(float(a), gen, n)
    g2 = _sample_gamma(float(b), gen, n)
    g1 /= np.add(g1, g2, out=g2)
    if size is None:
        return float(g1[0])
    return g1
