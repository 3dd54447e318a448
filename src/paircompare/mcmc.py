"""Random-walk Metropolis sampler for the two-rate model, with convergence
diagnostics and trace export as one ``.npy`` array.

Sampling happens on the logit scale so proposals never leave the support;
the Jacobian of the transform folds into the target density.  Each chain
owns the stream ``(master_seed, chain_index)``, which makes every chain, and
therefore the whole trace, reproducible in isolation.
"""

from __future__ import annotations

import itertools
import math
from pathlib import Path

import numpy as np

from .bayes import BetaParams
from .config import InitStrategy, McmcConfig
from .core import Counts, Record
from .errors import DomainError
from .fsio import atomic_write_text, json_text
from .numerics import sample_beta, stream

# Acceptance rate warmup steers each chain's proposal step toward.
_ADAPT_TARGET = 0.35
# Logit-scale proposal step each chain starts warmup with.
_INITIAL_STEP = 0.5

# Convergence thresholds; crossing either marks the trace non-converged.
RHAT_THRESHOLD = 1.01
ESS_THRESHOLD = 400.0

_MIN_ESS_DRAWS = 8

# Pre-drawn normals or uniforms a chain turns into Python floats at a time.
_FLOAT_SLICE = 1024


class Trace(Record):
    """Post-warmup samples and diagnostics for one sampler run.

    ``samples`` has shape (chains, draws, 2) on the original rate scale.
    """

    samples: np.ndarray
    accept_rates: tuple[float, ...]
    step_sizes: tuple[float, ...]
    rhat: tuple[float, float]
    ess: tuple[float, float]
    master_seed: int
    warmup: int
    converged: bool
    warnings: tuple[str, ...]

    def merged(self) -> np.ndarray:
        """All chains stacked into one (chains * draws, 2) array."""
        return self.samples.reshape(-1, 2)

    def diff_samples(self) -> np.ndarray:
        """theta1 - theta2 across all chains."""
        merged = self.merged()
        return merged[:, 0] - merged[:, 1]


def metropolis_accept(log_ratio: float, u: float) -> bool:
    """The Metropolis rule: accept when ``u < min(1, exp(log_ratio))``."""
    if log_ratio >= 0.0:
        return True
    if u <= 0.0:
        return True
    return math.log(u) < log_ratio


def _sigmoid(x: float) -> float:
    if x >= 0.0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def _logit(p: float) -> float:
    return math.log(p) - math.log1p(-p)


def log_density(prior: BetaParams, counts: Counts):
    """Log posterior of the logit rates with the Jacobian, up to a constant:
    ``-sum_i [A_i softplus(-eta_i) + B_i softplus(eta_i)]``, ``A_i = alpha +
    correct_i``, ``B_i = beta + wrong_i``.  One softplus is ``L = log1p(exp(
    -|eta|))`` and the other ``|eta| + L``: one exp and one log1p per rate, in
    the operations and order of two overflow-safe softplus calls, same bits.
    """
    (c1, t1), (c2, t2) = counts
    a_1, b_1 = prior.alpha + c1, prior.beta + (t1 - c1)
    a_2, b_2 = prior.alpha + c2, prior.beta + (t2 - c2)

    def log_post(e1: float, e2: float) -> float:
        if e1 > 0.0:
            l1 = math.log1p(math.exp(-e1))
            lp = a_1 * l1 + b_1 * (e1 + l1)
        else:
            l1 = math.log1p(math.exp(e1))
            lp = a_1 * (-e1 + l1) + b_1 * l1
        if e2 > 0.0:
            l2 = math.log1p(math.exp(-e2))
            return -(lp + a_2 * l2 + b_2 * (e2 + l2))
        l2 = math.log1p(math.exp(e2))
        return -(lp + a_2 * (-e2 + l2) + b_2 * l2)

    return log_post


def run_chains(prior: BetaParams, counts: Counts, config: McmcConfig,
               master_seed: int) -> Trace:
    """Sample the posterior of (theta1, theta2) with random-walk Metropolis.

    The proposal is an isotropic Gaussian step on the logit scale.  During
    warmup only, the step size follows a multiplicative stochastic
    approximation toward a 0.35 acceptance rate and is frozen afterwards.
    Both rates share ``prior``.  Identical inputs reproduce the trace bit for
    bit; ``config.enabled`` is the caller's business and is not read here.
    Each step runs on Python floats and one shared softplus term per rate
    (``log_density``).  A chain draws all its normals and uniforms before
    its first step and turns them into Python floats 1,024 at a time.  After
    warmup it keeps each accepted state once, as its sigmoid pair with its
    run length, and repeats it by that length into its own slice of the
    trace's array, which is allocated once for all chains.

    Convergence is flagged, not fatal: the returned trace carries
    ``converged`` plus human-readable warnings whenever the split-chain
    R-hat exceeds 1.01 or the effective sample size falls below 400.  An
    undefined diagnostic keeps the ``inf`` or ``nan`` that ``rhat`` or ``ess``
    returns and adds a warning of its own, ahead of the threshold warnings.
    """
    log_post = log_density(prior, counts)
    samples = np.empty((config.chains, config.draws, 2))
    accept_rates, step_sizes = zip(*(
        _run_single_chain(log_post, prior, counts, config, master_seed, chain, samples[chain])
        for chain in range(config.chains)))

    rhats = [rhat(samples[:, :, param]) for param in range(2)]
    esses = [ess(samples[:, :, param]) for param in range(2)]
    warnings = []
    for param, (r, e) in enumerate(zip(rhats, esses)):
        if r == math.inf:
            warnings.append(
                f"parameter {param + 1}: zero within-chain variance, R-hat undefined")
        elif math.isnan(r):
            warnings.append(f"parameter {param + 1}: too few draws for R-hat")
        if math.isnan(e):
            warnings.append(f"parameter {param + 1}: too few draws for an ESS estimate")
    for param, r in enumerate(rhats):
        if r > RHAT_THRESHOLD:
            warnings.append(f"parameter {param + 1}: R-hat {r:.4f} exceeds {RHAT_THRESHOLD}")
    for param, e in enumerate(esses):
        if e < ESS_THRESHOLD:
            warnings.append(f"parameter {param + 1}: effective sample size {e:.0f} below {ESS_THRESHOLD:.0f}")

    return Trace(
        samples=samples,
        accept_rates=tuple(accept_rates),
        step_sizes=tuple(step_sizes),
        rhat=(rhats[0], rhats[1]),
        ess=(esses[0], esses[1]),
        master_seed=master_seed,
        warmup=config.warmup,
        converged=not warnings,
        warnings=tuple(warnings),
    )


def _run_single_chain(log_post, prior, counts, config: McmcConfig, master_seed: int,
                      chain: int, rows: np.ndarray):
    """Fill ``rows`` with one chain's draws; return its acceptance rate and step."""
    (c1, t1), (c2, t2) = counts
    gen = stream(master_seed, chain)

    if config.init is InitStrategy.MLE_JITTER:
        j1, j2 = gen.standard_normal(2).tolist()
        e1 = _logit((c1 + 1.0) / (t1 + 2.0)) + 0.2 * j1
        e2 = _logit((c2 + 1.0) / (t2 + 2.0)) + 0.2 * j2
    else:
        # Tiny shapes underflow both gammas, so a draw can be 0, 1 or 0/0.
        with np.errstate(invalid="ignore"):
            draws = [sample_beta(prior.alpha, prior.beta, gen) for _ in range(2)]
        bad = next((p for p in draws if not 0.0 < p < 1.0), None)  # NaN too
        if bad is not None:
            raise DomainError(f"chain {chain}: prior draw {bad!r} has no logit; use "
                              f"init = mle_jitter or a prior with larger shapes")
        e1, e2 = map(_logit, draws)

    total = config.warmup + config.draws
    noise = _floats(gen.standard_normal(2 * total))  # a (total, 2) draw, read in pairs
    unifs = _floats(gen.random(total))

    step = _INITIAL_STEP
    lp = log_post(e1, e2)
    for t, n1, n2, u in zip(range(config.warmup), noise, noise, unifs):
        p1 = e1 + step * n1
        p2 = e2 + step * n2
        lp_prop = log_post(p1, p2)
        log_ratio = lp_prop - lp
        if metropolis_accept(log_ratio, u):
            e1, e2, lp = p1, p2, lp_prop
        # Robbins-Monro: multiplicative step update with decaying gain.
        alpha = 1.0 if log_ratio >= 0.0 else math.exp(log_ratio)
        step *= math.exp((alpha - _ADAPT_TARGET) * (t + 1.0) ** -0.6)

    # Accepted states and their runs of draws; warmup's last state may run 0.
    states, runs = [(_sigmoid(e1), _sigmoid(e2))], [0]
    for n1, n2, u in zip(noise, noise, unifs):
        p1 = e1 + step * n1
        p2 = e2 + step * n2
        lp_prop = log_post(p1, p2)
        if metropolis_accept(lp_prop - lp, u):
            e1, e2, lp = p1, p2, lp_prop
            states.append((_sigmoid(e1), _sigmoid(e2)))
            runs.append(1)
        else:
            runs[-1] += 1
    rows[:] = np.repeat(states, runs, axis=0)
    return (len(states) - 1) / config.draws, step


def _floats(values: np.ndarray):
    """An iterator over ``values`` as Python floats, made ``_FLOAT_SLICE`` at a time."""
    return itertools.chain.from_iterable(values[lo:lo + _FLOAT_SLICE].tolist()
                                         for lo in range(0, values.size, _FLOAT_SLICE))


def rhat(chain_samples) -> float:
    """Split-chain potential scale reduction factor.

    Each chain is halved, and the usual between/within variance ratio is
    computed over the half-chains.  Values near 1 indicate the chains agree.
    Below 4 draws per chain it returns ``nan``, and ``inf`` when the mean
    within-sequence variance is exactly zero.

    Raises
    ------
    DomainError
        Unless the input is a 2-D (chains, draws) array with at least 2 chains.
    """
    x = np.asarray(chain_samples, dtype=float)
    if x.ndim != 2 or x.shape[0] < 2:
        raise DomainError("rhat needs a 2-D (chains, draws) array with at least 2 chains")
    n = x.shape[1]
    if n < 4:
        return math.nan
    half = n // 2
    seqs = np.concatenate([x[:, :half], x[:, n - half:]], axis=0)
    within = float(np.mean(np.var(seqs, axis=1, ddof=1)))
    if within == 0.0:
        return math.inf
    between = half * float(np.var(np.mean(seqs, axis=1), ddof=1))
    pooled = (half - 1.0) / half * within + between / half
    return math.sqrt(pooled / within)


def ess(samples) -> float:
    """Effective sample size via initial-positive-sequence autocorrelation.

    ``samples`` is a 2-D (chains, draws) array.  Per chain the estimate is
    ``N / (1 + 2 sum rho_k)`` where the autocorrelations are summed in Geyer
    pairs until a pair turns non-positive; chain estimates add up and the
    result is clipped to ``(0, total draws]``.  A constant chain contributes
    the floor value of one effective draw.  Below 8 draws per chain the
    autocorrelation sum is meaningless and it returns ``nan``.

    Raises
    ------
    DomainError
        Unless the input is a 2-D (chains, draws) array.
    """
    x = np.asarray(samples, dtype=float)
    if x.ndim != 2:
        raise DomainError("ess expects a 2-D (chains, draws) sample array")
    if x.shape[1] < _MIN_ESS_DRAWS:
        return math.nan
    total = float(x.size)
    estimate = sum(_ess_single(chain) for chain in x)
    return min(estimate, total)


def _ess_single(x: np.ndarray) -> float:
    n = x.size
    if np.ptp(x) == 0.0:
        # Constant chains leave rounding fuzz in the FFT autocovariance;
        # catch them exactly instead of dividing fuzz by fuzz.
        return 1.0
    acov = _autocovariance(x)
    if acov[0] <= 0.0:
        return 1.0
    rho = acov / acov[0]
    # Geyer pairs (rho_2m + rho_2m+1), kept up to the first that is not
    # positive (a NaN pair is kept); cumsum adds them in order, as a loop would.
    k = n // 2
    pairs = rho[0:2 * k:2] + rho[1:2 * k:2]
    stop = np.flatnonzero(pairs <= 0.0).min(initial=k)
    pair_sum = float(np.cumsum(pairs[:stop])[-1]) if stop else 0.0
    tau = max(2.0 * pair_sum - 1.0, 1e-12)
    return max(n / tau, 1.0)


def _autocovariance(x: np.ndarray) -> np.ndarray:
    n = x.size
    centered = x - x.mean()
    size = 1 << (2 * n - 1).bit_length()
    f = np.fft.rfft(centered, size)
    del centered
    # f * conj(f) in place: the same products, one spectrum fewer alive.
    np.multiply(f, np.conj(f), out=f)
    acov = np.fft.irfft(f, size)[:n]
    return acov / n


def finite_or_null(values) -> list:
    """Diagnostics as JSON values: degenerate or too-short chains yield
    inf/nan R-hat and ESS, which JSON writes as null."""
    return [v if math.isfinite(v) else None for v in values]


def _npy_header(shape: tuple[int, ...]) -> bytes:
    """The NEP 1 (.npy) version 1.0 header of a little-endian float64 C-order
    array of ``shape``: magic string and version, the header length as a
    little-endian uint16, then the dict text, padded with spaces and a closing
    newline so that the data starts at a multiple of 64 bytes."""
    text = f"{{'descr': '<f8', 'fortran_order': False, 'shape': {shape}, }}"
    text += " " * (-(10 + len(text) + 1) % 64) + "\n"
    return b"\x93NUMPY\x01\x00" + len(text).to_bytes(2, "little") + text.encode("ascii")


def export_trace(trace: Trace, out_dir) -> list[Path]:
    """Write the samples as ``chains.npy`` plus a JSON diagnostics sidecar.

    ``chains.npy`` holds the whole (chains, draws, 2) ``trace.samples`` array
    as little-endian float64 in C order, so ``np.load`` returns it bit for
    bit.  Its header comes from a fixed template, so the file's bytes do not
    depend on the installed numpy's own writer.  The header and a memoryview
    of the samples go to the writer as two pieces, so a C-contiguous float64
    array, as ``run_chains`` makes, is never copied.  Files are written to a
    temporary name and renamed, so a crash never leaves a partial file behind.
    """
    out = Path(out_dir)
    samples = np.ascontiguousarray(trace.samples, dtype="<f8")
    header = _npy_header(samples.shape)
    chains = atomic_write_text(out / "chains.npy", (header, memoryview(samples)))
    diagnostics = {
        "accept_rates": list(trace.accept_rates),
        "step_sizes": list(trace.step_sizes),
        "rhat": finite_or_null(trace.rhat),
        "ess": finite_or_null(trace.ess),
        "master_seed": trace.master_seed,
        "chains": int(trace.samples.shape[0]),
        "draws": int(trace.samples.shape[1]),
        "warmup": trace.warmup,
        "converged": trace.converged,
        "warnings": list(trace.warnings),
    }
    return [chains, atomic_write_text(out / "diagnostics.json", json_text(diagnostics))]
