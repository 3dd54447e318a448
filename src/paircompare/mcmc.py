"""Random-walk Metropolis sampler for the two-rate model, with convergence
diagnostics and trace export.

Sampling happens on the logit scale so proposals never leave the support;
the Jacobian of the transform folds into the target density.  Each chain
owns the stream ``(master_seed, chain_index)``, which makes every chain, and
therefore the whole trace, reproducible in isolation.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from .bayes import BetaParams
from .core import Counts
from .errors import DegenerateChains, DomainError, IoError, TooFewSamples, check_config
from .fsio import atomic_write_text
from .numerics import FIRST_RESERVED_STREAM, RngStream, sample_beta

# Post-adaptation acceptance rates are expected to land in this band.
TARGET_ACCEPT_BAND = (0.2, 0.5)
_ADAPT_TARGET = 0.35
# Logit-scale proposal step each chain starts warmup with.
_INITIAL_STEP = 0.5

# Convergence thresholds; crossing either marks the trace non-converged.
RHAT_THRESHOLD = 1.01
ESS_THRESHOLD = 400.0

_MIN_ESS_DRAWS = 8


class InitStrategy(Enum):
    # Start at the smoothed observed rate (correct + 1) / (total + 2) with a
    # little logit-space noise.
    MLE_JITTER = "mle_jitter"
    PRIOR_DRAW = "prior_draw"


@dataclass(frozen=True)
class McmcConfig:
    """The ``[mcmc]`` section; building it, from text or in code, checks its ranges.

    Chain k draws from RNG stream k, so ``chains`` stays below
    ``FIRST_RESERVED_STREAM``, where the streams of other draws begin.
    """

    enabled: bool = True
    chains: int = 4
    warmup: int = 1000
    draws: int = 5000
    init: InitStrategy = InitStrategy.MLE_JITTER

    def __post_init__(self):
        check_config("mcmc", [
            ("chains", self.chains >= 2, "need at least 2 chains"),
            ("chains", self.chains < FIRST_RESERVED_STREAM,
             f"chains must stay below {FIRST_RESERVED_STREAM}, the first reserved stream index"),
            ("warmup", self.warmup >= 0, "warmup must be non-negative"),
            ("draws", self.draws >= 1, "draws must be positive"),
        ])


@dataclass
class Trace:
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
    (``log_density``); a rejected step repeats its row without new sigmoids.

    Convergence is flagged, not fatal: the returned trace carries
    ``converged`` plus human-readable warnings whenever the split-chain
    R-hat exceeds 1.01 or the effective sample size falls below 400.
    """
    log_post = log_density(prior, counts)
    rows, accept_rates, step_sizes = zip(*(
        _run_single_chain(log_post, prior, counts, config, master_seed, chain)
        for chain in range(config.chains)))
    all_samples = np.array(rows)

    warnings = []
    rhats = []
    esses = []
    for param in range(2):
        per_chain = all_samples[:, :, param]
        try:
            r = rhat(per_chain)
        except DegenerateChains:
            r = math.inf
            warnings.append(
                f"parameter {param + 1}: zero within-chain variance, R-hat undefined")
        except DomainError:
            r = math.nan
            warnings.append(f"parameter {param + 1}: too few draws for R-hat")
        rhats.append(r)
        try:
            e = ess(per_chain)
        except TooFewSamples:
            e = math.nan
            warnings.append(f"parameter {param + 1}: too few draws for an ESS estimate")
        esses.append(e)
    for param, r in enumerate(rhats):
        if r > RHAT_THRESHOLD:
            warnings.append(f"parameter {param + 1}: R-hat {r:.4f} exceeds {RHAT_THRESHOLD}")
    for param, e in enumerate(esses):
        if e < ESS_THRESHOLD:
            warnings.append(f"parameter {param + 1}: effective sample size {e:.0f} below {ESS_THRESHOLD:.0f}")

    return Trace(
        samples=all_samples,
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
                      chain: int):
    (c1, t1), (c2, t2) = counts
    stream = RngStream(master_seed, chain)
    gen = stream.generator

    if config.init is InitStrategy.MLE_JITTER:
        j1, j2 = gen.standard_normal(2).tolist()
        e1 = _logit((c1 + 1.0) / (t1 + 2.0)) + 0.2 * j1
        e2 = _logit((c2 + 1.0) / (t2 + 2.0)) + 0.2 * j2
    else:
        e1 = _logit(sample_beta(prior.alpha, prior.beta, gen))
        e2 = _logit(sample_beta(prior.alpha, prior.beta, gen))

    total = config.warmup + config.draws
    noise = gen.standard_normal((total, 2)).tolist()
    unifs = gen.random(total).tolist()

    step = _INITIAL_STEP
    lp = log_post(e1, e2)
    rows, row, accepted = [], None, 0
    warmup = config.warmup
    for t, ((n1, n2), u) in enumerate(zip(noise, unifs)):
        p1 = e1 + step * n1
        p2 = e2 + step * n2
        lp_prop = log_post(p1, p2)
        log_ratio = lp_prop - lp
        took = metropolis_accept(log_ratio, u)
        if took:
            e1, e2, lp, row = p1, p2, lp_prop, None
        if t < warmup:
            # Robbins-Monro: multiplicative step update with decaying gain.
            alpha = 1.0 if log_ratio >= 0.0 else math.exp(log_ratio)
            step *= math.exp((alpha - _ADAPT_TARGET) * (t + 1.0) ** -0.6)
        else:
            if row is None:
                row = (_sigmoid(e1), _sigmoid(e2))
            rows.append(row)
            accepted += took
    return rows, accepted / config.draws, step


def rhat(chain_samples) -> float:
    """Split-chain potential scale reduction factor.

    Each chain is halved, and the usual between/within variance ratio is
    computed over the half-chains.  Values near 1 indicate the chains agree.

    Raises
    ------
    DomainError
        For fewer than 2 chains or fewer than 4 draws per chain.
    DegenerateChains
        When the mean within-sequence variance is exactly zero.
    """
    x = np.asarray(chain_samples, dtype=float)
    if x.ndim != 2 or x.shape[0] < 2:
        raise DomainError("rhat needs a 2-D (chains, draws) array with at least 2 chains")
    n = x.shape[1]
    if n < 4:
        raise DomainError(f"rhat needs at least 4 draws per chain, got {n}")
    half = n // 2
    seqs = np.concatenate([x[:, :half], x[:, n - half:]], axis=0)
    within = float(np.mean(np.var(seqs, axis=1, ddof=1)))
    if within == 0.0:
        raise DegenerateChains("within-chain variance is zero")
    between = half * float(np.var(np.mean(seqs, axis=1), ddof=1))
    pooled = (half - 1.0) / half * within + between / half
    return math.sqrt(pooled / within)


def ess(samples) -> float:
    """Effective sample size via initial-positive-sequence autocorrelation.

    Accepts one chain (1-D) or several (2-D, chains x draws).  Per chain the
    estimate is ``N / (1 + 2 sum rho_k)`` where the autocorrelations are
    summed in Geyer pairs until a pair turns non-positive; chain estimates
    add up and the result is clipped to ``(0, total draws]``.  A constant
    chain contributes the floor value of one effective draw.

    Raises
    ------
    TooFewSamples
        With fewer than 8 draws per chain the autocorrelation sum is
        meaningless.
    """
    x = np.asarray(samples, dtype=float)
    if x.ndim == 1:
        x = x[None, :]
    if x.ndim != 2:
        raise DomainError("ess expects a 1-D or 2-D sample array")
    if x.shape[1] < _MIN_ESS_DRAWS:
        raise TooFewSamples(f"ess needs at least {_MIN_ESS_DRAWS} draws, got {x.shape[1]}")
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
    # Geyer pairs: keep (rho_2m + rho_2m+1) while positive.
    pair_sum = 0.0
    m = 0
    while 2 * m + 1 < n:
        gamma = rho[2 * m] + rho[2 * m + 1]
        if gamma <= 0.0:
            break
        pair_sum += gamma
        m += 1
    tau = max(2.0 * pair_sum - 1.0, 1e-12)
    return max(n / tau, 1.0)


def _autocovariance(x: np.ndarray) -> np.ndarray:
    n = x.size
    centered = x - x.mean()
    size = 1 << (2 * n - 1).bit_length()
    f = np.fft.rfft(centered, size)
    acov = np.fft.irfft(f * np.conj(f), size)[:n]
    return acov / n


def finite_or_null(values) -> list:
    """Diagnostics as JSON values: degenerate or too-short chains yield
    inf/nan R-hat and ESS, which JSON writes as null."""
    return [v if math.isfinite(v) else None for v in values]


def export_trace(trace: Trace, out_dir) -> list[Path]:
    """Write one CSV per chain plus a JSON diagnostics sidecar.

    Chain files are named ``chain_0.csv`` onward with header
    ``draw,theta1,theta2``.  Files are written to a temporary name and
    renamed, so a crash never leaves a partial file behind.  A row that
    repeats the one before it, as a rejected draw does, reuses its text.
    """
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise IoError(f"cannot create trace directory {out}: {exc}") from exc
    written = []
    for chain, rows in enumerate(trace.samples.tolist()):
        lines = ["draw,theta1,theta2"]
        shown = text = None
        for i, row in enumerate(rows):
            # Equal floats print alike, signed zeros aside.
            if row != shown or 0.0 in row:
                shown, text = row, f"{row[0]!r},{row[1]!r}"
            lines.append(f"{i},{text}")
        path = out / f"chain_{chain}.csv"
        atomic_write_text(path, "\n".join(lines) + "\n")
        written.append(path)
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
    path = out / "diagnostics.json"
    atomic_write_text(path, json.dumps(diagnostics, indent=2, allow_nan=False) + "\n")
    written.append(path)
    return written
