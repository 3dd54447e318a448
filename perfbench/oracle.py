"""Independent oracles for the outputs of paircompare's CLI commands.

Nothing here imports paircompare.  Each check recomputes what a report or
simulation file claims from the op's inputs, with scipy, exact arithmetic or
an exact recursion, and returns a list of problems (empty when the output is
right).  The quadrature cross-check is measured, not judged: its relative
errors are returned for the ``quad_digits`` figure.

The benchmark driver runs this file as its own process after the timed loop,
so that scipy never inflates the driver's memory (a child's peak RSS counts
its parent's at spawn time):

    python3 oracle.py < jobs.json > results.json

with ``{"schema": PATH, "jobs": [{"check": ..., "dir": ..., "expect": ...}]}``
in and ``{"problems": [[...], ...], "quad_errors": [[...], ...]}`` out, one
list of each per job.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import warnings
from pathlib import Path

import numpy as np
from scipy import integrate, special, stats

from workloads import PRESETS

# The MC false-positive rate must lie within this many of its standard
# errors of the exact rate.  At 5 SE an unbiased simulation fails about once
# in 1.7 million ops, whatever the seed.
FPR_MAX_SE = 5.0

# Tolerances for closed forms recomputed with scipy.  The package documents
# 1e-12 for its normal CDF and a 1e-9 round trip for its quantile.
_P_ABS, _P_REL = 1e-12, 1e-9
_CI_ABS = 1e-9
_Z_REL = 1e-12

# Window, in posterior standard deviations, outside which a concentrated Beta
# density holds no mass at double precision.
_WINDOW_SD = 14.0
_QUAD = dict(epsabs=0.0, epsrel=1e-13, limit=500)


def load_validator(schema_path: Path):
    import jsonschema

    schema = json.loads(schema_path.read_text(encoding="utf-8"))
    cls = jsonschema.validators.validator_for(schema)
    cls.check_schema(schema)
    return cls(schema)


@functools.lru_cache(maxsize=None)
def interval_probability(a1: float, b1: float, a2: float, b2: float, eps: float) -> float:
    """P(|X - Y| < eps) for independent X ~ Beta(a1, b1), Y ~ Beta(a2, b2).

    Integrates the density of X against Y's CDF band with adaptive
    Gauss-Kronrod quadrature (scipy ``quad``).  A concentrated X is
    integrated over its mean +- 14 sd only, so the adaptive rule sees the
    mass; a spread-out X is split at eps and 1 - eps, and its end pieces use
    the algebraic-singularity weight so shapes below 1 stay exact.  The
    density and CDF come from Boost via scipy and keep full precision at
    shapes of 1e9.
    """
    def band(t: float) -> float:
        return (special.betainc(a2, b2, min(t + eps, 1.0))
                - special.betainc(a2, b2, max(t - eps, 0.0)))

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        if min(a1, b1) >= 2.0:
            mean = a1 / (a1 + b1)
            sd = math.sqrt(a1 * b1 / ((a1 + b1) ** 2 * (a1 + b1 + 1.0)))
            lo, hi = max(0.0, mean - _WINDOW_SD * sd), min(1.0, mean + _WINDOW_SD * sd)
            mean2 = a2 / (a2 + b2)
            points = sorted(p for p in {mean, mean2 - eps, mean2 + eps, eps, 1.0 - eps}
                            if lo < p < hi)
            return integrate.quad(lambda t: stats.beta.pdf(t, a1, b1) * band(t),
                                  lo, hi, points=points or None, **_QUAD)[0]
        if not 0.0 < eps < 0.5:
            raise ValueError(f"eps must lie in (0, 0.5) for spread-out densities, got {eps}")
        ln_b = special.betaln(a1, b1)
        left = integrate.quad(
            lambda t: math.exp((b1 - 1.0) * math.log1p(-t) - ln_b) * band(t),
            0.0, eps, weight="alg", wvar=(a1 - 1.0, 0.0), **_QUAD)[0]
        middle = integrate.quad(lambda t: stats.beta.pdf(t, a1, b1) * band(t),
                                eps, 1.0 - eps, **_QUAD)[0]
        right = integrate.quad(
            lambda t: math.exp((a1 - 1.0) * math.log(t) - ln_b) * band(t),
            1.0 - eps, 1.0, weight="alg", wvar=(0.0, b1 - 1.0), **_QUAD)[0]
    return left + middle + right


@functools.lru_cache(maxsize=None)
def exact_optional_stopping(looks: tuple[int, ...], theta: float, alpha: float) -> float:
    """Exact false-positive rate of a two-sided z-test repeated at every look.

    The repeated-significance recursion of Armitage, McPherson & Rowe (JRSS A
    132(2), 1969): carry the joint pmf of the two arms' success counts from
    look to look, convolving each axis with the binomial pmf of the new
    items, and remove the mass of the rejection region at each look.  The
    rejection rule is the package's: pooled two-proportion z on equal arms,
    p = 2 Phi(-|z|) < alpha, never rejecting at a pooled rate of 0 or 1.
    """
    pmf = np.zeros((1, 1))
    pmf[0, 0] = 1.0
    prev = 0
    rate = 0.0
    for n in looks:
        step = n - prev
        kernel = stats.binom.pmf(np.arange(step + 1), step, theta)
        grown = np.zeros((n + 1, prev + 1))
        for j, w in enumerate(kernel):
            grown[j:j + prev + 1, :] += w * pmf
        pmf = np.zeros((n + 1, n + 1))
        for j, w in enumerate(kernel):
            pmf[:, j:j + prev + 1] += w * grown
        counts = np.arange(n + 1, dtype=float)
        c1, c2 = counts[:, None], counts[None, :]
        pooled = (c1 + c2) / (2.0 * n)
        with np.errstate(divide="ignore", invalid="ignore"):
            sigma = np.sqrt(pooled * (1.0 - pooled) * 2.0 / n)
            z = ((c1 - c2) / n) / sigma
            p = np.minimum(1.0, special.erfc(np.abs(z) / math.sqrt(2.0)))
        reject = (pooled > 0.0) & (pooled < 1.0) & (p < alpha)
        rate += float(pmf[reject].sum())
        pmf[reject] = 0.0
        prev = n
    return rate


def _close(value, reference, abs_tol, rel_tol) -> bool:
    return abs(value - reference) <= abs_tol + rel_tol * abs(reference)


def check_report(report: dict, expected: dict, validator) -> tuple[list[str], list[float]]:
    """Check one ``report.json`` against the op's inputs.

    ``expected`` carries ``counts`` ((c1, t1), (c2, t2)), ``prior`` (alpha,
    beta), ``mcmc`` (whether the sampler ran), ``direction``, ``alpha``,
    ``ci_level``, ``ci_mode`` and ``rope_radius``.  Returns (problems,
    quadrature relative errors).
    """
    problems = [f"schema: {e.message} at /{'/'.join(map(str, e.absolute_path))}"
                for e in validator.iter_errors(report)]
    if problems:
        return problems, []
    if (report["mcmc"] is not None) != expected["mcmc"]:
        problems.append(f"mcmc block is {report['mcmc']!r}, expected the sampler "
                        f"{'on' if expected['mcmc'] else 'off'}")
    (c1, t1), (c2, t2) = expected["counts"]
    eff = report["data"]["effective"]
    if eff["correct"] != [c1, c2] or eff["totals"] != [t1, t2]:
        problems.append(f"effective counts {eff['correct']}/{eff['totals']} "
                        f"!= {[c1, c2]}/{[t1, t2]}")
        return problems, []
    results = report["results"]
    p1, p2 = c1 / t1, c2 / t2
    diff = p1 - p2
    pooled = (c1 + c2) / (t1 + t2)
    pooled_sigma = math.sqrt(pooled * (1.0 - pooled) * (1.0 / t1 + 1.0 / t2))

    if "pvalue" in results:
        got = results["pvalue"]
        z = diff / pooled_sigma
        ref_p = float({"greater": stats.norm.sf(z), "less": stats.norm.cdf(z),
                       "two_sided": min(1.0, 2.0 * stats.norm.sf(abs(z)))}[expected["direction"]])
        if not _close(got["z"], z, 1e-15, _Z_REL):
            problems.append(f"z {got['z']!r} != {z!r}")
        if not _close(got["p_value"], ref_p, _P_ABS, _P_REL):
            problems.append(f"p_value {got['p_value']!r} != scipy {ref_p!r}")

    if "ci" in results:
        got = results["ci"]
        level = expected["ci_level"]
        if expected["ci_mode"] == "one_sided_pooled_z":
            sigma, crit = pooled_sigma, float(stats.norm.ppf(level))
        else:
            sigma = math.sqrt(p1 * (1.0 - p1) / t1 + p2 * (1.0 - p2) / t2)
            crit = float(stats.norm.ppf(1.0 - (1.0 - level) / 2.0))
        for key, ref in (("lower", diff - crit * sigma), ("upper", diff + crit * sigma)):
            if not _close(got[key], ref, _CI_ABS, 0.0):
                problems.append(f"ci {key} {got[key]!r} != scipy {ref!r}")

    pa, pb = expected["prior"]
    post = ((pa + c1, pb + (t1 - c1)), (pa + c2, pb + (t2 - c2)))
    if "hdi_rope" in results:
        conj = results["hdi_rope"]["conjugate"]
        for i, key in enumerate(("posterior1", "posterior2")):
            got = (conj[key]["alpha"], conj[key]["beta"])
            if got != post[i]:
                problems.append(f"{key} {got} != prior + counts {post[i]}")

    quad_errors = []
    if "bayes_factor" in results:
        quad = results["bayes_factor"]["quadrature"]
        eps = expected["rope_radius"]
        refs = {
            "prior_p0": interval_probability(pa, pb, pa, pb, eps),
            "post_p0": interval_probability(*post[0], *post[1], eps),
        }
        for key, ref in refs.items():
            quad_errors.append(abs(quad[key] - ref) / ref)
    return problems, quad_errors


def check_optional_stopping(payload: dict, expected: dict) -> list[str]:
    """Check a ``simulate optional-stopping`` result against the exact rate."""
    problems = []
    looks = tuple(range(expected["looks_step"], expected["looks_max"] + 1,
                        expected["looks_step"]))
    exact_rate = exact_optional_stopping(looks, expected["theta"], expected["alpha"])
    if tuple(payload["looks"]) != looks:
        problems.append("looks differ from the configured schedule")
    trials = payload["trials"]
    if trials != expected["trials"]:
        problems.append(f"trials {trials} != {expected['trials']}")
    frc = payload["first_rejection_counts"]
    if len(frc) != len(looks) or sum(frc) != payload["false_positives"]:
        problems.append("first_rejection_counts do not add up to false_positives")
    rate = payload["false_positive_rate"]
    if rate != payload["false_positives"] / trials:
        problems.append("false_positive_rate != false_positives / trials")
    se = math.sqrt(exact_rate * (1.0 - exact_rate) / trials)
    if abs(rate - exact_rate) > FPR_MAX_SE * se:
        problems.append(f"false_positive_rate {rate} is {(rate - exact_rate) / se:+.2f} SE "
                        f"from the exact {exact_rate:.6f} (limit {FPR_MAX_SE:g} SE)")
    return problems


def check_prior_sweep(payload: dict, expected: dict, presets: dict) -> list[str]:
    """Check a ``simulate prior-sweep`` result: one row per preset, in label
    order, each with the exact posterior mean difference and an HDI around it."""
    problems = []
    (c1, t1), (c2, t2) = expected["counts"]
    if payload["counts"] != [[c1, t1], [c2, t2]]:
        problems.append(f"counts {payload['counts']} != {expected['counts']}")
    if payload["epsilon"] != expected["epsilon"]:
        problems.append(f"epsilon {payload['epsilon']} != {expected['epsilon']}")
    labels = [row["label"] for row in payload["rows"]]
    if labels != sorted(presets):
        problems.append(f"rows {labels} != presets {sorted(presets)}")
        return problems
    for row in payload["rows"]:
        a, b = presets[row["label"]]
        if (row["prior"]["alpha"], row["prior"]["beta"]) != (a, b):
            problems.append(f"{row['label']}: prior {row['prior']} != {(a, b)}")
        mean_diff = (a + c1) / (a + b + t1) - (a + c2) / (a + b + t2)
        if not _close(row["posterior_mean_diff"], mean_diff, 1e-15, 1e-12):
            problems.append(f"{row['label']}: mean diff {row['posterior_mean_diff']!r} "
                            f"!= {mean_diff!r}")
        hdi = row["hdi"]
        if not hdi["lower"] < mean_diff < hdi["upper"] or hdi["mass"] != expected["hdi_mass"]:
            problems.append(f"{row['label']}: hdi {hdi} does not hold the mean {mean_diff}")
        if not row["bf01"] > 0.0:
            problems.append(f"{row['label']}: bf01 {row['bf01']} not positive")
    return problems


_OUTPUT = {"report": "report.json", "optional_stopping": "optional_stopping.json",
           "prior_sweep": "prior_sweep.json"}


def check_job(job: dict, validator) -> tuple[list[str], list[float]]:
    """Find the op's output file under its directory and check it:
    (problems, quadrature relative errors)."""
    name = _OUTPUT[job["check"]]
    found = sorted(Path(job["dir"]).rglob(name))
    if len(found) != 1:
        return [f"expected one {name}, found {len(found)}"], []
    try:
        payload = json.loads(found[0].read_text(encoding="utf-8"))
        if job["check"] == "optional_stopping":
            return check_optional_stopping(payload, job["expect"]), []
        if job["check"] == "prior_sweep":
            return check_prior_sweep(payload, job["expect"], PRESETS), []
        return check_report(payload, job["expect"], validator)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"output unreadable: {type(exc).__name__}: {exc}"], []


def main() -> int:
    request = json.load(sys.stdin)
    validator = load_validator(Path(request["schema"]))
    checked = [check_job(job, validator) for job in request["jobs"]]
    json.dump({"problems": [p for p, _ in checked], "quad_errors": [e for _, e in checked]},
              sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
