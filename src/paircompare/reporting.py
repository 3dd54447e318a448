"""Analysis orchestration and report emission.

``run_analysis`` wires the statistical layers together for one config:
frequentist test and interval, conjugate-posterior summaries, an optional
MCMC cross-check, the interval-null Bayes factor, a fixed assumptions
checklist, and carefully qualified phrasing.  Reports are JSON with a
stable key order, so identical configs and seeds reproduce identical bytes.
"""

from __future__ import annotations

import hashlib
import json
import platform
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .bayes import EventProbability, event_probability_from_samples, posterior_pair
from .config import AnalysisConfig, Observations, load_observations, render_config
from .core import Decision, DecisionValue, Direction, Hypothesis, HypothesisKind
from .errors import TooFewSamples
from .frequentist import diff_confidence_interval, two_proportion_z_test
from .fsio import atomic_write_text
from .mcmc import Trace, export_trace, finite_or_null, run_chains
from .numerics import STREAM_POSTERIOR_DRAWS, RngStream, sample_beta
from .posterior import Hdi, bayes_factor_interval_null, hdi_from_samples, rope_decision

REPORT_FORMAT = "two-system-assessment/2"

# Bayes-factor decision thresholds (ratio-of-odds scale): beyond 3 the data
# speak clearly enough for a call in either direction.
BF_ACCEPT_THRESHOLD = 3.0
BF_REJECT_THRESHOLD = 1.0 / 3.0

_QUALIFIED = re.compile(r"(?:statistical(?:ly)?|practical(?:ly)?)\s+$", re.IGNORECASE)
_SIGNIFICANCE = re.compile(r"significan\w*", re.IGNORECASE)

# Normal-approximation adequacy: expected successes and failures per system.
_ADEQUACY_MIN = 9.0


def lint_phrasing(text: str) -> list[str]:
    """Flag every use of 'significance' words lacking an explicit qualifier.

    Each match of ``significan...`` must be immediately preceded by
    ``statistically``/``statistical`` or ``practically``/``practical``.
    Returns human-readable violation descriptions; empty means clean.
    """
    violations = []
    for match in _SIGNIFICANCE.finditer(text):
        if not _QUALIFIED.search(text[: match.start()]):
            snippet = text[max(0, match.start() - 20): match.end()]
            violations.append(f"unqualified {match.group(0)!r} in ...{snippet!r}")
    return violations


def _vetted(text: str) -> str:
    violations = lint_phrasing(text)
    if violations:
        raise ValueError(f"report phrasing failed its own lint: {violations}")
    return text


@dataclass
class AssessmentReport:
    """Everything one analysis produced, ready for JSON serialization."""

    provenance: dict
    data: dict
    results: dict
    decisions: dict
    phrasing: dict
    assumptions: list
    mcmc: dict | None

    def to_dict(self) -> dict:
        return {
            "format": REPORT_FORMAT,
            "provenance": self.provenance,
            "data": self.data,
            "results": self.results,
            "decisions": self.decisions,
            "phrasing": self.phrasing,
            "assumptions": self.assumptions,
            "mcmc": self.mcmc,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, allow_nan=False) + "\n"


@dataclass
class AnalysisOutcome:
    report: AssessmentReport
    trace: Trace | None
    report_path: Path | None
    plot_paths: list[Path]
    trace_paths: list[Path]


def assumptions_checklist(counts) -> list[dict]:
    """The fixed checklist attached to every report.

    Sample-size adequacy is actually checked against the data; the other
    entries state what the procedures take for granted.
    """
    (c1, t1), (c2, t2) = counts
    adequate = True
    for c, t in ((c1, t1), (c2, t2)):
        rate = c / t
        if t * rate * (1.0 - rate) < _ADEQUACY_MIN:
            adequate = False
    return [
        {
            "name": "independent_items",
            "status": "assumed",
            "detail": "Item outcomes are treated as independent draws; "
                      "clustered or duplicated items would overstate the evidence.",
        },
        {
            "name": "identical_item_distribution",
            "status": "assumed",
            "detail": "Every item is treated as equally hard for a system: one "
                      "correctness rate per system, not a mixture over item kinds.",
        },
        {
            "name": "independent_systems",
            "status": "caution",
            "detail": "Both systems answer the same items, so their outcomes are "
                      "typically correlated; the two-proportion procedures here "
                      "ignore that pairing, which is usually conservative.",
        },
        {
            "name": "sample_size_adequacy",
            "status": "checked_ok" if adequate else "caution",
            "detail": "Normal approximation wants at least {:.0f} expected successes "
                      "and failures per system.".format(_ADEQUACY_MIN),
        },
        {
            "name": "fixed_sample_intention",
            "status": "assumed",
            "detail": "P-values and interval coverage assume the sample size was "
                      "fixed before looking at outcomes; data-dependent stopping "
                      "invalidates them.",
        },
    ]


MISCONCEPTION_CAUTIONS = [
    "A p-value is the probability of data at least this extreme under the null "
    "hypothesis, not the probability that the null hypothesis is true.",
    "A confidence level describes the long-run coverage of the interval "
    "procedure, not the probability that this particular interval contains "
    "the true difference.",
    "Posterior probabilities are conditional on the binomial model and the "
    "stated prior; report both alongside any claim.",
    "Peeking at accumulating results and stopping on a promising test "
    "invalidates the nominal error rate; plan looks in advance.",
]


def run_analysis(config: AnalysisConfig, write: bool = True) -> AnalysisOutcome:
    """Run every configured method and assemble the report.

    Bayesian methods always use the exact conjugate posterior; when MCMC is
    enabled the same summaries are recomputed from the chains and any
    disagreement is recorded rather than hidden.  One sample of ``n_mc``
    draws per posterior, from stream ``(seed, 10_000)``, feeds the HDI, the
    event probabilities and the plot data.  The Bayes factor is exact
    quadrature; the sample's frequency of ``|theta1 - theta2| < rope_radius``
    is recorded next to it as a Monte Carlo twin of ``post_p0``, so nothing
    is drawn for the Bayes factor itself.  With ``write`` set, the
    report, posterior plot data, and chain traces are written to the paths in
    ``config.output`` (each file atomically).

    Raises
    ------
    ConfigError
        If the config lacks data, or several datasets are listed without
        ``pool = true`` (see :func:`config.load_observations`).
    UnstableEstimate
        If a Bayes-factor component leaves the quadrature's accurate range
        (see :func:`posterior.bayes_factor_interval_null`).
    """
    obs = load_observations(config)
    counts = obs.counts
    (c1, t1), (c2, t2) = counts
    opts = config.analysis

    methods = opts.methods
    needs_posterior = "hdi_rope" in methods or "bayes_factor" in methods
    results: dict = {}
    decisions: dict[str, Decision] = {}
    phrasing: dict = {}

    if "pvalue" in methods:
        ztest = two_proportion_z_test(c1, t1, c2, t2, opts.direction)
        results["pvalue"] = {
            "z": ztest.z,
            "p_value": ztest.p_value,
            "direction": ztest.direction.value,
            "diff": ztest.diff,
            "pooled_rate": ztest.pooled_rate,
            "sigma": ztest.sigma,
        }
        rejected = ztest.p_value < opts.alpha
        decisions["pvalue"] = Decision(
            DecisionValue.REJECT_NULL if rejected else DecisionValue.UNDECIDED, "pvalue")
        qualifier = "" if rejected else "not "
        phrasing["pvalue"] = _vetted(
            f"If both systems shared one correctness rate, an accuracy gap at "
            f"least as large as {ztest.diff:.4f} would occur with probability "
            f"{ztest.p_value:.4g}; at level {opts.alpha:g} the observed "
            f"difference is {qualifier}statistically significant."
        )

    if "ci" in methods:
        ci = diff_confidence_interval(c1, t1, c2, t2, opts.ci_level, opts.ci_mode)
        results["ci"] = {
            "lower": ci.lower,
            "upper": ci.upper,
            "level": ci.level,
            "mode": ci.mode.value,
            "diff": ci.diff,
            "sigma": ci.sigma,
            "critical": ci.critical,
        }
        excluded = ci.lower > 0.0 or ci.upper < 0.0
        decisions["ci"] = Decision(
            DecisionValue.REJECT_NULL if excluded else DecisionValue.UNDECIDED, "ci")
        if excluded:
            tail = ("Zero lies outside the interval, a statistically "
                    "significant difference at the matching level.")
        else:
            tail = ("Zero lies inside the interval, so equal accuracy "
                    "remains compatible with the data.")
        phrasing["ci"] = _vetted(
            f"The {ci.level:.0%} interval for the accuracy difference runs "
            f"from {ci.lower:.4f} to {ci.upper:.4f}. " + tail
        )

    trace: Trace | None = None
    posterior_samples = None
    if needs_posterior:
        posts = posterior_pair(config.model.prior, counts)
        gen = RngStream(opts.seed, STREAM_POSTERIOR_DRAWS).generator
        theta1 = sample_beta(posts.post1.alpha, posts.post1.beta, gen, size=opts.n_mc)
        theta2 = sample_beta(posts.post2.alpha, posts.post2.beta, gen, size=opts.n_mc)
        posterior_samples = (theta1, theta2)
        diff = theta1 - theta2
        if config.mcmc.enabled:
            trace = run_chains(config.model.prior, counts, config.mcmc, opts.seed)

        if "hdi_rope" in methods:
            block, decision, sentence = _hdi_rope_block(posts, diff, trace, opts)
            results["hdi_rope"] = block
            decisions["hdi_rope"] = decision
            phrasing["hdi_rope"] = _vetted(sentence)

        if "bayes_factor" in methods:
            bf = bayes_factor_interval_null(config.model.prior, posts, opts.rope_radius)
            interval_null = Hypothesis(HypothesisKind.INTERVAL_NULL, 0.0, opts.rope_radius)
            mcmc_block = None
            if trace is not None:
                post_p0 = event_probability_from_samples(trace.diff_samples(), interval_null)
                p = post_p0.estimate
                odds_prior = bf.prior_p0 / (1.0 - bf.prior_p0)
                mcmc_block = {
                    "post_p0": p,
                    "post_p0_se": post_p0.mc_se,
                    # No draw in the band, or none outside it: no ratio to estimate.
                    "bf01": p / (1.0 - p) / odds_prior if 0.0 < p < 1.0 else None,
                }
            results["bayes_factor"] = {
                "bf01": bf.bf01,
                "epsilon": opts.rope_radius,
                "quadrature": {"prior_p0": bf.prior_p0, "post_p0": bf.post_p0},
                "monte_carlo": _event_dict(event_probability_from_samples(diff, interval_null)),
                "mcmc": mcmc_block,
            }
            if bf.bf01 >= BF_ACCEPT_THRESHOLD:
                value = DecisionValue.ACCEPT_NULL
                verdict = ("the data favor treating the systems as "
                           "practically equivalent")
            elif bf.bf01 <= BF_REJECT_THRESHOLD:
                value = DecisionValue.REJECT_NULL
                verdict = "the data favor a real difference"
            else:
                value = DecisionValue.UNDECIDED
                verdict = "the data barely move the prior odds either way"
            decisions["bayes_factor"] = Decision(value, "bayes_factor")
            phrasing["bayes_factor"] = _vetted(
                f"The Bayes factor for a difference within {opts.rope_radius:g} of zero, "
                f"against one outside it, is {bf.bf01:.3g}: {verdict}."
            )

    report = AssessmentReport(
        provenance=_provenance(config),
        data=_data_block(obs),
        results=results,
        decisions={
            name: {"value": d.value.value, "basis": d.basis}
            for name, d in decisions.items()
        },
        phrasing={**phrasing, "cautions": [_vetted(c) for c in MISCONCEPTION_CAUTIONS]},
        assumptions=assumptions_checklist(counts),
        mcmc=_mcmc_block(trace, config),
    )

    report_path = None
    plot_paths: list[Path] = []
    trace_paths: list[Path] = []
    if write:
        report_path = atomic_write_text(Path(config.output.report), report.to_json())
        if posterior_samples is not None:
            annotations = None
            if "hdi_rope" in results:
                annotations = results["hdi_rope"]["conjugate"]
            plot_paths = emit_plot_data(
                posterior_samples[0], posterior_samples[1],
                Path(config.output.plot_dir), annotations)
        if trace is not None:
            trace_paths = export_trace(trace, Path(config.output.trace_dir))
    return AnalysisOutcome(report, trace, report_path, plot_paths, trace_paths)


def _hdi_rope_block(posts, diff, trace, opts):
    margin_hyp = Hypothesis(HypothesisKind.DIRECTIONAL_MARGIN, opts.margin,
                            direction=Direction.GREATER)
    positive_hyp = Hypothesis(HypothesisKind.DIRECTIONAL_MARGIN, 0.0,
                              direction=Direction.GREATER)

    def summarize(diffs):
        hdi = hdi_from_samples(diffs, opts.hdi_mass)
        verdict = rope_decision(hdi, opts.rope_radius)
        return {
            "hdi": _hdi_dict(hdi),
            "relation": verdict.relation.value,
            "prob_positive": _event_dict(event_probability_from_samples(diffs, positive_hyp)),
            "prob_beyond_margin": _event_dict(event_probability_from_samples(diffs, margin_hyp)),
        }, verdict

    conjugate, verdict = summarize(diff)
    conjugate = {
        "posterior1": _beta_dict(posts.post1),
        "posterior2": _beta_dict(posts.post2),
        "n_samples": int(diff.size),
        **conjugate,
        "rope": {"lower": verdict.rope[0], "upper": verdict.rope[1],
                 "center": 0.0, "radius": opts.rope_radius},
        "margin": opts.margin,
    }
    block = {"conjugate": conjugate, "mcmc": None, "disagreement": None}
    if trace is not None:
        try:
            mcmc_summary, mcmc_verdict = summarize(trace.diff_samples())
        except TooFewSamples:
            # Fewer samples than an HDI needs also caps the ESS below its 400
            # threshold, so the trace is already marked unconverged.
            pass
        else:
            block["mcmc"] = mcmc_summary
            block["disagreement"] = {
                "hdi_lower_delta": mcmc_summary["hdi"]["lower"] - conjugate["hdi"]["lower"],
                "hdi_upper_delta": mcmc_summary["hdi"]["upper"] - conjugate["hdi"]["upper"],
                "relation_match": mcmc_verdict.relation is verdict.relation,
            }

    decision = verdict.decision
    rope_note = f"within {opts.rope_radius:g} of zero"
    if decision.value is DecisionValue.ACCEPT_NULL:
        sentence = (f"The {opts.hdi_mass:.0%} highest-density interval sits "
                    f"entirely {rope_note}: the accuracy difference is "
                    f"practically negligible at that tolerance.")
    elif decision.value is DecisionValue.REJECT_NULL:
        sentence = (f"The {opts.hdi_mass:.0%} highest-density interval lies "
                    f"entirely beyond {rope_note}: a practically significant "
                    f"difference at that tolerance.")
    else:
        sentence = (f"The {opts.hdi_mass:.0%} highest-density interval and the "
                    f"region {rope_note} overlap, so the data neither establish "
                    f"nor rule out a practically significant difference; more "
                    f"data would be needed.")
    return block, decision, sentence


def _provenance(config: AnalysisConfig) -> dict:
    rendered = render_config(config)
    return {
        "package": "paircompare",
        "package_version": __version__,
        "python_version": platform.python_version(),
        "numpy_version": np.__version__,
        "seed": config.analysis.seed,
        "config_sha256": hashlib.sha256(rendered.encode("utf-8")).hexdigest(),
    }


def _data_block(obs: Observations) -> dict:
    (c1, t1), (c2, t2) = obs.counts
    return {
        "systems": list(obs.systems),
        "datasets": [{"name": obs.name, "counts": [list(pair) for pair in obs.counts]}],
        "effective": {
            "correct": [c1, c2],
            "totals": [t1, t2],
            "accuracy": [c1 / t1, c2 / t2],
            "diff": c1 / t1 - c2 / t2,
        },
    }


def _mcmc_block(trace: Trace | None, config: AnalysisConfig) -> dict | None:
    if trace is None:
        return None
    return {
        "chains": int(trace.samples.shape[0]),
        "draws": int(trace.samples.shape[1]),
        "warmup": trace.warmup,
        "master_seed": trace.master_seed,
        "init": config.mcmc.init.value,
        "accept_rates": list(trace.accept_rates),
        "step_sizes": list(trace.step_sizes),
        "rhat": finite_or_null(trace.rhat),
        "ess": finite_or_null(trace.ess),
        "converged": trace.converged,
        "warnings": list(trace.warnings),
    }


def _beta_dict(params) -> dict:
    return {"alpha": params.alpha, "beta": params.beta, "mean": params.mean}


def _hdi_dict(hdi: Hdi) -> dict:
    return {"lower": hdi.lower, "upper": hdi.upper, "mass": hdi.mass}


def _event_dict(event: EventProbability) -> dict:
    return {"estimate": event.estimate, "mc_se": event.mc_se,
            "halfwidth95": event.halfwidth95, "n": event.n_mc}


def emit_plot_data(theta1_samples, theta2_samples, out_dir, annotations: dict | None = None,
                   bins: int = 100) -> list[Path]:
    """Write ready-to-plot posterior histograms plus an annotation sidecar.

    Creates ``posterior_theta1.csv``, ``posterior_theta2.csv``, and
    ``posterior_diff.csv`` (columns ``bin_left,bin_right,density`` over
    equal-width bins; the densities integrate to one), and
    ``annotations.json`` carrying whatever summary dict the caller supplies
    (HDI, ROPE, and event probabilities in reports).
    """
    theta1 = np.asarray(theta1_samples, dtype=float)
    theta2 = np.asarray(theta2_samples, dtype=float)
    out = Path(out_dir)
    named = [
        ("posterior_theta1.csv", theta1),
        ("posterior_theta2.csv", theta2),
        ("posterior_diff.csv", theta1 - theta2),
    ]
    written = []
    for name, samples in named:
        written.append(atomic_write_text(out / name, _histogram_csv(samples, bins)))
    sidecar = json.dumps({"annotations": annotations, "bins": bins},
                         indent=2, allow_nan=False) + "\n"
    written.append(atomic_write_text(out / "annotations.json", sidecar))
    return written


def _histogram_csv(samples: np.ndarray, bins: int) -> str:
    lo = float(samples.min())
    hi = float(samples.max())
    if lo == hi:
        # All mass in one spot: give the occupied bin a tiny nonzero width so
        # the density still integrates to one.
        half_span = 5e-7 * bins / 2.0
        edges = np.linspace(lo - half_span, lo + half_span, bins + 1)
    else:
        edges = np.linspace(lo, hi, bins + 1)
    density, edges = np.histogram(samples, bins=edges, density=True)
    lines = ["bin_left,bin_right,density"]
    for left, right, d in zip(edges[:-1], edges[1:], density):
        lines.append(f"{float(left)!r},{float(right)!r},{float(d)!r}")
    return "\n".join(lines) + "\n"
