"""Analysis orchestration and report emission.

``run_analysis`` wires the statistical layers together for one config.
Each method (frequentist test and interval, HDI against a ROPE, and the
interval-null Bayes factor, with an optional MCMC cross-check) is one entry
of ``_METHODS``, giving its result block, decision and sentence; the report
adds a fixed assumptions checklist.  Reports are JSON with a stable key
order, so identical configs and seeds reproduce identical bytes.
"""

from __future__ import annotations

import functools
import hashlib
import platform
import re
from pathlib import Path

import numpy as np

from . import __version__
from .bayes import posterior_pair
from .config import AnalysisConfig, Observations, load_observations, render_config
from .core import DecisionValue, Direction, Hypothesis, HypothesisKind, Record
from .errors import TooFewSamples
from .frequentist import diff_confidence_interval, two_proportion_z_test
from .fsio import atomic_write_text, json_text, plain
from .mcmc import Trace, export_trace, finite_or_null, run_chains
from .numerics import STREAM_POSTERIOR_DRAWS, sample_beta, stream
from .posterior import (bayes_factor_interval_null, event_probability_from_sorted,
                        hdi_from_samples, rope_decision)

REPORT_FORMAT = "two-system-assessment/2"

# Bayes-factor decision thresholds (ratio-of-odds scale): beyond 3 the data
# speak clearly enough for a call in either direction.
BF_ACCEPT_THRESHOLD = 3.0
BF_REJECT_THRESHOLD = 1.0 / 3.0

# Equal-width bins of each posterior histogram in the plot data.
PLOT_BINS = 100

# Normal-approximation adequacy: the least n * p_hat * (1 - p_hat) per system.
_ADEQUACY_MIN = 9.0


def lint_phrasing(text: str) -> list[str]:
    """Flag every use of 'significance' words lacking an explicit qualifier.

    Each match of ``significan...`` must be immediately preceded by
    ``statistically``/``statistical`` or ``practically``/``practical``.
    Returns human-readable violation descriptions; empty means clean.
    """
    significance, qualified = _lint_patterns()
    violations = []
    for match in significance.finditer(text):
        if not qualified.search(text[: match.start()]):
            snippet = text[max(0, match.start() - 20): match.end()]
            violations.append(f"unqualified {match.group(0)!r} in ...{snippet!r}")
    return violations


@functools.cache
def _lint_patterns():
    # Compiled on first use: a command that writes no sentence compiles neither.
    return (re.compile(r"significan\w*", re.IGNORECASE),
            re.compile(r"(?:statistical(?:ly)?|practical(?:ly)?)\s+$", re.IGNORECASE))


def _vetted(text: str) -> str:
    violations = lint_phrasing(text)
    if violations:
        raise ValueError(f"report phrasing failed its own lint: {violations}")
    return text


class AssessmentReport(Record):
    """Everything one analysis produced, ready for JSON serialization."""

    provenance: dict
    data: dict
    results: dict
    decisions: dict
    phrasing: dict
    assumptions: list
    mcmc: dict | None

    def to_dict(self) -> dict:
        return {"format": REPORT_FORMAT, **plain(self)}

    def to_json(self) -> str:
        return json_text(self.to_dict())


class AnalysisOutcome(Record):
    report: AssessmentReport
    trace: Trace | None
    report_path: Path | None


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
            "detail": "Normal approximation wants n * p_hat * (1 - p_hat) of at least "
                      "{:.0f} for each system, where p_hat is its observed accuracy "
                      "over n items.".format(_ADEQUACY_MIN),
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
    """Run every configured method, in ``_METHODS`` order, and assemble the report.

    Each method is one entry of ``_METHODS``; the loop writes its result
    block, its decision and its vetted sentence.  The first Bayesian entry
    draws the posterior sample and summarizes it (see
    :func:`_posterior_sample`); every later one reads those summaries, so no
    ``n_mc`` array is alive during the chains, the quadrature, the report or
    the writes.  The Bayesian methods always use the exact conjugate
    posterior, and when MCMC is enabled the same summaries are recomputed
    from the chains and any disagreement is recorded rather than hidden.
    The Bayes factor is exact quadrature; the sample's frequency of
    ``|theta1 - theta2| < rope_radius`` is recorded next to it as a Monte
    Carlo twin of ``post_p0``.  With ``write`` set, the report, posterior
    plot data, and chain traces are written to the paths in
    ``config.output`` (each file atomically).

    Raises
    ------
    ConfigError
        If the config lacks data (see :func:`config.load_observations`).
    UnstableEstimate
        If a Bayes-factor component leaves the quadrature's accurate range
        (see :func:`posterior.bayes_factor_interval_null`).
    """
    obs = load_observations(config)
    counts = obs.counts
    results, decisions, phrasing = {}, {}, {}
    trace = sample = histograms = None
    for name, (entry, reads_sample) in _METHODS.items():
        if name not in config.analysis.methods:
            continue
        if reads_sample and sample is None:
            trace, histograms, sample = _posterior_sample(config, counts, write)
        results[name], value, sentence = entry(config, counts, sample)
        decisions[name] = {"value": value.value, "basis": name}
        phrasing[name] = _vetted(sentence)
    sample = None  # the methods were its readers; the report and files need none of it

    report = AssessmentReport(
        provenance=_provenance(config),
        data=_data_block(obs),
        results=results,
        decisions=decisions,
        phrasing={**phrasing, "cautions": [_vetted(c) for c in MISCONCEPTION_CAUTIONS]},
        assumptions=assumptions_checklist(counts),
        mcmc=_mcmc_block(trace, config),
    )

    report_path = None
    if write:
        report_path = atomic_write_text(Path(config.output.report), report.to_json())
        if histograms is not None:
            annotations = results["hdi_rope"]["conjugate"] if "hdi_rope" in results else None
            emit_plot_data(histograms, Path(config.output.plot_dir), annotations)
        if trace is not None:
            export_trace(trace, Path(config.output.trace_dir))
    return AnalysisOutcome(report, trace, report_path)


def _posterior_sample(config: AnalysisConfig, counts, plots: bool):
    """The MCMC trace, or None with MCMC off; the histogram texts of theta1,
    theta2 and theta1 - theta2, or None without ``plots``; and what every
    Bayesian entry reads: the posteriors and the ``_summary`` of the
    difference and of the chains' difference, or None.  theta1 and theta2
    (``n_mc`` draws each from stream ``(seed, 10_000)``) are sorted after the
    difference is formed and gone before it is summarized; the difference is
    gone before the chains run, on streams of their own, so no ``n_mc`` array
    outlives the draw."""
    opts = config.analysis
    posts = posterior_pair(config.model.prior, counts)
    gen = stream(opts.seed, STREAM_POSTERIOR_DRAWS)
    theta1 = sample_beta(posts.post1.alpha, posts.post1.beta, gen, size=opts.n_mc)
    theta2 = sample_beta(posts.post2.alpha, posts.post2.beta, gen, size=opts.n_mc)
    diff = theta1 - theta2
    diff.sort()
    histograms = None
    if plots:
        theta1.sort()
        theta2.sort()
        histograms = tuple(_histogram_csv(x) for x in (theta1, theta2, diff))
    del theta1, theta2
    conjugate = _summary(diff, opts)
    del diff
    trace = chains = None
    if config.mcmc.enabled:
        trace = run_chains(config.model.prior, counts, config.mcmc, opts.seed)
        chain_diff = trace.diff_samples()
        chain_diff.sort()
        chains = _summary(chain_diff, opts)
    return trace, histograms, (posts, conjugate, chains)


def _summary(diffs: np.ndarray, opts) -> dict:
    """What the Bayesian entries read of ``diffs``, a sample of theta1 - theta2
    in ascending order: its HDI, or None below the least size an HDI takes,
    and the frequencies of d > 0, d > margin and |d| < rope_radius, each over
    the whole sample."""
    try:
        hdi = hdi_from_samples(diffs, opts.hdi_mass)
    except TooFewSamples:
        # Fewer samples than an HDI needs also caps the ESS below its 400
        # threshold, so the trace is already marked unconverged.
        hdi = None
    events = {
        "prob_positive": Hypothesis(HypothesisKind.DIRECTIONAL_MARGIN, 0.0,
                                    direction=Direction.GREATER),
        "prob_beyond_margin": Hypothesis(HypothesisKind.DIRECTIONAL_MARGIN, opts.margin,
                                         direction=Direction.GREATER),
        "prob_in_rope": Hypothesis(HypothesisKind.INTERVAL_NULL, 0.0, opts.rope_radius),
    }
    return {"hdi": hdi, **{name: event_probability_from_sorted(diffs, hypothesis)
                           for name, hypothesis in events.items()}}


def _pvalue(config, counts, sample):
    opts = config.analysis
    (c1, t1), (c2, t2) = counts
    ztest = two_proportion_z_test(c1, t1, c2, t2, opts.direction)
    rejected = ztest.p_value < opts.alpha
    gap = {Direction.GREATER: f"at least as large as {ztest.diff:.4f}",
           Direction.LESS: f"at most as large as {ztest.diff:.4f}",
           Direction.TWO_SIDED: (f"at least as large as {abs(ztest.diff):.4f} "
                                 f"in either direction")}[ztest.direction]
    return plain(ztest), DecisionValue.REJECT_NULL if rejected else DecisionValue.UNDECIDED, (
        f"If both systems shared one correctness rate, an accuracy gap "
        f"{gap} would occur with probability "
        f"{ztest.p_value:.4g}; at level {opts.alpha:g} the observed "
        f"difference is {'' if rejected else 'not '}statistically significant.")


def _ci(config, counts, sample):
    opts = config.analysis
    (c1, t1), (c2, t2) = counts
    ci = diff_confidence_interval(c1, t1, c2, t2, opts.ci_level, opts.ci_mode)
    excluded = ci.lower > 0.0 or ci.upper < 0.0
    tail = ("Zero lies outside the interval, a statistically significant difference at "
            "the matching level." if excluded else
            "Zero lies inside the interval, so equal accuracy remains compatible with the data.")
    return plain(ci), DecisionValue.REJECT_NULL if excluded else DecisionValue.UNDECIDED, (
        f"The {ci.level:.0%} interval for the accuracy difference runs "
        f"from {ci.lower:.4f} to {ci.upper:.4f}. " + tail)


def _hdi_rope(config, counts, sample):
    opts = config.analysis
    posts, conjugate_summary, chain_summary = sample

    def rope_block(summary):
        relation, value = rope_decision(summary["hdi"], opts.rope_radius)
        return {
            "hdi": plain(summary["hdi"]),
            "relation": relation.value,
            "prob_positive": plain(summary["prob_positive"]),
            "prob_beyond_margin": plain(summary["prob_beyond_margin"]),
        }, value

    conjugate, value = rope_block(conjugate_summary)
    conjugate = {
        "posterior1": _beta_dict(posts.post1),
        "posterior2": _beta_dict(posts.post2),
        "n_samples": conjugate_summary["prob_positive"].n,
        **conjugate,
        "rope": {"lower": -opts.rope_radius, "upper": opts.rope_radius,
                 "center": 0.0, "radius": opts.rope_radius},
        "margin": opts.margin,
    }
    block = {"conjugate": conjugate, "mcmc": None, "disagreement": None}
    if chain_summary is not None and chain_summary["hdi"] is not None:
        mcmc_summary = rope_block(chain_summary)[0]
        block["mcmc"] = mcmc_summary
        block["disagreement"] = {
            "hdi_lower_delta": mcmc_summary["hdi"]["lower"] - conjugate["hdi"]["lower"],
            "hdi_upper_delta": mcmc_summary["hdi"]["upper"] - conjugate["hdi"]["upper"],
            "relation_match": mcmc_summary["relation"] == conjugate["relation"],
        }

    interval, rope_note = (f"The {opts.hdi_mass:.0%} highest-density interval",
                           f"within {opts.rope_radius:g} of zero")
    return block, value, {
        DecisionValue.ACCEPT_NULL: (f"{interval} sits entirely {rope_note}: the accuracy "
                                    f"difference is practically negligible at that tolerance."),
        DecisionValue.REJECT_NULL: (f"{interval} lies entirely beyond {rope_note}: a "
                                    f"practically significant difference at that tolerance."),
        DecisionValue.UNDECIDED: (f"{interval} and the region {rope_note} overlap, so the "
                                  f"data neither establish nor rule out a practically "
                                  f"significant difference; more data would be needed."),
    }[value]


def _bayes_factor(config, counts, sample):
    opts = config.analysis
    posts, conjugate, chains = sample
    bf = bayes_factor_interval_null(config.model.prior, posts, opts.rope_radius)
    mcmc_block = None
    if chains is not None:
        post_p0 = chains["prob_in_rope"]
        p = post_p0.estimate
        odds_prior = bf.prior_p0 / (1.0 - bf.prior_p0)
        mcmc_block = {
            "post_p0": p,
            "post_p0_se": post_p0.mc_se,
            # No draw in the band, or none outside it: no ratio to estimate.
            "bf01": p / (1.0 - p) / odds_prior if 0.0 < p < 1.0 else None,
        }
    block = {
        "bf01": bf.bf01,
        "epsilon": opts.rope_radius,
        "quadrature": {"prior_p0": bf.prior_p0, "post_p0": bf.post_p0},
        "monte_carlo": plain(conjugate["prob_in_rope"]),
        "mcmc": mcmc_block,
    }
    if bf.bf01 >= BF_ACCEPT_THRESHOLD:
        value, verdict = (DecisionValue.ACCEPT_NULL,
                          "the data favor treating the systems as practically equivalent")
    elif bf.bf01 <= BF_REJECT_THRESHOLD:
        value, verdict = DecisionValue.REJECT_NULL, "the data favor a real difference"
    else:
        value, verdict = DecisionValue.UNDECIDED, "the data barely move the prior odds either way"
    return block, value, (
        f"The Bayes factor for a difference within {opts.rope_radius:g} of zero, "
        f"against one outside it, is {bf.bf01:.3g}: {verdict}.")


# Each method's entry, in config.KNOWN_METHODS order, and whether it reads the
# posterior sample: (config, counts, sample) -> (result block, decision, sentence).
_METHODS = {
    "pvalue": (_pvalue, False),
    "ci": (_ci, False),
    "hdi_rope": (_hdi_rope, True),
    "bayes_factor": (_bayes_factor, True),
}


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


def emit_plot_data(histograms, out_dir, annotations: dict | None = None) -> list[Path]:
    """Write the ``_histogram_csv`` texts of theta1, theta2 and their
    difference, as :func:`_posterior_sample` makes them, to
    ``posterior_theta1.csv``, ``posterior_theta2.csv`` and ``posterior_diff.csv``
    (columns ``bin_left,bin_right,density`` over ``PLOT_BINS`` equal-width
    bins; the densities integrate to one), and ``annotations.json`` carrying
    whatever summary dict the caller supplies (HDI, ROPE, and event
    probabilities in reports)."""
    out = Path(out_dir)
    names = ("posterior_theta1.csv", "posterior_theta2.csv", "posterior_diff.csv")
    written = [atomic_write_text(out / name, text) for name, text in zip(names, histograms)]
    written.append(atomic_write_text(out / "annotations.json",
                                     json_text({"annotations": annotations, "bins": PLOT_BINS})))
    return written


def _histogram_csv(samples: np.ndarray) -> str:
    """The histogram CSV text of an ascending float array."""
    lo = float(samples.min())
    hi = float(samples.max())
    if lo == hi:
        # All mass in one spot: give the occupied bin a tiny nonzero width so
        # the density still integrates to one.
        half_span = 5e-7 * PLOT_BINS / 2.0
        edges = np.linspace(lo - half_span, lo + half_span, PLOT_BINS + 1)
    else:
        edges = np.linspace(lo, hi, PLOT_BINS + 1)
    density = _sorted_histogram_density(samples, edges)
    lines = ["bin_left,bin_right,density"]
    for left, right, d in zip(edges[:-1], edges[1:], density):
        lines.append(f"{float(left)!r},{float(right)!r},{float(d)!r}")
    return "\n".join(lines) + "\n"


def _sorted_histogram_density(sorted_samples: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """``np.histogram(samples, bins=edges, density=True)[0]`` of an ascending
    sample, by numpy's own rule for explicit edges: bin i counts [edges[i],
    edges[i + 1]), the last bin also its right edge, so each count is the
    difference of two binary searches.  NaNs, sorted last, fall in no bin."""
    counts = np.diff(np.concatenate((np.searchsorted(sorted_samples, edges[:-1], "left"),
                                     np.searchsorted(sorted_samples, edges[-1:], "right"))))
    return counts / np.diff(edges) / counts.sum()
