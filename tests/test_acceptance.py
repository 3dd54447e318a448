"""Acceptance suite: twelve headline behaviors, one test per behavior.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail line
per criterion.  Every expected number was produced by an independent route
(exact combinatorics, scipy quadrature over the exact beta densities, or a
closed form) before the implementation was checked against it; tolerances
are pinned here and nowhere else.
"""

import math
import shutil
import subprocess
import sys
import time

import numpy as np
import pytest

from conftest import posterior_diff_draws
from paircompare.bayes import PRIOR_PRESETS, BetaParams, posterior_pair
from paircompare.core import (
    DecisionValue,
    Direction,
    Hypothesis,
    HypothesisKind,
)
from paircompare.frequentist import CiMode, diff_confidence_interval, two_proportion_z_test
from paircompare.mcmc import McmcConfig, run_chains
from paircompare.posterior import (
    RopeRelation,
    bayes_factor_interval_null,
    event_probability_from_sorted,
    hdi_from_samples,
    rope_decision,
)
from paircompare.simulations import optional_stopping_fpr, prior_sensitivity_sweep, stopping_comparison

EASY = ((1721, 2376), (1637, 2376))
POOLED = ((2287, 3548), (2133, 3548))
UNIFORM = BetaParams(1.0, 1.0)


def posterior_diff_samples(counts, n, seed=1729, stream=10_000):
    posts = posterior_pair(UNIFORM, counts)
    return posts, posterior_diff_draws(posts, n, seed, stream)


def test_criterion_01_one_sided_z_test_on_benchmark_counts():
    # 1721/2376 vs 1637/2376: z = 2.676, one-sided p = 0.0037.
    result = two_proportion_z_test(1721, 2376, 1637, 2376, Direction.GREATER)
    assert result.z == pytest.approx(2.676, abs=1e-3)
    assert result.p_value == pytest.approx(0.0037, abs=2e-4)


def test_criterion_02_one_sided_pooled_interval_on_benchmark_counts():
    # Interval built from the pooled standard error and the one-sided
    # quantile: [0.0136, 0.0571] at the 95% level.
    ci = diff_confidence_interval(1721, 2376, 1637, 2376, 0.95,
                                  CiMode.ONE_SIDED_POOLED_Z)
    assert ci.lower == pytest.approx(0.013625806283432754, abs=5e-4)
    assert ci.upper == pytest.approx(0.057081264423637965, abs=5e-4)


def test_criterion_03_superiority_probability_by_both_routes():
    # P(theta1 > theta2 | data) = 0.996 from the conjugate posterior, and
    # independently from a from-scratch Metropolis run that must also pass
    # its own convergence gates.
    _, diff = posterior_diff_samples(EASY, 100_000, stream=0)
    superiority = Hypothesis(HypothesisKind.DIRECTIONAL_MARGIN, 0.0,
                             direction=Direction.GREATER)
    conjugate = event_probability_from_sorted(np.sort(diff), superiority)
    assert conjugate.estimate == pytest.approx(0.996, abs=0.003)

    trace = run_chains(UNIFORM, EASY, McmcConfig(chains=4, warmup=1000, draws=5000), 1729)
    assert all(r < 1.01 for r in trace.rhat)
    assert all(e > 400.0 for e in trace.ess)
    assert trace.converged
    mcmc_estimate = float(np.mean(trace.diff_samples() > 0.0))
    assert mcmc_estimate == pytest.approx(0.996, abs=0.003)


def test_criterion_04_hdi_overlaps_one_point_rope():
    # 95% HDI of the accuracy difference: (0.0094, 0.0612); a tolerance
    # region of +/-0.01 around zero cuts into it, so the call is undecided.
    _, diff = posterior_diff_samples(EASY, 100_000)
    hdi = hdi_from_samples(diff, 0.95)
    assert hdi.lower == pytest.approx(0.00939, abs=3e-3)
    assert hdi.upper == pytest.approx(0.0612, abs=3e-3)
    relation, value = rope_decision(hdi, 0.01)
    assert relation is RopeRelation.OVERLAP
    assert value is DecisionValue.UNDECIDED


def test_criterion_05_interval_null_bayes_factor():
    # With flat priors and a +/-0.01 null band, the Bayes factor hovers
    # around 1.38: the benchmark data barely move the prior odds.  The
    # prior-side component must agree with its closed form,
    # P(|U1 - U2| < 0.01) = 2(0.01) - 0.01^2 = 0.0199.
    posts = posterior_pair(UNIFORM, EASY)
    bf = bayes_factor_interval_null(UNIFORM, posts, 0.01)
    assert 1.25 <= bf.bf01 <= 1.55
    assert abs(bf.prior_p0 - 0.0199) <= 1e-9


def test_criterion_06_pooled_counts_clear_a_wider_rope():
    # Pooling both benchmark splits (2287/3548 vs 2133/3548) sharpens the
    # posterior enough that the whole 95% HDI clears +/-0.02.
    started = time.perf_counter()
    _, diff = posterior_diff_samples(POOLED, 100_000)
    hdi = hdi_from_samples(diff, 0.95)
    assert hdi.lower > 0.02
    relation, value = rope_decision(hdi, 0.02)
    assert relation is RopeRelation.HDI_OUTSIDE_ROPE
    assert value is DecisionValue.REJECT_NULL
    assert time.perf_counter() - started < 30.0


def test_criterion_07_sampler_recovers_conjugate_posteriors():
    # Twenty random count/prior fixtures: the Metropolis posterior must
    # match the exact conjugate posterior in mean (within 3 Monte Carlo
    # standard errors) and variance (within 25%), on a deterministic seed
    # layout, in under two minutes.
    started = time.perf_counter()
    gen = np.random.default_rng(20260815)
    for i in range(20):
        total1 = int(gen.integers(80, 3000))
        total2 = int(gen.integers(80, 3000))
        rate1 = float(gen.uniform(0.1, 0.9))
        rate2 = float(gen.uniform(0.1, 0.9))
        c1 = int(gen.binomial(total1, rate1))
        c2 = int(gen.binomial(total2, rate2))
        prior = BetaParams(float(gen.uniform(0.5, 8.0)), float(gen.uniform(0.5, 8.0)))
        counts = ((c1, total1), (c2, total2))
        trace = run_chains(prior, counts, McmcConfig(chains=4, warmup=500, draws=2500), 9000 + i)
        posts = posterior_pair(prior, counts)
        merged = trace.merged()
        for param, exact in enumerate((posts.post1, posts.post2)):
            draws = merged[:, param]
            assert trace.ess[param] > 400.0
            mc_se = math.sqrt(exact.variance) / math.sqrt(trace.ess[param])
            assert abs(float(draws.mean()) - exact.mean) < 3.0 * mc_se, \
                f"fixture {i}, parameter {param + 1}"
            assert 0.8 < float(draws.var(ddof=1)) / exact.variance < 1.25, \
                f"fixture {i}, parameter {param + 1}"
    assert time.perf_counter() - started < 120.0


def test_criterion_08_stopping_intention_changes_the_pvalue():
    # 7 successes in 24 trials at a fair-coin null: p = 0.0320 if the trial
    # count was fixed, p = 0.0173 if sampling stopped at the 7th success.
    # Identical data, opposite sides of a 0.025 threshold.
    result = stopping_comparison(7, 24, 0.5)
    assert result.fixed_trials_pvalue == pytest.approx(536155 / 16777216, abs=1e-6)
    assert result.fixed_successes_pvalue == pytest.approx(145499 / 8388608, abs=1e-6)
    assert result.gap > 0.01
    assert result.fixed_trials_pvalue > 0.025 > result.fixed_successes_pvalue


def test_criterion_09_optional_stopping_inflates_false_positives():
    # Testing at every 10 items up to 500, on data where both systems are
    # identical, rejects far more than the nominal 5%.
    report = optional_stopping_fpr(range(10, 501, 10), 0.5, 0.05, 10_000, 20260815)
    assert len(report.looks) == 50
    assert report.false_positive_rate > 0.10


def test_criterion_10_bayes_factor_more_prior_sensitive_than_hdi():
    # Across the three prior presets on the benchmark counts the Bayes
    # factor swings by more than 2x while the HDI barely moves, and all
    # three intervals still overlap pairwise.
    rows = prior_sensitivity_sweep(EASY, PRIOR_PRESETS, 0.01)
    bfs = [row.bf01 for row in rows]
    widths = [row.hdi.width for row in rows]
    assert max(bfs) / min(bfs) > 2.0
    assert max(widths) / min(widths) < 1.1
    assert max(row.hdi.lower for row in rows) < min(row.hdi.upper for row in rows)


def test_criterion_11_reruns_are_byte_identical(fixture_tree):
    # Two fresh end-to-end runs of the full pipeline (report, plot data,
    # MCMC traces) must produce byte-identical artifacts.
    started = time.perf_counter()
    trees = []
    for run in ("first", "second"):
        tree = fixture_tree / run
        tree.mkdir()
        shutil.copytree(fixture_tree / "configs", tree / "configs")
        shutil.copytree(fixture_tree / "data", tree / "data")
        result = subprocess.run(
            [sys.executable, "-m", "paircompare.cli", "analyze",
             "--config", "configs/arc_easy.cfg"],
            cwd=tree, capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        trees.append(tree)
    first, second = trees
    artifacts = sorted(
        path.relative_to(first)
        for path in (first / "out").rglob("*") if path.is_file())
    assert any(p.name == "report.json" for p in artifacts)
    assert any(p.name == "chain_0.csv" for p in artifacts)
    assert any(p.name == "posterior_diff.csv" for p in artifacts)
    for rel in artifacts:
        assert (first / rel).read_bytes() == (second / rel).read_bytes(), rel
    assert time.perf_counter() - started < 60.0


def test_criterion_12_single_look_test_holds_its_level():
    # The same machinery, used as designed (one predetermined look), is
    # calibrated: 10,000 null trials reject at 5% +/- 1 point.
    report = optional_stopping_fpr([500], 0.5, 0.05, 10_000, 20260815,
                                   direction=Direction.GREATER)
    assert report.false_positive_rate == pytest.approx(0.05, abs=0.01)
