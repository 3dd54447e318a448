"""Sampler correctness is judged against the conjugate posterior, which this
model family admits in closed form; the sampler never gets to grade itself.
"""

import json
import math

import numpy as np
import pytest

from paircompare.bayes import BetaParams, posterior_pair
from paircompare.errors import DegenerateChains, DomainError, TooFewSamples
from paircompare.mcmc import (
    ESS_THRESHOLD,
    RHAT_THRESHOLD,
    TARGET_ACCEPT_BAND,
    InitStrategy,
    McmcConfig,
    Trace,
    ess,
    export_trace,
    metropolis_accept,
    rhat,
    run_chains,
)

UNIFORM = BetaParams(1.0, 1.0)
EASY = ((1721, 2376), (1637, 2376))


def test_metropolis_rule():
    assert metropolis_accept(0.0, 0.9999)
    assert metropolis_accept(5.0, 0.9999)
    # log(0.5) = -0.693, so a ratio of -0.1 accepts and -1.0 rejects.
    assert metropolis_accept(-0.1, 0.5)
    assert not metropolis_accept(-1.0, 0.5)
    assert metropolis_accept(-50.0, 0.0)


def test_metropolis_rule_matches_exp_comparison():
    gen = np.random.default_rng(0)
    for _ in range(500):
        log_ratio = gen.uniform(-10.0, 2.0)
        u = gen.random()
        assert metropolis_accept(log_ratio, u) == (u < min(1.0, math.exp(log_ratio)))


def test_rhat_near_one_for_iid_chains():
    gen = np.random.default_rng(11)
    chains = gen.normal(size=(4, 2000))
    assert rhat(chains) < 1.01


def test_rhat_detects_location_disagreement():
    gen = np.random.default_rng(12)
    chains = gen.normal(size=(4, 1000))
    chains[0] += 3.0
    assert rhat(chains) > 1.2


def test_rhat_split_detects_within_chain_trend():
    # Two identical trending chains: an unsplit between/within comparison
    # would see perfect agreement, the split version sees the drift.
    ramp = np.linspace(0.0, 1.0, 1000)
    chains = np.stack([ramp, ramp])
    assert rhat(chains) > 1.5


def test_rhat_degenerate_chains():
    with pytest.raises(DegenerateChains):
        rhat(np.full((3, 100), 0.25))


def test_rhat_input_validation():
    with pytest.raises(DomainError):
        rhat(np.zeros(50))
    with pytest.raises(DomainError):
        rhat(np.zeros((1, 50)))
    with pytest.raises(DomainError):
        rhat(np.random.default_rng(0).normal(size=(4, 3)))


def test_ess_iid_close_to_sample_count():
    gen = np.random.default_rng(21)
    chains = gen.normal(size=(4, 5000))
    estimate = ess(chains)
    assert 0.8 * chains.size <= estimate <= chains.size


def test_ess_ar1_matches_theory():
    # AR(1) with rho = 0.9 has ESS = N (1 - rho) / (1 + rho) = N / 19.
    rho = 0.9
    gen = np.random.default_rng(31)
    n_chains, n = 4, 5000
    chains = np.empty((n_chains, n))
    scale = math.sqrt(1.0 - rho * rho)
    for c in range(n_chains):
        innovations = gen.normal(size=n)
        x = innovations[0]
        for t in range(n):
            x = rho * x + scale * innovations[t]
            chains[c, t] = x
    expected = chains.size * (1.0 - rho) / (1.0 + rho)
    estimate = ess(chains)
    assert 0.7 * expected <= estimate <= 1.4 * expected


def test_ess_constant_chain_floors_at_one():
    assert ess(np.full(100, 3.14)) == 1.0


def test_ess_accepts_one_dimensional_input():
    gen = np.random.default_rng(41)
    x = gen.normal(size=1000)
    assert ess(x) == ess(x[None, :])


def test_ess_input_validation():
    with pytest.raises(TooFewSamples):
        ess(np.zeros(7))
    with pytest.raises(DomainError):
        ess(np.zeros((2, 3, 50)))


@pytest.fixture(scope="module")
def easy_trace() -> Trace:
    config = McmcConfig(chains=4, warmup=1000, draws=5000)
    return run_chains(UNIFORM, EASY, config, 1729)


def test_run_chains_converges_on_real_counts(easy_trace):
    assert easy_trace.converged
    assert easy_trace.warnings == ()
    assert all(r < RHAT_THRESHOLD for r in easy_trace.rhat)
    assert all(e > ESS_THRESHOLD for e in easy_trace.ess)
    lo, hi = TARGET_ACCEPT_BAND
    assert all(lo < rate < hi for rate in easy_trace.accept_rates)
    assert easy_trace.samples.shape == (4, 5000, 2)


def test_run_chains_recovers_conjugate_posterior(easy_trace):
    posts = posterior_pair(UNIFORM, EASY)
    merged = easy_trace.merged()
    for param, exact in enumerate((posts.post1, posts.post2)):
        draws = merged[:, param]
        mc_se = math.sqrt(exact.variance) / math.sqrt(easy_trace.ess[param])
        assert abs(draws.mean() - exact.mean) < 4.0 * mc_se
        assert 0.8 < draws.var(ddof=1) / exact.variance < 1.25


def test_run_chains_superiority_probability_matches_conjugate(easy_trace):
    # Quadrature on the conjugate posteriors puts P(theta1 > theta2) at 0.9963.
    prob = float(np.mean(easy_trace.diff_samples() > 0.0))
    assert prob == pytest.approx(0.9963, abs=0.006)


def test_run_chains_bit_identical_reruns(easy_trace):
    config = McmcConfig(chains=4, warmup=1000, draws=5000)
    again = run_chains(UNIFORM, EASY, config, 1729)
    assert np.array_equal(again.samples, easy_trace.samples)
    assert again.accept_rates == easy_trace.accept_rates
    assert again.rhat == easy_trace.rhat


def test_chains_keyed_by_index_not_count(easy_trace):
    # Chain i draws from stream (seed, i), so a 2-chain run reproduces the
    # first two chains of the 4-chain run exactly.
    config = McmcConfig(chains=2, warmup=1000, draws=5000)
    small = run_chains(UNIFORM, EASY, config, 1729)
    assert np.array_equal(small.samples, easy_trace.samples[:2])


def test_run_chains_prior_draw_init():
    config = McmcConfig(chains=2, warmup=800, draws=2000, init=InitStrategy.PRIOR_DRAW)
    trace = run_chains(UNIFORM, EASY, config, 7)
    posts = posterior_pair(UNIFORM, EASY)
    assert abs(trace.merged()[:, 0].mean() - posts.post1.mean) < 0.005


def test_run_chains_flags_short_runs_instead_of_failing():
    config = McmcConfig(chains=2, warmup=50, draws=40)
    trace = run_chains(UNIFORM, EASY, config, 3)
    assert not trace.converged
    assert any("effective sample size" in w for w in trace.warnings)


def test_export_trace_round_trips_exactly(tmp_path, easy_trace):
    paths = export_trace(easy_trace, tmp_path / "trace")
    names = sorted(p.name for p in paths)
    assert names == ["chain_0.csv", "chain_1.csv", "chain_2.csv",
                     "chain_3.csv", "diagnostics.json"]
    for chain in range(4):
        text = (tmp_path / "trace" / f"chain_{chain}.csv").read_text()
        lines = text.strip().split("\n")
        assert lines[0] == "draw,theta1,theta2"
        assert len(lines) == 1 + 5000
        parsed = np.array([[float(f) for f in line.split(",")[1:]]
                           for line in lines[1:]])
        assert np.array_equal(parsed, easy_trace.samples[chain])


def test_export_trace_diagnostics_sidecar(tmp_path, easy_trace):
    export_trace(easy_trace, tmp_path)
    sidecar = json.loads((tmp_path / "diagnostics.json").read_text())
    assert sidecar["master_seed"] == 1729
    assert sidecar["chains"] == 4
    assert sidecar["draws"] == 5000
    assert sidecar["warmup"] == 1000
    assert sidecar["converged"] is True
    assert sidecar["rhat"] == list(easy_trace.rhat)
    assert sidecar["accept_rates"] == list(easy_trace.accept_rates)


def test_export_trace_sidecar_is_strict_json_on_short_runs(tmp_path):
    # One draw per chain leaves R-hat and ESS undefined; the sidecar writes
    # null there, never the NaN literal that strict JSON parsers reject.
    trace = run_chains(UNIFORM, EASY, McmcConfig(chains=2, warmup=10, draws=1), 1729)
    assert all(math.isnan(v) for v in trace.rhat + trace.ess)
    export_trace(trace, tmp_path)

    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    sidecar = json.loads((tmp_path / "diagnostics.json").read_text(), parse_constant=reject)
    assert sidecar["rhat"] == [None, None]
    assert sidecar["ess"] == [None, None]
