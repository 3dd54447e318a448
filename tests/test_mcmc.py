"""Sampler correctness is judged against the conjugate posterior, which this
model family admits in closed form; the sampler never gets to grade itself.
"""

import hashlib
import json
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paircompare.bayes import BetaParams, posterior_pair
from paircompare.config import parse_config_file
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
    log_density,
    metropolis_accept,
    rhat,
    run_chains,
)
from paircompare.reporting import run_analysis

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


def test_export_trace_prints_each_signed_zero_as_written(tmp_path):
    # Rows that compare equal may still print differently: 0.0 == -0.0.
    samples = np.array([[[0.5, 0.0], [0.5, -0.0], [0.5, -0.0], [0.25, 0.5], [0.25, 0.5]]])
    trace = Trace(samples, (0.0,), (0.5,), (math.nan, math.nan), (math.nan, math.nan),
                  1, 0, False, ())
    export_trace(trace, tmp_path)
    assert (tmp_path / "chain_0.csv").read_text() == (
        "draw,theta1,theta2\n0,0.5,0.0\n1,0.5,-0.0\n2,0.5,-0.0\n3,0.25,0.5\n4,0.25,0.5\n")


def _softplus(x):
    if x > 0.0:
        return x + math.log1p(math.exp(-x))
    return math.log1p(math.exp(x))


def four_softplus_log_density(prior, counts, e1, e2):
    # The sampler's log density as first written: four separate softplus
    # calls, kept here as the oracle the shared-term form must match.
    (c1, t1), (c2, t2) = counts
    a_1, b_1 = prior.alpha + c1, prior.beta + (t1 - c1)
    a_2, b_2 = prior.alpha + c2, prior.beta + (t2 - c2)
    return -(a_1 * _softplus(-e1) + b_1 * _softplus(e1)
             + a_2 * _softplus(-e2) + b_2 * _softplus(e2))


@st.composite
def system_counts(draw):
    total = draw(st.integers(0, 10**9))
    return draw(st.integers(0, total)), total


ETA = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -2.2e-308, 1e-300, -1e-300,
                     40.0, -40.0, 745.0, -745.0, 1e308, -1e308]),
    st.floats(allow_nan=False, allow_infinity=False))
SHAPE = st.floats(0.1, 1e3)


@given(system_counts(), system_counts(), SHAPE, SHAPE, ETA, ETA)
@settings(max_examples=500, deadline=None)
def test_log_density_matches_the_four_softplus_sum_bit_for_bit(counts1, counts2, alpha,
                                                                beta, e1, e2):
    prior = BetaParams(alpha, beta)
    counts = (counts1, counts2)
    got = log_density(prior, counts)(e1, e2)
    want = four_softplus_log_density(prior, counts, e1, e2)
    assert struct.pack("<d", got) == struct.pack("<d", want)


# SHA-256 of every chain CSV, diagnostics sidecar and plot CSV, recorded
# before the sampler loop and the chain writer were last sped up.  Any
# change to a single byte of a chain fails here.  The digests assume IEEE
# doubles and the platform libm's exp/log1p, as every byte-identity check does.
PINNED_TRACE_BYTES = {
    "arc_easy": ({}, {
        "chain_0.csv": "dbbef6952e0894b2d94fa9a5f62da2d56b066d2330b2d800301aeb144cfc8e86",
        "chain_1.csv": "88ea556e09d65fb799e5821db0ac1349b1377c73e6aada6ebc5c1f9aaef4181b",
        "chain_2.csv": "8852bf8bc9891551d4e377c5de84ecec82de1e0b0a526b5a657d115cbef5651a",
        "chain_3.csv": "8e6fc335dd918ad3bb951bf7ba5ab9359bde39304d42a3bed3cab91b50a109a2",
        "diagnostics.json": "2072887b71913dd2993475f038fcbe6cdb04fe2826a0486ed9482fb149c2a033",
        "posterior_theta1.csv": "fc406d13051f1596216436b016713207431cdd7c89e590cc34d308ec59af58dd",
        "posterior_theta2.csv": "e27d143d319d5020f133269e076ba97897daaa93ea8885f3fee018885f593296",
        "posterior_diff.csv": "9ffbda697f7994b8dc44c8893dfedbc665bf962883d068a60191862cd0820222",
    }),
    "prior_draw": ({"mcmc.init": "prior_draw"}, {
        "chain_0.csv": "7d8dd1fffa50cffefcdb5b45fbaac435f9ee4c04d1f84425a4951c48b1634559",
        "chain_1.csv": "96afcc5dd1f6559dba999f07c1ebfc4b35726c9ca7d8089b8497034fd05adb64",
        "chain_2.csv": "1d4e21adb6ea366677c267df41c11c1579c3626fa1f7e41768966f5604e86407",
        "chain_3.csv": "27bc7b5aea8ea279186541803e192b780b8a25614aa6e4dd4b20d1ae8bd7d405",
        "diagnostics.json": "b05df60021e102bc6ffc927143d96cfef5ff9f0470b522d8e6d72fbf5c5200ca",
        "posterior_theta1.csv": "fc406d13051f1596216436b016713207431cdd7c89e590cc34d308ec59af58dd",
        "posterior_theta2.csv": "e27d143d319d5020f133269e076ba97897daaa93ea8885f3fee018885f593296",
        "posterior_diff.csv": "9ffbda697f7994b8dc44c8893dfedbc665bf962883d068a60191862cd0820222",
    }),
    "jeffreys_3_chains": ({"model.prior": "0.5, 0.5", "mcmc.chains": "3"}, {
        "chain_0.csv": "37fa1b16330431ebfdac97f0ff8cbe13113a0643666d5d959e9d077b5c330770",
        "chain_1.csv": "58174d8c98aaddd363f2428b2888a732edd90399e7c4ecef71d42b677e116283",
        "chain_2.csv": "f74fc5811e8bedd69e63e37d9bafa9930ebd56b3c3917472d1b32fe5af36fac9",
        "diagnostics.json": "c1b57363dbbbe34440b90454e98c35cfbde3376340d95ca42aa258df957ac2e3",
        "posterior_theta1.csv": "dfe919efc8b69df462c17180f771ed5a472363e70cefec45558d36ada41ab4fc",
        "posterior_theta2.csv": "5e6d056ff33b5ced5761e5c41236fa9339516c8b6093ece79d9adf84f32f6cd9",
        "posterior_diff.csv": "ee7ccb4007e568e162b0b6ee404437750efc29ed82559105f0d91eceb43d8f99",
    }),
}


@pytest.mark.parametrize("name", sorted(PINNED_TRACE_BYTES))
def test_analyze_trace_and_plot_bytes_pinned(tmp_path, monkeypatch, configs_dir, name):
    overrides, digests = PINNED_TRACE_BYTES[name]
    monkeypatch.chdir(tmp_path)
    outcome = run_analysis(parse_config_file(configs_dir / "arc_easy.cfg", overrides))
    written = outcome.trace_paths + [p for p in outcome.plot_paths if p.suffix == ".csv"]
    assert {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in written} == digests


def test_short_run_trace_bytes_pinned(tmp_path):
    # One draw per chain, as `analyze --set mcmc.draws=1` runs it (its report
    # leaves the MCMC HDI null); the trace is pinned here, exported directly.
    trace = run_chains(UNIFORM, EASY, McmcConfig(draws=1), 1729)
    written = export_trace(trace, tmp_path)
    assert {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in written} == {
        "chain_0.csv": "fdbb48fb24315e23129674665f7212998d475db24901a0ea212c9c71af2617da",
        "chain_1.csv": "458567cd13d2021025cfc56a181f8c2aafab799d0f4175803e14d88a36c58ef6",
        "chain_2.csv": "a748817307c4c6a4a23944cef48f1cbf995baceebfa509839afd14db4a909f89",
        "chain_3.csv": "fa85251a7ed6ffb0677b04c4191b052b8ab4aebb4818971e5896001ecbcc60ea",
        "diagnostics.json": "b009fd0db3312f14180daaa9198092c94b7989926dbcc4a84fb23064428da024",
    }
