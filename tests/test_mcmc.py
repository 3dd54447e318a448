"""Sampler correctness is judged against the conjugate posterior, which this
model family admits in closed form; the sampler never gets to grade itself.
"""

import json
import math
import struct
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import seed_sequence_generator
from paircompare import mcmc
from paircompare.bayes import BetaParams, posterior_pair
from paircompare.config import parse_config_file
from paircompare.errors import DomainError
from paircompare.mcmc import (
    ESS_THRESHOLD,
    RHAT_THRESHOLD,
    InitStrategy,
    McmcConfig,
    Trace,
    _autocovariance,
    _ess_single,
    ess,
    export_trace,
    log_density,
    metropolis_accept,
    rhat,
    run_chains,
)
from paircompare.numerics import sample_beta
from paircompare.reporting import run_analysis
from test_cli import PINNED_OUTPUT, output_digest

UNIFORM = BetaParams(1.0, 1.0)
EASY = ((1721, 2376), (1637, 2376))
# Post-adaptation acceptance rates are expected to land in this band.
TARGET_ACCEPT_BAND = (0.2, 0.5)


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
    assert rhat(np.full((3, 100), 0.25)) == math.inf


def test_rhat_input_validation():
    with pytest.raises(DomainError):
        rhat(np.zeros(50))
    with pytest.raises(DomainError):
        rhat(np.zeros((1, 50)))
    # Three draws per chain are too few: a value, not an error.
    assert math.isnan(rhat(np.random.default_rng(0).normal(size=(4, 3))))


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
    assert ess(np.full((1, 100), 3.14)) == 1.0


# Chains of rates, wide-ranging values, constant chains and chains of 8 draws,
# the fewest an ESS estimate takes.
ACOV_CHAINS = st.one_of(
    hnp.arrays(np.float64, st.integers(8, 600), elements=st.floats(0.0, 1.0)),
    hnp.arrays(np.float64, st.integers(8, 600), elements=st.floats(-1e6, 1e6)),
    st.builds(np.full, st.integers(8, 600), st.floats(-1e6, 1e6)),
    hnp.arrays(np.float64, 8, elements=st.floats(-1.0, 1.0)),
)


@settings(max_examples=300, deadline=None)
@given(ACOV_CHAINS)
def test_autocovariance_product_in_place_keeps_every_bit(x):
    # The in-place spectrum product is the same complex multiply as the
    # f * conj(f) product form, so the ESS reads the same doubles.
    n = x.size
    size = 1 << (2 * n - 1).bit_length()
    f = np.fft.rfft(x - x.mean(), size)
    expected = np.fft.irfft(f * np.conj(f), size)[:n] / n
    assert _autocovariance(x).tobytes() == expected.tobytes()


def geyer_loop_ess(x: np.ndarray) -> float:
    """One chain's ESS with its Geyer pairs summed by a loop over Python
    floats: the reference that ``_ess_single``'s array sum is held to, bit
    for bit."""
    n = x.size
    if np.ptp(x) == 0.0:
        return 1.0
    acov = mcmc._autocovariance(x)
    if acov[0] <= 0.0:
        return 1.0
    rho = (acov / acov[0]).tolist()
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


def ar1_chain(phi: float, n: int, seed: int) -> np.ndarray:
    innovations = np.random.default_rng(seed).normal(size=n).tolist()
    x = [innovations[0]]
    for e in innovations[1:]:
        x.append(phi * x[-1] + e)
    return np.array(x)


GEYER_CHAINS = {
    **{f"ar1_phi_{phi}": ar1_chain(phi, 5000, seed)
       for seed, phi in enumerate((-0.9, -0.5, 0.0, 0.5, 0.9, 0.99))},
    "eight_draws": ar1_chain(0.5, 8, 7),
    "odd_length": ar1_chain(0.8, 1001, 8),
    "constant_tail": np.concatenate([ar1_chain(0.9, 300, 9), np.full(700, 0.25)]),
}


@pytest.mark.parametrize("name", sorted(GEYER_CHAINS))
def test_ess_single_sums_its_geyer_pairs_as_the_loop_does(name):
    x = GEYER_CHAINS[name]
    assert _ess_single(x).hex() == geyer_loop_ess(x).hex()


# Autocovariances no real chain yields, to pin where the pair sum stops: a
# first pair below 0 or at exactly 0, and a NaN pair, which the loop keeps.
CRAFTED_ACOVS = {
    "first_pair_negative": [2.0, -2.5, 1.0, 0.5, 0.25, 0.1, 0.0, 0.0],
    "first_pair_zero": [2.0, -2.0, 1.0, 0.5, 0.25, 0.1, 0.0, 0.0],
    "third_pair_zero": [2.0, 1.0, 0.5, 0.25, 0.1, -0.1, 1.0, 1.0],
    "nan_pair": [2.0, 1.0, 0.5, math.nan, 0.25, 0.1, -1.0, 0.0, 0.5],
}


@pytest.mark.parametrize("name", sorted(CRAFTED_ACOVS))
def test_ess_single_stops_where_the_loop_stops(monkeypatch, name):
    acov = np.array(CRAFTED_ACOVS[name])
    monkeypatch.setattr(mcmc, "_autocovariance", lambda x: acov)
    x = np.arange(acov.size, dtype=float)
    assert _ess_single(x).hex() == geyer_loop_ess(x).hex()


@settings(max_examples=300, deadline=None)
@given(ACOV_CHAINS)
def test_ess_single_matches_the_loop_on_drawn_chains(x):
    assert _ess_single(x).hex() == geyer_loop_ess(x).hex()


def test_ess_input_validation():
    # Seven draws per chain are too few: a value, not an error.
    assert math.isnan(ess(np.zeros((2, 7))))
    with pytest.raises(DomainError):
        ess(np.zeros(50))
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


UNDEFINED_DIAGNOSTICS_CASES = {
    # Five draws per chain: R-hat is defined, ESS is not.
    "draws_5": (McmcConfig(draws=5), (1.5786638411586316, 4.669808102277513), (math.nan,) * 2, (
        "parameter 1: too few draws for an ESS estimate",
        "parameter 2: too few draws for an ESS estimate",
        "parameter 1: R-hat 1.5787 exceeds 1.01",
        "parameter 2: R-hat 4.6698 exceeds 1.01",
    )),
    # One draw per chain: neither is defined, and no threshold is crossed.
    "draws_1": (McmcConfig(draws=1), (math.nan,) * 2, (math.nan,) * 2, (
        "parameter 1: too few draws for R-hat",
        "parameter 1: too few draws for an ESS estimate",
        "parameter 2: too few draws for R-hat",
        "parameter 2: too few draws for an ESS estimate",
    )),
    # No warmup and four draws: here each half-chain holds one state, so the
    # within-chain variance is zero and R-hat infinite.
    "infinite_rhat": (McmcConfig(chains=2, warmup=0, draws=4), (math.inf,) * 2,
                      (math.nan,) * 2, (
        "parameter 1: zero within-chain variance, R-hat undefined",
        "parameter 1: too few draws for an ESS estimate",
        "parameter 2: zero within-chain variance, R-hat undefined",
        "parameter 2: too few draws for an ESS estimate",
        "parameter 1: R-hat inf exceeds 1.01",
        "parameter 2: R-hat inf exceeds 1.01",
    )),
}


@pytest.mark.parametrize("name", sorted(UNDEFINED_DIAGNOSTICS_CASES))
def test_run_chains_reports_undefined_diagnostics(name):
    # Undefined diagnostics are values (inf, NaN) with a warning each, in
    # parameter order, before the threshold warnings.
    config, rhats, esses, warnings = UNDEFINED_DIAGNOSTICS_CASES[name]
    trace = run_chains(UNIFORM, EASY, config, 1729)
    np.testing.assert_equal([float(r) for r in trace.rhat], rhats)
    np.testing.assert_equal([float(e) for e in trace.ess], esses)
    assert trace.warnings == warnings
    assert not trace.converged


@pytest.mark.parametrize("config", [McmcConfig(), McmcConfig(warmup=0, draws=8)],
                         ids=["default", "eight_draws"])
def test_ess_values_are_python_floats(config):
    # Geyer sums, constant-chain floors and the clip alike: never numpy.float64.
    trace = run_chains(UNIFORM, EASY, config, 1729)
    assert [type(value) for value in trace.ess] == [float, float]


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


# run_analysis, as the package exports it, called from a library rather
# than through main: it must write every file PINNED_OUTPUT pins for the
# matching analyze command, byte for byte.
LIBRARY_OVERRIDES = {
    "arc_easy": {},
    "prior_draw": {"mcmc.init": "prior_draw"},
    "jeffreys_3_chains": {"model.prior": "0.5, 0.5", "mcmc.chains": "3"},
}


@pytest.mark.parametrize("name", sorted(LIBRARY_OVERRIDES))
def test_analyze_trace_and_plot_bytes_pinned(tmp_path, monkeypatch, configs_dir, name):
    _, _, digests = PINNED_OUTPUT[f"analyze-{name}"]
    monkeypatch.chdir(tmp_path)
    run_analysis(parse_config_file(configs_dir / "arc_easy.cfg", LIBRARY_OVERRIDES[name]))
    assert {rel: output_digest(tmp_path / "out" / rel) for rel in digests} == digests


def _reference_sigmoid(x):
    if x >= 0.0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def _reference_logit(p):
    return math.log(p) - math.log1p(-p)


def reference_chain(prior, counts, config, master_seed, chain):
    """One chain as a per-step loop that appends a row at every sampling step,
    kept as the oracle the run-length sampler must match bit for bit.  Also
    returns whether each sampling step accepted."""
    (c1, t1), (c2, t2) = counts
    log_post = log_density(prior, counts)
    gen = seed_sequence_generator(master_seed, chain)
    if config.init is InitStrategy.MLE_JITTER:
        j1, j2 = gen.standard_normal(2).tolist()
        e1 = _reference_logit((c1 + 1.0) / (t1 + 2.0)) + 0.2 * j1
        e2 = _reference_logit((c2 + 1.0) / (t2 + 2.0)) + 0.2 * j2
    else:
        e1, e2 = (_reference_logit(sample_beta(prior.alpha, prior.beta, gen)) for _ in range(2))
    total = config.warmup + config.draws
    noise = gen.standard_normal((total, 2)).tolist()
    unifs = gen.random(total).tolist()
    step = 0.5  # the initial logit-scale step
    lp = log_post(e1, e2)
    rows, row, took_at = [], None, []
    for t, ((n1, n2), u) in enumerate(zip(noise, unifs)):
        p1 = e1 + step * n1
        p2 = e2 + step * n2
        lp_prop = log_post(p1, p2)
        log_ratio = lp_prop - lp
        took = metropolis_accept(log_ratio, u)
        if took:
            e1, e2, lp, row = p1, p2, lp_prop, None
        if t < config.warmup:
            alpha = 1.0 if log_ratio >= 0.0 else math.exp(log_ratio)
            step *= math.exp((alpha - 0.35) * (t + 1.0) ** -0.6)  # toward 0.35 acceptance
        else:
            if row is None:
                row = (_reference_sigmoid(e1), _reference_sigmoid(e2))
            rows.append(row)
            took_at.append(took)
    return rows, sum(took_at) / config.draws, step, took_at


REFERENCE_CASES = {
    # At seed 1729 chain 0 accepts its first step, which leaves the start
    # state a run of no draws, and chain 1 rejects it, so the start state's
    # run begins that chain.
    "warmup_0": (UNIFORM, EASY, McmcConfig(chains=2, warmup=0, draws=300), 1729),
    "draws_1": (UNIFORM, EASY, McmcConfig(chains=2, warmup=200, draws=1), 1729),
    "prior_draw": (UNIFORM, EASY, McmcConfig(chains=2, warmup=200, draws=300,
                                             init=InitStrategy.PRIOR_DRAW), 7),
    "3_chains": (UNIFORM, EASY, McmcConfig(chains=3, warmup=300, draws=400), 3),
    "jeffreys_tiny_counts": (BetaParams(0.5, 0.5), ((1, 1), (0, 1)),
                             McmcConfig(chains=2, warmup=200, draws=300), 11),
    "billion_items": (UNIFORM, ((700000000, 1000000000), (699950000, 1000000000)),
                      McmcConfig(chains=2, warmup=200, draws=300), 5),
}


@pytest.mark.parametrize("name", sorted(REFERENCE_CASES))
def test_run_chains_matches_the_per_step_reference_loop(name):
    prior, counts, config, seed = REFERENCE_CASES[name]
    trace = run_chains(prior, counts, config, seed)
    chains = [reference_chain(prior, counts, config, seed, k) for k in range(config.chains)]
    want = np.array([rows for rows, _, _, _ in chains])
    assert trace.samples.shape == want.shape == (config.chains, config.draws, 2)
    assert trace.samples.dtype == want.dtype and trace.samples.tobytes() == want.tobytes()
    assert trace.accept_rates == tuple(rate for _, rate, _, _ in chains)
    assert trace.step_sizes == tuple(step for _, _, step, _ in chains)
    if name == "warmup_0":
        assert [took[0] for _, _, _, took in chains] == [True, False]
    assert any(not all(took) for _, _, _, took in chains)  # some run holds 2+ draws


def reference_chain_text(rows):
    # Every row formatted on its own: the text each run must reproduce.
    return "".join(["draw,theta1,theta2\n"]
                   + [f"{i},{a!r},{b!r}\n" for i, (a, b) in enumerate(rows.tolist())])


TRACE_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, math.nan, math.inf, 0.25, 1.0 - 2**-53, 5e-324]),
    st.floats(0.0, 1.0), st.floats())


@st.composite
def chain_rows(draw, n):
    """``n`` rows in runs of repeated pairs; a run may flip the sign of its
    zeros row by row, so equal rows print two ways."""
    rows = []
    longest = draw(st.sampled_from([1, 3, 50, n]))  # 1: a chain with no repeats
    while len(rows) < n:
        pair = (draw(TRACE_VALUES), draw(TRACE_VALUES))
        flip = draw(st.booleans())
        for k in range(draw(st.integers(1, longest))):
            rows.append([math.copysign(0.0, (-1.0) ** k) if flip and v == 0.0 else v
                         for v in pair])
    return rows[:n]


def _trace_of(samples):
    chains = samples.shape[0]
    return Trace(samples, (0.0,) * chains, (0.5,) * chains, (math.nan, math.nan),
                 (math.nan, math.nan), 1, 0, False, ())


@st.composite
def traces(draw):
    n = draw(st.one_of(st.just(1), st.integers(2, 200)))
    chains = draw(st.integers(1, 3))
    return _trace_of(np.array([draw(chain_rows(n)) for _ in range(chains)], dtype=float))


@given(traces())
@example(_trace_of(np.array([[[0.5, 0.0], [0.5, -0.0], [0.5, 0.0], [0.5, -0.0]]])))
@example(_trace_of(np.full((2, 500, 2), 0.375)))
@example(_trace_of(np.full((1, 2049, 2), 0.375)))  # one run over three row blocks
# A run that ends a row block, -0.0 as the next block's first row, then a run
# that starts one row into that block and crosses into the third.
@example(_trace_of(np.stack([np.full(2050, 0.5), np.repeat([0.25, -0.0, 0.75], [1024, 1, 1025])],
                            axis=-1)[None]))
@settings(max_examples=100, deadline=None)
def test_export_trace_matches_a_row_by_row_formatter(trace):
    with tempfile.TemporaryDirectory() as out:
        paths = export_trace(trace, out)
        for chain, rows in enumerate(trace.samples):
            assert paths[chain] == Path(out) / f"chain_{chain}.csv"
            # Compared line by line: a failure names its first differing line
            # at once, where a whole-text diff of thousands of lines takes minutes.
            assert paths[chain].read_text().split("\n") == reference_chain_text(rows).split("\n")


def test_run_chains_and_export_trace_peaks_stay_flat(tmp_path):
    # The arc_easy trace, 4 x 5,000 draws.  With each chain writing its rows
    # into one trace array and the ESS summing its Geyer pairs as an array,
    # the sampler peaked at 0.71 MB over six seeds, against 1.03 MB with the
    # chains' rows stacked into a copy and the autocorrelations turned into
    # Python floats; rows held one by one had peaked at 1.7-1.9 MB.  The
    # writer holds one chain's text twice, as its block texts and as their
    # join: 0.57 MB at 5,000 draws and 4.5 MB at 50,000 for 0.21 and 2.18 MB
    # chain files, where whole-chain line lists had peaked at 1.23 and 12.5 MB.
    def writer_peak(trace):
        tracemalloc.reset_peak()
        held = tracemalloc.get_traced_memory()[0]
        export_trace(trace, tmp_path)
        peak = tracemalloc.get_traced_memory()[1] - held
        largest = max(path.stat().st_size for path in tmp_path.glob("chain_*.csv"))
        return peak, 2 * largest + 0.5e6

    run_chains(UNIFORM, EASY, McmcConfig(warmup=10, draws=20), 1)  # first-call allocations
    long_trace = run_chains(UNIFORM, EASY, McmcConfig(draws=50_000), 1729)
    tracemalloc.start()
    try:
        for seed in (1729, 2):
            tracemalloc.reset_peak()
            trace = run_chains(UNIFORM, EASY, McmcConfig(), seed)
            sampler_peak = tracemalloc.get_traced_memory()[1]
            assert sampler_peak < 1.0e6, (seed, sampler_peak)
            peak, bound = writer_peak(trace)
            assert peak < bound, (seed, peak, bound)
            del trace
        peak, bound = writer_peak(long_trace)
        assert peak < bound, (50_000, peak, bound)
    finally:
        tracemalloc.stop()
