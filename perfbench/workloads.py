"""The benchmark's workloads: seeded, endless sequences of CLI commands.

An op is one CLI command: its arguments, the config text it reads (when the
workload generates one) and what the oracle needs to know about its inputs.
Each workload repeats a fixed block of op kinds, shuffled per block by the
seed, so every kind keeps a fixed share of the mix and the median stays
inside the majority kind.  Nothing here imports paircompare: the expected
inputs are read from the shipped configs and data files directly.
"""

from __future__ import annotations

import configparser
import csv
import math
import random
from dataclasses import dataclass
from pathlib import Path

# The package's prior presets, as its README documents them.
PRESETS = {"uniform": (1.0, 1.0), "optimistic_weak": (3.0, 1.5),
           "optimistic_strong": (9.0, 3.0)}
JEFFREYS = "0.5, 0.5"

CONFIG = "{config}"  # stands for the op's generated config file in argv


@dataclass
class Op:
    kind: str
    argv: list[str]
    expect: dict
    config: str | None = None
    check: str = "report"  # report | optional_stopping | prior_sweep


def _prior(text: str) -> tuple[float, float]:
    if text in PRESETS:
        return PRESETS[text]
    alpha, beta = (float(part) for part in text.split(","))
    return alpha, beta


def _shipped_expectation(path: Path) -> dict:
    """Counts and options of a shipped config, read without the package."""
    parser = configparser.ConfigParser(delimiters=("=",), comment_prefixes=("#",),
                                       inline_comment_prefixes=("#",))
    parser.read(path, encoding="utf-8")
    data, analysis = parser["data"], parser["analysis"]
    totals = [[0, 0], [0, 0]]
    if "counts" in data:
        for i, pair in enumerate(data["counts"].split(",")):
            correct, total = pair.split("/")
            totals[i] = [int(correct), int(total)]
    else:
        for name in data["files"].split(","):
            with open(path.parent / name.strip(), newline="", encoding="utf-8") as fh:
                rows = list(csv.reader(fh))[1:]
            if data.get("format", "aggregate").strip() == "per_item":
                for row in rows:
                    for i in range(2):
                        totals[i][0] += int(row[1 + i])
                        totals[i][1] += 1
            else:
                for i, row in enumerate(rows):
                    totals[i][0] += int(row[1])
                    totals[i][1] += int(row[2])
    model = parser["model"] if parser.has_section("model") else {}
    mcmc = parser["mcmc"] if parser.has_section("mcmc") else {}
    return {
        "mcmc": mcmc.get("enabled", "true").strip().lower() == "true",
        "counts": tuple(tuple(pair) for pair in totals),
        "prior": _prior(model.get("prior", "uniform").strip()),
        "direction": analysis.get("direction", "greater").strip(),
        "alpha": float(analysis.get("alpha", "0.05")),
        "ci_level": float(analysis.get("ci_level", "0.95")),
        "ci_mode": analysis.get("ci_mode", "standard_two_sided").strip(),
        "rope_radius": float(analysis.get("rope_radius", "0.01")),
    }


def _blocks(rng: random.Random, block: list[str]):
    while True:
        kinds = list(block)
        rng.shuffle(kinds)
        yield from kinds


def analyze_arc(rng: random.Random, root: Path):
    """`analyze` on the four shipped configs; per_item_demo is the minority."""
    configs = {name: root / "configs" / f"{name}.cfg"
               for name in ("arc_easy", "arc_challenge", "arc_pooled", "per_item_demo")}
    expect = {name: _shipped_expectation(path) for name, path in configs.items()}
    block = ["arc_easy", "arc_easy", "arc_challenge", "arc_challenge",
             "arc_pooled", "arc_pooled", "per_item_demo"]
    for kind in _blocks(rng, block):
        seed = rng.randrange(2**31)
        yield Op(kind, ["analyze", "--config", str(configs[kind]), "--seed", str(seed)],
                 expect[kind])


def _scale_counts(rng: random.Random, lo_exp: float, hi_exp: float):
    """Equal totals, log-uniform over 10^lo..10^hi, accuracy gap about two
    posterior sd of the difference, and a radius of about one sd."""
    n = round(10 ** rng.uniform(lo_exp, hi_exp))
    p = rng.uniform(0.3, 0.85)
    sd = math.sqrt(2.0 * p * (1.0 - p) / n)
    counts = ((round((p + sd) * n), n), (round((p - sd) * n), n))
    return counts, float(f"{sd:.4g}")


def _oracle_op(kind: str, prior: str, counts, radius: float, seed: int) -> Op:
    (c1, t1), (c2, t2) = counts
    config = (f"[data]\nformat = aggregate\ncounts = {c1}/{t1}, {c2}/{t2}\n\n"
              f"[model]\nprior = {prior}\n\n"
              f"[analysis]\nseed = {seed}\nrope_radius = {radius!r}\nmargin = {radius!r}\n\n"
              f"[simulate]\nsweep_epsilon = {radius!r}\n")
    expect = {"counts": counts, "prior": _prior(prior), "mcmc": False, "direction": "greater",
              "alpha": 0.05, "ci_level": 0.95, "ci_mode": "standard_two_sided",
              "rope_radius": radius, "epsilon": radius, "hdi_mass": 0.95}
    if kind == "prior-sweep":
        return Op(kind, ["simulate", "prior-sweep", "--config", CONFIG], expect, config,
                  check="prior_sweep")
    return Op(kind, ["oracle", "--config", CONFIG], expect, config)


# Largest item count at which every conjugate-scale input completes today.
# Above it the quadrature's incomplete beta raises ArithmeticError and, from
# about 10^8, the Bayes factor raises UnstableEstimate; the probes below keep
# those inputs in every run.
SCALE_MAX_EXP = 6.0


def conjugate_scale(rng: random.Random, root: Path):
    """`oracle` on aggregate counts from 10^2 to 10^6 items, priors cycling
    through uniform, Jeffreys and optimistic_strong; `prior-sweep` minority."""
    block = ["uniform", "uniform", JEFFREYS, JEFFREYS,
             "optimistic_strong", "optimistic_strong", "prior-sweep"]
    for kind in _blocks(rng, block):
        counts, radius = _scale_counts(rng, 2.0, SCALE_MAX_EXP)
        seed = rng.randrange(2**31)
        if kind == "prior-sweep":
            yield _oracle_op(kind, "uniform", counts, radius, seed)
        else:
            label = "jeffreys" if kind == JEFFREYS else kind
            yield _oracle_op(f"oracle-{label}", kind, counts, radius, seed)


def conjugate_scale_probes(rng: random.Random, root: Path) -> list[Op]:
    """Inputs that fail today, run in every conjugate-scale run and reported
    on their own: ROADMAP's ArithmeticError input as it stands, a 10^9-item
    input, and one seed-drawn input between 10^6 and 10^9 items."""
    roadmap = _shipped_expectation(root / "configs" / "arc_easy.cfg")
    roadmap.update(counts=((7000000, 10000000), (6995000, 10000000)), rope_radius=0.0005)
    probes = [Op("probe-roadmap",
                 ["analyze", "--config", str(root / "configs" / "arc_easy.cfg"),
                  "--set", "data.counts=7000000/10000000, 6995000/10000000",
                  "--set", "analysis.rope_radius=0.0005"], roadmap)]
    n = 10**9
    sd = math.sqrt(2.0 * 0.7 * 0.3 / n)
    probes.append(_oracle_op("probe-1e9", "uniform",
                             ((round((0.7 + sd) * n), n), (round((0.7 - sd) * n), n)),
                             float(f"{sd:.4g}"), 1729))
    counts, radius = _scale_counts(rng, SCALE_MAX_EXP, 9.0)
    prior = rng.choice(["uniform", JEFFREYS, "optimistic_strong"])
    probes.append(_oracle_op("probe-drawn", prior, counts, radius, rng.randrange(2**31)))
    return probes


SCHEDULES = {"default": (10, 10_000), "dense": (2, 4_000)}  # looks_step, trials
LOOKS_MAX = 500


def peeking(rng: random.Random, root: Path):
    """`simulate optional-stopping`: 50 looks x 10k trials, plus a dense
    minority of 250 looks x 4k trials.  The dense op costs about what the
    default one does, so the median is taken over every op of the run."""
    for kind in _blocks(rng, ["default", "default", "default", "dense"]):
        step, trials = SCHEDULES[kind]
        seed = rng.randrange(2**31)
        config = (f"[analysis]\nseed = {seed}\n\n"
                  f"[simulate]\nlooks_step = {step}\nlooks_max = {LOOKS_MAX}\n"
                  f"os_trials = {trials}\nos_theta = 0.5\nos_alpha = 0.05\n")
        expect = {"looks_step": step, "looks_max": LOOKS_MAX, "trials": trials,
                  "theta": 0.5, "alpha": 0.05}
        yield Op(kind, ["simulate", "optional-stopping", "--config", CONFIG], expect,
                 config, check="optional_stopping")


WORKLOADS = {
    "analyze-arc": (analyze_arc, None),
    "conjugate-scale": (conjugate_scale, conjugate_scale_probes),
    "peeking": (peeking, None),
}
