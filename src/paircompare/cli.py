"""Command-line entry point.

Four commands: ``analyze`` runs every configured method and writes the JSON
report, plot data, and traces; ``oracle`` is the same pipeline with MCMC
forced off (conjugate results only, fast); ``simulate`` runs one of the
pitfall demonstrations; ``version`` prints the package version.

Exit codes: 0 on success, 1 on a handled error (bad config or data, invalid
values, out of memory), 2 when MCMC ran but failed its convergence checks.
"""

from __future__ import annotations

import argparse
import gc
import sys
from pathlib import Path

from . import __version__
from .bayes import PRIOR_PRESETS
from .config import load_observations, parse_config_file
from .errors import AssessmentError, ConfigError
from .fsio import atomic_write_text, json_text, plain
from .reporting import run_analysis
from .simulations import (
    optional_stopping_fpr,
    prior_sensitivity_sweep,
    stopping_comparison,
)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NONCONVERGENCE = 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="paircompare",
        description="Assess whether one system really outperforms another "
                    "on shared items, with frequentist and Bayesian methods.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def with_config(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", required=True, metavar="FILE",
                       help="analysis config file")
        p.add_argument("--seed", type=int, default=None, metavar="N",
                       help="override analysis.seed")
        p.add_argument("--set", dest="overrides", action="append", default=[],
                       metavar="SECTION.KEY=VALUE",
                       help="override any config key (repeatable)")

    with_config(sub.add_parser(
        "analyze", help="run the configured methods and write the report"))
    with_config(sub.add_parser(
        "oracle", help="analyze with MCMC disabled: exact conjugate results only"))

    simulate = sub.add_parser("simulate", help="run a pitfall demonstration")
    sim_sub = simulate.add_subparsers(dest="simulation", required=True)
    with_config(sim_sub.add_parser(
        "stopping", help="same counts, two stopping intentions, two p-values"))
    with_config(sim_sub.add_parser(
        "optional-stopping", help="false-positive rate when testing at every look"))
    with_config(sim_sub.add_parser(
        "prior-sweep", help="Bayes factor and HDI under each prior preset"))

    sub.add_parser("version", help="print the package version")
    return parser


def _collect_overrides(args: argparse.Namespace) -> dict[str, str]:
    overrides: dict[str, str] = {}
    for item in args.overrides:
        key, sep, value = item.partition("=")
        key = key.strip()
        if not sep:  # parse_config checks the key's section.key shape
            raise ConfigError(f"--set expects SECTION.KEY=VALUE, got {item!r}")
        overrides[key] = value.strip()
    if args.seed is not None:
        overrides["analysis.seed"] = str(args.seed)
    return overrides


def _cmd_analyze(args: argparse.Namespace, conjugate_only: bool) -> int:
    config = parse_config_file(args.config, _collect_overrides(args))
    if conjugate_only:
        config = config.replace(mcmc=config.mcmc.replace(enabled=False))
    outcome = run_analysis(config)
    for name, decision in outcome.report.decisions.items():
        print(f"{name}: {decision['value']}")
    print(f"report written to {outcome.report_path}")
    trace = outcome.trace
    if trace is not None and not trace.converged:
        for warning in trace.warnings:
            print(f"warning: {warning}", file=sys.stderr)
        print("MCMC did not converge; treat the report's mcmc block as suspect",
              file=sys.stderr)
        return EXIT_NONCONVERGENCE
    return EXIT_OK


def _cmd_simulate(args: argparse.Namespace) -> int:
    config = parse_config_file(args.config, _collect_overrides(args))
    sim = config.simulate
    seed = config.analysis.seed
    out_dir = Path(config.output.sim_dir)

    if args.simulation == "stopping":
        result = stopping_comparison(
            sim.stopping_successes, sim.stopping_trials, sim.stopping_null_rate)
        payload = {"simulation": "stopping", **plain(result), "gap": result.gap}
        path = atomic_write_text(out_dir / "stopping.json", json_text(payload))
        print(f"fixed-trials intention: p = {result.fixed_trials_pvalue:.6f}")
        print(f"fixed-successes intention: p = {result.fixed_successes_pvalue:.6f}")
        print(f"same data, p-value gap = {result.gap:.6f}")

    elif args.simulation == "optional-stopping":
        looks = range(sim.looks_step, sim.looks_max + 1, sim.looks_step)
        report = optional_stopping_fpr(
            looks, sim.os_theta, sim.os_alpha, sim.os_trials, seed)
        payload = {"simulation": "optional_stopping", **plain(report)}
        path = atomic_write_text(out_dir / "optional_stopping.json", json_text(payload))
        print(f"{len(report.looks)} looks up to n = {report.looks[-1]}: "
              f"false-positive rate {report.false_positive_rate:.4f} "
              f"at nominal alpha = {report.nominal_alpha:g}")

    else:
        counts = load_observations(config).counts
        rows = prior_sensitivity_sweep(
            counts, PRIOR_PRESETS, sim.sweep_epsilon, config.analysis.hdi_mass)
        payload = {
            "simulation": "prior_sweep",
            "counts": [list(pair) for pair in counts],
            "epsilon": sim.sweep_epsilon,
            "rows": [{**plain(row), "hdi": {**plain(row.hdi), "width": row.hdi.width}}
                     for row in rows],
        }
        path = atomic_write_text(out_dir / "prior_sweep.json", json_text(payload))
        for row in rows:
            print(f"{row.label}: bf01 = {row.bf01:.4f}, "
                  f"hdi = [{row.hdi.lower:.5f}, {row.hdi.upper:.5f}]")

    print(f"written to {path}")
    return EXIT_OK


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "version":
            print(f"paircompare {__version__}")
            return EXIT_OK
        if args.command == "analyze":
            return _cmd_analyze(args, conjugate_only=False)
        if args.command == "oracle":
            return _cmd_analyze(args, conjugate_only=True)
        return _cmd_simulate(args)
    except (AssessmentError, MemoryError) as exc:
        reason = "out of memory: " if isinstance(exc, MemoryError) else ""
        print(f"error: {reason}{exc}", file=sys.stderr)
        return EXIT_ERROR


# A command runs once and exits, and what the imports built lives until then.
# Frozen, that heap is skipped by every later collection, those at exit too.
gc.freeze()

if __name__ == "__main__":
    sys.exit(main())
