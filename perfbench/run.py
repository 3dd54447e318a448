"""paircompare CLI benchmark: seeded workloads of real CLI commands, each op
in a fresh interpreter, every output checked against an independent oracle.

    python3 perfbench/run.py --workload conjugate-scale --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

One driver process runs one op at a time in a closed loop for ``--seconds``
seconds, then checks every op's files.  ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` runs each op twice, untraced and traced, and prints
the per-layer metrics from the spans.  ``--workload all`` runs every
workload both ways and prints one table.  The last line of stdout is a JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; a full
record of the run goes to ``.perfbench-runs/results/``.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from workloads import CONFIG, WORKLOADS

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
LAUNCH = HERE / "launch.py"
RUNS = ROOT / ".perfbench-runs"

SETUP_REPEATS = 9
OP_TIMEOUT_S = 120.0
TAIL_BEYOND = 10  # the tail percentile keeps at least this many ops above it

# Machine-speed probe.  The host's speed drifts by up to 40% over minutes
# (identical ops and this loop slow down together), so the end-to-end times
# are scaled to a reference speed at which the loop takes REF_NOMINAL_S.
REF_LOOP = 300_000
REF_NOMINAL_S = 0.025

END_TO_END = {"setup_s": "s", "op_p50_ms": "ms", "op_tail_ms": "ms",
              "ops_per_s": "1/s", "peak_rss_mb": "MB"}

# name -> unit; values are means per traced op unless the name says a ratio.
PER_LAYER = {
    "cli.import_ms": "ms", "cli.main_self_ms": "ms",
    "config.parse_ms": "ms", "config.load_observations_ms": "ms",
    "frequentist.z_test_ms": "ms", "frequentist.ci_ms": "ms",
    "bayes.posterior_pair_ms": "ms",
    "posterior.quadrature_ms": "ms", "posterior.quadrature_calls": "count",
    "posterior.bf_self_ms": "ms", "posterior.hdi_ms": "ms",
    "posterior.quad_digits": "digits",
    "numerics.incbeta_calls": "count", "numerics.incbeta_ms": "ms",
    "numerics.sample_beta_ms": "ms", "numerics.sample_beta_draws": "count",
    "numerics.sample_beta_ns_per_draw": "ns",
    "numerics.rng_streams": "count", "numerics.rng_stream_ms": "ms",
    "mcmc.run_chains_ms": "ms", "mcmc.steps": "count", "mcmc.ns_per_step": "ns",
    "mcmc.accept_rate": "ratio", "mcmc.ess_per_s": "1/s", "mcmc.diagnostics_ms": "ms",
    "mcmc.export_trace_ms": "ms", "mcmc.export_bytes": "bytes",
    "reporting.run_analysis_self_ms": "ms", "reporting.plot_data_ms": "ms",
    "reporting.report_bytes": "bytes",
    "fsio.writes": "count", "fsio.write_ms": "ms", "fsio.bytes": "bytes",
    "simulations.optional_stopping_ms": "ms", "simulations.look_tests": "count",
    "simulations.ns_per_look_test": "ns", "simulations.prior_sweep_ms": "ms",
    "trace.overhead_ms": "ms", "trace.coverage": "ratio",
}


def child_env(work: Path) -> dict:
    """A hermetic environment: the checkout's src on an absolute path, one
    BLAS/OpenMP thread, temp files inside the run's own directory."""
    keep = ("PATH", "HOME", "LANG", "LC_ALL", "LC_CTYPE", "TZ")
    env = {k: v for k, v in os.environ.items() if k in keep}
    env.update({var: "1" for var in THREAD_VARS})
    env.update(PYTHONPATH=str(SRC), TMPDIR=str(work))
    return env


def spawn(argv: list[str], cwd: Path, env: dict, out_prefix: Path) -> dict:
    """Run one child to completion; wall time from spawn to exit, peak RSS."""
    with open(f"{out_prefix}.out", "wb") as out, open(f"{out_prefix}.err", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *argv], cwd=cwd, env=env,
                                stdout=out, stderr=err, stdin=subprocess.DEVNULL)
        timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    stderr = Path(f"{out_prefix}.err").read_text(encoding="utf-8", errors="replace")
    return {"wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024.0, "rc": proc.returncode, "stderr": stderr}


def reference_loop() -> float:
    """Seconds a fixed pure-Python loop takes: the machine-speed probe."""
    start = time.perf_counter()
    total = 0
    for i in range(REF_LOOP):
        total += i * i % 7
    return time.perf_counter() - start


class Runner:
    """Runs ops of one workload in fresh directories under ``work``, timing
    the reference loop in this process just before each one."""

    def __init__(self, work: Path):
        self.work = work
        self.env = child_env(work)
        self.count = 0
        self.reference: list[float] = []

    def slowdown(self) -> float:
        """Machine speed during the run relative to the reference speed
        (above 1 when slower): median reference loop / REF_NOMINAL_S."""
        return statistics.median(self.reference) / REF_NOMINAL_S

    def run(self, op, traced: bool = False) -> dict:
        self.count += 1
        self.reference.append(reference_loop())
        base = self.work / f"op{self.count:04d}"
        cwd = base / "cwd"
        cwd.mkdir(parents=True)
        argv = list(op.argv)
        if op.config is not None:
            config = base / "op.cfg"
            config.write_text(op.config, encoding="utf-8")
            argv = [str(config) if a == CONFIG else a for a in argv]
        launch = [str(LAUNCH)]
        trace = None
        if traced:
            trace = str(base / "trace")
            launch += ["--trace-out", trace]
        record = spawn(launch + argv, cwd, self.env, base / "std")
        record.update(kind=op.kind, dir=cwd, trace=trace, traced=traced, op=op)
        err = record["stderr"]
        record["failure"] = None
        if record["rc"] != 0 or "Traceback (most recent call last)" in err:
            last = [line for line in err.splitlines() if line.strip()]
            record["failure"] = f"exit {record['rc']}: {last[-1] if last else '(no stderr)'}"
        return record


def tree_bytes(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def same_outputs(a: Path, b: Path) -> str | None:
    left, right = tree_bytes(a), tree_bytes(b)
    if left.keys() != right.keys():
        return f"different files: {sorted(left.keys() ^ right.keys())}"
    differing = [name for name in left if left[name] != right[name]]
    if differing:
        return f"bytes differ in {differing}"
    return None


def check_outputs(records: list[dict]) -> tuple[list[list[str]], list[list[float]]]:
    """Check every completed op's files in a separate oracle process.

    Returns the problems and the quadrature relative errors, per record."""
    jobs = [{"check": r["op"].check, "dir": str(r["dir"]), "expect": r["op"].expect}
            for r in records]
    request = json.dumps({"schema": str(SRC / "paircompare" / "schema" / "report.schema.json"),
                          "jobs": jobs})
    done = subprocess.run([sys.executable, str(HERE / "oracle.py")], input=request,
                          capture_output=True, text=True, cwd=HERE, env=child_env(HERE),
                          timeout=OP_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"oracle process failed:\n{done.stderr}")
    answer = json.loads(done.stdout)
    return answer["problems"], answer["quad_errors"]


def digits(errors: list[float]) -> float:
    """-log10 of the worst relative error, at most 52 bits (0 when none)."""
    return -math.log10(max(max(errors), 2.0**-52)) if errors else 0.0


def tail(walls_ms: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least TAIL_BEYOND ops above it, but never
    below the ceil(n/2)-th of n ops: (value, percentile, number of ops)."""
    ordered = sorted(walls_ms)
    n = len(ordered)
    k = max((n + 1) // 2, n - TAIL_BEYOND)
    return ordered[k - 1], 100.0 * k / n, n


def measure_setup(runner: Runner) -> list[float]:
    """Fresh interpreter to `import paircompare.cli` done, no command run.
    One warm-up first, so compiled bytecode is cached as a user's would be."""
    cwd = runner.work / "setup"
    cwd.mkdir()
    argv = ["-c", "import paircompare.cli"]
    spawn(argv, cwd, runner.env, cwd / "warmup")
    times = []
    for i in range(SETUP_REPEATS):
        runner.reference.append(reference_loop())
        record = spawn(argv, cwd, runner.env, cwd / f"setup{i}")
        if record["rc"] != 0:
            raise RuntimeError(f"importing paircompare.cli failed: {record['stderr']}")
        times.append(record["wall_s"])
    return times


def layer_metrics(profiles: list[dict], quad_digits: float,
                  traced_ms: list[float], untraced_ms: list[float]) -> dict[str, float]:
    n = max(1, len(profiles))
    inc: dict[str, float] = {}
    self_ns: dict[str, float] = {}
    counters: dict[str, float] = {}
    for prof in profiles:
        for table, src in ((inc, prof["inclusive"]), (self_ns, prof["self"]),
                           (counters, prof["counters"])):
            for name, value in src.items():
                table[name] = table.get(name, 0.0) + value

    def ms(name, table=inc):
        return table.get(name, 0.0) / 1e6 / n

    def per_op(name):
        return counters.get(name, 0.0) / n

    def ratio(num, den):
        return num / den if den else 0.0

    steps = counters.get("mcmc.steps", 0.0)
    looks = counters.get("simulations.look_tests", 0.0)
    draws = counters.get("numerics.sample_beta_draws", 0.0)
    coverage = [p["covered_ns"] / p["wall_ns"] for p in profiles if p["wall_ns"] > 0]
    overhead = (statistics.median(traced_ms) - statistics.median(untraced_ms)
                if traced_ms and untraced_ms else 0.0)
    return {
        "cli.import_ms": ms("cli.import"),
        "cli.main_self_ms": ms("cli.main", self_ns),
        "config.parse_ms": ms("config.parse"),
        "config.load_observations_ms": ms("config.load_observations"),
        "frequentist.z_test_ms": ms("frequentist.z_test"),
        "frequentist.ci_ms": ms("frequentist.ci"),
        "bayes.posterior_pair_ms": ms("bayes.posterior_pair"),
        "posterior.quadrature_ms": ms("posterior.quadrature"),
        "posterior.quadrature_calls": per_op("posterior.quadrature_calls"),
        "posterior.bf_self_ms": ms("posterior.bayes_factor", self_ns),
        "posterior.hdi_ms": ms("posterior.hdi"),
        "posterior.quad_digits": quad_digits,
        "numerics.incbeta_calls": per_op("numerics.incbeta_calls"),
        "numerics.incbeta_ms": ms("numerics.incbeta"),
        "numerics.sample_beta_ms": ms("numerics.sample_beta"),
        "numerics.sample_beta_draws": per_op("numerics.sample_beta_draws"),
        "numerics.sample_beta_ns_per_draw": ratio(inc.get("numerics.sample_beta", 0.0), draws),
        "numerics.rng_streams": per_op("numerics.rng_streams"),
        "numerics.rng_stream_ms": ms("numerics.rng_stream"),
        "mcmc.run_chains_ms": ms("mcmc.run_chains"),
        "mcmc.steps": steps / n,
        "mcmc.ns_per_step": ratio(self_ns.get("mcmc.run_chains", 0.0), steps),
        "mcmc.accept_rate": ratio(counters.get("mcmc.accepted", 0.0),
                                  counters.get("mcmc.proposals", 0.0)),
        "mcmc.ess_per_s": ratio(counters.get("mcmc.ess", 0.0),
                                inc.get("mcmc.run_chains", 0.0) / 1e9),
        "mcmc.diagnostics_ms": ms("mcmc.diagnostics"),
        "mcmc.export_trace_ms": ms("mcmc.export_trace"),
        "mcmc.export_bytes": per_op("mcmc.export_bytes"),
        "reporting.run_analysis_self_ms": ms("reporting.run_analysis", self_ns),
        "reporting.plot_data_ms": ms("reporting.plot_data"),
        "reporting.report_bytes": per_op("reporting.report_bytes"),
        "fsio.writes": per_op("fsio.writes"),
        "fsio.write_ms": ms("fsio.write"),
        "fsio.bytes": per_op("fsio.bytes"),
        "simulations.optional_stopping_ms": ms("simulations.optional_stopping"),
        "simulations.look_tests": looks / n,
        "simulations.ns_per_look_test": ratio(
            self_ns.get("simulations.optional_stopping", 0.0), looks),
        "simulations.prior_sweep_ms": ms("simulations.prior_sweep"),
        "trace.overhead_ms": overhead,
        "trace.coverage": statistics.fmean(coverage) if coverage else 0.0,
    }


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git (None when
    the checkout is not a repository)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int, workload: str) -> dict:
    from importlib.metadata import PackageNotFoundError, version

    def installed(package):
        try:
            return version(package)
        except PackageNotFoundError:
            return None

    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "paircompare").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {"python": platform.python_version(), "numpy": installed("numpy"),
            "scipy": installed("scipy"), "nproc": os.cpu_count(),
            "nproc_usable": len(os.sched_getaffinity(0)), "cpu_model": cpu,
            "git_commit": git_commit(), "src_sha256": digest.hexdigest(),
            "workload": workload, "workload_seed": seed}


def run_workload(name: str, seed: int, seconds: float, traced: bool, work: Path) -> dict:
    """One run: set-up timing, the timed closed loop, a determinism check,
    the defect probes, then the oracle checks of every op's files."""
    make_ops, make_probes = WORKLOADS[name]
    ops = make_ops(random.Random(f"{name}:{seed}"), ROOT)
    runner = Runner(work)
    setup = [] if traced else measure_setup(runner)

    records: list[dict] = []
    pairs: list[tuple[dict, dict]] = []
    refs_before = len(runner.reference)
    loop_start = time.perf_counter()
    while time.perf_counter() - loop_start < seconds:
        op = next(ops)
        if traced:
            # Alternate which twin goes first so neither gets a warmer cache.
            first = len(pairs) % 2 == 1
            a, b = runner.run(op, first), runner.run(op, not first)
            plain, trace = (b, a) if first else (a, b)
            pairs.append((plain, trace))
            records += [plain, trace]
        else:
            records.append(runner.run(op))
    # The loop's own time, without the reference loops timed between ops.
    loop_s = time.perf_counter() - loop_start - sum(runner.reference[refs_before:])

    def mark(record, failure):
        if record["failure"] is None:
            record["failure"] = failure
            record["wrong"] = True

    if traced:
        for plain, trace in pairs:
            if plain["failure"] is None and trace["failure"] is None:
                diff = same_outputs(plain["dir"], trace["dir"])
                if diff:
                    mark(trace, f"traced output differs from untraced: {diff}")
        determinism = f"{len(pairs)} untraced/traced pairs compared byte for byte"
    else:
        first = records[0]
        rerun = runner.run(first["op"])
        diff = rerun["failure"] or same_outputs(first["dir"], rerun["dir"])
        if diff:
            mark(first, f"rerun not byte-identical: {diff}")
        determinism = (f"op 1 ({first['kind']}) rerun with the same seed: "
                       + (diff or f"{len(tree_bytes(first['dir']))} files byte-identical"))

    probes = []
    if make_probes is not None and not traced:
        probes = [runner.run(op)
                  for op in make_probes(random.Random(f"{name}:{seed}:probes"), ROOT)]

    done = [r for r in records + probes if r["failure"] is None]
    problems, quad_errors = check_outputs(done)
    for record, found, errors in zip(done, problems, quad_errors):
        record["quad_errors"] = errors
        if found:
            mark(record, "wrong output: " + "; ".join(found))
    quad_digits = digits([e for r in records for e in r.get("quad_errors", [])])

    ok = [r for r in records if r["failure"] is None]
    walls = [r["wall_s"] * 1000.0 for r in ok]
    result = {
        "workload": name, "seed": seed, "trace": int(traced), "loop_s": loop_s,
        "slowdown": runner.slowdown(), "reference_loop_s": runner.reference,
        "attempted": len(records), "failed": len(records) - len(ok),
        "correct": not any(r.get("wrong") for r in records + probes),
        "quad_digits": quad_digits,
        "determinism": determinism,
        "failures": [{"kind": r["kind"], "argv": r["op"].argv, "config": r["op"].config,
                      "error": r["failure"]} for r in records if r["failure"]],
        "probes_failed": sum(r["failure"] is not None for r in probes),
        "probes": [{"kind": r["kind"], "argv": r["op"].argv, "config": r["op"].config,
                    "wall_ms": r["wall_s"] * 1000.0,
                    "outcome": r["failure"] or "completed, output correct"
                               + (f", quad_digits {digits(r['quad_errors']):.2f}"
                                  if r["quad_errors"] else "")} for r in probes],
        "ops": [{"kind": r["kind"], "traced": r["traced"], "wall_ms": r["wall_s"] * 1000.0,
                 "cpu_ms": r["cpu_s"] * 1000.0, "rss_mb": r["rss_mb"], "error": r["failure"]}
                for r in records],
    }
    result["error_rate"] = result["failed"] / result["attempted"]
    if not walls:
        result["metrics"] = {}
        return result
    if traced:
        from tracing import load, op_profile

        good = [(p, t) for p, t in pairs if p["failure"] is None and t["failure"] is None]
        profiles = [op_profile(*load(t["trace"])) for _, t in good]
        result["metrics"] = layer_metrics(profiles, quad_digits,
                                          [t["wall_s"] * 1000.0 for _, t in good],
                                          [p["wall_s"] * 1000.0 for p, _ in good])
        self_ms = {}
        for prof in profiles:
            for span, ns in prof["self"].items():
                self_ms[span] = self_ms.get(span, 0.0) + ns / 1e6 / len(profiles)
        result["self_ms_per_op"] = dict(sorted(self_ms.items(), key=lambda kv: -kv[1]))
        result["untraced_wrap_targets"] = sorted({m for p in profiles for m in p["missing"]})
    else:
        value, pct, count = tail(walls)
        result["tail_percentile"] = pct
        result["tail_ops"] = count
        result["setup_runs_s"] = setup
        result["wall_metrics"] = {
            "setup_s": statistics.median(setup),
            "op_p50_ms": statistics.median(walls),
            "op_tail_ms": value,
            "ops_per_s": len(ok) / loop_s,
        }
        slow = runner.slowdown()
        result["metrics"] = {
            "setup_s": result["wall_metrics"]["setup_s"] / slow,
            "op_p50_ms": result["wall_metrics"]["op_p50_ms"] / slow,
            "op_tail_ms": value / slow,
            "ops_per_s": result["wall_metrics"]["ops_per_s"] * slow,
            "peak_rss_mb": max(r["rss_mb"] for r in records),
        }
    return result


def summary(result: dict) -> list[str]:
    units = PER_LAYER if result["trace"] else END_TO_END
    lines = [f"workload {result['workload']}  seed {result['seed']}  trace {result['trace']}"
             f"  ({result['attempted']} ops in {result['loop_s']:.1f} s, machine "
             f"{result['slowdown']:.3f}x the reference time)"]
    wall = result.get("wall_metrics", {})
    for name, value in result["metrics"].items():
        note = f"  (wall {wall[name]:.4f})" if name in wall else ""
        if name == "op_tail_ms":
            note += (f"  (p{result['tail_percentile']:.1f} of {result['tail_ops']} ops, "
                     f"{TAIL_BEYOND} beyond)")
        lines.append(f"  {name:36s} {value:14.4f} {units[name]}{note}")
    lines.append(f"  {'error_rate':36s} {result['error_rate']:14.4f} ratio"
                 f"  ({result['failed']} of {result['attempted']} ops failed)")
    if result["probes"]:
        failed = result["failed"] + result["probes_failed"]
        attempted = result["attempted"] + len(result["probes"])
        lines.append(f"  {'error_rate, probes included':36s} {failed / attempted:14.4f} ratio"
                     f"  ({failed} of {attempted} ops failed)")
    if not result["trace"]:
        lines.append(f"  {'quad_digits':36s} {result['quad_digits']:14.4f} digits")
    for failure in result["failures"]:
        lines.append(f"  FAILED {failure['kind']}: {failure['error']}")
    lines.append(f"  determinism: {result['determinism']}")
    if result["probes"]:
        lines.append(f"  defect probes: {result['probes_failed']} of {len(result['probes'])} failed")
        lines += [f"    {p['kind']}: {p['outcome']}" for p in result["probes"]]
    if result.get("self_ms_per_op"):
        top = list(result["self_ms_per_op"].items())[:6]
        lines.append("  largest self times (ms/op): "
                     + ", ".join(f"{k} {v:.1f}" for k, v in top))
    if result.get("untraced_wrap_targets"):
        lines.append(f"  not found, so untraced: {result['untraced_wrap_targets']}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not (SRC / "paircompare" / "cli.py").is_file() or not (ROOT / "configs").is_dir():
        print(f"error: no paircompare checkout around {HERE} (need src/paircompare "
              f"and configs/)", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    modes = (False, True) if args.workload == "all" else (bool(args.trace),)
    work = RUNS / f"work-{os.getpid()}"
    results = []
    try:
        for name in names:
            for traced in modes:
                run_dir = work / f"{name}-{int(traced)}"
                run_dir.mkdir(parents=True)
                result = run_workload(name, args.seed, args.seconds, traced, run_dir)
                result["environment"] = environment(args.seed, name)
                results.append(result)
                shutil.rmtree(run_dir, ignore_errors=True)
                out = RUNS / "results" / f"{name}-seed{args.seed}-trace{int(traced)}.json"
                out.parent.mkdir(parents=True, exist_ok=True)
                out.write_text(json.dumps(result, indent=1, default=str) + "\n",
                               encoding="utf-8")
                print("\n".join(summary(result)), flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if len(results) == 1:
        metrics = results[0]["metrics"]
        units = PER_LAYER if results[0]["trace"] else END_TO_END
        metrics = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    else:
        metrics = {f"{r['workload']}.{k}": {"value": v,
                                            "unit": (PER_LAYER if r["trace"] else END_TO_END)[k]}
                   for r in results for k, v in r["metrics"].items()}
    print(json.dumps({"correct": all(r["correct"] for r in results),
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": sum(r["failed"] for r in results),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
