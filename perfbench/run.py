#!/usr/bin/env python3
"""The egfrac benchmark: the CLI end to end, and a traced run per layer.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload lemma-sweep --seed 1 --seconds 20 --trace 0

``--trace 0`` runs the real CLI, one subprocess at a time, and reports
the end-to-end metrics, with times scaled to a reference host speed by
runs of ``calibration.py`` around each pass. ``--trace 1`` calls
``egfrac.cli.main`` in process with the layer wrappers of ``layers.py``
and reports the per-layer metrics. Both check every output (``outputs.py``) and exit 1
when any check fails. The last stdout line is the result object; the
line before it carries the same run in detail (quartiles, sample
counts, pinned environment, failure reasons).

The metric names and units come from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

import layers  # noqa: E402  (sibling modules; HERE is sys.path[0])
import outputs  # noqa: E402
import procs  # noqa: E402
import workloads  # noqa: E402

SETUP_RUNS_PER_PASS = 3
WARM_UP_S = 3.0
# calibration.py's median wall and CPU time on the machine the benchmark
# was defined on (see README.md); timings are reported at that host speed
CAL_REF_S = 0.28
CAL_REF_CPU_S = 0.27
# CLI time between two calibrations inside a long pass
CALIBRATE_EVERY_S = 1.0


@dataclass
class PassStats:
    wall_s: float = 0.0
    cpu_s: float = 0.0
    peak_rss_mb: float = 0.0
    work: int = 0
    answers: int = 0
    decided: int = 0
    bytes_out: int = 0
    outcomes: list = field(default_factory=list)


class Bench:
    """One benchmark run: invocations, their checks, and the failure tally."""

    def __init__(self, root: Path, scratch: Path, reference, sizes=workloads.FULL,
                 warm_up_s=WARM_UP_S):
        self.root = root
        self.warm_up_s = warm_up_s
        self.scratch = scratch
        self.reference = reference
        self.sizes = sizes
        self.env = procs.pinned_env(root)
        self.attempted = 0
        self.failures: list[str] = []
        self._checked: dict = {}

    # -- checking -----------------------------------------------------------

    def record(self, argv, exit_code, stdout, stderr, timed_out=False, reference=True,
               ref_argv=None):
        """Check one invocation; identical output for one argv is checked once."""
        self.attempted += 1
        check_argv = tuple(ref_argv or argv)
        if timed_out:
            outcome = outputs.Outcome(False, 0, False, outputs.sha256(stdout), "timed out")
        else:
            key = (check_argv, exit_code, outputs.sha256(stdout), reference)
            outcome = self._checked.get(key)
            if outcome is None:
                ref = self.reference if reference else None
                outcome = outputs.check(check_argv, exit_code, stdout, stderr, ref)
                self._checked[key] = outcome
        if not outcome.ok:
            self.failures.append(f"{' '.join(argv)}: {outcome.reason}")
        return outcome

    def fail(self, reason: str) -> None:
        """A failed cross-check counts as one more failed operation."""
        self.attempted += 1
        self.failures.append(reason)

    # -- untraced: the CLI as subprocesses ------------------------------------------

    def cli(self, argv, reference=True) -> tuple[procs.CliRun, outputs.Outcome]:
        run = procs.run_cli(self.root, self.env, argv, self.scratch)
        outcome = self.record(argv, run.exit_code, run.stdout, run.stderr,
                              run.timed_out, reference)
        return run, outcome

    def cli_pass(self, argvs, reference=True) -> PassStats:
        stats = PassStats()
        for argv in argvs:
            _add_run(stats, *self.cli(argv, reference))
        return stats

    def calibrated_pass(self, argvs, cal_before, copies) -> tuple[PassStats, list[procs.CliRun]]:
        """A pass with a calibration after each ``CALIBRATE_EVERY_S`` of CLI
        time and at its end; returns it with every calibration from
        ``cal_before`` on."""
        stats, cals, since = PassStats(), [cal_before], 0.0
        for i, argv in enumerate(argvs):
            run, outcome = self.cli(argv)
            _add_run(stats, run, outcome)
            since += run.wall_s
            if since >= CALIBRATE_EVERY_S or i == len(argvs) - 1:
                cals.append(self.calibrate(copies))
                since = 0.0
        return stats, cals

    def warm_up(self, name: str, seed: int) -> None:
        """Tiny passes until the page cache is warm and the CPU clock settled.

        Clocks on this kind of host boost for the first second or so of
        load, then settle; timing starts after that.
        """
        argvs = workloads.make_pass(name, seed, workloads.TINY)
        start = time.perf_counter()
        while True:
            self.cli_pass(argvs, reference=False)
            if time.perf_counter() - start >= self.warm_up_s:
                return

    def calibrate(self, copies: int) -> procs.CliRun:
        """One run of the host-speed reference; a wrong result fails the run."""
        run = procs.run_calibration(self.root, self.env, self.scratch, copies)
        if run.exit_code != 0:
            self.fail(f"calibration.py exited {run.exit_code}")
        return run

    def untraced(self, name: str, seed: int, seconds: float) -> tuple[dict, dict]:
        self.warm_up(name, seed)
        argvs = workloads.make_pass(name, seed, self.sizes, self.reference)
        setup: list[list[float]] = []
        # per pass: the calibrations just before, inside and just after it
        cal_runs: list[list[procs.CliRun]] = []
        # as many copies at once as the pass keeps processes busy
        copies = max(_jobs(a) for a in argvs)
        first_cal = self.calibrate(copies)

        def one_pass():
            # the set-up command runs between passes, under the same load
            setup.append([self.cli(workloads.SETUP_ARGV)[0].wall_s
                          for _ in range(SETUP_RUNS_PER_PASS)])
            cal_before = cal_runs[-1][-1] if cal_runs else first_cal
            stats, cals = self.calibrated_pass(argvs, cal_before, copies)
            cal_runs.append(cals)
            return stats

        passes = _repeat(one_pass, seconds)

        # wall times scale by the calibrations' wall time, CPU times by
        # their CPU time: time stolen by the host stretches only the first
        scale = [CAL_REF_S / statistics.mean(c.wall_s for c in cals) for cals in cal_runs]
        cpu_scale = [CAL_REF_CPU_S / statistics.mean(c.cpu_s for c in cals) for cals in cal_runs]
        answers = sum(p.answers for p in passes)
        samples = {
            "wall_s": [p.wall_s * k for p, k in zip(passes, scale)],
            "cpu_s": [p.cpu_s * k for p, k in zip(passes, cpu_scale)],
            "points_per_s": [p.work / (p.wall_s * k) for p, k in zip(passes, scale)],
            "peak_rss_mb": [p.peak_rss_mb for p in passes],
            "setup_s": [t * k for ts, k in zip(setup, scale) for t in ts],
        }
        values = {k: statistics.median(v) for k, v in samples.items()}
        failed = len(self.failures)
        values["ops_ok_ratio"] = 1.0 - failed / self.attempted
        values["decided_ratio"] = sum(p.decided for p in passes) / answers if answers else 0.0
        calibrations = [first_cal] + [c for cals in cal_runs for c in cals[1:]]
        measured = {
            "wall_s": [p.wall_s for p in passes],
            "cpu_s": [p.cpu_s for p in passes],
            "setup_s": [t for ts in setup for t in ts],
            "calibration_s": [c.wall_s for c in calibrations],
            "calibration_cpu_s": [c.cpu_s for c in calibrations],
        }
        detail = {
            "argv": [" ".join(a) for a in argvs],
            "samples": {k: _summary(v) for k, v in samples.items()},
            "measured": {k: _summary(v) for k, v in measured.items()},
            "cal_ref_s": CAL_REF_S,
            "cal_ref_cpu_s": CAL_REF_CPU_S,
            "calibration_copies": copies,
            "work_per_pass": passes[0].work,
            "ops_failed_ratio": failed / self.attempted,
            "inconclusive_ratio": 1.0 - values["decided_ratio"],
        }
        return values, detail

    # -- traced: cli.main in process ----------------------------------------------

    def in_process(self, argv, tracer=None):
        """Run ``cli.main(argv)`` here, with stdout and stderr going to files."""
        from egfrac import cli

        out_path, err_path = self.scratch / "stdout", self.scratch / "stderr"
        saved = sys.stdout, sys.stderr
        with open(out_path, "w") as out, open(err_path, "w") as err:
            sys.stdout = tracer.stdout(out) if tracer else out
            sys.stderr = err
            try:
                t0 = time.perf_counter()
                try:
                    if tracer:
                        code = tracer.span("cli.main", "cli", cli.main, list(argv))
                    else:
                        code = cli.main(list(argv))
                except SystemExit as exc:  # argparse rejects its flags
                    code = exc.code if isinstance(exc.code, int) else 2
                sys.stdout.flush()
                wall = time.perf_counter() - t0
            finally:
                sys.stdout, sys.stderr = saved
        return code, wall, out_path.read_bytes(), err_path.read_bytes()

    def in_process_pass(self, argvs, tracer=None, ref_argvs=None) -> PassStats:
        stats = PassStats()
        if tracer:
            tracer.install()
        try:
            for argv, ref_argv in zip(argvs, ref_argvs or argvs):
                code, wall, out, err = self.in_process(argv, tracer)
                outcome = self.record(argv, code, out, err, ref_argv=ref_argv)
                stats.wall_s += wall
                _tally(stats, outcome, len(out))
        finally:
            if tracer:
                tracer.uninstall()
        return stats

    def traced(self, name: str, seed: int, seconds: float) -> tuple[dict, dict]:
        import egfrac

        src = (self.root / "src").resolve()
        if src not in Path(egfrac.__file__).resolve().parents:
            raise RuntimeError(f"imported egfrac from {egfrac.__file__}, not {src}")
        self.warm_up(name, seed)
        argvs = workloads.make_pass(name, seed, self.sizes, self.reference)
        serial = [_with_jobs(a, 1) for a in argvs]

        def one_round():
            untraced = self.in_process_pass(argvs)
            tracer = layers.Tracer()
            traced = self.in_process_pass(argvs, tracer)
            pool_tracer, counted = None, traced
            if serial != argvs:
                # pool workers are invisible to the wrappers: count at --jobs 1
                pool_tracer, tracer = tracer, layers.Tracer()
                counted = self.in_process_pass(serial, tracer, ref_argvs=argvs)
            values = layer_metrics(tracer, counted, self.scratch, pool_tracer)
            values["trace.overhead_s"] = traced.wall_s - untraced.wall_s
            self.cross_check(name, tracer, counted)
            return values

        rounds = _repeat(one_round, seconds)
        samples = {k: [r[k] for r in rounds] for k in rounds[0]}
        values = {k: statistics.median(v) for k, v in samples.items()}
        detail = {
            "argv": [" ".join(a) for a in argvs],
            "samples": {k: _summary(v) for k, v in samples.items()},
        }
        return values, detail

    def cross_check(self, name: str, tracer, counted: PassStats) -> None:
        """Kernel call counts must equal the work the outputs report, exactly."""
        counts = dict(zip(tracer.kernel_names, tracer.kernel_counts))
        if name == "lemma-sweep" and counts:
            if sum(counts.values()) != counted.work:
                self.fail(f"kernel calls {sum(counts.values())} != points {counted.work}")
        if name.startswith("threshold") and "two_term_scan" in counts:
            if counts["two_term_scan"] != counted.work:
                self.fail(f"two_term_scan calls {counts['two_term_scan']} != rows {counted.work}")


def layer_metrics(tracer, counted: PassStats, scratch: Path, pool_tracer=None) -> dict:
    """Per-layer values of one traced pass; absent layers give absent metrics."""
    kernel_ns = tracer.kernel_ns_per_call()
    write_ns = tracer.write_ns_per_call(scratch / "replay")
    kernel_overhead, write_overhead = tracer.counting_overhead_ns()
    # what self times subtract per call: the estimate plus the wrapper's cost
    kernel_charge = [ns + kernel_overhead for ns in kernel_ns]
    write_charge = write_ns + write_overhead
    values: dict = {}
    if tracer.kernel_names:
        calls = sum(tracer.kernel_counts)
        busy_ns = sum(n * ns for n, ns in zip(tracer.kernel_counts, kernel_ns))
        values["backend.calls"] = calls
        for kname, n in zip(tracer.kernel_names, tracer.kernel_counts):
            values[f"backend.calls.{kname}"] = n
        values["backend.ns_per_call"] = busy_ns / calls if calls else 0.0
        values["backend.busy_s"] = busy_ns / 1e9

    def layer_stats(layer):
        return [(k, s) for k, s in tracer.stats.items() if s.layer == layer]

    if layer_stats("lemmas"):
        values["lemmas.busy_s"] = tracer.layer_ns.get("lemmas", 0) / 1e9
        values["lemmas.self_s"] = sum(
            tracer.self_ns(k, kernel_charge) for k, _ in layer_stats("lemmas")) / 1e9
        values["lemmas.points"] = sum(s.points for _, s in layer_stats("lemmas"))
    stats = tracer.stats
    if "underapprox.threshold_sweep" in stats:
        sweep = stats["underapprox.threshold_sweep"]
        values["underapprox.sweep_s"] = sweep.ns / 1e9
        values["underapprox.sweep_self_s"] = (
            tracer.self_ns("underapprox.threshold_sweep", kernel_charge) / 1e9)
        values["underapprox.rows"] = sweep.items
        pool = pool_tracer.stats.get("underapprox.threshold_sweep") if pool_tracer else None
        values["underapprox.pool_wait_s"] = pool.ns / 1e9 if pool else 0.0
    if "underapprox.verify_threshold_rows" in stats:
        values["underapprox.verify_rows_s"] = stats["underapprox.verify_threshold_rows"].ns / 1e9
    if "underapprox.best_m_term" in stats:
        values["underapprox.search_s"] = stats["underapprox.best_m_term"].ns / 1e9
        values["underapprox.searches"] = stats["underapprox.best_m_term"].calls
    if layer_stats("greedy"):
        values["greedy.calls"] = tracer.layer_calls.get("greedy", 0)
        values["greedy.busy_s"] = tracer.layer_ns.get("greedy", 0) / 1e9
    if layer_stats("report"):
        values["report.to_json_s"] = tracer.layer_ns.get("report", 0) / 1e9
    values["cli.self_s"] = tracer.self_ns("cli.main", kernel_charge, write_charge) / 1e9
    values["cli.write_s"] = tracer.write_calls * write_ns / 1e9
    values["cli.write_calls"] = tracer.write_calls
    values["cli.bytes_out"] = counted.bytes_out
    return values


def _add_run(stats: PassStats, run: procs.CliRun, outcome) -> None:
    stats.wall_s += run.wall_s
    stats.cpu_s += run.cpu_s
    stats.peak_rss_mb = max(stats.peak_rss_mb, run.maxrss_mb)
    _tally(stats, outcome, len(run.stdout))


def _tally(stats: PassStats, outcome, nbytes: int) -> None:
    stats.work += outcome.work
    stats.bytes_out += nbytes
    stats.outcomes.append(outcome)
    if outcome.ok:
        stats.answers += 1
        stats.decided += outcome.decided


def _jobs(argv) -> int:
    return int(argv[argv.index("--jobs") + 1]) if "--jobs" in argv else 1


def _with_jobs(argv, jobs: int):
    argv = list(argv)
    if "--jobs" in argv:
        argv[argv.index("--jobs") + 1] = str(jobs)
    return tuple(argv)


def _repeat(step, seconds: float) -> list:
    """Run ``step`` at least once, then while another one fits in ``seconds``."""
    results = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        results.append(step())
        now = time.perf_counter()
        if now - start + (now - t0) > seconds:
            return results


def _summary(values: list) -> dict:
    """Sample count, quartiles, and the highest order statistic that still
    has ten samples above it (with its percentile), when there is one."""
    n = len(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if n > 1 else values * 3
    out = {"n": n, "q1": q1, "median": statistics.median(values), "q3": q3}
    if n > 10:
        out["high"] = {"percentile": round(100 * (n - 10) / n), "value": sorted(values)[n - 11]}
    return out


def environment() -> dict:
    from egfrac import backend_name

    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "backend": backend_name(),
        "pinned": dict(procs.PINNED),
        "dropped": "every other PYTHON* and EGFRAC_* variable",
        "bytecode": "compiled by compileall before timing, read from __pycache__",
        "cpus": os.cpu_count(),
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = parse_args(argv)
    # SIGTERM unwinds like an exception, so that no CLI process outlives the run
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "egfrac" / "cli.py").is_file():
        print(f"perfbench: no egfrac source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not procs.env_is_pinned(ROOT):
        os.execve(sys.executable, [sys.executable, str(Path(__file__).resolve()), *argv],
                  procs.pinned_env(ROOT))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    reference = json.loads((HERE / "reference.json").read_text())
    procs.build(ROOT)
    # a directory of its own, so that concurrent runs cannot mix outputs
    scratch = ROOT / ".bench_build" / "perfbench" / f"run-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        bench = Bench(ROOT, scratch, reference)
        run = bench.traced if args.trace else bench.untraced
        values, detail = run(args.workload, args.seed, args.seconds)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in declared if m["name"] in values
    }
    failed = len(bench.failures)
    detail.update(workload=args.workload, seed=args.seed, environment=environment(),
                  failures=bench.failures[:20],
                  other_values={k: v for k, v in values.items() if k not in metrics})
    print(json.dumps({"detail": detail}))
    for reason in bench.failures[:20]:
        print(f"perfbench: check failed: {reason}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": bench.attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
