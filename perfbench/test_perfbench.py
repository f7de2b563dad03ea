"""Fast tests of the benchmark itself, at tiny sizes.

Run from the repository root:

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import layers
import outputs
import run
import workloads

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = json.loads((Path(__file__).parent / "reference.json").read_text())


@pytest.fixture
def bench(tmp_path):
    return run.Bench(ROOT, tmp_path, None, sizes=workloads.TINY, warm_up_s=0)


def _own_reference(argv, cli_run):
    return {" ".join(argv): {"exit": cli_run.exit_code, "sha256": outputs.sha256(cli_run.stdout)}}


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_workload_runs_and_traced_hashes_match(bench, name):
    argvs = workloads.make_pass(name, 3, workloads.TINY)
    untraced = bench.cli_pass(argvs)
    traced = bench.in_process_pass(argvs, layers.Tracer())
    assert bench.failures == []
    assert [o.sha256 for o in untraced.outcomes] == [o.sha256 for o in traced.outcomes]
    assert untraced.work > 0 and untraced.wall_s > 0 and untraced.peak_rss_mb > 0


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_traced_run_reports_layers_and_cross_checks(bench, name):
    values, _ = bench.traced(name, 5, seconds=0)
    assert bench.failures == []
    assert values["cli.write_calls"] > 0 and values["cli.bytes_out"] > 0
    assert "trace.overhead_s" in values
    if name == "lemma-sweep":
        assert values["backend.calls"] == values["lemmas.points"] > 0
    if name.startswith("threshold"):
        assert values["backend.calls.two_term_scan"] == values["underapprox.rows"] > 0
    if name == "threshold-csv-jobs2":
        assert values["underapprox.pool_wait_s"] > 0
    if name == "mterm-search":
        assert values["underapprox.searches"] == len(workloads.make_pass(name, 5, workloads.TINY))


@pytest.mark.parametrize("name, copies", [("threshold-json", 1), ("threshold-csv-jobs2", 2)])
def test_untraced_run_scales_by_calibration(bench, name, copies):
    values, detail = bench.untraced(name, 2, seconds=0)
    assert bench.failures == [] and values["ops_ok_ratio"] == 1.0
    assert detail["calibration_copies"] == copies
    measured = detail["measured"]
    assert measured["calibration_s"]["n"] >= 2
    # one pass, so the scaled value is the measured one times the host factor
    factor = run.CAL_REF_S / measured["calibration_s"]["median"]
    assert values["wall_s"] == pytest.approx(measured["wall_s"]["median"] * factor)


def test_cross_check_failure_is_counted(bench):
    tracer = layers.Tracer()
    tracer.kernel_names, tracer.kernel_counts = ["lp1_point"], [7]
    bench.cross_check("lemma-sweep", tracer, run.PassStats(work=8))
    assert bench.attempted == 1 and len(bench.failures) == 1


def _corruptions(argv, stdout: bytes):
    """(label, corrupted stdout) pairs that a content check alone must reject."""
    if b"points_checked" in stdout and b'"rows"' not in stdout:
        report = json.loads(stdout)
        report["points_checked"] += 1
        yield "points_checked", json.dumps(report, indent=2).encode() + b"\n"
    elif b'"rows"' in stdout:
        payload = json.loads(stdout)
        del payload["rows"][-1]
        payload["points_checked"] -= 1
        yield "row dropped", json.dumps(payload, indent=2).encode() + b"\n"
    elif argv[1] == "csv":
        yield "row dropped", stdout[: stdout.rstrip(b"\n").rindex(b"\n") + 1]
    elif argv[0] == "best":
        res = json.loads(stdout)
        res["optimal_tuples"][0][-1] = str(int(res["optimal_tuples"][0][-1]) + 1)
        yield "tuple", json.dumps(res, indent=2).encode() + b"\n"
    elif argv[0] == "upsilon":
        res = json.loads(stdout)
        res["upsilon"] += 1
        yield "upsilon", json.dumps(res, indent=2).encode() + b"\n"


def test_every_check_rejects_corrupted_output(bench):
    argvs = {workloads.SETUP_ARGV}
    for name in workloads.WORKLOADS:
        argvs.update(workloads.make_pass(name, 1, workloads.TINY))
    kinds = set()
    for argv in sorted(argvs):
        cli_run = run.procs.run_cli(ROOT, bench.env, argv, bench.scratch)
        if cli_run.exit_code == 4:
            continue
        ref = _own_reference(argv, cli_run)
        assert outputs.check(argv, cli_run.exit_code, cli_run.stdout, b"", ref).ok
        flipped = bytearray(cli_run.stdout)
        flipped[len(flipped) // 2] ^= 0x01
        assert not outputs.check(argv, 0, bytes(flipped), b"", ref).ok, argv
        assert not outputs.check(argv, 5, cli_run.stdout, b"", ref).ok, argv
        for label, bad in _corruptions(argv, cli_run.stdout):
            kinds.add(label)
            assert not outputs.check(argv, 0, bad, b"", None).ok, (argv, label)
    assert kinds == {"points_checked", "row dropped", "tuple", "upsilon"}


def test_reference_covers_every_seed():
    assert set(" ".join(a) for a in workloads.all_argvs()) == set(REFERENCE)
    for seed in range(20):
        for name in workloads.WORKLOADS:
            argvs = workloads.make_pass(name, seed, reference=REFERENCE)
            assert all(" ".join(a) in REFERENCE for a in argvs)
            assert argvs == workloads.make_pass(name, seed, reference=REFERENCE)
        mterm = workloads.make_pass("mterm-search", seed, reference=REFERENCE)
        hard = [a for a in mterm[:-1] if REFERENCE[" ".join(a)]["exit"] == 4]
        assert len(hard) == workloads.FULL.mterm_hard


def test_lemma_box_matches_program_count():
    from egfrac import lemmas

    for suite in workloads.LEMMA_SUITES:
        report = getattr(lemmas, f"verify_{suite}")(200)
        assert outputs.lemma_box_size(suite, 200) == report.points_checked


def test_missing_entry_point_gives_absent_metric(bench, monkeypatch):
    from egfrac import underapprox

    monkeypatch.delattr(underapprox, "best_m_term")
    tracer = layers.Tracer()
    tracer.install()
    tracer.uninstall()
    tracer.stats["cli.main"] = layers.SpanStat("cli")
    values = run.layer_metrics(tracer, run.PassStats(), bench.scratch)
    assert "underapprox.search_s" not in values and "underapprox.sweep_s" in values


def test_lazy_sweep_is_timed_across_iteration(bench, monkeypatch):
    from egfrac import underapprox

    eager = underapprox.threshold_sweep

    def lazy_sweep(q_max, jobs=1):
        yield from eager(q_max, jobs)  # all work happens at the first next()

    lazy_sweep.__module__ = underapprox.__name__
    monkeypatch.setattr(underapprox, "threshold_sweep", lazy_sweep)
    tracer = layers.Tracer()
    stats = bench.in_process_pass([workloads.threshold_argv("csv", 20, 1)], tracer)
    assert bench.failures == []
    sweep = tracer.stats["underapprox.threshold_sweep"]
    assert sweep.calls == 1 and sweep.items == outputs.totient_sum(20) == stats.work
    # the rows' upsilon calls ran inside the sweep's span, not in cli.main's
    assert tracer.layer_calls["greedy"] == sweep.items and sweep.child_ns > 0


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "lemma-sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == b""
