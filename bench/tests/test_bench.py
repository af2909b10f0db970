"""Tests of the benchmark itself, in smoke mode (tiny durations).

    python3 -m pytest bench/tests
"""
import json
import shutil
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_declared_metric_is_printed(workload, trace):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "1",
                  "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 3
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = declared["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in metrics}
    for m in metrics:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_fit_d_forward_solves_repeat_across_runs():
    spec = workloads.make_spec("fit-d", 5, smoke=True)
    counts = []
    for _ in range(2):
        out = run.measure(spec, 0, trace=True)
        counts += [r["layers"]["kinetics.forward_solves"]
                   for r in out["reps"] if r["traced"]]
    assert len(counts) >= 4
    assert counts == [55.0] * len(counts)


def test_planted_wrong_d_true_counts_as_failed_runs():
    spec = workloads.make_spec("fit-d", 5, smoke=True)
    spec["expect"]["d_true"] *= 2.0
    out = run.measure(spec, 0, trace=False)
    assert len(out["reps"]) >= 3
    for rep in out["reps"]:
        assert not rep["ok"]
        assert "D_true" in rep["errors"][0]


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "fit-d", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_self_time_excludes_child_spans():
    tracer = tracing.Tracer()

    def request():
        tracer.call("solver.dark", "cli._iterate_dark", time.sleep, 0.02)
        time.sleep(0.01)

    tracer.call("cli.main", "bench", request)
    root, child = tracer.spans
    assert child.parent == 0
    m = tracing.layer_metrics(tracer.spans, "cli.main")
    child_s = child.end - child.start
    root_s = root.end - root.start
    assert m["solver.dark_s"] == child_s >= 0.02
    assert m["cli.self_s"] == pytest.approx(root_s - child_s)
    assert m["cli.self_s"] >= 0.01
    assert m["trace.coverage_frac"] == pytest.approx(child_s / root_s)


def test_missing_entry_point_is_reported_absent():
    def stub(*args, **kwargs):
        return None

    cli = types.SimpleNamespace(**{a: stub for m, a in tracing.SITES
                                   if m == "cli" and a != "_iterate_dark"})
    kinetics = types.SimpleNamespace(dot_average=stub)
    absent_sites = tracing.install(tracing.Tracer(),
                                   {"cli": cli, "kinetics": kinetics})
    assert "cli._iterate_dark" in absent_sites
    assert "kinetics.evolve" in absent_sites
    gone = tracing.absent_metrics(absent_sites)
    assert "solver.dark_s" in gone
    assert "kinetics.forward_solves" in gone
    assert "solver.pump_s" not in gone  # cli.simulate_pump still exists
