"""spindiff benchmark runner.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
                         [--smoke]

Runs one workload (see bench/README.md) as a closed loop: one request at
a time, each in a fresh ``python3 -I bench/child.py`` process that
imports spindiff from this checkout's ``src/``. Repetitions continue
while the next one is expected to end within ``--seconds`` (at least
three, four when tracing). With ``--trace 0`` every repetition is
untraced and the end-to-end metrics are printed; with ``--trace 1``
untraced and traced repetitions alternate and the per-layer metrics are
printed. Every repetition's outputs are checked.

Standard output ends with a human-readable summary, one ``{"record":
...}`` line (machine, library versions, every sample, failures) and, as
the last line, ``{"correct", "attempted", "failed", "metrics"}``. The
exit code is 0 when every repetition passed, 1 when one failed, and 2
when the benchmark cannot run at all.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import tracing  # noqa: E402
import workloads  # noqa: E402

END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s",
              "peak_rss_mb": "MB"}
PER_LAYER = {**{k: v[0] for k, v in tracing.LAYER_METRICS.items()},
             "solver.step_ms": "ms", "solver.step_clamped_ms": "ms",
             "trace.overhead_frac": "ratio", "trace.coverage_frac": "ratio"}
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# No repetition starts unless it is expected to end before this many
# seconds into the run, so a run always exits within 180 s.
HARD_LIMIT_S = 165.0


class BenchError(Exception):
    """The benchmark itself cannot run (as opposed to a failed request)."""


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict:
    """The caller's environment, with any thread count capped at nproc."""
    env = dict(os.environ)
    for var in THREAD_VARS:
        try:
            if int(env[var]) > nproc():
                env[var] = str(nproc())
        except (KeyError, ValueError):
            pass
    return env


def call_child(args: list[str], timeout: float, env: dict):
    """Run bench/child.py; return (its JSON result or None, error text)."""
    try:
        proc = subprocess.run(
            [sys.executable, "-I", str(BENCH / "child.py"), *args],
            cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        return None, f"timed out after {timeout:.0f} s"
    if proc.returncode != 0:
        return None, f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1]), ""
    except (IndexError, json.JSONDecodeError):
        return None, "no result line"


def measure(spec: dict, seconds: float, trace: bool) -> dict:
    """Prepare inputs, run repetitions for about ``seconds`` and return
    every sample plus the attempted/failed counts."""
    start = time.perf_counter()
    env = child_env()
    out_root = ROOT / ".bench_out"
    out_root.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{spec['workload']}-", dir=out_root)
    try:
        spec = dict(spec, measured_csv=os.path.join(workdir, "measured.csv"))
        spec_path = os.path.join(workdir, "spec.json")
        with open(spec_path, "w", encoding="utf-8") as fh:
            json.dump(spec, fh)
        libs, err = call_child(["prepare", spec_path], HARD_LIMIT_S, env)
        if libs is None:
            raise BenchError(f"preparing inputs failed: {err}")
        steps = {}
        if trace:
            steps, err = call_child(["steps", spec_path], HARD_LIMIT_S, env)
            if steps is None:
                raise BenchError(f"step timing failed: {err}")
        reps = []
        longest = 0.0
        min_reps = 4 if trace else 3
        while True:
            traced = trace and len(reps) % 2 == 1
            rep_dir = os.path.join(workdir, f"rep-{len(reps)}")
            os.mkdir(rep_dir)
            t0 = time.perf_counter()
            res, err = call_child(
                ["run", spec_path, rep_dir, "1" if traced else "0"],
                175.0 - (t0 - start), env)
            now = time.perf_counter()
            longest = max(longest, now - t0)
            shutil.rmtree(rep_dir)
            if res is None:
                res = {"ok": False, "errors": [err]}
            res["traced"] = traced
            reps.append(res)
            if not res["ok"]:
                print(f"repetition {len(reps)} failed: "
                      f"{'; '.join(res['errors'])}", file=sys.stderr)
            if now + longest > start + HARD_LIMIT_S:
                break
            if len(reps) >= min_reps and now + longest > start + seconds:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            out_root.rmdir()
        except OSError:
            pass
    return {"libs": libs, "steps": steps, "reps": reps}


def summarize(run: dict, trace: bool) -> tuple[dict, dict]:
    """(metrics for the result line, samples for the record)."""
    reps = run["reps"]
    timed = [r for r in reps if "wall_s" in r]
    plain = [r for r in timed if not r["traced"]]
    samples = {m: [r[m] for r in plain] for m in END_TO_END}
    if not trace:
        return ({m: _entry(samples[m], unit) for m, unit in END_TO_END.items()},
                samples)
    traced = [r for r in timed if r["traced"]]
    for m in [*tracing.LAYER_METRICS, "trace.coverage_frac"]:
        samples[m] = [r["layers"][m] for r in traced]
    samples["trace.traced_wall_s"] = [r["wall_s"] for r in traced]
    for m in ("step_ms", "step_clamped_ms"):
        samples[f"solver.{m}"] = [run["steps"][m]] if m in run["steps"] else []
    if samples["wall_s"] and traced:
        samples["trace.overhead_frac"] = [
            statistics.median(samples["trace.traced_wall_s"])
            / statistics.median(samples["wall_s"]) - 1.0]
    else:
        samples["trace.overhead_frac"] = []
    return ({m: _entry(samples[m], unit) for m, unit in PER_LAYER.items()},
            samples)


def _entry(values: list[float], unit: str) -> dict:
    return {"value": statistics.median(values) if values else 0.0,
            "unit": unit}


def absent(run: dict) -> list[str]:
    traced = [r for r in run["reps"] if "absent_sites" in r]
    gone = tracing.absent_metrics(traced[0]["absent_sites"]) if traced else []
    if run["steps"].get("absent"):
        gone += ["solver.step_ms", "solver.step_clamped_ms"]
    return gone


def machine(seed: int) -> dict:
    """Where and on what the run happened."""
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh
                          if ln.startswith("model name")), model)
    except OSError:
        pass
    caches = {}
    for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (idx / "level").read_text().strip()
            kind = (idx / "type").read_text().strip()
            size = (idx / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            caches[f"L{level}"] = size
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return {"nproc": nproc(), "cpu_model": model, "caches": caches,
            "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
            "git_commit": _git_commit(), "src_sha256": digest.hexdigest(),
            "seed": seed}


def _git_commit() -> str | None:
    """HEAD's commit when the checkout has a .git directory."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny model durations and grids, for tests")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "spindiff" / "__init__.py").is_file():
        print(f"error: no spindiff package under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    spec = workloads.make_spec(args.workload, args.seed, args.smoke)
    try:
        run = measure(spec, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    metrics, samples = summarize(run, bool(args.trace))
    attempted = len(run["reps"])
    failed = sum(not r["ok"] for r in run["reps"])
    gone = absent(run)

    print(f"workload {args.workload} ({spec['mode']}), seed {args.seed}: "
          f"{attempted} repetitions, {failed} failed")
    for name, entry in metrics.items():
        n = len(samples.get(name, []))
        note = "  (absent)" if name in gone else ""
        print(f"  {name:26s} {entry['value']:14.6g} {entry['unit']:6s}"
              f" median of {n}{note}")
    record = {"workload": args.workload, "mode": spec["mode"],
              "trace": args.trace, "seconds": args.seconds,
              "machine": machine(args.seed), "libraries": run["libs"],
              "samples": samples, "absent_metrics": gone,
              "errors": [e for r in run["reps"] for e in r["errors"]]}
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
