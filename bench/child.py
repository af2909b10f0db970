"""One benchmark process: prepare inputs, run one request, or time steps.

    python3 -I bench/child.py prepare SPEC_JSON
    python3 -I bench/child.py run     SPEC_JSON OUT_DIR TRACE(0|1)
    python3 -I bench/child.py steps   SPEC_JSON

Each mode prints one JSON object as its last line of standard output.
spindiff is imported from this checkout's ``src/`` and nowhere else.
"""
import time

T_START = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
sys.path[:0] = [str(SRC), str(BENCH)]

import tracing  # noqa: E402
import workloads  # noqa: E402


def import_spindiff():
    """Import spindiff, failing loudly unless it comes from SRC."""
    import spindiff
    got = Path(spindiff.__file__).resolve().parent
    if got != SRC / "spindiff":
        raise SystemExit(f"spindiff resolved to {got}, not {SRC / 'spindiff'}")
    return spindiff


def prepare(spec: dict) -> dict:
    """Warm the import and, for fit-d, write the synthetic measured CSV
    from the package's own forward model."""
    spindiff = import_spindiff()
    import numpy as np
    import scipy

    if spec["workload"] == "fit-d":
        p = spec["params"]
        geo = spindiff.DotGeometry()
        grid = spindiff.build_grid(geo, p["dr"], p["dz"], p["extent"])
        curve = spindiff.simulate_decay_curve(
            spec["d_true"], p["t_pump"], float(p["t_max"]), 1.0, geo, grid,
            dt=p["dt"])
        delays = np.asarray(spec["delays"])
        rng = np.random.default_rng(spec["seed"])
        y = (60.0 + 38.0 * curve.y[delays]
             + rng.normal(0.0, p["noise_uev"], delays.size))
        with open(spec["measured_csv"], "w",
                  encoding="utf-8", newline="\n") as fh:
            fh.write("# y_kind=zeeman_splitting_uev\ndelay_s,value\n")
            fh.writelines(f"{t:.17g},{v:.17g}\n" for t, v in zip(delays, y))

    def blas(cfg):
        dep = cfg.get("Build Dependencies", {}).get("blas", {})
        return f"{dep.get('name')} {dep.get('version')}"

    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "scipy": scipy.__version__,
            "numpy_blas": blas(np.show_config(mode="dicts")),
            "scipy_blas": blas(scipy.show_config(mode="dicts"))}


def run(spec: dict, out_dir: str, trace: bool) -> dict:
    """Set up and time one request; check its outputs afterwards."""
    spindiff = import_spindiff()
    from spindiff import cli, kinetics

    p = spec["params"]
    tracer = tracing.Tracer() if trace else None
    absent = (tracing.install(tracer, {"cli": cli, "kinetics": kinetics})
              if trace else [])
    if spec["workload"] == "sequence-fast":
        root = "kinetics.sequence"
        geo = spindiff.DotGeometry()
        grid = spindiff.build_grid(geo, p["dr"], p["dz"], p["extent"])
        cfg = spindiff.SolverConfig(
            d_qd=spindiff.diffusion_cm2s_to_nm2s(p["d_cm2s"]))
        seq = spindiff.paper_decay_sequence(
            t_dark=p["t_dark"], t_pump=p["t_pump"], t_erase=p["t_erase"],
            t_probe=p["t_probe"])
        request = (kinetics.run_sequence, (seq, cfg, geo, grid),
                   {"dark_sample_every": p["dark_sample_every"]})
    else:
        root = "cli.main"
        config = os.path.join(out_dir, "run.ini")
        with open(config, "w", encoding="utf-8") as fh:
            fh.write(spec["config"])
        command = (["fit-d", spec["measured_csv"]]
                   if spec["workload"] == "fit-d" else ["simulate"])
        argv = command + ["--config", config, "--out", out_dir, "--quiet"]
        request = (cli.main, (argv,), {})
    setup_s = time.perf_counter() - T_START

    fn, args, kwargs = request
    c0, w0 = time.process_time(), time.perf_counter()
    if tracer is not None:
        result = tracer.call(root, "bench", fn, *args, **kwargs)
    else:
        result = fn(*args, **kwargs)
    wall_s = time.perf_counter() - w0
    cpu_s = time.process_time() - c0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    errors = []
    if root == "cli.main" and result != 0:
        errors.append(f"spindiff {argv[0]} exited {result}")
    else:
        try:
            workloads.check(spec, out_dir, result)
        except workloads.CheckFailed as exc:
            errors.append(str(exc))
    out = {"ok": not errors, "errors": errors, "wall_s": wall_s,
           "cpu_s": cpu_s, "setup_s": setup_s, "peak_rss_mb": peak_rss_mb}
    if tracer is not None:
        out["layers"] = tracing.layer_metrics(tracer.spans, root)
        out["absent_sites"] = absent
    return out


def steps(spec: dict) -> dict:
    """Median time of one public step() on the production grid, with the
    dot unclamped and clamped."""
    spindiff = import_spindiff()
    import numpy as np

    step = getattr(spindiff, "step", None)
    if step is None:
        return {"absent": True}
    g = spec["step_grid"]
    geo = spindiff.DotGeometry()
    grid = spindiff.build_grid(geo, g["dr"], g["dz"], g["extent"])
    cfg = spindiff.SolverConfig(d_qd=spindiff.diffusion_cm2s_to_nm2s(1e-12))
    values = np.zeros((grid.nr, grid.nz))
    values[grid.dot_mask(geo)] = 1.0
    out = {}
    for key, clamp in (("step_ms", None), ("step_clamped_ms", geo)):
        field = spindiff.PolarizationField(grid, values)
        times = []
        for i in range(20):
            t0 = time.perf_counter()
            field = step(field, cfg, clamp=clamp)
            if i >= 5:
                times.append((time.perf_counter() - t0) * 1e3)
        out[key] = statistics.median(times)
    return out


def main(argv: list[str]) -> None:
    mode, spec_path = argv[0], argv[1]
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    if mode == "prepare":
        out = prepare(spec)
    elif mode == "run":
        out = run(spec, argv[2], argv[3] == "1")
    elif mode == "steps":
        out = steps(spec)
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    print(json.dumps(out))


if __name__ == "__main__":
    main(sys.argv[1:])
