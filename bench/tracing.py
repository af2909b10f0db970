"""In-memory spans around the calls between spindiff modules.

``install`` replaces each name in ``SITES`` inside the calling module's
namespace with a wrapper that records a span; the program's own code is
not edited. A site whose name no longer exists is listed as absent, and
a metric whose sites are all absent is reported as absent.

Each span has a name, a layer, start and end times and the index of the
span that was open when it started. A span's self time is its duration
minus the time its child spans cover.
"""
from __future__ import annotations

import functools
import os
import time
from dataclasses import dataclass

# (calling module, attribute) -> span name; the layer is the prefix.
# ``evolve`` spans are named at call time: solver.pump when clamped,
# solver.dark otherwise.
SITES = {
    ("cli", "load_config"): "config.load",
    ("cli", "simulate_pump"): "solver.pump",
    ("cli", "_iterate_dark"): "solver.dark",
    ("cli", "dot_average"): "solver.readout",
    ("cli", "write_table"): "dataio.write",
    ("cli", "write_fit_report"): "dataio.write",
    ("cli", "read_measured_csv"): "dataio.read",
    ("cli", "fit_diffusion_coefficient"): "kinetics.fit",
    ("cli", "overhauser_field"): "observables.convert",
    ("cli", "exciton_zeeman_splitting"): "observables.convert",
    ("kinetics", "simulate_pump"): "solver.pump",
    ("kinetics", "evolve"): None,
    ("kinetics", "_iterate_dark"): "solver.dark",
    ("kinetics", "simulate_dark"): "solver.dark",
    ("kinetics", "dot_average"): "solver.readout",
}
# outermost spans, opened by the benchmark around the request itself
ROOTS = ("cli.main", "kinetics.sequence")


@dataclass
class Span:
    name: str
    site: str
    start: float
    end: float = 0.0
    parent: int = -1
    nbytes: int = 0

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Tracer:
    """Collects spans of one request; single-threaded."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []

    def begin(self, name: str, site: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append(Span(name, site, time.perf_counter(), parent=parent))
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def end(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self._open.pop()

    def call(self, name: str, site: str, fn, *args, **kwargs):
        idx = self.begin(name, site)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end(idx)


def _wrap(tracer: Tracer, site: str, name: str | None, fn, generator: bool):
    # a generator gets one span per next(), so that the caller's own work
    # between items stays outside the span
    if generator:
        @functools.wraps(fn)
        def traced_gen(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                idx = tracer.begin(name, site)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    tracer.end(idx)
                yield item
        return traced_gen

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        span_name = name
        if span_name is None:  # evolve(field, cfg, duration, clamp=None)
            clamp = kwargs.get("clamp", args[3] if len(args) > 3 else None)
            span_name = "solver.pump" if clamp is not None else "solver.dark"
        idx = tracer.begin(span_name, site)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.end(idx)
            if span_name == "dataio.write" and args:
                tracer.spans[idx].nbytes = _size(args[0])
    return traced


def _size(path) -> int:
    try:
        return os.stat(path).st_size
    except (OSError, TypeError):
        return 0


def install(tracer: Tracer, modules: dict) -> list[str]:
    """Wrap every site found in ``modules`` (short name -> module) and
    return the sites that do not exist."""
    import inspect

    absent = []
    for (mod_name, attr), name in SITES.items():
        mod = modules.get(mod_name)
        fn = getattr(mod, attr, None) if mod is not None else None
        site = f"{mod_name}.{attr}"
        if not callable(fn):
            absent.append(site)
            continue
        setattr(mod, attr, _wrap(tracer, site, name, fn,
                                 inspect.isgeneratorfunction(fn)))
    return absent


def self_times(spans: list[Span]) -> list[float]:
    """Duration minus child coverage, per span (children never overlap
    because the request runs on one thread)."""
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.end - s.start
    return own


# per-layer metric -> (unit, span names it sums over, how)
LAYER_METRICS = {
    "solver.dark_s": ("s", ("solver.dark",), "time"),
    "solver.pump_s": ("s", ("solver.pump",), "time"),
    "solver.pump_calls": ("count", ("solver.pump",), "count"),
    "solver.readout_s": ("s", ("solver.readout",), "time"),
    "solver.readout_calls": ("count", ("solver.readout",), "count"),
    "kinetics.forward_solves": ("count", ("kinetics.simulate_pump",), "site"),
    "kinetics.fit_s": ("s", ("kinetics.fit",), "self"),
    "kinetics.sequence_s": ("s", ("kinetics.sequence",), "self"),
    "kinetics.self_s": ("s", ("kinetics",), "layer"),
    "dataio.write_s": ("s", ("dataio.write",), "time"),
    "dataio.bytes_written": ("B", ("dataio.write",), "bytes"),
    "dataio.read_s": ("s", ("dataio.read",), "time"),
    "config.load_s": ("s", ("config.load",), "time"),
    "cli.self_s": ("s", ("cli",), "layer"),
    "observables.calls": ("count", ("observables.convert",), "count"),
    "observables.convert_s": ("s", ("observables.convert",), "time"),
}


def _live_names(absent_sites: list[str]) -> set[str]:
    names = set(ROOTS)
    for (mod_name, attr), name in SITES.items():
        if f"{mod_name}.{attr}" not in absent_sites:
            names |= {name} if name else {"solver.pump", "solver.dark"}
    return names


def absent_metrics(absent_sites: list[str]) -> list[str]:
    """Metrics none of whose call sites exist any more."""
    live = _live_names(absent_sites)
    gone = []
    for metric, (_unit, keys, how) in LAYER_METRICS.items():
        if how == "site":
            dead = all(k in absent_sites for k in keys)
        elif how == "layer":
            dead = False  # the benchmark's own root spans always exist
        else:
            dead = not live & set(keys)
        if dead:
            gone.append(metric)
    return gone


def layer_metrics(spans: list[Span], root: str) -> dict:
    """Per-layer metrics of one traced request whose outermost span is
    named ``root``. ``trace.coverage_frac`` is the share of the root's
    duration covered by spans below it."""
    own = self_times(spans)
    out = {}
    for metric, (_unit, keys, how) in LAYER_METRICS.items():
        if how == "site":
            out[metric] = float(sum(s.site in keys for s in spans))
        elif how == "layer":
            out[metric] = sum(t for s, t in zip(spans, own) if s.layer in keys)
        else:
            sel = [(s, t) for s, t in zip(spans, own) if s.name in keys]
            if how == "count":
                out[metric] = float(len(sel))
            elif how == "bytes":
                out[metric] = float(sum(s.nbytes for s, _ in sel))
            elif how == "self":
                out[metric] = sum(t for _, t in sel)
            else:
                out[metric] = sum(s.end - s.start for s, _ in sel)
    roots = [(s, t) for s, t in zip(spans, own) if s.name == root]
    wall = sum(s.end - s.start for s, _ in roots)
    out["trace.coverage_frac"] = (1.0 - sum(t for _, t in roots) / wall
                                  if wall > 0 else 0.0)
    return out
