"""CSV and report I/O.

All tables share one format: optional `# key=value` metadata lines, a
comma-separated header, then numeric rows printed with %.17g so that a
write/read cycle reproduces float64 values exactly. UTF-8, LF line
endings, `.` decimal separator. A byte-order mark at the start of a file
that is read (as a spreadsheet may write it) is skipped; none is written.

Measured decay data uses the fixed schema `delay_s,value,sigma` (sigma
optional) with the series kind declared as `# y_kind=...` metadata.

Field snapshots use the columns `t_s,r_nm,z_nm,s`, r-major, one block of
nr x nz rows per snapshot time; `write_snapshots` writes them in this
format without expanding the coordinate columns, and the +0.0 cells
outside each radial row's run of nonzero bit patterns as joined text,
with no %.17g to fill.

A file that cannot be read or written is a ConfigError that names it.
"""
from __future__ import annotations

import json
import os
from contextlib import contextmanager
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

import numpy as np

from .domain import DecaySeries, YKind
from .errors import ConfigError, InvariantViolation

if TYPE_CHECKING:
    from .kinetics import DiffusionFit

_FMT = "%.17g"
_BLOCK_ROWS = 4096

MEASURED_COLUMNS = ("delay_s", "value", "sigma")


@contextmanager
def _reading(path: str | os.PathLike):
    """``path`` opened for reading as UTF-8, a leading byte-order mark
    skipped; an OSError or a ValueError (a byte that is not UTF-8,
    malformed JSON) while reading it is a ConfigError naming it."""
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            yield fh
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read {os.fspath(path)}: {exc}") from exc


@contextmanager
def _writing(path: str | os.PathLike):
    """``path`` opened for writing (UTF-8, LF line endings); an OSError
    while opening, writing or closing it is a ConfigError naming it."""
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            yield fh
    except OSError as exc:
        raise ConfigError(f"cannot write {os.fspath(path)}: {exc}") from exc


def _write_header(fh, names: Sequence[str],
                  metadata: Mapping[str, object] | None) -> None:
    """The `# key=value` metadata lines and the header of a table."""
    for key, val in (metadata or {}).items():
        fh.write(f"# {key}={val}\n")
    fh.write(",".join(names) + "\n")


def write_table(path: str | os.PathLike, columns: Mapping[str, Sequence[float]],
                metadata: Mapping[str, object] | None = None) -> None:
    """Write named, equal-length numeric columns with metadata comments."""
    names = list(columns)
    if not names:
        raise ValueError("no columns to write")
    arrays = [np.asarray(columns[n], dtype=float) for n in names]
    n_rows = arrays[0].size
    if any(a.ndim != 1 or a.size != n_rows for a in arrays):
        raise ValueError("columns must be equal-length 1-D arrays")
    with _writing(path) as fh:
        _write_header(fh, names, metadata)
        # one % call per block of rows; stacking per block, not the whole
        # table, keeps the extra memory to one block
        row_fmt = ",".join([_FMT] * len(arrays)) + "\n"
        for i in range(0, n_rows, _BLOCK_ROWS):
            block = np.column_stack([a[i:i + _BLOCK_ROWS] for a in arrays])
            fh.write((row_fmt * len(block)) % tuple(block.ravel().tolist()))


def write_snapshots(path: str | os.PathLike, times: Sequence[float],
                    r: Sequence[float], z: Sequence[float],
                    fields: Iterable[np.ndarray],
                    metadata: Mapping[str, object] | None = None) -> None:
    """Write one (len(r), len(z)) field per time as the table
    `t_s,r_nm,z_nm,s`, r-major: the bytes `write_table` writes for the
    expanded columns.

    Each t, r and z is formatted once: a block of whole radial rows is one
    template with the coordinates as literal text, written at once. In a
    radial row, only the run of cells from the first to the last one
    whose bit pattern is not 0 has `s` as a placeholder; the +0.0 cells
    before and after that run, and every cell of a row of +0.0, are
    joined text that prints `0`. A block that holds a run is filled by
    one % call, so a block of zero rows takes none. Raises ValueError
    when a field's shape is not (len(r), len(z)) or the fields do not
    match the times one to one.
    """
    # the leading "" makes prefix.join(z_rows) put the prefix before
    # every z piece: "t,r,z,%.17g\n" per row, with s the only placeholder;
    # z_zero is the same row with s printed as the 0 of +0.0
    z_rows = ["", *(f"{_FMT % zj},{_FMT}\n"
                    for zj in np.asarray(z, float).tolist())]
    z_zero = [row.replace(_FMT, "0") for row in z_rows]
    r_text = [_FMT % ri for ri in np.asarray(r, float).tolist()]
    shape = (len(r_text), len(z_rows) - 1)
    per_block = max(1, _BLOCK_ROWS // max(1, shape[1]))
    with _writing(path) as fh:
        _write_header(fh, ("t_s", "r_nm", "z_nm", "s"), metadata)
        for t, field in zip(np.asarray(times, float).tolist(), fields,
                            strict=True):
            values = np.asarray(field, dtype=float)
            if values.shape != shape:
                raise ValueError(f"field shape {values.shape}, want {shape}")
            if not values.size:
                continue
            t_text = _FMT % t
            # each row's run of cells from its first to its last nonzero
            # bit pattern, [first, stop), empty in a row of +0.0
            nonzero = values.view(np.uint64) != 0
            first = nonzero.argmax(axis=1).tolist()
            stop = np.where(nonzero.any(axis=1),
                            shape[1] - nonzero[:, ::-1].argmax(axis=1),
                            0).tolist()
            del nonzero
            for i in range(0, shape[0], per_block):
                end = min(i + per_block, shape[0])
                template = "".join(
                    f"{t_text},{ri},".join(
                        z_zero[:j + 1] + z_rows[j + 1:k + 1] + z_zero[k + 1:]
                        if k else z_zero)
                    for ri, j, k in zip(r_text[i:end], first[i:end],
                                        stop[i:end]))
                runs = [values[n, first[n]:stop[n]]
                        for n in range(i, end) if stop[n]]
                if runs:
                    template %= tuple(np.concatenate(runs).tolist())
                fh.write(template)


def read_table(path: str | os.PathLike) -> tuple[dict[str, np.ndarray],
                                                 dict[str, str]]:
    """Read a table written by write_table or write_snapshots: (columns,
    metadata). Columns and metadata are keyed by name, so a header that
    repeats a column name, or a second `# key=value` line with the same
    key, is a ConfigError."""
    metadata: dict[str, str] = {}
    names: list[str] | None = None
    rows: list[list[float]] = []
    with _reading(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                if "=" in body:
                    key, _, val = body.partition("=")
                    key = key.strip()
                    if key in metadata:
                        raise ConfigError(f"{path}:{lineno}: metadata "
                                          f"repeats key '{key}'")
                    metadata[key] = val.strip()
                continue
            if names is None:
                names = [c.strip() for c in line.split(",")]
                for j, name in enumerate(names):
                    if name in names[:j]:
                        raise ConfigError(f"{path}:{lineno}: header "
                                          f"repeats column '{name}'")
                continue
            cells = line.split(",")
            if len(cells) != len(names):
                raise ConfigError(
                    f"{path}:{lineno}: expected {len(names)} fields, "
                    f"got {len(cells)}")
            try:
                rows.append([float(c) for c in cells])
            except ValueError as exc:
                raise ConfigError(f"{path}:{lineno}: {exc}") from exc
    if names is None:
        raise ConfigError(f"{path}: missing header line")
    data = np.array(rows, dtype=float).reshape(len(rows), len(names))
    return {n: data[:, j] for j, n in enumerate(names)}, metadata


def write_measured_csv(path: str | os.PathLike, series: DecaySeries) -> None:
    """Write a decay series in the measured-data schema; the sigma column
    is ``series.sigma``, when present."""
    columns = {"delay_s": series.t, "value": series.y}
    if series.sigma is not None:
        columns["sigma"] = series.sigma
    labels = {k: v for k, v in series.metadata.items() if k != "y_kind"}
    write_table(path, columns, {"y_kind": series.y_kind.value, **labels})


def read_measured_csv(path: str | os.PathLike) -> DecaySeries:
    """Strictly parse a measured CSV (`delay_s,value[,sigma]` plus a
    `# y_kind=...` declaration) into a DecaySeries.

    All values must be finite and delays >= 0; the sigma column, when
    present, becomes ``DecaySeries.sigma``. A series that ``DecaySeries``
    rejects (no rows, delays not strictly increasing, a sigma <= 0) is a
    ConfigError naming the file.
    """
    columns, metadata = read_table(path)
    names = tuple(columns)
    if names not in (MEASURED_COLUMNS[:2], MEASURED_COLUMNS):
        raise ConfigError(
            f"{path}: header must be delay_s,value[,sigma], got "
            f"{','.join(names)}")
    if "y_kind" not in metadata:
        raise ConfigError(f"{path}: missing '# y_kind=...' metadata line")
    try:
        y_kind = YKind(metadata["y_kind"])
    except ValueError as exc:
        raise ConfigError(
            f"{path}: unknown y_kind '{metadata['y_kind']}'") from exc
    for name, values in columns.items():
        if not np.all(np.isfinite(values)):
            raise ConfigError(f"{path}: {name} values must be finite")
    if np.any(columns["delay_s"] < 0):
        raise ConfigError(f"{path}: delay_s must be >= 0")
    try:
        return DecaySeries(t=columns["delay_s"], y=columns["value"],
                           y_kind=y_kind, sigma=columns.get("sigma"),
                           metadata={k: v for k, v in metadata.items()
                                     if k != "y_kind"})
    except InvariantViolation as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def write_fit_report(path: str | os.PathLike, fit: DiffusionFit) -> None:
    """Write the structured diffusion-fit report of ``fit`` as JSON:
    ``sse_grid`` holds the SSE of each ``d_grid_cm2s`` candidate,
    ``forward_solves`` the number of forward-model evaluations."""
    report = {
        "d_qd_cm2s": fit.d_qd,
        "scale_uev": fit.scale,
        "offset_uev": fit.offset,
        "sse": fit.sse,
        "warnings": list(fit.warnings),
        "d_grid_cm2s": [float(d) for d in fit.d_grid],
        "sse_grid": [float(s) for s in fit.sse_grid],
        "forward_solves": int(fit.forward_solves),
    }
    with _writing(path) as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")


def read_fit_report(path: str | os.PathLike) -> dict:
    """The report that ``write_fit_report`` wrote, as a dict."""
    with _reading(path) as fh:
        return json.load(fh)
