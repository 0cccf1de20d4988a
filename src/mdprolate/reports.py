"""Deterministic, finite-guarded CSV/JSON emission.

All writers share three rules so that identical inputs produce
byte-identical files on any platform: floats are rendered with 17
significant digits (round-trip exact for doubles, '.' decimal separator),
line endings are '\\n', and files are written atomically (temp file in the
target directory, then rename).  Non-finite values never reach an output
file; they raise instead.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "ReportRow",
    "format_float",
    "write_text_atomic",
    "write_csv",
    "write_json",
    "report_rows_csv",
    "report_rows_json",
    "write_spectrum_csv",
    "write_eigenvectors_csv",
    "export_dictionary",
]


def format_float(x) -> str:
    """17-significant-digit decimal rendering; raises on NaN/Inf."""
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"refusing to serialize non-finite value {x!r}")
    return format(x, ".17g")


def write_text_atomic(path, text: str) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _cell(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format_float(value)


def write_csv(path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(_cell(v) for v in row) for row in rows)
    write_text_atomic(path, "\n".join(lines) + "\n")


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if not math.isfinite(x):
            raise ValueError(f"refusing to serialize non-finite value {x!r}")
        return x
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    return obj


def write_json(path, obj) -> None:
    text = json.dumps(_jsonable(obj), indent=2, sort_keys=True)
    write_text_atomic(path, text + "\n")


@dataclass(frozen=True)
class ReportRow:
    """One verification or experiment result."""

    experiment: str
    params: str
    metric: str
    value: float
    tolerance: float | None
    passed: bool

    def key(self):
        return (self.experiment, self.params, self.metric)


REPORT_HEADER = ("experiment", "params", "metric", "value", "tolerance", "passed")


def _sorted_rows(rows: Sequence[ReportRow]) -> list[ReportRow]:
    return sorted(rows, key=ReportRow.key)


def report_rows_csv(path, rows: Sequence[ReportRow]) -> None:
    write_csv(path, REPORT_HEADER,
              [(r.experiment, r.params, r.metric, r.value,
                "" if r.tolerance is None else format_float(r.tolerance),
                r.passed)
               for r in _sorted_rows(rows)])


def report_rows_json(path, rows: Sequence[ReportRow]) -> None:
    write_json(path, [
        {"experiment": r.experiment, "params": r.params, "metric": r.metric,
         "value": r.value, "tolerance": r.tolerance, "passed": bool(r.passed)}
        for r in _sorted_rows(rows)])


def _check_finite(values: np.ndarray) -> None:
    bad = ~np.isfinite(values)
    if bad.any():
        x = float(values.flat[np.argmax(bad)])
        raise ValueError(f"refusing to serialize non-finite value {x!r}")


def write_spectrum_csv(path, eigenvalues: np.ndarray) -> None:
    """Two columns: index, eigenvalue (descending order as given).

    Rendered with one ``%d,%.17g`` row format per file, which matches
    :func:`write_csv` cell for cell.
    """
    values = np.asarray(eigenvalues, float)
    _check_finite(values)
    rows = [x for pair in enumerate(values.tolist()) for x in pair]
    write_text_atomic(path, "index,eigenvalue\n"
                      + ("%d,%.17g\n" * values.size) % tuple(rows))


def _matrix_csv(path, a: np.ndarray, *, prefix: str = "c",
                index: bool = False) -> None:
    """One CSV row per matrix row: an optional index column, then a
    ``<prefix><j>_re, <prefix><j>_im`` column pair per matrix column.

    Every cell goes through one ``%.17g`` format per file, which renders
    exactly as :func:`format_float` (and an integral index as ``str``).
    """
    a = np.asarray(a)
    n, k = a.shape
    header = ["index"] if index else []
    for j in range(k):
        header += [f"{prefix}{j:03d}_re", f"{prefix}{j:03d}_im"]
    values = np.empty((n, index + 2 * k))
    if index:
        values[:, 0] = np.arange(n)
    values[:, index::2] = a.real
    values[:, index + 1::2] = a.imag
    _check_finite(values)
    row = ",".join(["%.17g"] * len(header)) + "\n"
    write_text_atomic(path, ",".join(header) + "\n"
                      + (row * n) % tuple(values.ravel().tolist()))


def write_eigenvectors_csv(path, vectors: np.ndarray) -> None:
    """Eigenvector matrix (columns are vectors) with re/im column pairs."""
    _matrix_csv(path, vectors, prefix="v", index=True)


def export_dictionary(d, directory) -> Path:
    """Write a dictionary as one CSV per atom plus a JSON manifest.

    The manifest records ordering, provenance and eigenvalues; atom files
    are named ``atom_<k>.csv`` in dictionary order.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    manifest = {"source": d.source, "grid": list(d.grid.dims),
                "atom_count": len(d.atoms), "atoms": []}
    for k, atom in enumerate(d.atoms):
        name = f"atom_{k:04d}.csv"
        _matrix_csv(directory / name, atom.tensor)
        manifest["atoms"].append({
            "file": name,
            "position": k,
            "source": atom.source,
            "eigenvalue": atom.eigenvalue,
            "rank": atom.rank,
            "band": atom.band,
            "dpss_indices": list(atom.indices) if atom.indices else None,
        })
    write_json(directory / "manifest.json", manifest)
    return directory
