"""Deterministic, finite-guarded CSV/JSON emission.

All writers share three rules so that identical inputs produce
byte-identical files on any platform: floats are rendered exactly as
``%.17g`` (17 significant digits, round-trip exact for doubles, '.'
decimal separator), line endings are '\\n', and files are written
atomically (temp file in the target directory, then rename).  Non-finite
values never reach an output file; they raise instead.

Numeric CSV bodies (spectra, eigenvector matrices, dictionary atoms) go
through one vectorized renderer, :func:`_render_rows`, at most
``_CHUNK_CELLS`` cells at a time, straight into the temp file as ASCII
bytes, so a writer's scratch does not grow with the file.  It cuts each
double into its 17 digits with float64 double-double arithmetic, the same
on every IEEE-754 machine, and assembles the text from lookup tables; a
cell whose digits it cannot prove exact (a near tie or a magnitude outside
``[1e-20, 10)``) is formatted by ``%.17g`` itself, so the bytes are always
those of the per-cell writer.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import os
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Iterator, Sequence

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


def write_text_atomic(path, text: str | Iterable[bytes]) -> None:
    """Write a str, or byte chunks in turn, to a temp file renamed to ``path``."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    while True:
        # Mode "x" is O_CREAT | O_EXCL with mode 0o666, so the umask applies.
        tmp = path.with_name(f"{path.name}.{os.urandom(6).hex()}.tmp")
        try:
            fh = open(tmp, "xb")
            break
        except FileExistsError:
            pass
    try:
        with fh:
            fh.writelines([text.encode()] if isinstance(text, str) else text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _cell(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format_float(value)


def _field(text: str) -> str:
    """One CSV field: quoted, with '"' doubled, when it holds ',', '"',
    '\\r' or '\\n'."""
    if any(ch in text for ch in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _line(cells) -> str:
    fields = [_field(_cell(v)) for v in cells]
    # A lone empty field is quoted, or the line would read as a row of none.
    return (",".join(fields) if fields != [""] else '""') + "\n"


def write_csv(path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """A CSV file as the ``csv`` module reads it, with '\\n' line endings:
    only a cell holding ',', '"', '\\r' or '\\n' is quoted (``csv.writer``
    leaves a bare '\\r' unquoted, which its reader then takes for a line
    break), and a row of one empty cell is written as '""'."""
    write_text_atomic(path, "".join(map(_line, itertools.chain([header], rows))))


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
        return float(format_float(obj))  # %.17g round-trips every double
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
    """Raise as :func:`format_float` does on the first non-finite value, the
    real part of a complex one first, without copying ``values``."""
    finite = np.isfinite(values)
    if not finite.all():
        bad = values[~finite][0]
        format_float(bad.real if not np.isfinite(bad.real) else bad.imag)  # raises


def _halves(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dekker's split of doubles into 26-bit halves, whose products are exact."""
    split = a * 134217729.0
    high = split - (split - a)
    return high, a - high


@functools.cache
def _tables():
    """Lookup tables of :func:`_render_rows`; byte strings are NUL-padded words.

    ``floors[j]`` is the least double at or above 10^(j - 21), and
    ``powers[:, j]`` is 10^j as the sum of its nearest double and a rest,
    then that double's halves (:func:`_halves`).  ``quads[g]`` is the four
    ASCII digits of ``g < 10^4`` and ``quads[10^4 + g]`` the same with its
    trailing zeros turned to NUL.  With ``neg`` the negated decimal exponent
    (0 to 20), ``prefix[((sign * 21 + neg) * 10 + d) * 2 + dot]`` is the
    sign, then ``0.`` and ``neg - 1`` zeros for ``%f`` layouts (``neg`` 1 to
    4), then the leading digit ``d``, then a point for the other layouts
    when ``dot`` is set; ``suffix[neg * 2 + last]`` is ``e-<neg>`` for
    ``%e`` layouts (``neg`` > 4), then ',' or, for the last cell of a row,
    '\\n'.
    """
    lead = np.array([float(10 ** j) for j in range(38)])
    rest = np.array([10 ** j - int(p) for j, p in enumerate(lead.tolist())], float)
    powers = np.stack([lead, rest, *_halves(lead)])
    floors = np.array([math.nextafter(float(t), 10) if float(t) < t else float(t)
                       for t in (Fraction(10) ** j for j in range(-21, 3))])
    one = np.arange(10, dtype=np.uint8)
    digits = np.stack(np.meshgrid(one, one, one, one, indexing="ij"), -1)
    digits = digits.reshape(-1, 4)
    kept = np.maximum.accumulate(digits[:, ::-1], axis=1)[:, ::-1] > 0
    text = digits + ord("0")
    quads = np.concatenate([text, np.where(kept, text, 0)]).view(np.uint32).ravel()
    prefix = np.array(
        [sign + ("0." + "0" * (neg - 1) if 0 < neg < 5 else "") + str(d)
         + ("." if dot and not 0 < neg < 5 else "")
         for sign, neg, d, dot in itertools.product(
             ("", "-"), range(21), range(10), (0, 1))], "S8").view(np.uint64)
    suffix = np.array([(f"e-{neg:02d}" if neg > 4 else "") + end
                       for neg in range(21) for end in ",\n"], "S8").view(np.uint64)
    return floors, powers, quads, prefix, suffix


def _percent(values: np.ndarray) -> np.ndarray:
    """``%.17g`` of each value, NUL-padded to 24 bytes (the longest, as in
    ``-2.2250738585072014e-308``)."""
    return np.array([b"%.17g" % v for v in values.tolist()], "S24")


def _render_rows(values: np.ndarray, numbers: range | None = None) -> bytes:
    """CSV body of a finite 2-D float array as ASCII: each cell as
    ``%.17g``, cells joined by ',', every row ended by '\\n'; with
    ``numbers``, each row starts with its number from there, as ``%d``.

    A cell with ``1e-20 <= |x| < 10`` takes its 17 digits from
    ``D = rint(|x| 10^k)``, ``1e16 <= |x| 10^k < 1e17``.  Dekker's product
    (1971) gives ``|x| 10^k`` as a float64 sum ``head + tail``, ``head`` an
    integer and ``tail`` off by under 1e-14, so ``D = head + rint(tail)``
    unless ``tail`` is within 2^-20 of a half-integer.  Such a near tie, or
    ``D = 1e17``, is formatted by ``%.17g`` instead, as is every other
    nonzero cell.  Each cell fills a 32-byte slot (prefix word, 16 fraction
    digits, suffix word); NUL bytes, which no cell contains, are deleted.
    """
    n, cols = values.shape
    if cols == 0:
        return b"".join(b"%d\n" % i for i in numbers) if numbers else b"\n" * n
    floors, powers, quads, prefix, suffix = _tables()
    x = values.ravel()
    mag = np.abs(x)
    nonzero = (mag > 1e-20) & (mag < 10)  # the double 1e-20 is below 10^-20
    mag = np.where(nonzero, mag, 1.0)
    # log10 can be one off next to a power of ten; the floors make k exact.
    j = np.floor(np.log10(mag)).astype(np.int64)
    k = 16 - j + (mag < floors[j + 21]) - (mag >= floors[j + 22])
    # Scratch is released as soon as it is spent, to keep a chunk's peak low.
    del j
    # 10^k is p + rest; p and |x| are split in halves for Dekker's product.
    p, rest, p_hi, p_lo = powers.take(k, axis=1)
    m_hi, m_lo = _halves(mag)
    head = mag * p
    tail = ((m_hi * p_hi - head) + m_hi * p_lo + m_lo * p_hi) + m_lo * p_lo + mag * rest
    del mag, p, rest, p_hi, p_lo, m_hi, m_lo
    rounded = np.rint(tail)
    digits = head.astype(np.int64) + rounded.astype(np.int64)
    # D = 1e17 (from a double just below a power of ten) is left to %.17g.
    fast = nonzero & (np.abs(tail - rounded) < 0.5 - 2.0 ** -20) & (digits < 10 ** 17)
    digits = np.where(fast, digits, 0)
    neg = np.where(fast, k - 16, 0)
    del k, head, tail, rounded, nonzero

    first, frac = np.divmod(digits, 10 ** 16)
    del digits
    slots = np.empty((x.size, 4), np.uint64)
    slots[:, 0] = prefix[((np.signbit(x) * 21 + neg) * 10 + first) * 2 + (frac > 0)]
    # The 16 fraction digits as four groups of four, two per uint32 half.
    high, low = (half.astype(np.uint32) for half in np.divmod(frac, 10 ** 8))
    del first, frac
    high_top, low_top = high // 10 ** 4, low // 10 ** 4
    high_end, low_end = high - high_top * 10 ** 4, low - low_top * 10 ** 4
    # Each group of four digits is stripped when every later digit is zero.
    words = slots.view(np.uint32)
    words[:, 2] = quads[high_top + 10 ** 4 * ((high_end | low) == 0)]
    words[:, 3] = quads[high_end + 10 ** 4 * (low == 0)]
    words[:, 4] = quads[low_top + 10 ** 4 * (low_end == 0)]
    words[:, 5] = quads[low_end + 10 ** 4]
    del words, high, low, high_top, low_top, high_end, low_end
    ends = 2 * neg.reshape(n, cols)
    ends[:, -1] += 1
    slots[:, 3] = suffix[ends.ravel()]
    del neg, ends
    slow = np.flatnonzero(~fast & (x != 0))
    if slow.size:
        slots[slow, :3] = _percent(x[slow]).view(np.uint64).reshape(-1, 3)
    if numbers is not None:
        # The row number fills two words of its own, ended like a cell.
        head = np.array([b"%d," % i for i in numbers], "S16").view(np.uint64)
        slots = np.concatenate([head.reshape(n, 2), slots.reshape(n, 4 * cols)],
                               axis=1)
    return slots.tobytes().translate(None, b"\0")


# Rendering takes 115 to 210 bytes of scratch a cell: under 2 MB a chunk.
_CHUNK_CELLS = 1 << 13


def _chunks(values: np.ndarray, index: bool = False,
            pairs: bool = False) -> Iterator[bytes]:
    """``values`` rendered (rows numbered when ``index``) a chunk at a time;
    with ``pairs``, each entry as two cells, its real and imaginary parts,
    interleaved a chunk at a time, so a strided ``values`` (a transposed
    matrix) is never copied whole."""
    n, cols = values.shape
    step = max(1, _CHUNK_CELLS // max(cols * (1 + pairs), 1))
    for lo in range(0, n, step):
        rows = _interleaved(values[lo:lo + step]) if pairs else values[lo:lo + step]
        yield _render_rows(rows, range(lo, lo + len(rows)) if index else None)


def write_spectrum_csv(path, eigenvalues: np.ndarray) -> None:
    """Two columns: index, eigenvalue (descending order as given), every
    cell rendered as :func:`write_csv` would."""
    values = np.asarray(eigenvalues, float)
    _check_finite(values)
    write_text_atomic(path, itertools.chain([b"index,eigenvalue\n"],
                                            _chunks(values[:, None], index=True)))


def _interleaved(a: np.ndarray) -> np.ndarray:
    """A complex matrix as floats, real and imaginary parts side by side."""
    return np.ascontiguousarray(a, dtype=complex).view(float)


def _matrix_header(k: int, prefix: str, index: bool) -> bytes:
    names = [f"{prefix}{j:03d}_{part}" for j in range(k) for part in ("re", "im")]
    return (",".join(["index"] * index + names) + "\n").encode()


def write_eigenvectors_csv(path, vectors: np.ndarray) -> None:
    """Eigenvector matrix (columns are vectors), one CSV row per matrix row:
    an index column, then a ``v<j>_re, v<j>_im`` column pair per vector.

    Every cell renders exactly as :func:`format_float` (the index as
    ``str``).
    """
    vectors = np.asarray(vectors)
    _check_finite(vectors)
    header = _matrix_header(vectors.shape[1], "v", True)
    write_text_atomic(path, itertools.chain([header],
                                            _chunks(vectors, True, pairs=True)))


def export_dictionary(d, directory) -> Path:
    """Write a dictionary as one CSV per atom plus a JSON manifest.

    The manifest records ordering, provenance and eigenvalues; atom files
    are named ``atom_<k>.csv`` in dictionary order.  Every atom is checked
    finite before the first file is written.  Atoms are rendered in groups
    that fill a chunk, each group's body cut after every M-th row (M rows per
    atom); an atom larger than a chunk is streamed on its own.
    """
    directory = Path(directory)
    if len(d.grid.dims) != 2:
        raise ValueError(f"atoms of shape {d.grid.dims}: the atom CSV layout is 2-D")
    rows, cols = d.grid.dims
    atoms = [_interleaved(atom.tensor) for atom in d.atoms]
    for values in atoms:
        _check_finite(values)
    directory.mkdir(parents=True, exist_ok=True)
    header = _matrix_header(cols, "c", False)
    group = max(1, _CHUNK_CELLS // (2 * rows * cols))
    for lo in range(0, len(atoms), group):
        bodies = [_chunks(np.concatenate(atoms[lo:lo + group]))]
        if group > 1:
            body = next(bodies[0])
            ends = np.flatnonzero(np.frombuffer(body, np.uint8) == ord("\n"))
            cuts = [0, *(ends[rows - 1::rows] + 1).tolist()]
            bodies = [[body[a:b]] for a, b in zip(cuts, cuts[1:])]
        for k, part in enumerate(bodies, lo):
            write_text_atomic(directory / f"atom_{k:04d}.csv",
                              itertools.chain([header], part))
    manifest = {"source": d.source, "grid": list(d.grid.dims),
                "atom_count": len(d.atoms), "atoms": []}
    for k, atom in enumerate(d.atoms):
        manifest["atoms"].append({
            "file": f"atom_{k:04d}.csv",
            "position": k,
            "source": atom.source,
            "eigenvalue": atom.eigenvalue,
            "rank": atom.rank,
            "band": atom.band,
            "dpss_indices": list(atom.indices) if atom.indices else None,
        })
    write_json(directory / "manifest.json", manifest)
    return directory
