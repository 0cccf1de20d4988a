"""Band geometry for multiband spectral supports.

A spectral support is either a union of axis-aligned frequency boxes
(:class:`CubicBandUnion`) or a list of affine images of boxes
(:class:`ParallelepipedBand`).  All digital frequencies are in
cycles/sample and must live inside the Nyquist square ``[-1/2, 1/2]^d``.

Validation never mutates: constructors raise :class:`BandError` on an
invalid configuration, while :func:`validate` returns the full list of
violations without raising, so a caller can report every problem at once.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

# Bands that merely touch (share a boundary within this tolerance) count
# as disjoint; only open-interior intersections are violations.
TOUCH_TOL = 1e-12

MIN_DETERMINANT = 1e-12

__all__ = [
    "BandError",
    "NyquistError",
    "ConfigError",
    "Violation",
    "SamplingGrid",
    "CubicBandUnion",
    "ParallelepipedBand",
    "BandConfig",
    "cubic_violations",
    "parallelepiped_violations",
    "validate",
    "scale_analog",
    "load_band_config",
]


class BandError(ValueError):
    """An invalid band configuration.

    Carries the list of :class:`Violation` records that triggered it.
    """

    def __init__(self, violations: Sequence["Violation"]):
        self.violations = list(violations)
        super().__init__("; ".join(v.message for v in self.violations))


class NyquistError(BandError):
    """An analog band that cannot be represented at the given sampling periods."""


class ConfigError(ValueError):
    """A malformed band-configuration document."""


@dataclass(frozen=True)
class Violation:
    """One violated invariant, naming the offending band indices."""

    code: str
    bands: tuple[int, ...]
    message: str


@dataclass(frozen=True)
class SamplingGrid:
    """Uniform sampling grid, one sample count per axis."""

    dims: tuple[int, ...]

    def __post_init__(self):
        if len(self.dims) == 0:
            raise ValueError("grid needs at least one axis")
        try:
            dims = tuple(int(n) for n in self.dims)
        except (OverflowError, ValueError):  # an infinite or NaN size
            dims = None
        if dims != tuple(self.dims) or any(n < 2 for n in dims):
            raise ValueError(f"grid dimensions must be integers >= 2, got {self.dims}")
        object.__setattr__(self, "dims", dims)

    @property
    def dim(self) -> int:
        return len(self.dims)

    @property
    def size(self) -> int:
        return math.prod(self.dims)


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class CubicBandUnion:
    """Union of axis-aligned frequency boxes.

    Parameters
    ----------
    centers : (J, d) array_like
        Box centers, cycles/sample (or Hz when ``analog=True``).
    half_widths : (J, d) array_like
        Strictly positive half-widths per axis.
    analog : bool
        When True the union describes an analog support (arbitrary units);
        the ``[-1/2, 1/2]^d`` containment invariant is not enforced and the
        union must be brought into the digital domain with
        :func:`scale_analog` before use by any operator.
    """

    centers: np.ndarray
    half_widths: np.ndarray
    analog: bool = False

    def __post_init__(self):
        bad = cubic_violations(self.centers, self.half_widths, analog=self.analog)
        if bad:
            raise BandError(bad)
        for name in ("centers", "half_widths"):
            object.__setattr__(self, name, _freeze(np.atleast_2d(getattr(self, name))))

    @property
    def dim(self) -> int:
        return self.centers.shape[1]

    @property
    def num_bands(self) -> int:
        return self.centers.shape[0]

    def __len__(self) -> int:
        return self.num_bands

    def measure(self) -> float:
        """Total Lebesgue measure, sum over bands of prod_j 2*W[j]."""
        return float(np.sum(np.prod(2.0 * self.half_widths, axis=1)))

    def band(self, i: int) -> "CubicBandUnion":
        """The i-th box as a single-band union."""
        return CubicBandUnion(self.centers[i : i + 1], self.half_widths[i : i + 1],
                              analog=self.analog)

    @classmethod
    def from_intervals(cls, intervals: Sequence[tuple[float, float]],
                       analog: bool = False) -> "CubicBandUnion":
        """1-D union from (lo, hi) frequency intervals."""
        iv = np.asarray(intervals, dtype=float)
        if iv.ndim != 2 or iv.shape[1] != 2:
            raise ValueError("expected a sequence of (lo, hi) pairs")
        centers = (iv[:, :1] + iv[:, 1:]) / 2.0
        half_widths = (iv[:, 1:] - iv[:, :1]) / 2.0
        return cls(centers, half_widths, analog=analog)

    def intervals(self) -> np.ndarray:
        """(J, 2) array of (lo, hi) pairs; 1-D unions only."""
        if self.dim != 1:
            raise ValueError("intervals() is only defined for 1-D unions")
        c = self.centers[:, 0]
        w = self.half_widths[:, 0]
        return np.column_stack([c - w, c + w])


@dataclass(frozen=True)
class ParallelepipedBand:
    """2-D affine band: the image of a box under a linear map, plus a shift.

    The support is ``{(f, g) : |a f + b g| <= W0, |c f + d g| <= W1}``
    translated by ``center``.  The transform determinant ``V = a d - b c``
    must be nonzero; the region area is ``4 W0 W1 / |V|``.
    """

    a: float
    b: float
    c: float
    d: float
    half_widths: tuple[float, float]
    center: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self):
        for name in ("half_widths", "center"):
            try:
                x, y = (float(v) for v in getattr(self, name))
            except (TypeError, ValueError) as exc:
                raise BandError([Violation(
                    "malformed", (0,),
                    f"band 0: {name} must hold exactly two numbers ({exc!r})")]) from None
            object.__setattr__(self, name, (x, y))
        for name in ("a", "b", "c", "d"):
            object.__setattr__(self, name, float(getattr(self, name)))
        bad = _pp_band_violations(0, self.a, self.b, self.c, self.d,
                                  self.half_widths, self.center)
        if bad:
            raise BandError(bad)

    @property
    def det(self) -> float:
        return self.a * self.d - self.b * self.c

    def measure(self) -> float:
        w0, w1 = self.half_widths
        return 4.0 * w0 * w1 / abs(self.det)

    def corners(self) -> np.ndarray:
        """(4, 2) vertices of the parallelogram, in cyclic order."""
        return _pp_corners(self.a, self.b, self.c, self.d, self.half_widths,
                           self.center)

    def shifted(self, delta: tuple[float, float]) -> "ParallelepipedBand":
        """Same band translated by ``delta`` (re-validated)."""
        return ParallelepipedBand(self.a, self.b, self.c, self.d, self.half_widths,
                                  (self.center[0] + delta[0], self.center[1] + delta[1]))


# ---------------------------------------------------------------------------
# validation


def cubic_violations(centers, half_widths, *,
                     analog: bool = False) -> list[Violation]:
    """All violated invariants of a cubic union given raw arrays.

    Checks that centers and half-widths are matching numeric (J, d) arrays
    with J, d >= 1 (else one ``malformed`` violation is all it reports),
    that they are finite, positivity of half-widths and of each band's
    measure, containment in the Nyquist box (unless ``analog``), and
    pairwise open-interior disjointness (per-axis interval intersection on
    all axes).
    """
    try:
        centers = np.atleast_2d(np.asarray(centers, dtype=float))
        half_widths = np.atleast_2d(np.asarray(half_widths, dtype=float))
    except (TypeError, ValueError) as exc:
        return [Violation("malformed", (), "centers and half_widths must be "
                                           f"numeric arrays ({exc!r})")]
    if (centers.shape != half_widths.shape or centers.ndim != 2
            or 0 in centers.shape):
        return [Violation("malformed", (),
                          f"centers {centers.shape} and half_widths "
                          f"{half_widths.shape} must be matching (J, d) arrays "
                          "with J, d >= 1")]
    out: list[Violation] = []
    J = centers.shape[0]
    for i in range(J):
        if not np.isfinite([*centers[i], *half_widths[i]]).all():
            out.append(Violation("finite", (i,),
                                 f"band {i}: centers and half-widths must be finite"))
            continue
        # The product is zero when the measure underflows.
        if np.any(half_widths[i] <= 0) or not np.prod(2.0 * half_widths[i]) > 0.0:
            out.append(Violation("half_width", (i,),
                                 f"band {i}: half-widths and their measure "
                                 "prod 2 W must be strictly positive"))
            continue
        if not analog:
            reach = np.abs(centers[i]) + half_widths[i]
            if np.any(reach > 0.5 + TOUCH_TOL):
                axes = np.nonzero(reach > 0.5 + TOUCH_TOL)[0].tolist()
                out.append(Violation(
                    "range", (i,),
                    f"band {i}: exceeds [-1/2, 1/2] on axes {axes}"))
    for i in range(J):
        for j in range(i + 1, J):
            gap = np.abs(centers[i] - centers[j]) - (half_widths[i] + half_widths[j])
            if np.all(gap < -TOUCH_TOL):
                out.append(Violation("overlap", (i, j),
                                     f"bands {i} and {j} overlap"))
    return out


def _pp_corners(a, b, c, d, half_widths, center) -> np.ndarray:
    """(4, 2) vertices, in cyclic order, of ``{|a f + b g| <= W0, |c f + d g|
    <= W1}`` translated by ``center``."""
    w0, w1 = half_widths
    inv = np.linalg.inv(np.array([[a, b], [c, d]], dtype=float))
    uv = np.array([[w0, w1], [-w0, w1], [-w0, -w1], [w0, -w1]])
    return uv @ inv.T + np.asarray(center, dtype=float)


def _pp_band_violations(idx, a, b, c, d, half_widths, center) -> list[Violation]:
    out: list[Violation] = []
    w0, w1 = float(half_widths[0]), float(half_widths[1])
    if not np.isfinite([a, b, c, d, w0, w1, *center]).all():
        return [Violation("finite", (idx,),
                          f"band {idx}: a, b, c, d, half-widths and center "
                          "must be finite")]
    if w0 <= 0 or w1 <= 0:
        out.append(Violation("half_width", (idx,),
                             f"band {idx}: half-widths must be strictly positive"))
    det = a * d - b * c
    if abs(det) < MIN_DETERMINANT:
        out.append(Violation("transform", (idx,),
                             f"band {idx}: |ad - bc| = {abs(det):.3e} below "
                             f"{MIN_DETERMINANT:g}"))
        return out
    if out:
        return out
    # Zero when ad - bc overflows or the area underflows; NaN for inf - inf.
    if not 4.0 * w0 * w1 / abs(det) > 0.0:
        return [Violation("transform", (idx,),
                          f"band {idx}: band area 4 W0 W1 / |ad - bc| is not "
                          f"positive (|ad - bc| = {abs(det):.3e})")]
    if np.any(np.abs(_pp_corners(a, b, c, d, (w0, w1), center)) > 0.5 + TOUCH_TOL):
        out.append(Violation("range", (idx,),
                             f"band {idx}: parallelogram exceeds [-1/2, 1/2]^2"))
    return out


def _separating_axis_disjoint(pa: np.ndarray, pb: np.ndarray) -> bool:
    """True iff convex polygons pa, pb have disjoint open interiors.

    Tests every edge normal of both polygons; exact for convex polygons.
    Touching within ``TOUCH_TOL`` counts as disjoint.
    """
    for poly in (pa, pb):
        edges = np.roll(poly, -1, axis=0) - poly
        normals = np.column_stack([-edges[:, 1], edges[:, 0]])
        for n in normals:
            a_lo, a_hi = (pa @ n).min(), (pa @ n).max()
            b_lo, b_hi = (pb @ n).min(), (pb @ n).max()
            slack = TOUCH_TOL * max(np.abs(n).max(), 1.0)
            if a_hi <= b_lo + slack or b_hi <= a_lo + slack:
                return True
    return False


def parallelepiped_violations(bands: Sequence) -> list[Violation]:
    """All violated invariants of a list of parallelepiped bands.

    ``bands`` may hold :class:`ParallelepipedBand` instances or raw mappings
    with keys a, b, c, d, half_widths, center; a raw entry that cannot be
    read as those numbers is reported as ``malformed``.  Pairwise overlap
    uses a separating-axis test on the two convex quadrilaterals.
    """
    out: list[Violation] = []
    corners: dict[int, np.ndarray] = {}
    for i, band in enumerate(bands):
        if not isinstance(band, ParallelepipedBand):
            try:
                transform = [float(band[key]) for key in "abcd"]
                w0, w1 = (float(w) for w in band["half_widths"])
                c0, c1 = (float(c) for c in band.get("center", (0.0, 0.0)))
            except (KeyError, TypeError, ValueError) as exc:
                out.append(Violation("malformed", (i,),
                                     f"band {i}: malformed entry ({exc!r})"))
                continue
            bad = _pp_band_violations(i, *transform, (w0, w1), (c0, c1))
            if bad:
                out.extend(bad)
                continue
            band = ParallelepipedBand(*transform, (w0, w1), (c0, c1))
        corners[i] = band.corners()
    keys = sorted(corners)
    for ii, i in enumerate(keys):
        for j in keys[ii + 1:]:
            if not _separating_axis_disjoint(corners[i], corners[j]):
                out.append(Violation("overlap", (i, j),
                                     f"bands {i} and {j} overlap"))
    return out


def validate(obj) -> list[Violation]:
    """Violation report for a band configuration; a malformed one is
    reported (code ``malformed``), not raised.

    Accepts a :class:`CubicBandUnion`, a sequence of
    :class:`ParallelepipedBand` (or raw mappings), or a raw cubic mapping
    with keys ``centers``/``half_widths``; other types raise TypeError.
    """
    if isinstance(obj, CubicBandUnion):
        return cubic_violations(obj.centers, obj.half_widths, analog=obj.analog)
    if isinstance(obj, Mapping):
        try:
            CubicBandUnion(obj["centers"], obj["half_widths"],
                           analog=bool(obj.get("analog", False)))
        except BandError as exc:
            return exc.violations
        except (KeyError, TypeError, ValueError) as exc:
            return [Violation("malformed", (), f"cubic union: malformed ({exc!r})")]
        return []
    if isinstance(obj, Sequence):
        return parallelepiped_violations(obj)
    raise TypeError(f"cannot validate {type(obj).__name__}")


# ---------------------------------------------------------------------------
# analog-to-digital scaling


def scale_analog(analog: CubicBandUnion, ts) -> CubicBandUnion:
    """Map an analog band union (Hz) to digital frequencies (cycles/sample).

    ``ts`` is the sampling period per axis, seconds (scalar or length-d).
    Centers and half-widths are scaled componentwise; each axis must respect
    Nyquist: ``ts[j] * (|center[j]| + half_width[j]) <= 1/2``.
    """
    ts = np.broadcast_to(np.asarray(ts, dtype=float), (analog.dim,)).copy()
    if np.any(ts <= 0):
        raise ValueError("sampling periods must be positive")
    reach = ts * (np.abs(analog.centers) + analog.half_widths)
    bad = np.argwhere(reach > 0.5 + TOUCH_TOL)
    if bad.size:
        viol = [Violation("nyquist", (int(i),),
                          f"band {i}: Nyquist violated on axis {j} "
                          f"(ts*(|F|+B) = {reach[i, j]:.6g} > 1/2)")
                for i, j in bad]
        raise NyquistError(viol)
    return CubicBandUnion(analog.centers * ts, analog.half_widths * ts)


# ---------------------------------------------------------------------------
# configuration documents

_TOP_KEYS = {"dim", "cubic", "parallelepiped", "grid"}
_CUBIC_KEYS = {"center", "half_widths"}
_PP_KEYS = {"a", "b", "c", "d", "half_widths", "center"}


@dataclass(frozen=True)
class BandConfig:
    """Parsed band-configuration document."""

    grid: SamplingGrid
    cubic: CubicBandUnion | None = None
    parallelepiped: tuple[ParallelepipedBand, ...] = field(default_factory=tuple)

    def __post_init__(self):
        if self.cubic is None and not self.parallelepiped:
            raise ConfigError("configuration defines no bands")
        if self.cubic is not None and self.cubic.dim != self.grid.dim:
            raise ConfigError(
                f"cubic bands are {self.cubic.dim}-D but grid is {self.grid.dim}-D")
        if self.parallelepiped and self.grid.dim != 2:
            raise ConfigError("parallelepiped bands require a 2-D grid")


def _reject_unknown(mapping, allowed: set[str], where: str) -> None:
    if not isinstance(mapping, Mapping):
        raise ConfigError(f"{where} must be an object, got {mapping!r}")
    unknown = set(mapping) - allowed
    if unknown:
        raise ConfigError(f"unknown keys {sorted(unknown)} in {where}")


def _integer(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _numbers(value, length: int, where: str) -> list[float]:
    """``value``, a list of ``length`` floats or ints (no bools), as floats."""
    if (not isinstance(value, (list, tuple)) or len(value) != length
            or not all(isinstance(v, float) or _integer(v) and abs(v) < 1e308
                       for v in value)):
        raise ConfigError(f"{where} must be a list of {length} numbers, got {value!r}")
    return [float(v) for v in value]


def load_band_config(source) -> BandConfig:
    """Load and validate a band configuration.

    ``source`` may be a path to a JSON document or an already-parsed mapping::

        {"dim": 2,
         "cubic": [{"center": [...], "half_widths": [...]}, ...],
         "parallelepiped": [{"a": .., "b": .., "c": .., "d": ..,
                             "half_widths": [.., ..], "center": [.., ..]}, ...],
         "grid": [M, N]}

    Unknown keys are rejected, grid entries and ``dim`` must be integers and
    band values numbers.  Raises :class:`ConfigError`, naming the entry, on
    structural problems and :class:`BandError` on geometric violations.
    """
    if isinstance(source, (str, Path)):
        try:
            doc = json.loads(Path(source).read_text(encoding="utf-8"))
        except FileNotFoundError:
            raise ConfigError(f"band file not found: {source}") from None
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read band file {source}: {exc}") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"band file is not valid JSON: {exc}") from None
    else:
        doc = source
    _reject_unknown(doc, _TOP_KEYS, "band configuration")
    if "grid" not in doc:
        raise ConfigError("configuration is missing 'grid'")
    dims = doc["grid"]
    if (not isinstance(dims, (list, tuple)) or not dims
            or not all(_integer(n) and n >= 2 for n in dims)):
        raise ConfigError(f"bad grid: expected a list of integers >= 2, got {dims!r}")
    grid = SamplingGrid(tuple(dims))
    dim = doc.get("dim", grid.dim)
    if not _integer(dim) or dim != grid.dim:
        raise ConfigError(f"dim must be the grid's axis count {grid.dim}, got {dim!r}")
    for key in ("cubic", "parallelepiped"):
        if not isinstance(doc.get(key, []), (list, tuple)):
            raise ConfigError(f"'{key}' must be a list of band objects")

    cubic = None
    entries = doc.get("cubic", [])
    if entries:
        centers, half_widths = [], []
        for k, entry in enumerate(entries):
            where = f"cubic band {k}"
            _reject_unknown(entry, _CUBIC_KEYS, where)
            if "center" not in entry or "half_widths" not in entry:
                raise ConfigError(f"{where} needs 'center' and 'half_widths'")
            centers.append(_numbers(entry["center"], dim, f"{where} 'center'"))
            half_widths.append(_numbers(entry["half_widths"], dim,
                                        f"{where} 'half_widths'"))
        cubic = CubicBandUnion(np.array(centers), np.array(half_widths))

    raw = []
    for k, entry in enumerate(doc.get("parallelepiped", [])):
        where = f"parallelepiped band {k}"
        _reject_unknown(entry, _PP_KEYS, where)
        missing = {"a", "b", "c", "d", "half_widths"} - set(entry)
        if missing:
            raise ConfigError(f"{where} missing {sorted(missing)}")
        transform = _numbers([entry[key] for key in "abcd"], 4,
                             f"{where} [a, b, c, d]")
        half_widths = _numbers(entry["half_widths"], 2, f"{where} 'half_widths'")
        center = _numbers(entry.get("center", (0.0, 0.0)), 2, f"{where} 'center'")
        raw.append(dict(zip("abcd", transform), half_widths=half_widths, center=center))
    # Checked before any band is built, so every violation names its entry.
    bad = parallelepiped_violations(raw)
    if bad:
        raise BandError(bad)
    pp = tuple(ParallelepipedBand(**band) for band in raw)
    return BandConfig(grid=grid, cubic=cubic, parallelepiped=pp)
