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
        dims = tuple(int(n) for n in self.dims)
        if len(dims) == 0:
            raise ValueError("grid needs at least one axis")
        if any(n < 2 for n in dims):
            raise ValueError(f"every grid dimension must be >= 2, got {dims}")
        object.__setattr__(self, "dims", dims)

    @property
    def dim(self) -> int:
        return len(self.dims)

    @property
    def size(self) -> int:
        return int(np.prod(self.dims))


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
        centers = np.atleast_2d(np.asarray(self.centers, dtype=float))
        half_widths = np.atleast_2d(np.asarray(self.half_widths, dtype=float))
        if centers.shape != half_widths.shape or centers.ndim != 2:
            raise ValueError(
                f"centers {centers.shape} and half_widths {half_widths.shape} "
                "must be matching (J, d) arrays"
            )
        object.__setattr__(self, "centers", _freeze(centers))
        object.__setattr__(self, "half_widths", _freeze(half_widths))
        bad = cubic_violations(centers, half_widths, analog=self.analog)
        if bad:
            raise BandError(bad)

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
        object.__setattr__(self, "half_widths",
                           (float(self.half_widths[0]), float(self.half_widths[1])))
        object.__setattr__(self, "center",
                           (float(self.center[0]), float(self.center[1])))
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
        w0, w1 = self.half_widths
        inv = np.linalg.inv(np.array([[self.a, self.b], [self.c, self.d]]))
        uv = np.array([[w0, w1], [-w0, w1], [-w0, -w1], [w0, -w1]])
        return uv @ inv.T + np.asarray(self.center)

    def shifted(self, delta: tuple[float, float]) -> "ParallelepipedBand":
        """Same band translated by ``delta`` (re-validated)."""
        return ParallelepipedBand(self.a, self.b, self.c, self.d, self.half_widths,
                                  (self.center[0] + delta[0], self.center[1] + delta[1]))


# ---------------------------------------------------------------------------
# validation


def cubic_violations(centers, half_widths, *, analog: bool = False,
                     tol: float = TOUCH_TOL) -> list[Violation]:
    """All violated invariants of a cubic union given raw arrays.

    Checks that centers and half-widths are finite, positivity of
    half-widths, containment in the Nyquist box (unless ``analog``), and
    pairwise open-interior disjointness (per-axis interval intersection on
    all axes).
    """
    centers = np.atleast_2d(np.asarray(centers, dtype=float))
    half_widths = np.atleast_2d(np.asarray(half_widths, dtype=float))
    out: list[Violation] = []
    J = centers.shape[0]
    for i in range(J):
        if not np.isfinite([*centers[i], *half_widths[i]]).all():
            out.append(Violation("finite", (i,),
                                 f"band {i}: centers and half-widths must be finite"))
            continue
        if np.any(half_widths[i] <= 0):
            out.append(Violation("half_width", (i,),
                                 f"band {i}: half-widths must be strictly positive"))
            continue
        if not analog:
            reach = np.abs(centers[i]) + half_widths[i]
            if np.any(reach > 0.5 + tol):
                axes = np.nonzero(reach > 0.5 + tol)[0].tolist()
                out.append(Violation(
                    "range", (i,),
                    f"band {i}: exceeds [-1/2, 1/2] on axes {axes}"))
    for i in range(J):
        for j in range(i + 1, J):
            gap = np.abs(centers[i] - centers[j]) - (half_widths[i] + half_widths[j])
            if np.all(gap < -tol):
                out.append(Violation("overlap", (i, j),
                                     f"bands {i} and {j} overlap"))
    return out


def _pp_band_violations(idx, a, b, c, d, half_widths, center,
                        tol: float = TOUCH_TOL) -> list[Violation]:
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
    inv = np.linalg.inv(np.array([[a, b], [c, d]], dtype=float))
    uv = np.array([[w0, w1], [-w0, w1], [-w0, -w1], [w0, -w1]])
    corners = uv @ inv.T + np.asarray(center, dtype=float)
    if np.any(np.abs(corners) > 0.5 + tol):
        out.append(Violation("range", (idx,),
                             f"band {idx}: parallelogram exceeds [-1/2, 1/2]^2"))
    return out


def _separating_axis_disjoint(pa: np.ndarray, pb: np.ndarray,
                              tol: float = TOUCH_TOL) -> bool:
    """True iff convex polygons pa, pb have disjoint open interiors.

    Tests every edge normal of both polygons; exact for convex polygons.
    Touching within ``tol`` counts as disjoint.
    """
    for poly in (pa, pb):
        edges = np.roll(poly, -1, axis=0) - poly
        normals = np.column_stack([-edges[:, 1], edges[:, 0]])
        for n in normals:
            a_lo, a_hi = (pa @ n).min(), (pa @ n).max()
            b_lo, b_hi = (pb @ n).min(), (pb @ n).max()
            scale = max(np.abs(n).max(), 1.0)
            if a_hi <= b_lo + tol * scale or b_hi <= a_lo + tol * scale:
                return True
    return False


def parallelepiped_violations(bands: Sequence, *, tol: float = TOUCH_TOL
                              ) -> list[Violation]:
    """All violated invariants of a list of parallelepiped bands.

    ``bands`` may hold :class:`ParallelepipedBand` instances or raw mappings
    with keys a, b, c, d, half_widths, center.  Pairwise overlap uses a
    separating-axis test on the two convex quadrilaterals.
    """
    out: list[Violation] = []
    corners: dict[int, np.ndarray] = {}
    for i, band in enumerate(bands):
        if isinstance(band, ParallelepipedBand):
            corners[i] = band.corners()
            continue
        bad = _pp_band_violations(
            i, float(band["a"]), float(band["b"]), float(band["c"]),
            float(band["d"]), band["half_widths"], band.get("center", (0.0, 0.0)),
            tol=tol)
        if bad:
            out.extend(bad)
        else:
            made = ParallelepipedBand(band["a"], band["b"], band["c"], band["d"],
                                      tuple(band["half_widths"]),
                                      tuple(band.get("center", (0.0, 0.0))))
            corners[i] = made.corners()
    keys = sorted(corners)
    for ii, i in enumerate(keys):
        for j in keys[ii + 1:]:
            if not _separating_axis_disjoint(corners[i], corners[j], tol=tol):
                out.append(Violation("overlap", (i, j),
                                     f"bands {i} and {j} overlap"))
    return out


def validate(obj) -> list[Violation]:
    """Violation report for a band configuration; never raises.

    Accepts a :class:`CubicBandUnion`, a sequence of
    :class:`ParallelepipedBand` (or raw mappings), or a raw cubic mapping
    with keys ``centers``/``half_widths``.
    """
    if isinstance(obj, CubicBandUnion):
        return cubic_violations(obj.centers, obj.half_widths, analog=obj.analog)
    if isinstance(obj, Mapping):
        return cubic_violations(obj["centers"], obj["half_widths"],
                                analog=bool(obj.get("analog", False)))
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


def _reject_unknown(mapping: Mapping, allowed: set[str], where: str) -> None:
    unknown = set(mapping) - allowed
    if unknown:
        raise ConfigError(f"unknown keys {sorted(unknown)} in {where}")


def load_band_config(source) -> BandConfig:
    """Load and validate a band configuration.

    ``source`` may be a path to a JSON document or an already-parsed mapping::

        {"dim": 2,
         "cubic": [{"center": [...], "half_widths": [...]}, ...],
         "parallelepiped": [{"a": .., "b": .., "c": .., "d": ..,
                             "half_widths": [.., ..], "center": [.., ..]}, ...],
         "grid": [M, N]}

    Unknown keys are rejected.  Raises :class:`ConfigError` on structural
    problems and :class:`BandError` on geometric violations.
    """
    if isinstance(source, (str, Path)):
        try:
            doc = json.loads(Path(source).read_text(encoding="utf-8"))
        except FileNotFoundError:
            raise ConfigError(f"band file not found: {source}") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"band file is not valid JSON: {exc}") from None
    else:
        doc = source
    if not isinstance(doc, Mapping):
        raise ConfigError("band configuration must be a JSON object")
    _reject_unknown(doc, _TOP_KEYS, "configuration")
    if "grid" not in doc:
        raise ConfigError("configuration is missing 'grid'")
    try:
        grid = SamplingGrid(tuple(doc["grid"]))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad grid: {exc}") from None
    dim = int(doc.get("dim", grid.dim))
    if dim != grid.dim:
        raise ConfigError(f"dim = {dim} does not match grid of {grid.dim} axes")

    cubic = None
    entries = doc.get("cubic", [])
    if entries:
        centers, half_widths = [], []
        for k, entry in enumerate(entries):
            _reject_unknown(entry, _CUBIC_KEYS, f"cubic band {k}")
            if "center" not in entry or "half_widths" not in entry:
                raise ConfigError(f"cubic band {k} needs 'center' and 'half_widths'")
            centers.append(entry["center"])
            half_widths.append(entry["half_widths"])
        arr_c, arr_w = np.asarray(centers, float), np.asarray(half_widths, float)
        if arr_c.ndim != 2 or arr_c.shape[1] != dim or arr_c.shape != arr_w.shape:
            raise ConfigError("cubic band vectors do not match the declared dim")
        cubic = CubicBandUnion(arr_c, arr_w)

    pp: list[ParallelepipedBand] = []
    entries = doc.get("parallelepiped", [])
    for k, entry in enumerate(entries):
        _reject_unknown(entry, _PP_KEYS, f"parallelepiped band {k}")
        missing = {"a", "b", "c", "d", "half_widths"} - set(entry)
        if missing:
            raise ConfigError(f"parallelepiped band {k} missing {sorted(missing)}")
        pp.append(ParallelepipedBand(entry["a"], entry["b"], entry["c"], entry["d"],
                                     tuple(entry["half_widths"]),
                                     tuple(entry.get("center", (0.0, 0.0)))))
    if pp:
        bad = parallelepiped_violations(pp)
        if bad:
            raise BandError(bad)
    if not entries and cubic is None:
        raise ConfigError("configuration defines no bands")
    return BandConfig(grid=grid, cubic=cubic, parallelepiped=tuple(pp))
