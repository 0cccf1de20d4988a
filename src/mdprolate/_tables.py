"""The difference-table core every operator in the package is built from.

Every operator here is Hermitian and multilevel Toeplitz: entry (i, j) of
its matrix depends only on the index difference i - j, so one difference
table is all any layer needs.  A band set (:class:`_BandSet`: grid, band
centres, band shapes and a per-band kernel) sums to its table
(:func:`_table`), and each spec holds one :class:`_Tables` over its band
set, which builds the table, its FFT circulant transfer and its
demodulated table each once, when first read.  Every band term is checked
finite as it is built, so a band whose kernel overflows on the grid is a
:class:`~mdprolate.bands.BandError`, not a NaN table.

Modulating every band by a common ``exp(2 pi i c . x)`` moves no
eigenvalue.  So when the bands pair up as mirrors about some centre c (a
band at c pairs with itself), :func:`_demodulate` builds the table of the
operator shifted to c as an exactly real array.  The table may have more
symmetries than the index reversal J: reversing one axis, as every single
box and the four-box union ``(+-f1, +-f2)`` do, or swapping two axes of
equal length, as the 3-D two-box union with offsets ``+-(a, b, b)`` does.
:func:`_axis_symmetries` accepts those that commute, to a few ulp of
``T(0)``, and averages the table over them so it is exactly invariant;
:func:`_orbits` lists the orbits of the samples under the group they
generate with J, over which the solver (:mod:`mdprolate._solver`) writes
one real block per character.  The translation cross-check solves
nothing: it recentres a complex table by a centre phase, difference by
difference (:func:`_recentred`), and compares it with the table that was
solved (:meth:`_Tables.shift_deviation`).

A table is read as a matrix without copying (:func:`_strided`), gathered
to a dense read-only matrix only on request (:func:`_gather`), multiplied
a band of rows at a time (:func:`_dense_product`) or applied by FFT
circulant embedding in any dimension (:func:`_apply`); a matrix is read
back as its own table over the grid its rows show
(:func:`_toeplitz_table`).
"""

from __future__ import annotations

import functools
from typing import Callable, NamedTuple

import numpy as np

from .bands import BandError, CubicBandUnion, Violation

# Below this |x| the ratio sin(x)/x is replaced by its limit 1; kills the
# removable singularity without a branch-visible jump.
_SINC_GUARD = 1e-8


def _sin_ratio(x: np.ndarray) -> np.ndarray:
    """sin(x)/x with the limit value at the removable singularity."""
    x = np.asarray(x, dtype=float)
    small = np.abs(x) < _SINC_GUARD
    safe = np.where(small, 1.0, x)
    return np.where(small, 1.0, np.sin(safe) / safe)


# ---------------------------------------------------------------------------
# difference tables
#
# Every operator here is multilevel Toeplitz: entry (i, j) of its matrix
# depends only on the index difference i - j.  A table holds the values for
# every difference, shape (2 n_0 - 1, ..., 2 n_{d-1} - 1) with the zero
# difference at index n - 1 on each axis.  It is built once per operator,
# then gathered into the dense matrix or applied by FFT.


def _axis_table(n: int, f_c: float, half_width: float) -> np.ndarray:
    """1-D band kernel at differences 1-n..n-1 (real when f_c = 0)."""
    t = np.arange(1 - n, n)
    base = 2.0 * half_width * _sin_ratio(2.0 * np.pi * half_width * t)
    if f_c == 0.0:
        return base
    return np.exp(2j * np.pi * f_c * t) * base


def _hermitian(table: np.ndarray) -> np.ndarray:
    """Table of the Hermitian part ``(A + A^H) / 2`` of its matrix."""
    flipped = table[(slice(None, None, -1),) * table.ndim]
    return (table + flipped.conj()) / 2.0


def _box_term(dims: tuple[int, ...], center, half_width) -> np.ndarray:
    """Table of one box: the outer product of its per-axis tables,
    multiplied from the last axis to the first (the ``kron(B_{N_{d-1}},
    ..., B_{N_0})`` order)."""
    factors = [_hermitian(_axis_table(n, center[ax], half_width[ax]).astype(complex))
               for ax, n in enumerate(dims)]
    term = factors[-1]
    for fac in factors[-2::-1]:
        term = np.multiply.outer(term, fac)
    return term.T  # outer products run last axis first


class _BandSet(NamedTuple):
    """A band set on a grid as the table code reads it: ``centers`` (J, d),
    ``shapes[i]``, floats fixing band i's kernel up to its location, and
    ``term(i, offset)``, the complex table of band i moved to ``offset``."""

    dims: tuple[int, ...]
    centers: np.ndarray
    shapes: list[tuple[float, ...]]
    term: Callable[[int, np.ndarray], np.ndarray]


def _boxes(dims: tuple[int, ...], union: CubicBandUnion) -> _BandSet:
    """The band set of a union of boxes (shape: the half-widths)."""
    return _BandSet(dims, union.centers, [tuple(w) for w in union.half_widths],
                    lambda i, offset: _box_term(dims, offset, union.half_widths[i]))


def _term(bands: _BandSet, i: int, offset) -> np.ndarray:
    """``bands.term(i, offset)``, or a :class:`~mdprolate.bands.BandError`
    naming band i when an entry is not finite: numbers that pass
    validation can still overflow in the kernel (a parallelogram
    coefficient near 1e308).  The error replaces numpy's floating-point
    warnings."""
    with np.errstate(all="ignore"):
        term = bands.term(i, offset)
    if not np.isfinite(term).all():
        raise BandError([Violation("finite", (i,), f"band {i}: its kernel is not "
                                   f"finite on the {bands.dims} grid")])
    return term


def _table(bands: _BandSet) -> np.ndarray:
    """Difference table of a band set: its band terms summed in list order."""
    acc = np.zeros(tuple(2 * n - 1 for n in bands.dims), dtype=complex)
    for i, center in enumerate(bands.centers):
        acc += _term(bands, i, center)
    return _hermitian(acc)


def _frobenius_sq(table: np.ndarray) -> float:
    """Squared Frobenius norm of a table's matrix, in O(table): difference
    d occurs ``prod_i (n_i - |d_i|)`` times in the matrix."""
    total = table.real ** 2 + table.imag ** 2
    for s in table.shape[::-1]:
        n = (s + 1) // 2
        total = total @ (n - np.abs(np.arange(1.0 - n, n)))
    return float(total)


def _recentred(table: np.ndarray, center) -> np.ndarray:
    """Table of ``D^H A D``, A the matrix of ``table`` and D the centre
    phase ``diag(exp(2 pi i center . x))``: the entry at difference d times
    ``exp(-2 pi i center . d)``, made exactly Hermitian.  For a band set
    point-symmetric about ``center`` that is the demodulated operator, with
    an imaginary part of roundoff size."""
    diffs = np.ix_(*[np.arange(1 - (s + 1) // 2, (s + 1) // 2) for s in table.shape])
    phase = np.exp(-2j * np.pi * sum(c * d for c, d in zip(center, diffs)))
    return _hermitian(table * phase)


# Mirror bands must agree in shape and cancel in offset from the centre to
# within this absolute constant, a few ulp of the unit-sized values
# involved.  Decimal inputs rarely give bitwise mirrors: the 1-D reference
# union [-0.15, -0.05] u [0.15, 0.25] has half-widths one ulp apart.
_MIRROR_TOL = 4.0 * np.finfo(float).eps


class _Demodulated(NamedTuple):
    """Real table of an operator whose bands are point-symmetric about
    ``center``, shifted to that centre: the operator's matrix is ``D T D^H``
    with T the table's matrix and ``D = diag(exp(2 pi i center . x))`` over
    the sample coordinates x in vec order.  ``symmetries`` are the axis maps
    besides J the table is invariant under (see :func:`_axis_symmetries`),
    in the order they were accepted.  With ``center`` None it is an
    operator's own complex table, without symmetries: a set's without a
    centre, or a matrix's (:func:`_toeplitz_table`)."""

    center: np.ndarray
    table: np.ndarray
    symmetries: tuple


def _mirror_pairs(bands: _BandSet):
    """``(center, pairs)`` for a point-symmetric band set, or None.

    The centre is the midpoint of the extreme band centres.  Each band must
    pair with a mirror, or with itself when its offset is zero, both within
    :data:`_MIRROR_TOL`.  A pair is ``(offset, band, weight)``: the larger
    of its two offsets from the centre and the band there, weight 2, or a
    zero offset and weight 1 for a band paired with itself; pairs are in
    ascending order of offset, so they do not depend on the list order.
    """
    centers, shapes = np.asarray(bands.centers, dtype=float), bands.shapes
    center = (centers.min(axis=0) + centers.max(axis=0)) / 2.0
    offsets = centers - center
    free = list(range(len(centers)))
    pairs = []
    while free:
        i = free.pop(0)
        mate = next((j for j in [i] + free
                     if np.max(np.abs(np.subtract(shapes[i], shapes[j]))) <= _MIRROR_TOL
                     and np.max(np.abs(offsets[i] + offsets[j])) <= _MIRROR_TOL), None)
        if mate is None:
            return None
        if mate == i:
            pairs.append(((0.0,) * centers.shape[1], i, 1.0))
        else:
            free.remove(mate)
            rep = max(i, mate, key=lambda b: tuple(offsets[b]))
            pairs.append((tuple(offsets[rep]), rep, 2.0))
    return center, sorted(pairs)


def _demodulate(bands: _BandSet) -> _Demodulated | None:
    """Demodulated table of a band set, or None when it is not
    point-symmetric (:func:`_mirror_pairs`): each pair adds ``weight
    Re(term)`` at its offset, in the pairs' order."""
    pairing = _mirror_pairs(bands)
    if pairing is None:
        return None
    center, pairs = pairing
    acc = 0.0
    for offset, i, weight in pairs:
        acc = acc + weight * _term(bands, i, np.array(offset)).real
    return _Demodulated(center, *_axis_symmetries(_hermitian(acc)))


# ---------------------------------------------------------------------------
# axis symmetries
#
# A real, point-symmetric table may also be invariant under reversing single
# axes or swapping axes of equal length.  Those maps, with J, generate an
# abelian group G of commuting involutions that permutes the samples and
# commutes with the operator, so the operator splits into one real block per
# character of G (Cantoni & Butler 1976; Faessler & Stiefel 1992).


class _AxisMap(NamedTuple):
    """A signed axis permutation g: ``(g d)[a] = +-d[perm[a]]``, minus when
    ``flips[a]``.  On a difference table a flip negates the difference; on
    sample coordinates it is the reversal ``x -> n - 1 - x``."""

    perm: tuple[int, ...]
    flips: tuple[bool, ...]


def _reversal(flips) -> _AxisMap:
    """The map reversing the axes where ``flips`` is set: the identity
    when none is, J when all are."""
    flips = tuple(flips)
    return _AxisMap(tuple(range(len(flips))), flips)


def _compose(g: _AxisMap, h: _AxisMap) -> _AxisMap:
    """The map ``d -> g(h(d))``."""
    return _AxisMap(tuple(h.perm[p] for p in g.perm),
                    tuple(f != h.flips[p] for f, p in zip(g.flips, g.perm)))


def _elements(d: int, symmetries: tuple[_AxisMap, ...]) -> list[_AxisMap]:
    """The group G generated by J and ``symmetries`` in d axes: element e
    is the product of the generators whose bits are set in e, J being the
    highest bit."""
    elements = [_reversal((False,) * d)]
    for g in reversed((_reversal((True,) * d),) + tuple(symmetries)):
        elements += [_compose(g, h) for h in elements]
    return elements


def _moved(table: np.ndarray, g: _AxisMap) -> np.ndarray:
    """The table ``d -> T[g d]``, as a view."""
    flipped = table[tuple(slice(None, None, -1 if f else 1) for f in g.flips)]
    return flipped.transpose(g.perm)


def _axis_symmetries(table: np.ndarray) -> tuple[np.ndarray, tuple[_AxisMap, ...]]:
    """A real, point-symmetric table averaged over the axis maps it is
    invariant under, and those maps.

    The candidates, in this order, are the reversal of each axis, then the
    swap of each pair of equal-length axes.  One is skipped when the group
    generated so far (J included) already holds it, or when it does not
    commute with every map accepted before it.  It is accepted when it moves
    no entry by more than :data:`_MIRROR_TOL` times ``T(0)``, and the table
    is then replaced by ``(T + g T) / 2``, as :func:`_hermitian` does: that
    is exactly invariant under g and, because the maps commute, under every
    map accepted before.  Each step moves an entry by at most half the
    tolerance plus one rounding, so with m maps accepted (at most d - 1 in
    d axes) the solved matrix differs from the demodulated operator's by at
    most ``m tol`` entrywise, and ``||dA||_2 <= n m tol``.  A table that
    accepts no map is returned as it is.
    """
    d = table.ndim
    dims = tuple((s + 1) // 2 for s in table.shape)
    tol = _MIRROR_TOL * abs(table[tuple(n - 1 for n in dims)])
    candidates = [_reversal(b == a for b in range(d)) for a in range(d)]
    for a in range(d):
        for b in range(a + 1, d):
            if dims[a] == dims[b]:
                perm = list(range(d))
                perm[a], perm[b] = b, a
                candidates.append(_AxisMap(tuple(perm), (False,) * d))
    accepted = ()
    for g in candidates:
        if (g in _elements(d, accepted)
                or any(_compose(g, h) != _compose(h, g) for h in accepted)):
            continue
        moved = _moved(table, g)
        if np.max(np.abs(moved - table)) > tol:
            continue
        table = np.ascontiguousarray((table + moved) / 2.0)
        accepted += (g,)
    return table, accepted


class _Orbits(NamedTuple):
    """The orbits of the samples under G, generated by J and ``symmetries``.

    G has ``2^(len(symmetries) + 1)`` elements, numbered as
    :func:`_elements` lists them, and ``chars[c, e] = (-1)^popcount(c & e)``
    is the value of character c on element e: character 0 is trivial, and
    for J alone characters 0 and 1 are the even and odd ones.
    ``images[e, o]`` is the vec index element e maps
    orbit o's representative to, the representative (``images[0]``) being
    the orbit's smallest vec index.  The first ``free`` orbits have the
    trivial stabiliser; the others follow, each group in ascending order of
    representative.  ``stab`` holds each orbit's stabiliser size, and
    ``keep[c]`` the orbits whose stabiliser character c is trivial on, in
    orbit order: the orbits block c is written over, the free ones first.
    """

    images: np.ndarray
    stab: np.ndarray
    chars: np.ndarray
    free: int
    keep: list[np.ndarray]



def _orbits(dims: tuple[int, ...], symmetries: tuple[_AxisMap, ...]) -> _Orbits:
    """The orbits of the samples of a grid under J and ``symmetries``."""
    elements = _elements(len(dims), symmetries)
    size = len(elements)
    chars = np.array([[(-1.0) ** bin(c & e).count("1") for e in range(size)]
                      for c in range(size)])
    coords = np.unravel_index(np.arange(int(np.prod(dims))), dims, order="F")
    maps = np.stack([np.ravel_multi_index(
        [dims[a] - 1 - coords[p] if f else coords[p] for a, (p, f) in
         enumerate(zip(g.perm, g.flips))], dims, order="F") for g in elements])
    reps = np.flatnonzero(maps.min(axis=0) == np.arange(maps.shape[1]))
    stab = np.count_nonzero(maps[:, reps] == reps, axis=0)
    reps = np.concatenate([reps[stab == 1], reps[stab > 1]])
    images = np.ascontiguousarray(maps[:, reps])
    fixed = images == reps
    keep = [np.flatnonzero(~(fixed & (row < 0)[:, None]).any(axis=0)) for row in chars]
    return _Orbits(images, np.count_nonzero(fixed, axis=0), chars,
                   int(np.count_nonzero(stab == 1)), keep)


def _strided(table: np.ndarray) -> np.ndarray:
    """A table's matrix as a read-only view over the table, of shape
    ``dims[::-1] * 2``: the row index over the reversed dims, then the
    column index, each in C order, which is first-axis-fastest order."""
    dims = tuple((s + 1) // 2 for s in table.shape)
    center = table[tuple(slice(n - 1, None) for n in dims)]
    strides = center.strides[::-1]
    return np.lib.stride_tricks.as_strided(
        center, shape=dims[::-1] * 2,
        strides=strides + tuple(-s for s in strides), writeable=False)


def _gather(table: np.ndarray) -> np.ndarray:
    """Dense read-only matrix of a table, rows and columns in first-axis-
    fastest order.  Read-only so it cannot drift from the table, which the
    solver may read in its place."""
    view = _strided(table)
    total = int(np.prod(view.shape[:table.ndim]))
    matrix = view.reshape(total, total)
    matrix.flags.writeable = False
    return matrix


def _row_bands(table: np.ndarray):
    """A table's matrix as ``(rows, band)`` pairs, ``band`` the rows
    ``rows`` (a slice), so no n x n array is allocated: a run of indices of
    the last axis, contiguous in vec order, of about 64 Ki entries."""
    view = _strided(table)
    total = int(np.prod(view.shape[:table.ndim]))
    per = total // view.shape[0]
    step = max(1, 65536 // (per * total))
    for lo in range(0, view.shape[0], step):
        hi = min(lo + step, view.shape[0])
        yield slice(lo * per, hi * per), view[lo:hi].reshape(-1, total)


def _dense_product(table: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``_gather(table) @ v`` for v of shape ``(n, k)``, formed a band of
    rows at a time (:func:`_row_bands`)."""
    out = np.empty(v.shape, dtype=np.result_type(table, v))
    for rows, band in _row_bands(table):
        np.matmul(band, v, out=out[rows])
    return out


def _toeplitz_grid(a: np.ndarray) -> tuple[int, ...]:
    """The grid a square matrix reads as multilevel Toeplitz over, if any.

    Row s, the product of the first k sizes, is row 0 moved s columns on
    up to ``j = (dims[k] - 1) s``, where axis k wraps: the first mismatch
    fixes ``dims[k]``.  Only :func:`_toeplitz_table` proves the grid."""
    n, step, dims = a.shape[0], 1, ()
    while step < n:
        off = np.flatnonzero(a[step, step:] != a[0, :n - step])
        dims += (max(2, off[0] // step + 1 if off.size else n // step),)
        step *= dims[-1]
    return dims or (n,)


def _toeplitz_table(a: np.ndarray, dims: tuple[int, ...]) -> np.ndarray | None:
    """The difference table of a matrix over the grid ``dims``, read at
    ``a[vec(max(d, 0)), vec(max(-d, 0))]`` for difference d, or None unless
    ``T[-d] == conj T[d]`` and its matrix equals ``a``, compared a band of
    rows at a time (:func:`_row_bands`).  Both hold as values, not bits: an
    unread entry may differ from the read one in the sign of a zero."""
    n = int(np.prod(dims))
    if a.shape != (n, n):
        return None
    diffs = np.ix_(*[np.arange(1 - m, m) for m in dims])
    steps = np.cumprod((1,) + tuple(dims[:-1]))
    table = a[sum(np.maximum(d, 0) * s for d, s in zip(diffs, steps)),
              sum(np.maximum(-d, 0) * s for d, s in zip(diffs, steps))]
    if not np.array_equal(table, table[(slice(None, None, -1),) * table.ndim].conj()):
        return None
    equal = all(np.array_equal(band, a[rows]) for rows, band in _row_bands(table))
    return table if equal else None


def _transfer(table: np.ndarray) -> np.ndarray:
    """The spectrum of a table's circulant embedding, for :func:`_apply`."""
    return np.fft.fftn(np.fft.ifftshift(table))


def _apply(transfer: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Matrix-free product of a table's matrix with a tensor y, through its
    circulant embedding of size ``table.shape`` (any d), given as the
    embedding's spectrum ``transfer`` (:func:`_transfer`).

    Axes of y before its last ``transfer.ndim`` are batch axes: every
    tensor in the batch is multiplied by the same matrix, in one batched
    FFT.
    """
    axes = tuple(range(y.ndim - transfer.ndim, y.ndim))
    padded = np.fft.fftn(y, s=transfer.shape, axes=axes)
    full = np.fft.ifftn(transfer * padded, axes=axes)
    return full[(...,) + tuple(slice(0, n) for n in y.shape[-transfer.ndim:])]


class _Tables:
    """One operator's difference tables, each built from its band set
    ``bands`` when first read and kept: ``table``, the circulant
    ``transfer`` :meth:`apply` multiplies by, and ``solved``, the table
    the eigensolver reads.  Each spec holds one (``spec._tables``), so
    every layer reading a spec reads the same tables.  Nothing here checks
    a size cap: the materializers check it before a table is read."""

    def __init__(self, bands: _BandSet):
        self.bands, self.dims = bands, bands.dims

    @functools.cached_property
    def table(self) -> np.ndarray:
        return _table(self.bands)

    @functools.cached_property
    def transfer(self) -> np.ndarray:
        return _transfer(self.table)

    @functools.cached_property
    def solved(self) -> _Demodulated:
        """The demodulated table (:func:`_demodulate`) of a point-symmetric
        band set, else the table as it is, with no centre."""
        return _demodulate(self.bands) or _Demodulated(None, self.table, ())

    def apply(self, y: np.ndarray) -> np.ndarray:
        """``_apply`` of the table to y, batch axes first."""
        return _apply(self.transfer, y)

    def dense_product(self, v: np.ndarray) -> np.ndarray:
        """The table's matrix times v, a band of rows at a time."""
        return _dense_product(self.table, v)

    def frobenius_sq(self) -> float:
        return _frobenius_sq(self.table)

    def shift_deviation(self, moved: _BandSet) -> float:
        """Bound on ``||lam - lam'||_2``, lam the spectrum the solver finds
        from :attr:`solved` and lam' that of ``moved``, this band set with
        its bands moved, without an eigensolve.

        Moving every band by one step conjugates the operator by a unitary
        diagonal modulation, which moves no eigenvalue.  A band term is
        defined at any centre and is periodic in it, so the moved set need
        not lie inside the Nyquist cube.  Its complex table, recentred
        (:func:`_recentred`) by the step between the two sets' mean band
        centres plus the centre of the solved table, is that table up to
        roundoff.  The Frobenius norm of the difference, summed over the
        table with each difference's multiplicity, bounds ``||lam -
        lam'||_2`` (Hoffman & Wielandt 1953).
        """
        solved = self.solved
        step = moved.centers.mean(axis=0) - self.bands.centers.mean(axis=0)
        if solved.center is not None:
            step = step + solved.center
        moved_table = _recentred(_table(moved), step)
        return float(np.sqrt(_frobenius_sq(moved_table - solved.table)))
