"""One-dimensional concentration kernels, and the difference-table core
every operator in the package is built from.

The covariance of a unit-power multiband process sampled at n points is a
dense Hermitian matrix whose (m, n) entry is a sum of modulated sinc terms,
one per band.  Its eigenvectors for a single baseband interval are the
discrete prolate spheroidal sequences (DPSS); eigenvalues cluster sharply
near 1 and 0 with about ``2 n W`` values near 1 per band of half-width W.

Everything here is desk-scale (n up to a few thousand) and decomposed by
a dense eigensolver.  Every operator is Hermitian and multilevel Toeplitz,
so it is centro-Hermitian (``J A J = conj(A)``, J the index reversal) and
unitarily similar to a real symmetric form of the same size (Cantoni &
Butler 1976).  One filler, :func:`_orbit_blocks`, writes that form for
:func:`_eigh`, the one solver entry point, from the operator's difference
table; a matrix (hand-built, or passed to :func:`decompose`) is read as
its own table over the grid its rows show (:func:`_toeplitz_table`), and
one without such a table takes the dense complex solve.  Every block is
written as its lower triangle alone, all the solver reads, on one
schedule of bands of rows; a real table's blocks share arrays two to one,
as the Rectangular Full Packed format stores a triangle (Gustavson et al.
2010).  A complex table (a band set without a centre) gives one real block
of size n, or an even and an odd block when its coupling is exactly zero.
The translation cross-check solves nothing: it recentres a complex table
by a centre phase, difference by difference (:func:`_recentred`), and
compares it with the table that was solved.

Modulating every band by a common ``exp(2 pi i c . x)`` moves no
eigenvalue.  So when the bands pair up as mirrors about some centre c (a
band at c pairs with itself), :func:`_demodulate` builds the table of
the operator shifted to c as an exactly real array.  Its real form falls
apart into an even and an odd block under J.  The table may have more
symmetries: reversing one axis, as every single box and the four-box
union ``(+-f1, +-f2)`` do, or swapping two axes of equal length, as the
3-D two-box union with offsets ``+-(a, b, b)`` does.
:func:`_axis_symmetries` accepts those that commute, to a few ulp of
``T(0)``, and averages the table over them so it is exactly invariant.
With J they generate a group G of order 2, 4 or more, and the filler
writes one real block per character of G, each about ``n / |G|`` in
size, solved separately (Faessler & Stiefel 1992); eigenvectors come
back multiplied by the centre phase.  A set with J alone, such as the
README union, gets the even and odd blocks.  No table-backed operator is
gathered: the table is all the solver reads.

:func:`_eigh` keeps the eigenvectors as the solver returned them, one
real block per character or one full-size block, with their descending
order and the package's phase convention (:class:`_Eigenvectors`).  They
are mapped back only when read: to eigen-tensors, written a chunk at a
time into one array, or to linear combinations of them, formed by
block-size real products without any eigen-tensor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .bands import CubicBandUnion

__all__ = [
    "sinc_kernel",
    "multiband_kernel",
    "dpss",
    "decompose",
    "modulate",
    "cluster_counts",
    "ClusterCounts",
    "Spectrum1D",
    "EigensolverError",
]

# Below this |x| the ratio sin(x)/x is replaced by its limit 1; kills the
# removable singularity without a branch-visible jump.
_SINC_GUARD = 1e-8


class EigensolverError(RuntimeError):
    """Dense eigendecomposition failed; message carries the offending problem."""


def _sin_ratio(x: np.ndarray) -> np.ndarray:
    """sin(x)/x with the limit value at the removable singularity."""
    x = np.asarray(x, dtype=float)
    small = np.abs(x) < _SINC_GUARD
    safe = np.where(small, 1.0, x)
    return np.where(small, 1.0, np.sin(safe) / safe)


def _hermitize(a: np.ndarray) -> np.ndarray:
    # Removes last-bit roundoff asymmetry that destabilizes eigensolvers.
    return (a + a.conj().T) / 2.0


def _check_band(f_c: float, half_width: float) -> None:
    if not 0.0 < half_width <= 0.5:
        raise ValueError(f"half-width must be in (0, 1/2], got {half_width}")
    # Written so that a NaN centre fails it too.
    if not abs(f_c) + half_width <= 0.5 + 1e-12:
        raise ValueError(
            f"band [{f_c - half_width}, {f_c + half_width}] exceeds [-1/2, 1/2]")


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


def _table(bands: _BandSet) -> np.ndarray:
    """Difference table of a band set: its band terms summed in list order."""
    acc = np.zeros(tuple(2 * n - 1 for n in bands.dims), dtype=complex)
    for i, center in enumerate(bands.centers):
        acc += bands.term(i, center)
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
        acc = acc + weight * bands.term(i, np.array(offset)).real
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


def _span(idx: np.ndarray):
    """``idx`` as a slice when it is a run of unit step, else ``idx``."""
    if idx.size:
        step = int(idx[1] - idx[0]) if idx.size > 1 else 1
        if abs(step) == 1 and np.all(np.diff(idx) == step):
            stop = int(idx[-1]) + step
            return slice(int(idx[0]), None if stop < 0 else stop, step)
    return idx


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


def _phase(dims: tuple[int, ...], center: np.ndarray) -> np.ndarray:
    """``exp(2 pi i center . x)`` over the sample coordinates x, vec order."""
    coords = np.unravel_index(np.arange(int(np.prod(dims))), dims, order="F")
    return np.exp(2j * np.pi * sum(c * x for c, x in zip(center, coords)))


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


def _apply(table: np.ndarray, y: np.ndarray,
           transfer: np.ndarray | None = None) -> np.ndarray:
    """Matrix-free product of a table's matrix with a tensor y, through a
    circulant embedding of size ``table.shape`` (any d).

    Axes of y before its last ``table.ndim`` are batch axes: every tensor
    in the batch is multiplied by the same matrix, in one batched FFT.  A
    caller applying one table to many batches passes its ``transfer``
    (:func:`_transfer`), formed once.
    """
    axes = tuple(range(y.ndim - table.ndim, y.ndim))
    if transfer is None:
        transfer = _transfer(table)
    padded = np.fft.fftn(y, s=table.shape, axes=axes)
    full = np.fft.ifftn(transfer * padded, axes=axes)
    return full[(...,) + tuple(slice(0, n) for n in y.shape[-table.ndim:])]


def _check_length(n) -> None:
    """Reject a 1-D length that is not an integer of at least 1 (numpy
    integers are integers)."""
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError(f"length must be an integer >= 1, got {n!r}")


def sinc_kernel(n: int, f_c: float, half_width: float) -> np.ndarray:
    """Covariance kernel of one band ``[f_c - W, f_c + W]``.

    Entry (m, k) is ``exp(2j pi f_c (m-k)) * sin(2 pi W (m-k)) / (pi (m-k))``
    with diagonal ``2 W``.  Returned matrix is exactly Hermitian and PSD up
    to roundoff.
    """
    _check_length(n)
    _check_band(f_c, half_width)
    return _gather(_hermitian(_axis_table(n, f_c, half_width).astype(complex)))


def multiband_kernel(n: int, union: CubicBandUnion) -> np.ndarray:
    """Covariance kernel of a 1-D multiband union: entrywise sum of
    modulated sinc kernels.  Trace equals ``n * union.measure()``."""
    _check_length(n)
    if union.dim != 1:
        raise ValueError(f"expected a 1-D band union, got dim {union.dim}")
    return _gather(_table(_boxes((n,), union)))


def _pivot_scale(rows: np.ndarray, phase: np.ndarray | None = None) -> np.ndarray:
    """Per-row factor making each row's pivot, its largest-magnitude entry
    (the first among exact ties), real positive: a sign for real rows.

    With ``phase``, the factor is for the rows multiplied by it, but the
    pivot is chosen before: mirrored entries of a point-symmetric
    eigenvector have exactly equal magnitude there, so roundoff in the
    phase cannot move it.
    """
    lead = np.argmax(np.abs(rows), axis=1)
    pivots = rows[np.arange(rows.shape[0]), lead]
    if phase is not None:
        pivots = pivots * phase[lead]
    if not np.iscomplexobj(pivots):
        return np.where(pivots < 0, -1.0, 1.0)
    mags = np.abs(pivots)
    safe = np.where(mags > 0, mags, 1.0)
    return np.where(mags > 0, np.conj(pivots) / safe, 1.0)


def _hermitian_exactly(a: np.ndarray) -> bool:
    """Whether ``a == a^H`` holds exactly, compared a block of rows at a
    time so no full-size copy is made."""
    n = a.shape[0]
    step = max(1, 65536 // n)
    for lo in range(0, n, step):
        if not np.array_equal(a[lo:lo + step], a[:, lo:lo + step].T.conj()):
            return False
    return True


def _write(op, x, y, out, diagonal: int | None) -> None:
    """``out = op(x, y)`` for a band of a block's rows, or with ``diagonal``
    only on and below the block's diagonal, which meets the band's first
    row at that column."""
    if diagonal is None:
        op(x, y, out=out)
        return
    op(x[:, :diagonal], y[:, :diagonal], out=out[:, :diagonal])
    op(x[:, diagonal:], y[:, diagonal:], out=out[:, diagonal:],
       where=np.tri(len(out), dtype=bool))


def _character_sums(parts, outs, diagonal: int | None = None):
    """``outs[c] = sum_e chars[c, e] parts[e]`` for every character c of
    :class:`_Orbits`, by the fast Walsh-Hadamard transform: ``log2 |G|``
    rounds of sums and differences, the last written into ``outs`` by
    :func:`_write`.  ``parts`` are overwritten.  For J alone it is ``[p0 +
    p1, p0 - p1]``."""
    parts, spare = list(parts), None
    half = len(parts) // 2
    span = 1
    while span < half:
        for lo in range(0, len(parts), 2 * span):
            for j in range(lo, lo + span):
                a, b = parts[j], parts[j + span]
                spare = np.empty_like(a) if spare is None else spare
                np.subtract(a, b, out=spare)
                a += b
                parts[j + span], spare = spare, b
        span *= 2
    for j in range(half):
        _write(np.add, parts[j], parts[j + half], outs[j], diagonal)
        _write(np.subtract, parts[j], parts[j + half], outs[j + half], diagonal)
    return outs


def _orbit_parts(source: np.ndarray, orbits: _Orbits):
    """The entries ``A[i, e j]`` of the matrix A of the table ``source``
    that :func:`_orbit_blocks` sums, as ``(rows, parts)`` with ``parts[e]``
    the entries for element e of G: first (``rows`` None) for every orbit
    i against the orbits j with a nontrivial stabiliser, then for each band
    ``rows`` of free orbits i against the free orbits ``j < rows.stop``, at
    most 8 Ki entries per element (or one row).

    The table is read by index arithmetic, ``A[i, j] = T[z + o_i - o_j]``
    with ``o_i`` the table offset of sample i's coordinates and ``z`` that
    of the zero difference, into buffers reused by every band: fresh
    band-sized arrays would each be mapped and faulted in anew.  The tail
    is read before those buffers exist, which lowers a fill's peak.
    """
    images, free = orbits.images, orbits.free
    # The most rows r from lo with r (lo + r) <= 8 Ki, at least one.
    bands, lo = [], 0
    while lo < free:
        hi = min(free, lo + max(1, (math.isqrt(lo * lo + 32768) - lo) // 2))
        bands.append(slice(lo, hi))
        lo = hi
    shapes = [(rows.stop - rows.start, rows.stop) for rows in bands]
    tail = images.shape[1] > free
    dims = tuple((s + 1) // 2 for s in source.shape)
    flat = source.ravel()
    steps = np.cumprod((1,) + source.shape[:0:-1])[::-1]
    off = sum(c * st for c, st in zip(np.unravel_index(images, dims, order="F"), steps))
    zero = int(sum((m - 1) * st for m, st in zip(dims, steps)))
    if tail:
        yield None, flat[zero + off[0, :, None] - off[:, None, free:]]
    # Every index is in range; mode "clip" only lets take write into its out
    # buffer directly, which must be contiguous.
    area = max((r * w for r, w in shapes), default=0)
    index = np.empty(area, dtype=np.intp)
    gathered = np.empty((len(off), area), dtype=source.dtype)
    for rows, shape in zip(bands, shapes):
        at = zero + off[0, rows, None]
        at_index = index[:shape[0] * shape[1]].reshape(shape)
        parts = [part[:at_index.size].reshape(shape) for part in gathered]
        for o, part in zip(off, parts):
            np.subtract(at, o[:shape[1]], out=at_index)
            np.take(flat, at_index, out=part, mode="clip")
        yield rows, parts


def _orbit_blocks(source: np.ndarray, orbits: _Orbits) -> list[np.ndarray]:
    """The real form of the matrix A of an exactly Hermitian table invariant
    under G: one real block per character of G, or for a complex table
    (G = {1, J}) with a nonzero coupling one block R of A's size.  Read by
    :func:`_orbit_parts`, so no n x n array but the output is allocated.

    For a real table, block c over the orbits with representatives i and j
    is ``sum_e chars[c, e] A[i, e j] / sqrt(s_i s_j)``, with s the
    stabiliser sizes: the matrix in the orthonormal basis ``sqrt(s / |G|)
    sum_{distinct e j} chars[c, e] e_{e j}`` of each kept orbit.  For G =
    {1, J} they are the even and odd blocks, ``a11 + a12j`` and ``a11 -
    a12j``, with the middle row ``sqrt 2 A[k, :k]`` and corner ``A[k, k]``
    for odd n (``sqrt(1/4)`` is exact and ``sqrt(1/2) = sqrt(2) / 2``).

    A complex table gives ``R = Q^H A Q`` with ``Q = [[I, iI], [J, -iJ]] /
    sqrt 2`` (plus the middle unit vector when n is odd): the even and odd
    blocks of the real parts, and below them their coupling ``low[j, i] =
    Im A[i, J j] - Im A[i, j]`` (odd row j, even column i) with, for odd n,
    the middle column ``sqrt 2 Im A[:k, k]``.  When the coupling is
    exactly zero the two blocks are returned instead.

    Every block holds only its lower triangle, diagonal included, which is
    all the solver reads (``UPLO="L"``).  A band of free rows i reads
    ``A[i, e j]`` only for ``j < rows.stop``, and each write stops at the
    diagonal (:func:`_write`).  A real table's blocks of characters 2p and
    2p + 1, of sizes a and b, share one ``(m + 1) x m`` array ``buf``, m the
    larger size, as the views ``buf[1:a + 1, :a]`` (strictly below its
    diagonal) and ``buf[:b, :b]`` turned a half turn (on and above it), so
    each block's upper triangle holds its partner's entries, and a band of
    rows is written along ``buf``'s rows.  |G| is a power of two, so the
    blocks always pair.  R's coupling past a band's rows comes from the same
    reads by exact Hermitian symmetry: ``A[j, i] = conj A[i, j]`` and
    ``A[j, J i] = conj A[J j, i] = A[i, J j]``, so ``low[i, j] = Im A[i, J
    j] + Im A[i, j]``.  Each band writes that into its rows of ``low``,
    then the difference into its columns over it, so its own square keeps
    the difference, with its sign of zero.
    """
    free, count = orbits.free, orbits.images.shape[1]
    coupled = np.iscomplexobj(source)
    if coupled:
        r = np.empty((count + free,) * 2)
        blocks, low = [r[:count, :count], r[count:, count:]], r[count:, :count]
    else:
        blocks, sizes = [], [k.size for k in orbits.keep]
        for a, b in zip(sizes[::2], sizes[1::2]):
            buf = np.empty((max(a, b) + 1, max(a, b)))
            blocks += [buf[1:a + 1, :a], buf[b - 1::-1, b - 1::-1]]
    for rows, parts in _orbit_parts(source, orbits):
        real = [p.real for p in parts]
        if rows is not None:
            _character_sums(real, [b[rows, :rows.stop] for b in blocks], rows.start)
            if coupled:
                np.add(parts[1].imag, parts[0].imag, out=low[rows, :rows.stop])
                # Written as this difference, not as -Im(p0 - p1), which
                # has the same values but the other sign of zero.
                np.subtract(parts[1].imag, parts[0].imag, out=low[:rows.stop, rows].T)
            continue
        # The rows of the orbits with a nontrivial stabiliser, read from the
        # columns they are the transpose of.
        totals = _character_sums(real, np.empty((len(real),) + real[0].shape))
        for block, keep, total in zip(blocks, orbits.keep, totals):
            tail = keep[free:]
            weight = np.sqrt(1.0 / np.multiply.outer(orbits.stab[tail],
                                                     orbits.stab[keep]))
            _write(np.multiply, total.T[np.ix_(tail - free, keep)], weight,
                   block[free:], free)
        if coupled:
            np.multiply(np.sqrt(2.0), parts[0].imag[:free], out=low[:, free:])
    if coupled and not low.any():
        return [b.copy() for b in blocks]
    return [r] if coupled else blocks


# Pivots are found and eigen-tensors assembled this many entries at a time,
# so the only full-size array an assembly allocates is its output.
_ASSEMBLY_CHUNK = 1 << 17


def _eigh(a, vectors: bool, dims: tuple[int, ...] | None = None,
          leading: int | None = None, positive: bool = False):
    """Descending eigenvalues of a Hermitian operator and, when ``vectors``,
    its phase-fixed eigenvectors as an :class:`_Eigenvectors`; the one
    place the package calls a dense eigensolver.

    The operator ``a`` is a table (a :class:`_Demodulated`) or a matrix.  A
    complex matrix with a table over the grid its rows show
    (:func:`_toeplitz_grid`, :func:`_toeplitz_table`) is solved from that
    table, with no centre, as a band set without a centre is; any other
    matrix goes to the solver unchanged.  A table is reduced to its real
    form by :func:`_orbit_blocks`, over the group G that J and its axis
    symmetries generate, one block per character; a complex table gives one
    block R of the same size, or the even and odd blocks when R's coupling
    is exactly zero.  Every route reads only the lower triangle of what it
    solves, which is all :func:`_orbit_blocks` writes.

    A real table is the operator shifted to the centre of its
    point-symmetric band set, and its eigenvectors are multiplied by the
    centre phase ``D``: ``K v = chi(g) v`` with ``K = D g D^H`` for every g
    in G, chi the block's character.

    Eigenvalues are sorted descending by a stable sort (the block of the
    lower character first among ties).  The blocks' eigenvectors are kept,
    not mapped back, with the order, the centre phase and the pivot
    factors; ``dims`` (default ``(n,)``) is the eigen-tensor shape.

    With ``leading`` (a count p), right after each block is solved, and
    before the next one is, its eigenvectors are cut to the columns whose
    eigenvalue is at least the block's min(p, m)-th largest, m its size
    (:func:`_leading_columns`; an exact tie at the cut is kept whole), so
    the next solve runs beside p columns of each block solved before it.
    Each of the global first p is among its block's first p.  With
    ``positive`` (approx's draws) the columns of positive eigenvalues are
    kept too, so the leading ``max(p, #{lambda > 0})`` can be read.  All
    eigenvalues are kept and the same blocks are solved by the same calls,
    so the readable eigen-tensors and combinations are bitwise those of a
    full solve (:class:`_Eigenvectors`).
    """
    dims = (a.shape[0],) if dims is None else tuple(dims)
    if not isinstance(a, _Demodulated) and np.iscomplexobj(a):
        table = _toeplitz_table(a, _toeplitz_grid(a))
        a = a if table is None else _Demodulated(None, table, ())
    n = int(np.prod(dims))
    orbits, phase, blocks = None, None, [a]
    if isinstance(a, _Demodulated):
        orbits = _orbits(dims, a.symmetries)
        blocks = _orbit_blocks(a.table, orbits)
        if vectors and a.center is not None:
            phase = _phase(dims, a.center)
    try:
        # UPLO="L" is what the real forms rely on: their upper triangles are
        # their partners' or never written.
        if vectors:
            # The full eigenvectors are dropped as soon as they are cut.
            parts = [_leading_columns(np.linalg.eigh(b, UPLO="L"), leading, positive)
                     for b in blocks]
        else:
            parts = [(np.linalg.eigvalsh(b, UPLO="L"), None) for b in blocks]
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(
            f"eigendecomposition failed for {n}x{n} matrix: {exc}") from exc
    del blocks
    vals = np.concatenate([vals for vals, _ in parts])
    order = np.argsort(-vals, kind="stable")
    if not vectors:
        return vals[order], None
    kept = n if leading is None else min(leading, n)
    if positive:
        kept = max(kept, int(np.count_nonzero(vals > 0)))
    return vals[order], _Eigenvectors(
        [w for _, w in parts], order, dims, phase, orbits,
        [vals.size - w.shape[1] for vals, w in parts], kept)


def _leading_columns(solved, count: int | None, positive: bool = False):
    """A block's eigenvalues (ascending, as the solver returns them) and
    eigenvectors ``solved``, the eigenvectors cut to the columns whose
    eigenvalue is at least the ``count``-th largest, so an exact tie at the
    cut is kept whole, or with ``positive`` is above zero (None keeps
    all).  The cut is a copy, so the full array can be freed."""
    vals, w = solved
    if count is None:
        return vals, w
    m = vals.size
    lo = m if count <= 0 else int(np.searchsorted(vals, vals[max(m - count, 0)]))
    if positive:
        lo = min(lo, int(np.searchsorted(vals, 0.0, side="right")))
    return vals, w if lo == 0 else w[:, lo:].copy()


def _at(rows: np.ndarray, cols):
    """The index of the entries at ``rows`` x ``cols`` (a slice or indices)."""
    return (rows, cols) if isinstance(cols, slice) else np.ix_(rows, cols)


def _columns(w: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Columns ``idx`` of w as rows, gathered along w's rows: ``w.T[idx]``
    would stride down each column, a cache line per entry."""
    return np.take(w, idx, axis=1).T


class _Eigenvectors:
    """The eigenvectors of one :func:`_eigh` solve, kept as the solver
    returned them.

    ``blocks`` holds the solved blocks' eigenvectors as columns: on the
    ``reduced`` routes, one real block per character of G over its
    ``orbits`` (:class:`_Orbits`), or one coupled block R whose rows are
    those of every character in turn; else one unreduced block.
    Eigenvector r, in descending eigenvalue order, is column ``order[r]``
    of the concatenated blocks mapped to a vec-order row by :meth:`_rows`,
    times ``scale[r] * phase``: ``scale`` is the factor :func:`_pivot_scale`
    gives that row (:meth:`pivots`, as far as vectors are read), ``phase``
    the centre phase (None without one).  The two readers map the blocks
    back only as far as they need: :meth:`tensors` writes eigen-tensors,
    :meth:`combine` forms linear combinations of them with block-size real
    products.

    A cut solve (``_eigh``'s ``leading``) keeps each block without its
    first ``dropped[b]`` columns, those of its lowest eigenvalues, and the
    column indices are mapped through that.  Only the leading ``kept``
    vectors are read: ``tensors(count)`` and the pivots for ``count <=
    kept``, and :meth:`combine` with zero coefficients past them; a full
    :meth:`tensors` raises.
    """

    def __init__(self, blocks: list[np.ndarray], order: np.ndarray,
                 dims: tuple[int, ...], phase: np.ndarray | None,
                 orbits: _Orbits | None = None, dropped: list[int] | None = None,
                 kept: int | None = None):
        self.blocks, self.order = blocks, order
        self.dims, self.phase, self.orbits = dims, phase, orbits
        self.n = order.size
        self.dropped = dropped or [0] * len(blocks)
        self.kept = self.n if kept is None else kept
        self.reduced = orbits is not None
        # Where the rows of each character start in the concatenated blocks.
        self.starts = np.cumsum([0] + ([k.size for k in orbits.keep] if self.reduced
                                       else [self.n]))
        self.coupled = len(blocks) < len(self.starts) - 1
        if self.reduced:
            # Where each block's and each element's entries land, as slices
            # where they are unit-step runs (for J, every one of them), and
            # each orbit's weight sqrt(s / |G|).
            self.targets = [[_span(img[k]) for img in orbits.images]
                            for k in orbits.keep]
            self.free_targets = [_span(img[:orbits.free]) for img in orbits.images]
            self.weight = 1.0 / np.sqrt(len(orbits.chars) / orbits.stab)
            # Each kept orbit's column among the representatives in ascending
            # vec order, and the centre phase there, for :meth:`_scale`.
            by_rep = np.argsort(orbits.images[0])
            rank = np.empty_like(by_rep)
            rank[by_rep] = np.arange(by_rep.size)
            self.rep_cols = [_span(rank[k]) for k in orbits.keep]
            self.rep_phase = None if phase is None else phase[orbits.images[0, by_rep]]
        self.scale = np.empty(0)
        self.inverse = np.empty_like(order)
        self.inverse[order] = np.arange(self.n)

    def _chunks(self, count: int, start: int = 0) -> list[np.ndarray]:
        step = max(1, _ASSEMBLY_CHUNK // self.n)
        return [self.order[lo:min(lo + step, count)]
                for lo in range(start, count, step)]

    def pivots(self, count: int) -> np.ndarray:
        """Pivot factors of the first ``count`` eigenvectors, each computed once."""
        if count > self.kept:
            raise ValueError(f"only the leading {self.kept} of {self.n} "
                             f"eigenvectors were kept, {count} asked for")
        self.scale = np.concatenate([self.scale] + [
            self._scale(sel) for sel in self._chunks(count, self.scale.size)])
        return self.scale[:count]

    def _scale(self, sel: np.ndarray) -> np.ndarray:
        """``_pivot_scale(self._rows(sel), self.phase)``, bitwise, read on a
        reduced route from the orbit representatives alone.

        The entries of one orbit have exactly equal magnitude, and its
        representative is its smallest vec index.  So over the
        representatives in ascending vec order, the first entry of largest
        magnitude is the representative of the row's pivot, and the pivot's
        value is the one there.
        """
        if not self.reduced:
            return _pivot_scale(self._rows(sel), self.phase)
        reps = np.zeros((sel.size, self.orbits.images.shape[1]),
                        dtype=complex if self.coupled else float)
        for c, pick, u in self._parts(sel):
            dest = reps.imag if c and self.coupled else reps.real
            dest[_at(pick, self.rep_cols[c])] = u * self.weight[self.orbits.keep[c]]
        return _pivot_scale(reps, self.rep_phase)

    def _parts(self, sel: np.ndarray) -> list[tuple[int, np.ndarray, np.ndarray]]:
        """Eigenvectors ``sel`` (indices into the concatenated block
        spectra) of a reduced route, as ``(c, pick, u)``: rows u of
        coefficients over character c's kept orbits, of the vectors
        ``sel[pick]``.  A coupled R gives both characters' parts of every
        vector, its even and its odd rows."""
        if self.coupled:
            u = _columns(self.blocks[0], sel - self.dropped[0])
            every = np.arange(sel.size)
            return [(c, every, u[:, lo:hi]) for c, (lo, hi)
                    in enumerate(zip(self.starts, self.starts[1:]))]
        which = np.searchsorted(self.starts, sel, side="right") - 1
        picks = [np.flatnonzero(which == c) for c in range(len(self.blocks))]
        return [(c, pick, _columns(w, sel[pick] - lo - skip))
                for c, (pick, w, lo, skip)
                in enumerate(zip(picks, self.blocks, self.starts, self.dropped))]

    def _rows(self, sel: np.ndarray) -> np.ndarray:
        """Eigenvectors ``sel`` (indices into the concatenated block
        spectra), as vec-order rows.

        Entry ``e j`` of the vector of character c's eigenvector u is
        ``chars[c, e] sqrt(s_j / |G|) u_j`` over its kept orbits j (for J,
        ``[u, m, J u] / sqrt 2`` and ``[u, 0, -J u] / sqrt 2``), so entries
        of one orbit have exactly equal magnitude.  A coupled R's vector
        has the even and odd parts in turn: they map back that way into the
        real and the imaginary parts of the row (through Q).  An unreduced
        block's eigenvectors are the rows themselves.
        """
        if not self.reduced:
            return _columns(self.blocks[0], sel - self.dropped[0])
        orbits = self.orbits
        rows = np.zeros((sel.size, self.n), dtype=complex if self.coupled else float)
        for c, pick, u in self._parts(sel):
            dest = rows.imag if c and self.coupled else rows.real
            vals = u * self.weight[orbits.keep[c]]
            for target, sign in zip(self.targets[c], orbits.chars[c]):
                dest[_at(pick, target)] = vals if sign > 0 else -vals
        return rows

    def tensors(self, count: int | None = None) -> np.ndarray:
        """The first ``count`` (default all) eigen-tensors, as the rows of
        one C-contiguous ``(count, *dims)`` array, written a chunk at a
        time straight from the blocks."""
        count = self.n if count is None else count
        scales = self.pivots(count)
        complex_out = self.reduced or np.iscomplexobj(self.blocks[0])
        out = np.empty((count,) + self.dims, dtype=complex if complex_out else float)
        # Through this transposed view a vec-order vector, reshaped in C order
        # to the reversed dims, lands in its tensor without an index map.
        dest = out.transpose((0,) + tuple(range(len(self.dims), 0, -1)))
        shape = self.dims[::-1]
        lo = 0
        for sel in self._chunks(count):
            rows = self._rows(sel)
            scale = scales[lo:lo + sel.size]
            if self.phase is None:
                factor = scale.reshape((-1,) + (1,) * len(shape))
            else:
                factor = np.multiply.outer(scale, self.phase.reshape(shape))
            np.multiply(rows.reshape((sel.size,) + shape), factor,
                        out=dest[lo:lo + sel.size])
            lo += sel.size
        return out

    def combine(self, c: np.ndarray) -> np.ndarray:
        """``sum_r c[:, r] * tensor_r`` for coefficient rows c, shape (b, n):
        b tensors, ``(b, *dims)``, as a view.

        The products run on columns: c is transposed to block order with
        the pivot factors folded in, and a real block multiplies the real
        and imaginary parts of those columns together through their
        interleaved real view, so each block costs one real product of its
        size, less its leading coefficient rows that are exactly zero.  The
        results ``y_c`` map back as :meth:`_rows` maps eigenvectors: entry
        ``e j`` is ``sqrt(s_j / |G|) sum_c chars[c, e] y_c[j]``, for J
        ``[a + o, m sqrt 2, J (a - o)] / sqrt 2``, with the odd results of a
        coupled R multiplied by i first.  An unreduced block is one plain
        product.  The centre phase multiplies the result last.
        """
        c = np.asarray(c, dtype=complex)
        if c[:, self.kept:].any():
            raise ValueError(f"only the leading {self.kept} of {self.n} eigenvectors "
                             "were kept, and a coefficient past them is nonzero")
        coef = c.T[self.inverse]
        coef *= np.pad(self.pivots(self.kept), (0, self.n - self.kept),
                       constant_values=1)[self.inverse, None]
        out = np.empty(coef.shape, dtype=complex)
        if np.iscomplexobj(self.blocks[0]):
            np.matmul(self.blocks[0], coef[self.dropped[0]:], out=out)
        else:
            real_coef, real_out = coef.view(float), out.view(float)
            for w, lo, dropped in zip(self.blocks, self.starts, self.dropped):
                # Leading rows that are exactly zero add nothing, and those
                # of a cut's dropped columns are.  A draw's weights are zero
                # for eigenvalues <= 0, and those lead each block, whose
                # eigenvalues ascend.
                rows = real_coef[lo:lo + len(w)]
                skip = len(rows) - len(np.trim_zeros(rows.any(axis=1), "f"))
                np.matmul(w[:, skip - dropped:], rows[skip:],
                          out=real_out[lo:lo + len(w)])
            if self.coupled:
                out[self.starts[1]:] *= 1j
            if self.reduced:
                # coef is spent: it takes the vec-order result.
                self._unfold(real_out, real_coef)
                out = coef
        if self.phase is not None:
            out *= self.phase[:, None]
        # Column j of out is vec(tensor j): a C-order view over the reversed
        # dims, transposed.
        shaped = out.T.reshape((-1,) + self.dims[::-1])
        return shaped.transpose((0,) + tuple(range(len(self.dims), 0, -1)))

    def _unfold(self, ys: np.ndarray, out: np.ndarray) -> None:
        """Write the vec-order rows of the block results ``ys`` (rows in
        block order, each character's from ``starts``) into ``out``; see
        :meth:`combine`."""
        orbits = self.orbits
        free, size = orbits.free, len(orbits.chars)
        dests = [out[t] if isinstance(t, slice) else np.empty((free, ys.shape[1]))
                 for t in self.free_targets]
        _character_sums([ys[lo:lo + free] for lo in self.starts[:-1]], dests)
        for target, dest in zip(self.free_targets, dests):
            dest *= 1.0 / np.sqrt(size)
            if not isinstance(target, slice):
                out[target] = dest
        if orbits.images.shape[1] == free:
            return
        tail = np.empty((size, orbits.images.shape[1] - free, ys.shape[1]))
        tail[:] = ys[free:self.starts[1]]
        for c in range(1, len(self.starts) - 1):
            kept = orbits.keep[c][free:] - free
            y = ys[self.starts[c] + free:self.starts[c + 1]]
            for e in range(size):
                if orbits.chars[c, e] > 0:
                    tail[e, kept] += y
                else:
                    tail[e, kept] -= y
        tail *= self.weight[free:, None]
        for e in range(size):
            out[orbits.images[e, free:]] = tail[e]


@dataclass(frozen=True)
class Spectrum1D:
    """Descending eigenvalues and phase-fixed eigenvectors of a kernel."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def n(self) -> int:
        return self.eigenvalues.shape[0]

    def count_above(self, threshold: float) -> int:
        return int(np.count_nonzero(self.eigenvalues > threshold))


def decompose(kernel: np.ndarray) -> Spectrum1D:
    """Full dense Hermitian eigendecomposition, descending order.

    A kernel with a non-finite entry is rejected; input that is not
    exactly Hermitian is replaced by its Hermitian part first.  A complex
    kernel that is multilevel Toeplitz over the grid its rows show, as a
    gathered kernel of any dimension is, is solved through its real form;
    any other by the dense complex solve.
    """
    kernel = np.asarray(kernel)
    if kernel.ndim != 2 or not 0 < kernel.shape[0] == kernel.shape[1]:
        raise ValueError("kernel must be a non-empty square matrix")
    if not np.isfinite(kernel).all():
        raise ValueError("kernel has a non-finite entry")
    if not _hermitian_exactly(kernel):
        kernel = _hermitize(kernel)
    vals, vecs = _eigh(kernel, True)
    return Spectrum1D(vals, vecs.tensors().T)


def dpss(n: int, half_width: float) -> Spectrum1D:
    """Discrete prolate spheroidal sequences of length n for half-width W.

    Computed as the full eigendecomposition of the real symmetric baseband
    kernel ``sinc_kernel(n, 0, W)``, read as the strided view of its 1-D
    table, which needs no copy; eigenvectors are real with the
    largest-magnitude entry positive.
    """
    _check_length(n)
    _check_band(0.0, half_width)
    kernel = _strided(_hermitian(_axis_table(n, 0.0, half_width)))
    vals, vecs = _eigh(kernel, True)
    return Spectrum1D(vals, vecs.tensors().T)


def modulate(v: np.ndarray, f_c: float) -> np.ndarray:
    """Frequency-shift a vector (or the columns of a matrix) by f_c.

    Norm-preserving; maps eigenvectors of the baseband kernel to
    eigenvectors of the band-pass kernel at the same eigenvalues.
    """
    v = np.asarray(v)
    phases = np.exp(2j * np.pi * f_c * np.arange(v.shape[0]))
    if v.ndim == 1:
        return phases * v
    return phases[:, None] * v


class ClusterCounts(NamedTuple):
    near_one: int
    middle: int
    near_zero: int


def cluster_counts(eigs: np.ndarray, eps: float) -> ClusterCounts:
    """Counts of eigenvalues above ``1 - eps``, inside ``[eps, 1 - eps]``,
    and below ``eps``.

    ``eigs`` must be sorted descending; ``eps`` in (0, 1/2].  The three
    counts always sum to ``len(eigs)``.
    """
    eigs = np.asarray(eigs, dtype=float)
    if not 0.0 < eps <= 0.5:
        raise ValueError(f"eps must be in (0, 1/2], got {eps}")
    if eigs.size > 1 and np.any(np.diff(eigs) > 1e-12):
        raise ValueError("eigenvalues must be sorted descending")
    near_one = int(np.count_nonzero(eigs > 1.0 - eps))
    near_zero = int(np.count_nonzero(eigs < eps))
    return ClusterCounts(near_one, eigs.size - near_one - near_zero, near_zero)
