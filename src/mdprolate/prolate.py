"""One-dimensional concentration kernels, and the difference-table core
every operator in the package is built from.

The covariance of a unit-power multiband process sampled at n points is a
dense Hermitian matrix whose (m, n) entry is a sum of modulated sinc terms,
one per band.  Its eigenvectors for a single baseband interval are the
discrete prolate spheroidal sequences (DPSS); eigenvalues cluster sharply
near 1 and 0 with about ``2 n W`` values near 1 per band of half-width W.

Everything here is desk-scale (n up to a few thousand): kernels are
gathered densely from their difference tables and decomposed by a dense
eigensolver.  Every gathered matrix is centro-Hermitian (``J A J =
conj(A)``, J the index reversal), so :func:`_eigh`, the one solver entry
point, reduces it to a real symmetric matrix of the same size before
solving; input without that structure takes the dense complex solve.

Modulating every band by a common ``exp(2 pi i c . x)`` moves no
eigenvalue.  So when the bands pair up as mirrors about some centre c
(a band at c pairs with itself), :func:`_demodulate` builds the table of
the operator shifted to c as an exactly real array.  Its reduced matrix
falls apart into an even and an odd block, which :func:`_eigh` fills
straight from that table and solves at half the size (Cantoni & Butler
1976); eigenvectors come back multiplied by the centre phase.  Such an
operator is never gathered: the table is all the solver reads.

:func:`_eigh` keeps the eigenvectors as the solver returned them, one
or two half-size real blocks, with their descending order and the
package's phase convention (:class:`_Eigenvectors`).  They are mapped
back only when read: to eigen-tensors, written a chunk at a time into
one array, or to linear combinations of them, formed by half-size real
products without any eigen-tensor.
"""

from __future__ import annotations

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
    if abs(f_c) + half_width > 0.5 + 1e-12:
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


# Mirror bands must agree in shape and cancel in offset from the centre to
# within this absolute constant, a few ulp of the unit-sized values
# involved.  Decimal inputs rarely give bitwise mirrors: the 1-D reference
# union [-0.15, -0.05] u [0.15, 0.25] has half-widths one ulp apart.
_MIRROR_TOL = 4.0 * np.finfo(float).eps


class _Demodulated(NamedTuple):
    """Real table of an operator whose bands are point-symmetric about
    ``center``, shifted to that centre: the operator's matrix is ``D T D^H``
    with T the table's matrix and ``D = diag(exp(2 pi i center . x))`` over
    the sample coordinates x in vec order."""

    center: np.ndarray
    table: np.ndarray


def _demodulate(bands: _BandSet) -> _Demodulated | None:
    """Demodulated table of a band set, or None when it is not
    point-symmetric.

    The centre is the midpoint of the extreme band centres.  Each band must
    pair with a mirror, or with itself when its offset is zero, both within
    :data:`_MIRROR_TOL`.  A pair adds ``2 Re(term)`` at the larger of its
    two offsets (``Re(term)`` at offset zero for a band paired with
    itself), and pairs are summed in ascending order of that offset, so the
    table does not depend on the list order.
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
    acc = 0.0
    for offset, i, weight in sorted(pairs):
        acc = acc + weight * bands.term(i, np.array(offset)).real
    return _Demodulated(center, _hermitian(acc))


def _phase(dims: tuple[int, ...], center: np.ndarray) -> np.ndarray:
    """``exp(2 pi i center . x)`` over the sample coordinates x, vec order."""
    coords = np.unravel_index(np.arange(int(np.prod(dims))), dims, order="F")
    return np.exp(2j * np.pi * sum(c * x for c, x in zip(center, coords)))


def _gather(table: np.ndarray) -> np.ndarray:
    """Dense read-only matrix of a table, rows and columns in first-axis-
    fastest order.  Read-only so it cannot drift from the table, which the
    solver may read in its place."""
    dims = tuple((s + 1) // 2 for s in table.shape)
    center = table[tuple(slice(n - 1, None) for n in dims)]
    strides = center.strides[::-1]
    view = np.lib.stride_tricks.as_strided(
        center, shape=dims[::-1] * 2,
        strides=strides + tuple(-s for s in strides), writeable=False)
    total = int(np.prod(dims))
    matrix = view.reshape(total, total)
    matrix.flags.writeable = False
    return matrix


def _apply(table: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Matrix-free product of a table's matrix with a tensor y, through a
    circulant embedding of size ``table.shape`` (any d).

    Axes of y before its last ``table.ndim`` are batch axes: every tensor
    in the batch is multiplied by the same matrix, in one batched FFT.
    """
    axes = tuple(range(y.ndim - table.ndim, y.ndim))
    transfer = np.fft.fftn(np.fft.ifftshift(table))
    padded = np.fft.fftn(y, s=table.shape, axes=axes)
    full = np.fft.ifftn(transfer * padded, axes=axes)
    return full[(...,) + tuple(slice(0, n) for n in y.shape[-table.ndim:])]


def sinc_kernel(n: int, f_c: float, half_width: float) -> np.ndarray:
    """Covariance kernel of one band ``[f_c - W, f_c + W]``.

    Entry (m, k) is ``exp(2j pi f_c (m-k)) * sin(2 pi W (m-k)) / (pi (m-k))``
    with diagonal ``2 W``.  Returned matrix is exactly Hermitian and PSD up
    to roundoff.
    """
    if n < 1:
        raise ValueError("kernel size must be positive")
    _check_band(f_c, half_width)
    return _gather(_hermitian(_axis_table(n, f_c, half_width).astype(complex)))


def multiband_kernel(n: int, union: CubicBandUnion) -> np.ndarray:
    """Covariance kernel of a 1-D multiband union: entrywise sum of
    modulated sinc kernels.  Trace equals ``n * union.measure()``."""
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


def _centro_hermitian(a: np.ndarray) -> bool:
    """Whether ``J a J == conj(a)`` holds exactly, J the full index reversal.

    Compares each block of top rows with its mirrored bottom rows, so no
    full-size copy is made.
    """
    n = a.shape[0]
    half = (n + 1) // 2
    step = max(1, 65536 // n)
    for lo in range(0, half, step):
        hi = min(lo + step, half)
        top, mirror = a[lo:hi], a[n - hi:n - lo][::-1, ::-1]
        if not (np.array_equal(mirror.real, top.real)
                and np.array_equal(mirror.imag, -top.imag)):
            return False
    return True


def _hermitian_exactly(a: np.ndarray) -> bool:
    """Whether ``a == a^H`` holds exactly, compared a block of rows at a
    time so no full-size copy is made."""
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        return False
    n = a.shape[0]
    step = max(1, 65536 // max(n, 1))
    for lo in range(0, n, step):
        if not np.array_equal(a[lo:lo + step], a[:, lo:lo + step].T.conj()):
            return False
    return True


def _matrix_blocks(a: np.ndarray) -> list[np.ndarray]:
    """The reduced matrix R of a centro-Hermitian ``a`` (see :func:`_eigh`),
    written from slices of ``a``: ``[even, odd]`` when its even/odd
    coupling is exactly zero, else ``[R]``."""
    n = a.shape[0]
    k, odd = n // 2, n % 2
    h = k + odd
    a11, a12j = a[:k, :k], a[:k, h:][:, ::-1]
    # The coupling is exactly zero when these imaginary parts are equal.
    if (np.array_equal(a12j.imag, a11.imag)
            and not (odd and a[:k, k].imag.any())):
        even_rows, odd_rows = np.empty((h, h)), np.empty((k, k))
        blocks = [even_rows, odd_rows]
    else:
        r = np.empty((n, n))
        even_rows, odd_rows = r[:h, :h], r[h:, h:]
        np.subtract(a12j.imag, a11.imag, out=r[:k, h:])
        r[h:, :k] = r[:k, h:].T
        if odd:
            np.multiply(np.sqrt(2.0), a[:k, k].imag, out=r[h:, k])
            r[k, h:] = r[h:, k]
        blocks = [r]
    np.add(a11.real, a12j.real, out=even_rows[:k, :k])
    np.subtract(a11.real, a12j.real, out=odd_rows)
    if odd:
        np.multiply(np.sqrt(2.0), a[:k, k].real, out=even_rows[:k, k])
        even_rows[k, :k] = even_rows[:k, k]
        even_rows[k, k] = a[k, k].real
    return blocks


def _table_blocks(table: np.ndarray) -> list[np.ndarray]:
    """``[even, odd]`` blocks of the reduced matrix of a real, point-
    symmetric table's matrix A, read from the table by index arithmetic.

    With ``o_i`` the table offset of sample i's coordinates and ``z`` that
    of the zero difference, ``A[i, j] = T[z + o_i - o_j]`` and the mirror
    entry ``A[i, n-1-j] = T[o_i + o_j]``.  Rows are filled a block at a
    time, so no n x n array is allocated.  The values equal the slices
    :func:`_matrix_blocks` takes from the gathered matrix.
    """
    dims = tuple((s + 1) // 2 for s in table.shape)
    n = int(np.prod(dims))
    k, odd = n // 2, n % 2
    flat = table.ravel()
    steps = np.cumprod((1,) + table.shape[:0:-1])[::-1]
    coords = np.unravel_index(np.arange(k), dims, order="F")
    off = sum(c * st for c, st in zip(coords, steps))
    zero = int(sum((m - 1) * st for m, st in zip(dims, steps)))
    even_rows, odd_rows = np.empty((k + odd, k + odd)), np.empty((k, k))
    step = max(1, 65536 // max(k, 1))
    for lo in range(0, k, step):
        hi = min(lo + step, k)
        rows = off[lo:hi, None]
        a11, a12j = flat[zero + rows - off], flat[rows + off]
        np.add(a11, a12j, out=even_rows[lo:hi, :k])
        np.subtract(a11, a12j, out=odd_rows[lo:hi])
    if odd:
        # The middle sample sits at half the zero-difference offset.
        np.multiply(np.sqrt(2.0), flat[off + zero // 2], out=even_rows[:k, k])
        even_rows[k, :k] = even_rows[:k, k]
        even_rows[k, k] = flat[zero]
    return [even_rows, odd_rows]


# Pivots are found and eigen-tensors assembled this many entries at a time,
# so the only full-size array an assembly allocates is its output.
_ASSEMBLY_CHUNK = 1 << 17


def _eigh(a, vectors: bool, demodulated: _Demodulated | None = None,
          dims: tuple[int, ...] | None = None):
    """Descending eigenvalues of a Hermitian matrix and, when ``vectors``,
    its phase-fixed eigenvectors as an :class:`_Eigenvectors`; the one
    place the package calls a dense eigensolver.

    A complex matrix with ``J a J == conj(a)``, which every gathered table
    satisfies exactly, is unitarily similar to the real symmetric
    ``R = Q^H a Q`` with ``Q = [[I, iI], [J, -iJ]] / sqrt 2`` (plus the
    middle unit vector when n is odd).  R is written block by block from
    slices of ``a`` and decomposed in float64; eigenvectors map back through
    Q.  Real input and complex input without that structure go to the
    solver unchanged.

    R couples its even rows (the top half and the middle index) to its odd
    rows (the bottom half) only through ``Im(A12 J) - Im(A11)`` and, for
    odd n, the imaginary part of the middle column.  When that coupling is
    exactly zero (a real table), R is block diagonal: the even block (size
    ``k + n % 2``) and the odd block (size ``k``) are filled as two
    half-size arrays and solved separately, without allocating R, and
    eigenvectors come back real and even (``J v = v``) or odd
    (``J v = -v``) before any centre phase.

    ``demodulated``, the real table of the same operator shifted to the
    centre of its point-symmetric band set, makes the two blocks come
    straight from that table; ``a`` is then only the size n.  Eigenvectors
    are multiplied by the centre phase ``D``: ``K v = +-v`` with
    ``K = D J D^H``.

    Eigenvalues are sorted descending by a stable sort (the even block
    first among ties).  The eigenvectors are not mapped back here: the
    solved blocks' eigenvectors are kept, with the descending order, the
    centre phase and each vector's pivot factor, and ``dims`` (default
    ``(n,)``) fixes the eigen-tensor shape they are read out in.
    """
    if demodulated is not None:
        n = a
        blocks = _table_blocks(demodulated.table)
    else:
        n = a.shape[0]
        if np.iscomplexobj(a) and _centro_hermitian(a):
            blocks = _matrix_blocks(a)
        else:
            blocks = [a]
    try:
        if vectors:
            parts = [np.linalg.eigh(b) for b in blocks]
        else:
            parts = [(np.linalg.eigvalsh(b), None) for b in blocks]
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(
            f"eigendecomposition failed for {n}x{n} matrix: {exc}") from exc
    mapped = blocks[0] is not a
    del blocks
    vals = np.concatenate([vals for vals, _ in parts])
    order = np.argsort(-vals, kind="stable")
    if not vectors:
        return vals[order], None
    dims = (n,) if dims is None else tuple(dims)
    phase = None if demodulated is None else _phase(dims, demodulated.center)
    return vals[order], _Eigenvectors([w for _, w in parts], order, mapped,
                                      dims, phase)


class _Eigenvectors:
    """The eigenvectors of one :func:`_eigh` solve, kept as the solver
    returned them.

    ``blocks`` holds the solved blocks' eigenvectors as columns: an even
    and an odd real block, one real reduced block (``mapped``), or one
    unreduced block.  Eigenvector r, in descending eigenvalue order, is
    column ``order[r]`` of the concatenated blocks mapped to a vec-order
    row by :func:`_rows`, times ``scale[r] * phase``: ``scale`` is the
    factor :func:`_pivot_scale` gives that row, ``phase`` the centre phase
    (None without one).  The two readers map the blocks back only as far
    as they need: :meth:`tensors` writes eigen-tensors, :meth:`combine`
    forms linear combinations of them with half-size real products.
    """

    def __init__(self, blocks: list[np.ndarray], order: np.ndarray,
                 mapped: bool, dims: tuple[int, ...], phase: np.ndarray | None):
        self.blocks, self.order, self.mapped = blocks, order, mapped
        self.dims, self.phase = dims, phase
        self.n = order.size
        self.scale = np.concatenate([
            _pivot_scale(_rows(blocks, sel, self.n, mapped), phase)
            for sel in self._chunks(self.n)])
        self.inverse = np.empty_like(order)
        self.inverse[order] = np.arange(self.n)

    def _chunks(self, count: int) -> list[np.ndarray]:
        step = max(1, _ASSEMBLY_CHUNK // self.n)
        return [self.order[lo:min(lo + step, count)]
                for lo in range(0, count, step)]

    def tensors(self, count: int | None = None) -> np.ndarray:
        """The first ``count`` (default all) eigen-tensors, as the rows of
        one C-contiguous ``(count, *dims)`` array, written a chunk at a
        time straight from the blocks."""
        count = self.n if count is None else count
        complex_out = self.mapped or np.iscomplexobj(self.blocks[0])
        out = np.empty((count,) + self.dims, dtype=complex if complex_out else float)
        # Through this transposed view a vec-order vector, reshaped in C order
        # to the reversed dims, lands in its tensor without an index map.
        dest = out.transpose((0,) + tuple(range(len(self.dims), 0, -1)))
        shape = self.dims[::-1]
        lo = 0
        for sel in self._chunks(count):
            rows = _rows(self.blocks, sel, self.n, self.mapped)
            scale = self.scale[lo:lo + sel.size]
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
        interleaved real view, so an even/odd pair costs two half-size real
        products.  Their results ``(a, m)`` and ``o`` map back in place as
        ``[a + o, m sqrt 2, J (a - o)] / sqrt 2`` (see :func:`_rows`), and a
        reduced block's as the same map with ``o`` i times its bottom
        half.  An unreduced block is one plain product.  The centre phase
        multiplies the result last.
        """
        n = self.n
        k, h = n // 2, n - n // 2
        coef = np.asarray(c, dtype=complex).T[self.inverse]
        coef *= self.scale[self.inverse, None]
        out = np.empty(coef.shape, dtype=complex)
        if np.iscomplexobj(self.blocks[0]):
            np.matmul(self.blocks[0], coef, out=out)
        else:
            real_coef, real_out = coef.view(float), out.view(float)
            lo = 0
            for w in self.blocks:
                hi = lo + w.shape[1]
                np.matmul(w, real_coef[lo:hi], out=real_out[lo:hi])
                lo = hi
            if self.mapped:
                if len(self.blocks) == 1:
                    out[h:] *= 1j
                # coef is spent: its top rows take a - o before the mirror.
                a, o, diff = real_out[:k], real_out[h:], real_coef[:k]
                scale = 1.0 / np.sqrt(2.0)
                np.subtract(a, o, out=diff)
                a += o
                a *= scale
                np.multiply(diff[::-1], scale, out=o)
        if self.phase is not None:
            out *= self.phase[:, None]
        # Column j of out is vec(tensor j): a C-order view over the reversed
        # dims, transposed.
        shaped = out.T.reshape((-1,) + self.dims[::-1])
        return shaped.transpose((0,) + tuple(range(len(self.dims), 0, -1)))


def _rows(ws: list[np.ndarray], sel: np.ndarray, n: int, mapped: bool) -> np.ndarray:
    """Eigenvectors ``sel`` (indices into the concatenated block spectra),
    as vec-order rows, from the solved blocks' eigenvectors ``ws``.

    An even and an odd block give the real vectors ``[u, m, J u] / sqrt 2``
    and ``[u, 0, -J u] / sqrt 2`` of their eigenvectors ``(u, m)`` and
    ``u``, scaled so that mirrored entries have exactly equal magnitude.
    One reduced block maps back through Q; an unreduced block's
    eigenvectors are the rows themselves.
    """
    k, odd = n // 2, n % 2
    h = k + odd
    scale = 1.0 / np.sqrt(2.0)
    if len(ws) == 2:
        even = sel < h
        rows = np.zeros((sel.size, n))
        rows[even, :h] = ws[0].T[sel[even]]
        rows[~even, :k] = ws[1].T[sel[~even] - h]
        rows[:, :k] *= scale
        np.multiply(rows[:, :k][:, ::-1], np.where(even, 1.0, -1.0)[:, None],
                    out=rows[:, h:])
        return rows
    y = ws[0].T[sel]
    if not mapped:
        return y
    top, bot = y[:, :k], y[:, h:]
    v = np.empty(y.shape, dtype=complex)
    np.multiply(top, scale, out=v.real[:, :k])
    np.multiply(bot, scale, out=v.imag[:, :k])
    np.multiply(top[:, ::-1], scale, out=v.real[:, h:])
    np.multiply(bot[:, ::-1], -scale, out=v.imag[:, h:])
    if odd:
        v.real[:, k], v.imag[:, k] = y[:, k], 0.0
    return v


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

    Input that is not exactly Hermitian is replaced by its Hermitian part
    first; exactly Hermitian input, such as any gathered kernel, is used
    as it is, which gives the same result without the copy.
    """
    kernel = np.asarray(kernel)
    if not _hermitian_exactly(kernel):
        kernel = _hermitize(kernel)
    vals, vecs = _eigh(kernel, True)
    return Spectrum1D(vals, vecs.tensors().T)


def dpss(n: int, half_width: float) -> Spectrum1D:
    """Discrete prolate spheroidal sequences of length n for half-width W.

    Computed as the full eigendecomposition of the real symmetric baseband
    kernel ``sinc_kernel(n, 0, W)``; eigenvectors are real with the
    largest-magnitude entry positive.
    """
    if n < 1:
        raise ValueError("sequence length must be positive")
    _check_band(0.0, half_width)
    kernel = _gather(_hermitian(_axis_table(n, 0.0, half_width)))
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
