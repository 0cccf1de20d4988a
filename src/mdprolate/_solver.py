"""The one dense eigensolver entry point, and the eigenvectors it keeps.

Every operator is Hermitian and multilevel Toeplitz, so it is
centro-Hermitian (``J A J = conj(A)``, J the index reversal) and unitarily
similar to a real symmetric form of the same size (Cantoni & Butler 1976).
One filler, :func:`_orbit_blocks`, writes that form for :func:`_eigh`
from the operator's difference table (:mod:`mdprolate._tables`); a matrix
(hand-built, or passed to :func:`~mdprolate.prolate.decompose`) is read
as its own table over the grid its rows show, and one without such a
table takes the dense complex solve.  Every block is written as its lower
triangle alone, all the solver reads, on one schedule of bands of rows; a
real table's blocks share arrays two to one, as the Rectangular Full
Packed format stores a triangle (Gustavson et al. 2010).  A real
(demodulated) table gives one real block per character of the group G
that J and its axis symmetries generate, each about ``n / |G|`` in size,
solved separately (Faessler & Stiefel 1992); eigenvectors come back
multiplied by the centre phase.  A complex table (a band set without a
centre) gives one real block of size n, or an even and an odd block when
its coupling is exactly zero.  No table-backed operator is gathered: the
table is all the solver reads.

:func:`_eigh` keeps the eigenvectors as the solver returned them, one
real block per character or one full-size block, with their descending
order and the package's phase convention (:class:`_Eigenvectors`).  They
are mapped back only when read: to eigen-tensors, written a chunk at a
time into one array, or to linear combinations of them, formed by
block-size real products without any eigen-tensor.
"""

from __future__ import annotations

import math

import numpy as np

from ._tables import _Demodulated, _Orbits, _orbits, _toeplitz_grid, _toeplitz_table


def _span(idx: np.ndarray):
    """``idx`` as a slice when it is a run of unit step, else ``idx``."""
    if idx.size:
        step = int(idx[1] - idx[0]) if idx.size > 1 else 1
        if abs(step) == 1 and np.all(np.diff(idx) == step):
            stop = int(idx[-1]) + step
            return slice(int(idx[0]), None if stop < 0 else stop, step)
    return idx


def _phase(dims: tuple[int, ...], center: np.ndarray) -> np.ndarray:
    """``exp(2 pi i center . x)`` over the sample coordinates x, vec order."""
    coords = np.unravel_index(np.arange(int(np.prod(dims))), dims, order="F")
    return np.exp(2j * np.pi * sum(c * x for c, x in zip(center, coords)))


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
        # The public error is defined by the 1-D API, which imports this module.
        from .prolate import EigensolverError
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
