"""Independent oracles used to pin expected values.

Everything here deliberately avoids the library's code paths: kernels are
assembled from Toeplitz structure or per-entry complex arithmetic (so a
band moved past 1/2, which the library's kernels reject, is still built),
integrals are evaluated by scipy's adaptive quadrature, and
eigendecompositions go through scipy.linalg instead of numpy.linalg.

Run ``python tests/oracles.py`` to print the pinned constants used by the
test suite.
"""

from __future__ import annotations

import cmath
import math

import numpy as np
import scipy.integrate
import scipy.linalg


def toeplitz_multiband_kernel(n: int, intervals) -> np.ndarray:
    """1-D multiband kernel via scipy.linalg.toeplitz, one band at a time."""
    acc = np.zeros((n, n), dtype=complex)
    for lo, hi in intervals:
        acc += modulated_sinc(n, (lo + hi) / 2.0, (hi - lo) / 2.0)
    return acc


def modulated_sinc(n: int, f_c: float, w: float) -> np.ndarray:
    """Kernel of the band ``[f_c - w, f_c + w]`` via scipy.linalg.toeplitz,
    entry (m, k) ``exp(2j pi f_c (m-k)) sin(2 pi w (m-k)) / (pi (m-k))``.
    Defined for any centre, including one past 1/2."""
    k = np.arange(n)
    col = np.empty(n, dtype=complex)
    col[0] = 2.0 * w
    col[1:] = (np.exp(2j * np.pi * f_c * k[1:])
               * np.sin(2.0 * np.pi * w * k[1:]) / (np.pi * k[1:]))
    return scipy.linalg.toeplitz(col, col.conj())


def eigh_descending(a: np.ndarray):
    vals, vecs = scipy.linalg.eigh((a + a.conj().T) / 2.0)
    return vals[::-1], vecs[:, ::-1]


def quad_entry_1d(intervals, k: int, tol: float = 1e-12) -> complex:
    """Adaptive quadrature of exp(2j pi f k) over a union of intervals."""
    total = 0.0 + 0.0j
    for lo, hi in intervals:
        re, _ = scipy.integrate.quad(lambda f: math.cos(2 * math.pi * f * k),
                                     lo, hi, epsabs=tol, epsrel=tol, limit=400)
        im, _ = scipy.integrate.quad(lambda f: math.sin(2 * math.pi * f * k),
                                     lo, hi, epsabs=tol, epsrel=tol, limit=400)
        total += re + 1j * im
    return total


def quad_entry_parallelogram(a, b, c, d, w0, w1, center, t, s,
                             tol: float = 1e-10) -> complex:
    """Iterated adaptive quadrature of exp(2j pi (t f + s g)) over the
    parallelogram {|a f + b g| <= w0, |c f + d g| <= w1} + center.

    Integrates in (f, g) coordinates directly: the f-range comes from the
    corner projections, and for each f the admissible g values form an
    interval obtained by intersecting the two strip constraints.
    """
    inv = np.linalg.inv(np.array([[a, b], [c, d]], dtype=float))
    uv = np.array([[w0, w1], [-w0, w1], [-w0, -w1], [w0, -w1]])
    corners = uv @ inv.T
    f_lo, f_hi = corners[:, 0].min(), corners[:, 0].max()

    def g_interval(f):
        lo, hi = -np.inf, np.inf
        for coef_f, coef_g, w in ((a, b, w0), (c, d, w1)):
            if abs(coef_g) < 1e-15:
                if abs(coef_f * f) > w:
                    return 0.0, 0.0
                continue
            g1 = (-w - coef_f * f) / coef_g
            g2 = (w - coef_f * f) / coef_g
            lo = max(lo, min(g1, g2))
            hi = min(hi, max(g1, g2))
        if lo >= hi:
            return 0.0, 0.0
        return lo, hi

    def inner(f, trig):
        lo, hi = g_interval(f)
        if lo == hi:
            return 0.0
        val, _ = scipy.integrate.quad(
            lambda g: trig(2 * math.pi * (t * f + s * g)), lo, hi,
            epsabs=tol, epsrel=tol, limit=200)
        return val

    # The g-limits switch constraint lines at the corner f-coordinates;
    # integrating each smooth piece separately keeps the outer error tiny.
    breaks = sorted(set([f_lo, f_hi]) | set(corners[:, 0]))
    re = im = 0.0
    for lo, hi in zip(breaks, breaks[1:]):
        if hi - lo < 1e-15:
            continue
        piece_re, _ = scipy.integrate.quad(lambda f: inner(f, math.cos), lo, hi,
                                           epsabs=tol, epsrel=tol, limit=200)
        piece_im, _ = scipy.integrate.quad(lambda f: inner(f, math.sin), lo, hi,
                                           epsabs=tol, epsrel=tol, limit=200)
        re += piece_re
        im += piece_im
    phase = cmath.exp(2j * math.pi * (t * center[0] + s * center[1]))
    return phase * (re + 1j * im)


def entrywise_cubic_covariance(m: int, n: int, bands) -> np.ndarray:
    """2-D cubic covariance assembled entry by entry with cmath.

    ``bands`` is a list of (center, half_width) pairs of 2-vectors.  Row
    index is m + M * n (first axis fastest), matching the library's vec
    convention but built by explicit loops.
    """

    def one_axis(diff, f_c, w):
        if diff == 0:
            return complex(2.0 * w)
        return (cmath.exp(2j * math.pi * f_c * diff)
                * math.sin(2.0 * math.pi * w * diff) / (math.pi * diff))

    size = m * n
    out = np.zeros((size, size), dtype=complex)
    for n1 in range(n):
        for m1 in range(m):
            row = m1 + m * n1
            for n2 in range(n):
                for m2 in range(m):
                    col = m2 + m * n2
                    val = 0.0 + 0.0j
                    for (f, w) in bands:
                        val += (one_axis(m1 - m2, f[0], w[0])
                                * one_axis(n1 - n2, f[1], w[1]))
                    out[row, col] = val
    return out


def tridiagonal_dpss(n: int, w: float, k: int) -> np.ndarray:
    """Leading k DPSS vectors from the classical commuting tridiagonal matrix."""
    m = np.arange(n)
    diag = ((n - 1) / 2.0 - m) ** 2 * math.cos(2 * math.pi * w)
    off = np.arange(1, n) * np.arange(n - 1, 0, -1) / 2.0
    vals, vecs = scipy.linalg.eigh_tridiagonal(diag, off)
    vecs = vecs[:, ::-1][:, :k]
    signs = np.where(vecs[np.argmax(np.abs(vecs), axis=0),
                          np.arange(vecs.shape[1])] < 0, -1.0, 1.0)
    return vecs * signs



def matrix_blocks(a: np.ndarray) -> list[np.ndarray]:
    """The reduced matrix R of a centro-Hermitian ``a``, ``Q^H a Q`` with
    ``Q = [[I, iI], [J, -iJ]] / sqrt 2`` (plus the middle unit vector when n
    is odd), written from slices of ``a``: ``[even, odd]`` when its even/odd
    coupling is exactly zero, else ``[R]``.  The package's former matrix
    filler, kept as the bitwise reference of its real form."""
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


def character_blocks(a: np.ndarray, images, stab, keep) -> list[np.ndarray]:
    """The real blocks of a real symmetric ``a`` that commutes with a group
    G of sample permutations, read from ``a`` by fancy indexing.

    ``images[e]`` lists where element e maps each orbit's representative
    (``images[0]``), ``stab`` the orbits' stabiliser sizes and ``keep[c]``
    the orbits of block c.  Block c is ``sum_e chi_c(e) a[i, e j] /
    sqrt(s_i s_j)`` with the Sylvester characters, summed in the order of
    an in-place fast Walsh-Hadamard transform (pairs at distance 1, 2, 4,
    ...), the order whose roundoff the package's filler has.
    """
    parts = [a[np.ix_(images[0], img)] for img in images]
    span = 1
    while span < len(parts):
        for lo in range(0, len(parts), 2 * span):
            for j in range(lo, lo + span):
                parts[j], parts[j + span] = (parts[j] + parts[j + span],
                                             parts[j] - parts[j + span])
        span *= 2
    weight = np.sqrt(1.0 / np.multiply.outer(stab, stab))
    return [(total * weight)[np.ix_(rows, rows)] for total, rows in zip(parts, keep)]


def completed(packed: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """The full block of a packed one, its lower triangle mirrored above
    the diagonal, after asserting that ``reference`` is exactly symmetric:
    a packed block's upper triangle holds its partner's entries, so only
    its lower triangle can be compared, and the completion is the whole
    block only for a symmetric reference.  Entries are picked, not added
    to zeros, so the sign of a zero survives."""
    assert reference.tobytes() == np.ascontiguousarray(reference.T).tobytes()
    return np.where(np.tri(len(packed), dtype=bool), packed, packed.T)


def centro_hermitian(a: np.ndarray) -> bool:
    """Whether ``J a J == conj(a)`` holds exactly (as values), J the full
    index reversal."""
    a = np.asarray(a)
    return np.array_equal(a[::-1, ::-1], a.conj())


def modulation_invariance_reference(n: int, union) -> float:
    """The 1-D translation row at full size: the largest deviation of the
    union's spectrum from that of the union moved by verify's fixed step
    0.02, each summed from hand-built :func:`modulated_sinc` kernels (a
    moved band may pass 1/2) and solved by a complex ``eigvalsh`` of size
    n.  Kept as the reference the row bounds from above: the row solves
    nothing, and is the Frobenius norm of the moved union's table,
    recentred by the step and the solved table's centre, less the solved
    table, which bounds the 2-norm of the two spectra's difference (about
    2.7e-14 at n = 512)."""
    def values(shift):
        return np.linalg.eigvalsh(sum(
            modulated_sinc(n, f + shift, w)
            for f, w in zip(union.centers[:, 0], union.half_widths[:, 0])))

    return float(np.max(np.abs(values(0.02) - values(0.0))))


REF_INTERVALS = ((-0.15, -0.05), (0.15, 0.25))

REF_2D_BANDS = (((-0.15, -0.10), (0.10, 0.10)),
                ((0.20, 0.15), (0.10, 0.10)))


def _print_pins():
    np.set_printoptions(precision=17)

    lam, _ = eigh_descending(toeplitz_multiband_kernel(256, REF_INTERVALS))
    print("1d n=256 two intervals:")
    print("  count >0.5:", int(np.sum(lam > 0.5)))
    print("  count in (0.05,0.95):", int(np.sum((lam > 0.05) & (lam < 0.95))))
    print("  count in [0.05,0.95]:", int(np.sum((lam >= 0.05) & (lam <= 0.95))))

    lam16, _ = eigh_descending(toeplitz_multiband_kernel(16, ((-0.25, 0.25),)))
    n1 = int(np.sum(lam16 > 0.95))
    nz = int(np.sum(lam16 < 0.05))
    print("dpss n=16 W=0.25 eps=0.05 triple:", (n1, 16 - n1 - nz, nz))

    k = toeplitz_multiband_kernel(256, REF_INTERVALS)
    for diff in (3,):
        q = quad_entry_1d(REF_INTERVALS, diff)
        print(f"1d entry diff={diff}: kernel={k[diff, 0]!r} quad={q!r} "
              f"err={abs(k[diff, 0] - q):.3e}")


if __name__ == "__main__":
    _print_pins()
