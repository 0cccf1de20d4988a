#!/usr/bin/env python3
"""The 2-D time/band-limiting operator for box-shaped subbands.

Applies the operator two ways (FFT apply of its difference table vs dense
matrix on the vectorized input), confirms the trace identity
sum(lambda) = M N |bands|, and shows that a single box factorizes: its eigenvalues are products of
two 1-D DPSS eigenvalue sequences.
"""

import numpy as np

from mdprolate import (CubicBandUnion, OperatorSpec, SamplingGrid, apply_cubic,
                       materialize_cubic, separable_eigenvalues, spectrum, vec)

M = N = 12
bands = CubicBandUnion(centers=[[-0.15, -0.10], [0.20, 0.15]],
                       half_widths=[[0.10, 0.10], [0.10, 0.10]])
spec = OperatorSpec(grid=SamplingGrid((M, N)), bands=bands)

rng = np.random.default_rng(0)
y = rng.standard_normal((M, N)) + 1j * rng.standard_normal((M, N))

out_fft = apply_cubic(spec, y)
cov = materialize_cubic(spec)
out_dense = cov.matrix @ vec(y)
agree = np.linalg.norm(vec(out_fft) - out_dense) / np.linalg.norm(out_dense)
print(f"FFT apply vs dense action, relative difference: {agree:.2e}")

sp = spectrum(cov)
print(f"sum of eigenvalues : {sp.eigenvalues.sum():.6f}")
print(f"M N * measure      : {M * N * bands.measure():.6f}")
print(f"eigenvalue range   : [{sp.eigenvalues.min():.3e}, {sp.eigenvalues.max():.6f}]")

one_box = CubicBandUnion(centers=[[0.0, 0.0]], half_widths=[[0.10, 0.07]])
dense = spectrum(materialize_cubic(
    OperatorSpec(grid=SamplingGrid((M, N)), bands=one_box))).eigenvalues
products = separable_eigenvalues(M, N, one_box)
print(f"\nsingle box: dense eigenvalues vs 1-D products, max difference: "
      f"{np.abs(dense - products).max():.2e}")
print("top five:", np.array2string(dense[:5], precision=6))
