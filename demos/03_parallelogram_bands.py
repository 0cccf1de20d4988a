#!/usr/bin/env python3
"""Sheared (parallelogram) subbands: no Kronecker structure, same clustering.

A parallelogram band couples the two sample axes, so the covariance cannot
be a Kronecker product; it still has a two-factor closed form in the index
differences.  The eigenvalues keep the trace identity and the [0, 1] range,
cluster the same way, and ignore where the band sits in frequency.
"""

import numpy as np

from mdprolate import (ParallelepipedBand, PPOperatorSpec, SamplingGrid,
                       cluster_counts, pp_center_invariance, pp_materialize,
                       spectrum_values, transition_count)

M = N = 16
band = ParallelepipedBand(1.0, 0.4, 0.0, 1.0, (0.1, 0.1), (-0.05, 0.025))
spec = PPOperatorSpec(grid=SamplingGrid((M, N)), bands=(band,))
print(f"band area          : {band.measure():.4f} (determinant {band.det:+.2f})")

cov = pp_materialize(spec)
lam = spectrum_values(cov)
print(f"trace identity     : {lam.sum():.6f} vs {M * N * band.measure():.6f}")
print(f"eigenvalue range   : [{lam.min():.3e}, {lam.max():.6f}]")
counts = cluster_counts(lam, 0.05)
print(f"cluster counts     : {counts.near_one} near 1, {counts.middle} "
      f"transition, {counts.near_zero} near 0")
print(f"transition at 0.05 : {transition_count(lam, 0.05)}")

shifted = PPOperatorSpec(grid=SamplingGrid((M, N)),
                         bands=(band.shifted((0.1, -0.05)),))
dev = pp_center_invariance(spec, shifted)
print(f"\nband moved by (0.1, -0.05): Hoffman-Wielandt bound on the 2-norm "
      f"distance of the spectra {dev:.2e}")
