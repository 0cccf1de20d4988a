"""Multiband time/band-limiting operators and DPSS dictionaries.

Construct operators that limit a sampled multi-dimensional signal to a
finite index set and a union of frequency subbands (axis-aligned boxes or
parallelograms), decompose them, and build low-dimensional dictionaries
from the leading eigen-tensors or their cheap modulated-DPSS surrogates.
"""

from .bands import (BandConfig, BandError, ConfigError, CubicBandUnion,
                    NyquistError, ParallelepipedBand, SamplingGrid, Violation,
                    load_band_config, scale_analog, validate)
from .dictionary import (Atom, Dictionary, SubspaceBasis, approx_mse, build_phi,
                         build_psi, cross_band_gram_violations, orthonormalize,
                         project, pseudo_eigen_residuals, sample_signal,
                         subspace_cos_theta)
from .operator import (DenseCovariance, OperatorSpec, SizeCapError, SpectrumND,
                       VerificationError, apply_cubic, ivec, materialize_cubic,
                       separable_eigenvalues, separable_spectrum, spectrum,
                       spectrum_values, trace_frobenius_gap, transition_count,
                       vec)
from .parallelepiped import (PPOperatorSpec, pp_center_invariance, pp_entry,
                             pp_materialize)
from .prolate import (ClusterCounts, Spectrum1D, cluster_counts, decompose,
                      dpss, modulate, multiband_kernel, sinc_kernel)
from .verify import default_config, verify_config

__version__ = "0.1.0"

__all__ = [
    "BandConfig", "BandError", "ConfigError", "CubicBandUnion", "NyquistError",
    "ParallelepipedBand", "SamplingGrid", "Violation", "load_band_config",
    "scale_analog", "validate",
    "Atom", "Dictionary", "SubspaceBasis", "approx_mse", "build_phi",
    "build_psi", "cross_band_gram_violations", "orthonormalize", "project",
    "pseudo_eigen_residuals", "sample_signal", "subspace_cos_theta",
    "DenseCovariance", "OperatorSpec", "SizeCapError", "SpectrumND",
    "VerificationError", "apply_cubic", "ivec", "materialize_cubic",
    "separable_eigenvalues", "separable_spectrum", "spectrum",
    "spectrum_values", "trace_frobenius_gap", "transition_count", "vec",
    "PPOperatorSpec", "pp_center_invariance", "pp_entry", "pp_materialize",
    "ClusterCounts", "Spectrum1D", "cluster_counts", "decompose", "dpss",
    "modulate", "multiband_kernel", "sinc_kernel",
    "default_config", "verify_config",
]
