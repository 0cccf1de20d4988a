import numpy as np
import pytest

from mdprolate import (CubicBandUnion, OperatorSpec, ParallelepipedBand,
                       SamplingGrid)
from mdprolate.bands import cubic_violations, parallelepiped_violations

import pinned


@pytest.fixture(scope="session")
def ref_intervals():
    return CubicBandUnion.from_intervals(pinned.REF_INTERVALS)


@pytest.fixture(scope="session")
def ref_union_2d():
    return CubicBandUnion(centers=pinned.REF_2D_CENTERS,
                          half_widths=pinned.REF_2D_HALF_WIDTHS)


@pytest.fixture(scope="session")
def ref_spec_8(ref_union_2d):
    return OperatorSpec(grid=SamplingGrid((8, 8)), bands=ref_union_2d)


@pytest.fixture(scope="session")
def ref_spec_32(ref_union_2d):
    return OperatorSpec(grid=SamplingGrid((32, 32)), bands=ref_union_2d)


@pytest.fixture(scope="session")
def ref_spectrum_32(ref_spec_32):
    from mdprolate import materialize_cubic, spectrum
    return spectrum(materialize_cubic(ref_spec_32))


@pytest.fixture
def solver_sizes(monkeypatch):
    """Sizes of the matrices handed to ``np.linalg.eigvalsh``/``eigh``."""
    sizes = []

    def recording(solver):
        def call(a, *args, **kwargs):
            sizes.append(a.shape[0])
            return solver(a, *args, **kwargs)
        return call

    for name in ("eigvalsh", "eigh"):
        monkeypatch.setattr(np.linalg, name, recording(getattr(np.linalg, name)))
    return sizes


@pytest.fixture
def corrupted_verify(monkeypatch):
    """Every operator ``verify`` materializes comes back wrong: the
    zero-difference entry of its table raised by ``0.37 / size``, so its
    trace rises by 0.37.  Nothing is gathered; the copy keeps no
    demodulated table, so it is solved from the perturbed one."""
    from mdprolate import DenseCovariance, verify
    operators = verify._operators

    def corrupt(materialize):
        def corrupted(spec):
            cov = materialize(spec)
            table = cov.table.copy()
            table[tuple(n - 1 for n in cov.dims)] += 0.37 / cov.size
            return DenseCovariance(table=table, dims=cov.dims, spec=cov.spec)
        return corrupted

    monkeypatch.setattr(verify, "_operators", lambda config: [
        (name, spec, corrupt(materialize))
        for name, spec, materialize in operators(config)])


@pytest.fixture(scope="session")
def matched_pp_band():
    # area 0.04, same as a (0.1, 0.1) box
    return ParallelepipedBand(1.0, 0.4, 0.0, 1.0, (0.1, 0.1))


def random_cubic_union(rng: np.random.Generator, dim: int,
                       num_bands: int) -> CubicBandUnion:
    """Rejection-sample a valid union of disjoint boxes."""
    for _ in range(1000):
        centers = rng.uniform(-0.38, 0.38, size=(num_bands, dim))
        half_widths = rng.uniform(0.02, 0.08, size=(num_bands, dim))
        if not cubic_violations(centers, half_widths):
            return CubicBandUnion(centers, half_widths)
    raise RuntimeError("failed to sample a valid cubic union")


def random_pp_bands(rng: np.random.Generator,
                    num_bands: int) -> tuple[ParallelepipedBand, ...]:
    """Rejection-sample valid, pairwise-disjoint parallelogram bands."""
    for _ in range(2000):
        bands = []
        for _ in range(num_bands):
            a, b, c, d = rng.uniform(-1.5, 1.5, size=4)
            if abs(a * d - b * c) < 0.3:
                break
            w = rng.uniform(0.02, 0.06, size=2)
            center = rng.uniform(-0.2, 0.2, size=2)
            try:
                bands.append(ParallelepipedBand(a, b, c, d, tuple(w), tuple(center)))
            except Exception:
                break
        if len(bands) == num_bands and not parallelepiped_violations(bands):
            return tuple(bands)
    raise RuntimeError("failed to sample valid parallelogram bands")
