"""Hermitian linear algebra primitives for density-matrix numerics.

All states are dense complex matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

import numpy as np

# Tolerance ladder: construction invariants are tightest, derived equalities loosest.
TOL_HERM = 1e-10
TOL_TRACE = 1e-10
TOL_PSD = 1e-9
TOL_NUM = 1e-8

Array = np.ndarray


def _as_matrix(obj) -> Array:
    """Accept a raw array or anything carrying a .matrix attribute."""
    mat = getattr(obj, "matrix", obj)
    return np.asarray(mat, dtype=complex)


@dataclass(frozen=True)
class DensityMatrix:
    """Unit-trace PSD matrix with subsystem-dimension metadata.

    dims lists the tensor factors in order; their product must equal the
    matrix dimension. Hermiticity, positivity and normalization are checked
    on construction.
    """

    matrix: Array
    dims: tuple[int, ...]

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=complex)
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"density matrix must be square, got shape {mat.shape}")
        if not np.isfinite(mat).all():
            raise ValueError("density matrix contains non-finite entries")
        if prod(self.dims) != mat.shape[0]:
            raise ValueError(f"dims {self.dims} do not match dimension {mat.shape[0]}")
        if np.abs(mat - mat.conj().T).max() > TOL_HERM:
            raise ValueError("density matrix is not Hermitian within tolerance")
        tr = complex(mat.trace())
        if abs(tr.real - 1.0) > TOL_TRACE or abs(tr.imag) > TOL_TRACE:
            raise ValueError(f"density matrix trace {tr} is not 1")
        if np.linalg.eigvalsh(mat).min() < -TOL_PSD:
            raise ValueError("density matrix has a negative eigenvalue beyond tolerance")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def psd_sqrt(A) -> Array:
    """Matrix square root of a PSD matrix.

    Eigenvalues below TOL_PSD are treated as exact zeros: a unit-trace matrix
    cannot distinguish them from rounding noise, and letting them through the
    square root would inject sqrt(eps)-scale garbage into fidelities.
    """
    evals, vecs = np.linalg.eigh(_as_matrix(A))
    evals = np.where(evals < TOL_PSD, 0.0, evals)
    return (vecs * np.sqrt(evals)) @ vecs.conj().T


def fidelity(rho, sigma) -> float:
    """Uhlmann fidelity F = Tr sqrt(sqrt(rho) sigma sqrt(rho)).

    Computed as the nuclear norm of sqrt(rho) @ sqrt(sigma): singular values
    carry absolute eigensolver accuracy, while forming the inner product
    matrix first would square the noise floor and then take its square root.
    """
    a, b = _as_matrix(rho), _as_matrix(sigma)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    sv = np.linalg.svd(psd_sqrt(a) @ psd_sqrt(b), compute_uv=False)
    return min(float(sv.sum()), 1.0)


def _partial_trace_2(mat, dims, keep: int) -> Array:
    """Marginal of a two-factor matrix on factor `keep` (0 or 1)."""
    return np.trace(mat.reshape(dims + dims), axis1=1 - keep, axis2=3 - keep)
