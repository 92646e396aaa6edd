"""Hermitian linear algebra primitives for density-matrix numerics.

All states are dense complex matrices. Like numpy's generalized ufuncs, the
primitives also take a stack (..., n, n): each member is an independent
matrix and gets the numbers it would get on its own. Paired inputs must
share one shape. The module also holds the integer and interval checks that
every other module applies to its scalar arguments, since all of them import it.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf, prod

import numpy as np

# Tolerance ladder: construction invariants are tightest, derived equalities loosest.
TOL_HERM = 1e-10
TOL_TRACE = 1e-10
TOL_PSD = 1e-9
TOL_NUM = 1e-8

Array = np.ndarray


def _check_int(value, name: str, lo: int, hi: float = inf) -> None:
    """Accept an int or numpy integer, never a bool, with lo <= value <= hi."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or not lo <= value <= hi:
        bounds = f">= {lo}" if hi == inf else f"in [{lo}, {hi}]"
        raise ValueError(f"{name} {value} must be an integer {bounds}")


def _check_interval(value, name: str, lo: float, hi: float, lo_open=False, hi_open=False) -> None:
    """Accept lo <= value <= hi, strict at an open end.

    Written in the positive form, so NaN always fails, and so does an infinite
    value against a finite bound. The message reads "<name> <value> outside <interval>".
    """
    if not ((lo < value if lo_open else lo <= value) and (value < hi if hi_open else value <= hi)):
        interval = f"{'(' if lo_open else '['}{lo}, {hi}{')' if hi_open else ']'}"
        raise ValueError(f"{name} {value} outside {interval}")


def _as_matrix(obj) -> Array:
    """Accept a raw array or anything carrying a .matrix attribute."""
    mat = getattr(obj, "matrix", obj)
    return np.asarray(mat, dtype=complex)


@dataclass(frozen=True)
class DensityMatrix:
    """Unit-trace PSD matrix with subsystem-dimension metadata.

    dims lists the tensor factors in order; their product must equal the
    matrix dimension. Hermiticity, positivity and normalization are checked
    on construction, for every member of a stack (..., n, n) sharing one dims,
    with the tolerances and messages of a single matrix (a bad trace names the
    first offending member's trace). A state the library derives from validated
    inputs is stored unchecked by _trusted and carries its input's tolerance.
    """

    matrix: Array
    dims: tuple[int, ...]

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=complex)
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        if mat.ndim < 2 or mat.shape[-1] != mat.shape[-2]:
            raise ValueError(f"density matrix must be square, got shape {mat.shape}")
        if not np.isfinite(mat).all():
            raise ValueError("density matrix contains non-finite entries")
        if prod(self.dims) != mat.shape[-1]:
            raise ValueError(f"dims {self.dims} do not match dimension {mat.shape[-1]}")
        if np.abs(mat - mat.conj().swapaxes(-1, -2)).max() > TOL_HERM:
            raise ValueError("density matrix is not Hermitian within tolerance")
        for tr in mat.trace(axis1=-2, axis2=-1).reshape(-1).tolist():
            if abs(tr.real - 1.0) > TOL_TRACE or abs(tr.imag) > TOL_TRACE:
                raise ValueError(f"density matrix trace {tr} is not 1")
        if np.linalg.eigvalsh(mat).min() < -TOL_PSD:
            raise ValueError("density matrix has a negative eigenvalue beyond tolerance")

    @property
    def dim(self) -> int:
        return self.matrix.shape[-1]


def _trusted(cls, *values):
    """cls(*values), stored without __post_init__; only for states built from validated inputs."""
    obj = object.__new__(cls)
    obj.__dict__.update(zip(cls.__dataclass_fields__, values))
    return obj


def psd_sqrt(A) -> Array:
    """Matrix square root of a PSD matrix, or of each member of a stack (..., n, n).

    Eigenvalues below TOL_PSD are treated as exact zeros: a unit-trace matrix
    cannot distinguish them from rounding noise, and letting them through the
    square root would inject sqrt(eps)-scale garbage into fidelities.
    """
    evals, vecs = np.linalg.eigh(_as_matrix(A))
    evals = np.where(evals < TOL_PSD, 0.0, evals)
    return (vecs * np.sqrt(evals)[..., None, :]) @ vecs.conj().swapaxes(-1, -2)


def fidelity(rho, sigma) -> float | Array:
    """Uhlmann fidelity F = Tr sqrt(sqrt(rho) sigma sqrt(rho)).

    Computed as the nuclear norm of sqrt(rho) @ sqrt(sigma): singular values
    carry absolute eigensolver accuracy, while forming the inner product
    matrix first would square the noise floor and then take its square root.
    Two matrices give a float; two stacks of one shape (..., n, n) give the
    array (...) of member-wise fidelities, each equal to the single-pair value.
    """
    a, b = _as_matrix(rho), _as_matrix(sigma)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    sv = np.linalg.svd(psd_sqrt(a) @ psd_sqrt(b), compute_uv=False)
    F = np.minimum(sv.sum(axis=-1), 1.0)
    return float(F) if F.ndim == 0 else F


def _partial_trace_2(mat, dims, keep: int) -> Array:
    """Marginal of a two-factor matrix (or of each in a stack) on factor `keep` (0 or 1)."""
    return np.trace(mat.reshape(mat.shape[:-2] + tuple(dims) * 2), axis1=-3 - keep, axis2=-1 - keep)
