"""Brute-force qubit teleportation oracle for small port counts.

Builds the square-root-measurement protocol from first principles — port
states, their sum, the POVM — with no reference to the closed-form xi_M, so it
can serve as an independent check of that formula. The channel's Choi matrix
is read off the POVM alone (oracle_channel_choi); the tests keep the explicit
route, measurement of the 2^{2M+2}-amplitude resource state followed by port
selection, as an independent reference.

Qubit ordering: measured registers [C, A_1..A_M] (dimension 2^{M+1}); D is the
reference purifying C and B_i the receiver half of port i.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt

import numpy as np

from .channels import ChoiMatrix
from .linalg import Array, DensityMatrix, _partial_trace_array
from .pbt import _depolarizing_choi_matrix  # a function of x only; xi_M is never read

# The cost is the ensemble build: a dense eigensolve and POVM products on dim
# 2^{M+1}, about 0.8 s at M = 8 (dim 512) on one core. The Choi readout needs
# only the POVM, never the 2^{2M+2}-amplitude resource state.
M_MAX = 8
# Residual allowed between the computed Choi matrix and its isotropic fit.
TOL_ISO = 1e-9

_PHI_VEC = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / sqrt(2.0)
_PHI = np.outer(_PHI_VEC, _PHI_VEC)


def _check_m(M: int) -> None:
    if not isinstance(M, (int, np.integer)) or not 2 <= M <= M_MAX:
        raise ValueError(f"port count {M} outside [2, {M_MAX}]")


def _embed_two_qubit(op4: Array, p: int, q: int, n: int) -> Array:
    """Embed a two-qubit operator onto qubit positions (p, q) of n qubits."""
    full = np.kron(op4, np.eye(2 ** (n - 2), dtype=complex))
    rest = [i for i in range(n) if i not in (p, q)]
    order = [p, q] + rest  # order[slot] = qubit label currently in that slot
    perm = [order.index(i) for i in range(n)]
    t = full.reshape((2,) * (2 * n))
    t = t.transpose(perm + [n + j for j in perm])
    return t.reshape(2**n, 2**n)


@dataclass(frozen=True)
class PbtEnsemble:
    """Measurement data of the M-port protocol on registers [C, A_1..A_M].

    sigma[i-1] is the (subnormalized) state signalling port i, rho_sum their
    sum, povm the square-root measurement completed by the equal split of the
    kernel projector. Sums are checked here; positivity, fixed by M, in the tests.
    """

    M: int
    sigma: tuple[Array, ...]
    rho_sum: Array
    povm: tuple[Array, ...]

    def __post_init__(self):
        _check_m(self.M)
        dim = 2 ** (self.M + 1)
        if np.abs(sum(self.sigma) - self.rho_sum).max() > 1e-10:
            raise ValueError("rho_sum is not the sum of the sigma states")
        total = sum(self.povm)
        if np.abs(total - np.eye(dim)).max() > 1e-10:
            raise ValueError("POVM does not resolve the identity")


def build_ensemble(M: int) -> PbtEnsemble:
    """Square-root measurement for M ports.

    sigma^i = 2^{-(M-1)} Phi_{A_i C} tensor I_rest, rho = sum_i sigma^i,
    Pi^i = rho^{-1/2} sigma^i rho^{-1/2} + (I - supp(rho))/M, with the inverse
    square root taken on the support of rho.
    """
    _check_m(M)
    n = M + 1
    dim = 2**n
    # Phi on (A_i, C): port qubit at position i, input qubit at position 0.
    sigmas = tuple(_embed_two_qubit(_PHI, i, 0, n) / 2 ** (M - 1) for i in range(1, M + 1))
    rho = sum(sigmas)
    evals, vecs = np.linalg.eigh(rho)
    # rho has exact zero eigenvalues by symmetry; anything below 1e-10 is one.
    on_support = evals > 1e-10
    inv_sqrt = np.where(on_support, 1.0 / np.sqrt(np.where(on_support, evals, 1.0)), 0.0)
    S = (vecs * inv_sqrt) @ vecs.conj().T
    support = (vecs * on_support) @ vecs.conj().T
    povm = tuple(S @ s @ S + (np.eye(dim) - support) / M for s in sigmas)
    return PbtEnsemble(M, sigmas, rho, povm)


def _isotropic_fit(J: Array) -> float:
    """Depolarizing probability x of the isotropic form: J_11 = J_22 = x/4."""
    return 2.0 * (J[1, 1].real + J[2, 2].real)


def oracle_channel_choi(M: int) -> ChoiMatrix:
    """Choi matrix of the M-port channel, read off the square-root measurement.

    The protocol measures [C, A] of Phi_{C,D} tensor prod_i Phi_{A_i,B_i} and
    keeps (D, B_i) on outcome i. Moving the POVM element across the maximally
    entangled pairs, (X tensor I)|Phi> = (I tensor X^T)|Phi>, turns that
    outcome's contribution into 2^{-(M+1)} Tr_rest[(Pi^i)^T] on (C -> reference,
    A_i -> output). The sum over outcomes is verified (rather than assumed) to
    fit the isotropic form within TOL_ISO.
    """
    povm = build_ensemble(M).povm
    n = M + 1
    total = sum(_partial_trace_array(P.T, (2,) * n, [0, i]) for i, P in enumerate(povm, 1)) / 2**n
    if np.abs(total - _depolarizing_choi_matrix(_isotropic_fit(total))).max() > TOL_ISO:
        raise RuntimeError(f"oracle Choi for M={M} is not isotropic")
    return ChoiMatrix(DensityMatrix(total, (2, 2)))


def oracle_xi(M: int) -> float:
    """Depolarizing probability of the M-port channel: the isotropic fit of the
    summed oracle Choi matrix (RuntimeError if that matrix is not isotropic)."""
    return _isotropic_fit(oracle_channel_choi(M).matrix)
