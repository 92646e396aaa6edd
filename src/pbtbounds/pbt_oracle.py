"""Brute-force qubit teleportation oracle for small port counts.

Builds the square-root-measurement protocol from first principles — explicit
resource state, POVM, measurement, and port selection — with no reference to
the closed-form xi_M, so it can serve as an independent check of that formula.

Qubit ordering: measured registers [C, A_1..A_M] (dimension 2^{M+1}); the full
protocol state appends [D, B_1..B_M], with D the reference purifying C and B_i
the receiver half of port i.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt

import numpy as np

from .channels import ChoiMatrix
from .linalg import Array, DensityMatrix
from .pbt import _depolarizing_choi_matrix  # a function of x only; xi_M is never read

# Dense eigensolves on dim 2^{M+1}; M = 8 (dim 512) stays sub-second.
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


def _entangled_vector(M: int) -> Array:
    """Phi_{C,D} tensor prod_i Phi_{A_i,B_i} ordered [C, A_1..A_M, D, B_1..B_M]."""
    n = 2 * M + 2
    vec = np.ones(1, dtype=complex)
    for _ in range(M + 1):
        vec = np.kron(vec, _PHI_VEC)
    # kron order is [C, D, A_1, B_1, ..., A_M, B_M]; permute into place
    cur = [0, M + 1]
    for i in range(1, M + 1):
        cur += [i, M + 1 + i]
    perm = [cur.index(lbl) for lbl in range(n)]
    return vec.reshape((2,) * n).transpose(perm).reshape(2**n)


def _port_outputs(ens: PbtEnsemble) -> list[Array]:
    """Unnormalized Choi contribution of each outcome on (D, B_i).

    Measures [C, A] of the full pure state and keeps the reference D together
    with the selected port B_i, relabeled to the output slot.
    """
    M = ens.M
    n = 2 * M + 2
    psi = _entangled_vector(M)
    dim_ca = 2 ** (M + 1)
    psi_mat = psi.reshape(dim_ca, dim_ca)  # rows (C,A); cols (D,B)
    psi_t = psi.reshape((2,) * n)
    taus = []
    for i, P in enumerate(ens.povm, start=1):
        measured = (P @ psi_mat).reshape((2,) * n)
        keep = [M + 1, M + 1 + i]  # D, B_i
        rest = [q for q in range(n) if q not in keep]
        lhs = measured.transpose(keep + rest).reshape(4, -1)
        rhs = psi_t.transpose(keep + rest).reshape(4, -1)
        taus.append(lhs @ rhs.conj().T)
    return taus


def _isotropic_fit(J: Array) -> float:
    """Depolarizing probability x of the isotropic form: J_11 = J_22 = x/4."""
    return 2.0 * (J[1, 1].real + J[2, 2].real)


def oracle_channel_choi(M: int) -> ChoiMatrix:
    """Choi matrix of the M-port channel by explicit measurement and selection.

    Sums the per-outcome contributions and verifies (rather than assumes) that
    the result fits the isotropic form within TOL_ISO.
    """
    total = sum(_port_outputs(build_ensemble(M)))
    if np.abs(total - _depolarizing_choi_matrix(_isotropic_fit(total))).max() > TOL_ISO:
        raise RuntimeError(f"oracle Choi for M={M} is not isotropic")
    return ChoiMatrix(DensityMatrix(total, (2, 2)))


def oracle_xi(M: int) -> float:
    """Depolarizing probability of the M-port channel: the isotropic fit of the
    summed oracle Choi matrix (RuntimeError if that matrix is not isotropic)."""
    return _isotropic_fit(oracle_channel_choi(M).matrix)


def _choi_transpose_trick(M: int) -> Array:
    """Second route to the oracle Choi: partial transpose of the POVM.

    Projecting halves of maximally entangled pairs turns the measurement into
    2^{-(M+1)} Tr_rest[(Pi^i)^T] on positions (C -> reference, A_i -> output);
    used in tests as an internal cross-check of the explicit route.
    """
    ens = build_ensemble(M)
    n = M + 1
    total = np.zeros((4, 4), dtype=complex)
    for i, P in enumerate(ens.povm, start=1):
        t = P.T.reshape((2,) * (2 * n))
        traced = [q for q in range(n) if q not in (0, i)]
        for cnt, q in enumerate(sorted(traced, reverse=True)):
            t = np.trace(t, axis1=q, axis2=q + (n - cnt))
        total += t.reshape(4, 4) / 2 ** (M + 1)
    return total
