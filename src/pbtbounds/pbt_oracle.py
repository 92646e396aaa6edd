"""Brute-force qubit teleportation oracle for small port counts.

Builds the square-root-measurement protocol from first principles — port
states, their sum, the POVM — with no reference to the closed-form xi_M, so it
can serve as an independent check of that formula. The U x conj(U)-invariant
resource conserves the charge w(A) - w(C), so the build runs per charge sector,
in real arithmetic. The Choi matrix is read off the POVM alone; the tests keep
the dense full-space build and the explicit full-state route as references.

Qubit ordering: measured registers [C, A_1..A_M] (dimension 2^{M+1}); D is the
reference purifying C and B_i the receiver half of port i.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import ChoiMatrix
from .linalg import Array, DensityMatrix, _partial_trace_array
from .pbt import _depolarizing_choi_matrix  # a function of x only; xi_M is never read

# The cost is the ensemble build, per-sector eigensolves (126 dims at most at M = 8)
# and the 2M + 1 dense 2^{M+1}-dim arrays it keeps: 30-60 ms at M = 8 on one core.
M_MAX = 8
# Residual allowed between the computed Choi matrix and its isotropic fit.
TOL_ISO = 1e-9


def _check_m(M: int) -> None:
    if not isinstance(M, (int, np.integer)) or not 2 <= M <= M_MAX:
        raise ValueError(f"port count {M} outside [2, {M_MAX}]")


@dataclass(frozen=True)
class PbtEnsemble:
    """Measurement data of the M-port protocol on registers [C, A_1..A_M].

    sigma[i-1] is the (subnormalized) state signalling port i, rho_sum their
    sum, povm the square-root measurement completed by the equal split of the
    kernel projector: dense float64 arrays, block diagonal in the charge sectors
    (see build_ensemble). Sums are checked here; positivity, fixed by M, in the tests.
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
    """Square-root measurement for M ports, solved one charge sector at a time.

    sigma^i = 2^{-(M-1)} Phi_{A_i C} tensor I_rest is 2^{-M} on {x0, x1}^2 for each
    pair x0 = (C=0, A_i=0, rest), x1 = (C=1, A_i=1, rest); rho = sum_i sigma^i and
    Pi^i = rho^{-1/2} sigma^i rho^{-1/2} + (I - supp(rho))/M, the inverse square
    root taken on the support. Pairs keep the charge w(A) - w(C) (w counts |1>s),
    so the M + 2 sectors q = -1..M, of dimension C(M+1, q+1), are solved apart,
    in float64 since every entry is real.
    """
    _check_m(M)
    dim = 2 ** (M + 1)
    bits = (np.arange(dim)[:, None] >> np.arange(M, -1, -1)) & 1  # column k: qubit k
    C, A = bits[:, 0], bits[:, 1:].T
    charge = A.sum(axis=0) - C
    # row c of pairs[i-1]: the states with C = A_i = c, column j of both rows sharing a rest
    pairs = [np.stack([np.flatnonzero(C + a == 2 * c) for c in (0, 1)]) for a in A]
    sigmas = tuple(np.zeros((dim, dim)) for _ in pairs)
    for s, x in zip(sigmas, pairs):
        s[x[:, None], x] = 2.0**-M
    rho = sum(sigmas)
    povm = tuple(np.zeros((dim, dim)) for _ in pairs)
    pos = np.empty(dim, dtype=int)  # index of a basis state within its sector
    for q in range(-1, M + 1):
        sector = np.flatnonzero(charge == q)
        pos[sector] = np.arange(sector.size)
        block = np.ix_(sector, sector)
        evals, vecs = np.linalg.eigh(rho[block])
        live = evals > 1e-10  # rho has exact zero eigenvalues by symmetry; below 1e-10 is one
        S = (vecs[:, live] / np.sqrt(evals[live])) @ vecs[:, live].T
        kernel = vecs[:, ~live] @ vecs[:, ~live].T / M
        for P, x in zip(povm, pairs):
            # S V_i, where sigma^i's block is 2^{-M} V_i V_i^T with columns e_x0 + e_x1
            SV = S[:, pos[x[:, charge[x[0]] == q]]].sum(axis=1)
            P[block] = SV @ SV.T / 2**M + kernel
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
