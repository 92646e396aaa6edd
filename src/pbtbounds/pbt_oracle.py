"""Brute-force qubit teleportation oracle for small port counts.

Builds the square-root-measurement protocol from first principles — port
states, their sum, the POVM — with no reference to the closed-form xi_M, so it
can serve as an independent check of that formula. The U x conj(U)-invariant
resource conserves the charge w(A) - w(C), so the build runs per charge sector,
in real arithmetic, and the ensemble keeps only each operator's sector blocks.
The Choi matrix is read off the POVM blocks alone; the tests keep the dense
full-space build and the explicit full-state route as references.

Qubit ordering: measured registers [C, A_1..A_M] (dimension 2^{M+1}); D is the
reference purifying C and B_i the receiver half of port i.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import ChoiMatrix
from .linalg import Array, DensityMatrix, _check_int
from .pbt import _depolarizing_choi_matrix  # a function of x only; xi_M is never read

# At M = 8: ten sector eigensolves (126 dims at most), 6.3 MiB of blocks, 15-26 ms on one core.
M_MAX = 8
# Residual allowed between the computed Choi matrix and its isotropic fit.
TOL_ISO = 1e-9


@dataclass(frozen=True)
class PbtEnsemble:
    """Measurement data of the M-port protocol on registers [C, A_1..A_M], per charge sector.

    sectors[k] lists in ascending order the basis states of charge
    w(A) - w(C) = k - 1; every operator below vanishes off these sectors, so
    only its block on each is kept, in that order. rho_sum[k] is the block of
    rho = sum_i sigma^i, and sigma[k], povm[k] are (M, n_k, n_k) stacks whose
    entry i-1 is the block of the (subnormalized) state signalling port i and of
    the square-root measurement element Pi^i, completed by the equal split of
    the kernel projector (see build_ensemble). The layout and the sums are
    checked here; positivity, fixed by M, in the tests.
    """

    M: int
    sectors: tuple[Array, ...]
    rho_sum: tuple[Array, ...]
    sigma: tuple[Array, ...]
    povm: tuple[Array, ...]

    def __post_init__(self):
        _check_int(self.M, "port count", 2, M_MAX)
        if not np.array_equal(np.sort(np.concatenate(self.sectors)), np.arange(2 ** (self.M + 1))):
            raise ValueError("sectors do not partition the basis")
        shapes = [(s.size, s.size) for s in self.sectors]
        layout = [[b.shape for b in blocks] for blocks in (self.rho_sum, self.sigma, self.povm)]
        if layout != [shapes, *[[(self.M, *n) for n in shapes]] * 2]:
            raise ValueError("block shapes do not match the sector sizes")
        if max(np.abs(s.sum(axis=0) - r).max() for s, r in zip(self.sigma, self.rho_sum)) > 1e-10:
            raise ValueError("rho_sum is not the sum of the sigma states")
        if max(np.abs(P.sum(axis=0) - np.eye(P.shape[-1])).max() for P in self.povm) > 1e-10:
            raise ValueError("POVM does not resolve the identity")


def _sector_pairs(sector: Array, M: int) -> tuple[Array, Array]:
    """Port labels and pairs of one sector, as positions within it.

    Returns the (M, n) labels 2C + A_i of the sector's states (row i-1 for
    port i) and the (2, M, p) pairs: row i-1 of pairs[0] holds the states with
    C = A_i = 0, the same row of pairs[1] their partners C = A_i = 1 with the
    same rest. A partner is its state plus a fixed offset, so both lists ascend
    together; and every port pairs the same number p of states in a sector,
    since the charge is symmetric in the ports.
    """
    labels = 2 * (sector >> M) + (sector >> np.arange(M - 1, -1, -1)[:, None] & 1)
    return labels, np.nonzero(np.equal.outer((0, 3), labels))[2].reshape(2, M, -1)


def build_ensemble(M: int) -> PbtEnsemble:
    """Square-root measurement for M ports, solved one charge sector at a time.

    sigma^i = 2^{-(M-1)} Phi_{A_i C} tensor I_rest is 2^{-M} on {x0, x1}^2 for each
    pair x0 = (C=0, A_i=0, rest), x1 = (C=1, A_i=1, rest); rho = sum_i sigma^i and
    Pi^i = rho^{-1/2} sigma^i rho^{-1/2} + (I - supp(rho))/M, the inverse square
    root taken on the support. Pairs keep the charge w(A) - w(C) (w counts |1>s),
    so the M + 2 sectors q = -1..M, of dimension C(M+1, q+1), are solved apart,
    in float64 since every entry is real. On a sector, with S = rho^{-1/2} and
    sigma^i = 2^{-M} V_i V_i^T (columns e_x0 + e_x1), Pi^i = 2^{-M} (S V_i)(S V_i)^T
    plus the kernel share: one eigensolve and one batched product over the ports.
    """
    _check_int(M, "port count", 2, M_MAX)
    states = np.arange(2 ** (M + 1))
    charge = (states[:, None] >> np.arange(M) & 1).sum(axis=1) - (states >> M)
    sectors = tuple(np.flatnonzero(charge == q) for q in range(-1, M + 1))
    blocks = []  # (rho, sigma, povm) of each sector
    for sector in sectors:
        pairs = _sector_pairs(sector, M)[1]
        sigma = np.zeros((M, sector.size, sector.size))
        sigma[np.arange(M)[:, None], pairs[:, None], pairs] = 2.0**-M
        rho = sigma.sum(axis=0)
        evals, vecs = np.linalg.eigh(rho)
        live = evals > 1e-10  # rho has exact zero eigenvalues by symmetry; below 1e-10 is one
        support, kernel = vecs[:, live], vecs[:, ~live]
        S = (support / np.sqrt(evals[live])) @ support.T
        SV = S[:, pairs].sum(axis=1).transpose(1, 0, 2)
        blocks.append((rho, sigma, SV @ SV.transpose(0, 2, 1) / 2**M + kernel @ kernel.T / M))
    return PbtEnsemble(M, sectors, *zip(*blocks))


def _isotropic_fit(J: Array) -> float:
    """Depolarizing probability x of the isotropic form: J_11 = J_22 = x/4."""
    return 2.0 * (J[1, 1].real + J[2, 2].real)


def oracle_channel_choi(M: int) -> ChoiMatrix:
    """Choi matrix of the M-port channel, read off the square-root measurement.

    The protocol measures [C, A] of Phi_{C,D} tensor prod_i Phi_{A_i,B_i} and
    keeps (D, B_i) on outcome i. Moving the POVM element across the maximally
    entangled pairs, (X tensor I)|Phi> = (I tensor X^T)|Phi>, turns that
    outcome's contribution into 2^{-(M+1)} Tr_rest[(Pi^i)^T] on (C -> reference,
    A_i -> output). Pi^i conserves the charge, so that trace keeps only the
    diagonal, binned by 2C + A_i, and the |00><11| entry, the sum of
    Pi^i[x0, x1] over port i's pairs; every other entry is exactly zero. The
    sum over outcomes is verified (rather than assumed) to fit the isotropic
    form within TOL_ISO. Each entry is one pairwise numpy sum over its terms
    (1024 at M = 8), where a running sum drifts by 1e-15.
    """
    ens = build_ensemble(M)
    labels, pairs = zip(*(_sector_pairs(sector, M) for sector in ens.sectors))
    diagonal = np.hstack([P.diagonal(0, 1, 2) for P in ens.povm])
    total = np.diag((np.equal.outer(range(4), np.hstack(labels)) * diagonal).sum(axis=(1, 2)))
    corner = [P[(np.arange(M)[:, None], *x)] for P, x in zip(ens.povm, pairs)]
    total[0, 3] = total[3, 0] = np.hstack(corner).sum()
    total /= 2 ** (M + 1)
    if np.abs(total - _depolarizing_choi_matrix(_isotropic_fit(total))).max() > TOL_ISO:
        raise RuntimeError(f"oracle Choi for M={M} is not isotropic")
    return ChoiMatrix(DensityMatrix(total, (2, 2)))


def oracle_xi(M: int) -> float:
    """Depolarizing probability of the M-port channel: the isotropic fit of the
    summed oracle Choi matrix (RuntimeError if that matrix is not isotropic)."""
    return _isotropic_fit(oracle_channel_choi(M).matrix)
