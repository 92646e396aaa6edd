"""Brute-force qubit teleportation oracle for small port counts.

Builds the square-root-measurement protocol from first principles — port
states, their sum, the POVM — with no reference to the closed-form xi_M, so it
can serve as an independent check of that formula. The U x conj(U)-invariant
resource conserves the charge w(A) - w(C), so the build runs per charge sector,
in real arithmetic, and the ensemble keeps only the POVM's sector blocks: the
port states and their sum live only inside the per-sector solve. The global
bit flip X^{M+1} fixes every port state and pairs sector q with sector M - 1 - q,
so ceil((M+2)/2) sectors are solved and each partner's blocks are a reversed
view of its solved sector's, halving the unique block memory at even M. The
Choi matrix is read off the blocks, with the port labels and pairs the build
found. The build checks only that each solved block resolves the identity,
the one property the numerics decide; the tests pin the layout, the mirror
and positivity, fixed by M, and keep the dense full-space build and the
explicit full-state route as references.

Qubit ordering: measured registers [C, A_1..A_M] (dimension 2^{M+1}); D is the
reference purifying C and B_i the receiver half of port i.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import ChoiMatrix
from .linalg import Array, DensityMatrix, _check_int
from .pbt import _depolarizing_choi_matrix  # a function of x only; xi_M is never read

# At M = 8: five sector eigensolves (126 dims at most), 1.5 MiB of unique blocks (3.0 MiB
# with the mirrored views), 5.5-10 ms per oracle_channel_choi(8) on one core.
M_MAX = 8
# Residual allowed between the computed Choi matrix and its isotropic fit.
TOL_ISO = 1e-9


@dataclass(frozen=True)
class PbtEnsemble:
    """Square-root measurement of the M-port protocol on registers [C, A_1..A_M], per charge sector.

    sectors[k] lists in ascending order the basis states of charge
    w(A) - w(C) = k - 1; every POVM element vanishes off these sectors, so
    only its blocks are kept, in that order. povm[k] is an (M, n_k, n_k) stack
    whose entry i-1 is the block of Pi^i, completed by the equal split of the
    kernel projector (see build_ensemble). labels[k] and pairs[k] are the
    sector's port labels and pairs (see _sector_pairs), which the Choi readout
    takes from here. Sector M + 1 - k is the bit flip of sector k: its entries
    are reversed views of sector k's blocks. A plain record: build_ensemble
    checks the identity sum block by block; the layout and positivity, fixed by
    M, are pinned by tests.
    """

    M: int
    sectors: tuple[Array, ...]
    povm: tuple[Array, ...]
    labels: tuple[Array, ...]
    pairs: tuple[Array, ...]


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

    The bit flip X^{M+1} leaves every sigma^i unchanged (X tensor X fixes Phi) and
    maps sector q onto sector M - 1 - q, reversing the ascending state order. So
    only the sectors k = 0..ceil((M+2)/2) - 1 are solved; sector M + 1 - k is
    stored as the reversed view of sector k's blocks, with its labels and pairs
    mirrored to match (at odd M the middle sector is its own partner and is
    stored as solved). The identity check runs on every solved block; a mirrored
    block is an exact permutation of a checked one, so it resolves the identity
    to the same bits.
    """
    _check_int(M, "port count", 2, M_MAX)
    states = np.arange(2 ** (M + 1))
    charge = (states[:, None] >> np.arange(M) & 1).sum(axis=1) - (states >> M)
    sectors = tuple(np.flatnonzero(charge == q) for q in range(-1, M + 1))
    povm, labels, pairs = [None] * (M + 2), [None] * (M + 2), [None] * (M + 2)
    for k in range((M + 3) // 2):
        n = sectors[k].size
        lab, pair = _sector_pairs(sectors[k], M)
        sigma = np.zeros((M, n, n))
        sigma[np.arange(M)[:, None], pair[:, None], pair] = 2.0**-M
        rho = sigma.sum(axis=0)
        evals, vecs = np.linalg.eigh(rho)
        live = evals > 1e-10  # rho has exact zero eigenvalues by symmetry; below 1e-10 is one
        support, kernel = vecs[:, live], vecs[:, ~live]
        S = (support / np.sqrt(evals[live])) @ support.T
        SV = S[:, pair].sum(axis=1).transpose(1, 0, 2)
        P = SV @ SV.transpose(0, 2, 1) / 2**M + kernel @ kernel.T / M
        if not np.abs(P.sum(axis=0) - np.eye(n)).max() <= 1e-10:  # NaN fails too
            raise ValueError("POVM does not resolve the identity")
        povm[k], labels[k], pairs[k] = P, lab, pair
        j = M + 1 - k  # the flip partner; the flip turns label 2C + A_i = l into 3 - l
        if j != k:
            povm[j], labels[j], pairs[j] = P[:, ::-1, ::-1], 3 - lab[:, ::-1], n - 1 - pair[::-1, :, ::-1]
    return PbtEnsemble(M, sectors, tuple(povm), tuple(labels), tuple(pairs))


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
    labels and pairs come from the build. The sum runs over all M + 2 sector
    blocks, mirrored ones included, rather than doubling the solved ones. The
    sum over outcomes is verified (rather than assumed) to fit the isotropic
    form within TOL_ISO. Each entry is one pairwise numpy sum over its terms
    (1024 at M = 8), where a running sum drifts by 1e-15.
    """
    ens = build_ensemble(M)
    diagonal = np.hstack([P.diagonal(0, 1, 2) for P in ens.povm])
    total = np.diag((np.equal.outer(range(4), np.hstack(ens.labels)) * diagonal).sum(axis=(1, 2)))
    corner = [P[(np.arange(M)[:, None], *x)] for P, x in zip(ens.povm, ens.pairs)]
    total[0, 3] = total[3, 0] = np.hstack(corner).sum()
    total /= 2 ** (M + 1)
    if np.abs(total - _depolarizing_choi_matrix(_isotropic_fit(total))).max() > TOL_ISO:
        raise RuntimeError(f"oracle Choi for M={M} is not isotropic")
    return ChoiMatrix(DensityMatrix(total, (2, 2)))


def oracle_xi(M: int) -> float:
    """Depolarizing probability of the M-port channel: the isotropic fit of the
    summed oracle Choi matrix (RuntimeError if that matrix is not isotropic)."""
    return _isotropic_fit(oracle_channel_choi(M).matrix)
