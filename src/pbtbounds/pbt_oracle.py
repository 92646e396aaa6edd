"""Brute-force qubit teleportation oracle for small port counts.

Builds the square-root-measurement protocol from first principles — port
states, their sum, the POVM — with no reference to the closed-form xi_M, so it
can serve as an independent check of that formula. The U x conj(U)-invariant
resource conserves the charge w(A) - w(C), so the protocol is solved per charge
sector, in real arithmetic, one sector at a time: _solve_sectors yields each
solved sector's rho^{-1/2} and kernel basis, checks that the POVM they define
resolves the identity, and keeps nothing. The global bit flip X^{M+1} fixes
every port state and pairs sector q with sector M - 1 - q, so ceil((M+2)/2)
sectors are solved. Relabelling the ports maps sigma^i to sigma^{pi(i)} and
fixes rho, so every outcome adds the same Choi block: the readout takes port
1's diagonal of Pi^1 and its entries on port 1's pairs straight from the
solve, forms no POVM block, and counts them M times; a flip partner adds the
same numbers at flipped labels. The tests form every port's dense blocks from
the same solve and keep the dense build and the explicit full-state route.

Qubit ordering: measured registers [C, A_1..A_M] (dimension 2^{M+1}); D is the
reference purifying C and B_i the receiver half of port i.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from .channels import ChoiMatrix
from .linalg import Array, DensityMatrix, _check_int
from .pbt import _depolarizing_choi_matrix  # a function of x only; xi_M is never read

# At M = 12: seven sector eigensolves (1716 dims at most); oracle_channel_choi(12) takes
# 3.0-3.5 s on one core and peaks at ~202 MB RSS in a fresh process, since only one sector's
# rho, eigenvectors and S (23.6 MB each at 1716 dims) and the identity check's products live at once.
M_MAX = 12
# Residual allowed between the computed Choi matrix and its isotropic fit.
TOL_ISO = 1e-9


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


def _solve_sectors(M: int) -> Iterator[tuple[Array, Array, Array, Array, Array]]:
    """Square-root measurement for M ports, solved one charge sector at a time.

    sigma^i = 2^{-(M-1)} Phi_{A_i C} tensor I_rest is 2^{-M} on {x0, x1}^2 for each
    pair x0 = (C=0, A_i=0, rest), x1 = (C=1, A_i=1, rest); rho = sum_i sigma^i and
    Pi^i = rho^{-1/2} sigma^i rho^{-1/2} + (I - supp(rho))/M, the inverse square
    root taken on the support. Pairs keep the charge w(A) - w(C) (w counts |1>s),
    so the M + 2 sectors q = -1..M, of dimension C(M+1, q+1), are solved apart,
    in float64 since every entry is real. On a sector rho is formed directly: its
    diagonal counts the pairs each state is in, and x1 - x0 = 2^M + 2^{M-i} differs
    per port, so each pair's off-diagonal entry is 2^{-M} alone.

    The bit flip X^{M+1} leaves every sigma^i unchanged (X tensor X fixes Phi) and
    maps sector q onto sector M - 1 - q, reversing the ascending state order. So
    only the sectors k = 0..ceil((M+2)/2) - 1 are solved; for each the generator
    yields (states, labels, pairs, S, K), with S = rho^{-1/2} on the support and K
    the kernel basis. With V_i the columns e_x0 + e_x1 of port i's pairs,
    Pi^i = 2^{-M} (S V_i)(S V_i)^T + K K^T / M. Before yielding, it checks that
    S rho S + K K^T, the sum of these Pi^i, is the identity (NaN fails too).
    """
    _check_int(M, "port count", 2, M_MAX)
    states = np.arange(2 ** (M + 1))
    charge = (states[:, None] >> np.arange(M) & 1).sum(axis=1) - (states >> M)
    for k in range((M + 3) // 2):
        sector = np.flatnonzero(charge == k - 1)
        labels, pairs = _sector_pairs(sector, M)
        rho = np.diag(np.bincount(pairs.ravel(), minlength=sector.size) / 2**M)
        rho[pairs[0], pairs[1]] = rho[pairs[1], pairs[0]] = 2.0**-M
        evals, vecs = np.linalg.eigh(rho)
        live = evals > 1e-10  # rho has exact zero eigenvalues by symmetry; below 1e-10 is one
        K = vecs[:, ~live]
        S = (vecs[:, live] / np.sqrt(evals[live])) @ vecs[:, live].T
        if not np.abs(S @ rho @ S + K @ K.T - np.eye(len(S))).max() <= 1e-10:  # NaN fails too
            raise ValueError("POVM does not resolve the identity")
        yield sector, labels, pairs, S, K


def _isotropic_fit(J: Array) -> float:
    """Depolarizing probability x of the isotropic form: J_11 = J_22 = x/4."""
    return 2.0 * (J[1, 1].real + J[2, 2].real)


def oracle_channel_choi(M: int) -> ChoiMatrix:
    """Choi matrix of the M-port channel, read off the square-root measurement.

    The protocol measures [C, A] of Phi_{C,D} tensor prod_i Phi_{A_i,B_i} and
    keeps (D, B_i) on outcome i. Moving the POVM element across the maximally
    entangled pairs, (X tensor I)|Phi> = (I tensor X^T)|Phi>, turns that
    outcome's contribution into 2^{-(M+1)} Tr_rest[(Pi^i)^T] on (C -> reference,
    A_i -> output). Permuting the ports keeps the charge, maps sigma^i to
    sigma^{pi(i)} and fixes rho, so it maps Pi^i to Pi^{pi(i)} on each sector:
    every outcome adds port 1's block, which is read once and counted M times.
    Pi^1 conserves the charge, so its trace keeps only the diagonal, binned by
    2C + A_1, and the |00><11| entry, the sum of Pi^1[x0, x1] over port 1's
    pairs; every other entry is exactly zero. Per solved sector, with
    SV = S V_1, diag Pi^1 = rowsum(SV^2) / 2^M + rowsum(K^2) / M and
    Pi^1[x0, x1] = <SV[x0], SV[x1]> / 2^M + <K[x0], K[x1]> / M.
    A flip partner holds Pi^1 reversed, with labels 3 - l: the same diagonal
    sums at flipped labels and the same pair entries. The sum is verified
    (rather than assumed) to fit the isotropic form within TOL_ISO.
    """
    diagonals, corners = [], []
    for k, (_, labels, pairs, S, K) in enumerate(_solve_sectors(M)):
        paired = 2 * k != M + 1  # at odd M the middle sector is its own partner
        x0, x1 = pairs[:, 0]  # port 1
        SV = S[:, x0] + S[:, x1]
        diagonal = (SV**2).sum(axis=1) / 2**M + (K**2).sum(axis=1) / M
        bins = np.bincount(labels[0], diagonal, minlength=4)
        corner = (SV[x0] * SV[x1]).sum() / 2**M + (K[x0] * K[x1]).sum() / M
        diagonals.append(bins + bins[::-1] if paired else bins)
        corners.append(2 * corner if paired else corner)
    total = np.diag(np.sum(diagonals, axis=0))
    total[0, 3] = total[3, 0] = np.sum(corners)
    total *= M / 2 ** (M + 1)  # M outcomes, each adding port 1's block
    if np.abs(total - _depolarizing_choi_matrix(_isotropic_fit(total))).max() > TOL_ISO:
        raise RuntimeError(f"oracle Choi for M={M} is not isotropic")
    return ChoiMatrix(DensityMatrix(total, (2, 2)))


def oracle_xi(M: int) -> float:
    """Depolarizing probability of the M-port channel: the isotropic fit of the
    summed oracle Choi matrix (RuntimeError if that matrix is not isotropic)."""
    return _isotropic_fit(oracle_channel_choi(M).matrix)
