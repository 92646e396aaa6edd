"""Brute-force protocol construction against the closed forms."""

import tracemalloc
from math import comb, sqrt

import numpy as np
import pytest

from conftest import _sector_pairs, oracle_blocks, oracle_povm
from pbtbounds import cli, pbt_oracle
from pbtbounds.pbt import pbt_choi_qubit, xi
from pbtbounds.pbt_oracle import M_MAX, _isotropic_fit, _solve_sectors, oracle_channel_choi, oracle_xi

# Explicit full-state route: the reference for the library's POVM partial trace.
# It measures the resource state itself and contracts indices by hand, so a
# fault in linalg's partial trace cannot hide in both routes.

_PHI_VEC = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / sqrt(2.0)


def _entangled_vector(M):
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


def _port_outputs(M):
    """Unnormalized Choi contribution of each outcome on (D, B_i).

    Measures [C, A] of the full pure state and keeps the reference D together
    with the selected port B_i, relabeled to the output slot.
    """
    n = 2 * M + 2
    psi = _entangled_vector(M)
    dim_ca = 2 ** (M + 1)
    psi_mat = psi.reshape(dim_ca, dim_ca)  # rows (C,A); cols (D,B)
    psi_t = psi.reshape((2,) * n)
    taus = []
    for i, P in enumerate(oracle_povm(M), start=1):
        measured = (P @ psi_mat).reshape((2,) * n)
        keep = [M + 1, M + 1 + i]  # D, B_i
        rest = [q for q in range(n) if q not in keep]
        lhs = measured.transpose(keep + rest).reshape(4, -1)
        rhs = psi_t.transpose(keep + rest).reshape(4, -1)
        taus.append(lhs @ rhs.conj().T)
    return taus


# Dense full-space square-root measurement: the reference for the library's
# per-sector build. It embeds Phi with kron and a qubit transpose and solves on
# all 2^{M+1} dims in complex arithmetic, assuming no charge symmetry.

_PHI = np.outer(_PHI_VEC, _PHI_VEC)


def _embed_two_qubit(op4, p, q, n):
    """Embed a two-qubit operator onto qubit positions (p, q) of n qubits."""
    full = np.kron(op4, np.eye(2 ** (n - 2), dtype=complex))
    rest = [i for i in range(n) if i not in (p, q)]
    order = [p, q] + rest  # order[slot] = qubit label currently in that slot
    perm = [order.index(i) for i in range(n)]
    t = full.reshape((2,) * (2 * n))
    t = t.transpose(perm + [n + j for j in perm])
    return t.reshape(2**n, 2**n)


def _dense_ensemble(M):
    """(sigma stack, rho, POVM stack) of the square-root measurement on all 2^{M+1} dims."""
    n = M + 1
    dim = 2**n
    # Phi on (A_i, C): port qubit at position i, input qubit at position 0.
    sigmas = np.array([_embed_two_qubit(_PHI, i, 0, n) / 2 ** (M - 1) for i in range(1, M + 1)])
    rho = sigmas.sum(axis=0)
    evals, vecs = np.linalg.eigh(rho)
    on_support = evals > 1e-10
    inv_sqrt = np.where(on_support, 1.0 / np.sqrt(np.where(on_support, evals, 1.0)), 0.0)
    S = (vecs * inv_sqrt) @ vecs.conj().T
    support = (vecs * on_support) @ vecs.conj().T
    povm = np.array([S @ s @ S + (np.eye(dim) - support) / M for s in sigmas])
    return sigmas, rho, povm


def _charge(M):
    """w(A) - w(C) of each basis state of [C, A_1..A_M], C the leading bit."""
    return np.array([bin(x % 2**M).count("1") - x // 2**M for x in range(2 ** (M + 1))])


# Every solve at an odd and an even M (at M = 3 the last one is the middle
# sector, its own flip partner). Solve 0 is the one-state sector C = 1,
# A = 0..0, where rho = 0: scaling its zero spectrum changes nothing.
_EIGH_FAULTS = [
    (fault, M, solve)
    for fault in ("scaled", "lifted", "nan")
    for M in (3, 4)
    for solve in range((M + 3) // 2)
    if (fault, solve) != ("scaled", 0)
]


class TestEnsemble:
    def test_povm_completeness(self):
        for M in (2, 3, 4):
            povm = oracle_povm(M)
            assert np.abs(povm.sum(axis=0) - np.eye(2 ** (M + 1))).max() < 1e-10

    def test_outcome_probabilities_uniform(self):
        for M in (2, 3, 5):
            traces = sum(np.trace(P, axis1=1, axis2=2) for _, P in oracle_blocks(M))
            for prob in traces / 2 ** (M + 1):
                assert prob == pytest.approx(1.0 / M, abs=1e-10)

    def test_port_range(self):
        # checked before any array is formed: the solve is a generator, so the
        # check fires on its first step
        for M in (1, M_MAX + 1):
            with pytest.raises(ValueError, match="port count"):
                next(_solve_sectors(M))
            with pytest.raises(ValueError, match="port count"):
                oracle_channel_choi(M)

    @pytest.mark.parametrize("M", range(2, 9))
    def test_measurement_data_positive_semidefinite(self, M):
        # the solve checks only the sum; the POVM is a fixed function of M, so
        # positivity is pinned here once per M, block by block (every POVM
        # element vanishes off its sector blocks)
        for _, stack in oracle_blocks(M):
            assert np.linalg.eigvalsh(stack).min() >= -1e-9

    @pytest.mark.parametrize("M", range(2, 8))
    def test_sector_build_matches_dense_reference(self, M):
        # sigma and rho feed both builds, so a fault in either shows up in Pi
        got, want = oracle_povm(M), _dense_ensemble(M)[2]
        assert got.shape == want.shape
        assert all(S.dtype == K.dtype == np.float64 for _, S, K in _solve_sectors(M))
        assert np.abs(got - want).max() < 1e-12

    def test_readout_holds_one_sector_at_a_time(self):
        # no POVM block is stored: at M = 8 the largest sector's S is 126 x 126
        # (0.12 MiB), against 4.4 MiB peak for a build that kept every block
        oracle_channel_choi(8)
        tracemalloc.start()
        try:
            oracle_channel_choi(8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * 2**20

    @pytest.mark.parametrize("M", range(2, 7))
    def test_dense_reference_conserves_charge(self, M):
        # the symmetry the sector build relies on, read off the build that
        # does not assume it
        (_, rho, povm), charge = _dense_ensemble(M), _charge(M)
        off_sector = charge[:, None] != charge[None, :]
        assert np.all(rho[off_sector] == 0)
        assert max(np.abs(P[off_sector]).max() for P in povm) <= 1e-14
        sizes = [int(np.sum(charge == q)) for q in range(-1, M + 1)]
        assert sizes == [comb(M + 1, q + 1) for q in range(-1, M + 1)]
        assert sum(sizes) == 2 ** (M + 1)
        for q in range(-1, M + 1):
            sector = np.flatnonzero(charge == q)
            evals = np.linalg.eigvalsh(rho[np.ix_(sector, sector)])
            assert int(np.sum(evals < 1e-10)) == 1

    @pytest.mark.parametrize("M", range(2, 7))
    def test_dense_reference_is_flip_symmetric(self, M):
        # the symmetry the mirrored readout relies on, read off the build that
        # does not assume it: X^{M+1} sends basis state x to 2^{M+1} - 1 - x,
        # so conjugating by it reverses both axes
        (sigmas, rho, povm), charge = _dense_ensemble(M), _charge(M)
        assert all(np.array_equal(s[::-1, ::-1], s) for s in sigmas)
        assert np.array_equal(rho[::-1, ::-1], rho)
        assert max(np.abs(P[::-1, ::-1] - P).max() for P in povm) <= 1e-14
        assert np.array_equal(charge[::-1], M - 1 - charge)  # sector q onto sector M - 1 - q

    @pytest.mark.parametrize("M", range(2, 11))
    def test_partner_sectors_are_mirrored_views(self, M):
        # sector M + 1 - k is the flip of sector k: a fresh count of its labels
        # and pairs gives k's reversed, with label l turned into 3 - l, which is
        # what lets the readout add k's sums at flipped labels
        charge = _charge(M)
        for k, (states, S, _) in enumerate(_solve_sectors(M)):
            partner = 2 ** (M + 1) - 1 - states[::-1]
            assert np.array_equal(partner, np.flatnonzero(charge == M - k))
            labels, pairs = _sector_pairs(states, M)
            partner_labels, partner_pairs = _sector_pairs(partner, M)
            assert np.array_equal(partner_labels, 3 - labels[:, ::-1])
            assert np.array_equal(partner_pairs, len(S) - 1 - pairs[::-1, :, ::-1])

    @pytest.mark.parametrize("M", range(2, 11))
    def test_one_eigensolve_per_flip_pair(self, monkeypatch, M):
        # ceil((M + 2) / 2) solves, on sectors 0.. in order, and none in the readout
        eigh, solved = np.linalg.eigh, []
        monkeypatch.setattr(np.linalg, "eigh", lambda a: solved.append(a.shape[0]) or eigh(a))
        oracle_channel_choi(M)
        assert solved == [comb(M + 1, k) for k in range((M + 3) // 2)]

    @pytest.mark.parametrize("M", range(2, 11))
    def test_layout_fixed_by_port_count(self, M):
        # the solve checks only the identity sum; the layout it yields is a
        # function of M, pinned here once per M
        charge, seen = _charge(M), []
        for k, (states, S, K) in enumerate(_solve_sectors(M)):
            n = states.size
            assert S.shape == (n, n) and K.shape == (n, 1)  # one zero eigenvalue per sector
            seen += [states, 2 ** (M + 1) - 1 - states]
        assert np.array_equal(np.unique(np.concatenate(seen)), np.arange(2 ** (M + 1)))

    @pytest.mark.parametrize("M", range(2, 11))
    def test_every_port_reads_like_port_one(self, M):
        # the readout reads port 1 of each solved sector and counts it M times;
        # here every port's diagonal bins and corner are read off its dense block
        for states, S, K in _solve_sectors(M):
            labels, pairs = _sector_pairs(states, M)
            read = []
            for i in range(M):
                x0, x1 = pairs[:, i]
                SV = S[:, x0] + S[:, x1]
                P = SV @ SV.T / 2**M + K @ K.T / M
                bins = [np.diag(P)[labels[i] == label].sum() for label in range(4)]
                read.append([*bins, P[x0, x1].sum()])
            assert np.abs(np.array(read) - read[0]).max() < 1e-12

    @pytest.mark.parametrize(("fault", "M", "solve"), _EIGH_FAULTS)
    def test_build_checks_identity_on_every_block(self, monkeypatch, fault, M, solve):
        # a fault in one eigensolve alone (its eigenvalues scaled, or lifted so
        # that the zero one joins the support, or NaN eigenvectors) must stop
        # the readout, whichever solve it hits
        eigh, solved = np.linalg.eigh, []

        def faulty(a):
            evals, vecs = eigh(a)
            solved.append(a.shape)
            if len(solved) == solve + 1:
                return {
                    "scaled": (0.9 * evals, vecs),
                    "lifted": (evals + 1e-3, vecs),
                    "nan": (evals, np.full_like(vecs, np.nan)),
                }[fault]
            return evals, vecs

        monkeypatch.setattr(np.linalg, "eigh", faulty)
        with pytest.raises(ValueError, match="identity"):
            oracle_channel_choi(M)


class TestChoiExtraction:
    def test_oracle_matches_closed_form(self):
        for M in range(2, 7):
            assert oracle_xi(M) == pytest.approx(xi(M), abs=1e-10)

    @pytest.mark.parametrize("M", [9, 10])
    def test_oracle_matches_closed_form_past_the_dense_range(self, M):
        assert oracle_xi(M) == pytest.approx(xi(M), abs=1e-10)

    def test_xi_is_isotropic_fit_of_choi(self):
        for M in range(2, 6):
            assert oracle_xi(M) == _isotropic_fit(oracle_channel_choi(M).matrix)

    def test_choi_isotropy_residual(self):
        for M in range(2, 7):
            residual = np.abs(oracle_channel_choi(M).matrix - pbt_choi_qubit(M).matrix).max()
            assert residual < 1e-9

    def test_port_symmetry(self):
        # every outcome adds the same block, which lets the readout read port 1 alone
        for M in range(2, 8):
            taus = _port_outputs(M)
            worst = max(np.abs(taus[0] - t).max() for t in taus[1:])
            assert worst < 1e-12

    @pytest.mark.parametrize("M", range(2, 8))
    def test_explicit_route_matches_library(self, M):
        # measurement on the full resource state vs the library's partial
        # trace of the transposed POVM: independent code paths
        explicit = sum(_port_outputs(M))
        assert np.abs(explicit - oracle_channel_choi(M).matrix).max() < 1e-12

    @pytest.mark.parametrize("M", range(2, 11))
    def test_readout_slices_are_port_one_labels_and_pairs(self, M):
        # the readout takes port 1's labels and pairs from the sector layout:
        # p states below 2^{M-1} and n0 below 2^M cut each solved sector into
        # the label slices, and [0, p) pairs with [n - p, n); here they are
        # checked against the all-port reference count
        charge = _charge(M)
        for k, (states, _, _) in enumerate(_solve_sectors(M)):
            assert np.array_equal(states, np.flatnonzero(charge == k - 1))
            labels, pairs = _sector_pairs(states, M)
            n, p, n0 = len(states), states.searchsorted(2 ** (M - 1)), states.searchsorted(2**M)
            assert p == (comb(M - 1, k - 1) if k else 0)  # C(M-1, q)
            assert np.array_equal(pairs[:, 0], [np.arange(p), np.arange(n - p, n)])
            slices = np.repeat(np.arange(4), np.diff([0, p, n0, n - p, n]))
            assert np.array_equal(slices, labels[0])

    def test_anisotropic_choi_rejected(self, monkeypatch):
        # one solve's kernel basis gains a column on its C = 1 states, which
        # raises the diagonal of those states in every Pi^i of that sector:
        # the read-off Choi matrix leaves the isotropic form
        solve = pbt_oracle._solve_sectors

        def perturbed(M):
            for k, (states, S, K) in enumerate(solve(M)):
                if k == 2:
                    K = np.hstack([K, 0.03 * (states[:, None] >> M)])
                yield states, S, K

        monkeypatch.setattr(pbt_oracle, "_solve_sectors", perturbed)
        with pytest.raises(RuntimeError, match="not isotropic"):
            oracle_channel_choi(3)

    def test_largest_supported_port_count(self):
        assert oracle_xi(M_MAX) == pytest.approx(xi(M_MAX), abs=1e-10)


def test_oracle_verify_builds_one_ensemble_per_port_count(monkeypatch, capsys):
    solved = []
    solve = pbt_oracle._solve_sectors

    def counting_solve(M):
        solved.append(M)
        return solve(M)

    monkeypatch.setattr(pbt_oracle, "_solve_sectors", counting_solve)
    assert cli.main(["oracle-verify", "--m-max", "6"]) == 0
    capsys.readouterr()
    assert solved == [2, 3, 4, 5, 6]
