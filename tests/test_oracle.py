"""Brute-force protocol construction against the closed forms."""

from dataclasses import replace
from math import comb, sqrt

import numpy as np
import pytest

from pbtbounds import cli, pbt_oracle
from pbtbounds.pbt import pbt_choi_qubit, xi
from pbtbounds.pbt_oracle import (
    M_MAX,
    _isotropic_fit,
    _sector_pairs,
    build_ensemble,
    oracle_channel_choi,
    oracle_xi,
)

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


def _dense(ens):
    """The ensemble's POVM blocks embedded in a dense (M, 2^{M+1}, 2^{M+1}) stack."""
    dim = 2 ** (ens.M + 1)
    povm = np.zeros((ens.M, dim, dim))
    for s, P in zip(ens.sectors, ens.povm):
        povm[:, s[:, None], s] = P
    return povm


def _port_outputs(ens):
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
    for i, P in enumerate(_dense(ens), start=1):
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


# Every solve the build makes at an odd and an even M (at M = 3 the last one is
# the middle sector, its own flip partner). Solve 0 is the one-state sector
# C = 1, A = 0..0, where rho = 0: scaling its zero spectrum changes nothing.
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
            povm = _dense(build_ensemble(M))
            assert np.abs(povm.sum(axis=0) - np.eye(2 ** (M + 1))).max() < 1e-10

    def test_outcome_probabilities_uniform(self):
        for M in (2, 3, 5):
            ens = build_ensemble(M)
            traces = sum(np.trace(P, axis1=1, axis2=2) for P in ens.povm)
            for prob in traces / 2 ** (M + 1):
                assert prob == pytest.approx(1.0 / M, abs=1e-10)

    def test_port_range(self):
        with pytest.raises(ValueError):
            build_ensemble(1)
        with pytest.raises(ValueError):
            build_ensemble(M_MAX + 1)

    @pytest.mark.parametrize("M", range(2, M_MAX + 1))
    def test_measurement_data_positive_semidefinite(self, M):
        # the build checks only the sum; the ensemble is a fixed function
        # of M, so positivity is pinned here once for every supported M, block
        # by block (every POVM element vanishes off its sector blocks)
        for stack in build_ensemble(M).povm:
            assert np.linalg.eigvalsh(stack).min() >= -1e-9

    @pytest.mark.parametrize("M", range(2, 8))
    def test_sector_build_matches_dense_reference(self, M):
        # sigma and rho feed both builds, so a fault in either shows up in Pi
        ens = build_ensemble(M)
        got, want = _dense(ens), _dense_ensemble(M)[2]
        assert got.shape == want.shape
        assert all(P.dtype == np.float64 for P in ens.povm)
        assert np.abs(got - want).max() < 1e-12

    def test_storage_is_per_sector(self):
        # sum_q C(M+1, q+1)^2 = C(2M+2, M+1) entries per POVM element, for
        # each of the M; dense storage would hold 4^{M+1} each
        M = 8
        floats = sum(P.size for P in build_ensemble(M).povm)
        assert floats == M * comb(2 * M + 2, M + 1)

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
        # the symmetry the mirrored build relies on, read off the build that
        # does not assume it: X^{M+1} sends basis state x to 2^{M+1} - 1 - x,
        # so conjugating by it reverses both axes
        (sigmas, rho, povm), charge = _dense_ensemble(M), _charge(M)
        assert all(np.array_equal(s[::-1, ::-1], s) for s in sigmas)
        assert np.array_equal(rho[::-1, ::-1], rho)
        assert max(np.abs(P[::-1, ::-1] - P).max() for P in povm) <= 1e-14
        assert np.array_equal(charge[::-1], M - 1 - charge)  # sector q onto sector M - 1 - q

    @pytest.mark.parametrize("M", range(2, M_MAX + 1))
    def test_partner_sectors_are_mirrored_views(self, M):
        # sector M + 1 - k is the flip of sector k: its blocks are reversed
        # views of k's, and its mirrored labels and pairs equal a fresh count
        ens = build_ensemble(M)
        for k in range(M // 2 + 1):  # every k < M + 1 - k; at odd M the middle is its own partner
            j = M + 1 - k
            assert np.array_equal(ens.sectors[j], 2 ** (M + 1) - 1 - ens.sectors[k][::-1])
            assert np.shares_memory(ens.povm[j], ens.povm[k])
            assert np.array_equal(ens.povm[j], ens.povm[k][:, ::-1, ::-1])
        for sector, labels, pairs in zip(ens.sectors, ens.labels, ens.pairs):
            want_labels, want_pairs = _sector_pairs(sector, M)
            assert np.array_equal(labels, want_labels)
            assert np.array_equal(pairs, want_pairs)

    @pytest.mark.parametrize("M", range(2, M_MAX + 1))
    def test_one_eigensolve_per_flip_pair(self, monkeypatch, M):
        # ceil((M + 2) / 2) solves, on sectors 0.. in order
        eigh, solved = np.linalg.eigh, []
        monkeypatch.setattr(np.linalg, "eigh", lambda a: solved.append(a.shape[0]) or eigh(a))
        build_ensemble(M)
        assert solved == [comb(M + 1, k) for k in range((M + 3) // 2)]

    @pytest.mark.parametrize("M", range(2, M_MAX + 1))
    def test_layout_fixed_by_port_count(self, M):
        # the build checks only the identity sum; the layout it returns is a
        # function of M, pinned here once for every supported M
        ens = build_ensemble(M)
        assert ens.M == M
        assert np.array_equal(np.sort(np.concatenate(ens.sectors)), np.arange(2 ** (M + 1)))
        charge = _charge(M)
        for k, sector in enumerate(ens.sectors):
            assert np.all(np.diff(sector) > 0)
            assert np.all(charge[sector] == k - 1)
        assert [P.shape for P in ens.povm] == [(M, s.size, s.size) for s in ens.sectors]

    @pytest.mark.parametrize(("fault", "M", "solve"), _EIGH_FAULTS)
    def test_build_checks_identity_on_every_block(self, monkeypatch, fault, M, solve):
        # a fault in one eigensolve alone (its eigenvalues scaled, or lifted so
        # that the zero one joins the support, or NaN eigenvectors) must stop
        # the build, whichever solve it hits
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
            build_ensemble(M)


class TestChoiExtraction:
    def test_oracle_matches_closed_form(self):
        for M in range(2, 7):
            assert oracle_xi(M) == pytest.approx(xi(M), abs=1e-10)

    def test_xi_is_isotropic_fit_of_choi(self):
        for M in range(2, 6):
            assert oracle_xi(M) == _isotropic_fit(oracle_channel_choi(M).matrix)

    def test_choi_isotropy_residual(self):
        for M in range(2, 7):
            residual = np.abs(oracle_channel_choi(M).matrix - pbt_choi_qubit(M).matrix).max()
            assert residual < 1e-9

    def test_port_symmetry(self):
        for M in (2, 3, 4):
            taus = _port_outputs(build_ensemble(M))
            worst = max(np.abs(taus[0] - t).max() for t in taus[1:])
            assert worst < 1e-12

    @pytest.mark.parametrize("M", range(2, 8))
    def test_explicit_route_matches_library(self, M):
        # measurement on the full resource state vs the library's partial
        # trace of the transposed POVM: independent code paths
        explicit = sum(_port_outputs(build_ensemble(M)))
        assert np.abs(explicit - oracle_channel_choi(M).matrix).max() < 1e-12

    @pytest.mark.parametrize("M", [3, 8])
    def test_readout_takes_labels_and_pairs_from_the_build(self, monkeypatch, M):
        # the build counts the pairs of its solved sectors only; the readout
        # counts none of its own
        sector_pairs, counted = pbt_oracle._sector_pairs, []
        monkeypatch.setattr(
            pbt_oracle, "_sector_pairs", lambda s, M: counted.append(s.size) or sector_pairs(s, M)
        )
        oracle_channel_choi(M)
        assert len(counted) == (M + 3) // 2

    def test_anisotropic_choi_rejected(self, monkeypatch):
        # the diagonal of the C = 1 states raised in one sector: the read-off
        # Choi matrix leaves the isotropic form
        ens = build_ensemble(3)
        raised = ens.povm[2].copy()
        c1 = np.flatnonzero(ens.sectors[2] >> 3)
        raised[:, c1, c1] += 1e-3
        broken = replace(ens, povm=(*ens.povm[:2], raised, *ens.povm[3:]))
        monkeypatch.setattr(pbt_oracle, "build_ensemble", lambda M: broken)
        with pytest.raises(RuntimeError, match="not isotropic"):
            oracle_channel_choi(3)

    def test_largest_supported_port_count(self):
        assert oracle_xi(M_MAX) == pytest.approx(xi(M_MAX), abs=1e-10)


def test_oracle_verify_builds_one_ensemble_per_port_count(monkeypatch, capsys):
    built = []

    def counting_build(M):
        built.append(M)
        return build_ensemble(M)

    monkeypatch.setattr(pbt_oracle, "build_ensemble", counting_build)
    assert cli.main(["oracle-verify", "--m-max", "6"]) == 0
    capsys.readouterr()
    assert built == [2, 3, 4, 5, 6]
