"""Brute-force protocol construction against the closed forms."""

import numpy as np
import pytest

from pbtbounds import cli, pbt_oracle
from pbtbounds.pbt import pbt_choi_qubit, xi
from pbtbounds.pbt_oracle import (
    M_MAX,
    PbtEnsemble,
    _choi_transpose_trick,
    _isotropic_fit,
    _port_outputs,
    build_ensemble,
    oracle_channel_choi,
    oracle_xi,
)


class TestEnsemble:
    def test_povm_completeness(self):
        for M in (2, 3, 4):
            ens = build_ensemble(M)
            total = sum(ens.povm)
            assert np.abs(total - np.eye(2 ** (M + 1))).max() < 1e-10

    def test_rho_rank_deficiency(self):
        # the kernel of rho is spanned by exactly M + 2 states
        for M in (2, 3, 4):
            ens = build_ensemble(M)
            evals = np.linalg.eigvalsh(ens.rho_sum)
            assert int(np.sum(evals < 1e-10)) == M + 2

    def test_outcome_probabilities_uniform(self):
        for M in (2, 3, 5):
            ens = build_ensemble(M)
            for P in ens.povm:
                prob = np.trace(P).real / 2 ** (M + 1)
                assert prob == pytest.approx(1.0 / M, abs=1e-10)

    def test_port_range(self):
        with pytest.raises(ValueError):
            build_ensemble(1)
        with pytest.raises(ValueError):
            build_ensemble(M_MAX + 1)

    @pytest.mark.parametrize("M", range(2, M_MAX + 1))
    def test_measurement_data_positive_semidefinite(self, M):
        # construction checks only the sums; the ensemble is a fixed function
        # of M, so positivity is pinned here once for every supported M
        ens = build_ensemble(M)
        for op in (*ens.sigma, *ens.povm):
            assert np.linalg.eigvalsh(op).min() >= -1e-9

    def test_invariants_enforced_on_construction(self):
        ens = build_ensemble(2)
        broken = tuple(P * 0.9 for P in ens.povm)
        with pytest.raises(ValueError, match="identity"):
            PbtEnsemble(2, ens.sigma, ens.rho_sum, broken)
        with pytest.raises(ValueError, match="rho_sum"):
            PbtEnsemble(2, ens.sigma, ens.rho_sum * 0.5, ens.povm)


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

    def test_explicit_route_equals_transpose_trick(self):
        # the measurement-on-the-full-state computation and the partial
        # transpose shortcut are independent code paths
        for M in (2, 3):
            explicit = sum(_port_outputs(build_ensemble(M)))
            assert np.abs(explicit - _choi_transpose_trick(M)).max() < 1e-12

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
