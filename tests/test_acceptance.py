"""Acceptance gate: one test per release criterion, at the stated tolerance.

Criterion 8 is split: 8a covers the structured-vs-generic fidelity equality,
8b the leading-order remainder budget of the illumination expansion. 8b holds
on the whole grid, including the corner d=1, eta=b=1e-3, because the expansion
keeps the sqrt(b^2 + eta b d) term, which is first order in b; the looser
validity scale max(eta^{3/2}, b) is covered in test_applications.
"""

from math import sqrt

import numpy as np
import pytest

from conftest import delta_exact_qubit
from pbtbounds import applications as apps
from pbtbounds import cli, discrimination as disc, pbt, pbt_oracle
from pbtbounds.channels import amplitude_damping, choi
from pbtbounds.linalg import fidelity


def test_criterion_01_pbt_numbers():
    assert pbt.xi(2) == pytest.approx((6 - sqrt(3)) / 6, abs=1e-12)
    assert pbt.xi(3) == pytest.approx(0.5, abs=1e-12)
    assert pbt.xi(4) == pytest.approx((13 - 2 * sqrt(2) - 2 * sqrt(5)) / 16, abs=1e-12)
    assert pbt.xi(5) == pytest.approx((35 - 4 * sqrt(6) - 4 * sqrt(10)) / 48, abs=1e-12)
    assert 0.19 <= pbt.xi(6) <= 0.21


def test_criterion_02_oracle_equivalence():
    for M in range(2, 7):
        assert abs(pbt_oracle.oracle_xi(M) - pbt.xi(M)) <= 1e-9
        residual = np.abs(
            pbt_oracle.oracle_channel_choi(M).matrix - pbt.pbt_choi_qubit(M).matrix
        ).max()
        assert residual < 1e-9


def test_criterion_03_fidelity_error_identity():
    for M in range(2, 31):
        total = pbt.entanglement_fidelity_qubit(M) + delta_exact_qubit(M) / 2
        assert abs(total - 1.0) <= 1e-10


def test_criterion_04_dimension_bound():
    for M in range(2, 31):
        assert delta_exact_qubit(M) <= pbt.delta_upper(M, 2)


def test_criterion_05_damping_simulation_error():
    for M in range(2, 12):
        for p in np.linspace(0.05, 0.95, 10):
            ch = amplitude_damping(float(p))
            got = pbt.diamond_via_choi_scalar_check(
                choi(ch), pbt.simulate_channel_choi(ch, M)
            )
            assert got is not None, f"scalar criterion failed at M={M}, p={p}"
            assert got == pytest.approx(pbt.delta_ad(M, float(p)), abs=1e-10)
    for M in (2, 5, 11):
        assert pbt.delta_ad(M, 0.0) == delta_exact_qubit(M)
        assert pbt.delta_ad(M, 1.0) == 0.0


def test_criterion_06_damping_choi_fidelity():
    for p0 in np.linspace(0.0, 1.0, 6):
        for p1 in np.linspace(0.0, 1.0, 6):
            generic = fidelity(
                choi(amplitude_damping(float(p0))).state,
                choi(amplitude_damping(float(p1))).state,
            )
            assert disc.ad_fidelity(float(p0), float(p1)) == pytest.approx(
                generic, abs=1e-10
            )


def test_criterion_07_damping_sweep_properties():
    n, dp = 20, 0.01
    M_list = [10, 100, 1000]
    rows = disc.ad_discrimination_sweep(list(np.linspace(0.8, 0.98, 10)), dp, n, M_list)
    for row in rows:
        # (a) port-optimized lower bound never beats the block bounds
        assert row["lb_optimized"] <= row["block_lower"] + 1e-12
        assert row["block_lower"] <= row["block_upper"] + 1e-12
        # (c) the optimized bound dominates every fixed port count
        for M in M_list:
            assert row["lb_optimized"] >= row[f"lb_M{M}"] - 1e-12
    # (b) clamping at small M, recovery at larger M
    first = rows[0]
    delta_bar = (pbt.delta_ad(10, 0.8) + pbt.delta_ad(10, 0.81)) / 2
    assert n * delta_bar >= 1.0
    assert first["lb_M10"] == 0.0
    assert first["lb_M100"] > 0.0


ILLUM_GRID = [(d, eta, b) for d in (1, 2, 4) for eta in (1e-2, 1e-3) for b in (1e-2, 1e-3)]


def test_criterion_08a_illumination_structured_fidelity():
    for d, eta, b in ILLUM_GRID:
        structured = apps.illumination_fidelity_exact(d, eta, b, method="structured")
        generic = apps.illumination_fidelity_exact(d, eta, b, method="generic")
        assert structured == pytest.approx(generic, abs=1e-10)


def test_criterion_08b_illumination_leading_order_budget():
    for d, eta, b in ILLUM_GRID:
        gap = abs(
            apps.illumination_fidelity_exact(d, eta, b)
            - apps.illumination_fidelity_approx(d, eta, b)
        )
        budget = 5.0 * max(eta**1.5 * b**0.5, eta * b, b**1.5, eta**2)
        assert gap <= budget, f"d={d}, eta={eta}, b={b}: gap {gap:.3e} > budget {budget:.3e}"


def test_criterion_09_resolution_fidelity():
    for eta in (0.01, 0.1, 0.5, 1.0):
        for s in (0.0, 0.2, 1.0, 3.0):
            got = fidelity(*apps.resolution_chois(eta, s))
            assert got == pytest.approx(apps.resolution_fidelity(eta, s), abs=1e-10)
    assert apps.resolution_bound(7, 0.3, 0.0).value == 0.25


def test_criterion_10_metrology():
    family = lambda p: choi(amplitude_damping(p))
    for p in (0.2, 0.5, 0.8):
        assert apps.qfi_choi(family, p).step_sensitivity < 0.01
    q = apps.qfi_choi(family, 0.5).value
    for n in (1, 2, 5, 13):
        assert apps.metrology_bound(2 * n, q).qfi_upper == 4 * apps.metrology_bound(n, q).qfi_upper


def test_criterion_11_key_rate():
    for d in (2, 3):
        for e_r in (1e-4, 1e-3, 1e-2):
            _, best = apps.key_rate_minimize_m(d, e_r)
            at_tilde = apps.key_rate_bound_asymptotic(d, e_r, apps.m_tilde(d, e_r))
            assert best <= at_tilde
    for measure in ("REE", "SE"):
        params = apps.KeyRateParams(2, 0.375, measure=measure, n=10)
        assert apps.key_rate_bound_finite(params, 6, 0.0).value == 6 * 0.375


CLI_RUNS = [
    ["xi-table", "--m-max", "8"],
    ["oracle-verify", "--m-max", "4"],
    ["ad-sweep", "--steps", "3", "--m-list", "10,100"],
    ["resolution", "--steps", "5"],
    ["illumination", "--steps", "4"],
    ["metrology", "--steps", "3"],
    ["keyrate"],
]


def test_criterion_12_cli_determinism(capsys):
    for argv in CLI_RUNS:
        assert cli.main(argv) == 0
        first = capsys.readouterr().out
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == first
