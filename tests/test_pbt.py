"""Closed-form teleportation quantities and simulated-channel Choi matrices."""

from math import sqrt

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import depolarizing, isometry_channel
from pbtbounds import pbt
from pbtbounds.channels import amplitude_damping, choi
from pbtbounds.pbt import (
    delta_ad,
    delta_exact_qubit,
    delta_upper,
    diamond_via_choi_scalar_check,
    entanglement_fidelity_qubit,
    pbt_choi_qubit,
    simulate_channel_choi,
    simulation_error,
    xi,
)

# closed radical forms for the first few port counts
XI_REFERENCE = {
    2: (6 - sqrt(3)) / 6,
    3: 0.5,
    4: (13 - 2 * sqrt(2) - 2 * sqrt(5)) / 16,
    5: (35 - 4 * sqrt(6) - 4 * sqrt(10)) / 48,
    6: (70 - 15 * sqrt(3) - 5 * sqrt(7) - 3 * sqrt(15)) / 96,
}


def xi_mpmath(M):
    """xi_M at 40 digits, summed outward from the central binomial (test oracle).

    Terms follow from C(M, k-1) = C(M, k) k / (M-k+1), an exact ratio
    recurrence, and the sum stops once a term falls below 1e-30 of the total,
    so M = 1e5 needs about 6 sqrt(M) terms instead of M.
    """
    with mp.workdps(40):
        two_s = 1 if M % 2 == 0 else 0  # 2s for the smallest spin
        k = (M - 1 - two_s) // 2
        binom = mp.binomial(M, k) / mp.mpf(2) ** (M - 4)
        total = mp.mpf(M + 2) / 3 / mp.mpf(2) ** (M - 1)
        while k >= 0:
            s = mp.mpf(two_s) / 2
            g = (M + 2) ** 2 - (two_s + 1) ** 2
            term = s * (s + 1) / 3 * binom * (two_s + 1) ** 2 / (g * ((M + 2) + mp.sqrt(g)))
            total += term
            if two_s > 2 and term < mp.mpf("1e-30") * total:
                break
            binom = binom * k / (M - k + 1)
            k -= 1
            two_s += 2
        return float(total)


def fe_mpmath(M):
    """Exact binomial sum for f_e at 50 digits, every k from 0 to M."""
    with mp.workdps(50):
        total, binom = mp.mpf(0), mp.mpf(1)
        for k in range(M + 1):
            t = (M - 2 * k - 1) / mp.sqrt(k + 1) + (M - 2 * k + 1) / mp.sqrt(M - k + 1)
            total += t * t * binom
            binom = binom * (M - k) / (k + 1)
        return float(total / mp.mpf(2) ** (M + 3))


class TestXi:
    def test_closed_radical_forms(self):
        for M, ref in XI_REFERENCE.items():
            assert xi(M) == pytest.approx(ref, abs=1e-13)

    def test_rejects_small_or_non_integer(self):
        with pytest.raises(ValueError):
            xi(1)
        with pytest.raises(ValueError):
            xi(2.5)

    def test_rejects_invalid_ports_after_valid_calls(self):
        # the memo must neither cache a failed check nor let an equal float hit the cache
        xi(2)
        xi(3)
        for bad in (1, 2.5, 2.0):
            with pytest.raises(ValueError):
                xi(bad)
            with pytest.raises(ValueError):
                entanglement_fidelity_qubit(bad)

    def test_numpy_integer_ports_share_the_memo(self):
        for M in (2, 51, 4097):
            assert xi(np.int64(M)) == xi(M)
            assert entanglement_fidelity_qubit(np.int64(M)) == entanglement_fidelity_qubit(M)

    def test_values_survive_cache_clear(self):
        Ms = (2, 7, 64, 4096, 4097, 100_000)
        before = [(xi(M), entanglement_fidelity_qubit(M)) for M in Ms]
        pbt._xi_sum.cache_clear()
        pbt._fidelity_sum.cache_clear()
        assert [(xi(M), entanglement_fidelity_qubit(M)) for M in Ms] == before

    def test_strictly_decreasing_across_binomial_switch(self):
        # above M = 6400 the +- 40 sqrt(M) window is clipped inside [0, M]
        for lo, hi in ((2, 80), (4000, 4200), (6300, 6500)):
            values = [xi(M) for M in range(lo, hi + 1)]
            assert all(a > b for a, b in zip(values, values[1:]))

    def test_inverse_port_scaling(self):
        for M in range(10, 61):
            assert 0.9 < M * xi(M) < 1.05

    def test_high_precision_cross_check_large_M(self):
        for M in (49, 50, 51, 60, 80):
            assert xi(M) == pytest.approx(xi_mpmath(M), abs=1e-12)

    @pytest.mark.parametrize("M", [*range(2, 65), 1000, 4096, 4097, 5000, 6400, 6401, 100_000])
    def test_relative_error_vs_mpmath(self, M):
        ref = xi_mpmath(M)
        assert abs(xi(M) - ref) <= 1e-14 * ref

    @pytest.mark.parametrize("M", [1000, 10_000, 100_000, 1_000_000])
    def test_large_port_tail(self, M):
        # M xi_M = 1 - 3/(4M) + (15/8)/M^2 + O(M^-3)
        assert abs(M * xi(M) - (1 - 3 / (4 * M))) <= 3 / M**2


class TestEntanglementFidelity:
    def test_two_ports_frozen_value(self):
        # k = 0..2 binomial sum evaluates to (2 + sqrt 3)/8 by hand
        assert entanglement_fidelity_qubit(2) == pytest.approx((2 + sqrt(3)) / 8, abs=1e-13)

    def test_three_ports(self):
        assert entanglement_fidelity_qubit(3) == pytest.approx(0.625, abs=1e-13)

    def test_lower_bound_one_minus_two_over_m(self):
        for M in range(2, 101):
            assert entanglement_fidelity_qubit(M) >= 1 - 2 / M

    def test_high_precision_cross_check(self):
        for M in (30, 50, 51, 70):
            assert entanglement_fidelity_qubit(M) == pytest.approx(fe_mpmath(M), abs=1e-12)

    @pytest.mark.parametrize("M", [*range(2, 71), 1000, 3000, 4096, 4097, 6400, 6401])
    def test_relative_error_vs_mpmath(self, M):
        ref = fe_mpmath(M)
        assert abs(entanglement_fidelity_qubit(M) - ref) <= 1e-14 * ref

    def test_identity_with_xi(self):
        for M in range(2, 31):
            lhs = entanglement_fidelity_qubit(M) + delta_exact_qubit(M) / 2
            assert lhs == pytest.approx(1.0, abs=1e-10)


class TestDelta:
    def test_delta_is_three_halves_xi(self):
        assert delta_exact_qubit(3) == pytest.approx(0.75, abs=1e-13)
        assert delta_exact_qubit(2) == pytest.approx((6 - sqrt(3)) / 4, abs=1e-13)

    def test_delta_upper_values(self):
        assert delta_upper(8, 2) == pytest.approx(0.5)
        assert delta_upper(12, 3) == pytest.approx(1.0)
        with pytest.raises(ValueError):
            delta_upper(2, 1)

    def test_exact_below_generic_bound(self):
        for M in range(2, 31):
            assert delta_exact_qubit(M) <= delta_upper(M, 2)


class TestSimulationError:
    def test_qubit_closed_form(self):
        for M in (2, 3, 10, 1000):
            assert simulation_error(M, 2) == (1.5 * xi(M), "closed_form")

    def test_generic_dimension_upper_bound(self):
        assert simulation_error(10, 3) == (1.2, "upper_bound")
        # 2d(d-1)/M = 3 at M = 4 exceeds any diamond distance, so it is capped at 2
        assert simulation_error(4, 3) == (2.0, "upper_bound")

    def test_rejects_invalid_inputs(self):
        with pytest.raises(ValueError):
            simulation_error(1, 2)
        for d in (1, 2.0, 3.0):
            with pytest.raises(ValueError, match="dimension"):
                simulation_error(10, d)


class TestPbtChoi:
    def test_three_port_matrix(self):
        got = pbt_choi_qubit(3).matrix
        expected = np.diag([3 / 8, 1 / 8, 1 / 8, 3 / 8]).astype(complex)
        expected[0, 3] = expected[3, 0] = 0.25
        assert np.abs(got - expected).max() < 1e-14

    def test_singlet_fraction_is_entanglement_fidelity(self):
        phi = np.zeros(4)
        phi[[0, 3]] = 1 / sqrt(2)
        for M in range(2, 9):
            frac = (phi @ pbt_choi_qubit(M).matrix @ phi).real
            assert frac == pytest.approx(entanglement_fidelity_qubit(M), abs=1e-12)

    def test_matches_depolarizing_channel_choi(self):
        for M in (2, 3, 5):
            direct = choi(depolarizing(xi(M), 2)).matrix
            assert np.abs(pbt_choi_qubit(M).matrix - direct).max() < 1e-12


def simulate_kron_reference(ch, M):
    """sum_K (I (x) K) J_PBT (I (x) K)^dag: the channel on the output half of the PBT Choi state."""
    base = pbt_choi_qubit(M).matrix
    out = 0
    for K in ch.kraus_ops:
        big = np.kron(np.eye(2), K)
        out = out + big @ base @ big.conj().T
    return out


_SIMULATED = {
    "ad-p0": amplitude_damping(0.0),
    "ad-p0.3": amplitude_damping(0.3),
    "ad-p1": amplitude_damping(1.0),
    "depolarizing-d2": depolarizing(0.3, 2),
    "isometry-2to3": isometry_channel(2, 3, 2, seed=7),
}


class TestSimulateChannel:
    @pytest.mark.parametrize("M", (2, 5, 9))
    @pytest.mark.parametrize("name", list(_SIMULATED))
    def test_matches_kron_reference(self, name, M):
        ch = _SIMULATED[name]
        got = simulate_channel_choi(ch, M)
        assert got.state.dims == (2, ch.d_out)
        assert np.abs(got.matrix - simulate_kron_reference(ch, M)).max() <= 1e-15

    def test_identity_returns_pbt_choi(self):
        ident = depolarizing(0.0, 2)
        for M in (2, 4):
            got = simulate_channel_choi(ident, M).matrix
            assert np.abs(got - pbt_choi_qubit(M).matrix).max() < 1e-13

    def test_rejects_non_qubit_channel(self):
        with pytest.raises(ValueError, match="qubit"):
            simulate_channel_choi(depolarizing(0.1, 3), 4)

    def test_rejects_stacked_channel(self):
        with pytest.raises(ValueError, match="not a stack"):
            simulate_channel_choi(amplitude_damping(np.array([0.3, 0.7])), 4)

    def test_ad_simulation_matrix_entries(self):
        # simulated Choi of amplitude damping: x, y, z, w entries in xi and p
        for M, p in ((2, 0.3), (4, 0.7), (6, 0.05)):
            x = xi(M)
            got = simulate_channel_choi(amplitude_damping(p), M).matrix
            expected = np.diag(
                [
                    0.5 - (1 - p) * x / 4,
                    (1 - p) * x / 4,
                    (0.5 - x / 4) * p + x / 4,
                    (0.5 - x / 4) * (1 - p),
                ]
            ).astype(complex)
            expected[0, 3] = expected[3, 0] = sqrt(1 - p) * (0.5 - x / 2)
            assert np.abs(got - expected).max() < 1e-13


class TestScalarDiamond:
    def test_identical_chois_give_zero(self):
        a = choi(amplitude_damping(0.3))
        assert diamond_via_choi_scalar_check(a, a) == pytest.approx(0.0, abs=1e-14)

    def test_identity_vs_pbt_is_delta(self):
        ident = choi(depolarizing(0.0, 2))
        for M in (2, 3, 5):
            got = diamond_via_choi_scalar_check(ident, pbt_choi_qubit(M))
            assert got == pytest.approx(delta_exact_qubit(M), abs=1e-12)

    def test_ad_pair_matches_closed_form(self):
        for M in (2, 5, 8):
            for p in (0.0, 0.4, 0.9):
                ideal = choi(amplitude_damping(p))
                sim = simulate_channel_choi(amplitude_damping(p), M)
                got = diamond_via_choi_scalar_check(ideal, sim)
                assert got is not None
                assert got == pytest.approx(delta_ad(M, p), abs=1e-11)

    def test_non_scalar_pair_returns_none(self):
        a = choi(amplitude_damping(0.3))
        b = choi(amplitude_damping(0.7))
        assert diamond_via_choi_scalar_check(a, b) is None

    def test_dimension_mismatch_rejected(self):
        a = choi(amplitude_damping(0.3))
        b = choi(depolarizing(0.1, 3))
        with pytest.raises(ValueError, match="dimensions"):
            diamond_via_choi_scalar_check(a, b)

    def test_rejects_stacked_chois(self):
        single = choi(amplitude_damping(0.3))
        stacked = choi(amplitude_damping(np.array([0.3, 0.3])))
        for a, b in ((stacked, stacked), (single, stacked), (stacked, single)):
            with pytest.raises(ValueError, match="not stacks"):
                diamond_via_choi_scalar_check(a, b)


class TestDeltaAd:
    def test_boundaries_exact(self):
        for M in (2, 3, 7):
            assert delta_ad(M, 0.0) == delta_exact_qubit(M)
            assert delta_ad(M, 1.0) == 0.0

    def test_range_check(self):
        with pytest.raises(ValueError):
            delta_ad(3, 1.5)
        with pytest.raises(ValueError):
            delta_ad(3, -0.1)


@settings(max_examples=50, deadline=None)
@given(
    st.integers(min_value=2, max_value=20),
    st.floats(0.0, 1.0, allow_nan=False, width=32),
)
def test_delta_ad_never_exceeds_delta(M, p):
    assert delta_ad(M, p) <= delta_exact_qubit(M) + 1e-12
