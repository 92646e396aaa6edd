"""Closed-form teleportation quantities and simulated-channel Choi matrices."""

from fractions import Fraction
from math import comb, sqrt, ulp

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import _exact_sums, delta_exact_qubit, depolarizing, isometry_channel
from pbtbounds import pbt
from pbtbounds.channels import amplitude_damping, choi
from pbtbounds.discrimination import bound_B_optimized
from pbtbounds.pbt import (
    delta_ad,
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
    """xi_M at 40 digits, rounded to a float (test oracle)."""
    return float(_xi_mp(M))


def _xi_mp(M):
    """xi_M at 40 digits, summed outward from the central binomial.

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
        return total


def _bernoulli(n):
    """B_0 .. B_n as Fractions, from sum_k C(m+1, k) B_k = 0 (B_1 = -1/2)."""
    B = [Fraction(1)]
    for m in range(1, n + 1):
        B.append(-sum(comb(m + 1, k) * B[k] for k in range(m)) / (m + 1))
    return B


def _poly_add(p, q, c=1):
    """p + c q for coefficient lists, lowest degree first."""
    n = max(len(p), len(q))
    return [(p[i] if i < len(p) else 0) + c * (q[i] if i < len(q) else 0) for i in range(n)]


def xi_series_coefficients(terms=16):
    """Exact c_1 .. c_terms of xi_M ~ sum_j c_j x^j, x = 1/(M + 2).

    S = M - 2k is a sum of M independent signs, whose cumulants are M times
    kappa_2m = 2^2m (2^2m - 1) B_2m / (2m), the odd ones 0; its moments follow
    as polynomials in M from mu_n = sum_k C(n-1, k-1) kappa_k mu_(n-k). With
    N = M + 2 and r(u) = (1 - sqrt(1 - u)) / (u (1 - u)) = sum_j r_j u^j,
    xi_M - N 2^(1-M)/3 = (2/3) sum_j r_j (E S^(2j+4) - E S^(2j+2)) / N^(2j+3),
    and the term j adds to x^(j+1) .. x^(2j+3) once M = N - 2.
    """
    B = _bernoulli(2 * terms + 2)
    kappa = {2 * m: Fraction(4**m * (4**m - 1)) * B[2 * m] / (2 * m) for m in range(1, terms + 2)}
    mu = {0: [Fraction(1)]}  # E[S^n] as a polynomial in M
    for n in range(1, 2 * terms + 3):
        mu[n] = [Fraction(0)]
        for k in range(2, n + 1, 2):
            mu[n] = _poly_add(mu[n], [0, *mu[n - k]], comb(n - 1, k - 1) * kappa[k])
    sqrt_coeffs = [Fraction(1)]  # (-1)^n C(1/2, n): sqrt(1 - u) = sum_n sqrt_coeffs[n] u^n
    for n in range(1, terms + 2):
        sqrt_coeffs.append(sqrt_coeffs[-1] * (n - Fraction(3, 2)) / n)
    r = [-sum(sqrt_coeffs[1:j + 2]) for j in range(terms)]
    c = [Fraction(0)] * (2 * terms + 4)
    for j in range(terms):
        in_m = _poly_add(mu[2 * j + 4], mu[2 * j + 2], -1)
        for i, a in enumerate(in_m):  # M^i = (N - 2)^i
            for l in range(i + 1):
                c[2 * j + 3 - l] += Fraction(2, 3) * r[j] * a * comb(i, l) * (-2) ** (i - l)
    return c[1:terms + 1]


def xi_series_mp(M):
    """The 16-term series in exact coefficients at 40 digits: xi_M to far below a
    float's last bit once M >= 1e8, where the next term is under 1e-136."""
    with mp.workdps(40):
        x = 1 / mp.mpf(M + 2)
        return sum(mp.mpf(c.numerator) / c.denominator * x ** (j + 1)
                   for j, c in enumerate(xi_series_coefficients()))


def ulps(value, ref):
    """|value - ref| in units of value's last place."""
    return float(abs(mp.mpf(value) - ref) / ulp(value))


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
        # earlier valid calls must not let a failed check or an equal float through
        xi(2)
        xi(3)
        for bad in (1, 2.5, 2.0):
            with pytest.raises(ValueError):
                xi(bad)
            with pytest.raises(ValueError):
                entanglement_fidelity_qubit(bad)

    def test_numpy_integer_ports_give_the_int_values(self):
        for M in (2, 51, 4097):
            assert xi(np.int64(M)) == xi(M)
            assert entanglement_fidelity_qubit(np.int64(M)) == entanglement_fidelity_qubit(M)

    def test_strictly_decreasing_across_the_series_switch(self):
        # the exact sums up to M = 99, the moment series from M = 100 on; f_e = 1 - delta/2 rises
        values = [xi(M) for M in range(2, 161)]
        assert all(a > b for a, b in zip(values, values[1:]))
        fidelities = [entanglement_fidelity_qubit(M) for M in range(2, 161)]
        assert all(a < b for a, b in zip(fidelities, fidelities[1:]))

    def test_inverse_port_scaling(self):
        # M xi_M crosses 1 between M = 9 and 10 and stays below it over the exact sums
        assert all(M * xi(M) >= 1 for M in range(2, 10))
        assert all(0.9 < M * xi(M) < 1 for M in range(10, 100))

    def test_high_precision_cross_check_large_M(self):
        for M in (49, 50, 51, 60, 80):
            assert xi(M) == pytest.approx(xi_mpmath(M), abs=1e-12)

    @pytest.mark.parametrize("M", [*range(2, 65), 1000, 4096, 4097, 5000, 6400, 6401, 100_000])
    def test_relative_error_vs_mpmath(self, M):
        ref = xi_mpmath(M)
        assert abs(xi(M) - ref) <= 1e-14 * ref

    @pytest.mark.parametrize(
        "M", [99, 100, 101, 127, 400, *(round(10 ** (2 + k / 6)) for k in range(1, 25))]
    )
    def test_series_within_one_and_a_half_ulp_of_mpmath(self, M):
        # 1.38 ulp at worst over every M in 100..400; 99 is the last exact sum
        assert ulps(xi(M), _xi_mp(M)) <= 1.4

    def test_exact_sums_within_four_and_a_half_ulp_of_mpmath(self):
        # 4.27 ulp at worst (M = 9); the series would be 10.8 ulp off at M = 80
        assert max(ulps(xi(M), _xi_mp(M)) for M in range(2, 100)) <= 4.5

    @pytest.mark.parametrize("M", [10**8, 10**10])
    def test_series_at_the_top_of_the_port_range(self, M):
        ref = xi_series_mp(M)
        assert ulps(xi(M), ref) <= 1.4
        assert abs(entanglement_fidelity_qubit(M) - (1 - 0.75 * ref)) <= 1e-14 * (1 - 0.75 * ref)

    @pytest.mark.parametrize("M", [1000, 10_000, 100_000, 1_000_000])
    def test_large_port_tail(self, M):
        # M xi_M = 1 - 3/(4M) + (15/8)/M^2 + O(M^-3)
        assert abs(M * xi(M) - (1 - 3 / (4 * M))) <= 3 / M**2


def test_series_literals_are_the_rounded_exact_coefficients():
    exact = xi_series_coefficients()
    assert exact[:6] == [1, Fraction(5, 4), Fraction(23, 8), Fraction(695, 64),
                         Fraction(7591, 128), Fraction(215145, 512)]
    assert all(c.denominator & (c.denominator - 1) == 0 for c in exact)  # dyadic
    assert pbt._XI_SERIES == tuple(map(float, exact))  # float(Fraction) rounds correctly


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

    @pytest.mark.parametrize("M", [2, 3, 37, 100, 250])
    def test_closed_form_is_one_minus_three_quarters_xi(self, M):
        # the identity the kernel uses from M = 100 on, between the two 50-digit sums
        with mp.workdps(50):
            assert abs(mp.mpf(fe_mpmath(M)) - (1 - 0.75 * _xi_mp(M))) <= mp.mpf(2) ** -53

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

    def test_makes_no_numpy_call(self, monkeypatch):
        # a scalar delta (every keyrate row) is a Python float with no numpy round trip
        want = [(1.5 * xi(M), "closed_form") for M in (10, 1000)] + [(1.2, "upper_bound")]
        monkeypatch.setattr(pbt, "np", None)
        got = [simulation_error(10, 2), simulation_error(1000, 2), simulation_error(10, 3)]
        assert got == want and all(type(delta) is float for delta, _ in got)

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


# port counts of the exact sums and the series, around the switch at M = 100,
# around 1e5 and at the top of the port range
_PORTS = st.one_of(
    st.integers(2, 200), st.integers(99_990, 100_010), st.integers(10**10 - 10, 10**10),
)


def _lone(M):
    """(xi_M, f_e(M)) alone: a one-element pass of the exact sums below 100 ports, the series from 100 on."""
    if M < pbt._SERIES_FROM:
        return tuple(float(v[0]) for v in _exact_sums(np.array([M])))
    x = pbt._xi_series(M)
    return x, 1.0 - 0.75 * x


@settings(max_examples=40, deadline=None)
@given(st.lists(_PORTS, min_size=1, max_size=30))
def test_grid_members_equal_scalar_calls(grid):
    # unsorted, possibly repeated, mixed-width grids, computed together: each
    # member is the value of a lone computation and of the scalar calls bit for bit
    lone = [_lone(M) for M in grid]
    xis, fes = pbt._series(grid)
    assert list(zip(xis, fes)) == lone
    assert [(xi(M), entanglement_fidelity_qubit(M)) for M in grid] == lone


def test_grid_checks_every_port_count():
    for bad in (1, 2.5, 4.0, True):
        with pytest.raises(ValueError, match="port count"):
            pbt._series([3, 64, bad])
        with pytest.raises(ValueError, match="port count"):
            pbt._simulation_errors([3, 64, bad], 3)
        with pytest.raises(ValueError, match="port count"):
            simulation_error(bad, 2)


@pytest.mark.parametrize("dtype", [np.uint8, np.uint32, np.uint64, np.int64])
def test_numpy_port_counts_read_and_fill_the_int_entry(dtype):
    ref = _lone(100)
    assert xi(dtype(100)) == ref[0]
    assert xi(100) == ref[0] and entanglement_fidelity_qubit(dtype(100)) == ref[1]
    xis, fes = pbt._series(np.array([100, 7, 100], dtype=dtype))
    assert list(zip(xis, fes)) == [ref, _lone(7), ref]


class _Unread:
    def __getitem__(self, index):
        pytest.fail(f"exact table read at index {index}")


def _no_kernel_pass(monkeypatch):
    # neither the series nor the table of exact sums is reached
    monkeypatch.setattr(pbt, "_xi_series", lambda M: pytest.fail(f"series run for M = {M}"))
    monkeypatch.setattr(pbt, "_EXACT", _Unread())


def test_grid_call_returns_the_callers_lists():
    grid = [5, 64, 2900, 100_000, 64]
    xis, fes = pbt._series(grid)
    ref = xis.copy(), fes.copy()
    xis[:], fes[:] = [0.0] * len(grid), [0.0] * len(grid)  # the lists are the caller's
    assert pbt._series(grid) == ref
    assert [(xi(M), entanglement_fidelity_qubit(M)) for M in grid] == list(zip(*ref))
    assert pbt.pbt_choi_qubit(5).matrix[1, 1] == ref[0][0] / 4


def test_upper_bound_grid_runs_no_kernel_pass(monkeypatch):
    _no_kernel_pass(monkeypatch)
    report = bound_B_optimized(2000, 3, 1.0 - 1e-10)
    assert report.params["delta_provenance"] == "upper_bound"


def test_exact_table_is_the_exact_sums_bit_for_bit():
    # the literal below 100 ports, re-derived in one pass and in one pass per port count
    ports = np.arange(2, pbt._SERIES_FROM)
    assert list(pbt._EXACT) == list(zip(*(v.tolist() for v in _exact_sums(ports))))
    assert list(pbt._EXACT) == [_lone(int(M)) for M in ports]


@settings(max_examples=200, deadline=None)
@given(_PORTS)
def test_xi_series_equals_a_numpy_horner(M):
    # Python float + and * round as numpy's elementwise ufuncs do on a one-element array
    x, ref = 1.0 / (np.array([M]) + 2.0), 0.0
    for c in reversed(pbt._XI_SERIES):
        ref = (ref + c) * x
    assert pbt._xi_series(M) == float(ref[0])
    if M >= pbt._SERIES_FROM:
        assert pbt._series([M]) == ([float(ref[0])], [float(1.0 - 0.75 * ref[0])])


_LIMIT_ERROR = r"^port count {} must be an integer in \[2, 10000000000\]$"


@pytest.mark.parametrize(
    "call, bad",
    [
        pytest.param(xi, 10**10 + 1, id="xi"),
        pytest.param(xi, np.uint64(2**63), id="xi-uint64"),
        pytest.param(lambda M: pbt._series([3, 64, M, 5]), 10**10 + 1, id="grid"),
        pytest.param(lambda M: pbt._simulation_errors([3, M], 2), 2**53 + 1, id="delta-grid"),
    ],
)
def test_port_count_above_the_limit_is_rejected_before_any_pass(call, bad, monkeypatch):
    # the series is pinned against mpmath only up to 10**10
    _no_kernel_pass(monkeypatch)
    with pytest.raises(ValueError, match=_LIMIT_ERROR.format(bad)):
        call(bad)


def test_port_count_at_the_limit_passes_the_check(monkeypatch):
    class Reached(Exception):
        pass

    def reached(M):
        raise Reached(M)

    monkeypatch.setattr(pbt, "_xi_series", reached)
    with pytest.raises(Reached):
        xi(10**10)
