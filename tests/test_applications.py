"""Optical resolution, illumination, metrology, and key-rate applications."""

import random
from math import ceil, exp, inf, log2, log10, sqrt

import mpmath as mp
import numpy as np
import pytest

from conftest import depolarizing
from pbtbounds.applications import (
    KeyRateParams,
    binary_entropy,
    illumination_bound,
    illumination_chois,
    illumination_fidelity_approx,
    illumination_fidelity_exact,
    illumination_regime_ok,
    key_rate_bound_asymptotic,
    key_rate_bound_finite,
    key_rate_minimize_m,
    m_tilde,
    metrology_bound,
    qfi_choi,
    resolution_bound,
    resolution_chois,
    resolution_fidelity,
)
from pbtbounds.channels import amplitude_damping, choi
from pbtbounds.linalg import fidelity


# ---------------------------------------------------------------------------
# optical resolution


class TestResolutionStates:
    def test_closed_form_matches_choi_fidelity(self):
        for eta in (0.05, 0.3, 0.9, 1.0):
            for s in (0.0, 0.5, 1.5, 4.0):
                rho_p, rho_m = resolution_chois(eta, s)
                assert fidelity(rho_p, rho_m) == pytest.approx(
                    resolution_fidelity(eta, s), abs=1e-10
                )

    def test_top_eigenvector_overlap(self):
        # surviving-branch vectors overlap at (1 + eta delta) / (1 + eta)
        eta, s = 0.3, 1.0
        delta = exp(-s * s / 8.0)
        rho_p, rho_m = resolution_chois(eta, s)
        _, vp = np.linalg.eigh(rho_p.matrix)
        _, vm = np.linalg.eigh(rho_m.matrix)
        got = abs(np.vdot(vp[:, -1], vm[:, -1]))
        assert got == pytest.approx((1 + eta * delta) / (1 + eta), abs=1e-12)

    def test_large_separation_limit(self):
        # the overlap dies and only the loss branch keeps the states close
        assert resolution_fidelity(0.4, 60.0) == pytest.approx(1 - 0.2, abs=1e-15)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            resolution_chois(0.0, 1.0)
        with pytest.raises(ValueError):
            resolution_chois(1.2, 1.0)
        with pytest.raises(ValueError):
            resolution_fidelity(0.5, -1.0)


class TestResolutionBound:
    def test_zero_separation_is_exactly_quarter(self):
        report = resolution_bound(10, 0.1, 0.0)
        assert report.value == 0.25
        assert report.params["exact_value"] == 0.25

    def test_exact_epsilon_value_dominates_small_s_form(self):
        for eta in (0.01, 0.1, 0.5):
            for s in (0.05, 0.2, 1.0, 3.0):
                report = resolution_bound(4, eta, s)
                assert report.params["exact_value"] >= report.value - 1e-15

    def test_small_s_forms_agree_closely(self):
        report = resolution_bound(5, 0.01, 0.1)
        assert report.value == pytest.approx(report.params["exact_value"], rel=0.05)
        assert report.params["regime_ok"]

    def test_regime_flag_rejects_large_separation(self):
        assert not resolution_bound(5, 0.5, 2.0).params["regime_ok"]

    def test_validation(self):
        with pytest.raises(ValueError):
            resolution_bound(0, 0.1, 1.0)
        with pytest.raises(ValueError):
            resolution_bound(5, 0.1, -0.5)
        with pytest.raises(ValueError, match=r"^count n = 1\.5 must be an integer >= 1$"):
            resolution_bound(1.5, 0.1, 1.0)


# ---------------------------------------------------------------------------
# quantum illumination


def _illumination_fidelity_dense_mp(d, eta, b):
    """Sum of sqrt(eig(sqrt(sigma) rho sqrt(sigma))) on the full (d+1)^2 space at 50 digits."""
    with mp.workdps(50):
        D = d + 1
        eta, b = mp.mpf(eta), mp.mpf(b)
        sigma = [(1 - d * b if i // D == 0 else b) / D for i in range(D * D)]
        psi = [1 / mp.sqrt(D) if i // D == i % D else 0 for i in range(D * D)]
        mat = mp.matrix(D * D, D * D)
        for i in range(D * D):
            for j in range(D * D):
                rho = (1 - eta) * sigma[i] * (i == j) + eta * psi[i] * psi[j]
                mat[i, j] = mp.sqrt(sigma[i]) * rho * mp.sqrt(sigma[j])
        return float(sum(mp.sqrt(max(ev, 0)) for ev in mp.eigsy(mat, eigvals_only=True)))


def _illumination_fidelity_block_mp(d, eta, b):
    """The d^2 states |k j> (k >= 1, j != k), the d states |0 j> and the
    (d+1)-dim |k k> block of sqrt(sigma) rho sqrt(sigma), at 50 digits."""
    with mp.workdps(50):
        eta, b = mp.mpf(eta), mp.mpf(b)
        x = 1 - d * b
        block = mp.matrix(d + 1, d + 1)
        block[0, 0] = (1 - eta) * x * x + eta * x
        for j in range(1, d + 1):
            block[0, j] = block[j, 0] = eta * mp.sqrt(x * b)
            for k in range(1, d + 1):
                block[j, k] = eta * b + ((1 - eta) * b * b if j == k else 0)
        roots = sum(mp.sqrt(max(ev, 0)) for ev in mp.eigsy(block, eigvals_only=True))
        return float((d * d * mp.sqrt(1 - eta) * b + d * mp.sqrt(1 - eta) * x + roots) / (d + 1))


class TestIlluminationStates:
    def test_zero_reflectivity_collapses_the_pair(self):
        sigma, rho = illumination_chois(3, 0.0, 0.01)
        assert np.allclose(sigma.matrix, rho.matrix, atol=1e-15)
        assert illumination_fidelity_exact(3, 0.0, 0.01) == pytest.approx(1.0, abs=1e-12)

    def test_pure_reflection_without_noise(self):
        # b = 0, eta = 1: present state is the maximally entangled projector
        d = 2
        sigma, rho = illumination_chois(d, 1.0, 0.0)
        assert np.linalg.eigvalsh(rho.matrix)[-1] == pytest.approx(1.0, abs=1e-12)
        assert illumination_fidelity_exact(d, 1.0, 0.0) == pytest.approx(
            1.0 / (d + 1), abs=1e-12
        )

    def test_structured_route_matches_generic(self):
        for d in (1, 2, 4):
            for eta in (1e-2, 1e-3):
                for b in (1e-2, 1e-3):
                    generic = illumination_fidelity_exact(d, eta, b, method="generic")
                    structured = illumination_fidelity_exact(d, eta, b, method="structured")
                    assert structured == pytest.approx(generic, abs=1e-10)

    def test_default_method_is_structured(self):
        for d in (1, 2, 8, 12):
            default = illumination_fidelity_exact(d, 0.01, 0.01)
            assert default == illumination_fidelity_exact(d, 0.01, 0.01, method="structured")

    def test_structured_route_matches_mpmath(self):
        # the dense 50-digit eigensolve at d <= 3, the eigenvalue families with
        # a 50-digit block eigensolve at larger d; eta spans [0, 1], b reaches 0
        for d in (1, 2, 3, 8, 12):
            ref = _illumination_fidelity_dense_mp if d <= 3 else _illumination_fidelity_block_mp
            for eta in (0.0, 1e-3, 0.3, 1.0):
                for b in (0.0, 1e-9, 1e-3, 0.05):
                    got = illumination_fidelity_exact(d, eta, b, method="structured")
                    assert abs(got - ref(d, eta, b)) <= 1e-15, (d, eta, b)

    def test_default_matches_generic_on_the_benchmark_band(self):
        # d = 8, b in [5e-4, 2e-3], eta in [5e-5, 1.2e-2]: the illumination table's inputs
        for b in (5e-4, 1.2e-3, 2e-3):
            for eta in (5e-5, 1e-3, 6e-3, 1.2e-2):
                generic = illumination_fidelity_exact(8, eta, b, method="generic")
                assert abs(illumination_fidelity_exact(8, eta, b) - generic) <= 1e-12

    def test_thermal_occupation_limit(self):
        with pytest.raises(ValueError, match="d\\*b"):
            illumination_chois(2, 0.01, 0.5)

    def test_unknown_method(self):
        for method in ("magic", "auto"):
            with pytest.raises(ValueError, match="method"):
                illumination_fidelity_exact(2, 0.01, 0.01, method=method)


class TestIlluminationApprox:
    def test_trivial_point(self):
        assert illumination_fidelity_approx(3, 0.0, 0.0) == 1.0

    def test_no_reflection_is_indistinguishable(self):
        # at eta = 0 the target-present state equals the absent one, so the
        # leading-order fidelity must be exactly 1 for any thermal occupation
        for d in (1, 2, 4):
            for b in (1e-3, 1e-2, 0.2):
                assert illumination_fidelity_approx(d, 0.0, b) == 1.0

    def test_leading_order_error_stays_below_scale(self):
        # on the matched line b = eta d the gap must stay within the larger of
        # eta^{3/2} and b across a decade of reflectivities
        for d in (1, 2):
            for eta in np.logspace(-4, -2, 7):
                b = eta * d
                gap = abs(
                    illumination_fidelity_exact(d, eta, b)
                    - illumination_fidelity_approx(d, eta, b)
                )
                assert gap <= max(eta**1.5, b)

    def test_regime_flag(self):
        assert illumination_regime_ok(0.01, 0.01)
        assert not illumination_regime_ok(0.2, 0.01)
        assert not illumination_regime_ok(0.01, 0.2)


class TestIlluminationBound:
    def test_zero_reflectivity(self):
        report = illumination_bound(4, 3, 0.0)
        assert report.value == 0.25
        assert report.params["separable_upper"] == 0.5

    def test_entangled_floor_sits_below_separable_reference(self):
        for n in (1, 10, 100):
            for d in (1, 2, 8):
                for eta in (1e-3, 1e-2, 5e-2):
                    report = illumination_bound(n, d, eta)
                    assert report.value < report.params["separable_upper"]

    def test_validation(self):
        with pytest.raises(ValueError):
            illumination_bound(0, 2, 0.1)
        with pytest.raises(ValueError):
            illumination_bound(1, 0, 0.1)
        with pytest.raises(ValueError):
            illumination_bound(1, 2, 1.5)
        with pytest.raises(ValueError, match=r"^count n = 1\.5 must be an integer >= 1$"):
            illumination_bound(1.5, 2, 0.1)
        for d in (1.5, 2.0, True):
            with pytest.raises(ValueError, match="mode count"):
                illumination_bound(1, d, 0.1)


# (d, eta, b) and the check that must fire: d < 1, d not an integer (float or
# bool), b < 0, d*b = 1, eta < 0, eta > 1
_BAD_ILLUMINATION = (
    ((0, 0.01, 1e-3), "mode count"),
    ((1.5, 0.01, 1e-3), "mode count"),
    ((2.0, 0.01, 1e-3), "mode count"),
    ((True, 0.01, 1e-3), "mode count"),
    ((2, 0.01, -1e-3), "thermal"),
    ((2, 0.01, 0.5), "thermal"),
    ((2, -0.1, 1e-3), "reflectivity"),
    ((2, 1.1, 1e-3), "reflectivity"),
)
# (eta, s): eta = 0, eta < 0, eta > 1, s < 0
_BAD_RESOLUTION = (
    ((0.0, 1.0), "loss"),
    ((-0.1, 1.0), "loss"),
    ((1.2, 1.0), "loss"),
    ((0.5, -1.0), "separation"),
)


def _ad_choi_family(p: float):
    return choi(amplitude_damping(p)).state


# non-finite finite-difference steps and Choi QFIs (zero and negative ones are
# in TestQfi and TestMetrologyBound), and a theta of more than one dimension
_BAD_METROLOGY = (
    [(qfi_choi, (_ad_choi_family, 0.5, h), "step") for h in (np.nan, np.inf)]
    + [(qfi_choi, (_ad_choi_family, np.full((1, 2), 0.5)), "theta must be a float or a 1-D array")]
    + [(metrology_bound, (10, q), "QFI") for q in (np.nan, np.inf)]
)
_REJECTION_CASES = (
    [(fn, args, why) for fn in (illumination_chois, illumination_fidelity_exact,
                                illumination_fidelity_approx) for args, why in _BAD_ILLUMINATION]
    + [(fn, args, why) for fn in (resolution_chois, resolution_fidelity)
       for args, why in _BAD_RESOLUTION]
    + [(resolution_bound, (5,) + args, why) for args, why in _BAD_RESOLUTION]
    + _BAD_METROLOGY
)


def _case_id(fn, args) -> str:
    """fn(args) with callables by name, so the id is the same in every run."""
    return f"{fn.__name__}{tuple(getattr(a, '__name__', a) for a in args)}"


@pytest.mark.parametrize(
    "fn, args, why", _REJECTION_CASES, ids=[_case_id(fn, args) for fn, args, _ in _REJECTION_CASES]
)
def test_public_entry_points_reject_invalid_parameters(fn, args, why):
    with pytest.raises(ValueError, match=why):
        fn(*args)


# ---------------------------------------------------------------------------
# metrology


class TestQfi:
    def test_damping_family_is_step_stable(self):
        for p in (0.2, 0.5, 0.8):
            est = qfi_choi(_ad_choi_family, p)
            assert est.value > 0.0
            assert est.step_sensitivity < 0.01

    def test_damping_midpoint_value(self):
        assert qfi_choi(_ad_choi_family, 0.5).value == pytest.approx(2.0, abs=1e-6)

    def test_constant_family(self):
        # self-fidelity carries ~1e-16 noise that 1/h^2 amplifies to ~1e-9
        fixed = _ad_choi_family(0.3)
        est = qfi_choi(lambda t: fixed, 0.7)
        assert abs(est.value) < 1e-6

    def test_direction_symmetry(self):
        theta = 0.4
        forward = qfi_choi(_ad_choi_family, theta)
        backward = qfi_choi(lambda t: _ad_choi_family(2 * theta - t), theta)
        assert backward.value == pytest.approx(forward.value, abs=1e-6)

    def test_depolarizing_family(self):
        est = qfi_choi(lambda x: choi(depolarizing(x, 2)).state, 0.5)
        assert np.isfinite(est.value) and est.value >= 0.0

    def test_array_theta_equals_per_entry(self):
        # the metrology table's route: one stack per point, one fidelity call
        grid = np.linspace(0.2, 0.8, 13)
        got = qfi_choi(lambda t: choi(amplitude_damping(t)), grid, 2e-3)
        assert len(got) == grid.size
        for theta, est in zip(grid, got):
            assert est == qfi_choi(_ad_choi_family, float(theta), 2e-3)
            assert type(est.value) is float

    def test_step_validation(self):
        with pytest.raises(ValueError):
            qfi_choi(_ad_choi_family, 0.5, dtheta=0.0)
        with pytest.raises(ValueError):
            qfi_choi(_ad_choi_family, 0.5, dtheta=-1e-3)

    def test_step_whose_half_square_underflows(self):
        # (1e-170 / 2)^2 is 0 in floating point, so both Richardson steps would divide by 0
        message = r"^step 1e-170 is so small that \(step/2\)\^2 underflows to 0$"
        with pytest.raises(ValueError, match=message):
            qfi_choi(_ad_choi_family, 0.5, dtheta=1e-170)
        assert qfi_choi(_ad_choi_family, 0.5, dtheta=1e-150).value >= 0.0


class TestMetrologyBound:
    def test_quadratic_scaling_is_float_exact(self):
        q = qfi_choi(_ad_choi_family, 0.5).value
        for n in (1, 3, 7, 50):
            assert metrology_bound(2 * n, q).qfi_upper == 4 * metrology_bound(n, q).qfi_upper

    def test_variance_floor(self):
        bound = metrology_bound(10, 2.0)
        assert bound.variance_floor == pytest.approx(1.0 / 200.0)
        assert metrology_bound(10, 0.0).variance_floor == inf

    def test_validation(self):
        with pytest.raises(ValueError):
            metrology_bound(0, 1.0)
        with pytest.raises(ValueError):
            metrology_bound(1, -0.5)
        # the one-count check names only the count it was given
        with pytest.raises(ValueError, match=r"^count n = 1\.5 must be an integer >= 1$"):
            metrology_bound(1.5, 1.0)


# ---------------------------------------------------------------------------
# key rates


def _f_term(eps: float) -> float:
    return (1.0 + eps) * log2(1.0 + eps) - eps * log2(eps)


def _asymptotic_mp(d: int, e_r: float, M: float) -> float:
    """key_rate_bound_asymptotic in 40-digit mpmath."""
    with mp.workdps(40):
        d, e_r, M = mp.mpf(d), mp.mpf(e_r), mp.mpf(M)
        eps = d * (d - 1) / M
        f = (1 + eps) * mp.log(1 + eps, 2) - eps * mp.log(eps, 2)
        return float(M * e_r + (2 * d * (d - 1) / M) * mp.log(d, 2) + f)


def _full_scan_minimum(d: int, e_r: float) -> tuple[int, float]:
    """Reference: every M = 2 .. max(ceil(4 m_tilde), 8), first smallest value."""
    grid = range(2, max(ceil(4.0 * m_tilde(d, e_r)), 8) + 1)
    values = {M: key_rate_bound_asymptotic(d, e_r, M) for M in grid}
    best = min(values, key=values.get)
    return best, values[best]


def _scan_cases() -> list[tuple[int, float]]:
    rng = random.Random(20180305)
    cases = [
        (d, 10.0 ** rng.uniform(-5.0, log10(log2(d))))
        for d in (2, 3, 4, 5, 8)
        for _ in range(40)
    ]
    cases += [(d, e_r) for d in (2, 3) for e_r in (1e-4, 1e-3, 1e-2)]  # the golden tables
    cases += [(d, log2(d)) for d in (2, 3, 4, 5, 8)]  # the grid ends at its floor of 8
    cases.append((2, 1e-9))  # m_tilde = 6.3e4
    return cases


class TestBinaryEntropy:
    def test_values(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0
        assert binary_entropy(0.5) == pytest.approx(1.0)

    def test_range(self):
        with pytest.raises(ValueError):
            binary_entropy(-0.1)
        with pytest.raises(ValueError):
            binary_entropy(1.1)


class TestFiniteKeyRate:
    def test_perfect_simulation_collapses_to_entanglement_term(self):
        for measure in ("REE", "SE"):
            params = KeyRateParams(2, 0.125, measure=measure, n=50)
            bound = key_rate_bound_finite(params, 10, 0.0)
            assert bound.valid
            assert bound.value == 10 * 0.125

    def test_ree_overflow_flagged_invalid(self):
        params = KeyRateParams(2, 1e-3, measure="REE", n=100)
        bound = key_rate_bound_finite(params, 10, 0.02)  # gamma = 2
        assert bound.value == inf and not bound.valid

    def test_se_penalty_saturates_earlier(self):
        # 2 sqrt(gamma) > 1 already at gamma > 1/4
        params_se = KeyRateParams(2, 1e-3, measure="SE", n=1)
        assert not key_rate_bound_finite(params_se, 10, 0.3).valid
        params_ree = KeyRateParams(2, 1e-3, measure="REE", n=1)
        assert key_rate_bound_finite(params_ree, 10, 0.3).valid

    def test_finite_value_formula(self):
        params = KeyRateParams(2, 0.01, measure="REE", n=10, epsilon=0.01, c=2.0)
        gamma = 10 * 0.005 + 0.01
        want = 8 * 0.01 + (4 * gamma * 2.0 * 10 + 2 * binary_entropy(gamma)) / 10
        assert key_rate_bound_finite(params, 8, 0.005).value == pytest.approx(want)

    def test_validation(self):
        params = KeyRateParams(2, 0.01)
        with pytest.raises(ValueError):
            key_rate_bound_finite(params, 1, 0.0)
        with pytest.raises(ValueError):
            key_rate_bound_finite(params, 4, -0.1)
        with pytest.raises(ValueError):
            KeyRateParams(1, 0.01)
        with pytest.raises(ValueError):
            KeyRateParams(2, -0.01)
        with pytest.raises(ValueError):
            KeyRateParams(2, 0.01, measure="XX")
        with pytest.raises(ValueError):
            KeyRateParams(2, 0.01, epsilon=1.0)
        with pytest.raises(ValueError):
            KeyRateParams(2, 0.01, c=0.0)
        with pytest.raises(ValueError, match=r"^count n = 1\.5 must be an integer >= 1$"):
            KeyRateParams(2, 1e-3, n=1.5)

    def test_rejects_non_integer_port_count(self):
        params = KeyRateParams(2, 0.01)
        for M in (2.5, np.float64(7.0)):
            with pytest.raises(ValueError, match="port count"):
                key_rate_bound_finite(params, M, 0.0)
        assert key_rate_bound_finite(params, np.int64(7), 0.0).value == 7 * 0.01

    def test_rejects_delta_above_any_diamond_distance(self):
        params = KeyRateParams(2, 0.01)
        with pytest.raises(ValueError, match="simulation error"):
            key_rate_bound_finite(params, 4, 3.0)
        assert not key_rate_bound_finite(params, 4, 2.0).valid

    def test_rejects_negative_delta(self):
        params = KeyRateParams(2, 0.01)
        with pytest.raises(ValueError, match="simulation error"):
            key_rate_bound_finite(params, 4, -1e-9)
        assert key_rate_bound_finite(params, 4, 0.0).valid


class TestAsymptoticKeyRate:
    def test_vanishes_for_perfect_channels_and_many_ports(self):
        assert key_rate_bound_asymptotic(2, 0.0, 1e6) < 1e-4

    def test_port_choice_identity(self):
        # evaluating at m_tilde matches the closed two-term expression
        for d in (2, 3, 5):
            for e_r in (1e-4, 1e-3, 1e-2):
                mt = m_tilde(d, e_r)
                want = 2.0 * sqrt(2.0 * d * (d - 1) * log2(d) * e_r) + _f_term(
                    sqrt(d * (d - 1) * e_r / (2.0 * log2(d)))
                )
                assert key_rate_bound_asymptotic(d, e_r, mt) == pytest.approx(
                    want, abs=1e-12
                )

    def test_grid_minimum_beats_analytic_port_choice(self):
        for d in (2, 3):
            for e_r in (1e-4, 1e-3, 1e-2):
                _, best = key_rate_minimize_m(d, e_r)
                assert best <= key_rate_bound_asymptotic(d, e_r, m_tilde(d, e_r))

    def test_known_minimizer(self):
        best_m, best = key_rate_minimize_m(2, 1e-3)
        assert best_m == 127
        assert best == pytest.approx(0.2757036277916119, abs=1e-12)
        assert best_m > m_tilde(2, 1e-3)  # the f-term pushes the optimum up

    def test_matches_mpmath_down_to_tiny_e_r(self):
        # f takes log1p(eps): forming 1 + eps first was off by ~2e-16 absolute,
        # 6e-12 relative near the minimum at e_r = 1e-12
        for d in (2, 3, 5, 8):
            for e_r in (10.0**-k for k in range(2, 13)):
                mt = m_tilde(d, e_r)
                for M in {max(mt / 3, 2.0), mt, float(round(mt)), 3 * mt, 2.0}:
                    want = pytest.approx(_asymptotic_mp(d, e_r, M), rel=1e-15, abs=0)
                    assert key_rate_bound_asymptotic(d, e_r, M) == want, (d, e_r, M)

    def test_bisection_matches_full_scan(self):
        for d, e_r in _scan_cases():
            assert key_rate_minimize_m(d, e_r) == _full_scan_minimum(d, e_r), (d, e_r)

    def test_scan_is_unimodal(self):
        grid = range(2, 81)
        vals = [key_rate_bound_asymptotic(2, 1e-2, M) for M in grid]
        decreasing = [i for i in range(len(vals) - 1) if vals[i + 1] < vals[i] - 1e-12]
        assert decreasing == list(range(len(decreasing)))

    def test_zero_entanglement_has_no_minimizer(self):
        with pytest.raises(ValueError, match="no finite port count"):
            key_rate_minimize_m(2, 0.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            key_rate_bound_asymptotic(1, 0.01, 10)
        with pytest.raises(ValueError, match="dimension"):
            key_rate_bound_asymptotic(2.5, 0.1, 10)
        with pytest.raises(ValueError):
            key_rate_bound_asymptotic(2, 0.01, 1.5)
        with pytest.raises(ValueError):
            m_tilde(2, 0.0)
        # REE and squashed entanglement of a d-dimensional Choi state are <= log2 d
        for d, e_r in ((2, 1.5), (3, 3.0), (4, 2.0 + 1e-12)):
            with pytest.raises(ValueError, match="e_r"):
                KeyRateParams(d, e_r)
            with pytest.raises(ValueError, match="e_r"):
                m_tilde(d, e_r)
            with pytest.raises(ValueError, match="e_r"):
                key_rate_bound_asymptotic(d, e_r, 10)
        for d in (2, 3, 4):
            KeyRateParams(d, log2(d))
            assert m_tilde(d, log2(d)) == pytest.approx(sqrt(2.0 * d * (d - 1)), rel=1e-15)
            assert m_tilde(d, log2(d)) >= 2.0

    @pytest.mark.parametrize("d, e_r", [(2, 5e-324), (3, 1e-308)])
    def test_m_tilde_overflow_is_rejected(self, d, e_r):
        # 2d(d-1) log2(d) / e_r overflows to inf; the port count must not be inf
        with pytest.raises(ValueError, match=f"e_r = {e_r} gives an infinite port count"):
            m_tilde(d, e_r)

    def test_m_tilde_stays_finite_near_overflow(self):
        assert m_tilde(2, 1e-300) == pytest.approx(2e150, rel=1e-15)
