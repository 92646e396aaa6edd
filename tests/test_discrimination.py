"""Universal discrimination bound, estimators, and the damping-pair sweep."""

from math import exp, inf, log, sqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pbtbounds.discrimination import (
    ad_discrimination_sweep,
    ad_fidelity,
    block_bounds_ad,
    bound_B,
    bound_B_analytic_M,
    bound_B_near_identity,
    bound_B_optimized,
    d_upper_fuchs,
    d_upper_pinsker,
    d_upper_subadd,
    default_m_grid,
)
from pbtbounds.pbt import delta_ad, delta_exact_qubit, simulation_error


class TestEstimators:
    def test_fuchs_endpoints(self):
        assert d_upper_fuchs(1.0, 5, 10) == 0.0
        assert d_upper_fuchs(0.0, 5, 10) == 1.0

    def test_fuchs_log_domain_agrees_with_direct_power(self):
        got = d_upper_fuchs(0.99, 2, 4)
        assert got == pytest.approx(sqrt(1 - 0.99**16), abs=1e-14)

    def test_fuchs_no_underflow_at_large_exponent(self):
        # 2nM ~ 2e6 would underflow a naive power for F close to 0
        assert d_upper_fuchs(0.5, 1000, 1000) == 1.0

    def test_subadd_arithmetic(self):
        assert d_upper_subadd(0.01, 5, 10) == pytest.approx(0.5)
        with pytest.raises(ValueError):
            d_upper_subadd(-0.1, 5, 10)

    def test_pinsker_values(self):
        assert d_upper_pinsker(0.0, 5, 10) == 0.0
        assert d_upper_pinsker(inf, 5, 10) == inf
        got = d_upper_pinsker(0.3, 20, 40)
        assert got == pytest.approx(sqrt(20 * 40 * 0.5 * log(2) * 0.3), abs=1e-12)

    def test_count_validation(self):
        for n, M in ((0, 4), (1.5, 4), (2, 4.0), (True, 4), (2, True)):
            with pytest.raises(ValueError, match="integers"):
                d_upper_fuchs(0.9, n, M)
        with pytest.raises(ValueError):
            d_upper_fuchs(1.2, 1, 4)


class TestBoundB:
    def test_indistinguishable_channels(self):
        report = bound_B(5, 10, 0.0, 0.0)
        assert report.value == 0.5
        assert report.valid

    def test_qubit_example_at_f_one(self):
        report = bound_B(1, 8, delta_exact_qubit(8), d_upper_fuchs(1.0, 1, 8))
        assert report.value == pytest.approx((1 - delta_exact_qubit(8)) / 2, abs=1e-13)

    def test_clamps_and_keeps_raw(self):
        report = bound_B(10, 2, 0.5, 0.9)
        assert report.value == 0.0
        assert not report.valid
        assert report.params["raw"] == pytest.approx((1 - 5 - 0.9) / 2)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            bound_B(5, 10, 2.5, 0.0)
        with pytest.raises(ValueError):
            bound_B(5, 10, 0.5, -0.1)
        for n, M in ((1.5, 10), (5, 10.5), (5.0, 10), (True, 10), (5, False)):
            with pytest.raises(ValueError, match="integers"):
                bound_B(n, M, 0.1, 0.1)


class TestBoundBOptimized:
    def test_identical_channels_pick_largest_port_count(self):
        grid = [2, 8, 32]
        report = bound_B_optimized(3, 2, M_grid=grid, F=1.0)
        assert report.params["M"] == 32
        assert report.value == pytest.approx((1 - 3 * delta_exact_qubit(32)) / 2)

    def test_maximum_dominates_grid(self):
        F = ad_fidelity(0.8, 0.81)
        opt = bound_B_optimized(20, 2, F=F)
        for M in (10, 64, 320):
            fixed = bound_B(20, M, delta_exact_qubit(M), d_upper_fuchs(F, 20, M))
            assert opt.value >= fixed.value - 1e-12

    def test_estimator_selection_recorded(self):
        report = bound_B_optimized(2, 2, M_grid=[4], F=0.99, choi_dist=1e-6)
        assert report.params["estimator"] == "subadd"

    def test_delta_provenance_recorded(self):
        for n, d, grid in ((5, 2, None), (5, 3, None), (1, 3, [4])):
            report = bound_B_optimized(n, d, M_grid=grid, F=0.9999)
            got = (report.params["delta"], report.params["delta_provenance"])
            assert got == simulation_error(report.params["M"], d)
        # the last case, 2d(d-1)/M = 3 at d = 3 and M = 4, is capped at 2
        assert report.params["delta"] == 2.0

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            bound_B_optimized(2, 2, M_grid=[], F=0.9)

    def test_requires_an_estimator(self):
        with pytest.raises(ValueError, match="estimator"):
            bound_B_optimized(2, 2, M_grid=[4])

    def test_default_grid_contents(self):
        grid = default_m_grid(5, 2)
        assert grid[0] == 2 and 64 in grid
        assert 4 * 2 * 1 * 5 in grid  # the analytic port choice


class TestAnalyticAndNearIdentity:
    def test_analytic_at_f_one(self):
        assert bound_B_analytic_M(3, 2, 1.0).value == 0.25

    def test_analytic_formula_value(self):
        got = bound_B_analytic_M(1, 2, 0.999)
        assert got.value == pytest.approx((1 - 2 * sqrt(1 - 0.999**16)) / 4, abs=1e-13)

    def test_analytic_equals_generic_bound_at_its_port_choice(self):
        # for d > 2 the optimizer uses the same generic delta, so evaluating
        # the grid exactly at 4d(d-1)n reproduces the closed form
        n, d, F = 2, 3, 0.9999
        an = bound_B_analytic_M(n, d, F)
        opt = bound_B_optimized(n, d, M_grid=[4 * d * (d - 1) * n], F=F)
        assert an.value == pytest.approx(opt.value, abs=1e-14)

    def test_qubit_optimized_beats_analytic(self):
        n, F = 2, 0.9999
        an = bound_B_analytic_M(n, 2, F)
        opt = bound_B_optimized(n, 2, F=F)
        assert opt.value >= an.value

    def test_near_identity_at_zero(self):
        report = bound_B_near_identity(4, 2, 0.0)
        assert report.value == 0.25
        assert report.params["surrogate"] == 0.25

    def test_near_identity_qubit_surrogate(self):
        n, eps = 3, 1e-4
        report = bound_B_near_identity(n, 2, eps)
        assert report.params["surrogate"] == pytest.approx(exp(-8 * n * sqrt(eps)) / 4)
        assert report.value == pytest.approx(max(0.25 - 2 * n * sqrt(eps), 0.0))

    def test_near_identity_regime_flag(self):
        assert bound_B_near_identity(1, 2, 1e-6).params["regime_ok"]
        assert not bound_B_near_identity(100, 2, 1e-2).params["regime_ok"]

    def test_non_integer_dimension_rejected(self):
        with pytest.raises(ValueError, match="dimension"):
            bound_B_near_identity(1, 2.5, 0.01)
        # checked before M = 4d(d-1)n is formed, so no float port count is reported
        with pytest.raises(ValueError, match="dimension"):
            bound_B_analytic_M(1, 2.5, 0.9)


class TestBlockBounds:
    def test_ad_fidelity_extremes(self):
        assert ad_fidelity(0.0, 1.0) == pytest.approx(0.5)
        assert ad_fidelity(0.3, 0.3) == pytest.approx(1.0)

    def test_block_bounds_extreme_pair(self):
        lower, upper = block_bounds_ad(0.0, 1.0, 1)
        assert lower == pytest.approx((1 - sqrt(3) / 2) / 2, abs=1e-13)
        assert upper == pytest.approx(0.25)

    def test_identical_channels_stay_at_half(self):
        assert block_bounds_ad(0.4, 0.4, 7) == (0.5, 0.5)

    def test_block_upper_endpoints(self):
        # the upper end is F^n / 2: 1/2 for identical channels, 2^-n / 2 at F = 1/2
        assert block_bounds_ad(0.3, 0.3, 9)[1] == 0.5
        assert block_bounds_ad(0.0, 1.0, 9)[1] == pytest.approx(0.5**9 / 2, rel=1e-14)


@settings(max_examples=80, deadline=None)
@given(
    st.floats(0.0, 1.0, allow_nan=False, width=32),
    st.floats(0.0, 1.0, allow_nan=False, width=32),
    st.integers(1, 200),
)
def test_block_lower_never_exceeds_upper(p0, p1, n):
    lower, upper = block_bounds_ad(p0, p1, n)
    assert lower <= upper + 1e-8


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 50),
    st.integers(2, 40),
    st.floats(0.0, 1.0, allow_nan=False, width=32),
    st.floats(0.0, 1.0, allow_nan=False, width=32),
    st.floats(0.0, 0.5, allow_nan=False, width=32),
)
def test_bound_monotone_in_delta_and_estimate(n, M, delta, d_est, bump):
    base = bound_B(n, M, delta, d_est)
    assert bound_B(n, M, min(delta + bump, 2.0), d_est).value <= base.value + 1e-12
    assert bound_B(n, M, delta, d_est + bump).value <= base.value + 1e-12


class TestTightened:
    """bound_B with the pair-average simulation error delta_bar."""

    def test_reduces_to_generic_when_average_equals_delta(self):
        # at p = 0 (no damping) Delta_M(p) = delta_M, so the sweep's fixed-M
        # column is bound_B with the universal simulation error
        row = ad_discrimination_sweep([0.0], 0.0, 4, [6])[0]
        assert row["lb_M6"] == bound_B(4, 6, delta_exact_qubit(6), 0.0).value

    def test_ad_average_never_hurts(self):
        for M in (3, 10, 40):
            for p0, p1 in ((0.8, 0.81), (0.5, 0.6), (0.9, 0.99)):
                delta_bar = (delta_ad(M, p0) + delta_ad(M, p1)) / 2
                assert delta_bar <= delta_exact_qubit(M) + 1e-12
                tight = bound_B(20, M, delta_bar, 0.1)
                generic = bound_B(20, M, delta_exact_qubit(M), 0.1)
                assert tight.value >= generic.value - 1e-12

    def test_identical_ad_channels(self):
        # F = 1 kills the estimator term, leaving (1 - n Delta_M(p))/2
        p, n, M = 0.6, 3, 12
        d_est = d_upper_fuchs(ad_fidelity(p, p), n, M)
        report = bound_B(n, M, delta_ad(M, p), d_est)
        assert report.value == pytest.approx((1 - n * delta_ad(M, p)) / 2, abs=1e-13)


class TestSweep:
    def test_row_count_and_columns(self):
        rows = ad_discrimination_sweep([0.8, 0.85, 0.9], 0.01, 20, [10, 100])
        assert len(rows) == 3
        assert set(rows[0]) == {
            "p", "block_lower", "block_upper", "lb_M10", "lb_M100",
            "lb_optimized", "argmax_M",
        }

    def test_degenerate_separation(self):
        row = ad_discrimination_sweep([0.5], 0.0, 20, [100])[0]
        assert row["block_lower"] == 0.5
        assert row["block_upper"] == 0.5
        delta_bar = delta_ad(100, 0.5)
        assert row["lb_M100"] == pytest.approx((1 - 20 * delta_bar) / 2, abs=1e-12)

    def test_optimized_dominates_fixed_columns(self):
        rows = ad_discrimination_sweep([0.8, 0.9, 0.98], 0.01, 20, [10, 100, 1000])
        for row in rows:
            for M in (10, 100, 1000):
                assert row["lb_optimized"] >= row[f"lb_M{M}"] - 1e-12

    def test_grid_validation(self):
        with pytest.raises(ValueError, match="nonempty"):
            ad_discrimination_sweep([], 0.01, 20, [10])
        with pytest.raises(ValueError, match="exceeds 1"):
            ad_discrimination_sweep([0.995], 0.01, 20, [10])
        with pytest.raises(ValueError, match="nonnegative"):
            ad_discrimination_sweep([0.8], -0.01, 20, [10])
