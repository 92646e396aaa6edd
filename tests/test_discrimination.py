"""Universal discrimination bound, the Fuchs estimator, and the damping-pair sweep."""

import re
from math import exp, sqrt

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pbtbounds.discrimination import (
    ad_discrimination_sweep,
    ad_fidelity,
    bound_B_near_identity,
    _raw_bound,
    _report,
    bound_B_optimized,
    d_upper_fuchs,
    default_m_grid,
)
from pbtbounds.pbt import delta_ad, delta_exact_qubit, simulation_error


def _count_error(name, value) -> str:
    """Pattern matching the whole message of a rejected count."""
    return rf"^count {name} = {re.escape(str(value))} must be an integer >= 1$"


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

    def test_count_validation(self):
        # each count is checked on its own and the message names only that count
        for n, M, name, bad in ((0, 4, "n", 0), (1.5, 4, "n", 1.5), (2, 4.0, "M", 4.0),
                                (True, 4, "n", True), (2, True, "M", True)):
            with pytest.raises(ValueError, match=_count_error(name, bad)):
                d_upper_fuchs(0.9, n, M)
        with pytest.raises(ValueError):
            d_upper_fuchs(1.2, 1, 4)


class TestBoundBOptimized:
    def test_identical_channels_pick_largest_port_count(self):
        # at F = 1 the estimator vanishes and delta_M falls with M
        report = bound_B_optimized(3, 2, F=1.0)
        assert report.params["M"] == max(default_m_grid(3, 2)) == 64
        assert report.value == pytest.approx((1 - 3 * delta_exact_qubit(64)) / 2)
        assert report.valid

    def test_maximum_dominates_grid(self):
        F = ad_fidelity(0.8, 0.81)
        opt = bound_B_optimized(20, 2, F=F)
        for M in (10, 64, 320):
            fixed = (1 - 20 * delta_exact_qubit(M) - d_upper_fuchs(F, 20, M)) / 2
            assert opt.value >= fixed - 1e-12

    def test_clamps_and_keeps_raw(self):
        report = bound_B_optimized(20, 3, F=0.5)
        params = report.params
        assert params["raw"] < 0.0
        assert params["raw"] == (1 - 20 * params["delta"] - params["d_estimate"]) / 2
        assert report.value == 0.0
        assert not report.valid

    def test_delta_provenance_recorded(self):
        for n, d in ((5, 2), (5, 3)):
            report = bound_B_optimized(n, d, F=0.9999)
            got = (report.params["delta"], report.params["delta_provenance"])
            assert got == simulation_error(report.params["M"], d)

    def test_estimator_selection_recorded(self):
        # the recorded estimate is the Fuchs bound at the winning port count
        for n, d, F in ((2, 2, 0.99), (5, 3, 0.9999), (1, 4, 0.5)):
            params = bound_B_optimized(n, d, F=F).params
            assert params["estimator"] == "fuchs"
            assert params["d_estimate"] == d_upper_fuchs(F, n, params["M"])

    def test_input_validation(self):
        with pytest.raises(ValueError, match="fidelity"):
            bound_B_optimized(2, 2, F=1.2)
        # n, d and F are checked before the port-count grid is built from them,
        # so the message names n, never a grid port count
        for n in (1.5, 0, -3):
            with pytest.raises(ValueError, match=_count_error("n", n)):
                bound_B_optimized(n, 2, F=0.9)
        with pytest.raises(ValueError, match=r"^dimension 1 must be an integer >= 2$"):
            bound_B_optimized(2, 1, F=0.9)

    def test_default_grid_contents(self):
        grid = default_m_grid(5, 2)
        assert grid[0] == 2 and 64 in grid
        assert 4 * 2 * 1 * 5 in grid  # the analytic port choice


# (n, d, F) -> value, raw, M, delta provenance of the scan with a choice of
# estimator and grid; the Fuchs-only default-grid scan reproduces them exactly
RECORDED = [
    ((1, 2, 0.5), 0.0, -0.011586826005207163, 64, "closed_form"),
    ((2, 3, 0.9999), 0.2779511526737315, 0.2779511526737315, 96, "upper_bound"),
    ((5, 2, 0.9999), 0.31762112459788805, 0.31762112459788805, 62, "closed_form"),
    ((20, 4, 1 - 1e-3 / 20**2), 0.16601834435571233, 0.16601834435571233, 1920, "upper_bound"),
    ((200, 3, 1.0), 0.375, 0.375, 9600, "upper_bound"),
    ((2000, 2, 1 - 1e-3 / 2000**2), 0.36439417012070446, 0.36439417012070446, 32000, "closed_form"),
]


@pytest.mark.parametrize(("args", "value", "raw", "M", "provenance"), RECORDED, ids=[f"n{r[0][0]}-d{r[0][1]}" for r in RECORDED])
def test_recorded_values(args, value, raw, M, provenance):
    n, d, F = args
    report = bound_B_optimized(n, d, F=F)
    params = report.params
    assert (report.value, params["raw"], params["M"], params["delta_provenance"]) == (value, raw, M, provenance)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_optimized_beats_analytic_port_choice(d):
    # M = 4d(d-1)n is on the default grid and has n delta_M <= 1/2, so the
    # optimum is at least the closed form (1 - 2 sqrt(1 - F^{8d(d-1)n^2}))/4
    for n in (1, 3, 20):
        for F in (0.5, 0.999, 0.9999, 1.0):
            analytic = (1 - 2 * sqrt(1 - F ** (8 * d * (d - 1) * n * n))) / 4
            assert bound_B_optimized(n, d, F=F).value >= max(analytic, 0.0) - 1e-12


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 50),
    st.integers(2, 4),
    st.floats(0.0, 1.0, allow_nan=False),
    st.floats(0.0, 1.0, allow_nan=False),
)
def test_optimized_monotone_in_fidelity(n, d, F0, F1):
    # each fixed-M bound grows with F, so their maximum does too
    lo, hi = sorted((F0, F1))
    assert bound_B_optimized(n, d, F=lo).value <= bound_B_optimized(n, d, F=hi).value + 1e-12


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 50),
    st.floats(0.0, 2.0, allow_nan=False, width=32),
    st.floats(0.0, 1.0, allow_nan=False, width=32),
    st.floats(0.0, 0.5, allow_nan=False, width=32),
)
def test_bound_monotone_in_delta_and_estimate(n, delta, d_est, bump):
    def bound(delta, d_est):
        return _report("B", _raw_bound(n, delta, d_est), {})

    base = bound(delta, d_est)
    assert 0.0 <= base.value <= 0.5
    assert base.valid == (base.params["raw"] > 0.0)
    assert bound(min(delta + bump, 2.0), d_est).value <= base.value + 1e-12
    assert bound(delta, d_est + bump).value <= base.value + 1e-12


class TestNearIdentity:
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


class TestBlockBounds:
    def test_ad_fidelity_extremes(self):
        assert ad_fidelity(0.0, 1.0) == pytest.approx(0.5)
        assert ad_fidelity(0.3, 0.3) == pytest.approx(1.0)

    def test_block_window_extreme_pair(self):
        # p = 0 against p = 1 has F = 1/2
        row = ad_discrimination_sweep([0.0], 1.0, 1, [2])[0]
        assert row["block_lower"] == pytest.approx((1 - sqrt(3) / 2) / 2, abs=1e-13)
        assert row["block_upper"] == pytest.approx(0.25)

    def test_block_upper_endpoints(self):
        # the upper end is F^n / 2: 1/2 for identical channels, 2^-n / 2 at F = 1/2
        assert ad_discrimination_sweep([0.3], 0.0, 9, [2])[0]["block_upper"] == 0.5
        row = ad_discrimination_sweep([0.0], 1.0, 9, [2])[0]
        assert row["block_upper"] == pytest.approx(0.5**9 / 2, rel=1e-14)


@settings(max_examples=80, deadline=None)
@given(
    st.floats(0.0, 1.0, allow_nan=False, width=32),
    st.floats(0.0, 1.0, allow_nan=False, width=32),
    st.integers(1, 200),
)
def test_block_lower_never_exceeds_upper(p0, p1, n):
    p, dp = min(p0, p1), abs(p1 - p0)
    assume(p + dp <= 1.0)
    row = ad_discrimination_sweep([p], dp, n, [2])[0]
    assert row["block_lower"] <= row["block_upper"] + 1e-8


class TestTightened:
    """The sweep's bound with the pair-average simulation error delta_bar."""

    def test_reduces_to_generic_when_average_equals_delta(self):
        # at p = 0 (no damping) Delta_M(p) = delta_M, so the sweep's fixed-M
        # column is (1 - n delta_M - D)/2 with D = 0 for identical channels,
        # clamped to [0, 1/2]; n = 4 is past the clamp
        for n in (1, 3, 4):
            row = ad_discrimination_sweep([0.0], 0.0, n, [6])[0]
            assert row["lb_M6"] == min(max((1 - n * delta_exact_qubit(6) - 0.0) / 2, 0.0), 0.5)

    def test_ad_average_never_exceeds_delta(self):
        for M in (3, 10, 40):
            for p0, p1 in ((0.8, 0.81), (0.5, 0.6), (0.9, 0.99)):
                delta_bar = (delta_ad(M, p0) + delta_ad(M, p1)) / 2
                assert delta_bar <= delta_exact_qubit(M) + 1e-12

    def test_ad_average_never_hurts(self):
        # the fixed-M column with delta_bar is never below the same bound with
        # the universal delta_M; n = 2 keeps most columns off the clamp
        n, grid = 2, [3, 10, 40]
        for p0, p1 in ((0.8, 0.81), (0.5, 0.6), (0.9, 0.99)):
            row = ad_discrimination_sweep([p0], p1 - p0, n, grid)[0]
            F = ad_fidelity(p0, p1)
            for M in grid:
                generic = (1 - n * delta_exact_qubit(M) - d_upper_fuchs(F, n, M)) / 2
                assert row[f"lb_M{M}"] >= min(max(generic, 0.0), 0.5) - 1e-12


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
        with pytest.raises(ValueError, match=r"^damping separation -0\.01 outside \[0, inf\]$"):
            ad_discrimination_sweep([0.8], -0.01, 20, [10])

    @pytest.mark.parametrize("n", [0, 0.4, 1.5, True])
    def test_rejects_bad_count(self, n):
        with pytest.raises(ValueError, match=_count_error("n", n)):
            ad_discrimination_sweep([0.5], 0.01, n, [10])
