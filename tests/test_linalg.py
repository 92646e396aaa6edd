"""Density-matrix primitives: construction guards, fidelity, partial trace."""

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings

from conftest import density_matrices
from pbtbounds.applications import resolution_chois
from pbtbounds.channels import amplitude_damping, choi
from pbtbounds.linalg import (
    TOL_NUM,
    TOL_PSD,
    DensityMatrix,
    _partial_trace_2,
    fidelity,
    psd_sqrt,
)

KET0 = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
KET1 = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)
PLUS = np.full((2, 2), 0.5, dtype=complex)


class TestDensityMatrix:
    def test_valid_construction(self):
        rho = DensityMatrix(np.eye(4) / 4, (2, 2))
        assert rho.matrix.shape[-1] == 4
        assert rho.dims == (2, 2)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            DensityMatrix(np.ones((2, 3)), (2,))

    def test_rejects_dims_mismatch(self):
        with pytest.raises(ValueError, match="dims"):
            DensityMatrix(np.eye(4) / 4, (2, 3))

    def test_rejects_non_hermitian(self):
        mat = np.array([[0.5, 0.3], [0.0, 0.5]], dtype=complex)
        with pytest.raises(ValueError, match="Hermitian"):
            DensityMatrix(mat, (2,))

    def test_rejects_bad_trace(self):
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix(np.eye(2), (2,))

    def test_rejects_negative_eigenvalue(self):
        mat = np.diag([1.5, -0.5]).astype(complex)
        with pytest.raises(ValueError, match="negative eigenvalue"):
            DensityMatrix(mat, (2,))

    def test_rejects_non_finite(self):
        mat = np.diag([np.inf, 0.0]).astype(complex)
        with pytest.raises(ValueError, match="non-finite"):
            DensityMatrix(mat, (2,))
        imag_nan = (np.eye(2) / 2).astype(complex)
        imag_nan[0, 0] = complex(0.5, np.nan)
        with pytest.raises(ValueError, match="non-finite"):
            DensityMatrix(imag_nan, (2,))
        off_diag_inf = (np.eye(2) / 2).astype(complex)
        off_diag_inf[0, 1] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            DensityMatrix(off_diag_inf, (2,))

    def test_numpy_integer_dims_stored_as_int(self):
        rho = DensityMatrix(np.eye(6) / 6, (np.int64(2), np.int32(3)))
        assert rho.dims == (2, 3)
        assert all(type(d) is int for d in rho.dims)

    @pytest.mark.parametrize("dims", [(2.7, 2), (2, 2.0), (-2, -2), (4, 1, 0), (True, 4)])
    def test_rejects_non_integer_or_non_positive_dims(self, dims):
        bad = next(d for d in dims if isinstance(d, (float, bool)) or d < 1)
        with pytest.raises(ValueError, match=rf"^subsystem dimension {bad} must be an integer >= 1$"):
            DensityMatrix(np.eye(4) / 4, dims)


class TestMetrics:
    def test_fidelity_pure_states(self):
        assert fidelity(KET0, PLUS) == pytest.approx(np.sqrt(0.5), abs=1e-12)
        assert fidelity(KET0, KET0) == pytest.approx(1.0, abs=1e-12)
        assert fidelity(KET0, KET1) == pytest.approx(0.0, abs=1e-12)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="mismatch"):
            fidelity(np.eye(2) / 2, np.eye(3) / 3)

    def test_psd_sqrt_squares_back(self):
        rho = np.diag([0.7, 0.2, 0.1]).astype(complex)
        root = psd_sqrt(rho)
        assert np.abs(root @ root - rho).max() < 1e-12

    def test_psd_sqrt_zeroes_sub_tolerance_eigenvalues(self):
        # 1e-12 is indistinguishable from rounding noise at unit scale; its
        # square root must not surface as 1e-6-scale garbage
        rho = np.diag([1.0, 1e-12]).astype(complex)
        root = psd_sqrt(rho)
        assert root[1, 1] == 0.0


# fidelity's stated absolute accuracy; 1.2e-15 at worst on the grids below
_FIDELITY_ABS_ERR = 1e-14


def _fidelity_vs(a, b, ref):
    """|fidelity(a, b) - ref| for states whose nonzero eigenvalues all lie above TOL_PSD."""
    for state in (a, b):
        evals = np.linalg.eigvalsh(state.matrix)
        assert all(v > TOL_PSD or abs(v) < 1e-15 for v in evals)  # outside the zeroed band
    return float(abs(mp.mpf(fidelity(a, b)) - ref))


class TestFidelityAccuracy:
    # against 40-digit mpmath evaluations of the closed forms of ad_fidelity and resolution_fidelity

    @pytest.mark.parametrize("p", [0.0, 1e-3, 0.01, 0.05, 0.2, 0.5, 0.8, 0.95, 0.99])
    def test_damping_pairs(self, p):
        for dp in (0.1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6):
            p1 = p + dp
            if p1 > 1.0:
                continue
            with mp.workdps(40):
                p0_mp, p1_mp = mp.mpf(p), mp.mpf(p1)
                ref = (1 + mp.sqrt((1 - p0_mp) * (1 - p1_mp)) + mp.sqrt(p0_mp * p1_mp)) / 2
                err = _fidelity_vs(choi(amplitude_damping(p)), choi(amplitude_damping(p1)), ref)
            assert err <= _FIDELITY_ABS_ERR, (p, dp, err)

    @pytest.mark.parametrize("eta", [1e-3, 0.01, 0.1, 0.5, 0.9, 0.99, 1.0])
    def test_resolution_pairs(self, eta):
        for s in (0.0, 1e-3, 0.01, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0):
            with mp.workdps(40):
                ref = 1 - mp.mpf(eta) * (1 - mp.exp(-mp.mpf(s) ** 2 / 8)) / 2
                err = _fidelity_vs(*resolution_chois(eta, s), ref)
            assert err <= _FIDELITY_ABS_ERR, (eta, s, err)


@settings(max_examples=60, deadline=None)
@given(density_matrices(dims=(2, 2)), density_matrices(dims=(2, 2)))
def test_fuchs_van_de_graaf(rho, sigma):
    F = fidelity(rho, sigma)
    D = 0.5 * np.abs(np.linalg.eigvalsh(rho.matrix - sigma.matrix)).sum()
    assert 1.0 - F <= D + TOL_NUM
    assert D <= np.sqrt(max(1.0 - F * F, 0.0)) + TOL_NUM


@settings(max_examples=60, deadline=None)
@given(density_matrices(dims=(2, 2)), density_matrices(dims=(2, 2)))
def test_fidelity_symmetric_and_bounded(rho, sigma):
    F = fidelity(rho, sigma)
    assert 0.0 <= F <= 1.0
    assert abs(F - fidelity(sigma, rho)) < 1e-11


class TestPartialTrace:
    def test_product_state_factors(self):
        a = np.diag([0.25, 0.75]).astype(complex)
        for b in (PLUS, np.diag([0.5, 0.3, 0.2]).astype(complex)):
            dims = (2, b.shape[0])
            joint = np.kron(a, b)
            assert np.abs(_partial_trace_2(joint, dims, 0) - a).max() < 1e-14
            assert np.abs(_partial_trace_2(joint, dims, 1) - b).max() < 1e-14

    def test_entangled_state_marginal(self):
        phi = np.zeros((4, 4), dtype=complex)
        phi[0, 0] = phi[0, 3] = phi[3, 0] = phi[3, 3] = 0.5
        for keep in (0, 1):
            marg = _partial_trace_2(phi, (2, 2), keep)
            assert np.abs(marg - np.eye(2) / 2).max() < 1e-14


class TestStacks:
    """A stack (..., n, n) gives member for member what each matrix gives alone."""

    @staticmethod
    def _stack(shape, dim, seed=20180305):
        rng = np.random.default_rng(seed)
        g = rng.normal(size=shape + (dim, dim)) + 1j * rng.normal(size=shape + (dim, dim))
        rho = g @ g.conj().swapaxes(-1, -2)
        return rho / np.trace(rho, axis1=-2, axis2=-1)[..., None, None]

    def test_density_matrix_accepts_stack(self):
        stack = self._stack((3, 2), 4)
        rho = DensityMatrix(stack, (2, 2))
        assert rho.matrix.shape == (3, 2, 4, 4)
        assert rho.matrix.shape[-1] == 4

    def test_psd_sqrt_equals_per_member(self):
        stack = self._stack((3, 2), 4)
        stack[1, 0] = np.diag([1.0, 1e-12, 0.0, 0.0])  # a member with zeroed eigenvalues
        got = psd_sqrt(stack)
        for idx in np.ndindex(3, 2):
            assert np.array_equal(got[idx], psd_sqrt(stack[idx]))

    def test_fidelity_equals_per_member(self):
        a, b = self._stack((5, 2), 3, seed=1), self._stack((5, 2), 3, seed=2)
        b[2, 1] = a[2, 1]  # F = 1 exactly after the clamp
        got = fidelity(a, b)
        assert got.shape == (5, 2)
        for idx in np.ndindex(5, 2):
            single = fidelity(a[idx], b[idx])
            assert type(single) is float
            assert got[idx] == single

    def test_fidelity_rejects_mismatched_stacks(self):
        with pytest.raises(ValueError, match="mismatch"):
            fidelity(self._stack((2,), 2), self._stack((3,), 2))

    def test_partial_trace_equals_per_member(self):
        stack = self._stack((4,), 6)
        for keep in (0, 1):
            got = _partial_trace_2(stack, (2, 3), keep)
            for k in range(4):
                assert np.array_equal(got[k], _partial_trace_2(stack[k], (2, 3), keep))

    @pytest.mark.parametrize(
        "plant, message",
        [
            (lambda m: m.__setitem__((0, 0), np.nan), "non-finite"),
            (lambda m: m.__setitem__((0, 1), m[0, 1] + 1e-6), "Hermitian"),
            (lambda m: m.__imul__(1.5), r"trace \(1\.[0-9]+.*\) is not 1"),
            (lambda m: m.__setitem__(slice(None), np.diag([1.5, -0.5, 0.0, 0.0])),
             "negative eigenvalue"),
        ],
        ids=["non-finite", "hermitian", "trace", "negative-eigenvalue"],
    )
    def test_one_bad_member_fails_the_stack(self, plant, message):
        stack = self._stack((3, 2), 4)
        plant(stack[2, 1])
        with pytest.raises(ValueError, match=message):
            DensityMatrix(stack, (2, 2))

    def test_trace_message_names_first_offending_member(self):
        stack = np.stack([np.eye(2) / 2, np.eye(2) * 0.6, np.eye(2)]).astype(complex)
        with pytest.raises(ValueError, match=r"trace \(1\.2\+0j\) is not 1"):
            DensityMatrix(stack, (2,))

    def test_stack_shape_checks(self):
        with pytest.raises(ValueError, match="square"):
            DensityMatrix(np.ones((3, 2, 3)) / 2, (2,))
        with pytest.raises(ValueError, match="square"):
            DensityMatrix(np.ones(4) / 4, (4,))
        with pytest.raises(ValueError, match="dims"):
            DensityMatrix(self._stack((2,), 4), (2, 3))


@settings(max_examples=40, deadline=None)
@given(density_matrices(dims=(2, 3)))
def test_partial_trace_preserves_trace(rho):
    for keep in (0, 1):
        red = _partial_trace_2(rho.matrix, rho.dims, keep)
        assert abs(np.trace(red) - 1.0) < 1e-10
