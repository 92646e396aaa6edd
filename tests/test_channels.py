"""Kraus channels, Choi matrices, amplitude damping and the depolarizing reference channel."""

import numpy as np
import pytest
from hypothesis import given, settings

from conftest import density_matrices, depolarizing, isometry_channel, probabilities
from pbtbounds.channels import ChoiMatrix, KrausChannel, amplitude_damping, choi
from pbtbounds.linalg import DensityMatrix, _partial_trace_2


def phi_state(d):
    """The maximally entangled state d^{-1/2} sum_k |kk> as a [d, d] state."""
    vec = np.eye(d, dtype=complex).reshape(d * d) / np.sqrt(d)
    return DensityMatrix(np.outer(vec, vec.conj()), (d, d))


def choi_kron_reference(ch):
    """sum_K (I (x) K) Phi (I (x) K)^dag, written out with np.kron."""
    phi = phi_state(ch.d_in).matrix
    out = 0
    for K in ch.kraus_ops:
        big = np.kron(np.eye(ch.d_in), K)
        out = out + big @ phi @ big.conj().T
    return out


def kraus_action(ch, rho):
    """sum_K K rho K^dag."""
    return sum(K @ rho @ K.conj().T for K in ch.kraus_ops)


def ad_choi_reference(p):
    """Hand-assembled Choi matrix of amplitude damping."""
    mat = np.diag([0.5, 0.0, p / 2, (1 - p) / 2]).astype(complex)
    mat[0, 3] = mat[3, 0] = np.sqrt(1 - p) / 2
    return mat


class TestKrausChannel:
    def test_rejects_incomplete_kraus_set(self):
        half = np.eye(2, dtype=complex) * 0.5
        with pytest.raises(ValueError, match="completeness"):
            KrausChannel((half,), 2, 2)

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError, match="shape"):
            KrausChannel((np.eye(3, dtype=complex),), 2, 2)

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one"):
            KrausChannel((), 2, 2)

    # inf * 0 inside the completeness sum warns before the set is rejected
    @pytest.mark.filterwarnings("ignore:invalid value encountered in matmul:RuntimeWarning")
    @pytest.mark.parametrize(
        "bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)],
        ids=["nan", "inf", "-inf", "imag-nan"],
    )
    def test_rejects_non_finite(self, bad):
        K0, K1 = amplitude_damping(0.3).kraus_ops
        K1 = K1.copy()
        K1[0, 1] = bad
        with pytest.raises(ValueError, match="non-finite entries"):
            KrausChannel((K0, K1), 2, 2)


class TestStackedChannels:
    """Kraus operators with leading axes: one channel per entry, each checked."""

    P = np.array([[0.0, 0.2, 0.5], [0.8, 1.0, 0.37]])

    def test_amplitude_damping_stack_shapes(self):
        ch = amplitude_damping(self.P)
        assert all(K.shape == (2, 3, 2, 2) for K in ch.kraus_ops)
        assert choi(ch).matrix.shape == (2, 3, 4, 4)

    def test_stacked_choi_equals_per_entry(self):
        seeded = np.random.default_rng(20180305).uniform(0.0, 1.0, size=(4, 5))
        for P in (self.P, seeded):
            got = choi(amplitude_damping(P))
            assert got.state.dims == (2, 2)
            for idx in np.ndindex(P.shape):
                assert np.array_equal(got.matrix[idx], choi(amplitude_damping(P[idx])).matrix)

    def test_stacked_generic_channel_equals_per_entry(self):
        chans = [isometry_channel(2, 3, 2, seed=s) for s in (7, 8, 9)]
        stacked = KrausChannel(
            tuple(np.stack([ch.kraus_ops[k] for ch in chans]) for k in range(2)), 2, 3
        )
        got = choi(stacked).matrix
        for j, ch in enumerate(chans):
            assert np.array_equal(got[j], choi(ch).matrix)

    def test_first_offending_damping_probability_named(self):
        with pytest.raises(ValueError, match=r"damping probability 1\.5 outside"):
            amplitude_damping(np.array([0.2, 1.5, -0.1]))
        with pytest.raises(ValueError, match=r"damping probability nan outside"):
            amplitude_damping(np.array([0.2, np.nan]))

    def test_one_incomplete_member_fails(self):
        K0, K1 = (K.copy() for K in amplitude_damping(self.P).kraus_ops)
        K0[1, 2] *= 0.5
        with pytest.raises(ValueError, match="completeness"):
            KrausChannel((K0, K1), 2, 2)

    def test_one_non_finite_member_fails(self):
        K0, K1 = (K.copy() for K in amplitude_damping(self.P).kraus_ops)
        K1[0, 1, 0, 1] = np.nan
        with pytest.raises(ValueError, match="non-finite entries"):
            KrausChannel((K0, K1), 2, 2)

    def test_operators_must_share_leading_axes(self):
        K0, K1 = amplitude_damping(self.P).kraus_ops
        with pytest.raises(ValueError, match="differ"):
            KrausChannel((K0, K1[0]), 2, 2)
        with pytest.raises(ValueError, match="shape"):
            KrausChannel((K0[..., :1, :], K1), 2, 2)

    def test_one_bad_choi_marginal_fails_the_stack(self):
        mats = np.stack([ad_choi_reference(p) for p in (0.1, 0.2, 0.3)])
        mats[1] = 0.0
        mats[1, 0, 0] = 1.0  # |00><00|: a state, not a Choi matrix
        with pytest.raises(ValueError, match="marginal"):
            ChoiMatrix(DensityMatrix(mats, (2, 2)))


class TestChoiMatrix:
    def test_rejects_bad_marginal(self):
        # a product state is not the Choi matrix of any trace-preserving map
        ket00 = np.zeros((4, 4), dtype=complex)
        ket00[0, 0] = 1.0
        with pytest.raises(ValueError, match="marginal"):
            ChoiMatrix(DensityMatrix(ket00, (2, 2)))

    def test_rejects_missing_dims(self):
        with pytest.raises(ValueError, match="dims"):
            ChoiMatrix(DensityMatrix(np.eye(4) / 4, (4,)))

    def test_properties(self):
        cm = choi(amplitude_damping(0.3))
        assert cm.d_in == 2 and cm.state.dims == (2, 2)
        assert cm.matrix.shape == (4, 4)


class TestModelChannels:
    def test_ad_parameter_range(self):
        for bad in (-0.1, 1.1):
            with pytest.raises(ValueError, match="damping"):
                amplitude_damping(bad)

    def test_ad_choi_matches_reference(self):
        for p in (0.0, 0.2, 0.5, 0.8, 1.0):
            got = choi(amplitude_damping(p)).matrix
            assert np.abs(got - ad_choi_reference(p)).max() < 1e-14

    def test_ad_choi_bit_identical_to_kron_route(self):
        seeded = np.random.default_rng(20180305).uniform(0.0, 1.0, size=20)
        for p in (0.0, 0.2, 0.5, 0.8, 1.0, *seeded):
            ch = amplitude_damping(p)
            assert np.array_equal(choi(ch).matrix, choi_kron_reference(ch))

    @pytest.mark.parametrize(
        "ch",
        [depolarizing(0.3, 2), depolarizing(0.7, 3), isometry_channel(2, 3, 2, seed=7)],
        ids=["depolarizing-d2", "depolarizing-d3", "isometry-2to3"],
    )
    def test_choi_matches_kron_route(self, ch):
        got = choi(ch)
        assert got.state.dims == (ch.d_in, ch.d_out)
        assert np.abs(got.matrix - choi_kron_reference(ch)).max() <= 1e-15

    def test_depolarizing_parameter_range(self):
        with pytest.raises(ValueError, match="probability"):
            depolarizing(-0.01, 2)
        with pytest.raises(ValueError, match="probability"):
            depolarizing(1.01, 2)
        with pytest.raises(ValueError, match="dimension"):
            depolarizing(0.5, 1)
        # a non-integer dimension is a ValueError, not a TypeError from range()
        with pytest.raises(ValueError, match="dimension"):
            depolarizing(0.5, 2.5)

    def test_depolarizing_choi_isotropic_form(self):
        xi = 0.3
        got = choi(depolarizing(xi, 2)).matrix
        expected = np.diag([0.5 - xi / 4, xi / 4, xi / 4, 0.5 - xi / 4]).astype(complex)
        expected[0, 3] = expected[3, 0] = 0.5 - xi / 2
        assert np.abs(got - expected).max() < 1e-12

    def test_depolarizing_zero_is_identity(self):
        got = choi(depolarizing(0.0, 3)).matrix
        assert np.abs(got - phi_state(3).matrix).max() < 1e-14


@settings(max_examples=30, deadline=None)
@given(density_matrices(dims=(2,)), probabilities())
def test_depolarizing_action(rho, xi):
    out = kraus_action(depolarizing(xi, 2), rho.matrix)
    expected = (1 - xi) * rho.matrix + xi * np.eye(2) / 2
    assert np.abs(out - expected).max() < 1e-10


@settings(max_examples=30, deadline=None)
@given(density_matrices(dims=(3,)), probabilities())
def test_depolarizing_action_qutrit(rho, xi):
    out = kraus_action(depolarizing(xi, 3), rho.matrix)
    expected = (1 - xi) * rho.matrix + xi * np.eye(3) / 3
    assert np.abs(out - expected).max() < 1e-10


@settings(max_examples=30, deadline=None)
@given(probabilities())
def test_choi_first_marginal_is_maximally_mixed(p):
    cm = choi(amplitude_damping(p))
    marg = _partial_trace_2(cm.matrix, cm.state.dims, 0)
    assert np.abs(marg - np.eye(2) / 2).max() < 1e-12
