"""Kraus channels, Choi matrices, and the two model channels."""

import numpy as np
import pytest
from hypothesis import given, settings

from conftest import density_matrices, probabilities
from pbtbounds.channels import (
    ChoiMatrix,
    KrausChannel,
    amplitude_damping,
    apply,
    apply_to_subsystem,
    choi,
    depolarizing,
)
from pbtbounds.linalg import DensityMatrix, partial_trace


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


def isometry_channel(d_in, d_out, n_ops, seed):
    """Channel whose Kraus operators are the row blocks of a random isometry."""
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(n_ops * d_out, d_in)) + 1j * rng.normal(size=(n_ops * d_out, d_in))
    V, _ = np.linalg.qr(z)
    return KrausChannel(tuple(V[k * d_out : (k + 1) * d_out] for k in range(n_ops)), d_in, d_out)


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
        assert cm.d_in == 2 and cm.d_out == 2
        assert cm.matrix.shape == (4, 4)


class TestApply:
    def test_amplitude_damping_on_excited_state(self):
        ch = amplitude_damping(0.3)
        rho = DensityMatrix(np.diag([0.0, 1.0]).astype(complex), (2,))
        out = apply(ch, rho)
        assert np.abs(out.matrix - np.diag([0.3, 0.7])).max() < 1e-14

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            apply(amplitude_damping(0.3), DensityMatrix(np.eye(3) / 3, (3,)))

    def test_apply_to_subsystem_matches_kron_route(self):
        ch = amplitude_damping(0.4)
        rho = phi_state(2)
        via_sub = apply_to_subsystem(ch, rho, 1)
        assert np.abs(via_sub.matrix - choi_kron_reference(ch)).max() < 1e-14

    def test_apply_to_subsystem_index_checks(self):
        ch = amplitude_damping(0.4)
        rho = phi_state(2)
        with pytest.raises(ValueError, match="out of range"):
            apply_to_subsystem(ch, rho, 2)
        with pytest.raises(ValueError, match="subsystem dimension"):
            apply_to_subsystem(depolarizing(0.1, 3), rho, 0)


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
    out = apply(depolarizing(xi, 2), rho)
    expected = (1 - xi) * rho.matrix + xi * np.eye(2) / 2
    assert np.abs(out.matrix - expected).max() < 1e-10


@settings(max_examples=30, deadline=None)
@given(density_matrices(dims=(3,)), probabilities())
def test_depolarizing_action_qutrit(rho, xi):
    out = apply(depolarizing(xi, 3), rho)
    expected = (1 - xi) * rho.matrix + xi * np.eye(3) / 3
    assert np.abs(out.matrix - expected).max() < 1e-10


@settings(max_examples=30, deadline=None)
@given(probabilities())
def test_choi_first_marginal_is_maximally_mixed(p):
    cm = choi(amplitude_damping(p))
    marg = partial_trace(cm.state, [0]).matrix
    assert np.abs(marg - np.eye(2) / 2).max() < 1e-12
