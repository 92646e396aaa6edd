"""The stretching reduction itself: an adaptive protocol run on E after PBT sees only J = choi(E).

A protocol holds a memory qubit R and the channel input C. In the stretched
route each use feeds that state and M copies of J, one per port (A_i, B_i),
through the oracle's square-root measurement on [C, A_1..A_M], keeps port B_i
on outcome i and traces out the other ports. So E acts on every port before the
measurement picks one, which is exact because PBT applies no correction to the
kept port, and the route reads J, never E. A protocol unitary then acts on R and
the output, which is the next use's input. The direct route runs the same
protocol on the composed channel (1 - xi_M) E + xi_M R_E, with R_E(rho) =
Tr(rho) E(I/2) and the closed-form xi_M. On the same states the bound's two
inequalities are checked: data processing from the nM Choi copies, and n delta/2
from running the protocol on E itself.
"""

from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import delta_exact_qubit, isometry_channel, oracle_povm
from pbtbounds.channels import amplitude_damping, choi
from pbtbounds.pbt import delta_ad, xi

_seeds = st.integers(0, 2**32 - 1)
_PHI = np.outer([1, 0, 0, 1], [1, 0, 0, 1]) / 2.0  # maximally entangled on (R, C)


def _port_resources(J, M):
    """J on every port (A_j, B_j), all B_j but B_i traced out: one (2^M, 2, 2^M, 2)
    tensor [A, B_i, A', B_i'] per port i."""
    full = reduce(np.kron, [J] * M).reshape((2,) * (4 * M))  # A_1 B_1 .. A_M B_M, then primed
    out = []
    for i in range(M):
        axes = list(range(4 * M))
        for j in range(M):
            if j != i:
                axes[2 * M + 2 * j + 1] = 2 * j + 1  # B_j' = B_j: traced out
        keep = [2 * j for j in range(M)] + [2 * i + 1]
        keep += [2 * M + a for a in keep]
        out.append(np.einsum(full, axes, keep).reshape(2**M, 2, 2**M, 2))
    return out


def _stretched_use(state, povm, resources):
    """Measure [C, A] of state (x) J^{(x)M} and keep B_i on outcome i: the new (R, output) state."""
    M = len(povm)
    w = state.reshape(2, 2, 2, 2)  # R, C, R', C'
    # Tr_{C A}[(Pi^i (x) I) X] for X = state (x) J^{(x)M}: sum over x = (c, a), y = (e, f)
    # of Pi^i[x, y] X[(r, y, b), (s, x, d)]
    return sum(
        np.einsum("caef,resc,fbad->rbsd", P.reshape(2, 2**M, 2, 2**M), w, R, optimize=True)
        for P, R in zip(povm, resources)
    ).reshape(4, 4)


def _channel_use(state, kraus, x):
    """(1 - x) E + x R_E on C, with R_E(rho) = Tr(rho) E(I/2); x = 0 applies E itself."""
    ops = [np.kron(np.eye(2), K) for K in kraus]
    applied = sum(K @ state @ K.conj().T for K in ops)
    memory = np.einsum("rcsc->rs", state.reshape(2, 2, 2, 2))
    return (1 - x) * applied + x * np.kron(memory, sum(K @ K.conj().T for K in kraus) / 2)


def _protocol(rng, n):
    """A random pure start on (R, C) and n Haar unitaries on (R, output), one after each use."""
    psi = rng.normal(size=4) + 1j * rng.normal(size=4)
    unitaries = []
    for _ in range(n):
        q, r = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
        unitaries.append(q * (r.diagonal() / abs(r.diagonal())))
    return np.outer(psi, psi.conj()) / np.vdot(psi, psi).real, unitaries


def _run(start, unitaries, use):
    state = start
    for U in unitaries:
        state = U @ use(state) @ U.conj().T
    return state


def _trace_distance(a, b):
    return 0.5 * np.abs(np.linalg.eigvalsh(a - b)).sum()


def _routes(channel, M, start, unitaries):
    """Final states of the stretched route (J only), the composed channel and E itself."""
    povm, resources = oracle_povm(M), _port_resources(choi(channel).matrix, M)
    stretched = _run(start, unitaries, lambda s: _stretched_use(s, povm, resources))
    composed = _run(start, unitaries, lambda s: _channel_use(s, channel.kraus_ops, xi(M)))
    bare = _run(start, unitaries, lambda s: _channel_use(s, channel.kraus_ops, 0.0))
    return stretched, composed, bare


@pytest.mark.parametrize("p", [0.3, 0.9])
@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("M", [2, 3, 4])
def test_stretched_route_equals_composed_channel_on_damping(M, n, p):
    channel = amplitude_damping(p)
    rng = np.random.default_rng([M, n, int(10 * p)])
    for _ in range(3):
        start, unitaries = _protocol(rng, n)
        stretched, composed, bare = _routes(channel, M, start, unitaries)
        assert np.abs(stretched - composed).max() <= 1e-13
        # n delta/2 from running the protocol on E itself
        assert _trace_distance(bare, stretched) <= n * delta_ad(M, p) / 2 + 1e-13


@settings(max_examples=20, deadline=None)
@given(seed=_seeds, M=st.integers(2, 4), n=st.integers(1, 3), n_ops=st.integers(1, 4))
def test_stretched_route_equals_composed_channel(seed, M, n, n_ops):
    channel = isometry_channel(2, 2, n_ops, seed)
    start, unitaries = _protocol(np.random.default_rng(seed), n)
    stretched, composed, bare = _routes(channel, M, start, unitaries)
    assert np.abs(stretched - composed).max() <= 1e-13
    # the identity's delta_M bounds every qubit channel's: E after (PBT - id) is no larger
    assert _trace_distance(bare, stretched) <= n * delta_exact_qubit(M) / 2 + 1e-13


@pytest.mark.parametrize("p", [0.1, 0.3, 0.7])
@pytest.mark.parametrize("M", [2, 3, 4])
def test_simulation_error_reached_by_the_entangled_input(M, p):
    # at n = 1 the maximally entangled input reaches damping's diamond norm,
    # so a delta formula any smaller fails the n delta/2 inequality
    stretched, _, bare = _routes(amplitude_damping(p), M, _PHI, [np.eye(4)])
    assert _trace_distance(bare, stretched) == pytest.approx(delta_ad(M, p) / 2, abs=1e-13)


@settings(max_examples=20, deadline=None)
@given(seed=_seeds, Mn=st.sampled_from([(2, 1), (3, 1), (4, 1), (2, 2)]), damping=st.booleans())
def test_data_processing_from_the_choi_copies(seed, Mn, damping):
    # one protocol on the two hypotheses is a measurement on J_0^{(x)nM} or
    # J_1^{(x)nM}, so it separates them no better than the copies do (nM <= 4:
    # 256 dims)
    M, n = Mn
    rng = np.random.default_rng(seed)
    if damping:
        channels = [amplitude_damping(p) for p in rng.uniform(0, 1, size=2)]
    else:
        channels = [isometry_channel(2, 2, 2, s) for s in rng.integers(0, 2**32, size=2)]
    start, unitaries = _protocol(rng, n)
    finals = [_routes(ch, M, start, unitaries)[0] for ch in channels]
    copies = [reduce(np.kron, [choi(ch).matrix] * (n * M)) for ch in channels]
    assert _trace_distance(*finals) <= _trace_distance(*copies) + 1e-13
