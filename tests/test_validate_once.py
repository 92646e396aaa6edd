"""States are validated once, where their inputs enter.

The public constructors (DensityMatrix, ChoiMatrix, KrausChannel) check every
input. The five producers below build their states from inputs
those constructors, or the producers' own scalar checks, have already
accepted, and store them with linalg._trusted without re-checking. Here every
producer's output is put back through the public constructors over the
producer's input range: they must accept it and store the same bytes, dtype
and dims. The oracle's Choi matrix still goes through the public constructors,
since it is the independent reference.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import depolarizing, isometry_channel
from pbtbounds import cli
from pbtbounds.applications import illumination_chois, resolution_chois
from pbtbounds.channels import ChoiMatrix, KrausChannel, amplitude_damping, choi
from pbtbounds.linalg import TOL_NUM, DensityMatrix, _partial_trace_2
from pbtbounds.pbt import pbt_choi_qubit, simulate_channel_choi

_ports = st.integers(2, 10**6)
_seeds = st.integers(0, 2**32 - 1)
_p = st.floats(0.0, 1.0)


def _assert_revalidates(state):
    """The public constructors accept the stored state and store it unchanged."""
    dm = state.state if isinstance(state, ChoiMatrix) else state
    again = DensityMatrix(dm.matrix, dm.dims)
    if isinstance(state, ChoiMatrix):
        ChoiMatrix(again)
    assert again.matrix.tobytes() == dm.matrix.tobytes()
    assert dm.matrix.dtype == again.matrix.dtype == np.complex128
    assert dm.matrix.shape == again.matrix.shape
    assert dm.dims == again.dims
    assert all(type(d) is int for d in dm.dims)


@st.composite
def _channels(draw, d_in=None):
    """An isometry channel, amplitude damping (stacked when d_in is free) or depolarizing."""
    kind = draw(st.sampled_from(["isometry", "damping", "depolarizing"]))
    if kind == "isometry":
        d = draw(st.integers(1, 3)) if d_in is None else d_in
        d_out = draw(st.integers(1, 3))
        n_ops = draw(st.integers(-(-d // d_out), 3))  # n_ops * d_out >= d rows for the isometry
        return isometry_channel(d, d_out, n_ops, draw(_seeds))
    if kind == "damping":
        shape = () if d_in is not None else draw(st.sampled_from([(), (3,), (2, 2)]))
        p = draw(st.lists(_p, min_size=4, max_size=4))
        return amplitude_damping(np.array(p[: int(np.prod(shape))]).reshape(shape))
    return depolarizing(draw(_p), 2 if d_in is not None else draw(st.integers(2, 3)))


class TestProducersRevalidate:
    @settings(max_examples=60, deadline=None)
    @given(_channels())
    def test_choi(self, ch):
        _assert_revalidates(choi(ch))

    @settings(max_examples=40, deadline=None)
    @given(_channels(d_in=2), _ports)
    def test_simulate_channel_choi(self, ch, M):
        _assert_revalidates(simulate_channel_choi(ch, M))

    @settings(max_examples=40, deadline=None)
    @given(_ports)
    def test_pbt_choi_qubit(self, M):
        _assert_revalidates(pbt_choi_qubit(M))

    @settings(max_examples=60, deadline=None)
    @given(st.floats(0.0, 1.0, exclude_min=True), st.floats(0.0, np.inf))
    def test_resolution_chois(self, eta, s):
        for state in resolution_chois(eta, s):
            _assert_revalidates(state)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 12), _p, st.floats(0.0, 0.999))
    def test_illumination_chois(self, d, eta, u):
        for state in illumination_chois(np.int64(d), eta, u / d):
            _assert_revalidates(state)


def _scaled_damping(p, eps):
    """Damping with Kraus operators scaled by sqrt(1 + eps), so sum K^dag K = (1 + eps) I."""
    ops = amplitude_damping(p).kraus_ops
    return KrausChannel(tuple(np.sqrt(1.0 + eps) * K for K in ops), 2, 2)


@pytest.mark.parametrize("eps", [-9e-9, -5e-9, -5e-10, 5e-10, 5e-9, 9e-9])
@pytest.mark.parametrize("p", [0.0, 0.3, 1.0])
def test_every_accepted_channel_has_a_choi_matrix(p, eps):
    # KrausChannel accepts completeness to TOL_NUM; its Choi matrix carries that
    # tolerance rather than failing DensityMatrix's tighter trace check
    ch = _scaled_damping(p, eps)
    for J in (choi(ch), simulate_channel_choi(ch, 5)):
        assert abs(np.trace(J.matrix) - 1.0) <= TOL_NUM
        marginal = _partial_trace_2(J.matrix, J.state.dims, 0)
        assert np.abs(marginal - np.eye(2) / 2).max() <= TOL_NUM


def _count_validations(monkeypatch, cls) -> list:
    calls = []
    original = cls.__post_init__

    def counted(self):
        calls.append(cls.__name__)
        original(self)

    monkeypatch.setattr(cls, "__post_init__", counted)
    return calls


COMMANDS = [
    "xi-table", "oracle-verify", "ad-sweep", "resolution", "illumination", "metrology", "keyrate",
]


def test_default_tables_validate_only_the_oracle(monkeypatch, capsys):
    density = _count_validations(monkeypatch, DensityMatrix)
    choi_states = _count_validations(monkeypatch, ChoiMatrix)
    counts = {}
    for command in COMMANDS:
        del density[:], choi_states[:]
        assert cli.main([command]) == 0
        counts[command] = (len(density), len(choi_states))
    capsys.readouterr()
    ports = len(range(2, 7))  # oracle-verify's default M = 2..6, one oracle Choi matrix each
    assert counts == {c: (ports, ports) if c == "oracle-verify" else (0, 0) for c in COMMANDS}
