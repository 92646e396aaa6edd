"""Kraus-operator channels and Choi matrices.

Choi convention: (I tensor E)(Phi) with Phi the trace-normalized maximally
entangled state d^{-1/2} sum_k |kk>. The reference system is the first tensor
factor, the channel output the second.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt

import numpy as np

from .linalg import TOL_NUM, Array, DensityMatrix, _partial_trace_2


def _check_dim(d: int) -> None:
    if not isinstance(d, (int, np.integer)) or d < 2:
        raise ValueError(f"dimension {d} must be an integer >= 2")


@dataclass(frozen=True)
class KrausChannel:
    """Completely positive trace-preserving map given by Kraus operators.

    Each operator is d_out x d_in; completeness sum K_i^dag K_i = I is
    enforced on construction.
    """

    kraus_ops: tuple[Array, ...]
    d_in: int
    d_out: int

    def __post_init__(self):
        ops = tuple(np.asarray(K, dtype=complex) for K in self.kraus_ops)
        object.__setattr__(self, "kraus_ops", ops)
        if not ops:
            raise ValueError("channel needs at least one Kraus operator")
        for K in ops:
            if K.shape != (self.d_out, self.d_in):
                raise ValueError(f"Kraus operator shape {K.shape} != ({self.d_out}, {self.d_in})")
        total = sum(K.conj().T @ K for K in ops)
        if np.abs(total - np.eye(self.d_in)).max() > TOL_NUM:
            raise ValueError("Kraus operators do not satisfy completeness")


@dataclass(frozen=True)
class ChoiMatrix:
    """Trace-normalized Choi state over dims [d_in, d_out].

    The first-subsystem marginal must be I/d_in (trace preservation of the
    underlying channel).
    """

    state: DensityMatrix

    def __post_init__(self):
        if len(self.state.dims) != 2:
            raise ValueError("Choi state must carry dims [d_in, d_out]")
        marginal = _partial_trace_2(self.state.matrix, self.state.dims, 0)
        if np.abs(marginal - np.eye(self.d_in) / self.d_in).max() > TOL_NUM:
            raise ValueError("first marginal of Choi state is not I/d_in")

    @property
    def d_in(self) -> int:
        return self.state.dims[0]

    @property
    def d_out(self) -> int:
        return self.state.dims[1]

    @property
    def matrix(self) -> Array:
        return self.state.matrix


def choi(ch: KrausChannel) -> ChoiMatrix:
    """Choi state (I tensor E)(Phi) of the channel.

    Built from vectors: w_K = K.T.reshape(-1) is (I (x) K) sum_k |kk>, so
    J = sum_K (w_K phi) w_K^dag with phi = d^{-1/2} d^{-1/2}, the entry of Phi.
    These are the products the matrix route (I (x) K) Phi (I (x) K)^dag
    forms, so J equals it bit for bit for real Kraus operators and to
    rounding (~1e-17) for complex ones. J is validated once.
    """
    phi = (1.0 / sqrt(ch.d_in)) * (1.0 / sqrt(ch.d_in))
    out = 0
    for K in ch.kraus_ops:
        w = K.T.reshape(-1)
        out = out + np.outer(w * phi, w.conj())
    return ChoiMatrix(DensityMatrix(out, (ch.d_in, ch.d_out)))


def amplitude_damping(p: float) -> KrausChannel:
    """Qubit amplitude damping with damping probability p."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"damping probability {p} outside [0, 1]")
    K0 = np.array([[1.0, 0.0], [0.0, sqrt(1.0 - p)]], dtype=complex)
    K1 = np.array([[0.0, sqrt(p)], [0.0, 0.0]], dtype=complex)
    return KrausChannel((K0, K1), 2, 2)
