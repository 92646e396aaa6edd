"""Kraus-operator channels and Choi matrices.

Choi convention: (I tensor E)(Phi) with Phi the trace-normalized maximally
entangled state d^{-1/2} sum_k |kk>. The reference system is the first tensor
factor, the channel output the second.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt

import numpy as np

from .linalg import (TOL_NUM, Array, DensityMatrix, _check_int, _check_interval, _partial_trace_2,
                     _trusted)


@dataclass(frozen=True)
class KrausChannel:
    """Completely positive trace-preserving map given by Kraus operators.

    Each operator is d_out x d_in; completeness sum K_i^dag K_i = I is
    enforced on construction. The operators may carry the same leading axes
    (..., d_out, d_in), which makes the channel a stack of channels; finiteness
    and completeness are then checked for every member.
    """

    kraus_ops: tuple[Array, ...]
    d_in: int
    d_out: int

    def __post_init__(self):
        object.__setattr__(self, "d_in", _check_int(self.d_in, "input dimension", 1))
        object.__setattr__(self, "d_out", _check_int(self.d_out, "output dimension", 1))
        ops = tuple(np.asarray(K, dtype=complex) for K in self.kraus_ops)
        object.__setattr__(self, "kraus_ops", ops)
        if not ops:
            raise ValueError("channel needs at least one Kraus operator")
        for K in ops:
            if K.shape[-2:] != (self.d_out, self.d_in):
                raise ValueError(f"Kraus operator shape {K.shape} != ({self.d_out}, {self.d_in})")
            if K.shape != ops[0].shape:
                raise ValueError(f"Kraus operator shapes {K.shape} and {ops[0].shape} differ")
        total = sum(K.conj().swapaxes(-1, -2) @ K for K in ops)
        # a NaN or inf entry makes the deviation NaN or inf, so valid sets skip the scan
        if not np.abs(total - np.eye(self.d_in)).max() <= TOL_NUM:
            if not all(np.isfinite(K).all() for K in ops):
                raise ValueError("Kraus operators contain non-finite entries")
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
    def matrix(self) -> Array:
        return self.state.matrix


def choi(ch: KrausChannel) -> ChoiMatrix:
    """Choi state (I tensor E)(Phi) of the channel, or the stack of them.

    Built from vectors: w_K = K.T.reshape(-1) is (I (x) K) sum_k |kk>, so
    J = sum_K (w_K phi) w_K^dag with phi = d^{-1/2} d^{-1/2}, the entry of Phi.
    These are the products the matrix route (I (x) K) Phi (I (x) K)^dag
    forms, so J equals it bit for bit for real Kraus operators and to
    rounding (~1e-17) for complex ones. A stacked channel gives a stacked J
    whose members equal the single-channel J bit for bit. J carries the Kraus set's tolerance.
    """
    phi = (1.0 / sqrt(ch.d_in)) * (1.0 / sqrt(ch.d_in))
    out = 0
    for K in ch.kraus_ops:
        w = K.swapaxes(-1, -2).reshape(K.shape[:-2] + (-1,))
        out = out + (w * phi)[..., :, None] * w.conj()[..., None, :]
    return _trusted(ChoiMatrix, _trusted(DensityMatrix, out, (ch.d_in, ch.d_out)))


def amplitude_damping(p) -> KrausChannel:
    """Qubit amplitude damping with damping probability p.

    An array of p gives the stacked channel with Kraus operators of shape
    p.shape + (2, 2); an offending p is named in the error (the first one).
    """
    p = np.asarray(p)  # no float dtype yet: an int past the float range is the check's to name
    checked = [_check_interval(q, "damping probability", 0, 1) for q in p.ravel().tolist()]
    p = np.array(checked).reshape(p.shape)
    K0 = np.zeros(p.shape + (2, 2), dtype=complex)
    K1 = np.zeros_like(K0)
    K0[..., 0, 0] = 1.0
    K0[..., 1, 1] = np.sqrt(1.0 - p)
    K1[..., 0, 1] = np.sqrt(p)
    return KrausChannel((K0, K1), 2, 2)
