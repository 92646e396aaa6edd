"""Kraus-operator channels and Choi matrices.

Choi convention: (I tensor E)(Phi) with Phi the trace-normalized maximally
entangled state d^{-1/2} sum_k |kk>. The reference system is the first tensor
factor, the channel output the second.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt

import numpy as np

from .linalg import TOL_NUM, Array, DensityMatrix, _partial_trace_array


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
        marginal = _partial_trace_array(self.state.matrix, self.state.dims, [0])
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


def maximally_entangled(d: int) -> DensityMatrix:
    """Projector onto d^{-1/2} sum_k |kk> as a [d, d] state."""
    vec = np.eye(d, dtype=complex).reshape(d * d) / sqrt(d)
    return DensityMatrix(np.outer(vec, vec.conj()), (d, d))


def apply(ch: KrausChannel, rho: DensityMatrix) -> DensityMatrix:
    """Apply the channel: rho -> sum K rho K^dag."""
    if rho.dim != ch.d_in:
        raise ValueError(f"state dimension {rho.dim} != channel input {ch.d_in}")
    out = sum(K @ rho.matrix @ K.conj().T for K in ch.kraus_ops)
    return DensityMatrix(out, (ch.d_out,))


def apply_to_subsystem(ch: KrausChannel, rho: DensityMatrix, subsystem: int) -> DensityMatrix:
    """Apply the channel to one tensor factor, identity on the rest."""
    dims = rho.dims
    if subsystem < 0 or subsystem >= len(dims):
        raise ValueError(f"subsystem {subsystem} out of range for dims {dims}")
    if dims[subsystem] != ch.d_in:
        raise ValueError(f"subsystem dimension {dims[subsystem]} != channel input {ch.d_in}")
    left = int(np.prod(dims[:subsystem], dtype=np.int64)) if subsystem else 1
    right = int(np.prod(dims[subsystem + 1 :], dtype=np.int64)) if subsystem + 1 < len(dims) else 1
    out = 0
    for K in ch.kraus_ops:
        big = np.kron(np.kron(np.eye(left), K), np.eye(right))
        out = out + big @ rho.matrix @ big.conj().T
    new_dims = dims[:subsystem] + (ch.d_out,) + dims[subsystem + 1 :]
    return DensityMatrix(out, new_dims)


def choi(ch: KrausChannel) -> ChoiMatrix:
    """Choi state (I tensor E)(Phi) of the channel."""
    phi = maximally_entangled(ch.d_in)
    return ChoiMatrix(apply_to_subsystem(ch, phi, 1))


def amplitude_damping(p: float) -> KrausChannel:
    """Qubit amplitude damping with damping probability p."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"damping probability {p} outside [0, 1]")
    K0 = np.array([[1.0, 0.0], [0.0, sqrt(1.0 - p)]], dtype=complex)
    K1 = np.array([[0.0, sqrt(p)], [0.0, 0.0]], dtype=complex)
    return KrausChannel((K0, K1), 2, 2)


def _weyl(d: int, a: int, b: int) -> Array:
    """Weyl (generalized Pauli) operator X^a Z^b on d dimensions."""
    omega = np.exp(2j * np.pi / d)
    X = np.roll(np.eye(d, dtype=complex), 1, axis=0)
    Z = np.diag(omega ** np.arange(d))
    return np.linalg.matrix_power(X, a) @ np.linalg.matrix_power(Z, b)


def depolarizing(xi: float, d: int) -> KrausChannel:
    """Depolarizing channel rho -> (1 - xi) rho + xi I/d.

    Kraus set: the identity with weight 1 - xi + xi/d^2 plus the remaining
    d^2 - 1 Weyl operators with weight xi/d^2, using the twirl identity
    I/d = d^{-2} sum_{a,b} W_ab rho W_ab^dag.
    """
    if not 0.0 <= xi <= 1.0:
        raise ValueError(f"depolarizing probability {xi} outside [0, 1]")
    if d < 2:
        raise ValueError(f"dimension {d} must be at least 2")
    ops = [sqrt(1.0 - xi + xi / d**2) * np.eye(d, dtype=complex)]
    for a in range(d):
        for b in range(d):
            if a == 0 and b == 0:
                continue
            ops.append(sqrt(xi) / d * _weyl(d, a, b))
    return KrausChannel(tuple(ops), d, d)
