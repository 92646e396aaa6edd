"""Shared strategies and the reference test channels.

Random density matrices are kept well away from rank loss: eigenvalues are
drawn in [0.05, 1] before normalization, so the smallest one stays orders of
magnitude above the PSD tolerance and the sub-tolerance zeroing inside
psd_sqrt never triggers on property-test inputs.
"""

from math import sqrt

import numpy as np
from hypothesis import strategies as st

from pbtbounds.channels import KrausChannel, _check_dim
from pbtbounds.linalg import DensityMatrix

_unit = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)
_weight = st.floats(0.05, 1.0, allow_nan=False, allow_infinity=False)


@st.composite
def density_matrices(draw, dims=(2, 2)):
    dims = tuple(dims)
    dim = int(np.prod(dims))
    re = draw(st.lists(_unit, min_size=dim * dim, max_size=dim * dim))
    im = draw(st.lists(_unit, min_size=dim * dim, max_size=dim * dim))
    g = np.array(re).reshape(dim, dim) + 1j * np.array(im).reshape(dim, dim)
    # QR of any square matrix yields a unitary Q, rank-deficient draws included
    q, _ = np.linalg.qr(g + np.eye(dim))
    w = np.array(draw(st.lists(_weight, min_size=dim, max_size=dim)))
    w = w / w.sum()
    return DensityMatrix((q * w) @ q.conj().T, dims)


@st.composite
def probabilities(draw, lo=0.0, hi=1.0):
    return draw(st.floats(lo, hi, allow_nan=False, allow_infinity=False))


def isometry_channel(d_in, d_out, n_ops, seed):
    """Channel whose Kraus operators are the row blocks of a random isometry."""
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(n_ops * d_out, d_in)) + 1j * rng.normal(size=(n_ops * d_out, d_in))
    V, _ = np.linalg.qr(z)
    return KrausChannel(tuple(V[k * d_out : (k + 1) * d_out] for k in range(n_ops)), d_in, d_out)


def _weyl(d, a, b):
    """Weyl (generalized Pauli) operator X^a Z^b on d dimensions."""
    omega = np.exp(2j * np.pi / d)
    X = np.roll(np.eye(d, dtype=complex), 1, axis=0)
    Z = np.diag(omega ** np.arange(d))
    return np.linalg.matrix_power(X, a) @ np.linalg.matrix_power(Z, b)


def depolarizing(xi, d):
    """Depolarizing channel rho -> (1 - xi) rho + xi I/d.

    Kraus set: the identity with weight 1 - xi + xi/d^2 plus the remaining
    d^2 - 1 Weyl operators with weight xi/d^2, using the twirl identity
    I/d = d^{-2} sum_{a,b} W_ab rho W_ab^dag.
    """
    if not 0.0 <= xi <= 1.0:
        raise ValueError(f"depolarizing probability {xi} outside [0, 1]")
    _check_dim(d)
    ops = [sqrt(1.0 - xi + xi / d**2) * np.eye(d, dtype=complex)]
    for a in range(d):
        for b in range(d):
            if a == 0 and b == 0:
                continue
            ops.append(sqrt(xi) / d * _weyl(d, a, b))
    return KrausChannel(tuple(ops), d, d)
