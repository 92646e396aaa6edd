"""Shared strategies, the reference test channels and the dense oracle POVM.

Random density matrices are kept well away from rank loss: eigenvalues are
drawn in [0.05, 1] before normalization, so the smallest one stays orders of
magnitude above the PSD tolerance and the sub-tolerance zeroing inside
psd_sqrt never triggers on property-test inputs.
"""

from math import sqrt

import numpy as np
from hypothesis import strategies as st

from pbtbounds.channels import KrausChannel
from pbtbounds.linalg import DensityMatrix, _check_int, _check_interval
from pbtbounds.pbt import simulation_error
from pbtbounds.pbt_oracle import _solve_sectors

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


def delta_exact_qubit(M):
    """Exact qubit simulation error delta_M = (3/2) xi_M, read off the library's one provider."""
    return simulation_error(M, 2)[0]


def depolarizing(xi, d):
    """Depolarizing channel rho -> (1 - xi) rho + xi I/d.

    Kraus set: the identity with weight 1 - xi + xi/d^2 plus the remaining
    d^2 - 1 Weyl operators with weight xi/d^2, using the twirl identity
    I/d = d^{-2} sum_{a,b} W_ab rho W_ab^dag.
    """
    _check_interval(xi, "depolarizing probability", 0, 1)
    _check_int(d, "dimension", 2)
    ops = [sqrt(1.0 - xi + xi / d**2) * np.eye(d, dtype=complex)]
    for a in range(d):
        for b in range(d):
            if a == 0 and b == 0:
                continue
            ops.append(sqrt(xi) / d * _weyl(d, a, b))
    return KrausChannel(tuple(ops), d, d)


def oracle_blocks(M):
    """(states, (M, n, n) stack of the Pi^i blocks) of every sector, formed from the solve.

    Pi^i = 2^{-M} (S V_i)(S V_i)^T + K K^T / M on each solved sector; the flip
    partner of sector k, M + 1 - k, holds the reversed blocks on the flipped states.
    """
    out = []
    for k, (sector, _, pairs, S, K) in enumerate(_solve_sectors(M)):
        SV = S[:, pairs].sum(axis=1).transpose(1, 0, 2)
        P = SV @ SV.transpose(0, 2, 1) / 2**M + K @ K.T / M
        out.append((sector, P))
        if 2 * k != M + 1:  # at odd M the middle sector is its own partner
            out.append((2 ** (M + 1) - 1 - sector[::-1], P[:, ::-1, ::-1]))
    return out


def oracle_povm(M):
    """The POVM blocks embedded in a dense (M, 2^{M+1}, 2^{M+1}) stack."""
    dim = 2 ** (M + 1)
    povm = np.zeros((M, dim, dim))
    for s, P in oracle_blocks(M):
        povm[:, s[:, None], s] = P
    return povm
