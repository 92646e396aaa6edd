"""Shared strategies, the reference test channels, the oracle's all-port pair
reference and dense POVM, and the exact xi sums that pbt's literal table is
re-derived from.

Random density matrices are kept well away from rank loss: eigenvalues are
drawn in [0.05, 1] before normalization, so the smallest one stays orders of
magnitude above the PSD tolerance and the sub-tolerance zeroing inside
psd_sqrt never triggers on property-test inputs.
"""

from math import inf, sqrt

import numpy as np
from hypothesis import strategies as st

from pbtbounds.channels import KrausChannel
from pbtbounds.linalg import Array, DensityMatrix, _check_int, _check_interval
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


def _exact_sums(ports: Array) -> tuple[Array, Array]:
    """xi_M and f_e(M) by their binomial sums, for port counts 2 <= M < pbt._SERIES_FROM.

    Both run over k = M//2 .. 0 in t = M - 2k (= 2s + 1 for xi's spins), since
    f_e's summand is symmetric under k -> M - k, in rows of 64 entries. The
    log-weights are cumulative sums of log C(M, k-1) / C(M, k) taken outward
    from the centre, which keeps the rounding of the large central weights at a
    few ulp; none is below e^-69, and a -inf after k = 0 makes every padded one 0.
    """
    M = ports[:, None].astype(float)
    t = np.minimum(M % 2 + np.arange(0.0, 128.0, 2.0), M)  # k = M//2 - j, clipped at k = 0
    tm, tp, am, ap = t - 1, t + 1, (M + 2) - t, (M + 2) + t  # am = 2(k + 1), ap = 2(M - k + 1)
    # log C(M, k) / C(M, k + 1) = log1p((1 - t) / ((M + t) / 2)), summed outward from t = M % 2
    log_w = np.log1p(-2 * tm / (ap - 2))
    log_w[:, 0] = 0.0
    log_w[np.arange(len(ports)), ports // 2 + 1] = -inf
    w = np.exp(log_w.cumsum(axis=-1))
    a, b = np.sqrt(am), np.sqrt(ap)
    # xi: (t^2 - 1) t^2 / (g ((M+2) + sqrt(g))) with g = (M+2)^2 - t^2 = am ap, no cancellation
    x_terms = tm * tp * (t * t) * w / (am * ap * ((M + 2) + a * b))
    # f_e: ((t - 1)/sqrt(k + 1) + (t + 1)/sqrt(M - k + 1))^2 = 2 ((t - 1)/a + (t + 1)/b)^2
    g = tm / a + tp / b
    # the upper half mirrors the lower one, and an even M's centre t = 0 counts once
    norm = 2 * w.sum(axis=-1) - (1 - ports % 2)
    # 16 w = C(M, k) / 2^(M-4) in xi; f_e doubles its half and takes 2 w / 8
    xi = np.ldexp((ports + 2) / 3, 1 - ports) + 16 * (x_terms.sum(axis=-1) / norm) / 12
    return xi, (g * g * w).sum(axis=-1) / norm / 2


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


def _sector_pairs(states: Array, M: int) -> tuple[Array, Array]:
    """Every port's labels and pairs in one sector, as positions within it.

    Returns the (M, n) labels 2C + A_i of the sector's states (row i-1 for
    port i) and the (2, M, p) pairs: row i-1 of pairs[0] holds the states with
    C = A_i = 0, the same row of pairs[1] their partners C = A_i = 1 with the
    same rest. A partner is its state plus a fixed offset, so both lists ascend
    together; and every port pairs the same number p of states in a sector,
    since the charge is symmetric in the ports. The library reads port 1 off
    the sector layout; this all-port count is the reference it is tested against.
    """
    labels = 2 * (states >> M) + (states >> np.arange(M - 1, -1, -1)[:, None] & 1)
    return labels, np.nonzero(np.equal.outer((0, 3), labels))[2].reshape(2, M, -1)


def oracle_blocks(M):
    """(states, (M, n, n) stack of the Pi^i blocks) of every sector, formed from the solve.

    Pi^i = 2^{-M} (S V_i)(S V_i)^T + K K^T / M on each solved sector, with port
    i's pairs from _sector_pairs; the flip partner of sector k, M + 1 - k, holds
    the reversed blocks on the flipped states.
    """
    out = []
    for k, (states, S, K) in enumerate(_solve_sectors(M)):
        pairs = _sector_pairs(states, M)[1]
        SV = S[:, pairs].sum(axis=1).transpose(1, 0, 2)
        P = SV @ SV.transpose(0, 2, 1) / 2**M + K @ K.T / M
        out.append((states, P))
        if 2 * k != M + 1:  # at odd M the middle sector is its own partner
            out.append((2 ** (M + 1) - 1 - states[::-1], P[:, ::-1, ::-1]))
    return out


def oracle_povm(M):
    """The POVM blocks embedded in a dense (M, 2^{M+1}, 2^{M+1}) stack."""
    dim = 2 ** (M + 1)
    povm = np.zeros((M, dim, dim))
    for s, P in oracle_blocks(M):
        povm[:, s[:, None], s] = P
    return povm
