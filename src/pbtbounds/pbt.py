"""Port-based teleportation as a channel simulator.

Closed-form quantities for the qubit square-root-measurement protocol with M
ports: the depolarizing probability xi_M, the entanglement fidelity f_e, the
diamond-norm simulation errors delta_M and Delta_M(p), and the Choi matrices
of the simulated channels, which are linear in each channel's own Choi matrix
because the M-port qubit channel is depolarizing.

xi_M and f_e(M) come from one kernel, _series, which checks every port count:
below 100 ports both are read from one table of exact binomial sums, built on
first use; from 100 on a 16-term moment series for xi_M, within 1.4 ulp of
mpmath, runs in O(1) per port count, and f_e = 1 - 3 xi_M / 4. A value is the
same bits whether computed alone or in any grid.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import cache
from math import inf, sqrt

import numpy as np

from .channels import ChoiMatrix, KrausChannel, choi
from .linalg import (TOL_NUM, Array, DensityMatrix, _check_int, _check_interval, _partial_trace_2,
                     _trusted)


# Largest port count _series accepts: the top of the range its series is pinned on.
_MAX_PORTS = 10**10
_SERIES_FROM = 100  # the first port count whose xi_M comes from the series
# xi_M ~ sum_j c_j x^j, x = 1/(M + 2): c_1 .. c_16 rounded from exact dyadics (1, 5/4, 23/8, ...)
_XI_SERIES = (1.0, 1.25, 2.875, 10.859375, 59.3046875, 420.205078125, 3625.2099609375,
              36715.762634277344, 426288.49447631836, 5577426.5575790405, 81156782.94995499,
              1299645421.9053626, 22709970275.59639, 429934842884.4808, 8765178533123.627,
              191443578686870.97)
_DELTA_PER_XI = 1.5  # delta_M / xi_M at d = 2: the qubit simulation error is (3/2) xi_M


def _exact_sums(ports: Array) -> tuple[Array, Array]:
    """xi_M and f_e(M) by their binomial sums, for port counts 2 <= M < _SERIES_FROM.

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


def _moment_series(ports: Array) -> tuple[Array, Array]:
    """xi_M and f_e(M) = 1 - 3 xi_M / 4 (the depolarizing channel's) for M >= _SERIES_FROM.

    With S = M - 2k a sum of M signs and N = M + 2, xi_M - N 2^(1-M) / 3 (under
    1e-26 of xi_M) is (2/3) E[(S^4 - S^2) r(S^2/N^2)] / N^3, r(u) = 1/((1 - u)(1 + sqrt(1 - u))):
    expanding r and collecting the moments of S in x = 1/N gives x + (5/4) x^2 + ....
    """
    x, xi = 1.0 / (ports + 2.0), 0.0
    for c in reversed(_XI_SERIES):
        xi = (xi + c) * x
    return xi, 1.0 - 0.75 * xi


@cache
def _exact_table() -> Array:
    """(xi_M, f_e(M)) for M = 2 .. 99 in column M - 2: one _exact_sums pass on first use, read-only."""
    table = np.stack(_exact_sums(np.arange(2, _SERIES_FROM)))
    table.flags.writeable = False
    return table


def _series(Ms: Sequence[int]) -> Array:
    """xi_M and f_e(M) for each port count of Ms, as the rows of a fresh (2, len(Ms)) array.

    Every port count is checked, in order and before any is computed, to be an
    integer in [2, _MAX_PORTS] (10**10), and enters an int64 array as the Python
    int it checked. Those below _SERIES_FROM are read from _exact_table; the
    others go through _moment_series in one numpy pass, elementwise in M.
    """
    ports = np.array([_check_int(M, "port count", 2, _MAX_PORTS) for M in Ms], dtype=np.int64)
    out, small = np.empty((2, len(ports))), ports < _SERIES_FROM
    if small.any():
        out[:, small] = _exact_table()[:, ports[small] - 2]
    if not small.all():
        out[:, ~small] = _moment_series(ports[~small])
    return out


def xi(M: int) -> float:
    """Depolarizing probability of the M-port qubit protocol.

    xi_M = (M+2) 2^{1-M} / 3 + sum_s s(s+1)/3 C(M, k) 2^{4-M} ((M+2) - sqrt(g)) / g
    with the spin s running in unit steps from 1/2 (even M) or 0 (odd M) to
    (M-1)/2, k = (M-1)/2 - s and g = (M+2)^2 - (2s+1)^2. The last factor is
    evaluated as (2s+1)^2 / (g ((M+2) + sqrt(g))), which has no cancellation.

    Summed as it stands below 100 ports; from 100 on, a 16-term moment series
    in 1/(M + 2) takes O(1) and is within 1.4 ulp of a 40-digit mpmath sum (M <= 1e6)
    or of the exact series (up to the limit M = 10**10). Relative error is at most
    1e-14 for every M; a member of any grid equals xi(M) bit for bit.
    """
    return float(_series((M,))[0][0])


def entanglement_fidelity_qubit(M: int) -> float:
    """Entanglement fidelity of the M-port qubit protocol.

    f_e = 2^{-M-3} sum_k C(M, k) ((M-2k-1)/sqrt(k+1) + (M-2k+1)/sqrt(M-k+1))^2,
    summed below 100 ports and 1 - 3 xi_M / 4 from 100 on. Relative error is at
    most 1e-14 against a 50-digit mpmath sum (M <= 6401) and against 1 - 3 xi_M / 4
    of the exact series up to M = 10**10; grid members equal scalar calls, as for xi.
    """
    return float(_series((M,))[1][0])


def delta_upper(M: int, d: int) -> float:
    """Dimension-general upper bound 2d(d-1)/M on the simulation error."""
    M = _check_int(M, "port count", 2)
    d = _check_int(d, "dimension", 2)
    return 2.0 * d * (d - 1) / M


def simulation_error(M: int, d: int) -> tuple[float, str]:
    """Diamond-norm simulation error delta_M of the M-port protocol and its provenance.

    'closed_form' is the exact qubit value (3/2) xi_M; for d > 2 the only
    handle is 'upper_bound', the 2d(d-1)/M bound capped at 2, which no
    diamond distance exceeds: a one-member read of the grid lookup _simulation_errors.
    """
    deltas, provenance = _simulation_errors((M,), d)
    return float(deltas[0]), provenance


def _simulation_errors(Ms: Sequence[int], d: int) -> tuple[Array, str]:
    """simulation_error over a grid of port counts: one array of delta_M, one provenance.

    The dimension is checked before the port counts. For d > 2 the port counts
    are only checked: xi_M is not computed.
    """
    d = _check_int(d, "dimension", 2)
    if d == 2:
        return _DELTA_PER_XI * _series(Ms)[0], "closed_form"
    Ms = [_check_int(M, "port count", 2) for M in Ms]
    return np.minimum(2.0 * d * (d - 1) / np.array(Ms, dtype=float), 2.0), "upper_bound"


def _depolarizing_choi_matrix(x: float) -> Array:
    """(1 - x) Phi + x I/4: the Choi matrix of qubit depolarizing with probability x."""
    mat = np.diag([0.5 - x / 4, x / 4, x / 4, 0.5 - x / 4]).astype(complex)
    mat[0, 3] = mat[3, 0] = 0.5 - x / 2
    return mat


def pbt_choi_qubit(M: int) -> ChoiMatrix:
    """Choi matrix of the M-port qubit channel (isotropic form in xi_M)."""
    return _trusted(ChoiMatrix, _trusted(DensityMatrix, _depolarizing_choi_matrix(xi(M)), (2, 2)))


def simulate_channel_choi(ch: KrausChannel, M: int) -> ChoiMatrix:
    """Choi matrix of the M-port simulation of a qubit channel.

    The simulation composes the channel after the PBT map, which is qubit
    depolarizing with probability xi_M, so its Choi state is linear in the
    channel's own J: (1 - xi_M) J + xi_M (I/2 (x) Tr_ref J), since Tr_ref J
    is the channel's output on I/2.
    """
    if ch.d_in != 2:
        raise ValueError(f"simulation handles qubit input channels only, got d_in={ch.d_in}")
    if ch.kraus_ops[0].ndim != 2:
        raise ValueError("simulation takes one channel, not a stack")
    x = xi(M)
    J = choi(ch)
    out_mixed = _partial_trace_2(J.matrix, J.state.dims, 1)
    mixed = (np.eye(2)[:, None, :, None] / 2 * out_mixed[None, :, None, :]).reshape(J.matrix.shape)
    sim = (1.0 - x) * J.matrix + x * mixed
    return _trusted(ChoiMatrix, _trusted(DensityMatrix, sim, J.state.dims))


def diamond_via_choi_scalar_check(choi_a: ChoiMatrix, choi_b: ChoiMatrix) -> float | None:
    """Diamond distance of two channels from their Choi matrices, when exact.

    For J the Choi difference, the trace norm ||J||_1 lower-bounds the diamond
    distance and equals it when the reference marginal of |J| is scalar.
    Returns None when the scalar criterion fails; no SDP fallback is provided.
    """
    if choi_a.state.dims != choi_b.state.dims:
        raise ValueError("Choi matrices must share dimensions")
    if choi_a.matrix.ndim != 2 or choi_b.matrix.ndim != 2:
        raise ValueError("diamond distance takes two Choi matrices, not stacks")
    J = choi_a.matrix - choi_b.matrix
    evals, vecs = np.linalg.eigh(J)
    absJ = (vecs * np.abs(evals)) @ vecs.conj().T
    marg = _partial_trace_2(absJ, choi_a.state.dims, 0)
    d_in = choi_a.d_in
    c = np.trace(marg).real / d_in
    if np.abs(marg - c * np.eye(d_in)).max() > TOL_NUM:
        return None
    return float(np.abs(evals).sum())


def _ad_factor(p: float) -> float:
    """delta_ad(M, p) / xi_M = (1 - p)/2 + sqrt(1 - p); p is already validated."""
    return (1.0 - p) / 2.0 + sqrt(1.0 - p)


def delta_ad(M: int, p: float) -> float:
    """Diamond-norm error of the M-port simulation of amplitude damping."""
    p = _check_interval(p, "damping probability", 0, 1)
    return xi(M) * _ad_factor(p)
