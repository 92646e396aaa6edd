"""Port-based teleportation as a channel simulator.

Closed-form quantities for the qubit square-root-measurement protocol with M
ports: the depolarizing probability xi_M, the entanglement fidelity f_e, the
diamond-norm simulation errors delta_M and Delta_M(p), and the Choi matrices
of the simulated channels, which are linear in each channel's own Choi matrix
because the M-port qubit channel is depolarizing.
"""

from __future__ import annotations

from functools import lru_cache
from math import ldexp, sqrt

import numpy as np

from .channels import ChoiMatrix, KrausChannel, choi
from .linalg import (TOL_NUM, Array, DensityMatrix, _check_int, _check_interval, _partial_trace_2,
                     _trusted)


def _binomial_window(M: int) -> tuple[np.ndarray, np.ndarray]:
    """k and the Binom(M, 1/2) pmf C(M, k) / 2^M for k in M//2 +- 40 sqrt(M) within [0, M].

    Relative to the centre the weights fall as e^{-2 x^2 / M} at distance x, so
    up to M = 6400 the window spans [0, M] and above it every weight left out is
    below e^{-3200} of the centre: the window's weights divided by their sum are the pmf.
    Log-weights are cumulative sums of log-ratios taken outward from the
    centre, which keeps the rounding of the large central weights at a few ulp.
    """
    c = M // 2
    odd = M - 2 * c
    up = min(M - c, int(40 * sqrt(M)))
    k = np.arange(c, c + up, dtype=float)
    # log C(M, c + j) / C(M, c) for j = 0..up, from C(M, k+1) / C(M, k) = (M-k)/(k+1)
    log_up = np.concatenate(([0.0], np.cumsum(np.log1p((M - 2 * k - 1) / (k + 1)))))
    # C(M, c - j) = C(M, c + odd + j) mirrors the lower half onto the upper one
    down = min(c, up - odd)
    log_w = np.concatenate((log_up[odd + 1 : odd + 1 + down][::-1], log_up))
    ks = np.arange(c - down, c + up + 1, dtype=float)
    w = np.exp(log_w)
    return ks, w / w.sum()


@lru_cache
def _xi_sum(M: int) -> float:
    k, w = _binomial_window(M)
    n = (M - 1) // 2 - int(k[0]) + 1  # the spins s >= 0 have k <= (M-1)/2
    t2 = (M - 2 * k[:n]) ** 2  # (2s + 1)^2
    gap = (M + 2) ** 2 - t2
    terms = (t2 - 1) * t2 * w[:n] / (gap * ((M + 2) + np.sqrt(gap)))
    # 16 w = C(M, k) / 2^(M-4)
    return ldexp((M + 2) / 3, 1 - M) + 16 * float(np.sum(terms)) / 12


def xi(M: int) -> float:
    """Depolarizing probability of the M-port qubit protocol.

    xi_M = (M+2) 2^{1-M} / 3 + sum_s s(s+1)/3 C(M, k) 2^{4-M} ((M+2) - sqrt(g)) / g
    with the spin s running in unit steps from 1/2 (even M) or 0 (odd M) to
    (M-1)/2, k = (M-1)/2 - s and g = (M+2)^2 - (2s+1)^2. The last factor is
    evaluated as (2s+1)^2 / (g ((M+2) + sqrt(g))), which has no cancellation.

    Only the binomial window around M/2 is summed, so the cost is O(sqrt M).
    Relative error is at most 1e-14 against a 40-digit mpmath sum for
    2 <= M <= 1e6. Results are memoised per M.
    """
    _check_int(M, "port count", 2)
    return _xi_sum(int(M))


@lru_cache
def _fidelity_sum(M: int) -> float:
    k, w = _binomial_window(M)
    t = (M - 2 * k - 1) / np.sqrt(k + 1) + (M - 2 * k + 1) / np.sqrt(M - k + 1)
    return float(np.sum(t * t * w)) / 8  # w / 8 = C(M, k) / 2^(M+3)


def entanglement_fidelity_qubit(M: int) -> float:
    """Entanglement fidelity of the M-port qubit protocol.

    f_e = 2^{-M-3} sum_k C(M, k) ((M-2k-1)/sqrt(k+1) + (M-2k+1)/sqrt(M-k+1))^2,
    summed over the binomial window around M/2 in O(sqrt M). Relative error is
    at most 1e-14 against a 40-digit mpmath sum for 2 <= M <= 1e6. Results
    are memoised per M.
    """
    _check_int(M, "port count", 2)
    return _fidelity_sum(int(M))


def delta_exact_qubit(M: int) -> float:
    """Diamond-norm distance between the identity and the M-port channel (d=2)."""
    return 1.5 * xi(M)


def delta_upper(M: int, d: int) -> float:
    """Dimension-general upper bound 2d(d-1)/M on the simulation error."""
    _check_int(M, "port count", 2)
    _check_int(d, "dimension", 2)
    return 2.0 * d * (d - 1) / M


def simulation_error(M: int, d: int) -> tuple[float, str]:
    """Diamond-norm simulation error delta_M of the M-port protocol and its provenance.

    'closed_form' is the exact qubit value (3/2) xi_M; for d > 2 the only
    handle is 'upper_bound', the 2d(d-1)/M bound capped at 2, which no
    diamond distance exceeds.
    """
    bound = delta_upper(M, d)  # checks M and d before the d == 2 branch
    if d == 2:
        return delta_exact_qubit(M), "closed_form"
    return min(bound, 2.0), "upper_bound"


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
    _check_interval(p, "damping probability", 0, 1)
    return xi(M) * _ad_factor(p)
