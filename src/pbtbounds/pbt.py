"""Port-based teleportation as a channel simulator.

Closed-form quantities for the qubit square-root-measurement protocol with M
ports: the depolarizing probability xi_M, the entanglement fidelity f_e, the
diamond-norm simulation errors delta_M and Delta_M(p), and the Choi matrices
of the simulated channels, which are linear in each channel's own Choi matrix
because the M-port qubit channel is depolarizing.

xi_M and f_e(M) come from one kernel, _series, that checks every port count,
sums both series over one shared binomial window per M and keeps the pair per
M in one module store of at most _STORE_SIZE = 4096 port counts (under
1 MB). The scalar xi and entanglement_fidelity_qubit are one-member reads of
it; the bound optimiser, the damping sweep and the CLI tables pass their whole
grid in one call. A value is the same bits whether it was computed alone or in
any grid, stored or recomputed after the store was emptied.
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import chain
from math import ceil, inf, sqrt

import numpy as np

from .channels import ChoiMatrix, KrausChannel, choi
from .linalg import (TOL_NUM, Array, DensityMatrix, _check_int, _check_interval, _partial_trace_2,
                     _trusted)


# A weight below e^-708 of the centre's (about the smallest normal double) is
# dropped: its share of any of the sums is under 1e-300, far below their last bit.
_LOG_TINY = 708

# Largest port count _series accepts: its window of about 18.8 sqrt(M) entries
# takes about 200 MB of temporaries there, and that grows as sqrt(M) beyond.
_MAX_PORTS = 10**10
# Most (xi_M, f_e(M)) pairs the store of _series holds, keyed by M.
_STORE_SIZE = 4096
_store: dict[int, tuple[float, float]] = {}
_DELTA_PER_XI = 1.5  # delta_M / xi_M at d = 2: the qubit simulation error is (3/2) xi_M


def _window(M: int) -> int:
    """Length of the half window k = M//2, M//2 - 1, ... summed for M ports.

    Binom(M, 1/2) falls from its centre c = M//2 as
    C(M, c - j) / C(M, c) <= exp(-j^2 / (c + j + 1)), so from the first j with
    j^2 >= 708 (c + j + 1) on every weight is below e^-708 of the centre's
    (about j = 18.8 sqrt(M)); up to M = 2833 the window reaches k = 0.
    """
    c = M // 2
    a = _LOG_TINY / 2
    return min(c + 1, ceil(a + sqrt(a * a + _LOG_TINY * (c + 1))))


def _series(Ms: Sequence[int]) -> Array:
    """xi_M and f_e(M) for each port count of Ms, as the rows of a fresh (2, len(Ms)) array.

    Every port count is checked, in order and before any is computed, to be an
    integer in [2, _MAX_PORTS] (10**10), and kept as a Python int. Those in the
    store are read; the missing ones, each once, are computed and stored. A pass
    that would take the store past _STORE_SIZE empties it first, and of more
    than _STORE_SIZE new port counts only the first _STORE_SIZE are kept.

    Both sums run over one binomial window per M, the half k <= M/2 in the
    variable t = M - 2k (= 2s + 1 for xi's spins), since f_e's summand is
    symmetric under k -> M - k. The log-weights are cumulative sums of
    log C(M, k-1) / C(M, k) taken outward from the centre, which keeps the
    rounding of the large central weights at a few ulp. Rows of the same
    width, the window plus at least one entry of padding rounded up to a
    multiple of 64, go through numpy together. The width depends on M alone
    and a -inf log-ratio after the window makes every padded weight an exact
    0, so every M gets the same bits in any batch as on its own.
    """
    Ms = [_check_int(M, "port count", 2, _MAX_PORTS) for M in Ms]
    pairs = {M: _store.get(M) for M in Ms}
    new = [M for M, pair in pairs.items() if pair is None]
    groups: dict[int, list[tuple[int, int]]] = {}
    for m in new:
        n = _window(m)
        groups.setdefault((n // 64 + 1) * 64, []).append((m, n))
    for width, group in groups.items():
        ports, ends = zip(*group)
        ports = np.array(ports)
        if len(group) == 1:  # a scalar broadcasts faster than a (1, 1) column, to the same bits
            M, ends = float(ports[0]), ends[0]
        else:
            M, ends = ports[:, None].astype(float), (np.arange(len(group)), ends)
        t = np.minimum(M % 2 + np.arange(0.0, 2 * width, 2.0), M)  # k = M//2 - j, clipped at k = 0
        tm, tp, am, ap = t - 1, t + 1, (M + 2) - t, (M + 2) + t  # am = 2(k + 1), ap = 2(M - k + 1)
        # log C(M, k) / C(M, k + 1) = log1p((1 - t) / ((M + t) / 2)), summed outward from t = M % 2
        log_w = np.log1p(-2 * tm / (ap - 2))
        log_w[..., 0] = 0.0
        log_w[ends] = -inf  # the first padded entry; the sum stays -inf after it
        log_w = log_w.cumsum(axis=-1)
        # tiny weights stay 0; as subnormals they would slow exp and every product after it
        terms = np.zeros((3, *t.shape))
        w = np.exp(log_w, out=terms[0], where=log_w > -_LOG_TINY)
        a, b = np.sqrt(am), np.sqrt(ap)
        # xi: (t^2 - 1) t^2 / (g ((M+2) + sqrt(g))) with g = (M+2)^2 - t^2 = am ap, no cancellation
        np.divide(tm * tp * (t * t) * w, am * ap * ((M + 2) + a * b), out=terms[1])
        # f_e: ((t - 1)/sqrt(k + 1) + (t + 1)/sqrt(M - k + 1))^2 = 2 ((t - 1)/a + (t + 1)/b)^2
        g = tm / a + tp / b
        np.multiply(g * g, w, out=terms[2])
        w_sum, x_sum, f_sum = terms.sum(axis=-1)
        # the upper half mirrors the lower one, and an even M's centre t = 0 counts once
        norm = 2 * w_sum - (1 - ports % 2)
        # 16 w = C(M, k) / 2^(M-4) in xi; f_e doubles its half and takes 2 w / 8
        xi = np.ldexp((ports + 2) / 3, 1 - ports) + 16 * (x_sum / norm) / 12
        pairs.update(zip(ports.tolist(), zip(xi.tolist(), (f_sum / norm / 2).tolist())))
    if len(_store) + len(new) > _STORE_SIZE:
        _store.clear()
    _store.update((M, pairs[M]) for M in new[:_STORE_SIZE])
    return np.fromiter(chain.from_iterable(pairs[M] for M in Ms), float, 2 * len(Ms)).reshape(-1, 2).T


def xi(M: int) -> float:
    """Depolarizing probability of the M-port qubit protocol.

    xi_M = (M+2) 2^{1-M} / 3 + sum_s s(s+1)/3 C(M, k) 2^{4-M} ((M+2) - sqrt(g)) / g
    with the spin s running in unit steps from 1/2 (even M) or 0 (odd M) to
    (M-1)/2, k = (M-1)/2 - s and g = (M+2)^2 - (2s+1)^2. The last factor is
    evaluated as (2s+1)^2 / (g ((M+2) + sqrt(g))), which has no cancellation.

    Only the binomial window around M/2 is summed, so the cost is O(sqrt M),
    and M above 10**10 is rejected. Relative error is at most 1e-14 against a
    40-digit mpmath sum for 2 <= M <= 1e6. A one-member read of the checked
    store of _series: a member of any grid equals xi(M) bit for bit.
    """
    return float(_series((M,))[0][0])


def entanglement_fidelity_qubit(M: int) -> float:
    """Entanglement fidelity of the M-port qubit protocol.

    f_e = 2^{-M-3} sum_k C(M, k) ((M-2k-1)/sqrt(k+1) + (M-2k+1)/sqrt(M-k+1))^2,
    summed over the binomial window around M/2 in O(sqrt M), from the same
    window and the same store entry as xi(M). Relative error is at most 1e-14
    against a 40-digit mpmath sum for 2 <= M <= 1e6; a grid member equals
    the scalar call bit for bit, as for xi.
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
    are only checked: xi_M is neither computed nor stored.
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
