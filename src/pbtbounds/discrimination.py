"""Lower bounds on adaptive channel discrimination error.

Teleportation stretching reduces any adaptive n-use protocol to a block
measurement on nM Choi copies at diamond-norm cost n*delta_M, giving the
universal Helstrom-type bound B = (1 - n*delta - D)/2 with D any computable
upper bound on the block trace distance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import exp, inf, log, sqrt

import numpy as np

from .linalg import Array, _check_int, _check_interval
from .pbt import _ad_factor, _series, _simulation_errors


@dataclass(frozen=True)
class BoundReport:
    """One bound evaluation: its value plus the inputs that produced it.

    The error-probability bounds, built by _report, clamp value to [0, 0.5],
    keep the raw pre-clamp number in params ('raw') and are valid when raw > 0.
    A key-rate value is in bits per use, inf and invalid where undefined.
    """

    name: str
    value: float
    params: dict = field(default_factory=dict)
    valid: bool = True


def _report(name: str, raw: float, params: dict) -> BoundReport:
    params = dict(params, raw=raw)
    return BoundReport(name, min(max(raw, 0.0), 0.5), params, valid=raw > 0.0)


def _log_f(F: float) -> float:
    """log F of a validated fidelity, -inf at F = 0."""
    return log(F) if F > 0.0 else -inf


def _pow(log_f, k) -> Array:
    """F**k = exp(k log F) entrywise, in the log domain so exponents reach n^2
    scale without underflow; F = 1 gives 1 and F = 0 gives 0.

    Each entry goes through math.exp, which rounds as the scalar formula does;
    np.exp need not, and the tables are pinned to that rounding.
    """
    x = np.multiply(k, log_f)
    return np.fromiter(map(exp, x.ravel().tolist()), float, x.size).reshape(x.shape)


def _fuchs(log_f, k) -> Array:
    """sqrt(1 - F^k) entrywise (see _pow)."""
    return np.sqrt(np.maximum(1.0 - _pow(log_f, k), 0.0))


def _scan(n: int, log_f, Ms: Array, deltas: Array) -> tuple[Array, Array, Array]:
    """Unclamped (1 - n*delta_M - D_M)/2 for port counts Ms (as floats) with simulation
    errors deltas, the Fuchs terms D_M = sqrt(1 - F^{2nM}), and each row's first
    maximiser of the unclamped bound; log_f = _log_f(F) broadcasts against both."""
    fuchs = _fuchs(log_f, 2.0 * n * Ms)
    raw = (1.0 - n * deltas - fuchs) / 2.0
    return raw, fuchs, raw.argmax(axis=-1)


def default_m_grid(n: int, d: int) -> list[int]:
    """Small-M territory plus the analytic-scaling region around 4d(d-1)n."""
    n = _check_int(n, "count n =", 1)
    d = _check_int(d, "dimension", 2)
    grid = set(range(2, 65))
    grid |= {round(x * d * (d - 1) * n) for x in (2, 3, 4, 6, 8)}
    return sorted(grid)


def bound_B_optimized(n: int, d: int, F: float) -> BoundReport:
    """(1 - n*delta - D)/2 maximized over default_m_grid(n, d), D = sqrt(1 - F^{2nM}).

    delta comes from pbt.simulation_error (exact for d=2, the capped
    2d(d-1)/M bound otherwise). params record the winning M (the first maximiser
    of the unclamped bound, named even when every bound clamps to 0), its delta
    and D_M ('d_estimate'), the estimator and the delta provenance.
    """
    n = _check_int(n, "count n =", 1)
    d = _check_int(d, "dimension", 2)
    F = _check_interval(F, "fidelity", 0, 1)
    grid = default_m_grid(n, d)
    deltas, provenance = _simulation_errors(grid, d)
    raw, fuchs, i = _scan(n, _log_f(F), np.array(grid, dtype=float), np.array(deltas))
    params = {
        "n": n, "d": d, "M": grid[i], "estimator": "fuchs", "delta": deltas[i],
        "delta_provenance": provenance, "d_estimate": float(fuchs[i]),
    }
    return _report("bound_B_optimized", float(raw[i]), params)


def bound_B_near_identity(n: int, d: int, epsilon: float) -> BoundReport:
    """Near-identity expansion: linear form plus its exponential surrogate.

    value is max(1/4 - n sqrt(2d(d-1) eps), 0); params carry the surrogate
    exp(-4n sqrt(2d(d-1) eps))/4 and a regime flag (expansion assumes
    n sqrt(2d(d-1) eps) small).
    """
    epsilon = _check_interval(epsilon, "infidelity", 0, 1)
    n = _check_int(n, "count n =", 1)
    d = _check_int(d, "dimension", 2)
    x = n * sqrt(2.0 * d * (d - 1) * epsilon)
    raw = 0.25 - x
    surrogate = exp(-4.0 * x) / 4.0
    params = {"n": n, "d": d, "epsilon": epsilon, "surrogate": surrogate, "regime_ok": x <= 0.25}
    return _report("bound_B_near_identity", raw, params)


def ad_fidelity(p0: float, p1: float) -> float:
    """Fidelity between the Choi matrices of two amplitude damping channels."""
    p0 = _check_interval(p0, "damping probability", 0, 1)
    p1 = _check_interval(p1, "damping probability", 0, 1)
    return (1.0 + sqrt((1.0 - p0) * (1.0 - p1)) + sqrt(p0 * p1)) / 2.0


def ad_discrimination_sweep(
    p_grid: list[float], dp: float, n: int, M_grid: list[int]
) -> list[dict]:
    """Per-p bound table for discriminating damping p from p + dp.

    Each row carries the error window [(1 - sqrt(1 - F^{2n}))/2, F^n/2] of the
    block protocol, the lower bound (1 - n*delta_bar - D)/2 at every fixed M in
    M_grid with the pair-average simulation error delta_bar <= delta_M of the
    two channels, and the bound maximized over M on a grid holding M_grid; argmax_M is
    the first maximiser of the unclamped bound, named even when every bound clamps to 0.

    The block columns bound only the protocol that sends one half of a
    maximally entangled state through each use and measures the n Choi copies;
    they are not bounds on adaptive protocols, nor on other inputs. At p = 0.3,
    dp = 0.4, n = 1, block_lower is 0.357, but one use with input |1> already
    reaches error 0.300. The lb_* columns bound every adaptive protocol.
    """
    n = _check_int(n, "count n =", 1)
    if not p_grid or not M_grid:
        raise ValueError("parameter grids must be nonempty")
    dp = _check_interval(dp, "damping separation", 0, inf)
    grid = [*M_grid, *default_m_grid(n, 2)]
    xi_of = dict(zip(grid, _series(grid)[0]))  # the kernel checks M_grid first, in order
    opt_grid = sorted(map(int, xi_of))
    xis = np.array([xi_of[M] for M in opt_grid])
    p_grid = [_check_interval(p, "damping probability", 0, 1) for p in p_grid]
    log_f, factors = [], []
    for p in p_grid:
        p0, p1 = p, p + dp
        if p1 > 1.0:
            raise ValueError(f"p + dp = {p1} exceeds 1")
        F = ad_fidelity(p0, p1)
        _check_interval(F, "fidelity", 0, 1)
        log_f.append(_log_f(F))
        factors.append((_ad_factor(p0), _ad_factor(p1)))
    # every row at once: one (p, M) array per quantity
    log_f = np.array(log_f)
    f0, f1 = np.array(factors).T[:, :, None]
    delta_bar = (xis * f0 + xis * f1) / 2.0
    raw, _, best = _scan(n, log_f[:, None], np.array(opt_grid, dtype=float), delta_bar)
    values = np.clip(raw, 0.0, 0.5)
    block_lower = ((1.0 - _fuchs(log_f, 2.0 * n)) / 2.0).tolist()
    block_upper = (_pow(log_f, n) / 2.0).tolist()
    fixed = [opt_grid.index(M) for M in M_grid]
    rows = []
    for p, lower, upper, row_values, j_max in zip(p_grid, block_lower, block_upper, values.tolist(), best):
        row = {"p": p, "block_lower": lower, "block_upper": upper}
        for M, j in zip(M_grid, fixed):
            row[f"lb_M{M}"] = row_values[j]
        row["lb_optimized"] = row_values[j_max]
        row["argmax_M"] = opt_grid[j_max]
        rows.append(row)
    return rows
