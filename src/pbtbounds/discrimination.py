"""Lower bounds on adaptive channel discrimination error.

Teleportation stretching reduces any adaptive n-use protocol to a block
measurement on nM Choi copies at diamond-norm cost n*delta_M, giving the
universal Helstrom-type bound B = (1 - n*delta - D)/2 with D any computable
upper bound on the block trace distance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import exp, inf, log, sqrt

from .linalg import _check_int, _check_interval
from .pbt import _ad_factor, simulation_error, xi


@dataclass(frozen=True)
class BoundReport:
    """One bound evaluation: clamped value plus the inputs that produced it.

    value is clamped to [0, 0.5]; the raw pre-clamp number stays in params
    ('raw'). valid means the bound is informative (raw > 0).
    """

    name: str
    value: float
    params: dict = field(default_factory=dict)
    valid: bool = True


def _clamp(raw: float) -> float:
    return min(max(raw, 0.0), 0.5)


def _report(name: str, raw: float, params: dict) -> BoundReport:
    params = dict(params, raw=raw)
    return BoundReport(name, _clamp(raw), params, valid=raw > 0.0)


def _raw_bound(n: int, delta: float, d_estimate: float) -> float:
    """(1 - n*delta - D)/2 before clamping; inputs are already validated."""
    return (1.0 - n * delta - d_estimate) / 2.0


def _pow(F: float, k: float, log_f: float | None = None) -> float:
    """F**k in the log domain; exponents reach n^2 scale without underflow.

    A caller raising one F to many k passes log_f = log(F) to take it once.
    """
    if F == 0.0:
        return 0.0
    if F == 1.0:
        return 1.0
    return exp(k * (log(F) if log_f is None else log_f))


def _fuchs(F: float, k: float, log_f: float | None = None) -> float:
    """sqrt(1 - F^k) for a validated F (see _pow for log_f)."""
    return sqrt(max(1.0 - _pow(F, k, log_f), 0.0))


def d_upper_fuchs(F: float, n: int, M: int) -> float:
    """Trace-distance bound sqrt(1 - F^{2nM}) on nM Choi copies."""
    _check_interval(F, "fidelity", 0, 1)
    _check_int(n, "count n =", 1)
    _check_int(M, "count M =", 1)
    return _fuchs(F, 2.0 * n * M)


def default_m_grid(n: int, d: int) -> list[int]:
    """Small-M territory plus the analytic-scaling region around 4d(d-1)n."""
    grid = set(range(2, 65))
    grid |= {round(x * d * (d - 1) * n) for x in (2, 3, 4, 6, 8)}
    return sorted(grid)


def bound_B_optimized(n: int, d: int, F: float) -> BoundReport:
    """(1 - n*delta - D)/2 maximized over default_m_grid(n, d), D = d_upper_fuchs.

    delta comes from pbt.simulation_error (exact for d=2, the capped
    2d(d-1)/M bound otherwise); the winning M, the estimator and the delta
    provenance are recorded in params.
    """
    _check_int(n, "count n =", 1)
    _check_int(d, "dimension", 2)
    _check_interval(F, "fidelity", 0, 1)
    best = None
    for M in default_m_grid(n, d):
        delta, provenance = simulation_error(M, d)
        d_est = d_upper_fuchs(F, n, M)
        raw = _raw_bound(n, delta, d_est)
        if best is None or raw > best[0]:
            best = (raw, M, delta, provenance, d_est)
    raw, M, delta, provenance, d_est = best
    params = {
        "n": n, "d": d, "M": M, "estimator": "fuchs", "delta": delta,
        "delta_provenance": provenance, "d_estimate": d_est,
    }
    return _report("bound_B_optimized", raw, params)


def bound_B_near_identity(n: int, d: int, epsilon: float) -> BoundReport:
    """Near-identity expansion: linear form plus its exponential surrogate.

    value is max(1/4 - n sqrt(2d(d-1) eps), 0); params carry the surrogate
    exp(-4n sqrt(2d(d-1) eps))/4 and a regime flag (expansion assumes
    n sqrt(2d(d-1) eps) small).
    """
    _check_interval(epsilon, "infidelity", 0, 1)
    _check_int(n, "count n =", 1)
    _check_int(d, "dimension", 2)
    x = n * sqrt(2.0 * d * (d - 1) * epsilon)
    raw = 0.25 - x
    surrogate = exp(-4.0 * x) / 4.0
    params = {"n": n, "d": d, "epsilon": epsilon, "surrogate": surrogate, "regime_ok": x <= 0.25}
    return _report("bound_B_near_identity", raw, params)


def ad_fidelity(p0: float, p1: float) -> float:
    """Fidelity between the Choi matrices of two amplitude damping channels."""
    for p in (p0, p1):
        _check_interval(p, "damping probability", 0, 1)
    return (1.0 + sqrt((1.0 - p0) * (1.0 - p1)) + sqrt(p0 * p1)) / 2.0


def ad_discrimination_sweep(
    p_grid: list[float], dp: float, n: int, M_grid: list[int]
) -> list[dict]:
    """Per-p bound table for discriminating damping p from p + dp.

    Each row carries the optimal block-protocol error window
    [(1 - sqrt(1 - F^{2n}))/2, F^n/2], the lower bound (1 - n*delta_bar - D)/2
    at every fixed M in M_grid with the pair-average simulation error
    delta_bar <= delta_M of the two channels, and the bound maximized over M
    (grid extended so the maximum always dominates the fixed columns).
    """
    _check_int(n, "count n =", 1)
    if not p_grid or not M_grid:
        raise ValueError("parameter grids must be nonempty")
    _check_interval(dp, "damping separation", 0, inf)
    opt_grid = sorted(set(default_m_grid(n, 2)) | set(M_grid))
    xis = {M: xi(M) for M in opt_grid}  # validates every port count once
    rows = []
    for p in p_grid:
        p0, p1 = p, p + dp
        if p1 > 1.0:
            raise ValueError(f"p + dp = {p1} exceeds 1")
        F = ad_fidelity(p0, p1)
        _check_interval(F, "fidelity", 0, 1)
        log_f = log(F) if 0.0 < F < 1.0 else None
        row = {
            "p": p,
            "block_lower": (1.0 - _fuchs(F, 2.0 * n, log_f)) / 2.0,
            "block_upper": _pow(F, float(n), log_f) / 2.0,
        }
        f0, f1 = _ad_factor(p0), _ad_factor(p1)
        values = {}
        for M, x in xis.items():
            delta_bar = (x * f0 + x * f1) / 2.0
            values[M] = _clamp(_raw_bound(n, delta_bar, _fuchs(F, 2.0 * n * M, log_f)))
        for M in M_grid:
            row[f"lb_M{M}"] = values[M]
        argmax = max(values, key=values.get)
        row["lb_optimized"] = values[argmax]
        row["argmax_M"] = argmax
        rows.append(row)
    return rows
