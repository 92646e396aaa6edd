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
from .pbt import _MAX_PORTS, _ad_factor, _series, _simulation_errors


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


def _fuchs(log_f: float, k: float) -> float:
    """sqrt(1 - F^k) for log_f = _log_f(F), with F^k = exp(k log F) in the log domain
    so exponents reach n^2 scale without underflow; F = 1 gives 0 and F = 0 gives 1."""
    x = 1.0 - exp(k * log_f)
    return sqrt(x) if x > 0.0 else 0.0


def _scan(n: int, log_f: float, Ms: list[int], deltas: list[float]) -> tuple[list[float], int]:
    """Unclamped (1 - n*delta_M - D_M)/2 for each port count M of Ms, with the matching
    simulation error delta_M of deltas and D_M = _fuchs(log_f, 2nM), as a list, and the
    index of its first maximum."""
    raw = [(1.0 - n * delta - _fuchs(log_f, 2.0 * n * M)) / 2.0 for M, delta in zip(Ms, deltas)]
    return raw, raw.index(max(raw))


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
    2d(d-1)/M bound otherwise). params record the winning M (the first maximiser of
    the unclamped bound, named even when every bound clamps to 0), its delta and D_M
    ('d_estimate', _fuchs at that M), the estimator and the delta provenance.
    """
    n = _check_int(n, "count n =", 1)
    d = _check_int(d, "dimension", 2)
    F = _check_interval(F, "fidelity", 0, 1)
    grid = default_m_grid(n, d)
    deltas, provenance = _simulation_errors(grid, d)
    log_f = _log_f(F)
    raw, i = _scan(n, log_f, grid, deltas)
    params = {
        "n": n, "d": d, "M": grid[i], "estimator": "fuchs", "delta": deltas[i],
        "delta_provenance": provenance, "d_estimate": _fuchs(log_f, 2.0 * n * grid[i]),
    }
    return _report("bound_B_optimized", raw[i], params)


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
    Each lb_* cell is clamped to [0, 0.5] as _report clamps a bound. Every input is
    checked before any row is formed; each row is then one _scan over the shared xi_M.

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
    ports = [_check_int(M, "port count", 2, _MAX_PORTS) for M in M_grid]  # as the kernel checks
    opt_grid = sorted({*ports, *default_m_grid(n, 2)})
    column = {M: j for j, M in enumerate(opt_grid)}
    xis = _series(opt_grid)[0]
    p_grid = [_check_interval(p, "damping probability", 0, 1) for p in p_grid]
    log_fs = []
    for p in p_grid:
        if p + dp > 1.0:
            raise ValueError(f"p + dp = {p + dp} exceeds 1")
        log_fs.append(_log_f(_check_interval(ad_fidelity(p, p + dp), "fidelity", 0, 1)))
    rows = []
    for p, log_f in zip(p_grid, log_fs):
        f0, f1 = _ad_factor(p), _ad_factor(p + dp)
        bounds, j = _scan(n, log_f, opt_grid, [(x * f0 + x * f1) / 2.0 for x in xis])
        lower, upper = (1.0 - _fuchs(log_f, 2.0 * n)) / 2.0, exp(n * log_f) / 2.0
        row = {"p": p, "block_lower": lower, "block_upper": upper}
        row.update({f"lb_M{M}": min(max(bounds[column[M]], 0.0), 0.5) for M in ports})
        row.update(lb_optimized=min(max(bounds[j], 0.0), 0.5), argmax_M=opt_grid[j])
        rows.append(row)
    return rows
