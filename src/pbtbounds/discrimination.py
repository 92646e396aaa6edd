"""Lower bounds on adaptive channel discrimination error.

Teleportation stretching reduces any adaptive n-use protocol to a block
measurement on nM Choi copies at diamond-norm cost n*delta_M, giving the
universal Helstrom-type bound B = (1 - n*delta - D)/2 with D any computable
upper bound on the block trace distance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import exp, isfinite, log, sqrt

from .pbt import _ad_factor, delta_upper, simulation_error, xi

# ln sqrt(2): converts relative entropy in bits to the Pinsker radicand.
_LN_SQRT2 = 0.5 * log(2.0)


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


def _pow(F: float, k: float) -> float:
    """F**k in the log domain; exponents reach n^2 scale without underflow."""
    if F == 0.0:
        return 0.0
    if F == 1.0:
        return 1.0
    return exp(k * log(F))


def _check_fidelity(F: float) -> None:
    if not 0.0 <= F <= 1.0:
        raise ValueError(f"fidelity {F} outside [0, 1]")


def _check_counts(n: int, M: int) -> None:
    if n < 1 or M < 1:
        raise ValueError(f"counts n={n}, M={M} must be >= 1")


def d_upper_fuchs(F: float, n: int, M: int) -> float:
    """Trace-distance bound sqrt(1 - F^{2nM}) on nM Choi copies."""
    _check_fidelity(F)
    _check_counts(n, M)
    return sqrt(max(1.0 - _pow(F, 2.0 * n * M), 0.0))


def d_upper_subadd(choi_dist: float, n: int, M: int) -> float:
    """Subadditivity bound nM * ||rho_0 - rho_1||_1 (uncapped; caller clamps)."""
    if choi_dist < 0.0:
        raise ValueError(f"trace norm {choi_dist} must be nonnegative")
    _check_counts(n, M)
    return n * M * choi_dist


def d_upper_pinsker(s_min: float, n: int, M: int) -> float:
    """Pinsker bound sqrt(nM ln(sqrt 2) S_min), S_min in bits; inf passes through."""
    if s_min < 0.0:
        raise ValueError(f"relative entropy {s_min} must be nonnegative")
    _check_counts(n, M)
    return sqrt(n * M * _LN_SQRT2 * s_min)


def bound_B(n: int, M: int, delta: float, d_estimate: float) -> BoundReport:
    """Universal lower bound (1 - n*delta - D)/2 on the adaptive error.

    delta may be the universal simulation error delta_M or, for a fixed
    channel pair, the average delta_bar of the two per-channel diamond errors;
    delta_bar <= delta_M, so the pair bound is at least as strong.
    """
    _check_counts(n, M)
    if not 0.0 <= delta <= 2.0:
        raise ValueError(f"simulation error {delta} outside [0, 2]")
    if d_estimate < 0.0:
        raise ValueError(f"distance estimate {d_estimate} must be nonnegative")
    raw = _raw_bound(n, delta, d_estimate)
    return _report("bound_B", raw, {"n": n, "M": M, "delta": delta, "d_estimate": d_estimate})


def _d_estimate_min(
    n: int, M: int, F: float | None, choi_dist: float | None, s_min: float | None
) -> tuple[float, str]:
    """Tightest available trace-distance estimate and the estimator that won."""
    candidates = {}
    if F is not None:
        candidates["fuchs"] = d_upper_fuchs(F, n, M)
    if choi_dist is not None:
        candidates["subadd"] = d_upper_subadd(choi_dist, n, M)
    if s_min is not None:
        candidates["pinsker"] = d_upper_pinsker(s_min, n, M)
    finite = {k: v for k, v in candidates.items() if isfinite(v)}
    if not finite:
        raise ValueError("no finite trace-distance estimator input supplied")
    best = min(finite, key=finite.get)
    return finite[best], best


def default_m_grid(n: int, d: int) -> list[int]:
    """Small-M territory plus the analytic-scaling region around 4d(d-1)n."""
    grid = set(range(2, 65))
    grid |= {round(x * d * (d - 1) * n) for x in (2, 3, 4, 6, 8)}
    return sorted(grid)


def bound_B_optimized(
    n: int,
    d: int,
    M_grid: list[int] | None = None,
    F: float | None = None,
    choi_dist: float | None = None,
    s_min: float | None = None,
) -> BoundReport:
    """bound_B maximized over a port-count grid.

    delta comes from pbt.simulation_error (exact for d=2, the capped
    2d(d-1)/M bound otherwise); the winning M and estimator and the delta
    provenance are recorded in params.
    """
    if M_grid is None:
        M_grid = default_m_grid(n, d)
    if not M_grid:
        raise ValueError("port-count grid is empty")
    best = None
    for M in M_grid:
        delta, provenance = simulation_error(M, d)
        d_est, estimator = _d_estimate_min(n, M, F, choi_dist, s_min)
        raw = _raw_bound(n, delta, d_est)
        if best is None or raw > best[0]:
            best = (raw, M, estimator, delta, provenance, d_est)
    raw, M, estimator, delta, provenance, d_est = best
    params = {
        "n": n, "d": d, "M": M, "estimator": estimator, "delta": delta,
        "delta_provenance": provenance, "d_estimate": d_est,
    }
    return _report("bound_B_optimized", raw, params)


def bound_B_analytic_M(n: int, d: int, F: float) -> BoundReport:
    """bound_B at the port choice M = 4d(d-1)n with the generic delta and the
    Fuchs estimator; there n*delta = 1/2, so it equals (1 - 2D)/4."""
    _check_counts(n, 1)
    if d < 2:
        raise ValueError(f"dimension {d} must be at least 2")
    M = 4 * d * (d - 1) * n
    return bound_B(n, M, delta_upper(M, d), d_upper_fuchs(F, n, M))


def bound_B_near_identity(n: int, d: int, epsilon: float) -> BoundReport:
    """Near-identity expansion: linear form plus its exponential surrogate.

    value is max(1/4 - n sqrt(2d(d-1) eps), 0); params carry the surrogate
    exp(-4n sqrt(2d(d-1) eps))/4 and a regime flag (expansion assumes
    n sqrt(2d(d-1) eps) small).
    """
    if epsilon < 0.0 or epsilon > 1.0:
        raise ValueError(f"infidelity {epsilon} outside [0, 1]")
    _check_counts(n, 1)
    if d < 2:
        raise ValueError(f"dimension {d} must be at least 2")
    x = n * sqrt(2.0 * d * (d - 1) * epsilon)
    raw = 0.25 - x
    surrogate = exp(-4.0 * x) / 4.0
    params = {"n": n, "d": d, "epsilon": epsilon, "surrogate": surrogate, "regime_ok": x <= 0.25}
    return _report("bound_B_near_identity", raw, params)


def ad_fidelity(p0: float, p1: float) -> float:
    """Fidelity between the Choi matrices of two amplitude damping channels."""
    for p in (p0, p1):
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"damping probability {p} outside [0, 1]")
    return (1.0 + sqrt((1.0 - p0) * (1.0 - p1)) + sqrt(p0 * p1)) / 2.0


def block_bounds_ad(p0: float, p1: float, n: int) -> tuple[float, float]:
    """Optimal block-protocol error window for an amplitude damping pair."""
    _check_counts(n, 1)
    return _block_window(ad_fidelity(p0, p1), n)


def _block_window(F: float, n: int) -> tuple[float, float]:
    lower = (1.0 - sqrt(max(1.0 - _pow(F, 2.0 * n), 0.0))) / 2.0
    upper = _pow(F, float(n)) / 2.0
    return lower, upper


def ad_discrimination_sweep(
    p_grid: list[float], dp: float, n: int, M_grid: list[int]
) -> list[dict]:
    """Per-p bound table for discriminating damping p from p + dp.

    Each row carries the block-protocol window, the lower bound at every
    fixed M in M_grid with the pair-average simulation error delta_bar
    (see bound_B), and the bound maximized over M (grid extended so the
    maximum always dominates the fixed columns).
    """
    if not p_grid or not M_grid:
        raise ValueError("parameter grids must be nonempty")
    if dp < 0.0:
        raise ValueError(f"damping separation {dp} must be nonnegative")
    opt_grid = sorted(set(default_m_grid(n, 2)) | set(M_grid))
    xis = {M: xi(M) for M in opt_grid}  # validates every port count once
    rows = []
    for p in p_grid:
        p0, p1 = p, p + dp
        if p1 > 1.0:
            raise ValueError(f"p + dp = {p1} exceeds 1")
        F = ad_fidelity(p0, p1)
        block_lower, block_upper = _block_window(F, n)
        row = {"p": p, "block_lower": block_lower, "block_upper": block_upper}
        f0, f1 = _ad_factor(p0), _ad_factor(p1)
        values = {}
        for M, x in xis.items():
            delta_bar = (x * f0 + x * f1) / 2.0
            values[M] = _clamp(_raw_bound(n, delta_bar, d_upper_fuchs(F, n, M)))
        for M in M_grid:
            row[f"lb_M{M}"] = values[M]
        argmax = max(values, key=values.get)
        row["lb_optimized"] = values[argmax]
        row["argmax_M"] = argmax
        rows.append(row)
    return rows
