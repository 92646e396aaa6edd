"""Application bounds: optical resolution, quantum illumination, metrology,
and secret-key rates.

Each application reduces to channel discrimination or parameter estimation on
Choi matrices; the discrimination module supplies the generic bound machinery.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from math import ceil, exp, inf, isfinite, log, log1p, log2, sqrt

import numpy as np

from .discrimination import BoundReport, _report, bound_B_near_identity
from .linalg import DensityMatrix, _as_matrix, _check_int, _check_interval, _trusted, fidelity


# ---------------------------------------------------------------------------
# single-photon optical resolution

def resolution_chois(eta: float, s: float) -> tuple[DensityMatrix, DensityMatrix]:
    """Choi matrices of the two source-position channels.

    Space: qubit reference tensor qutrit output ordered {vacuum, 1+, 1-},
    where 1+/1- are the symmetric/antisymmetric single-photon modes. Each
    state mixes the surviving branch |Psi+-> with the photon-loss branch.
    """
    _check_interval(eta, "loss parameter", 0, 1, lo_open=True)
    _check_interval(s, "separation", 0, inf)
    delta = exp(-s * s / 8.0)
    eta_p = (1.0 + delta) * eta / 2.0
    eta_m = (1.0 - delta) * eta / 2.0
    lost = np.zeros(6, dtype=complex)
    lost[0] = 1.0  # |0>|vacuum>
    states = []
    for sign in (+1.0, -1.0):
        psi = np.zeros(6, dtype=complex)
        psi[3] = 1.0  # |1>|vacuum>
        psi[1] = sqrt(eta_p)  # |0>|1+>
        psi[2] = sign * sqrt(eta_m)  # |0>|1->
        psi /= sqrt(1.0 + eta)
        mat = (1.0 + eta) / 2.0 * np.outer(psi, psi.conj())
        mat += (1.0 - eta) / 2.0 * np.outer(lost, lost.conj())
        states.append(_trusted(DensityMatrix, mat, (2, 3)))
    return states[0], states[1]


def resolution_fidelity(eta: float, s: float) -> float:
    """Closed-form Choi fidelity 1 - eta (1 - exp(-s^2/8)) / 2."""
    _check_interval(eta, "loss parameter", 0, 1, lo_open=True)
    _check_interval(s, "separation", 0, inf)
    return 1.0 - eta * (1.0 - exp(-s * s / 8.0)) / 2.0


def resolution_bound(n: int, eta: float, s: float) -> BoundReport:
    """Adaptive error lower bound exp(-2 n s sqrt(eta)) / 4 (small-s form).

    params carry the unapproximated near-identity values, bound_B_near_identity
    for the qubit reference at the exact infidelity
    eps = eta (1 - exp(-s^2/8)) / 2: the exponential surrogate
    exp(-8 n sqrt(eps)) / 4 ('exact_value', always >= the small-s form) and
    the linear form, plus a regime flag for eps_small = eta s^2/16 <= 0.01.
    """
    _check_int(n, "count n =", 1)
    _check_interval(eta, "loss parameter", 0, 1, lo_open=True)
    _check_interval(s, "separation", 0, inf)
    raw = exp(-2.0 * n * s * sqrt(eta)) / 4.0
    eps = eta * (1.0 - exp(-s * s / 8.0)) / 2.0
    near = bound_B_near_identity(n, 2, eps)
    params = {
        "n": n,
        "eta": eta,
        "s": s,
        "epsilon": eps,
        "exact_value": near.params["surrogate"],
        "linear_value": near.value,
        "regime_ok": eta * s * s / 16.0 <= 0.01,
    }
    return _report("resolution_bound", raw, params)


# ---------------------------------------------------------------------------
# discrete-variable quantum illumination

def illumination_chois(d: int, eta: float, b: float) -> tuple[DensityMatrix, DensityMatrix]:
    """Target-absent and target-present states on (signal, idler).

    Absent: thermal signal (1-db)|0><0| + b sum_k |k><k| with a maximally
    mixed idler. Present: reflectivity-eta mixture with the maximally
    entangled single-photon state over d+1 levels.
    """
    _check_int(d, "mode count", 1)
    _check_interval(eta, "reflectivity", 0, 1)
    _check_interval(d * b, "thermal occupation d*b =", 0, 1, hi_open=True)
    D = int(d) + 1
    thermal = np.diag([1.0 - d * b] + [b] * d).astype(complex)
    sigma = np.kron(thermal, np.eye(D) / D)
    psi = np.eye(D, dtype=complex).reshape(D * D) / sqrt(D)
    rho = (1.0 - eta) * sigma + eta * np.outer(psi, psi.conj())
    return _trusted(DensityMatrix, sigma, (D, D)), _trusted(DensityMatrix, rho, (D, D))


def _illumination_fidelity_structured(d: int, eta: float, b: float) -> float:
    """Closed-form sum of the square-rooted eigenvalues of sqrt(sigma) rho sqrt(sigma).

    With x = 1 - d b, (d+1)^2 times the eigenvalues are (1-eta) b^2 on the
    d^2 + d - 1 states |k j> (k >= 1, j != k) and |k k> orthogonal to their
    uniform sum, (1-eta) x^2 on the d states |0 j>, and the pair of the
    (|00>, uniform |kk>) block, whose square roots sum to sqrt(a + c + 2 sqrt(det)).
    """
    x = 1.0 - d * b
    a = (1.0 - eta) * x * x + eta * x
    c = (1.0 - eta) * b * b + eta * d * b
    det = (1.0 - eta) * x * b * ((1.0 - eta) * x * b + eta * x * d + eta * b)
    F = sqrt(1.0 - eta) * ((d * d + d - 1) * b + d * x) + sqrt(a + c + 2.0 * sqrt(det))
    return min(F / (d + 1), 1.0)


def illumination_fidelity_exact(d: int, eta: float, b: float, method: str = "structured") -> float:
    """Fidelity of the target-absent/present pair.

    'structured' takes the O(1) closed form at every d, within 3e-16
    absolute of 50-digit mpmath for d <= 3000, eta in [0, 1], b in [0, 0.05].
    'generic' diagonalizes the (d+1)^2-dim pair; psd_sqrt zeroes sigma's
    eigenvalues b/(d+1) below TOL_PSD, which puts it up to 8e-6 off at b = 1e-9.
    """
    _check_int(d, "mode count", 1)
    _check_interval(eta, "reflectivity", 0, 1)
    _check_interval(d * b, "thermal occupation d*b =", 0, 1, hi_open=True)
    if method not in ("structured", "generic"):
        raise ValueError(f"unknown method {method!r}")
    if method == "generic":
        return fidelity(*illumination_chois(d, eta, b))
    return _illumination_fidelity_structured(d, eta, b)


def illumination_fidelity_approx(d: int, eta: float, b: float) -> float:
    """Leading-order fidelity 1 - (eta d + 2b - 2 sqrt(b^2 + eta d b)) / (2(d+1)).

    This is the first-order expansion in (eta, b) of the exact fidelity: the
    (|00>, symmetric |kk>) block of sqrt(sigma) rho sqrt(sigma) has
    determinant (1-eta) x b ((1-eta) x b + eta x d + eta b) with x = 1 - d b,
    whose square root is sqrt(b^2 + eta d b) to first order. The remainder is
    second order, and F = 1 exactly at eta = 0, where rho = sigma. The form
    with sqrt(eta d b) agrees with this one only when b << eta d.
    """
    _check_int(d, "mode count", 1)
    _check_interval(eta, "reflectivity", 0, 1)
    _check_interval(d * b, "thermal occupation d*b =", 0, 1, hi_open=True)
    return 1.0 - (eta * d + 2.0 * b - 2.0 * sqrt(b * b + eta * d * b)) / (2.0 * (d + 1))


def illumination_regime_ok(eta: float, b: float) -> bool:
    """Leading-order expansion is trustworthy only for eta, b <= 0.05."""
    return eta <= 0.05 and b <= 0.05


def illumination_bound(n: int, d: int, eta: float) -> BoundReport:
    """Adaptive error lower bound exp(-4 n d sqrt(eta)) / 4.

    Derived in the bright-idler regime b = eta d; params carry the
    separable-probe reference error exp(-n eta / (8d)) / 2, which upper-bounds
    what unentangled probes achieve.
    """
    _check_int(n, "count n =", 1)
    _check_int(d, "mode count", 1)
    _check_interval(eta, "reflectivity", 0, 1)
    raw = exp(-4.0 * n * d * sqrt(eta)) / 4.0
    separable = exp(-n * eta / (8.0 * d)) / 2.0
    params = {"n": n, "d": d, "eta": eta, "separable_upper": separable}
    return _report("illumination_bound", raw, params)


# ---------------------------------------------------------------------------
# adaptive quantum metrology

@dataclass(frozen=True)
class QfiEstimate:
    """Richardson-refined finite-difference QFI with its step diagnostics."""

    value: float
    step_sensitivity: float  # |q(h/2) - q(h)| / q(h), 0 for a constant family
    coarse: float
    fine: float


def _qfi_from_fidelities(F_coarse: float, F_fine: float, dtheta: float) -> QfiEstimate:
    """Richardson-combine the single-step QFIs 8 (1 - F) / h^2 = 4 d_B^2 / h^2.

    F_coarse and F_fine are the fidelities of the states at theta -/+ h / 2
    for h = dtheta and h = dtheta / 2.
    """
    F_coarse, F_fine = float(F_coarse), float(F_fine)
    if not (isfinite(F_coarse) and isfinite(F_fine)):
        raise ValueError("fidelity of the channel family is not finite")
    coarse = 8.0 * (1.0 - F_coarse) / dtheta**2
    fine = 8.0 * (1.0 - F_fine) / (dtheta / 2.0) ** 2
    value = (4.0 * fine - coarse) / 3.0
    sensitivity = abs(fine - coarse) / coarse if coarse > 0.0 else 0.0
    return QfiEstimate(value, sensitivity, coarse, fine)


def qfi_choi(
    choi_at, theta: float | np.ndarray, dtheta: float = 1e-3
) -> QfiEstimate | list[QfiEstimate]:
    """Quantum Fisher information of a Choi-matrix family at theta.

    Central Bures-distance differences at steps dtheta and dtheta/2 combined
    by Richardson extrapolation; the relative change between the two steps is
    reported so callers can see discretization trouble. choi_at is called at
    the four points theta -/+ h / 2 and the four states go through one
    fidelity call. theta may also be a 1-D array: choi_at then receives arrays
    of points and returns stacks, and the result is a list with one estimate
    per entry, each equal to the float-theta estimate.
    """
    _check_interval(dtheta, "step", 0, inf, lo_open=True, hi_open=True)
    if (dtheta / 2.0) ** 2 == 0.0:
        raise ValueError(f"step {dtheta} is so small that (step/2)^2 underflows to 0")
    if np.ndim(theta) > 1:
        raise ValueError(f"theta must be a float or a 1-D array, got {np.ndim(theta)} dimensions")
    fine = dtheta / 2.0
    points = (theta - dtheta / 2.0, theta + dtheta / 2.0, theta - fine / 2.0, theta + fine / 2.0)
    states = np.stack([_as_matrix(choi_at(t)) for t in points], axis=-3)
    F = fidelity(states[..., 0::2, :, :], states[..., 1::2, :, :])
    if np.ndim(theta) == 0:
        return _qfi_from_fidelities(*F, dtheta)
    return [_qfi_from_fidelities(F_coarse, F_fine, dtheta) for F_coarse, F_fine in F]


@dataclass(frozen=True)
class MetrologyBound:
    """Adaptive-protocol QFI ceiling and the matching variance floor."""

    qfi_upper: float
    variance_floor: float


def metrology_bound(n: int, qfi_choi_value: float) -> MetrologyBound:
    """QFI after n adaptive uses is at most n^2 times the Choi QFI."""
    _check_int(n, "count n =", 1)
    _check_interval(qfi_choi_value, "QFI", 0, inf, hi_open=True)
    ceiling = n * n * qfi_choi_value
    return MetrologyBound(ceiling, 1.0 / ceiling if ceiling > 0.0 else inf)


# ---------------------------------------------------------------------------
# secret-key-rate upper bounds

@dataclass(frozen=True)
class KeyRateParams:
    """Channel dimension d, Choi entanglement value e_r (bits), measure, uses.

    measure picks the (g, h) pair: 'REE' for relative entropy of
    entanglement, 'SE' for squashed entanglement. c caps the private-state
    dimension via log2(d_key) = c n; the protocol constant is not fixed by
    theory, so it stays an input. e_r is capped at log2 d, the largest REE
    and SE of a d-dimensional Choi state.
    """

    d: int
    e_r: float
    measure: str = "REE"
    n: int = 1
    epsilon: float = 0.0
    c: float = 1.0

    def __post_init__(self):
        _check_int(self.d, "dimension", 2)
        _check_interval(self.e_r, "entanglement value e_r =", 0, log2(self.d))
        if self.measure not in ("REE", "SE"):
            raise ValueError(f"unknown entanglement measure {self.measure!r}")
        _check_int(self.n, "count n =", 1)
        _check_interval(self.epsilon, "security parameter", 0, 1, hi_open=True)
        _check_interval(self.c, "dimension constant", 0, inf, lo_open=True, hi_open=True)


def binary_entropy(x: float) -> float:
    """H2(x) in bits; 0 at the endpoints."""
    _check_interval(x, "entropy argument", 0, 1)
    if x in (0.0, 1.0):
        return 0.0
    return -x * log2(x) - (1.0 - x) * log2(1.0 - x)


@dataclass(frozen=True)
class KeyRateBound:
    """Key-rate bound value; invalid (value inf) when gamma leaves [0, 1]."""

    value: float
    valid: bool
    params: dict = field(default_factory=dict)


def key_rate_bound_finite(params: KeyRateParams, M: int, delta: float) -> KeyRateBound:
    """Finite-size rate bound M e_r + [g(gamma) c n + h(gamma)] / n.

    gamma = n delta + epsilon. (g, h) = (4 gamma, 2 H2(gamma)) for REE and
    (16 sqrt(gamma), 2 H2(2 sqrt(gamma))) for SE; the bound is only defined
    while the H2 argument stays in [0, 1], flagged invalid otherwise. M must
    be an integer port count >= 2 and delta a diamond distance in [0, 2].
    """
    _check_int(M, "port count", 2)
    _check_interval(delta, "simulation error", 0, 2)
    gamma = params.n * delta + params.epsilon
    report = {"M": M, "delta": delta, "gamma": gamma, "measure": params.measure}
    h2_arg = gamma if params.measure == "REE" else 2.0 * sqrt(gamma)
    if h2_arg > 1.0:
        return KeyRateBound(inf, False, report)
    if params.measure == "REE":
        g, h = 4.0 * gamma, 2.0 * binary_entropy(gamma)
    else:
        g, h = 16.0 * sqrt(gamma), 2.0 * binary_entropy(2.0 * sqrt(gamma))
    value = M * params.e_r + (g * params.c * params.n + h) / params.n
    return KeyRateBound(value, True, report)


def key_rate_bound_asymptotic(d: int, e_r: float, M: float) -> float:
    """Asymptotic bound M e_r + (2d(d-1)/M) log2 d + f(d(d-1)/M).

    f(eps) = (1+eps) log1p(eps)/ln 2 - eps log2 eps, within 1e-15 relative of
    40-digit mpmath for e_r >= 1e-12. M may be fractional, so m_tilde can be evaluated directly.
    """
    _check_int(d, "dimension", 2)
    _check_interval(e_r, "entanglement value e_r =", 0, log2(d))
    _check_interval(M, "port count", 2, inf, hi_open=True)
    eps = d * (d - 1) / M
    f = (1.0 + eps) * log1p(eps) / log(2.0) - eps * log2(eps)
    return M * e_r + (2.0 * d * (d - 1) / M) * log2(d) + f


def m_tilde(d: int, e_r: float) -> float:
    """Near-optimal port count sqrt(2 d(d-1) log2(d) / e_r); >= 2 for every accepted e_r.

    An e_r so small that the quotient overflows to inf is rejected by name.
    """
    _check_int(d, "dimension", 2)
    _check_interval(e_r, "entanglement value e_r =", 0, log2(d))
    if e_r == 0.0:
        raise ValueError("entanglement value 0 has no finite port count")
    m = sqrt(2.0 * d * (d - 1) * log2(d) / e_r)
    if m == inf:
        raise ValueError(f"entanglement value e_r = {e_r} gives an infinite port count at d = {d}")
    return m


def key_rate_minimize_m(d: int, e_r: float) -> tuple[int, float]:
    """Smallest asymptotic bound g(M) over integer M = 2 .. max(ceil(4 m_tilde), 8).

    g is strictly convex in M: M e_r is linear, c/M convex, and h(M) = f(b/M)
    with b = d(d-1), eps = b/M has
    h'' = (b/(M^3 ln 2))(2 ln(1 + 1/eps) - 1/(1 + eps)) > 0,
    since ln(1 + 1/eps) >= 1/(1 + eps). So the integer minimum is the first M
    with g(M+1) >= g(M), which bisection finds in O(log M) calls. For
    e_r >= 1e-12 at d <= 8 this is the same (argmin, minimum) as scanning the
    whole grid for its first smallest value. Below that, g's rounding error (a
    few ulp) can exceed its change over a port near the minimum, and the two
    may pick neighbouring ports whose values tie to rounding. m_tilde rejects
    e_r = 0, which has no finite minimizer, and an e_r whose m_tilde overflows;
    an e_r whose grid ends above 2^53, where M + 1 is no longer exact, is rejected too.
    """
    scan_end = 4.0 * m_tilde(d, e_r)
    if scan_end > 2.0**53:
        raise ValueError(f"entanglement value e_r = {e_r} needs port counts above 2^53")
    end = max(ceil(scan_end), 8)
    g = partial(key_rate_bound_asymptotic, d, e_r)
    lo, hi = 2, end  # the first M with g(M+1) >= g(M), or end if none, lies in [lo, hi]
    while lo < hi:
        mid = (lo + hi) // 2
        if g(mid + 1) >= g(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo, g(lo)
