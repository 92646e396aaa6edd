"""NaN and infinite floats at every public entry.

Each float argument is checked as lo <= value <= hi, so NaN fails every
check, and an infinite value fails against a finite bound. The table holds,
per entry, one valid call and the float arguments to spoil in it; a test
keeps it in step with the float-annotated parameters of the exports.
"""

import inspect
from math import inf, nan

import pytest

import pbtbounds as P

# results the library builds, not inputs it checks
_RESULT_RECORDS = {"BoundReport", "KeyRateBound", "MetrologyBound", "QfiEstimate"}


def _ad_family(p):
    return P.choi(P.amplitude_damping(p)).state


# entry name -> (keyword arguments of a valid call, the float arguments in it)
_VALID_CALLS = {
    "amplitude_damping": (dict(p=0.3), ("p",)),
    "delta_ad": (dict(M=10, p=0.3), ("p",)),
    "ad_fidelity": (dict(p0=0.3, p1=0.4), ("p0", "p1")),
    "d_upper_fuchs": (dict(F=0.9, n=2, M=3), ("F",)),
    "bound_B_optimized": (dict(n=3, d=2, F=0.9), ("F",)),
    "bound_B_near_identity": (dict(n=3, d=2, epsilon=1e-4), ("epsilon",)),
    "ad_discrimination_sweep": (dict(p_grid=[0.3], dp=0.01, n=3, M_grid=[10]), ("p_grid", "dp")),
    "resolution_chois": (dict(eta=0.5, s=1.0), ("eta", "s")),
    "resolution_fidelity": (dict(eta=0.5, s=1.0), ("eta", "s")),
    "resolution_bound": (dict(n=3, eta=0.5, s=1.0), ("eta", "s")),
    "illumination_chois": (dict(d=2, eta=0.01, b=1e-3), ("eta", "b")),
    "illumination_fidelity_exact": (dict(d=2, eta=0.01, b=1e-3), ("eta", "b")),
    "illumination_fidelity_approx": (dict(d=2, eta=0.01, b=1e-3), ("eta", "b")),
    "illumination_bound": (dict(n=3, d=2, eta=0.01), ("eta",)),
    "qfi_choi": (dict(choi_at=_ad_family, theta=0.5, dtheta=1e-3), ("theta", "dtheta")),
    "metrology_bound": (dict(n=3, qfi_choi_value=2.0), ("qfi_choi_value",)),
    "KeyRateParams": (dict(d=2, e_r=0.01, epsilon=0.0, c=1.0), ("e_r", "epsilon", "c")),
    "binary_entropy": (dict(x=0.3), ("x",)),
    "key_rate_bound_finite": (dict(params=P.KeyRateParams(2, 0.01), M=4, delta=0.1), ("delta",)),
    "key_rate_bound_asymptotic": (dict(d=2, e_r=0.01, M=10.0), ("e_r", "M")),
    "m_tilde": (dict(d=2, e_r=0.01), ("e_r",)),
    "key_rate_minimize_m": (dict(d=2, e_r=0.01), ("e_r",)),
}
# arguments whose interval is [lo, inf]: an infinite value is accepted there
_UNBOUNDED_ABOVE = {
    (name, "s") for name in ("resolution_chois", "resolution_fidelity", "resolution_bound")
}


def _bad_calls():
    for name, (kwargs, floats) in _VALID_CALLS.items():
        for arg in floats:
            values = [nan, -inf] + ([] if (name, arg) in _UNBOUNDED_ABOVE else [inf])
            for value in values:
                bad = [value] if isinstance(kwargs[arg], list) else value
                yield pytest.param(name, dict(kwargs, **{arg: bad}), id=f"{name}-{arg}={value}")


def test_table_covers_every_float_parameter():
    annotated = set()
    for name in dir(P):
        obj = getattr(P, name)
        if name.startswith("_") or name in _RESULT_RECORDS or not callable(obj):
            continue
        params = inspect.signature(obj).parameters.items()
        annotated |= {(name, arg) for arg, p in params if "float" in str(p.annotation)}
    covered = {(name, arg) for name, (_, floats) in _VALID_CALLS.items() for arg in floats}
    assert annotated <= covered


@pytest.mark.parametrize("name", sorted(_VALID_CALLS))
def test_valid_call_is_accepted(name):
    getattr(P, name)(**_VALID_CALLS[name][0])


@pytest.mark.parametrize("name, kwargs", list(_bad_calls()))
def test_non_finite_float_is_rejected(name, kwargs):
    with pytest.raises(ValueError):
        getattr(P, name)(**kwargs)


def test_infinite_separation_keeps_its_finite_result():
    assert P.resolution_fidelity(0.5, inf) == 0.75
    assert P.resolution_bound(3, 0.5, inf).value == 0.0

