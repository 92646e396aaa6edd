"""Scalar arguments at every public entry: NaN, infinities, numpy scalars, oversized ints.

Each float argument is checked as lo <= value <= hi, so NaN fails every
check, and an infinite value fails against a finite bound. A checked scalar
is used as the Python int or float it equals, so a numpy scalar gives the
result of that Python number, and an integer above 2**53 is rejected. Two
tables hold, per entry, one valid call and the float (or int) arguments to
vary in it; a test keeps each in step with the annotated parameters of the exports.
"""

import dataclasses
import inspect
import time
from math import inf, nan

import numpy as np
import pytest

import pbtbounds as P

# results the library builds, not inputs it checks
_RESULT_RECORDS = {"BoundReport", "MetrologyBound", "QfiEstimate"}


def _ad_family(p):
    return P.choi(P.amplitude_damping(p)).state


# entry name -> (keyword arguments of a valid call, the float arguments in it)
_VALID_CALLS = {
    "amplitude_damping": (dict(p=0.3), ("p",)),
    "delta_ad": (dict(M=10, p=0.3), ("p",)),
    "ad_fidelity": (dict(p0=0.3, p1=0.4), ("p0", "p1")),
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


# entry name -> (keyword arguments of a valid call, the int arguments in it). Values
# that wrap in uint8 arithmetic (200, 255) go only to closed forms; a function
# that forms matrices gets a small dimension (illumination_chois at d = 255 would need 64 GiB).
_AD = P.amplitude_damping(0.3)
_INT_CALLS = {
    "DensityMatrix": (dict(matrix=np.eye(4) / 4, dims=(2, 2)), ("dims",)),
    "KeyRateParams": (dict(d=200, e_r=0.01, n=200), ("d", "n")),
    "KrausChannel": (dict(kraus_ops=_AD.kraus_ops, d_in=2, d_out=2), ("d_in", "d_out")),
    "ad_discrimination_sweep": (dict(p_grid=[0.3], dp=0.01, n=200, M_grid=[10, 200]), ("n", "M_grid")),
    "bound_B_near_identity": (dict(n=200, d=200, epsilon=1e-9), ("n", "d")),
    "bound_B_optimized": (dict(n=200, d=2, F=0.9999), ("n", "d")),
    "default_m_grid": (dict(n=200, d=2), ("n", "d")),
    "delta_ad": (dict(M=200, p=0.3), ("M",)),
    "delta_upper": (dict(M=255, d=200), ("M", "d")),
    "entanglement_fidelity_qubit": (dict(M=255), ("M",)),
    "illumination_bound": (dict(n=200, d=20, eta=0.5), ("n", "d")),
    "illumination_chois": (dict(d=3, eta=0.01, b=1e-3), ("d",)),
    "illumination_fidelity_approx": (dict(d=255, eta=0.5, b=1e-3), ("d",)),
    "illumination_fidelity_exact": (dict(d=255, eta=0.5, b=1e-3), ("d",)),
    "key_rate_bound_asymptotic": (dict(d=200, e_r=0.01, M=10.0), ("d",)),
    "key_rate_bound_finite": (dict(params=P.KeyRateParams(2, 0.01), M=200, delta=1e-4), ("M",)),
    "key_rate_minimize_m": (dict(d=200, e_r=0.01), ("d",)),
    "m_tilde": (dict(d=200, e_r=0.01), ("d",)),
    "metrology_bound": (dict(n=200, qfi_choi_value=1.0), ("n",)),
    "oracle_channel_choi": (dict(M=3), ("M",)),
    "oracle_xi": (dict(M=3), ("M",)),
    "pbt_choi_qubit": (dict(M=200), ("M",)),
    "resolution_bound": (dict(n=200, eta=0.5, s=1.0), ("n",)),
    "simulate_channel_choi": (dict(ch=_AD, M=200), ("M",)),
    "simulation_error": (dict(M=200, d=200), ("M", "d")),
    "xi": (dict(M=255), ("M",)),
}


def _annotated(kind: str) -> set[tuple[str, str]]:
    """(export, parameter) for every parameter whose annotation names kind."""
    annotated = set()
    for name in dir(P):
        obj = getattr(P, name)
        if name.startswith("_") or name in _RESULT_RECORDS or not callable(obj):
            continue
        params = inspect.signature(obj).parameters.items()
        annotated |= {(name, arg) for arg, p in params if kind in str(p.annotation)}
    return annotated


def _entries(table) -> list[tuple[str, str]]:
    return [(name, arg) for name, (_, args) in table.items() for arg in args]


def _each(convert, value):
    """convert(value), or convert applied to each member of a list or tuple argument."""
    return type(value)(map(convert, value)) if isinstance(value, (list, tuple)) else convert(value)


def _call_with(table, name, arg, value):
    kwargs = table[name][0]
    return getattr(P, name)(**dict(kwargs, **{arg: _each(lambda _: value, kwargs[arg])}))


def _assert_same(got, want):
    """Equal, and of the same type all the way down (records, containers, arrays)."""
    assert type(got) is type(want)
    if isinstance(want, np.ndarray):
        assert got.dtype == want.dtype and np.array_equal(got, want)
    elif dataclasses.is_dataclass(want):
        for f in dataclasses.fields(want):
            _assert_same(getattr(got, f.name), getattr(want, f.name))
    elif isinstance(want, (list, tuple)):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            _assert_same(g, w)
    elif isinstance(want, dict):
        assert list(got) == list(want)
        for key in want:
            _assert_same(got[key], want[key])
    else:
        assert got == want


def _bad_calls():
    for name, (kwargs, floats) in _VALID_CALLS.items():
        for arg in floats:
            values = [nan, -inf] + ([] if (name, arg) in _UNBOUNDED_ABOVE else [inf])
            for value in values:
                bad = [value] if isinstance(kwargs[arg], list) else value
                yield pytest.param(name, dict(kwargs, **{arg: bad}), id=f"{name}-{arg}={value}")


def test_table_covers_every_float_parameter():
    assert _annotated("float") <= set(_entries(_VALID_CALLS))


def test_table_covers_every_int_parameter():
    assert _annotated("int") <= set(_entries(_INT_CALLS))


@pytest.mark.parametrize("name", sorted(_VALID_CALLS))
def test_valid_call_is_accepted(name):
    getattr(P, name)(**_VALID_CALLS[name][0])


@pytest.mark.parametrize("name, kwargs", list(_bad_calls()))
def test_non_finite_float_is_rejected(name, kwargs):
    with pytest.raises(ValueError):
        getattr(P, name)(**kwargs)


@pytest.mark.parametrize("e_r", [1e-300, 5e-324])
def test_tiny_entanglement_value_is_rejected(e_r):
    # its port grid would end above 2^53 (at 5e-324, m_tilde itself rejects it:
    # the port count overflows to inf)
    start = time.perf_counter()
    with pytest.raises(ValueError, match=f"e_r = {e_r}"):
        P.key_rate_minimize_m(2, e_r)
    assert time.perf_counter() - start < 1.0


def test_infinite_separation_keeps_its_finite_result():
    assert P.resolution_fidelity(0.5, inf) == 0.75
    assert P.resolution_bound(3, 0.5, inf).value == 0.0


def test_float_channel_dimensions_are_named():
    # a float dimension passes the shape comparison, so it is checked first
    ops = P.amplitude_damping(0.3).kraus_ops
    with pytest.raises(ValueError, match=r"^input dimension 2\.0 must be an integer >= 1$"):
        P.KrausChannel(ops, 2.0, 2)
    with pytest.raises(ValueError, match=r"^output dimension 2\.0 must be an integer >= 1$"):
        P.KrausChannel(ops, 2, 2.0)


@pytest.mark.parametrize("name, arg", _entries(_VALID_CALLS))
def test_float32_gives_the_float_result(name, arg):
    # every formula sees the Python float the check returns, not float32 arithmetic
    kwargs = _VALID_CALLS[name][0]
    single = _each(np.float32, kwargs[arg])
    got = getattr(P, name)(**dict(kwargs, **{arg: single}))
    want = getattr(P, name)(**dict(kwargs, **{arg: _each(float, single)}))
    _assert_same(got, want)


@pytest.mark.parametrize("dtype", [np.uint8, np.int32, np.int64])
@pytest.mark.parametrize("name, arg", _entries(_INT_CALLS))
def test_numpy_integer_gives_the_python_int_result(name, arg, dtype):
    kwargs = _INT_CALLS[name][0]
    got = getattr(P, name)(**dict(kwargs, **{arg: _each(dtype, kwargs[arg])}))
    _assert_same(got, getattr(P, name)(**kwargs))


def test_wrapping_numpy_integers_give_the_python_numbers():
    # each of these took numpy's fixed-width arithmetic once and was silently wrong
    assert P.metrology_bound(np.uint8(200), 1.0).qfi_upper == 40000.0
    assert P.metrology_bound(np.int64(2**32), 1.0).qfi_upper == 2.0**64
    assert P.illumination_fidelity_exact(np.uint8(255), 0.5, 1e-3) == 0.7092419863750427
    separable = P.illumination_bound(np.uint8(200), np.uint8(20), 0.5).params["separable_upper"]
    assert separable == P.illumination_bound(200, 20, 0.5).params["separable_upper"] <= 0.5
    assert P.bound_B_optimized(np.uint8(200), 2, 0.9999).params["M"] == 3200
    assert P.ad_discrimination_sweep([0.3], 0.01, np.uint8(200), [10])[0]["argmax_M"] == 3200
    assert max(P.default_m_grid(np.uint8(200), np.uint8(2))) == 3200
    assert P.oracle_xi(np.uint8(3)) == P.oracle_xi(3)
    assert type(P.resolution_fidelity(np.float32(0.01), 0.5)) is float
    assert type(P.delta_ad(10, np.float32(0.3))) is float
    assert type(P.oracle_xi(3)) is type(P.xi(3)) is float


@pytest.mark.parametrize("value", [2**53 + 1, pytest.param(10**400, id="10**400")])
@pytest.mark.parametrize("name, arg", _entries(_INT_CALLS))
def test_integer_above_2_53_is_rejected(name, arg, value):
    # a ValueError naming the argument, never an OverflowError from a formula
    with pytest.raises(ValueError, match="must be an integer in|above 2\\*\\*53"):
        _call_with(_INT_CALLS, name, arg, value)


def test_integer_at_2_53_is_accepted():
    assert P.metrology_bound(2**53, 1.0).qfi_upper == 2.0**106
    assert P.KeyRateParams(2**53, 1.0, n=2**53).n == 2**53


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("name, arg", _entries(_VALID_CALLS))
def test_int_beyond_the_float_range_counts_as_infinite(name, arg, sign):
    # float() of 10**400 overflows; the check takes it as inf instead, so it is
    # rejected where inf is (a damping separation of inf passes its own check
    # and then puts p + dp above 1), and gives the inf result where inf is accepted
    if sign > 0 and (name, arg) in _UNBOUNDED_ABOVE:
        _assert_same(_call_with(_VALID_CALLS, name, arg, 10**400), _call_with(_VALID_CALLS, name, arg, inf))
    else:
        with pytest.raises(ValueError, match="outside|exceeds 1"):
            _call_with(_VALID_CALLS, name, arg, sign * 10**400)


@pytest.mark.parametrize("text", ["0.3", b"0.3", bytearray(b"0.3")], ids=["str", "bytes", "bytearray"])
def test_text_is_not_parsed_as_a_number(text):
    with pytest.raises(TypeError, match="entropy argument"):
        P.binary_entropy(text)
