"""Command-line tables for every bound in the package.

Each subcommand builds its table as rows keyed by column name, in column
order, and emits CSV (default) or schema-versioned JSON. All quantities are
closed forms or eigensolves, so output is deterministic; regime violations
surface as warning columns rather than refusals.

Every subcommand is declared once in ``_COMMANDS``: help line, table function
and arguments. A call registers every name, so ``--help`` and the choice check
see them all, but only the subcommand being run gets an argparse parser.

Exit codes: 0 success, 1 validation failure (argument parse errors included;
argparse's usage message still goes to stderr), 2 oracle mismatch, 3 I/O
failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections.abc import Callable
from math import inf
from typing import NamedTuple

import numpy as np

from . import applications as apps
from . import discrimination as disc
from . import pbt, pbt_oracle
from .channels import amplitude_damping, choi
from .linalg import _check_int, _check_interval, fidelity

OUT_DIR_ENV = "PBTBOUNDS_OUT_DIR"
JSON_SCHEMA = "pbtbounds-table/1"
_DESCRIPTION = "Tables of adaptive discrimination bounds via teleportation simulation"
# Most rows a table prints (xi-table's rows M = 2..100001 take about 2 s on a
# 2-vCPU host); a range inside [2, pbt._MAX_PORTS] could otherwise ask for 10**10,
# and --steps for a grid of any length.
_MAX_ROWS = 10**5


def _fmt(value, precision: int):
    """Round-trippable cell rendering at the requested significant digits."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):  # the library's counts and port counts are Python ints
        return str(value)
    return f"{float(value):.{precision}g}"


def _render(rows: list[dict], args: argparse.Namespace) -> str:
    """Rows keyed by column name; every row has the first row's keys in its order."""
    columns = list(rows[0])
    cells = [[_fmt(v, args.precision) for v in row.values()] for row in rows]
    if args.format == "csv":
        return "\n".join(",".join(line) for line in [columns, *cells]) + "\n"
    payload = {
        "schema": JSON_SCHEMA,
        "command": args.command,
        "columns": columns,
        "rows": cells,
    }
    return json.dumps(payload, indent=2) + "\n"


def _grid(lo: float, hi: float, steps: int) -> list[float]:
    steps = _check_int(steps, "steps", 1, _MAX_ROWS)
    lo = _check_interval(lo, "range start", -inf, inf, lo_open=True, hi_open=True)
    hi = _check_interval(hi, "range end", lo, inf)
    _check_interval(hi, "range end", lo, inf, hi_open=True)  # only hi = inf is left to fail
    if steps == 1:
        return [lo]
    return [lo + (hi - lo) * i / (steps - 1) for i in range(steps)]


def cmd_xi_table(args: argparse.Namespace) -> list[dict]:
    if not 2 <= args.m_min <= args.m_max <= pbt._MAX_PORTS:  # before the range is built
        raise ValueError(
            f"need 2 <= M_min <= M_max <= {pbt._MAX_PORTS}, got [{args.m_min}, {args.m_max}]"
        )
    if args.m_max - args.m_min + 1 > _MAX_ROWS:
        raise ValueError(
            f"xi-table prints at most {_MAX_ROWS} rows, got [{args.m_min}, {args.m_max}]"
        )
    grid = range(args.m_min, args.m_max + 1)
    rows = []
    for M, x, fe in zip(grid, *pbt._series(grid)):
        delta = pbt._DELTA_PER_XI * x  # as pbt._simulation_errors(grid, 2), from the xi in hand
        rows.append({
            "M": M, "xi": x, "f_e": fe, "delta": delta, "delta_upper": pbt.delta_upper(M, 2),
            "M_xi": M * x, "identity_ok": abs(fe + delta / 2 - 1) < 1e-10,
        })
    return rows


def cmd_oracle_verify(args: argparse.Namespace) -> list[dict]:
    if not 2 <= args.m_max <= pbt_oracle.M_MAX:
        raise ValueError(f"M_max {args.m_max} outside [2, {pbt_oracle.M_MAX}]")
    grid = range(2, args.m_max + 1)
    rows = []
    for M, closed in zip(grid, pbt._series(grid)[0]):
        J = pbt_oracle.oracle_channel_choi(M).matrix
        oracle = pbt_oracle._isotropic_fit(J)
        rows.append({
            "M": M, "xi_closed": closed, "xi_oracle": oracle, "abs_diff": abs(closed - oracle),
            "isotropy_residual": float(np.abs(J - pbt.pbt_choi_qubit(M).matrix).max()),
        })
    return rows


def cmd_ad_sweep(args: argparse.Namespace) -> list[dict]:
    p_grid = _grid(args.p_min, args.p_max, args.steps)
    return disc.ad_discrimination_sweep(p_grid, args.dp, args.n, args.m_list)


def cmd_resolution(args: argparse.Namespace) -> list[dict]:
    rows = []
    for s in _grid(args.s_min, args.s_max, args.steps):
        r0, r1 = apps.resolution_chois(args.eta, s)
        report = apps.resolution_bound(args.n, args.eta, s)
        rows.append({
            "s": s, "F_closed": apps.resolution_fidelity(args.eta, s), "F_choi": fidelity(r0, r1),
            "bound_small_s": report.value, "bound_exact_eps": report.params["exact_value"],
            "bound_linear": report.params["linear_value"], "regime_ok": report.params["regime_ok"],
        })
    return rows


def cmd_illumination(args: argparse.Namespace) -> list[dict]:
    d, b = args.d, args.b
    rows = []
    for eta in _grid(args.eta_min, args.eta_max, args.steps):
        report = apps.illumination_bound(args.n, d, eta)
        rows.append({
            "eta": eta,
            "F_exact": apps.illumination_fidelity_exact(d, eta, b),
            "F_approx": apps.illumination_fidelity_approx(d, eta, b),
            "approx_regime_ok": apps.illumination_regime_ok(eta, b),
            "bound_lower": report.value,
            "separable_upper": report.params["separable_upper"],
        })
    return rows


def cmd_metrology(args: argparse.Namespace) -> list[dict]:
    grid = _grid(args.p_min, args.p_max, args.steps)
    # the interval qfi_choi applies, checked first so a bad step is not blamed on p
    dtheta = _check_interval(args.dtheta, "step", 0, inf, lo_open=True, hi_open=True)
    for p in grid:
        if not dtheta / 2 < p < 1 - dtheta / 2:
            raise ValueError(f"p={p} leaves no room for the finite-difference step")
    # the whole grid at once: each damping family call builds one stack of Choi states
    estimates = apps.qfi_choi(lambda t: choi(amplitude_damping(t)), np.array(grid), dtheta)
    rows = []
    for p, est in zip(grid, estimates):
        bound = apps.metrology_bound(args.n, est.value)
        rows.append({
            "p": p, "qfi": est.value, "step_sensitivity": est.step_sensitivity,
            "qfi_bound": bound.qfi_upper, "variance_floor": bound.variance_floor,
            "step_ok": est.step_sensitivity < 0.01,
        })
    return rows


def cmd_keyrate(args: argparse.Namespace) -> list[dict]:
    if not args.e_r_list:
        raise ValueError("parameter grids must be nonempty")
    d = args.d
    rows = []
    for e_r in args.e_r_list:
        mt = apps.m_tilde(d, e_r)
        argmin, k_min = apps.key_rate_minimize_m(d, e_r)
        params = apps.KeyRateParams(
            d=d, e_r=e_r, measure=args.measure, n=args.n, epsilon=args.epsilon, c=args.c
        )
        delta, _ = pbt.simulation_error(argmin, d)
        finite = apps.key_rate_bound_finite(params, argmin, delta)
        rows.append({
            "e_r": e_r, "m_tilde": mt, "K_at_m_tilde": apps.key_rate_bound_asymptotic(d, e_r, mt),
            "argmin_M": argmin, "K_min": k_min, "finite_R": finite.value,
            "finite_valid": finite.valid,
        })
    return rows


def _int_list(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",") if tok]


def _float_list(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",") if tok]


class _Command(NamedTuple):
    help: str
    table: Callable[[argparse.Namespace], list[dict]]
    arguments: tuple[tuple[str, dict], ...]  # (flag, add_argument keywords)


_OPTIONS = (
    ("--out", dict(help=f"output file (relative paths resolve under ${OUT_DIR_ENV})")),
    ("--format", dict(choices=("csv", "json"), default="csv")),
    ("--precision", dict(type=int, default=12)),
)

_COMMANDS = {
    "xi-table": _Command("closed-form PBT quantities per port count", cmd_xi_table, (
        ("--m-min", dict(type=int, default=2)),
        ("--m-max", dict(type=int, default=10)),
    )),
    "oracle-verify": _Command("brute-force oracle vs closed form", cmd_oracle_verify, (
        ("--m-max", dict(type=int, default=6)),
    )),
    "ad-sweep": _Command("amplitude damping discrimination bounds", cmd_ad_sweep, (
        ("--p-min", dict(type=float, default=0.8)),
        ("--p-max", dict(type=float, default=0.98)),
        ("--steps", dict(type=int, default=10)),
        ("--dp", dict(type=float, default=0.01)),
        ("--n", dict(type=int, default=20)),
        ("--m-list", dict(type=_int_list, default=[10, 100, 1000])),
    )),
    "resolution": _Command("single-photon resolution bounds", cmd_resolution, (
        ("--eta", dict(type=float, default=0.01)),
        ("--s-min", dict(type=float, default=0.0)),
        ("--s-max", dict(type=float, default=1.0)),
        ("--steps", dict(type=int, default=11)),
        ("--n", dict(type=int, default=10)),
    )),
    "illumination": _Command("quantum illumination bounds", cmd_illumination, (
        ("--d", dict(type=int, default=2)),
        ("--b", dict(type=float, default=1e-3)),
        ("--eta-min", dict(type=float, default=1e-4)),
        ("--eta-max", dict(type=float, default=1e-2)),
        ("--steps", dict(type=int, default=10)),
        ("--n", dict(type=int, default=10)),
    )),
    "metrology": _Command("amplitude damping estimation bounds", cmd_metrology, (
        ("--p-min", dict(type=float, default=0.2)),
        ("--p-max", dict(type=float, default=0.8)),
        ("--steps", dict(type=int, default=7)),
        ("--n", dict(type=int, default=10)),
        ("--dtheta", dict(type=float, default=1e-3)),
    )),
    "keyrate": _Command("secret-key-rate upper bounds", cmd_keyrate, (
        ("--d", dict(type=int, default=2)),
        ("--e-r-list", dict(type=_float_list, default=[1e-4, 1e-3, 1e-2])),
        ("--n", dict(type=int, default=100)),
        ("--epsilon", dict(type=float, default=0.0)),
        ("--measure", dict(choices=("REE", "SE"), default="REE")),
        ("--c", dict(type=float, default=1.0)),
    )),
}


def _with_arguments(parser: argparse.ArgumentParser, arguments: tuple) -> argparse.ArgumentParser:
    for flag, keywords in arguments:
        parser.add_argument(flag, **keywords)
    return parser


class _DeferredParser:
    """A subcommand's parser, built only when argparse hands it that subcommand's arguments.

    ``parse_known_args`` is the one call argparse's subparsers action makes on
    a subparser; the name, help line and choice check live on the action.
    """

    def __init__(self, arguments: tuple, **keywords):  # keywords: prog, from add_parser
        self._arguments = arguments
        self._keywords = keywords

    def parse_known_args(self, args=None, namespace=None):
        parser = _with_arguments(argparse.ArgumentParser(**self._keywords), self._arguments)
        return parser.parse_known_args(args, namespace)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pbtbounds", description=_DESCRIPTION)
    _with_arguments(parser, _OPTIONS)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_DeferredParser)
    for name, command in _COMMANDS.items():
        sub.add_parser(name, help=command.help, arguments=command.arguments)
    return parser


def _resolve_out(path: str) -> str:
    if os.path.isabs(path):
        return path
    return os.path.join(os.environ.get(OUT_DIR_ENV, "."), path)


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on a parse error, 0 after --help
        return 1 if exc.code else 0
    try:
        if not 1 <= args.precision <= 17:
            raise ValueError(f"precision {args.precision} outside [1, 17]")
        rows = _COMMANDS[args.command].table(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    text = _render(rows, args)
    if args.out:
        try:
            with open(_resolve_out(args.out), "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 3
    else:
        sys.stdout.write(text)
    if args.command == "oracle-verify" and any(row["abs_diff"] > 1e-9 for row in rows):
        print("error: oracle disagrees with the closed form", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
