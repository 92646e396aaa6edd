"""Command-line tables for every bound in the package.

Each subcommand builds its table as rows keyed by column name, in column
order, and emits CSV (default) or schema-versioned JSON. All quantities are
closed forms or eigensolves, so output is deterministic; regime violations
surface as warning columns rather than refusals.

Exit codes: 0 success, 1 validation failure (argument parse errors included;
argparse's usage message still goes to stderr), 2 oracle mismatch, 3 I/O
failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from math import inf

import numpy as np

from . import applications as apps
from . import discrimination as disc
from . import pbt, pbt_oracle
from .channels import amplitude_damping, choi
from .linalg import _check_int, _check_interval, fidelity

OUT_DIR_ENV = "PBTBOUNDS_OUT_DIR"
JSON_SCHEMA = "pbtbounds-table/1"
# Most rows xi-table prints (rows M = 2..100001 take about 37 s on a 2-vCPU
# host); a range inside [2, pbt._MAX_PORTS] could otherwise ask for 10**10.
_MAX_ROWS = 10**5


def _fmt(value, precision: int):
    """Round-trippable cell rendering at the requested significant digits."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
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
    _check_int(steps, "steps", 1)
    _check_interval(lo, "range start", -inf, inf, lo_open=True, hi_open=True)
    _check_interval(hi, "range end", lo, inf)
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
    xis, fes = pbt._series(grid)
    deltas = pbt._DELTA_PER_XI * xis  # as pbt._simulation_errors(grid, 2), from the xi in hand
    rows = []
    for M, x, fe, delta in zip(grid, xis.tolist(), fes.tolist(), deltas.tolist()):
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
    for M, closed in zip(grid, pbt._series(grid)[0].tolist()):
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
    dtheta = args.dtheta
    # the interval qfi_choi applies, checked first so a bad step is not blamed on p
    _check_interval(dtheta, "step", 0, inf, lo_open=True, hi_open=True)
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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pbtbounds",
        description="Tables of adaptive discrimination bounds via teleportation simulation",
    )
    parser.add_argument("--out", help=f"output file (relative paths resolve under ${OUT_DIR_ENV})")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    parser.add_argument("--precision", type=int, default=12)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("xi-table", help="closed-form PBT quantities per port count")
    p.add_argument("--m-min", type=int, default=2)
    p.add_argument("--m-max", type=int, default=10)
    p.set_defaults(table=cmd_xi_table)

    p = sub.add_parser("oracle-verify", help="brute-force oracle vs closed form")
    p.add_argument("--m-max", type=int, default=6)
    p.set_defaults(table=cmd_oracle_verify)

    p = sub.add_parser("ad-sweep", help="amplitude damping discrimination bounds")
    p.add_argument("--p-min", type=float, default=0.8)
    p.add_argument("--p-max", type=float, default=0.98)
    p.add_argument("--steps", type=int, default=10)
    p.add_argument("--dp", type=float, default=0.01)
    p.add_argument("--n", type=int, default=20)
    p.add_argument("--m-list", type=_int_list, default=[10, 100, 1000])
    p.set_defaults(table=cmd_ad_sweep)

    p = sub.add_parser("resolution", help="single-photon resolution bounds")
    p.add_argument("--eta", type=float, default=0.01)
    p.add_argument("--s-min", type=float, default=0.0)
    p.add_argument("--s-max", type=float, default=1.0)
    p.add_argument("--steps", type=int, default=11)
    p.add_argument("--n", type=int, default=10)
    p.set_defaults(table=cmd_resolution)

    p = sub.add_parser("illumination", help="quantum illumination bounds")
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--b", type=float, default=1e-3)
    p.add_argument("--eta-min", type=float, default=1e-4)
    p.add_argument("--eta-max", type=float, default=1e-2)
    p.add_argument("--steps", type=int, default=10)
    p.add_argument("--n", type=int, default=10)
    p.set_defaults(table=cmd_illumination)

    p = sub.add_parser("metrology", help="amplitude damping estimation bounds")
    p.add_argument("--p-min", type=float, default=0.2)
    p.add_argument("--p-max", type=float, default=0.8)
    p.add_argument("--steps", type=int, default=7)
    p.add_argument("--n", type=int, default=10)
    p.add_argument("--dtheta", type=float, default=1e-3)
    p.set_defaults(table=cmd_metrology)

    p = sub.add_parser("keyrate", help="secret-key-rate upper bounds")
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--e-r-list", type=_float_list, default=[1e-4, 1e-3, 1e-2])
    p.add_argument("--n", type=int, default=100)
    p.add_argument("--epsilon", type=float, default=0.0)
    p.add_argument("--measure", choices=("REE", "SE"), default="REE")
    p.add_argument("--c", type=float, default=1.0)
    p.set_defaults(table=cmd_keyrate)
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
        rows = args.table(args)
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
