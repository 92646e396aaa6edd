"""Command-line tables for every bound in the package.

Subcommands emit CSV (default) or schema-versioned JSON. All quantities are
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

import numpy as np

from . import applications as apps
from . import discrimination as disc
from . import pbt, pbt_oracle
from .channels import amplitude_damping, choi
from .linalg import fidelity

OUT_DIR_ENV = "PBTBOUNDS_OUT_DIR"
JSON_SCHEMA = "pbtbounds-table/1"


def _fmt(value, precision: int):
    """Round-trippable cell rendering at the requested significant digits."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.{precision}g}"


def _render(columns: list[str], rows: list[list], args: argparse.Namespace) -> str:
    if args.format == "csv":
        lines = [",".join(columns)]
        for row in rows:
            lines.append(",".join(_fmt(v, args.precision) for v in row))
        return "\n".join(lines) + "\n"
    payload = {
        "schema": JSON_SCHEMA,
        "command": args.command,
        "columns": columns,
        "rows": [[_fmt(v, args.precision) for v in row] for row in rows],
    }
    return json.dumps(payload, indent=2) + "\n"


def _grid(lo: float, hi: float, steps: int) -> list[float]:
    if steps < 1:
        raise ValueError(f"steps {steps} must be >= 1")
    if hi < lo:
        raise ValueError(f"empty range [{lo}, {hi}]")
    if steps == 1:
        return [lo]
    return [lo + (hi - lo) * i / (steps - 1) for i in range(steps)]


def cmd_xi_table(M_min: int, M_max: int) -> tuple[list[str], list[list]]:
    if not 2 <= M_min <= M_max:
        raise ValueError(f"need 2 <= M_min <= M_max, got [{M_min}, {M_max}]")
    columns = ["M", "xi", "f_e", "delta", "delta_upper", "M_xi", "identity_ok"]
    rows = []
    for M in range(M_min, M_max + 1):
        x = pbt.xi(M)
        fe = pbt.entanglement_fidelity_qubit(M)
        delta = pbt.delta_exact_qubit(M)
        rows.append(
            [M, x, fe, delta, pbt.delta_upper(M, 2), M * x, abs(fe + delta / 2 - 1) < 1e-10]
        )
    return columns, rows


def cmd_oracle_verify(M_max: int) -> tuple[list[str], list[list]]:
    if not 2 <= M_max <= pbt_oracle.M_MAX:
        raise ValueError(f"M_max {M_max} outside [2, {pbt_oracle.M_MAX}]")
    columns = ["M", "xi_closed", "xi_oracle", "abs_diff", "isotropy_residual"]
    rows = []
    for M in range(2, M_max + 1):
        closed = pbt.xi(M)
        J = pbt_oracle.oracle_channel_choi(M).matrix
        oracle = pbt_oracle._isotropic_fit(J)
        residual = float(np.abs(J - pbt.pbt_choi_qubit(M).matrix).max())
        rows.append([M, closed, oracle, abs(closed - oracle), residual])
    return columns, rows


def cmd_ad_sweep(
    p0_min: float, p0_max: float, steps: int, dp: float, n: int, M_list: list[int]
) -> tuple[list[str], list[list]]:
    p_grid = _grid(p0_min, p0_max, steps)
    table = disc.ad_discrimination_sweep(p_grid, dp, n, M_list)
    columns = ["p", "block_lower", "block_upper"]
    columns += [f"lb_M{M}" for M in M_list] + ["lb_optimized", "argmax_M"]
    return columns, [[row[c] for c in columns] for row in table]


def cmd_resolution(eta: float, s_min: float, s_max: float, steps: int, n: int):
    s_grid = _grid(s_min, s_max, steps)
    columns = [
        "s", "F_closed", "F_choi", "bound_small_s", "bound_exact_eps",
        "bound_linear", "regime_ok",
    ]
    rows = []
    for s in s_grid:
        closed = apps.resolution_fidelity(eta, s)
        r0, r1 = apps.resolution_chois(eta, s)
        report = apps.resolution_bound(n, eta, s)
        rows.append(
            [
                s, closed, fidelity(r0, r1), report.value,
                report.params["exact_value"], report.params["linear_value"],
                report.params["regime_ok"],
            ]
        )
    return columns, rows


def cmd_illumination(d: int, b: float, eta_min: float, eta_max: float, steps: int, n: int):
    columns = [
        "eta", "F_exact", "F_approx", "approx_regime_ok", "bound_lower",
        "separable_upper",
    ]
    rows = []
    for eta in _grid(eta_min, eta_max, steps):
        report = apps.illumination_bound(n, d, eta)
        rows.append(
            [
                eta,
                apps.illumination_fidelity_exact(d, eta, b),
                apps.illumination_fidelity_approx(d, eta, b),
                apps.illumination_regime_ok(d, eta, b),
                report.value,
                report.params["separable_upper"],
            ]
        )
    return columns, rows


def cmd_metrology(p_min: float, p_max: float, steps: int, n: int, dtheta: float):
    columns = ["p", "qfi", "step_sensitivity", "qfi_bound", "variance_floor", "step_ok"]
    rows = []
    for p in _grid(p_min, p_max, steps):
        if not dtheta / 2 < p < 1 - dtheta / 2:
            raise ValueError(f"p={p} leaves no room for the finite-difference step")
        est = apps.qfi_choi(lambda t: choi(amplitude_damping(t)), p, dtheta)
        bound = apps.metrology_bound(n, est.value)
        rows.append(
            [p, est.value, est.step_sensitivity, bound.qfi_upper, bound.variance_floor,
             est.step_sensitivity < 0.01]
        )
    return columns, rows


def cmd_keyrate(d: int, e_r_list: list[float], n: int, epsilon: float, measure: str, c: float):
    columns = [
        "e_r", "m_tilde", "K_at_m_tilde", "argmin_M", "K_min", "finite_R", "finite_valid",
    ]
    rows = []
    for e_r in e_r_list:
        mt = apps.m_tilde(d, e_r)
        argmin, k_min = apps.key_rate_minimize_m(d, e_r)
        params = apps.KeyRateParams(d=d, e_r=e_r, measure=measure, n=n, epsilon=epsilon, c=c)
        delta, _ = pbt.simulation_error(argmin, d)
        finite = apps.key_rate_bound_finite(params, argmin, delta)
        rows.append(
            [e_r, mt, apps.key_rate_bound_asymptotic(d, e_r, mt), argmin, k_min,
             finite.value, finite.valid]
        )
    return columns, rows


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
    p.set_defaults(table=lambda a: cmd_xi_table(a.m_min, a.m_max))

    p = sub.add_parser("oracle-verify", help="brute-force oracle vs closed form")
    p.add_argument("--m-max", type=int, default=6)
    p.set_defaults(table=lambda a: cmd_oracle_verify(a.m_max))

    p = sub.add_parser("ad-sweep", help="amplitude damping discrimination bounds")
    p.add_argument("--p-min", type=float, default=0.8)
    p.add_argument("--p-max", type=float, default=0.98)
    p.add_argument("--steps", type=int, default=10)
    p.add_argument("--dp", type=float, default=0.01)
    p.add_argument("--n", type=int, default=20)
    p.add_argument("--m-list", type=_int_list, default=[10, 100, 1000])
    p.set_defaults(
        table=lambda a: cmd_ad_sweep(a.p_min, a.p_max, a.steps, a.dp, a.n, a.m_list)
    )

    p = sub.add_parser("resolution", help="single-photon resolution bounds")
    p.add_argument("--eta", type=float, default=0.01)
    p.add_argument("--s-min", type=float, default=0.0)
    p.add_argument("--s-max", type=float, default=1.0)
    p.add_argument("--steps", type=int, default=11)
    p.add_argument("--n", type=int, default=10)
    p.set_defaults(table=lambda a: cmd_resolution(a.eta, a.s_min, a.s_max, a.steps, a.n))

    p = sub.add_parser("illumination", help="quantum illumination bounds")
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--b", type=float, default=1e-3)
    p.add_argument("--eta-min", type=float, default=1e-4)
    p.add_argument("--eta-max", type=float, default=1e-2)
    p.add_argument("--steps", type=int, default=10)
    p.add_argument("--n", type=int, default=10)
    p.set_defaults(
        table=lambda a: cmd_illumination(a.d, a.b, a.eta_min, a.eta_max, a.steps, a.n)
    )

    p = sub.add_parser("metrology", help="amplitude damping estimation bounds")
    p.add_argument("--p-min", type=float, default=0.2)
    p.add_argument("--p-max", type=float, default=0.8)
    p.add_argument("--steps", type=int, default=7)
    p.add_argument("--n", type=int, default=10)
    p.add_argument("--dtheta", type=float, default=1e-3)
    p.set_defaults(table=lambda a: cmd_metrology(a.p_min, a.p_max, a.steps, a.n, a.dtheta))

    p = sub.add_parser("keyrate", help="secret-key-rate upper bounds")
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--e-r-list", type=_float_list, default=[1e-4, 1e-3, 1e-2])
    p.add_argument("--n", type=int, default=100)
    p.add_argument("--epsilon", type=float, default=0.0)
    p.add_argument("--measure", choices=("REE", "SE"), default="REE")
    p.add_argument("--c", type=float, default=1.0)
    p.set_defaults(
        table=lambda a: cmd_keyrate(a.d, a.e_r_list, a.n, a.epsilon, a.measure, a.c)
    )
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
        columns, rows = args.table(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    text = _render(columns, rows, args)
    if args.out:
        try:
            with open(_resolve_out(args.out), "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 3
    else:
        sys.stdout.write(text)
    if args.command == "oracle-verify":
        diffs = [row[3] for row in rows]
        if any(diff > 1e-9 for diff in diffs):
            print("error: oracle disagrees with the closed form", file=sys.stderr)
            return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
