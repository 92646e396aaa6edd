"""Correctness gates: every op output against an independent reference.

References are computed once per run, before any pass is timed. Each gate
returns (passed, worst relative error against a reference, reason). Gates
that are structural (a bound lies in [0, 0.5], a maximum dominates its
columns) add no relative error.

Tolerances:
- TOL_REL: closed-form PBT quantities against the 40-digit mpmath series and
  the f_e + delta/2 = 1 identity (the library's own TOL_NUM).
- TOL_ORACLE: oracle xi and isotropy residual, the oracle's own contract.
- TOL_FIDELITY: structured vs generic illumination fidelity, and the closed
  vs eigensolved resolution fidelity.
- TOL_QFI: Richardson finite-difference QFI against the analytic Choi QFI of
  amplitude damping, 1/(p(2-p)) + 1/(2(1-p)(2-p)).

The leading-order illumination fidelity F_approx is not gated: its first-order
defect is known and tracked separately.
"""

from __future__ import annotations

import sys
from math import ceil, exp, log2, sqrt
from pathlib import Path

from refs import delta_ad_ref, xi_ref

SRC = Path(__file__).resolve().parent.parent / "src"

TOL_REL = 1e-8
TOL_ORACLE = 1e-9
TOL_FIDELITY = 1e-9
TOL_QFI = 1e-6


class Gate:
    """Collects comparisons for one op; the op fails on the first bad one."""

    def __init__(self):
        self.rel_err = 0.0
        self.reasons: list[str] = []

    def close(self, what: str, value: float, ref: float, tol: float, absolute: bool = False) -> None:
        err = abs(value - ref)
        rel = err / abs(ref) if ref != 0.0 else err
        self.rel_err = max(self.rel_err, rel)
        if (err if absolute else rel) > tol:
            kind = "abs" if absolute else "rel"
            self.reasons.append(f"{what}: {value!r} vs reference {ref!r} ({kind} err {err if absolute else rel:.3g} > {tol})")

    def require(self, what: str, ok: bool) -> None:
        if not ok:
            self.reasons.append(what)

    def in_bound_range(self, what: str, value: float) -> None:
        self.require(f"{what} = {value!r} outside [0, 0.5]", 0.0 <= value <= 0.5)


# ---------------------------------------------------------------------------
# references


def _grid(lo: float, hi: float, steps: int) -> list[float]:
    """The CLI's linear parameter grid."""
    if steps == 1:
        return [lo]
    return [lo + (hi - lo) * i / (steps - 1) for i in range(steps)]


def _argv_value(argv: list[str], flag: str, default):
    return type(default)(argv[argv.index(flag) + 1]) if flag in argv else default


def _default_m_grid(n: int, d: int) -> list[int]:
    grid = set(range(2, 65)) | {round(x * d * (d - 1) * n) for x in (2, 3, 4, 6, 8)}
    return sorted(grid)


def _fuchs(F: float, n: int, M: int) -> float:
    return sqrt(max(1.0 - F ** (2.0 * n * M), 0.0))


def _bound_optimized_ref(n: int, d: int, F: float) -> float:
    best = None
    for M in _default_m_grid(n, d):
        delta = min(1.5 * xi_ref(M) if d == 2 else 2.0 * d * (d - 1) / M, 2.0)
        raw = (1.0 - n * delta - _fuchs(F, n, M)) / 2.0
        best = raw if best is None else max(best, raw)
    return min(max(best, 0.0), 0.5)


def _ad_fidelity(p0: float, p1: float) -> float:
    return (1.0 + sqrt((1.0 - p0) * (1.0 - p1)) + sqrt(p0 * p1)) / 2.0


def _qfi_ad(p: float) -> float:
    """Choi QFI of amplitude damping: a pure rank-one branch of weight (2-p)/2 plus |10>."""
    return 1.0 / (p * (2.0 - p)) + 1.0 / (2.0 * (1.0 - p) * (2.0 - p))


def _keyrate_asymptotic(d: int, e_r: float, M: float) -> float:
    eps = d * (d - 1) / M
    f = (1.0 + eps) * log2(1.0 + eps) - eps * log2(eps)
    return M * e_r + (2.0 * d * (d - 1) / M) * log2(d) + f


def references(ops: list[dict]) -> dict:
    """Reference values keyed by op id."""
    refs = {}
    for op in ops:
        oid = op["id"]
        if op["kind"] == "diamond_ad":
            refs[oid] = delta_ad_ref(op["M"], op["p"])
        elif op["kind"] == "call":
            fn, args = op["fn"], op["args"]
            if fn in ("pbt.xi", "pbt_oracle.oracle_xi", "pbt_oracle.oracle_channel_choi"):
                refs[oid] = xi_ref(args[0])
            elif fn == "pbt.entanglement_fidelity_qubit":
                refs[oid] = 1.0 - 0.75 * xi_ref(args[0])  # f_e = 1 - delta/2, delta = 3 xi / 2
            elif fn == "pbt.delta_ad":
                refs[oid] = delta_ad_ref(*args)
            elif fn == "discrimination.bound_B_optimized":
                refs[oid] = _bound_optimized_ref(args[0], args[1], op["kwargs"]["F"])
        elif op["kind"] == "cli":
            refs[oid] = _cli_references(op["argv"])
    return refs


def _cli_references(argv: list[str]) -> dict:
    cmd = argv[0]
    if cmd == "xi-table":
        return {M: xi_ref(M) for M in range(2, _argv_value(argv, "--m-max", 10) + 1)}
    if cmd == "oracle-verify":
        return {M: xi_ref(M) for M in range(2, _argv_value(argv, "--m-max", 6) + 1)}
    if cmd == "ad-sweep":
        p_grid = _grid(_argv_value(argv, "--p-min", 0.8), _argv_value(argv, "--p-max", 0.98),
                       _argv_value(argv, "--steps", 10))
        n, dp = 20, 0.01
        rows = []
        for p in p_grid:
            F = _ad_fidelity(p, p + dp)
            row = {}
            for M in (10, 100, 1000):
                delta_bar = (delta_ad_ref(M, p) + delta_ad_ref(M, p + dp)) / 2.0
                raw = (1.0 - n * delta_bar - _fuchs(F, n, M)) / 2.0
                row[f"lb_M{M}"] = min(max(raw, 0.0), 0.5)
            rows.append(row)
        return {"rows": rows}
    if cmd == "illumination":
        if str(SRC) not in sys.path:
            sys.path.insert(0, str(SRC))
        import pbtbounds  # the structured eigenvalue-family route, not the generic eigensolve

        d, b = _argv_value(argv, "--d", 2), _argv_value(argv, "--b", 1e-3)
        grid = _grid(_argv_value(argv, "--eta-min", 1e-4), _argv_value(argv, "--eta-max", 1e-2),
                     _argv_value(argv, "--steps", 10))
        return {"F": [pbtbounds.illumination_fidelity_exact(d, eta, b, method="structured") for eta in grid]}
    if cmd == "metrology":
        grid = _grid(_argv_value(argv, "--p-min", 0.2), _argv_value(argv, "--p-max", 0.8),
                     _argv_value(argv, "--steps", 7))
        return {"qfi": [_qfi_ad(p) for p in grid]}
    if cmd == "keyrate":
        d = _argv_value(argv, "--d", 2)
        out = []
        for e_r in (float(t) for t in argv[argv.index("--e-r-list") + 1].split(",")):
            mt = sqrt(2.0 * d * (d - 1) * log2(d) / e_r)
            grid = range(2, max(ceil(4.0 * mt), 8) + 1)
            out.append({"m_tilde": mt, "K_at_m_tilde": _keyrate_asymptotic(d, e_r, mt),
                        "K_min": min(_keyrate_asymptotic(d, e_r, M) for M in grid)})
        return {"d": d, "rows": out}
    return {}


# ---------------------------------------------------------------------------
# gates


def _table(text: str) -> list[dict]:
    lines = text.strip().splitlines()
    header = lines[0].split(",")
    rows = []
    for line in lines[1:]:
        cells = line.split(",")
        rows.append({h: (c == "true") if c in ("true", "false") else float(c) for h, c in zip(header, cells)})
    return rows


def _check_cli(op: dict, out: dict, ref: dict, g: Gate) -> None:
    cmd = op["argv"][0]
    g.require(f"exit code {out['rc']}", out["rc"] == 0)
    if out["rc"] != 0:
        return
    rows = _table(out["stdout"])
    g.require(f"{len(rows)} rows, expected {op['rows']}", len(rows) == op["rows"])
    if cmd == "xi-table":
        for r in rows:
            M = int(r["M"])
            g.close(f"xi({M})", r["xi"], ref[M], TOL_REL)
            g.close(f"f_e + delta/2 at M={M}", r["f_e"] + r["delta"] / 2.0, 1.0, TOL_REL, absolute=True)
            g.require(f"identity_ok false at M={M}", r["identity_ok"] is True)
    elif cmd == "oracle-verify":
        for r in rows:
            M = int(r["M"])
            g.close(f"xi_closed({M})", r["xi_closed"], ref[M], TOL_REL)
            g.close(f"xi_oracle({M})", r["xi_oracle"], ref[M], TOL_ORACLE, absolute=True)
            g.require(f"abs_diff {r['abs_diff']} at M={M}", r["abs_diff"] <= TOL_ORACLE)
            g.require(f"isotropy_residual {r['isotropy_residual']} at M={M}", r["isotropy_residual"] <= TOL_ORACLE)
    elif cmd == "ad-sweep":
        for r, rr in zip(rows, ref["rows"]):
            fixed = [k for k in r if k.startswith("lb_M")]
            for k in ["block_lower", "block_upper", "lb_optimized", *fixed]:
                g.in_bound_range(f"{k} at p={r['p']}", r[k])
            for k in fixed:
                g.require(f"lb_optimized < {k} at p={r['p']}", r["lb_optimized"] >= r[k])
                g.close(f"{k} at p={r['p']}", r[k], rr[k], TOL_REL)
    elif cmd == "resolution":
        for r in rows:
            g.close(f"F_choi at s={r['s']}", r["F_choi"], r["F_closed"], TOL_FIDELITY, absolute=True)
            g.close(f"F_closed at s={r['s']}", r["F_closed"],
                    1.0 - _argv_value(op["argv"], "--eta", 0.01) * (1.0 - exp(-r["s"] ** 2 / 8.0)) / 2.0, TOL_REL)
            for k in ("bound_small_s", "bound_exact_eps", "bound_linear"):
                g.in_bound_range(f"{k} at s={r['s']}", r[k])
    elif cmd == "illumination":
        for r, F in zip(rows, ref["F"]):
            g.close(f"F_exact at eta={r['eta']}", r["F_exact"], F, TOL_FIDELITY, absolute=True)
            g.in_bound_range(f"bound_lower at eta={r['eta']}", r["bound_lower"])
    elif cmd == "metrology":
        for r, q in zip(rows, ref["qfi"]):
            g.close(f"qfi at p={r['p']}", r["qfi"], q, TOL_QFI)
    elif cmd == "keyrate":
        for r, rr in zip(rows, ref["rows"]):
            for k in ("m_tilde", "K_at_m_tilde", "K_min"):
                g.close(f"{k} at e_r={r['e_r']}", r[k], rr[k], TOL_REL)
            g.close(f"K(argmin_M) at e_r={r['e_r']}",
                    _keyrate_asymptotic(ref["d"], r["e_r"], r["argmin_M"]), rr["K_min"], TOL_REL)


def _check_call(op: dict, value, ref, outputs: dict, g: Gate) -> None:
    fn = op["fn"]
    if fn in ("pbt.xi", "pbt.delta_ad"):
        g.close(f"{fn}{tuple(op['args'])}", value, ref, TOL_REL)
    elif fn == "pbt.entanglement_fidelity_qubit":
        M = op["args"][0]
        g.close(f"f_e({M})", value, ref, TOL_REL)
        # the identity between the two independent series computed in the same pass
        xi_same_m = [o for o in outputs.values() if o["op"].get("fn") == "pbt.xi" and o["op"]["args"] == [M]]
        for o in xi_same_m:
            if o["status"] == "ok":
                g.close(f"f_e + delta/2 at M={M}", value + 0.75 * o["value"], 1.0, TOL_REL, absolute=True)
    elif fn == "pbt_oracle.oracle_xi":
        g.close(f"oracle_xi({op['args'][0]})", value, ref, TOL_ORACLE, absolute=True)
    elif fn == "pbt_oracle.oracle_channel_choi":
        x = ref
        iso = [[0.5 - x / 4, 0, 0, 0.5 - x / 2], [0, x / 4, 0, 0], [0, 0, x / 4, 0], [0.5 - x / 2, 0, 0, 0.5 - x / 4]]
        residual = max(abs(complex(*value[i][j]) - iso[i][j]) for i in range(4) for j in range(4))
        g.close(f"isotropy residual at M={op['args'][0]}", residual, 0.0, TOL_ORACLE, absolute=True)
    elif fn == "discrimination.bound_B_optimized":
        v = value["value"]
        g.in_bound_range(f"bound_B_optimized{tuple(op['args'])}", v)
        g.close(f"bound_B_optimized{tuple(op['args'])}", v, ref, TOL_REL)
    else:
        g.require(f"no gate for {fn}", False)


def check(op: dict, output: dict, refs: dict, outputs: dict) -> Gate:
    """Gate one op output; outputs maps op id -> {"op", "status", "value"} of the same pass."""
    g = Gate()
    if output["status"] != "ok":
        g.require(f"raised {output['value']}", False)
        return g
    value, ref = output["value"], refs.get(op["id"])
    if op["kind"] == "cli":
        _check_cli(op, value, ref, g)
    elif op["kind"] == "diamond_ad":
        g.require("scalar diamond criterion did not apply", value is not None)
        if value is not None:
            g.close(f"diamond distance at p={op['p']}, M={op['M']}", value, ref, TOL_REL)
    else:
        _check_call(op, value, ref, outputs, g)
    return g
