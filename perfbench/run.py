"""pbtbounds benchmark: cold-process passes over one workload.

    python3 perfbench/run.py --workload kernel_oracle --seed 1 --seconds 55 --trace 0

Each pass is a fresh interpreter (perfbench/pass_worker.py) that imports the
package, runs the workload's op list once and reports its outputs; passes run
one at a time while the next is expected to end within --seconds. Every output is
gated against a reference computed before the first pass (perfbench/checks.py).

--trace 0 prints the end-to-end metrics; --trace 1 alternates traced and
untraced passes and prints the per-layer metrics. The last stdout line is one
JSON object {"correct", "attempted", "failed", "metrics"}; the lines before it
give every metric with its unit, the environment and any failed gate.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from checks import check, references
from workloads import DEFAULT_SEED, WORKLOADS, make_ops

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKER = BENCH_DIR / "pass_worker.py"
SPAN_DIR = BENCH_DIR / "results"
# BLAS threads in every pass process. One thread keeps a 2-core box steady and
# is the single-threaded baseline; it must not exceed nproc.
BLAS_THREADS = 1
PASS_TIMEOUT_S = 150
# A tail percentile needs this many passes beyond it.
TAIL_BEYOND = 10

END_TO_END = {  # name -> unit
    "setup_s": "s",
    "pass_s_best": "s",
    "rows_per_s": "1/s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "pbt.self_s": "s",
    "pbt.calls": "count",
    "pbt.series_terms": "count",
    "pbt.xi.calls": "count",
    "pbt.xi.unique_frac": "ratio",
    "pbt.xi.unique_terms_frac": "ratio",
    "discrimination.self_s": "s",
    "discrimination.calls": "count",
    "pbt_oracle.self_s": "s",
    "pbt_oracle.calls": "count",
    "pbt_oracle.build_ensemble.calls": "count",
    "pbt_oracle.build_ensemble_s": "s",
    "pbt_oracle.validate_s": "s",
    "linalg.self_s": "s",
    "linalg.calls": "count",
    "linalg.density_validations": "count",
    "linalg.validate_s": "s",
    "linalg.eigensolves": "count",
    "linalg.eig_n3": "count",
    "channels.self_s": "s",
    "channels.calls": "count",
    "applications.self_s": "s",
    "applications.calls": "count",
    "cli.self_s": "s",
    "cli.calls": "count",
    "trace.overhead_frac": "ratio",
}
COMPUTED = {"pbt.series_terms", "linalg.eig_n3"}  # derived from call arguments, not measured


def _child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def run_pass(ops: list[dict], trace: bool, span_file: str | None = None) -> dict | None:
    """One fresh-interpreter pass; None if the process failed or timed out."""
    job = {"ops": ops, "trace": trace, "span_file": span_file}
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER)], input=json.dumps(job), capture_output=True, text=True,
            env=_child_env(), cwd=ROOT, timeout=PASS_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print(f"pass timed out after {PASS_TIMEOUT_S} s", file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(f"pass exited {proc.returncode}: {proc.stderr.strip()[-2000:]}", file=sys.stderr)
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def gate_pass(ops: list[dict], report: dict | None, refs: dict) -> tuple[int, float, list[str]]:
    """(failed ops, worst relative error, reasons) for one pass."""
    if report is None:
        return len(ops), 0.0, ["pass process failed"]
    outputs = {op["id"]: {"op": op, **out} for op, out in zip(ops, report["outputs"])}
    failed, worst, reasons = 0, 0.0, []
    for op in ops:
        g = check(op, outputs[op["id"]], refs, outputs)
        worst = max(worst, g.rel_err)
        if g.reasons:
            failed += 1
            reasons.append(f"{op['id']}: {g.reasons[0]}")
    return failed, worst, reasons


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND passes beyond it.

    With fewer than TAIL_BEYOND + 1 passes no percentile qualifies; the maximum
    is returned with percentile 100.
    """
    v = sorted(values)
    i = len(v) - 1 - TAIL_BEYOND
    if i < 0:
        return v[-1], 100.0
    return v[i], 100.0 * (i + 1) / len(v)


def measure(ops: list[dict], refs: dict, seconds: float, trace: bool, span_file: str | None) -> dict:
    """Run passes while the next one is expected to end within `seconds`; traced runs alternate."""
    plain, traced = [], []
    attempted = failed = 0
    worst = 0.0
    reasons: list[str] = []
    report: dict | None = {}
    walls: list[float] = []
    start = time.perf_counter()
    while True:
        # stop before a pass that would end after the deadline, once there is one of each kind
        expected = statistics.median(walls) if walls else 0.0
        if time.perf_counter() - start + expected > seconds:
            if plain and (traced or not trace):
                break
            if report is None:
                break  # the last pass failed after time ran out: do not retry forever
        use_trace = trace and len(traced) < len(plain)
        t = time.perf_counter()
        report = run_pass(ops, use_trace, span_file if use_trace else None)
        walls.append(time.perf_counter() - t)
        f, w, r = gate_pass(ops, report, refs)
        attempted += len(ops)
        failed += f
        worst = max(worst, w)
        reasons += r
        if report is not None:
            (traced if use_trace else plain).append(report)
    return {"plain": plain, "traced": traced, "attempted": attempted, "failed": failed,
            "rel_err_max": worst, "reasons": reasons}


def end_to_end(plain: list[dict], ops: list[dict]) -> tuple[dict, dict]:
    """The gated metrics, and the informational ones (value, unit, note) printed after them."""
    pass_s = [r["pass_s"] for r in plain]
    # Each op's fastest time over the run's passes (every one a cold process),
    # summed: the pass time with the host's co-tenant noise stripped per op.
    op_best = [min(times) for times in zip(*(r["op_s"] for r in plain))]
    best = sum(op_best)
    metrics = {
        "setup_s": statistics.median(r["setup_s"] for r in plain),
        "pass_s_best": best,
        "rows_per_s": sum(op["rows"] for op in ops) / best,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
    }
    tail_s, tail_pct = tail(pass_s)
    info = {
        "pass_s_min": (min(pass_s), "s", "fastest whole pass"),
        "pass_s_p50": (statistics.median(pass_s), "s", f"{len(pass_s)} passes"),
        "pass_s_tail": (tail_s, "s", f"p{tail_pct:.1f} of {len(pass_s)} passes"),
    }
    info["op_best_s"] = (" ".join(f"{op['id']}={t:.4g}" for op, t in zip(ops, op_best)), "s", "each op's fastest time")
    return metrics, info


def per_layer(traced: list[dict], plain: list[dict]) -> dict:
    metrics = {}
    for name in PER_LAYER:
        if name != "trace.overhead_frac":
            metrics[name] = statistics.median_low(r["layers"][name] for r in traced)
    metrics["trace.overhead_frac"] = min(r["pass_s"] for r in traced) / min(r["pass_s"] for r in plain) - 1.0
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, for the self-test")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "pbtbounds" / "__init__.py").is_file():
        print(f"error: no pbtbounds sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if BLAS_THREADS > (os.cpu_count() or 1):
        print(f"error: BLAS_THREADS={BLAS_THREADS} exceeds nproc", file=sys.stderr)
        return 2
    ops = make_ops(args.workload, args.seed, args.tiny)
    refs = references(ops)
    warm = run_pass([], False)  # fills __pycache__ and the file cache before timing; reports the env
    if warm is None:
        print("error: the pass interpreter could not import pbtbounds", file=sys.stderr)
        return 2
    span_file = None
    if args.trace:
        SPAN_DIR.mkdir(exist_ok=True)
        span_file = str(SPAN_DIR / f"spans-{args.workload}-{args.seed}.jsonl")
    run = measure(ops, refs, args.seconds, bool(args.trace), span_file)

    env = dict(warm["env"], nproc=os.cpu_count(), blas_threads=BLAS_THREADS)
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} ops_per_pass={len(ops)} "
          f"passes={len(run['plain'])} traced_passes={len(run['traced'])}")
    for reason in run["reasons"][:20]:
        print(f"FAILED {reason}")
    if not run["plain"] or (args.trace and not run["traced"]):
        print("error: no pass completed", file=sys.stderr)
        return 1

    if args.trace:
        metrics, units, info = per_layer(run["traced"], run["plain"]), PER_LAYER, {}
        notes = {k: "computed" for k in COMPUTED}
        notes["trace.overhead_frac"] = f"fastest traced vs untraced pass, {len(run['traced'])}+{len(run['plain'])} passes"
    else:
        metrics, info = end_to_end(run["plain"], ops)
        units = END_TO_END
        notes = {"rows_per_s": f"{sum(op['rows'] for op in ops)} rows per pass"}
    for name, value in metrics.items():
        extra = f"  ({notes[name]})" if name in notes else ""
        print(f"{name} {value!r} {units[name]}{extra}")
    info["failed_frac"] = (run["failed"] / run["attempted"], "ratio", f"{run['failed']} of {run['attempted']} ops")
    info["ref_rel_err_max"] = (run["rel_err_max"], "ratio", "largest relative error against a reference")
    for name, (value, unit, note) in info.items():
        shown = value if isinstance(value, str) else repr(value)
        print(f"{name} {shown} {unit}  ({note}; not gated)")
    if span_file:
        print(f"spans of the last traced pass: {os.path.relpath(span_file, ROOT)}")
    result = {
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
