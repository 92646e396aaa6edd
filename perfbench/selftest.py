"""Self-test of the benchmark at tiny size (about 10 s).

    python3 perfbench/selftest.py

Checks that
- every metric named in BENCHMARK.json is printed, by name and with its
  unit, for every workload, in the timed and the traced run;
- every gate passes on the unmodified program at tiny size, and a planted
  wrong output, or an op that raised, counts as exactly one failed op;
- without the package sources the benchmark exits non-zero and prints no
  result.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys

import run
from checks import references
from workloads import make_ops

SEED = 7


def _bench_json() -> dict:
    return json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def check_printed_metrics(bench: dict) -> None:
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        wanted = {m["name"]: m["unit"] for m in bench[key]}
        for w in (x["name"] for x in bench["workloads"]):
            proc = subprocess.run(
                [sys.executable, str(run.BENCH_DIR / "run.py"), "--workload", w, "--seed", str(SEED),
                 "--seconds", "0.5", "--trace", str(trace), "--tiny"],
                capture_output=True, text=True, cwd=run.ROOT, timeout=170,
            )
            assert proc.returncode == 0, proc.stderr
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, (w, lines)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == wanted, (w, trace, got, wanted)
            for name, unit in wanted.items():
                value = result["metrics"][name]["value"]
                assert isinstance(value, (int, float)) and math.isfinite(value), (name, value)
                assert any(line.startswith(f"{name} ") and f" {unit}" in line for line in lines[:-1]), name
            print(f"ok   metrics printed: {w} trace={trace}")


def _plant(value):
    """A wrong output of the same shape as the right one."""
    if isinstance(value, float):
        return value * (1.0 + 1e-6) + 1e-6
    if isinstance(value, list):  # matrix of [re, im] pairs
        return [[[re + 1e-6 if (i, j) == (0, 0) else re, im] for j, (re, im) in enumerate(row)]
                for i, row in enumerate(value)]
    if isinstance(value, dict) and "stdout" in value:  # CLI table: bump the first row's second cell
        lines = value["stdout"].splitlines()
        cells = lines[1].split(",")
        cells[1] = repr(float(cells[1]) * (1.0 + 1e-6) + 1e-6)
        lines[1] = ",".join(cells)
        return dict(value, stdout="\n".join(lines) + "\n")
    raise TypeError(f"cannot plant into {type(value).__name__}")


def check_planted_failures(bench: dict) -> None:
    for w in (x["name"] for x in bench["workloads"]):
        ops = make_ops(w, SEED, tiny=True)
        refs = references(ops)
        report = run.run_pass(ops, trace=False)
        failed, _, reasons = run.gate_pass(ops, report, refs)
        assert failed == 0, reasons
        wrong = json.loads(json.dumps(report))
        wrong["outputs"][0]["value"] = _plant(wrong["outputs"][0]["value"])
        failed, _, reasons = run.gate_pass(ops, wrong, refs)
        assert failed == 1, (w, reasons)
        raised = json.loads(json.dumps(report))
        raised["outputs"][-1] = {"status": "error", "value": "ValueError: planted"}
        failed, _, reasons = run.gate_pass(ops, raised, refs)
        assert failed == 1, (w, reasons)
        print(f"ok   planted wrong output and planted raise each fail one op: {w}")


def check_refuses_without_sources() -> None:
    bare = run.SPAN_DIR / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(run.BENCH_DIR, bare / "perfbench", ignore=shutil.ignore_patterns("results", "__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "app_tables", "--seed", "1", "--seconds", "1",
             "--trace", "0"], capture_output=True, text=True, cwd=bare, timeout=170,
        )
        assert proc.returncode != 0 and '"metrics"' not in proc.stdout, (proc.returncode, proc.stdout)
        print("ok   refuses to run without the package sources")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    run.SPAN_DIR.mkdir(exist_ok=True)
    bench = _bench_json()
    check_printed_metrics(bench)
    check_planted_failures(bench)
    check_refuses_without_sources()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
