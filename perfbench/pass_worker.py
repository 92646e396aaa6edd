"""One benchmark pass in a fresh interpreter.

Reads {"ops": [...], "trace": bool, "span_file": path or null} as JSON on
stdin, imports pbtbounds (timed as set-up), runs every op once (timed as the
pass, and op by op) and writes one JSON line with the outputs, timings, peak
RSS and, when traced, the layer summary; the spans go to span_file.

Only the standard library is imported before the timed import, so set-up
covers numpy and every pbtbounds module, as a cold CLI start does.
"""

import contextlib
import io
import json
import resource
import sys
import time


def _call(op, pbtbounds):
    """Run one op; the function is looked up at call time so wrappers apply."""
    kind = op["kind"]
    if kind == "call":
        module_name, fn_name = op["fn"].split(".")
        fn = getattr(getattr(pbtbounds, module_name), fn_name)
        return fn(*op.get("args", []), **op.get("kwargs", {}))
    if kind == "diamond_ad":
        ch = pbtbounds.channels.amplitude_damping(op["p"])
        simulated = pbtbounds.pbt.simulate_channel_choi(ch, op["M"])
        return pbtbounds.pbt.diamond_via_choi_scalar_check(pbtbounds.channels.choi(ch), simulated)
    if kind == "cli":
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = pbtbounds.cli.main(list(op["argv"]))
        return {"rc": rc, "stdout": buf.getvalue()}
    raise ValueError(f"unknown op kind {kind!r}")


def _jsonable(value):
    """Outputs as JSON: floats round-trip exactly, matrices as [re, im] pairs."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if hasattr(value, "params") and hasattr(value, "value"):  # BoundReport
        return {"value": value.value, "params": _jsonable(value.params)}
    matrix = getattr(value, "matrix", None)
    if matrix is not None:  # ChoiMatrix / DensityMatrix
        return [[[float(z.real), float(z.imag)] for z in row] for row in matrix.tolist()]
    raise TypeError(f"cannot serialise {type(value).__name__}")


def _environment(numpy) -> dict:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def main() -> int:
    job = json.loads(sys.stdin.read())
    t0 = time.perf_counter()
    import pbtbounds
    import pbtbounds.cli
    setup_s = time.perf_counter() - t0

    tracer = None
    if job.get("trace"):
        from tracer import Tracer

        tracer = Tracer(pbtbounds)

    results, op_s = [], []
    clock = time.perf_counter
    start = clock()
    for op in job["ops"]:
        t = clock()
        try:
            results.append(("ok", _call(op, pbtbounds)))
        except Exception as exc:  # an op that raises is a failed operation, not a crash
            results.append(("error", f"{type(exc).__name__}: {exc}"))
        op_s.append(clock() - t)
    pass_s = clock() - start

    import numpy

    outputs = []
    for status, value in results:
        if status == "ok":
            try:
                value = _jsonable(value)
            except TypeError as exc:
                status, value = "error", str(exc)
        outputs.append({"status": status, "value": value})
    report = {
        "setup_s": setup_s,
        "pass_s": pass_s,
        "op_s": op_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "outputs": outputs,
        "env": _environment(numpy),
    }
    if tracer is not None:
        report["layers"] = tracer.summary()
        if job.get("span_file"):
            tracer.write_spans(job["span_file"])
    sys.stdout.write(json.dumps(report) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
