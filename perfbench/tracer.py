"""Layer tracing from outside the program.

Every public function and every public class constructor of each pbtbounds
module is replaced by a wrapper that records a span (name, start, end,
parent). The wrapper is bound in every namespace that binds the original, so
a call through `discrimination.delta_ad` is traced like one through
`pbt.delta_ad`. Dataclass validation (`__post_init__`) gets a span of its
own. numpy's eigensolvers are counted but get no span: their time stays in
the self time of the package function that called them.

Spans stay in memory; `summary` reduces them to per-module self time (span
time minus the time covered by direct child spans) and call counts.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

MODULES = ("linalg", "channels", "pbt", "pbt_oracle", "discrimination", "applications", "cli")
# numpy routines that decompose a matrix; each call adds m*n*min(m, n) to
# linalg.eig_n3, a computed operation count (n^3 for a square matrix).
EIGENSOLVERS = ("eigh", "eigvalsh", "svd")
# Functions whose first argument is a port count M summed over in a series.
SERIES = {"pbt.xi", "pbt.entanglement_fidelity_qubit"}


class Tracer:
    def __init__(self, package):
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent index]
        self._stack: list[int] = []
        self.series_terms = 0
        self.xi_ports: list[int] = []
        self.eigensolves = 0
        self.eig_n3 = 0
        self._patch_package(package)
        self._patch_numpy()

    def _span(self, name, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()

        return wrapper

    def _counted_series(self, name, fn):
        def wrapper(M, *args, **kwargs):
            self.series_terms += int(M)
            if name == "pbt.xi":
                self.xi_ports.append(int(M))
            return fn(M, *args, **kwargs)

        return self._span(name, functools.wraps(fn)(wrapper))

    def _patch_package(self, package):
        modules = [m for k, m in sys.modules.items() if k == package.__name__ or k.startswith(package.__name__ + ".")]
        replaced = {}
        for short in MODULES:
            mod = getattr(package, short)
            for attr, obj in vars(mod).copy().items():
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                name = f"{short}.{attr}"
                if inspect.isclass(obj):
                    obj.__init__ = self._span(name, obj.__init__)
                    if "__post_init__" in vars(obj):
                        obj.__post_init__ = self._span(f"{name}.__post_init__", obj.__post_init__)
                elif inspect.isfunction(obj):
                    wrap = self._counted_series if name in SERIES else self._span
                    replaced[id(obj)] = wrap(name, obj)
        for mod in modules:
            for attr, obj in vars(mod).copy().items():
                if id(obj) in replaced and inspect.isfunction(obj):
                    setattr(mod, attr, replaced[id(obj)])

    def _patch_numpy(self):
        import numpy

        def counted(fn):
            @functools.wraps(fn)
            def wrapper(a, *args, **kwargs):
                m, n = numpy.shape(a)[-2:]
                self.eigensolves += 1
                self.eig_n3 += m * n * min(m, n)
                return fn(a, *args, **kwargs)

            return wrapper

        for name in EIGENSOLVERS:
            setattr(numpy.linalg, name, counted(getattr(numpy.linalg, name)))

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, excluding time covered by direct children."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict[str, float] = {}
        for (name, start, end, _), covered in zip(self.spans, child_ns):
            out[name] = out.get(name, 0.0) + (end - start - covered) / 1e9
        return out

    def summary(self) -> dict:
        """Per-module self time and calls, plus the counters named by the benchmark."""
        self_s = self.self_times()
        calls: dict[str, int] = {}
        inclusive: dict[str, float] = {}
        for name, start, end, _ in self.spans:
            calls[name] = calls.get(name, 0) + 1
            inclusive[name] = inclusive.get(name, 0.0) + (end - start) / 1e9
        layers: dict[str, float] = {}
        for short in MODULES:
            prefix = short + "."
            layers[f"{short}.self_s"] = sum(v for k, v in self_s.items() if k.startswith(prefix))
            layers[f"{short}.calls"] = sum(v for k, v in calls.items() if k.startswith(prefix))
        layers["pbt.series_terms"] = self.series_terms
        layers["pbt.xi.calls"] = len(self.xi_ports)
        layers["pbt.xi.unique_frac"] = len(set(self.xi_ports)) / len(self.xi_ports) if self.xi_ports else 1.0
        layers["pbt.xi.unique_terms_frac"] = (
            sum(set(self.xi_ports)) / sum(self.xi_ports) if self.xi_ports else 1.0
        )
        layers["pbt_oracle.build_ensemble.calls"] = calls.get("pbt_oracle.build_ensemble", 0)
        layers["pbt_oracle.build_ensemble_s"] = inclusive.get("pbt_oracle.build_ensemble", 0.0)
        layers["pbt_oracle.validate_s"] = inclusive.get("pbt_oracle.PbtEnsemble.__post_init__", 0.0)
        layers["linalg.density_validations"] = calls.get("linalg.DensityMatrix.__post_init__", 0)
        layers["linalg.validate_s"] = inclusive.get("linalg.DensityMatrix.__post_init__", 0.0)
        layers["linalg.eigensolves"] = self.eigensolves
        layers["linalg.eig_n3"] = self.eig_n3
        return layers

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start_ns": start, "end_ns": end, "parent": parent}) + "\n")
