"""Span and counter recorder that wraps ulrichci's public functions from outside.

The program itself carries no instrumentation: ``Tracer.install`` replaces
every public function of the seven ulrichci modules, the ring operations of
``MultiPoly`` and the process-pool class the scan binds, in every module that
holds a reference to them.  Each call records one span (name, start, end,
parent) in flat arrays; ``layer_table`` turns the spans into per-layer call
counts and self times (span duration minus the part covered by its direct
child spans) when the run ends.

``ulrich_functions.q_value`` stays unwrapped in its own module, so the scan's
per-tuple calls (over a million per run) are not traced; ``certify`` reaches
it through the ``ci_invariants`` binding, which is wrapped.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from array import array
from collections import defaultdict

MODULES = (
    "exact_arith",
    "polyring",
    "symfunc",
    "ulrich_functions",
    "ci_invariants",
    "report",
    "cli",
)

#: MultiPoly dunder methods grouped into the ring operations they implement.
POLY_OPS = {
    "__mul__": "mul",
    "__rmul__": "mul",
    "__add__": "add_sub",
    "__radd__": "add_sub",
    "__sub__": "add_sub",
    "__rsub__": "add_sub",
    "__neg__": "add_sub",
    "scale": "scale",
    "__truediv__": "scale",
    "__eq__": "eq",
    "is_symmetric": "is_symmetric",
    "substitute_ones": "substitute_ones",
    "divide_all_vars": "divide_all_vars",
}

#: Counters summed from return values: span name -> (counter suffix, getter).
#: For a cached builder only calls that miss the cache count.
RESULT_COUNTS = {
    "polyring.mul": ("terms_out", lambda poly: poly.num_terms),
    "symfunc.monomial_sym": ("terms_out", lambda poly: poly.num_terms),
    "ulrich_functions.build_f": ("terms_out", lambda poly: poly.num_terms),
    "ulrich_functions.verify_cg_scan": ("tuples", lambda report: report.total_tuples),
}

#: Module bindings left unwrapped (see the module docstring).
UNWRAPPED = {("ulrichci.ulrich_functions", "q_value")}


class Tracer:
    """In-memory span store plus named counters for one traced run."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[int] = []
        self.counters: dict[str, int] = defaultdict(int)
        self._restore: list[tuple[object, str, object]] = []

    # -- spans ----------------------------------------------------------------

    def begin(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_end.append(0.0)
        self._stack.append(idx)
        self.span_start.append(time.perf_counter())
        return idx

    def end(self, idx: int) -> None:
        self.span_end[idx] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn):
        begin, end, counters = self.begin, self.end, self.counters
        if name in RESULT_COUNTS:
            suffix, count = RESULT_COUNTS[name]
            key = f"{name}.{suffix}"
            cache_info = getattr(fn, "cache_info", None)

            def traced(*args, **kwargs):
                idx = begin(name)
                try:
                    before = cache_info().misses if cache_info else 0
                    result = fn(*args, **kwargs)
                    if not cache_info or cache_info().misses != before:
                        counters[key] += count(result)
                    return result
                finally:
                    end(idx)

        else:

            def traced(*args, **kwargs):
                idx = begin(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    end(idx)

        traced.__wrapped__ = fn
        return traced

    # -- installation -----------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap the public functions, MultiPoly ops, CheckResult and the scan pool."""
        modules = [importlib.import_module(f"ulrichci.{short}") for short in MODULES]
        package = [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "ulrichci"]
        for short, module in zip(MODULES, modules):
            for attr, obj in sorted(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                cached = hasattr(obj, "cache_info")
                if not (inspect.isfunction(obj) or cached) or inspect.isgeneratorfunction(obj):
                    continue
                wrapper = self.wrap(f"{short}.{attr}", obj)
                for holder in package:
                    for hattr, hobj in list(vars(holder).items()):
                        if hobj is obj and (holder.__name__, hattr) not in UNWRAPPED:
                            self._set(holder, hattr, wrapper)

        from ulrichci import polyring, report, ulrich_functions

        for attr, op in POLY_OPS.items():
            method = vars(polyring.MultiPoly)[attr]
            self._set(polyring.MultiPoly, attr, self.wrap(f"polyring.{op}", method))

        init = report.CheckResult.__init__
        counters = self.counters

        def counted_init(self_, *args, **kwargs):
            counters["report.check_results"] += 1
            init(self_, *args, **kwargs)

        self._set(report.CheckResult, "__init__", counted_init)

        tracer = self
        base = ulrich_functions.ProcessPoolExecutor

        class TracedPool(base):
            """The scan's executor, counting pools and timing their lifetime."""

            def __enter__(self):
                tracer.counters["ulrich_functions.scan.pools_started"] += 1
                self._span = tracer.begin("ulrich_functions.scan.pool")
                return super().__enter__()

            def __exit__(self, *exc):
                try:
                    return super().__exit__(*exc)
                finally:
                    tracer.end(self._span)

        self._set(ulrich_functions, "ProcessPoolExecutor", TracedPool)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # -- results ------------------------------------------------------------------

    def layer_table(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total_s and self_s.

        A call nested directly in a span of the same name (``a - b`` runs
        ``a + (-b)``) is part of that outer operation and is not counted again.
        """
        n = len(self.span_start)
        covered = [0.0] * n
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        for i in range(n):
            p = parents[i]
            if p >= 0:
                covered[p] += ends[i] - starts[i]
        table: dict[str, dict[str, float]] = {}
        for i in range(n):
            row = table.setdefault(
                self.names[names[i]], {"calls": 0, "total_s": 0.0, "self_s": 0.0}
            )
            dur = ends[i] - starts[i]
            row["self_s"] += dur - covered[i]
            p = parents[i]
            if p < 0 or names[p] != names[i]:
                row["calls"] += 1
                row["total_s"] += dur
        return table
