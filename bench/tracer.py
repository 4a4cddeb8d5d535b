"""Spans around the calls into each module of the package, and their metrics.

The tracer replaces each traced function by a wrapper at every place the
function object is bound among the loaded ``fanoenum`` modules: its defining
module, the package namespace and the from-imports of ``cli`` and
``enumerator``.  Patching only the defining module would silently lose the
calls made through those other names.  (``cli._CHERN_FORMULAS`` holds three
Chern formulas in a dict; calls through it are not traced.)

A span is the tuple (name, start_ns, end_ns, parent index, op id, note); the
note carries a per-call count such as records returned or bytes emitted.
Spans stay in memory until the run ends.  Self time is a span's duration
minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from statistics import median

ENUMERATOR_FUNCS = (
    "enumerate_all",
    "solve_E1_C",
    "solve_E1_D",
    "solve_E1_E",
    "solve_C_C",
    "solve_C_D",
    "solve_C_E_primitive",
    "solve_rho3_CCC",
    "solve_rho3_CE",
)
TABLE_ORACLE_FUNCS = ("ground_truth", "parse_rows", "record_to_row", "diff", "emit")
# Leaf modules are traced on the functions the enumerator imports from them.
LEAF_MODULES = ("ray_constraints", "picard_lattice", "chern_calculus")

# The 14 solver calls enumerate_all makes, named <solver>[.<sub-type>].
SOLVER_CALLS = (
    "solve_E1_C.C1", "solve_E1_C.C2",
    "solve_E1_D.D1", "solve_E1_D.D2", "solve_E1_D.D3",
    "solve_E1_E.E1", "solve_E1_E.E2", "solve_E1_E.E34", "solve_E1_E.E5",
    "solve_C_C", "solve_C_D", "solve_C_E_primitive",
    "solve_rho3_CCC", "solve_rho3_CE",
)
EMIT_FORMATS = ("json", "csv", "markdown")
ROOT_SPAN = "op"


def _count(result):
    return len(result)


def _mismatches(report):
    return len(report.missing) + len(report.extra) + len(report.mismatched)


def _payload_key(args, kwargs):
    return hash(args[0])


def _emit_name(args, kwargs):
    fmt = args[1] if len(args) > 1 else kwargs.get("fmt", "json")
    return f"table_oracle.emit.{fmt}"


def _sub_name(base):
    def name(args, kwargs):
        if args and hasattr(args[0], "value"):
            return f"{base}.{args[0].value}"
        return base

    return name


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._op_id = -1
        self._bindings: list[tuple] = []
        self._bind()

    # ------------------------------------------------------------ patching --

    def _targets(self):
        """(function, span namer, note-on-result, note-on-arguments) per target."""
        enumerator = importlib.import_module("fanoenum.enumerator")
        oracle = importlib.import_module("fanoenum.table_oracle")
        cli = importlib.import_module("fanoenum.cli")
        for name in ENUMERATOR_FUNCS:
            base = f"enumerator.{name}"
            namer = _sub_name(base) if name.startswith("solve_") else base
            yield getattr(enumerator, name), namer, _count, None
        for name in TABLE_ORACLE_FUNCS:
            namer = _emit_name if name == "emit" else f"table_oracle.{name}"
            on_result = {"emit": _count, "diff": _mismatches}.get(name)
            on_args = _payload_key if name == "parse_rows" else None
            yield getattr(oracle, name), namer, on_result, on_args
        yield cli.run, "cli.run", None, None
        for name, obj in sorted(vars(enumerator).items()):
            module = getattr(obj, "__module__", "")
            leaf = module.rpartition(".")[2]
            if inspect.isfunction(obj) and leaf in LEAF_MODULES:
                yield obj, f"{leaf}.{name}", None, None

    def _bind(self) -> None:
        targets = list(self._targets())  # imports any module not loaded yet
        modules = [
            m for n, m in sorted(sys.modules.items())
            if n == "fanoenum" or n.startswith("fanoenum.")
        ]
        for func, namer, on_result, on_args in targets:
            wrapper = self._wrap(func, namer, on_result, on_args)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is func:
                        self._bindings.append((module, attr, func, wrapper))

    def _wrap(self, func, namer, on_result, on_args):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            name = namer if isinstance(namer, str) else namer(args, kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            note = None
            start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, tracer._op_id, note)
            if on_result is not None or on_args is not None:
                note = on_result(result) if on_result else on_args(args, kwargs)
                spans[index] = (name, start, end, parent, tracer._op_id, note)
            return result

        return wrapper

    def bound_names(self) -> set[str]:
        """'module.attr' for every binding the tracer replaces."""
        return {f"{m.__name__}.{attr}" for m, attr, _, _ in self._bindings}

    def install(self) -> None:
        for module, attr, _, wrapper in self._bindings:
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, func, _ in self._bindings:
            setattr(module, attr, func)

    @contextmanager
    def op(self, op_id: int):
        """Trace one op: patch, record the root span, restore."""
        self.install()
        self._op_id = op_id
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans[index] = (ROOT_SPAN, start, end, -1, op_id, None)
            self.uninstall()


# ------------------------------------------------------------- aggregation --


def _median(values) -> float:
    """Median of the values present; 0 for a layer that was never called."""
    xs = [v for v in values if v is not None]
    return float(median(xs)) if xs else 0.0


def layer_metrics(spans, verify_ops=frozenset()) -> dict[str, float]:
    """Per-layer metrics from the spans of traced ops.

    ``verify_ops`` holds the ids of ops that ran a full verify (both ranks);
    parses per verify are counted over those.  Times are in microseconds,
    per-call figures are medians over calls and per-op figures are means
    over traced ops.  A layer the workload never calls reads 0.
    """
    child_ns = [0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    calls = defaultdict(list)  # name -> [(dur_ns, self_ns, op, note)]
    for i, (name, start, end, _, op, note) in enumerate(spans):
        calls[name].append((end - start, end - start - child_ns[i], op, note))
    roots = calls.get(ROOT_SPAN, [])
    n_ops = len(roots) or 1

    def dur_us(name):
        return _median(c[0] for c in calls.get(name, ())) / 1000

    def self_us(name):
        return _median(c[1] for c in calls.get(name, ())) / 1000

    def per_op(name):
        return len(calls.get(name, ())) / n_ops

    out: dict[str, float] = {}
    for call in SOLVER_CALLS:
        name = f"enumerator.{call}"
        out[f"{name}.us"] = dur_us(name)
        out[f"{name}.records"] = _median(c[3] for c in calls.get(name, ()))
    out["enumerator.enumerate_all.self_us"] = self_us("enumerator.enumerate_all")
    for leaf in LEAF_MODULES:
        names = [n for n in calls if n.startswith(leaf + ".")]
        out[f"{leaf}.calls_per_op"] = sum(len(calls[n]) for n in names) / n_ops
        out[f"{leaf}.self_us_per_op"] = (
            sum(c[1] for n in names for c in calls[n]) / n_ops / 1000
        )
    out["table_oracle.ground_truth.us"] = dur_us("table_oracle.ground_truth")
    out["table_oracle.ground_truth.calls_per_op"] = per_op("table_oracle.ground_truth")
    parses = calls.get("table_oracle.parse_rows", ())
    out["table_oracle.parse_rows.us"] = dur_us("table_oracle.parse_rows")
    out["table_oracle.parse_rows.calls_per_op"] = per_op("table_oracle.parse_rows")
    by_op = defaultdict(list)
    for _, _, op, key in parses:
        by_op[op].append(key)
    ratios = [len(set(keys)) / len(keys) for keys in by_op.values()]
    out["table_oracle.parse_rows.useful_ratio"] = (
        sum(ratios) / len(ratios) if ratios else 0.0
    )
    traced_ops = {c[2] for c in roots}
    verify_parses = [len(by_op.get(op, ())) for op in verify_ops if op in traced_ops]
    out["table_oracle.parse_rows.calls_per_verify"] = (
        sum(verify_parses) / len(verify_parses) if verify_parses else 0.0
    )
    out["table_oracle.record_to_row.us"] = dur_us("table_oracle.record_to_row")
    out["table_oracle.diff.us"] = dur_us("table_oracle.diff")
    out["table_oracle.diff.mismatches"] = (
        sum(c[3] or 0 for c in calls.get("table_oracle.diff", ())) / n_ops
    )
    for fmt in EMIT_FORMATS:
        name = f"table_oracle.emit.{fmt}"
        out[f"{name}.us"] = dur_us(name)
        out[f"{name}.bytes"] = _median(c[3] for c in calls.get(name, ()))
    out["cli.run.self_us"] = self_us("cli.run")
    traced_ns = sum(c[0] for c in roots)
    layer_self_ns = sum(c[1] for n, cs in calls.items() if n != ROOT_SPAN for c in cs)
    out["trace.coverage_ratio"] = layer_self_ns / traced_ns if traced_ns else 0.0
    return out


def write_spans(spans, path) -> None:
    """Write spans as JSON lines: name, start_ns, end_ns, parent, op id, note."""
    with open(path, "w", encoding="utf-8") as fh:
        for span in spans:
            fh.write(json.dumps(span) + "\n")
