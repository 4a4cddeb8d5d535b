"""The in-process worker for ``engine_verify`` and ``export_roundtrip``.

Usage: ``python bench/worker.py <workload> <seed> <seconds> 0``,
``python bench/worker.py <workload> <seed> <seconds> 1 <spans path>``
or ``python bench/worker.py <workload> --setup-only``.

The worker imports the package, makes the workload's cold first calls and
writes ``ready`` to stdout; the parent's clock from spawn to that line is
one set-up sample.  Apart from ``export_tables`` for ``export_roundtrip``,
the benchmark's own modules are imported only after that, so set-up time is
the program's.  Then it runs the closed loop and
writes one JSON line with its samples (and, traced, the layer metrics).
"""

from __future__ import annotations

import sys


def _setup(workload: str):
    """Import and warm the package; returns the state the loop needs."""
    if workload == "cli_mix":
        import fanoenum.cli  # noqa: F401  (the CLI's set-up is its import)

        return None
    import fanoenum

    if workload == "engine_verify":
        for rho, primitive_only in ((2, False), (2, True), (3, True)):
            fanoenum.diff(
                fanoenum.enumerate_all(rho, primitive_only),
                fanoenum.ground_truth(rho, primitive_only),
            )
        return None
    if workload == "export_roundtrip":
        from workloads import export_tables

        return export_tables(fanoenum)
    raise SystemExit(f"error: unknown in-process workload {workload!r}")


def main(argv: list[str]) -> int:
    workload = argv[0]
    state = _setup(workload)
    sys.stdout.write("ready\n")
    sys.stdout.flush()
    if argv[1:] == ["--setup-only"]:
        return 0
    seed, seconds, trace = int(argv[1]), float(argv[2]), argv[3] == "1"

    import json
    import resource

    import fanoenum
    from common import closed_loop, load_golden, now_ns, reference_task
    from workloads import (
        ENGINE_CASES,
        engine_op,
        engine_ops,
        export_op,
        export_ops,
        run_checked,
    )

    expected_ref = reference_task()
    if workload == "engine_verify":
        items = engine_ops(seed)
        cycle = [ENGINE_CASES]

        def body(item):
            return engine_op(fanoenum, item)
    else:
        golden = load_golden()
        items = export_ops(seed, state)
        # Each full table, then every row at once: the largest op there is.
        cycle = [(key, state[key]) for key in sorted(state)]
        cycle.append(("", tuple(row for _, rows in cycle for row in rows)))

        def body(item):
            return export_op(fanoenum, item[0], item[1], golden)

    # Peak RSS is read after one fixed cycle of ops, before the timed loop,
    # so it does not grow with the number of ops a run completes.
    cycle_errors = [run_checked(lambda: body(item)) for item in cycle]
    peak_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    def reference():
        t0 = now_ns()
        value = reference_task()
        t1 = now_ns()
        if value != expected_ref:
            raise RuntimeError("the reference task changed its result")
        return t1 - t0

    def run_op(i, item):
        t0 = now_ns()
        error = run_checked(lambda: body(item))
        return now_ns() - t0, error

    run_traced = None
    if trace:
        from tracer import Tracer, layer_metrics, write_spans

        tracer = Tracer()

        def run_traced(i, item):
            with tracer.op(i):
                return run_op(i, item)

    result = closed_loop(items, seconds, reference, run_op, run_traced)
    if trace:
        # Every engine_verify op is a full library verify.
        verify_ops = range(result["attempted"]) if workload == "engine_verify" else ()
        result["layers"] = layer_metrics(tracer.spans, verify_ops)
        write_spans(tracer.spans, argv[4])
    result["attempted"] += len(cycle)
    result["errors"] += [f"memory cycle: {e}" for e in cycle_errors if e is not None]
    result["peak_rss_kib"] = peak_rss_kib
    sys.stdout.write(json.dumps(result) + "\n")
    return 0
