"""The fanoenum benchmark: one seeded, closed-loop, single-client workload per run.

Usage (from the root of a checkout):

    python3 bench/run.py --workload cli_mix|engine_verify|export_roundtrip \
        --seed N --seconds S --trace 0|1

Every op is interleaved with a reference task: a bare ``python -c pass`` for
``cli_mix``, a fixed pure-Python loop in-process.  On a shared 2-core
machine speed drifted by 20 % and more from one run to the next; the drift
moves both, and their ratio stayed within a few percent.  So most gated
metrics are reference-normalised (``op_x_ref_*``, ``setup_x_ref``), while the
absolute times are reported beside them.

With ``--trace 0`` the last stdout line is the result with the end-to-end
metrics; with ``--trace 1`` it carries the per-layer metrics of a traced run.
The lines above it report every metric with its unit and sample count, and
the environment.  Full results go to ``.bench_build/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
from statistics import median

import importtime
from common import (
    BENCH_DIR,
    BUILD,
    PACKAGE,
    PYCACHE,
    PYTHON,
    ROOT,
    BenchSetupError,
    benchmark_settings,
    child_env,
    closed_loop,
    load_golden,
    now_ns,
    require_package,
    tail_point,
    warm_bytecode_cache,
)
from tracer import layer_metrics, write_spans
from workloads import WORKLOADS, check_cli_output, cli_ops, is_full_verify

SETUP_RUNS = 16
IMPORT_RUNS = 7
RESULTS = BUILD / "results"
WORKER = BENCH_DIR / "worker.py"
TRACE_CLI = BENCH_DIR / "trace_cli.py"


# ------------------------------------------------------------- processes --


def run_timed(argv, env, stderr=subprocess.DEVNULL):
    """Run a process to its end; (wall ns, exit code, stdout, peak RSS KiB)."""
    t0 = now_ns()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=stderr, env=env, cwd=ROOT)
    try:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        proc.stdout.close()
    t1 = now_ns()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return t1 - t0, proc.returncode, out, usage.ru_maxrss


def start_worker(args, env):
    """Start a worker; return (process, ns from spawn to its ``ready`` line)."""
    t0 = now_ns()
    proc = subprocess.Popen(
        [PYTHON, str(WORKER), *args], stdout=subprocess.PIPE, env=env, cwd=ROOT
    )
    line = proc.stdout.readline()
    ready_ns = now_ns() - t0
    if line != b"ready\n":
        finish(proc, timeout=10)
        raise BenchSetupError(f"worker {args} did not start (exit {proc.returncode})")
    return proc, ready_ns


def finish(proc, timeout):
    """Read a process's remaining stdout and wait for it, killing it on timeout."""
    try:
        out, _ = proc.communicate(timeout=timeout)
    except BaseException:
        proc.kill()
        proc.communicate()
        raise
    return out


def setup_samples(workload, env, runs) -> tuple[list[float], list[float]]:
    """Time ``runs`` set-ups, each between two bare interpreter starts.

    Returns the set-up times in s and each one over the mean of the two
    ``python -c pass`` runs around it, which cancels a change of machine
    speed the way ``op_x_ref`` does for ops.
    """
    seconds, ratios = [], []
    ref_before = reference_ns(env)
    for _ in range(runs):
        proc, ready_ns = start_worker([workload, "--setup-only"], env)
        finish(proc, timeout=60)
        if proc.returncode != 0:
            raise BenchSetupError(f"set-up of {workload} exited {proc.returncode}")
        ref_after = reference_ns(env)
        seconds.append(ready_ns / 1e9)
        ratios.append(ready_ns / ((ref_before + ref_after) / 2))
        ref_before = ref_after
    return seconds, ratios


def reference_ns(env) -> int:
    """Wall time of a bare ``python -c pass``, the reference of process starts."""
    return run_timed([PYTHON, "-c", "pass"], env)[0]


# ------------------------------------------------------------- workloads --


def run_cli_mix(seed, seconds, trace, env, golden, spans_path) -> dict:
    stderr_path = BUILD / "cli-stderr.txt"
    spans, verify_ops, rss = [], set(), []  # rss: ru_maxrss of each fanoenum process

    def reference():
        return reference_ns(env)

    with open(stderr_path, "w+b") as stderr:

        def run(argv):
            stderr.seek(0)
            stderr.truncate()
            return run_timed(argv, env, stderr)

        def stderr_tail():
            stderr.seek(0)
            return stderr.read().decode("utf-8", "replace").strip()[-200:]

        def run_op(i, argv):
            ns, code, out, maxrss = run([PYTHON, "-m", "fanoenum", *argv])
            rss.append(maxrss)
            error = check_cli_output(argv, code, hashlib.sha256(out).hexdigest(), golden)
            return ns, f"{error}: {stderr_tail()}" if error and code else error

        def run_traced(i, argv):
            ns, code, out, _ = run([PYTHON, str(TRACE_CLI), *argv])
            if code != 0:
                return ns, f"traced run exited {code}: {stderr_tail()}"
            child = json.loads(out)
            offset = len(spans)
            for name, start, end, parent, _, note in child["spans"]:
                spans.append((name, start, end, parent + offset if parent >= 0 else -1, i, note))
            if is_full_verify(argv):
                verify_ops.add(i)
            return ns, check_cli_output(argv, child["returncode"], child["stdout_sha256"], golden)

        samples = closed_loop(
            cli_ops(seed), seconds, reference, run_op, run_traced if trace else None
        )
    samples["peak_rss_kib"] = max(rss) if rss else 0
    if trace:
        samples["layers"] = layer_metrics(spans, verify_ops)
        write_spans(spans, spans_path)
    return samples


def run_inproc(workload, seed, seconds, trace, env, spans_path) -> dict:
    args = [workload, str(seed), str(seconds), "1" if trace else "0"]
    if trace:
        args.append(str(spans_path))
    proc, _ = start_worker(args, env)
    out = finish(proc, timeout=seconds + 150)
    if proc.returncode != 0:
        raise BenchSetupError(f"{workload} worker exited {proc.returncode}")
    return json.loads(out.decode("utf-8").strip().splitlines()[-1])


# ----------------------------------------------------------------- report --


def src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(PACKAGE.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(PACKAGE)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, check=False
    )
    return done.stdout.decode().strip() or None


def environment(seed) -> dict:
    return {
        "python": platform.python_version(),
        "executable": PYTHON,
        "bytecode": "warm cache",
        "pycache_prefix": str(PYCACHE.relative_to(ROOT)),
        "inherited_PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "loadavg_start": os.getloadavg(),
        "seed": seed,
        "git_commit": git_commit(),
        "src_sha256": src_digest(),
        "platform": platform.platform(),
    }


def end_to_end(samples, setup, setup_ref) -> tuple[dict, dict]:
    """The gated metrics and the full report (absolute times, counts).

    Each op is divided by the mean of the two references run just before and
    just after it, so a change of machine speed within the run cancels op by
    op; the ratio metrics are the median and the tail of those ratios.
    ``setup_x_ref`` does the same for set-ups, against bare interpreter starts.
    """
    ops, refs = samples["op_ns"], samples["ref_ns"]
    paired = samples["op_ref"]
    op_p50 = median(ops)
    op_tail = tail_point(ops) or ("50", op_p50, 0)
    ratio_tail = tail_point(paired) or ("50", median(paired), 0)
    failed = len(samples["errors"])
    gated = {
        "op_x_ref_p50": (median(paired), "ratio"),
        "op_x_ref_tail": (ratio_tail[1], "ratio"),
        "setup_x_ref": (median(setup_ref), "ratio"),
        "setup_s": (median(setup), "s"),
        "peak_rss_kib": (float(samples["peak_rss_kib"]), "KiB"),
    }
    report = dict(gated)
    report.update(
        {
            "op_ms_p50": (op_p50 / 1e6, "ms"),
            "op_ms_tail": (op_tail[1] / 1e6, "ms"),
            "ops_per_s": (len(ops) / (sum(ops) / 1e9), "1/s"),
            "ops_failed_ratio": (failed / samples["attempted"], "ratio"),
        }
    )
    counts = {
        "ops": len(ops),
        "refs": len(refs),
        "ref_ms_p50": median(refs) / 1e6,
        "tail_percentile": ratio_tail[0],
        "tail_samples_beyond": ratio_tail[2],
        "setup_runs": len(setup),
    }
    return gated, {"metrics": report, "samples": counts}


def trace_layers(samples, import_layers) -> dict[str, float]:
    layers = dict(import_layers)
    layers.update(samples["layers"])
    layers["ref.us"] = median(samples["ref_ns"]) / 1000
    traced, untraced = samples["traced_ns"], samples["op_ns"]
    layers["trace.overhead_ratio"] = (sum(traced) / len(traced)) / (
        sum(untraced) / len(untraced)
    )
    return layers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    trace = args.trace == 1
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans_path = RESULTS / f"{stem}.spans.jsonl"
    try:
        require_package()
        golden = load_golden()
        RESULTS.mkdir(parents=True, exist_ok=True)
        env = child_env(args.seed)
        warm_bytecode_cache(env)
        env_block = environment(args.seed)
        # Half the set-ups run before the loop and half after, so that their
        # median sees the machine as the whole run does.
        setup, setup_ref = setup_samples(args.workload, env, SETUP_RUNS // 2)
        import_layers, preloaded = importtime.probe(env, IMPORT_RUNS) if trace else ({}, [])
        if args.workload == "cli_mix":
            samples = run_cli_mix(args.seed, args.seconds, trace, env, golden, spans_path)
        else:
            samples = run_inproc(args.workload, args.seed, args.seconds, trace, env, spans_path)
        more, more_ref = setup_samples(args.workload, env, SETUP_RUNS - len(setup))
        setup += more
        setup_ref += more_ref
    except BenchSetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    env_block["loadavg_end"] = os.getloadavg()
    if not samples["op_ns"] or (trace and not samples["traced_ns"]):
        print("error: no op completed", file=sys.stderr)
        return 2

    gated, report = end_to_end(samples, setup, setup_ref)
    failed = len(samples["errors"])
    print(f"# environment {json.dumps(env_block)}")
    for error in samples["errors"][:5]:
        print(f"# failed {error}")
    counts = report["samples"]
    print(
        f"# {args.workload}: {counts['ops']} untraced ops, {counts['refs']} references "
        f"(median {counts['ref_ms_p50']:.3f} ms), tail = p{counts['tail_percentile']} "
        f"with {counts['tail_samples_beyond']} samples beyond, {counts['setup_runs']} set-ups"
    )
    if trace:
        layers = trace_layers(samples, import_layers)
        print(f"# site_preloaded {' '.join(preloaded)}")
        for name, value in layers.items():
            print(f"# layer {name} = {value:.6g}")
        units = {m["name"]: m["unit"] for m in benchmark_settings()["per_layer"]}
        metrics = {name: {"value": v, "unit": units[name]} for name, v in layers.items()}
    else:
        layers = {}
        for name, (value, unit) in report["metrics"].items():
            print(f"# metric {name} = {value:.6g} {unit}")
        metrics = {name: {"value": v, "unit": unit} for name, (v, unit) in gated.items()}

    full = {
        "workload": args.workload,
        "environment": env_block,
        "report": report,
        "layers": layers,
        "site_preloaded": preloaded,
        "errors": samples["errors"],
        "samples": {"setup_s": setup, "setup_x_ref": setup_ref}
        | {k: samples[k] for k in ("op_ns", "ref_ns", "op_ref", "traced_ns")},
    }
    (RESULTS / f"{stem}.json").write_text(json.dumps(full, indent=1) + "\n", encoding="utf-8")
    result = {
        "correct": failed == 0,
        "attempted": samples["attempted"],
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
