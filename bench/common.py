"""Paths, child-process environment, statistics and the reference task.

Everything the benchmark writes goes under ``.bench_build/`` at the root of
the checkout: the bytecode cache the measured processes use, the per-run
result files and the span dumps of traced runs.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
PACKAGE = SRC / "fanoenum"
BUILD = ROOT / ".bench_build"
PYCACHE = BUILD / "pycache"
GOLDEN_PATH = BENCH_DIR / "golden.json"
SETTINGS_PATH = ROOT / "BENCHMARK.json"

# The real interpreter binary: a launcher shim in front of it (pyenv, say)
# would add its own start-up cost to every measured process.
PYTHON = sys.executable

# Percentiles a tail may be reported at; see tail_point.  The grid is coarse
# so that the usual spread of op counts between runs of one workload does
# not move its tail from one percentile to the next.
TAIL_PERCENTILES = ("50", "90", "99", "99.9")
TAIL_MIN_BEYOND = 10


class BenchSetupError(RuntimeError):
    """The benchmark cannot run in this checkout (no package source, bad golden file)."""


def child_env(seed: int) -> dict[str, str]:
    """Environment of every process that runs the package.

    Bytecode is read from (and on the first run written to) a cache under
    ``.bench_build/pycache``, the state an installed package is in.  Only
    the checkout's ``src`` is importable, so no other copy of the package can
    be measured by mistake.  The string-hash seed follows the workload seed.
    """
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.pop("FANO_GROUND_TRUTH", None)
    env["PYTHONPYCACHEPREFIX"] = str(PYCACHE)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = str(seed % (2**32))
    return env


def require_package() -> None:
    if not (PACKAGE / "__init__.py").is_file():
        raise BenchSetupError(f"no package source at {PACKAGE}")


def warm_bytecode_cache(env: dict[str, str]) -> str:
    """Run the package once so every module it imports is cached; return its path."""
    probe = (
        "import fanoenum, fanoenum.cli, fanoenum.__main__, runpy;"
        "print(fanoenum.__file__)"
    )
    done = subprocess.run(
        [PYTHON, "-c", probe], env=env, cwd=ROOT, capture_output=True, check=False
    )
    subprocess.run([PYTHON, "-c", "pass"], env=env, cwd=ROOT, check=False)
    location = done.stdout.decode().strip()
    if done.returncode != 0 or not location.startswith(str(PACKAGE)):
        raise BenchSetupError(
            f"fanoenum did not import from {PACKAGE}: {done.stderr.decode()[-500:]}"
        )
    return location


def tail_point(values) -> tuple[str, float, int] | None:
    """The highest listed percentile that has at least ten samples beyond it.

    Returns (percentile, value, samples beyond) by the nearest-rank rule, or
    None when there are too few samples for any percentile to qualify.
    """
    xs = sorted(values)
    n = len(xs)
    best = None
    for pct in TAIL_PERCENTILES:
        rank = max(1, math.ceil(Fraction(pct) * n / 100))
        beyond = n - rank
        if beyond >= TAIL_MIN_BEYOND:
            best = (pct, float(xs[rank - 1]), beyond)
    return best


# Reference work timed beside every in-process op.  It is plain bytecode on
# small ints, tuples and a dict, like the engine, so a change in machine
# speed moves both and cancels in their ratio.  Its size is fixed for good:
# changing it changes every op_x_ref figure.
REFERENCE_ROUNDS = 6000


def reference_task(rounds: int = REFERENCE_ROUNDS) -> int:
    acc = 0
    table: dict[tuple[int, int], int] = {}
    for i in range(rounds):
        key = (i % 97, i % 89)
        table[key] = table.get(key, 0) + i * 3 // 7
        acc = (acc * 31 + table[key] + len(table)) % 1000003
    return acc


def load_golden() -> dict:
    try:
        return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise BenchSetupError(f"cannot read {GOLDEN_PATH}: {exc}") from exc


def benchmark_settings() -> dict:
    return json.loads(SETTINGS_PATH.read_text(encoding="utf-8"))


now_ns = time.perf_counter_ns


def closed_loop(items, seconds, reference, run_op, run_traced=None) -> dict:
    """One client: a reference, then an op, repeated until ``seconds`` pass.

    ``reference()`` returns its own duration in ns; ``run_op(i, item)`` and
    ``run_traced(i, item)`` return (duration in ns, error or None).  With a
    traced runner every second op is traced, so traced and untraced ops see
    the same conditions.  A last reference closes the loop, so every op sits
    between two references; ``op_ref`` holds each untraced op's time over
    their mean.  Returns the samples and the failures.
    """
    out = {"op_ns": [], "ref_ns": [], "traced_ns": [], "errors": [], "attempted": 0}
    untraced_at = []
    deadline = now_ns() + int(seconds * 1e9)
    for i, item in enumerate(items):
        if now_ns() >= deadline:
            break
        out["ref_ns"].append(reference())
        traced = run_traced is not None and i % 2 == 1
        ns, error = (run_traced if traced else run_op)(i, item)
        if traced:
            out["traced_ns"].append(ns)
        else:
            out["op_ns"].append(ns)
            untraced_at.append(i)
        out["attempted"] += 1
        if error is not None:
            out["errors"].append(f"op {i}: {error}")
    out["ref_ns"].append(reference())
    refs = out["ref_ns"]
    out["op_ref"] = [
        ns / ((refs[i] + refs[i + 1]) / 2) for ns, i in zip(out["op_ns"], untraced_at)
    ]
    return out
