"""Tests of the benchmark itself.  Run: python3 -m pytest -q bench/tests"""

import fnmatch
import hashlib
import itertools
import json
import math
import random
import subprocess
from fractions import Fraction
from types import SimpleNamespace

import fanoenum
import pytest

import importtime
from common import (
    BENCH_DIR,
    PYTHON,
    ROOT,
    TAIL_MIN_BEYOND,
    TAIL_PERCENTILES,
    child_env,
    closed_loop,
    load_golden,
    tail_point,
)
from tracer import Tracer, layer_metrics
from workloads import (
    CLI_ARGVS,
    CLI_FAMILIES,
    argv_key,
    check_cli_output,
    cli_ops,
    engine_op,
    engine_ops,
    export_op,
    export_ops,
    export_tables,
    run_checked,
)

GOLDEN = load_golden()
# End-to-end metrics every run prints but BENCHMARK.json does not gate.
REPORTED_ONLY = {"op_ms_p50", "op_ms_tail", "ops_per_s", "ops_failed_ratio"}


def _take(items, n=300):
    return list(itertools.islice(items, n))


@pytest.fixture(scope="module")
def tables():
    return export_tables(fanoenum)


def test_same_seed_gives_same_op_sequence(tables):
    for make in (cli_ops, engine_ops, lambda s: export_ops(s, tables)):
        assert _take(make(7)) == _take(make(7))
        assert _take(make(7)) != _take(make(8))


def test_cli_mix_draws_only_argvs_with_goldens():
    drawn = {argv_key(a) for a in _take(cli_ops(3), 2000)}
    assert drawn == {argv_key(a) for a in CLI_ARGVS}
    assert drawn <= set(GOLDEN["cli_stdout_sha256"])


def test_cli_mix_is_even_by_subcommand_and_variant():
    ops = _take(cli_ops(5), 1200)
    for family, variants in CLI_FAMILIES.items():
        assert sum(a[0] == family for a in ops) == 300
        for argvs in variants:
            share = sum(a in argvs for a in ops) / 300
            assert abs(share - 1 / len(variants)) < 0.01, (family, argvs[0])


@pytest.mark.parametrize("n", [20, 21, 99, 100, 101, 999, 1000, 1001, 5000, 20000])
def test_tail_point_keeps_ten_samples_beyond(n):
    rng = random.Random(n)
    values = [rng.random() for _ in range(n)]
    pct, value, beyond = tail_point(values)
    xs = sorted(values)
    assert beyond >= TAIL_MIN_BEYOND
    assert sum(1 for x in xs if x > value) == beyond
    for higher in TAIL_PERCENTILES[TAIL_PERCENTILES.index(pct) + 1 :]:
        rank = math.ceil(Fraction(higher) * n / 100)
        assert n - rank < TAIL_MIN_BEYOND


def test_tail_point_needs_enough_samples():
    assert tail_point(range(19)) is None
    assert tail_point(range(20)) == ("50", 9.0, 10)


def test_corrupted_golden_is_a_failed_op():
    argv = ("verify",)
    good = GOLDEN["cli_stdout_sha256"][argv_key(argv)]
    out = subprocess.run(
        [PYTHON, "-m", "fanoenum", *argv], env=child_env(0), cwd=ROOT, capture_output=True
    )
    digest = hashlib.sha256(out.stdout).hexdigest()
    assert check_cli_output(argv, out.returncode, digest, GOLDEN) is None
    corrupted = {"cli_stdout_sha256": {argv_key(argv): good[::-1]}}
    assert check_cli_output(argv, out.returncode, digest, corrupted) is not None
    assert check_cli_output(argv, 1, digest, GOLDEN) == "exit 1"


def test_corrupted_emit_golden_is_a_failed_op(tables):
    assert export_op(fanoenum, "truth:2", tables["truth:2"], GOLDEN) is None
    corrupted = json.loads(json.dumps(GOLDEN))
    corrupted["emit_sha256"]["truth:2"]["csv"] = "0" * 64
    assert "csv" in export_op(fanoenum, "truth:2", tables["truth:2"], corrupted)


def test_nonempty_diff_is_a_failed_op():
    stub = SimpleNamespace(
        enumerate_all=fanoenum.enumerate_all,
        ground_truth=fanoenum.ground_truth,
        diff=lambda records, rows: fanoenum.DiffReport(missing=("2-1",)),
    )
    assert engine_op(fanoenum, next(engine_ops(0))) is None
    assert "non-empty diff" in engine_op(stub, next(engine_ops(0)))


def test_failing_ops_do_not_stop_the_loop():
    def boom():
        raise KeyError("x")

    def run_op(i, item):
        return 1, run_checked(boom if i % 3 == 0 else (lambda: None))

    result = closed_loop(range(30), 5.0, lambda: 1, run_op)
    assert result["attempted"] == 30
    assert len(result["errors"]) == 10
    assert "KeyError" in result["errors"][0]


def test_tracer_wraps_every_binding_and_restores_them():
    tracer = Tracer()
    bound = tracer.bound_names()
    for name in (
        "fanoenum.ground_truth",
        "fanoenum.table_oracle.ground_truth",
        "fanoenum.cli.ground_truth",
        "fanoenum.cli.diff",
        "fanoenum.cli.emit",
        "fanoenum.cli.enumerate_all",
        "fanoenum.enumerator.triple_product",
        "fanoenum.enumerator.genus_from_blowup",
        "fanoenum.enumerator.mu_of",
        "fanoenum.ray_constraints.mu_of",
        "fanoenum.cli.run",
    ):
        assert name in bound
    original = fanoenum.cli.ground_truth
    with tracer.op(0):
        assert fanoenum.cli.ground_truth is not original
        fanoenum.cli.run(["chern", "xi-square", "-3"])
    assert fanoenum.cli.ground_truth is original


def test_fresh_cli_verify_parses_the_truth_four_times():
    out = subprocess.run(
        [PYTHON, str(BENCH_DIR / "trace_cli.py"), "verify"],
        env=child_env(0), cwd=ROOT, capture_output=True, check=True,
    )
    child = json.loads(out.stdout)
    assert child["stdout_sha256"] == GOLDEN["cli_stdout_sha256"]["verify"]
    spans = [tuple(s) for s in child["spans"]]
    layers = layer_metrics(spans, {0})
    assert layers["table_oracle.parse_rows.calls_per_verify"] == 4
    assert layers["table_oracle.parse_rows.useful_ratio"] == 0.25
    assert layers["table_oracle.diff.mismatches"] == 0
    assert layers["enumerator.solve_E1_D.D1.records"] == 7
    assert layers["cli.run.self_us"] > 0


def test_self_time_subtracts_children():
    spans = [
        ("op", 0, 100, -1, 0, None),
        ("enumerator.enumerate_all", 10, 60, 0, 0, 3),
        ("ray_constraints.mu_of", 20, 30, 1, 0, None),
        ("table_oracle.parse_rows", 60, 90, 0, 0, 11),
    ]
    layers = layer_metrics(spans)
    assert layers["enumerator.enumerate_all.self_us"] == 40 / 1000
    assert layers["ray_constraints.self_us_per_op"] == 10 / 1000
    assert layers["trace.coverage_ratio"] == 80 / 100


def test_importtime_keeps_site_imports_apart():
    log = "\n".join(
        [
            "import time: self [us] | cumulative | imported package",
            "import time:       100 |        100 |     pathlib",
            "import time:       200 |        300 |   importlib.resources",
            "import time:        50 |        350 | site",
            "import time:        40 |         40 |     json",
            "import time:        30 |         70 |   fanoenum.table_oracle",
            "import time:        20 |         90 | fanoenum",
            "import time:         5 |          5 | argparse",
        ]
    )
    parsed = importtime.parse(log)
    assert parsed["preloaded"] == {"pathlib": 100, "importlib.resources": 200, "site": 50}
    assert parsed["charged"] == {"json": 40, "fanoenum.table_oracle": 30, "fanoenum": 20, "argparse": 5}
    assert parsed["package_cumulative_us"] == 95


def test_layer_map_covers_every_reported_layer_once():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    layers = json.loads((BENCH_DIR / "layer_map.json").read_text())["layers"]
    names = [m["name"] for m in bench["per_layer"]]
    spans = [("op", 0, 1, -1, 0, None)]
    produced = set(layer_metrics(spans)) | {"ref.us", "trace.overhead_ratio"}
    produced |= {f"import.{m}.self_us" for m in importtime.IMPORT_MODULES}
    produced |= {"import.package.cumulative_us", "import.site_preloaded.us"}
    assert produced == set(names)
    for name in names:
        assert sum(fnmatch.fnmatchcase(name, key) for key in layers) == 1, name
    workloads = {w["name"] for w in bench["workloads"]}
    metrics = {m["name"] for m in bench["end_to_end"]} | REPORTED_ONLY
    for key, entry in layers.items():
        assert any(fnmatch.fnmatchcase(name, key) for name in names), key
        assert set(entry["moves"]) <= workloads, key
        for moved in entry["moves"].values():
            assert {m.split(" ")[0] for m in moved} <= metrics, key
