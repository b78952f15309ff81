"""Tests of the benchmark itself, on shrunken workloads (a few seconds each):

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from refclock import RefClock  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
GOLDEN_SUITE_SEED0 = "9387769ac34969ffc4f89dc5d92fe46494e960a6db7f54cbe249fed1080713a5"


def worker(*args: str) -> dict:
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args],
                          capture_output=True, text=True, timeout=300, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def fail_frac(result: dict) -> float:
    return result["failed"] / result["attempted"]


def small(workload: str, seed: int = 0, *extra: str) -> dict:
    return worker("--workload", workload, "--seed", str(seed), "--n-max", "2", *extra)


@pytest.mark.parametrize("workload", ["suite-default", "wz-deep", "rings"])
def test_unmutated_small_runs_pass(workload):
    result = small(workload)
    assert result["correct"], result["problems"]
    assert result["attempted"] > 0
    assert fail_frac(result) == 0


def test_wz_pole_rows_are_failed_operations():
    # At seed 3 the thm3 draws include positive integers p, for which the
    # boundary value G(n, n+2) needs binom(n-p, -2), an indeterminate 0/0;
    # the package reports those draws as fail rows.
    result = small("wz-deep", 3)
    assert result["correct"], result["problems"]
    assert result["failed"] == 3
    assert all("WZ-thm3" in f and "indeterminate" in f for f in result["failures"])


def test_mutated_catalog_raises_fail_frac():
    result = small("suite-default", 0, "--mutate", "id24-flip-h2n")
    assert fail_frac(result) > fail_frac(small("suite-default"))
    assert result["failures"] and all(f.startswith("ID24 ") for f in result["failures"])


@pytest.mark.parametrize("workload", ["wz-deep", "rings"])
def test_scaled_certificate_raises_fail_frac(workload):
    result = small(workload, 0, "--mutate", "scale-cert:2")
    assert fail_frac(result) > fail_frac(small(workload))
    if workload == "rings":
        # a residual that is not zero is wrong output, not one failed check
        assert not result["correct"]
        assert any(p.startswith("residual:") for p in result["problems"])
        assert fail_frac(result) == 1


def test_digest_mismatch_fails_the_run(tmp_path):
    key = "wz --n-max 2 --format json --seed 0"
    golden = tmp_path / "golden.json"
    args = ("--workload", "wz-deep", "--seed", "0", "--n-max", "2", "--golden", str(golden))
    golden.write_text(json.dumps({key: {"sha256": "0" * 64, "overruns": []}}))
    result = worker(*args)
    assert result["golden_key"] == key
    assert result["golden"] == "mismatch"
    assert not result["correct"]
    assert result["failed"] == result["attempted"]

    golden.write_text(json.dumps({key: {"sha256": result["digest"], "overruns": []}}))
    result = worker(*args)
    assert result["golden"] == "match"
    assert result["correct"]


def test_golden_table_pins_the_default_suite():
    table = json.loads((HERE / "golden.json").read_text())
    assert table["suite --format json --seed 0"] == {"sha256": GOLDEN_SUITE_SEED0,
                                                     "overruns": []}


def test_deadline_overrun_counts_as_failed_operation():
    # ID02 at n = 8 takes about 0.5 s over RatFunc; the fast checks take ms
    result = worker("--workload", "rings", "--seed", "0", "--n-max", "8",
                    "--deadline", "0.25")
    assert "ratfunc:ID02:8" in result["overruns"]
    assert result["correct"], result["problems"]
    assert result["failed"] == len(result["overruns"])
    assert "ratfunc:ID02:8: deadline overrun" in " ".join(result["failures"])
    assert fail_frac(result) > 0


def test_layer_metrics_cover_every_per_layer_name(tmp_path):
    common = ("--workload", "rings", "--seed", "1", "--n-max", "4")
    plain = worker(*common)
    spans = worker(*common, "--mode", "spans", "--spans-out", str(tmp_path / "spans.tsv"))
    counted = worker(*common, "--mode", "count")
    metrics = run.layer_metrics(plain, spans, counted)
    assert list(metrics) == list(run.per_layer_units())
    assert metrics["poly.poly_gcd.calls"] == counted["counts"]["poly_gcd"]
    assert (tmp_path / "spans.tsv").read_text().startswith("index\tname\ttag")


def test_metric_names_and_benchmark_json_agree():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    assert end_to_end == run.END_TO_END_UNITS
    assert per_layer == run.per_layer_units()
    for name in [*end_to_end, *per_layer, *(w["name"] for w in bench["workloads"])]:
        assert NAME.fullmatch(name) and len(name) <= 64, name
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "rings",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_reference_seconds_grow_with_the_work():
    # twice the package's own Fraction work must read about twice the
    # reference seconds: the clock's yardstick runs in the same process and
    # must not divide a slowdown of the program out
    sys.path.insert(0, str(HERE.parent / "src"))
    from fractions import Fraction
    from binomsums.exact import binom_poly

    def work(times):
        for _ in range(times):
            for j in range(40):
                for k in range(40):
                    binom_poly(Fraction(2 * j + 1, 7), k)   # not cached

    def ref_seconds(times):
        clock = RefClock()
        clock.start()
        start = time.perf_counter()
        work(times)
        end = time.perf_counter()
        clock.stop()
        return clock.ref_seconds(start, end)

    once, twice = ref_seconds(3), ref_seconds(6)
    assert 1.8 < twice / once < 2.3, (once, twice)
