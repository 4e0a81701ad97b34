"""Self-test of the benchmark, at the smallest size of every workload.

Run with ``python3 -m pytest -q bench/test_bench.py`` from the repository
root. It is not part of the tier-1 suite, whose test path is ``tests/``.
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import reference
import run
import workloads

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SECONDS = 0.2


def _units(key):
    return {m["name"]: m["unit"] for m in SPEC[key]}


def test_spec_matches_the_metrics_the_benchmark_prints():
    assert _units("end_to_end") == run.END_TO_END
    assert _units("per_layer") == run.PER_LAYER
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_every_metric_present_with_its_unit(name, trace):
    report = run.measure(name, run.DEFAULT_SEED, SECONDS, trace, size="small", expected=run.load_digests())
    line = json.loads(run.result_line(report))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1, report["problems"]
    wanted = _units("per_layer" if trace else "end_to_end")
    assert {k: m["unit"] for k, m in line["metrics"].items()} == wanted
    assert all(isinstance(m["value"], (int, float)) for m in line["metrics"].values())
    assert report["digest_pinned"]
    assert report["units"] >= 1 and report["time_scale"] > 0
    if not trace:
        assert set(report["unscaled"]) == set(line["metrics"])
        assert line["metrics"]["peak_rss_mb"]["value"] == report["unscaled"]["peak_rss_mb"]


def test_scale_uses_the_units_during_or_around_an_interval():
    sampler = reference.Sampler()
    sampler.unit_times = [1e-3] * 30 + [0.5e-3] * 30   # a unit took 1 ms, then 0.5 ms
    unit = reference.UNIT_MS
    assert sampler.scale(0, 30) == pytest.approx(unit / 1.0)
    assert sampler.scale(30, 60) == pytest.approx(unit / 0.5)
    assert sampler.scale(40, 40) == pytest.approx(unit / 0.5)    # no unit during it: 20 around it
    assert sampler.scale(30, 30) == pytest.approx(unit / 0.75)   # 10 on either side
    assert sampler.scale(0, 0) == pytest.approx(unit / 1.0)      # only the later 10 exist


def test_sampler_clock_leaves_out_the_units():
    with reference.Sampler() as sampler:
        t0, c0, b0 = time.perf_counter(), sampler.now(), sampler.busy
        while time.perf_counter() - t0 < 0.3:
            pass
        t1, c1, b1 = time.perf_counter(), sampler.now(), sampler.busy
    assert len(sampler.unit_times) >= 5
    assert b1 > b0
    assert c1 - c0 == pytest.approx((t1 - t0) - (b1 - b0), abs=1e-4)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_corrupted_digest_shows_as_failed_op(name):
    expected = run.load_digests()
    first = expected[name]["small"][0]
    expected[name]["small"][0] = ("0" if first[0] != "0" else "1") + first[1:]
    report = run.measure(name, run.DEFAULT_SEED, SECONDS, False, size="small", expected=expected)
    line = json.loads(run.result_line(report))
    assert not line["correct"]
    assert line["failed"] == 1 and line["attempted"] >= 1
    assert "differs from the pinned" in report["problems"][0]


def test_other_seeds_are_checked_but_not_pinned():
    report = run.measure("stationarity-batch", run.DEFAULT_SEED + 1, SECONDS, False, size="small",
                         expected=run.load_digests())
    assert report["failed"] == 0 and not report["digest_pinned"]


def test_tail_is_the_interpolated_p90_with_its_sample_counts():
    assert run.tail([float(x) for x in range(101)]) == (90.0, 10, 101)
    assert run.tail([1.0, 2.0, 3.0]) == (2.8, 1, 3)
    assert run.tail([5.0]) == (5.0, 0, 1)


def test_command_prints_result_as_last_line():
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "coupling-mixed", "--seed", "5",
         "--seconds", str(SECONDS), "--trace", "1", "--size", "small"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert line["correct"] and set(line["metrics"]) == set(run.PER_LAYER)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "scale-2048", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
