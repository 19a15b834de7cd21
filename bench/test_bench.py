"""Self-test of the benchmark harness.

    python3 -m pytest -q bench

Runs every workload at tiny sizes, checks that traced count metrics repeat
exactly, that the soundness case share agrees with the fuzz campaigns' own
results, that the recorded reference digests still match, that the meter
scales each call by the slowdowns measured around it, and that the
benchmark refuses to run without the sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import calibrate  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from licalloc import verify  # noqa: E402

COUNT_SUFFIXES = ("calls_per_op", "calls_per_candidate", "pool_size_mean")


def is_count_metric(name: str) -> bool:
    return name.endswith(COUNT_SUFFIXES) or (name.endswith("_share") and not name.endswith("self_share"))


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_smoke_run(name):
    workload = workloads.WORKLOADS[name](workloads.TINY)
    result = run.measure(workload, seed=3, seconds=0.01)
    assert result["correct"], result["detail"]
    assert result["detail"]["reference_matches"]
    assert result["detail"]["passes"] == 1
    assert result["attempted"] > 0 and result["failed"] == 0
    assert set(result["metrics"]) == set(run.END_TO_END_UNITS)
    assert all(value > 0 for value in result["metrics"].values())


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_traced_counts_repeat(name):
    first, second = (
        run.measure_traced(workloads.WORKLOADS[name](workloads.TINY), seed=3, seconds=0.01) for _ in range(2)
    )
    assert first["correct"] and second["correct"]
    assert set(first["metrics"]) == {metric for metric, _ in tracing.per_layer_names()}
    counts = [k for k in first["metrics"] if is_count_metric(k)]
    assert len(counts) == 27
    assert [first["metrics"][k] for k in counts] == [second["metrics"][k] for k in counts]


def test_single_candidate_share_agrees_with_fuzz_reports():
    sizes = workloads.TINY
    result = run.measure_traced(workloads.Fuzz(sizes), seed=5, seconds=0.01)
    single = total = reported = 0
    for k in range(sizes.trace_chunks["fuzz"]):
        generator = verify.InstanceGenerator(workloads.FUZZ_CAPS, seed=workloads.chunk_seed(5, k), profile="general")
        report = verify.fuzz_campaign(generator, 1, workloads.FUZZ_CHECKS)
        reported += report.passes.get("soundness", 0) + report.failures.get("soundness", 0)
        for _, _, check in verify.run_trial(generator.document(0), "proposed", ["soundness"]):
            total += 1
            single += check.case == "single_candidate"
    assert total == reported > 0
    assert result["metrics"]["verify.soundness.single_candidate_share"] == single / total


def test_meter_divides_each_call_by_the_slowdowns_around_its_block(monkeypatch):
    slowdowns = iter([2.0, 4.0, 1.0])
    monkeypatch.setattr(calibrate, "slowdown", lambda: next(slowdowns))
    monkeypatch.setattr(calibrate.Meter, "INTERVAL_S", 1e-12)  # a new block before every call but the first
    meter = calibrate.Meter()
    assert meter(sorted, [3, 1, 2]) == [1, 2, 3]
    meter(sum, [1, 2])
    first, second = meter.raw
    assert meter.finish() == [first * 2 / (2.0 + 4.0), second * 2 / (4.0 + 1.0)]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    command = json.loads((tmp_path / "BENCHMARK.json").read_text())["command"]
    proc = subprocess.run(
        [sys.executable, *command[1:], "--workload", "fuzz", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
