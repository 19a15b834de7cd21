import argparse
import importlib.util
from pathlib import Path

import pytest

spec = importlib.util.spec_from_file_location(
    "bench_pair", Path(__file__).resolve().parent.parent / "tools" / "bench_pair.py"
)
bench_pair = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pair)


def test_seed_ranges():
    assert bench_pair.parse_seeds("100-103") == [100, 101, 102, 103]
    assert bench_pair.parse_seeds("9001") == [9001]
    assert bench_pair.parse_seeds("1,5-6") == [1, 5, 6]


@pytest.mark.parametrize("seeds", ["109-100", ""])
def test_a_seed_list_naming_no_seed_is_a_usage_error(seeds, monkeypatch, capsys):
    with pytest.raises(argparse.ArgumentTypeError):
        bench_pair.parse_seeds(seeds)

    def export(rev, into):
        raise AssertionError("the base tree was exported before the seeds were checked")

    monkeypatch.setattr(bench_pair, "export", export)
    with pytest.raises(SystemExit) as exit_:
        bench_pair.main(["--label", "x", "--workload", "fuzz", "--seeds", seeds])
    assert exit_.value.code == 2
    assert "--seeds" in capsys.readouterr().err


@pytest.mark.parametrize("workload", ["all", "streamwide", ""])
def test_a_workload_the_benchmark_does_not_declare_is_a_usage_error(workload, monkeypatch, capsys):
    def export(rev, into):
        raise AssertionError("the base tree was exported before the workload was checked")

    monkeypatch.setattr(bench_pair, "export", export)
    with pytest.raises(SystemExit) as exit_:
        bench_pair.main(["--label", "x", "--workload", "fuzz", "--workload", workload, "--seeds", "100"])
    assert exit_.value.code == 2
    assert "--workload" in capsys.readouterr().err


def run(value, failed=0):
    return {"correct": True, "attempted": 10, "failed": failed, "metrics": {"op_p50_us": value, "ops_per_s": 1e6 / value}}


BOUNDS = {"op_p50_us": 0.25, "ops_per_s": 0.25}


def test_summary_counts_wins_in_each_metric_direction():
    pairs = [{"seed": s, "first": "base", "base": run(b), "change": run(c)} for s, (b, c) in enumerate(
        [(100, 60), (110, 62), (105, 61), (98, 99), (102, 58)]
    )]
    summary = bench_pair.summarize(pairs, {"op_p50_us": "lower", "ops_per_s": "higher"}, BOUNDS)
    p50 = summary["op_p50_us"]
    assert p50["wins"] == summary["ops_per_s"]["wins"] == 4
    assert p50["pairs"] == 5
    assert p50["base"] == {"median": 102, "q1": 100, "q3": 105}
    assert p50["change"]["median"] == 61
    assert p50["median_gain_exceeds_base_iqr"]
    assert summary["ops_per_s"]["median_gain_exceeds_base_iqr"]


def test_a_gain_within_the_base_spread_is_not_claimed():
    pairs = [{"seed": s, "first": "base", "base": run(b), "change": run(c)} for s, (b, c) in enumerate(
        [(100, 99), (120, 119), (80, 79)]
    )]
    summary = bench_pair.summarize(pairs, {"op_p50_us": "lower"}, BOUNDS)
    assert summary["op_p50_us"]["wins"] == 3
    assert not summary["op_p50_us"]["median_gain_exceeds_base_iqr"]



@pytest.mark.parametrize(
    "change, p50_within, ops_within",
    [
        ((125, 125, 125), True, True),  # p50 25% worse, at its bound; ops_per_s 20% worse
        ((126, 124, 127), False, True),  # median p50 126: past its bound
        ((140, 130, 134), False, False),  # ops_per_s 1e6/134: more than 25% worse
        ((50, 60, 70), True, True),  # a gain is always within
    ],
)
def test_within_bound_compares_medians_against_the_metric_bound(change, p50_within, ops_within):
    pairs = [{"seed": s, "first": "base", "base": run(100), "change": run(c)} for s, c in enumerate(change)]
    summary = bench_pair.summarize(pairs, {"op_p50_us": "lower", "ops_per_s": "higher"}, BOUNDS)
    assert summary["op_p50_us"]["within_bound"] is p50_within
    assert summary["ops_per_s"]["within_bound"] is ops_within


@pytest.mark.parametrize(
    "base, change, unresolved",
    [
        ((100, 101, 99, 100), (130, 70, 100, 110), False),  # base quartiles 0.5 apart: within the bound
        ((40, 100, 160, 100), (101, 99, 100, 102), True),  # base quartiles 30 apart, past the 25% bound
        ((40, 100, 160, 100), (30, 35, 38, 20), False),  # every change run beats every base run
    ],
)
def test_a_metric_noisier_than_its_bound_is_unresolved(base, change, unresolved):
    pairs = [{"seed": s, "first": "base", "base": run(b), "change": run(c)} for s, (b, c) in enumerate(zip(base, change))]
    summary = bench_pair.summarize(pairs, {"op_p50_us": "lower"}, BOUNDS)
    assert summary["op_p50_us"]["unresolved"] is unresolved


@pytest.mark.parametrize(
    "change, change_failed, claimable",
    [
        ((60,) * 9 + (101,), 0, True),  # 9 wins of 10
        ((60,) * 8 + (101, 101), 0, False),  # 8 wins of 10
        ((60,) * 9, 0, False),  # 9 of 9: too few pairs
        ((60,) * 10, 1, False),  # every pair won, but more failures than the base
    ],
    ids=["9-of-10", "8-of-10", "9-of-9", "more-failures"],
)
def test_a_gain_is_claimable_only_under_the_gain_rule(change, change_failed, claimable):
    base = (100, 98, 102, 99, 101, 100, 97, 103, 100, 100)
    pairs = [
        {"seed": s, "first": "base", "base": run(b), "change": run(c, change_failed)}
        for s, (b, c) in enumerate(zip(base, change))
    ]
    summary = bench_pair.summarize(pairs, {"op_p50_us": "lower", "ops_per_s": "higher"}, BOUNDS)
    assert summary["op_p50_us"]["median_gain_exceeds_base_iqr"]
    assert summary["op_p50_us"]["claimable"] is summary["ops_per_s"]["claimable"] is claimable
    assert bench_pair.failed_share(pairs, "change") == change_failed / 10
