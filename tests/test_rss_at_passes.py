import importlib.util
from pathlib import Path

import pytest

spec = importlib.util.spec_from_file_location(
    "rss_at_passes", Path(__file__).resolve().parent.parent / "tools" / "rss_at_passes.py"
)
rss_at_passes = importlib.util.module_from_spec(spec)
spec.loader.exec_module(rss_at_passes)


def test_the_workloads_are_the_benchmarks():
    assert rss_at_passes.workload_names(rss_at_passes.ROOT) == ["fuzz", "stream_wide", "liveness"]


@pytest.mark.parametrize(
    "argv, named",
    [(["--workload", "streamwide"], "--workload"), (["--passes", "0"], "--passes"), (["--seed", "-1"], "--seed")],
)
def test_bad_arguments_are_a_usage_error_before_any_run(argv, named, monkeypatch, capsys):
    def run(*args, **kwargs):
        raise AssertionError("a workload ran before the arguments were checked")

    monkeypatch.setattr(rss_at_passes.subprocess, "run", run)
    with pytest.raises(SystemExit) as exit_:
        rss_at_passes.main(argv)
    assert exit_.value.code == 2
    assert named in capsys.readouterr().err
