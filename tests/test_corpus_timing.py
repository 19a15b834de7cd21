import importlib
import importlib.util
import shutil
import sys
from pathlib import Path

import pytest

from licalloc.corpus import CorpusDocument, serialize_corpus

ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("corpus_timing", ROOT / "tools" / "corpus_timing.py")
corpus_timing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(corpus_timing)


def test_a_base_that_is_not_a_commit_is_a_usage_error_before_any_export(monkeypatch, capsys):
    def export_package(rev, into):
        raise AssertionError("the base was exported before it was checked")

    monkeypatch.setattr(corpus_timing, "export_package", export_package)
    with pytest.raises(SystemExit) as exit_:
        corpus_timing.main(["--base", "no-such-revision"])
    assert exit_.value.code == 2
    assert "--base" in capsys.readouterr().err


def test_a_package_that_imports_itself_by_name_is_recognised(tmp_path):
    (tmp_path / "engine.py").write_text("from .model import Action\n")
    assert not corpus_timing.imports_itself_by_name(tmp_path)
    (tmp_path / "corpus.py").write_text('"""Doc."""\n\nfrom licalloc.engine import initial_state\n')
    assert corpus_timing.imports_itself_by_name(tmp_path)


@pytest.fixture
def bench_workloads(monkeypatch):
    """``bench/workloads.py``, imported with ``bench`` on a ``sys.path`` restored afterwards."""
    monkeypatch.setattr(sys, "path", [str(ROOT / "bench"), str(ROOT / "src"), *sys.path])
    return importlib.import_module("workloads")


def test_the_tools_recipe_is_the_stream_wide_recipe(bench_workloads):
    caps, count = bench_workloads.WIDE_CAPS.to_json(), bench_workloads.WIDE_LICENSES
    for seed in (bench_workloads.chunk_seed(100, 0), bench_workloads.chunk_seed(100, 4)):
        drawn = corpus_timing.wide_licenses("licalloc", seed, caps, count)
        assert serialize_corpus(CorpusDocument(drawn)) == serialize_corpus(
            CorpusDocument(bench_workloads.wide_licenses(seed))
        )


def test_sides_that_generate_different_corpora_exit_1_before_any_timing(bench_workloads, monkeypatch, capsys):
    recipe = corpus_timing.wide_licenses

    def wide_licenses(package, seed, caps, count):
        # The base draws one license fewer.
        return recipe(package, seed, caps, count - (package == "licalloc_base"))

    def seconds(call, arg):
        raise AssertionError("a call was timed")

    def export_package(rev, into):
        # The working tree's package stands in for the base commit's.
        return Path(shutil.copytree(ROOT / "src" / "licalloc", into / "licalloc_base"))

    monkeypatch.setattr(corpus_timing, "git", lambda *args: "0" * 40 + "\n")
    monkeypatch.setattr(corpus_timing, "export_package", export_package)
    monkeypatch.setattr(corpus_timing, "wide_licenses", wide_licenses)
    monkeypatch.setattr(corpus_timing, "seconds", seconds)
    try:
        assert corpus_timing.main(["--base", "HEAD"]) == 1
    finally:
        for name in [name for name in sys.modules if name.split(".")[0] == "licalloc_base"]:
            del sys.modules[name]
    assert "generate different corpora" in capsys.readouterr().err
