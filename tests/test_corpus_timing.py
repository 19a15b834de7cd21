import importlib.util
from pathlib import Path

import pytest

spec = importlib.util.spec_from_file_location(
    "corpus_timing", Path(__file__).resolve().parent.parent / "tools" / "corpus_timing.py"
)
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
