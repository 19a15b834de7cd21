"""Time ``parse_corpus`` and ``serialize_corpus`` of a base commit against the working tree.

    python3 tools/corpus_timing.py [--base REV]

Both sides run in one interpreter on the same bytes: ``CORPORA`` 64-license
``stream_wide`` corpora (``bench/workloads.wide_licenses`` at
``chunk_seed(SEED, j)``), written by the working tree.  The base commit's ``src/licalloc`` is exported with ``git archive``
into a temporary directory and imported as the package ``licalloc_base``;
that works because the package imports its own modules only relatively, and
a base that imports ``licalloc`` by name is refused.  Each round times every
call once per corpus, base then change, so a drift in machine speed reaches
both sides alike; per corpus and call the fastest of ``ROUNDS`` rounds
counts.

Prints one JSON object: the base commit, the working tree's ``HEAD`` and
whether the tree differs from it, Python version and ``nproc``; per side
and call, the mean over the corpora of the fastest time in ms; each call's
change-to-base ratio; and each corpus's size in bytes.  Exit codes: 0, 1 when
the base does not write the working tree's bytes back unchanged, and 2 for a
usage error.  ``--base`` defaults to ``HEAD``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CALLS = ("parse_corpus", "serialize_corpus")
SIDES = ("base", "change")
CORPORA, ROUNDS, SEED = 5, 30, 100


def git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True, check=True).stdout


def export_package(rev: str, into: Path) -> Path:
    """Write ``rev``'s ``src/licalloc`` to ``into/licalloc_base`` and return that directory."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev, "src/licalloc"], capture_output=True, check=True)
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive.stdout, check=True)
    package = into / "licalloc_base"
    (into / "src" / "licalloc").rename(package)
    return package


def imports_itself_by_name(package: Path) -> bool:
    pattern = re.compile(r"^\s*(from|import)\s+licalloc\b", re.MULTILINE)
    return any(pattern.search(path.read_text()) for path in package.rglob("*.py"))


def seconds(call, arg) -> float:
    start = time.perf_counter()
    call(arg)
    return time.perf_counter() - start


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", default="HEAD")
    args = parser.parse_args(argv)
    try:
        base_commit = git("rev-parse", "--verify", "--quiet", f"{args.base}^{{commit}}").strip()
    except subprocess.CalledProcessError:
        parser.error(f"argument --base: not a commit of this repository: {args.base!r}")

    with tempfile.TemporaryDirectory() as tmp:
        package = export_package(base_commit, Path(tmp))
        if imports_itself_by_name(package):
            parser.error(f"argument --base: {args.base} imports licalloc by name, so it can not load beside it")
        sys.path[:0] = [tmp, str(ROOT / "src"), str(ROOT / "bench")]
        import licalloc_base.corpus as base
        import workloads
        from licalloc import corpus as change

        modules = {"base": base, "change": change}
        data = [
            change.serialize_corpus(change.CorpusDocument(workloads.wide_licenses(workloads.chunk_seed(SEED, j))))
            for j in range(CORPORA)
        ]
        docs = {side: [module.parse_corpus(d) for d in data] for side, module in modules.items()}
        if any(base.serialize_corpus(doc) != d for doc, d in zip(docs["base"], data)):
            print("the base does not write the working tree's bytes back unchanged", file=sys.stderr)
            return 1
        times = {(side, call): [[] for _ in data] for side in SIDES for call in CALLS}
        for _ in range(ROUNDS):
            for j, d in enumerate(data):
                for side, module in modules.items():
                    times[side, "parse_corpus"][j].append(seconds(module.parse_corpus, d))
                    times[side, "serialize_corpus"][j].append(seconds(module.serialize_corpus, docs[side][j]))

    ms = {key: statistics.mean(map(min, per_corpus)) * 1000 for key, per_corpus in times.items()}
    print(
        json.dumps(
            {
                "base": base_commit,
                "head": git("rev-parse", "HEAD").strip(),
                "dirty": bool(git("status", "--porcelain", "--untracked-files=no").strip()),
                "python": platform.python_version(),
                "nproc": os.cpu_count(),
                "seed": SEED,
                "rounds": ROUNDS,
                "ms": {side: {call: round(ms[side, call], 3) for call in CALLS} for side in SIDES},
                "ratio": {call: round(ms["change", call] / ms["base", call], 3) for call in CALLS},
                "bytes": [len(d) for d in data],
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
