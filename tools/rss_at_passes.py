"""Peak RSS of each benchmark workload after a fixed number of passes.

    python3 tools/rss_at_passes.py [--tree DIR] [--workload W ...] [--passes N] [--seed S]

``bench/run.py`` keeps every pass's per-call times, so its ``peak_rss_mb``
grows with the number of passes a run fits in its time, and a faster
program reads as a bigger one.  This tool separates the program's memory
from that growth: for each workload, in a fresh interpreter, it builds the
inputs and warms up as ``bench/run.py`` does, then runs ``N`` passes with
``run.run_pass`` and keeps none of their per-call times.  It prints one line
per workload, ``ru_maxrss`` in MB after each pass, and then one JSON object
``{workload: [MB after pass 1, ..., MB after pass N]}``.

``--tree`` names the source checkout whose ``src/`` and ``bench/`` are
imported (default: this one), so two commits are compared with one tool;
nothing in that tree is written.  Defaults: every workload ``BENCHMARK.json``
declares, 3 passes, seed 100.
"""

from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def workload_names(tree: Path) -> list[str]:
    return [w["name"] for w in json.loads((tree / "BENCHMARK.json").read_text())["workloads"]]


def measure(tree: Path, name: str, passes: int, seed: int) -> list[float]:
    """In this interpreter: ``ru_maxrss`` in MB after each of ``passes`` passes of ``name``."""
    sys.path[:0] = [str(tree / "src"), str(tree / "bench")]
    import run
    import workloads

    workload = workloads.WORKLOADS[name](workloads.Sizes())
    inputs = workload.inputs(seed)
    workload.warm_up(inputs)
    out = []
    for _ in range(passes):
        run.run_pass(workload, inputs)
        out.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--tree", type=Path, default=ROOT)
    parser.add_argument("--workload", action="append", dest="workloads")
    parser.add_argument("--passes", type=int, default=3)
    parser.add_argument("--seed", type=int, default=100)
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    tree = args.tree.resolve()
    if args.passes < 1 or args.seed < 0:
        parser.error("--passes must be >= 1 and --seed >= 0")
    known = workload_names(tree)
    names = args.workloads or known
    for name in names:
        if name not in known:
            parser.error(f"--workload {name!r} is not one of {known}")
    if args.child:
        (name,) = names
        print(json.dumps(measure(tree, name, args.passes, args.seed)))
        return 0
    result = {}
    for name in names:
        command = [
            sys.executable, str(Path(__file__).resolve()), "--child", "--tree", str(tree),
            "--workload", name, "--passes", str(args.passes), "--seed", str(args.seed),
        ]
        proc = subprocess.run(command, capture_output=True, text=True)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr, end="")
            return 1
        result[name] = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"{name}: " + " ".join(f"{mb:.2f}" for mb in result[name]) + " MB", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
