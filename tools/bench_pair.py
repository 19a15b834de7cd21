"""Paired benchmark runs of a base commit against the working tree.

    python3 tools/bench_pair.py --label NAME [--base REV] --workload W \
        [--workload W2 ...] --seeds 100-109 [--confirm-seeds 9001] [--seconds 30]

``W`` is one of the workloads ``BENCHMARK.json`` declares.

For every seed, ``bench/run.py --workload W --seed S --seconds T`` runs once
on the base commit and once on the working tree, one after the other; which
side runs first alternates from pair to pair, so a drift in machine speed
during the session does not favour one side.  The base side is an export of
``--base`` (default ``HEAD``) into a temporary directory, made with
``git archive``, so nothing is registered in the repository.  The working
tree side runs the files as they are, committed or not.

The result goes to ``BENCH_<label>.json`` at the root of the repository,
rewritten as each workload finishes: the commits, Python version, ``nproc``,
seeds, every run's end-to-end metrics and source digest (``bench/run.py``'s
``source_sha256``), and per workload and metric each side's median and
quartiles, the number of pairs the change won, whether the change's median
is within the metric's bound and whether a gain in it may be claimed.  A
metric's direction ("higher" or "lower" is better) and bound (the largest
relative loss of the median allowed) are read from ``BENCHMARK.json``.  A metric is ``unresolved`` when the distance
between the base's quartiles is more than its bound times the base median
and not every change run beats every base run: a metric noisier than its
bound reads as unresolved, not as unchanged.  A gain is ``claimable`` when
at least ``MIN_CLAIM_PAIRS`` pairs ran, the change won at least nine in ten
of them (ties count for neither side), its median gain exceeds the base's
quartile distance, and its failed share (failed over attempted operations,
summed over the paired runs, recorded per side as ``failed_share``) is no
higher than the base's.  Runs at the confirming seeds are recorded apart
from the paired summary.

Exit codes: 0 when every run completed with ``correct`` true, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("base", "change")
MIN_CLAIM_PAIRS = 10


def parse_seeds(text: str) -> list[int]:
    """``"100-109"``, ``"9001"`` or a comma list of either; each part names a seed."""
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        try:
            span = range(int(low), int(high or low) + 1)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not a seed or seed range: {part!r}") from None
        if not span:
            raise argparse.ArgumentTypeError(f"empty seed range: {part!r}")
        seeds.extend(span)
    return seeds


def git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True, check=True).stdout


def export(rev: str, into: Path) -> None:
    """Write the tree of ``rev`` into the directory ``into``."""
    archive = subprocess.Popen(["git", "-C", str(ROOT), "archive", rev], stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(into)], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise RuntimeError(f"git archive {rev} exited {archive.returncode}")


def run_bench(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced ``bench/run.py`` run: its correctness fields and metric values."""
    command = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    proc = subprocess.run(command, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(command)} in {tree} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((tree / "bench" / "out" / f"result-{workload}-seed{seed}-trace0.json").read_text())
    return {
        "source_sha256": record["environment"]["source_sha256"],
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: entry["value"] for name, entry in result["metrics"].items()},
    }


def run_pair(trees: dict, workload: str, seed: int, seconds: float, base_first: bool) -> dict:
    order = SIDES if base_first else SIDES[::-1]
    pair: dict = {"seed": seed, "first": order[0]}
    for side in order:
        pair[side] = run_bench(trees[side], workload, seed, seconds)
        print(f"{workload} seed {seed} {side}: {pair[side]['metrics']}", file=sys.stderr)
    return pair


def spread(values: list[float]) -> dict:
    """Median and quartiles (inclusive method) of one side's values."""
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def failed_share(pairs: list[dict], side: str) -> float:
    """Failed over attempted operations of one side, summed over ``pairs``."""
    attempted = sum(p[side]["attempted"] for p in pairs)
    return sum(p[side]["failed"] for p in pairs) / attempted if attempted else 0.0


def summarize(pairs: list[dict], better: dict[str, str], bounds: dict[str, float]) -> dict:
    """Per metric: both sides' spread, the pairs the change won, whether the
    medians differ by more than the base's quartile distance in the change's favour,
    whether the change's median is worse than the base's by at most ``bounds``
    (a fraction of the base median), whether the base's quartile distance is
    wider than that bound while some base run is not beaten by every change run,
    and whether a gain is claimable."""
    no_more_failures = failed_share(pairs, "change") <= failed_share(pairs, "base")
    out = {}
    for name, direction in better.items():
        sign = 1 if direction == "higher" else -1
        base = [p["base"]["metrics"][name] for p in pairs]
        change = [p["change"]["metrics"][name] for p in pairs]
        base_spread, change_spread = spread(base), spread(change)
        gain = sign * (change_spread["median"] - base_spread["median"])
        base_iqr = base_spread["q3"] - base_spread["q1"]
        allowed = bounds[name] * abs(base_spread["median"])
        wins = sum(sign * (c - b) > 0 for b, c in zip(base, change))
        out[name] = {
            "better": direction,
            "base": base_spread,
            "change": change_spread,
            "wins": wins,
            "pairs": len(pairs),
            "median_gain_exceeds_base_iqr": gain > base_iqr,
            "claimable": len(pairs) >= MIN_CLAIM_PAIRS
            and wins * 10 >= len(pairs) * 9
            and gain > base_iqr
            and no_more_failures,
            "within_bound": -gain <= allowed,
            "unresolved": base_iqr > allowed and not all(sign * (c - b) > 0 for b in base for c in change),
        }
    return out


def main(argv=None) -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--base", default="HEAD")
    parser.add_argument(
        "--workload", action="append", required=True, choices=[w["name"] for w in benchmark["workloads"]]
    )
    parser.add_argument("--seeds", type=parse_seeds, required=True)
    parser.add_argument("--confirm-seeds", type=parse_seeds, default=[])
    parser.add_argument("--seconds", type=float, default=30.0)
    args = parser.parse_args(argv)

    better = {metric["name"]: metric["better"] for metric in benchmark["end_to_end"]}
    bounds = {metric["name"]: metric["bound"] for metric in benchmark["end_to_end"]}
    status = git("status", "--porcelain", "--untracked-files=no")
    record: dict = {
        "label": args.label,
        "base": {"commit": git("rev-parse", args.base).strip()},
        "change": {"commit": git("rev-parse", "HEAD").strip(), "uncommitted_changes": bool(status.strip())},
        "environment": {"python": platform.python_version(), "nproc": os.cpu_count(), "machine": platform.machine()},
        "seconds": args.seconds,
        "seeds": args.seeds,
        "confirm_seeds": args.confirm_seeds,
        "workloads": {},
    }
    out = ROOT / f"BENCH_{args.label}.json"
    with tempfile.TemporaryDirectory(prefix="bench-pair-") as scratch:
        base_tree = Path(scratch) / "base"
        base_tree.mkdir()
        export(args.base, base_tree)
        trees = {"base": base_tree, "change": ROOT}
        for workload in args.workload:
            pairs = [
                run_pair(trees, workload, seed, args.seconds, base_first=k % 2 == 0)
                for k, seed in enumerate(args.seeds)
            ]
            confirm = [
                run_pair(trees, workload, seed, args.seconds, base_first=k % 2 == 0)
                for k, seed in enumerate(args.confirm_seeds)
            ]
            record["workloads"][workload] = {
                "failed_share": {side: failed_share(pairs, side) for side in SIDES},
                "summary": summarize(pairs, better, bounds),
                "confirm": confirm,
                "pairs": pairs,
            }
            out.write_text(json.dumps(record, indent=2) + "\n")
            print(f"wrote {workload} to {out.relative_to(ROOT)}")
    runs = [
        pair[side]
        for entry in record["workloads"].values()
        for pair in entry["pairs"] + entry["confirm"]
        for side in SIDES
    ]
    return 0 if all(run["correct"] and run["failed"] == 0 for run in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
