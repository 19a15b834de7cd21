"""Run one licalloc benchmark workload and print its metrics.

    python3 bench/run.py --workload {fuzz,stream_wide,liveness,all} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
``src/``.  With ``--trace 0`` the workload's set-up is timed in
fresh interpreters, then the same pass of work is repeated untraced for
``--seconds`` seconds and the end-to-end metrics are printed; times are
scaled to a reference machine speed (see ``calibrate.py``).  With
``--trace 1`` fixed passes of the workload alternate untraced and traced
(see ``tracing.py``) for ``--seconds`` seconds and the per-layer metrics are
printed.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the full record, with
the environment, goes to ``bench/out/``.  ``--workload all`` runs each
workload in turn in its own process.

Exit codes: 0 on a completed run (check ``correct``), 2 when the sources
are missing or the arguments are wrong, 1 on any other error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

WORKLOAD_NAMES = ("fuzz", "stream_wide", "liveness")
END_TO_END_UNITS = {"ops_per_s": "1/s", "op_p50_us": "us", "op_p99_us": "us", "setup_s": "s", "peak_rss_mb": "MB"}
# setup_s is the median of this many set-ups, each in a fresh interpreter.
SETUP_REPEATS = 7


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def environment(seed: int) -> dict:
    """Where the numbers come from: commit, interpreter, cores, seed."""
    commit = None
    if (ROOT / ".git").exists():
        probe = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
        commit = probe.stdout.strip() or None
    source = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        source.update(str(path.relative_to(SRC)).encode("utf-8") + b"\0" + path.read_bytes())
    return {
        "commit": commit,
        "source_sha256": source.hexdigest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seed": seed,
    }


def quantile(values: list, q: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def setup_seconds(workload, seed: int) -> tuple[float, float]:
    """Set-up time of the workload in a fresh interpreter: (scaled, measured)."""
    from workloads import TINY

    command = [sys.executable, str(BENCH / "setup_probe.py"), workload.name, str(seed)]
    if workload.sizes == TINY:
        command.append("tiny")
    probe = subprocess.run(command, capture_output=True, text=True, check=True, timeout=170)
    scaled, measured = map(float, probe.stdout.split())
    return scaled, measured


def run_pass(workload, inputs) -> tuple[calibrate.Meter, list, list, int]:
    """One pass of the workload: its meter, per-call scaled times, ops and failures."""
    meter = calibrate.Meter()
    results = [workload.chunk(inputs, k, meter) for k in range(workload.sizes.pass_chunks[workload.name])]
    item_ops = [n for result in results for n in result.item_ops]
    if len(item_ops) != len(meter.raw):
        raise AssertionError(f"{len(meter.raw)} timed calls for {len(item_ops)} operation counts")
    return meter, meter.finish(), item_ops, sum(result.failed for result in results)


def measure(workload, seed: int, seconds: float) -> dict:
    """Untraced run: set-ups, then passes of the same work for ``seconds``.

    Each timed call's time is the median over the passes of its time scaled
    to the reference speed (``calibrate.py``).  A new pass starts only while
    the last one would still fit in ``seconds``; the first always runs.
    """
    import workloads

    setups = [setup_seconds(workload, seed) for _ in range(SETUP_REPEATS)]
    inputs = workload.inputs(seed)
    workload.warm_up(inputs)
    scaled_passes, raw_passes, pass_walls, slowdowns = [], [], [], []
    failed = 0
    start = time.perf_counter()
    while not pass_walls or time.perf_counter() - start + pass_walls[-1] <= seconds:
        pass_start = time.perf_counter()
        meter, scaled, item_ops, pass_failed = run_pass(workload, inputs)
        pass_walls.append(time.perf_counter() - pass_start)
        scaled_passes.append(scaled)
        raw_passes.append(meter.raw)
        slowdowns.extend(meter.slowdowns)
        failed += pass_failed
    ops = sum(item_ops) * len(pass_walls)
    times = [statistics.median(call) for call in zip(*scaled_passes)]
    raw_times = [statistics.median(call) for call in zip(*raw_passes)]
    latencies = [t * 1e6 / n for t, n in zip(times, item_ops) if n]
    spec_failures = workload.spec_failures(inputs)
    matched, reference = workloads.reference_matches(workload)
    failed = ops if not matched else min(ops, failed + spec_failures)
    return {
        "correct": failed == 0,
        "attempted": ops,
        "failed": failed,
        "metrics": {
            "ops_per_s": sum(item_ops) / sum(times),
            "op_p50_us": quantile(latencies, 50),
            "op_p99_us": quantile(latencies, 99),
            "setup_s": statistics.median(s for s, _ in setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        },
        "corpus_shapes": workloads.corpus_shapes(inputs),
        "detail": {
            "passes": len(pass_walls),
            "pass_wall_s": pass_walls,
            "latency_samples": len(latencies),
            "measured_ops_per_s": sum(item_ops) / sum(raw_times),
            "slowdown_median": statistics.median(slowdowns),
            "measured_setup_s": statistics.median(m for _, m in setups),
            "setup_scaled_s": [s for s, _ in setups],
            "spec_failures": spec_failures,
            "reference_sha256": reference,
            "reference_matches": matched,
        },
    }


def traced_pass(workload, seed: int) -> tuple[int, int]:
    """A fixed amount of work: its own inputs, then the first chunks.

    Returns the operations done and how many of them failed.
    """
    episodes = workload.sizes.trace_chunks[workload.name]
    inputs = workload.inputs(seed, episodes)
    results = [workload.chunk(inputs, k) for k in range(episodes)]
    return sum(r.ops for r in results), sum(r.failed for r in results)


def measure_traced(workload, seed: int, seconds: float) -> dict:
    """Alternate untraced and traced passes until ``seconds`` have passed."""
    import tracing
    import workloads

    workload.warm_up(workload.inputs(seed, 1))
    tracer = tracing.Tracer(workload.op_spans)
    untraced, traced = [], []
    ops = failed = passes = 0
    deadline = time.perf_counter() + seconds
    while True:
        start = time.perf_counter()
        traced_pass(workload, seed)
        untraced.append(time.perf_counter() - start)
        with tracer:
            start = time.perf_counter()
            pass_ops, pass_failed = traced_pass(workload, seed)
            traced.append(time.perf_counter() - start)
        tracer.fold()
        ops += pass_ops
        failed += pass_failed
        passes += 1
        if time.perf_counter() >= deadline:
            break
    metrics = tracer.metrics(ops, sum(traced))
    metrics["trace_overhead"] = statistics.median(traced) / statistics.median(untraced)
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{workload.name}-seed{seed}.jsonl.gz"
    tracer.write_spans(spans_path)
    episodes = workload.sizes.trace_chunks[workload.name]
    return {
        "correct": failed == 0,
        "attempted": ops,
        "failed": failed,
        "metrics": metrics,
        "corpus_shapes": workloads.corpus_shapes(workload.inputs(seed, episodes)),
        "detail": {"passes": passes, "ops_per_pass": ops // passes, "spans_file": str(spans_path.relative_to(ROOT))},
    }


def run_all(args) -> int:
    worst = 0
    for name in WORKLOAD_NAMES:
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
        worst = max(worst, subprocess.run(command, cwd=ROOT).returncode)
    return worst


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "licalloc" / "__init__.py").is_file():
        print(f"error: no licalloc sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path[:0] = [str(SRC), str(BENCH)]
    import workloads

    sizes = workloads.Sizes()
    workload = workloads.WORKLOADS[args.workload](sizes)
    if args.trace:
        import tracing

        result = measure_traced(workload, args.seed, args.seconds)
        units = dict(tracing.per_layer_names())
    else:
        result = measure(workload, args.seed, args.seconds)
        units = END_TO_END_UNITS
    result["environment"] = environment(args.seed)
    result["workload"] = args.workload
    result["trace"] = args.trace
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(result, indent=2) + "\n")
    report(result, units)
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": result["metrics"][name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


def report(result: dict, units: dict) -> None:
    """Human-readable lines: environment, corpus shapes, counts, metrics."""
    env = result["environment"]
    print(f"workload {result['workload']}  seed {env['seed']}  trace {result['trace']}")
    print(f"commit {env['commit']}  source {env['source_sha256'][:12]}  python {env['python']}  nproc {env['nproc']}")
    for shape in result["corpus_shapes"]:
        print("corpus " + "  ".join(f"{k} {v}" for k, v in shape.items()))
    for key, value in result["detail"].items():
        if isinstance(value, list):
            value = " ".join(f"{v:.4g}" for v in value)
        print(f"{key} {value}")
    print(f"failed_share {result['failed'] / result['attempted']:.6g}  ({result['failed']} of {result['attempted']} ops)")
    for name, unit in units.items():
        print(f"{name:48s} {result['metrics'][name]:14.6g} {unit}")


if __name__ == "__main__":
    sys.exit(main())
