"""The three benchmark workloads: inputs from a seed, measured work, checks.

Each workload runs in one process and one thread.  Its measured work is a
pass: a fixed list of chunks made from the seed, each chunk a few calls that
the harness times one by one through a meter (see ``calibrate.py``).  The
harness repeats the same pass and takes each call's median time over the
passes; a traced pass runs a fixed number of chunks untimed:

* ``fuzz``: one chunk is a ``verify.fuzz_campaign`` of one generated
  instance (``general`` profile, default caps, soundness and minimal loss
  under ``proposed``), one timed call.  An operation is one checked
  allocation decision.
* ``stream_wide``: a closed loop with one caller.  One chunk is an episode
  of requests against one 64-license corpus, each request waiting on the
  previous decision, starting from the corpus's initial state; each
  ``allocate_and_execute`` call is timed and is one operation.
* ``liveness``: one chunk is a ``verify.run_liveness_campaign`` with its
  default caps (``depleting`` profile) for one verdict, one timed call and
  one operation.

The licalloc functions the tracer rebinds are called through their module
(``corpus.parse_corpus``, ``engine.initial_state``) so that a traced pass
sees them.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

from calibrate import untimed
from licalloc import corpus, engine, model, verify
from licalloc.allocate import Chosen, NoMatch, allocate_and_execute, min_loss_chooser

# The seed the reference digests were recorded at, and the seed kept back
# for confirming a claimed gain (never used while tuning a change).
BENCHMARK_SEED = 0
HELD_OUT_SEED = 9001

FUZZ_CAPS = verify.GeneratorCaps()
FUZZ_CHECKS = ("soundness", "minimal_loss")
WIDE_CAPS = verify.GeneratorCaps(max_licenses=1, contents=16)
WIDE_LICENSES = 64
# Sizes of the outputs hashed into reference.json; every run checks them.
REFERENCE_FUZZ_TRIALS = 100
REFERENCE_LIVENESS_VERDICTS = 10
REFERENCE_STREAM_REQUESTS = 250
# Spans that open a new operation in a traced pass: one allocation decision.
DECISION_SPANS = ("allocate.oma_allocate", "allocate.proposed_allocate")


@dataclass(frozen=True)
class Sizes:
    """Work per pass and per traced pass; ``TINY`` keeps the self-test fast."""

    pass_chunks: dict = field(default_factory=lambda: {"fuzz": 2500, "stream_wide": 20, "liveness": 1000})
    stream_episode: int = 250  # requests per stream episode
    warmup_requests: int = 20  # stream requests served while warming up
    trace_chunks: dict = field(default_factory=lambda: {"fuzz": 160, "stream_wide": 2, "liveness": 20})
    soundness_prefix: int = 60  # stream requests replayed through verify.run_trial


TINY = Sizes(
    pass_chunks={"fuzz": 6, "stream_wide": 2, "liveness": 2},
    stream_episode=12,
    warmup_requests=4,
    trace_chunks={"fuzz": 6, "stream_wide": 2, "liveness": 2},
    soundness_prefix=8,
)


@dataclass
class ChunkResult:
    item_ops: list  # operations of each timed call, in call order
    failed: int

    @property
    def ops(self) -> int:
        return sum(self.item_ops)


def chunk_seed(seed: int, k: int) -> int:
    """Generator seed of chunk ``k``; distinct runs' seeds never share chunks."""
    return seed * 100_000 + k


# Chunk index of the warm-up work, never measured.  Fuzz and liveness warm
# up on the benchmark seed's chunk, so one costly instance drawn from the
# run's seed does not decide setup_s.
WARMUP_CHUNK = 99_999


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def reference_matches(workload) -> tuple[bool, str]:
    """Hash the workload's reference output and compare it with ``reference.json``."""
    recorded = json.loads((Path(__file__).parent / "reference.json").read_text())[workload.name]["sha256"]
    actual = sha256(workload.reference())
    return actual == recorded, actual


# --- fuzz --------------------------------------------------------------------


class Fuzz:
    name = "fuzz"
    op_spans = DECISION_SPANS

    def __init__(self, sizes: Sizes):
        self.sizes = sizes

    def inputs(self, seed: int, episodes: int = 0) -> int:
        return seed

    def warm_up(self, seed: int) -> None:
        self.campaign(chunk_seed(BENCHMARK_SEED, WARMUP_CHUNK), 4)

    def campaign(self, seed: int, trials: int):
        generator = verify.InstanceGenerator(FUZZ_CAPS, seed=seed, profile="general")
        return verify.fuzz_campaign(generator, trials, FUZZ_CHECKS, algorithm="proposed")

    def chunk(self, seed: int, k: int, meter=untimed) -> ChunkResult:
        report = meter(self.campaign, chunk_seed(seed, k), 1)
        ops = report.decisions_checked // len(FUZZ_CHECKS)
        return ChunkResult([ops], ops if report.failed else 0)

    def reference(self) -> bytes:
        return self.campaign(BENCHMARK_SEED, REFERENCE_FUZZ_TRIALS).to_bytes()

    def spec_failures(self, inputs) -> int:
        return 0  # every fuzz operation is itself checked against the specification


# --- liveness ----------------------------------------------------------------


class Liveness:
    name = "liveness"
    op_spans = ("verify.document",)

    def __init__(self, sizes: Sizes):
        self.sizes = sizes

    def inputs(self, seed: int, episodes: int = 0) -> int:
        return seed

    def warm_up(self, seed: int) -> None:
        self.chunk(BENCHMARK_SEED, WARMUP_CHUNK)

    def chunk(self, seed: int, k: int, meter=untimed) -> ChunkResult:
        report = meter(verify.run_liveness_campaign, n=1, seed=chunk_seed(seed, k))
        if report.trials != 1:
            raise AssertionError(f"liveness campaign produced {report.trials} verdicts, not 1")
        return ChunkResult([1], int(bool(report.failed)))

    def reference(self) -> bytes:
        return verify.run_liveness_campaign(n=REFERENCE_LIVENESS_VERDICTS, seed=BENCHMARK_SEED).to_bytes()

    def spec_failures(self, inputs) -> int:
        return 0  # every liveness verdict is itself a check of the specification


# --- stream_wide -------------------------------------------------------------


def wide_licenses(seed: int) -> model.LicenseSet:
    """64 one-license draws, alternating the general and depleting profiles."""
    out = []
    for i in range(WIDE_LICENSES):
        profile = "general" if i % 2 == 0 else "depleting"
        drawn = verify.InstanceGenerator(WIDE_CAPS, seed=seed, profile=profile).licenses(i)
        out.append(model.License(f"license-{i + 1}", drawn.licenses[0].sublicenses))
    return model.LicenseSet(out)


def installed_permissions(licenses: model.LicenseSet) -> list:
    return sorted({p for lic in licenses for sl in lic.sublicenses for cp in sl.cps for p in cp.permissions})


def corpus_shapes(inputs) -> list[dict]:
    """Shape of each stream_wide corpus, so a change to the generator shows."""
    return [corpus_shape(c.licenses) for c in getattr(inputs, "corpora", [])]


def corpus_shape(licenses: model.LicenseSet) -> dict:
    sublicenses = [sl for lic in licenses for sl in lic.sublicenses]
    return {
        "licenses": len(licenses),
        "sublicenses": len(sublicenses),
        "cps": sum(len(sl.cps) for sl in sublicenses),
        "permissions": len(installed_permissions(licenses)),
    }


@dataclass
class StreamCorpus:
    licenses: model.LicenseSet
    initial: engine.AgentState
    installed: list


@dataclass
class StreamInputs:
    seed: int
    corpora: list[StreamCorpus]


def stream_corpus(seed: int) -> StreamCorpus:
    """Generate one wide corpus and round-trip it through the file format."""
    generated = corpus.CorpusDocument(wide_licenses(seed))
    doc = corpus.parse_corpus(corpus.serialize_corpus(generated))
    if doc.licenses != generated.licenses:
        raise AssertionError("corpus round trip changed the licenses")
    return StreamCorpus(doc.licenses, engine.initial_state(doc.licenses), installed_permissions(doc.licenses))


class StreamWide:
    name = "stream_wide"
    op_spans = DECISION_SPANS

    def __init__(self, sizes: Sizes):
        self.sizes = sizes

    def inputs(self, seed: int, episodes: int = 0) -> StreamInputs:
        """The run's corpora; only as many as ``episodes`` when that is fewer."""
        corpora = self.sizes.pass_chunks[self.name]
        count = min(episodes, corpora) if episodes else corpora
        return StreamInputs(seed, [stream_corpus(chunk_seed(seed, j)) for j in range(count)])

    def warm_up(self, inputs: StreamInputs) -> None:
        target = inputs.corpora[0]
        self.episode(target, script(inputs.seed, WARMUP_CHUNK, target.installed, self.sizes.warmup_requests))

    def episode(self, target: StreamCorpus, requests: list, meter=untimed):
        """Serve the requests in order from the initial state, one metered call each."""
        state = target.initial
        decisions = []
        for request in requests:
            decision, state = meter(
                allocate_and_execute, state, request, algorithm="proposed", chooser=min_loss_chooser
            )
            decisions.append(decision)
        return decisions, state

    def chunk(self, inputs: StreamInputs, k: int, meter=untimed) -> ChunkResult:
        """Episode ``k`` runs on corpus ``k`` modulo the number of corpora."""
        target = inputs.corpora[k % len(inputs.corpora)]
        requests = script(inputs.seed, k, target.installed, self.sizes.stream_episode)
        decisions, _ = self.episode(target, requests, meter)
        failed = sum(not isinstance(d, (Chosen, NoMatch)) for d in decisions)
        return ChunkResult([1] * len(decisions), failed)

    def reference(self) -> bytes:
        """Decision sequence and final rights of a full episode 0 at the benchmark seed."""
        target = stream_corpus(chunk_seed(BENCHMARK_SEED, 0))
        requests = script(BENCHMARK_SEED, 0, target.installed, REFERENCE_STREAM_REQUESTS)
        decisions, state = self.episode(target, requests)
        final = sorted((p.action.value, p.content, n) for p, n in verify.rights(state, verify.T0).items())
        return json.dumps({"decisions": [decision_record(d) for d in decisions], "rights": final}).encode("utf-8")

    def spec_failures(self, inputs: StreamInputs) -> int:
        """Replay a prefix of episode 0 through ``verify.run_trial``'s soundness check."""
        target = inputs.corpora[0]
        requests = script(inputs.seed, 0, target.installed, self.sizes.soundness_prefix)
        results = verify.run_trial(corpus.CorpusDocument(target.licenses, requests), "proposed", ["soundness"])
        return sum(not result.passed for _, _, result in results)


def script(seed: int, k: int, installed: list, length: int) -> list:
    """The first ``length`` requests of episode ``k``; a shorter script is a prefix of a longer one."""
    rng = random.Random(f"stream_wide/{seed}/{k}")
    return [
        model.Request(p.action, p.content, at=verify.T0, usage_duration=verify.USAGE_DURATION)
        for p in (rng.choice(installed) for _ in range(length))
    ]


def decision_record(decision) -> list:
    if isinstance(decision, NoMatch):
        return ["no_match"]
    return [decision.license_id, decision.sublicense_id, decision.cp_id, decision.via_prompt]


WORKLOADS = {"fuzz": Fuzz, "stream_wide": StreamWide, "liveness": Liveness}
