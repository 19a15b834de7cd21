"""Property-check harness.

The allocator's claimed guarantees are checked by brute force on small
instances instead of being trusted:

* selection soundness: every decision is a single-candidate pick, a prompt
  issued only when every candidate is lossy, or a choice that loses at most
  the requested permission itself;
* weak minimal loss: whenever some candidate is loss-free in the strict
  sense, the chosen license leaves a superset of every other candidate's
  remnants;
* filter neutrality: on instances where no label is once+complex the
  filtered allocator collapses to the baseline;
* liveness: under every 1-fair request schedule, of any length, every
  permission that runs out of valid hosts is black, that is, lost
  deliberately at some step, as ``color_step`` says; every other
  permission is white.  ``run_bounded_liveness`` takes any instance,
  searches the schedules depth-first, up to ``MAX_LIVENESS_STATES`` nodes,
  and says why its verdict is exact.  It slots each state by sublicense and
  takes a step once per (permission, node states of the sublicenses with a
  cp granting it), since the step reads no other node.

Every decision is checked against one oracle, which ``run_trial`` builds
once per decision with ``oracle_losses``: ``{candidate id: loss}``, found by
``rights.candidates`` independently of the pool the allocator resolved, and
priced from the decision's pool where it resolved a candidate (see there).
Each entry of ``CHECKS`` takes ``(state, request, decision, losses)`` and
walks no license itself; a choice naming no candidate fails as
``not_a_candidate``.

The three campaigns share one runner, ``_run_campaign``: each supplies a
generator and a function from a document to its verdicts, and the runner
builds the report.  A campaign with no check or no trial is refused with
ValueError, since a report of zero verdicts would read as a pass.

All generation is seed-deterministic; identical seeds and caps produce
byte-identical reports.  Campaign instances keep every date window open
around the shared request timestamp and make every use long enough for
timed counts, so depletion by counting is the only dynamics, which is the
regime the guarantees are stated for.
"""

from __future__ import annotations

import functools
import json
import random
from collections import Counter
from dataclasses import asdict, dataclass, field
from operator import itemgetter
from typing import Callable, Iterable, Optional, Sequence

from .allocate import (
    AllocationDecision,
    Chosen,
    NoMatch,
    PromptRequired,
    allocate,
    allocate_and_execute,
    min_loss_chooser,
    oma_allocate,
    proposed_allocate,
)
from .corpus import CorpusDocument, document_to_json
from .engine import AgentState, Slot, consume, initial_state
from .labels import cp_label, state_labels, sublicense_label
from .model import (
    CP,
    Action,
    Count,
    DateTime,
    Interval,
    License,
    LicenseSet,
    Permission,
    Request,
    SubLicense,
    TimedCount,
)
# ``rights`` is re-exported: ``bench/workloads.py`` reads ``verify.rights``.
from .rights import RightsMultiset, candidates, loss, pool_losses, rights, sublicense_rights

T0 = 1000
TIMER_MAX = 60
USAGE_DURATION = TIMER_MAX + 10
MAX_COUNTEREXAMPLES = 5
# Candidate documents the shrinker tries before it keeps what it has.
SHRINK_ATTEMPTS = 400
# Nodes the liveness search expands per instance before it stops.
MAX_LIVENESS_STATES = 4096
# Instance indexes per seed: index i of seed s seeds random.Random(s * SEED_STRIDE
# + i), so an index past the stride would replay the next seed's instances.
SEED_STRIDE = 1_000_003


# --- coloring model ---------------------------------------------------------


def color_step(state: AgentState, decision: Chosen, request: Request) -> frozenset[Permission]:
    """The permissions one executed decision blackens; every other one stays as it was.

    A permission turns black when it is lost deliberately: because it was
    the request itself, because there was no other candidate, or because
    every candidate was lossy anyway.  Black never reverts to white, so a
    caller joins the answer to its black set, which the answer does not
    depend on.

    ``state`` is the state the decision was made in (before the consume),
    and ``decision`` an allocator's, which carries the pool it was made from
    and, when a prompt priced that pool, its losses.
    """
    losses = decision.losses if decision.losses is not None else pool_losses(state, request, decision.pool)
    lost = losses[decision.license_id]
    if len(losses) == 1 or _all_lossy(losses.values(), request):
        return frozenset(lost)
    return frozenset(lost.keys() & {request.permission})


# --- per-decision checks ----------------------------------------------------


@dataclass(frozen=True)
class CheckResult:
    passed: bool
    case: str
    vacuous: bool = False
    detail: Optional[dict] = None


def _describe_losses(losses: dict[str, RightsMultiset]) -> dict:
    return {
        lid: sorted((p.action.value, p.content, n) for p, n in lost.items())
        for lid, lost in losses.items()
    }


def oracle_losses(
    state: AgentState, request: Request, decision: AllocationDecision
) -> dict[str, RightsMultiset]:
    """The checks' oracle: {candidate id: loss}, one entry per candidate ``candidates`` finds.

    ``decision`` is an allocator's, made at ``state`` for ``request``.  The
    candidates come from the oracle's own ``candidates`` walk, never from the
    decision.  Those the decision's pool resolved are priced by one
    ``pool_losses`` call on that part of the pool, any other (every
    candidate of a ``NoMatch``, which has no pool) by ``loss``.  That is
    sound because the pool's targets are ``select_target``'s answers at this
    state for this request, so they are what ``loss`` would resolve again.
    """
    found = candidates(state, request)
    pool = {} if isinstance(decision, NoMatch) else decision.pool
    priced = pool_losses(state, request, {lid: pool[lid] for lid in found if lid in pool})
    return {lid: priced[lid] if lid in priced else loss(state, lid, request) for lid in found}


def _all_lossy(losses: Iterable[RightsMultiset], request: Request) -> bool:
    """Every loss takes more than the one requested occurrence with it."""
    bound = Counter({request.permission: 1})
    return all(lost > bound for lost in losses)


def _stray_choice(decision: AllocationDecision, losses: dict[str, RightsMultiset]) -> Optional[CheckResult]:
    """The failure of a choice that names no candidate, or None."""
    if isinstance(decision, Chosen) and decision.license_id not in losses:
        detail = {"chosen": decision.license_id, "candidates": list(losses)}
        return CheckResult(False, "not_a_candidate", detail=detail)
    return None


def check_selection_soundness(
    state: AgentState, request: Request, decision: AllocationDecision, losses: dict[str, RightsMultiset]
) -> CheckResult:
    """Every decision is covered by one of the three harmless cases.

    Either there was a single candidate and it was taken, or the user was
    prompted because every candidate loses extra rights, or the chosen
    license loses at most one occurrence of the requested permission.
    """
    if not losses:
        if isinstance(decision, NoMatch):
            return CheckResult(True, "no_candidates", vacuous=True)
        return CheckResult(False, "no_candidates", detail={"decision": repr(decision)})
    if isinstance(decision, NoMatch):
        return CheckResult(False, "missed_candidates", detail={"candidates": list(losses)})
    if (stray := _stray_choice(decision, losses)) is not None:
        return stray
    if len(losses) == 1:
        ok = isinstance(decision, Chosen)
        return CheckResult(ok, "single_candidate", detail=None if ok else {"candidates": list(losses)})
    if isinstance(decision, PromptRequired) or decision.via_prompt:
        ok = _all_lossy(losses.values(), request)
        detail = None if ok else {"losses": _describe_losses(losses)}
        return CheckResult(ok, "prompted_all_lossy", detail=detail)
    # A nonempty loss always holds the requested permission, so a loss of at
    # most its one occurrence is exactly a loss that is not lossy.
    ok = not _all_lossy([losses[decision.license_id]], request)
    detail = None if ok else {"chosen": decision.license_id, "losses": _describe_losses(losses)}
    return CheckResult(ok, "loss_bounded", detail=detail)


def check_weak_minimal_loss(
    state: AgentState, request: Request, decision: AllocationDecision, losses: dict[str, RightsMultiset]
) -> CheckResult:
    """When a loss is avoidable, the chosen license maximises the remnants."""
    if not losses:
        return CheckResult(True, "no_candidates", vacuous=True)
    if isinstance(decision, PromptRequired):
        return CheckResult(True, "prompt_unresolved", vacuous=True)
    if (stray := _stray_choice(decision, losses)) is not None:
        return stray
    if _all_lossy(losses.values(), request):
        return CheckResult(True, "loss_inevitable", vacuous=True)
    if not isinstance(decision, Chosen):
        return CheckResult(False, "dominance", detail={"decision": repr(decision)})
    # Every loss is part of the same base, so the chosen remnants contain a
    # candidate's exactly when the chosen loss is contained in that one's.
    chosen = losses[decision.license_id]
    dominated = [lid for lid, lost in losses.items() if not chosen <= lost]
    if not dominated:
        return CheckResult(True, "dominance")
    described = _describe_losses(losses)
    detail = {"chosen": decision.license_id, "not_dominated": dominated, "losses": described}
    return CheckResult(False, "dominance", detail=detail)


def check_pair_discipline(
    state: AgentState, request: Request, decision: AllocationDecision, losses: dict[str, RightsMultiset]
) -> CheckResult:
    """A ranked choice (not prompted, not forced) targets no node once+complex for its request."""
    if len(losses) < 2 or not isinstance(decision, Chosen) or decision.via_prompt:
        return CheckResult(True, "pair_discipline", vacuous=True)
    if (stray := _stray_choice(decision, losses)) is not None:
        return stray
    sl = state.sublicense(decision.license_id, decision.sublicense_id)
    sl_states, cp_states = state.slot(decision.license_id, sl.id)
    sl_label = sublicense_label(sl, sl_states, cp_states, request)
    cp = sl.cp(decision.cp_id)
    cp_lbl = cp_label(cp, cp_states[sl.cps.index(cp)], request)
    ok = not sl_label.depleting_and_complex and not cp_lbl.depleting_and_complex
    return CheckResult(
        ok, "pair_discipline", detail=None if ok else {"labels": [str(sl_label), str(cp_lbl)]}
    )


CHECKS: dict[
    str, Callable[[AgentState, Request, AllocationDecision, dict[str, RightsMultiset]], CheckResult]
] = {
    "soundness": check_selection_soundness,
    "minimal_loss": check_weak_minimal_loss,
    "pair_discipline": check_pair_discipline,
}


# --- instance generation ----------------------------------------------------


@dataclass(frozen=True)
class GeneratorCaps:
    max_licenses: int = 4
    max_sublicenses: int = 3
    max_cps: int = 3
    max_permissions: int = 4
    max_count: int = 3
    max_requests: int = 5
    actions: int = 2
    contents: int = 4

    def __post_init__(self) -> None:
        for name, value in self.to_json().items():
            if value < 1:
                raise ValueError(f"generator cap {name} must be >= 1, got {value}")
        if self.actions > len(Action):
            raise ValueError(f"generator cap actions must be <= {len(Action)}, got {self.actions}")

    def to_json(self) -> dict:
        return asdict(self)


PROFILES = ("general", "many_only", "depleting")


@functools.lru_cache(maxsize=16)
def _permission_grid(actions: int, contents: int) -> tuple[tuple[Permission, ...], ...]:
    """One permission per (action, content), one row per action, over contents ``c1``.. ``c<contents>``.

    Built once per shape and shared by every generator of that shape.
    """
    names = [f"c{i}" for i in range(1, contents + 1)]
    return tuple(tuple(Permission(a, c) for c in names) for a in list(Action)[:actions])


class InstanceGenerator:
    """Seed-deterministic stream of small corpus documents.

    Profiles:
      general    any constraint mix (counters may start at one charge)
      many_only  every counter starts with at least two charges, so no node
                 is labeled once
      depleting  every selection depletes a node: a sublicense either burns
                 itself (single charge at the sublicense level) or each of
                 its cps burns itself

    All date windows contain the shared request timestamp and every request
    outlasts every timer, so counter depletion is the only way rights
    disappear.

    Known fault: ``document`` draws its requests from a fresh
    ``self._rng(index)``, the stream ``licenses(index)`` has just used, so
    the request count replays the random bits of the license count.  At
    seed 0 with default caps, 2,394 of 3,000 documents have as many requests
    as licenses and the other 606 have five.  A fix changes every generated
    instance and the pinned fuzz digests, so it waits for a benchmark
    revision.
    """

    def __init__(self, caps: GeneratorCaps = GeneratorCaps(), seed: int = 0, profile: str = "general"):
        if profile not in PROFILES:
            raise ValueError(f"unknown profile {profile!r}")
        if profile == "many_only" and caps.max_count < 2:
            raise ValueError("many_only needs max_count >= 2")
        # random.Random seeds with the absolute value of a negative int, so a
        # negative seed would replay another seed's instances.
        if seed < 0:
            raise ValueError(f"seed must be >= 0, got {seed}")
        self.caps = caps
        self.seed = seed
        self.profile = profile
        self._grid = _permission_grid(caps.actions, caps.contents)
        self._universe = caps.actions * caps.contents

    def _rng(self, index: int) -> random.Random:
        if not 0 <= index < SEED_STRIDE:
            raise ValueError(f"instance index must be in [0, {SEED_STRIDE}), got {index}")
        return random.Random(self.seed * SEED_STRIDE + index)

    def _permission(self, rng: random.Random) -> Permission:
        """One ``rng.choice`` of the action, then one of the content."""
        return rng.choice(rng.choice(self._grid))

    def _datetime(self, rng: random.Random) -> DateTime:
        kind = rng.randrange(3)
        start = rng.randrange(0, T0 + 1) if kind != 0 else None
        end = rng.randrange(T0, T0 + 5000) if kind != 1 else None
        if start is None and end is None:
            end = T0 + 1000
        return DateTime(start=start, end=end)

    def _soft_constraint(self, rng: random.Random):
        # Constraints that never deplete by use.
        roll = rng.random()
        if roll < 0.5:
            return self._datetime(rng)
        if roll < 0.8:
            return Interval(rng.randrange(1, 5000))
        return None

    def _counter(self, rng: random.Random, minimum: int):
        n = rng.randrange(minimum, self.caps.max_count + 1)
        if rng.random() < 0.25:
            return TimedCount(n, timer=rng.randrange(1, TIMER_MAX + 1))
        return Count(n)

    def _constraints(self, rng: random.Random) -> list:
        out = []
        if rng.random() < 0.5:
            minimum = 2 if self.profile == "many_only" else 1
            out.append(self._counter(rng, minimum))
        soft = self._soft_constraint(rng)
        if soft is not None and rng.random() < 0.6:
            out.append(soft)
        rng.shuffle(out)
        return out

    def _cp(self, rng: random.Random, cp_id: str, constraints=None) -> CP:
        n = rng.randrange(1, self.caps.max_permissions + 1)
        perms: dict[Permission, None] = {}  # distinct draws in draw order
        while len(perms) < n:
            p = self._permission(rng)
            if p in perms and len(perms) == self._universe:
                break
            perms[p] = None
        return CP(
            cp_id,
            constraints=self._constraints(rng) if constraints is None else constraints,
            permissions=perms,
        )

    def _sublicense(self, rng: random.Random, sl_id: str) -> SubLicense:
        n_cps = rng.randrange(1, self.caps.max_cps + 1)
        cp_constraints = None  # None: each cp draws its own
        if self.profile != "depleting":
            constraints = self._constraints(rng)
        # depleting: either the sublicense burns itself, or every cp does
        elif rng.random() < 0.5:
            constraints = [Count(1)]
            if rng.random() < 0.4:
                constraints.append(self._datetime(rng))
        else:
            constraints, cp_constraints = [], [Count(1)]
            soft = self._soft_constraint(rng)
            if soft is not None and rng.random() < 0.4:
                constraints.append(soft)
        cps = [self._cp(rng, f"cp-{i}", constraints=cp_constraints) for i in range(1, n_cps + 1)]
        return SubLicense(sl_id, constraints=constraints, cps=cps)

    def licenses(self, index: int) -> LicenseSet:
        rng = self._rng(index)
        n = rng.randrange(1, self.caps.max_licenses + 1)
        out = []
        for i in range(1, n + 1):
            n_subs = rng.randrange(1, self.caps.max_sublicenses + 1)
            out.append(
                License(
                    f"license-{i}",
                    [self._sublicense(rng, f"sl-{j}") for j in range(1, n_subs + 1)],
                )
            )
        return LicenseSet(out)

    def document(self, index: int) -> CorpusDocument:
        rng = self._rng(index)
        licenses = self.licenses(index)
        installed = sorted(
            {p for lic in licenses for sl in lic.sublicenses for cp in sl.cps for p in cp.permissions}
        )
        n_requests = 1 if self.profile == "many_only" else rng.randrange(1, self.caps.max_requests + 1)
        requests = []
        for _ in range(n_requests):
            if installed and rng.random() < 0.85:
                p = rng.choice(installed)
            else:
                p = self._permission(rng)
            requests.append(
                Request(p.action, p.content, at=T0, usage_duration=USAGE_DURATION + rng.randrange(30))
            )
        return CorpusDocument(licenses=licenses, requests=requests)


# --- campaign running -------------------------------------------------------


def run_trial(
    doc: CorpusDocument,
    algorithm: str,
    checks: Sequence[str],
) -> list[tuple[int, str, CheckResult]]:
    """Run the document's request script, checking every decision.

    Returns (step, check name, result) triples.  The checks of a decision
    share its ``oracle_losses``.  Prompts are resolved with the deterministic
    minimum-loss chooser to keep the trial going, but the checks see the
    unresolved decision.
    """
    state = initial_state(doc.licenses)
    results = []
    for step, request in enumerate(doc.requests):
        decision = allocate(state, request, algorithm=algorithm)
        losses = oracle_losses(state, request, decision) if checks else {}
        for name in checks:
            results.append((step, name, CHECKS[name](state, request, decision, losses)))
        if isinstance(decision, PromptRequired):
            decision = decision.choose(min_loss_chooser(request, decision.candidates, decision.losses))
        if isinstance(decision, Chosen):
            state = consume(state, decision.license_id, decision.sublicense_id, decision.cp_id, request)
    return results


def _trial_failures(doc: CorpusDocument, algorithm: str, checks: Sequence[str]):
    return [(step, name, res) for step, name, res in run_trial(doc, algorithm, checks) if not res.passed]


def _without(doc: CorpusDocument, li: int, si: Optional[int] = None, ci: Optional[int] = None) -> Optional[CorpusDocument]:
    """``doc`` without license ``li``, its sublicense ``si`` or that one's cp ``ci``; None for an only child."""
    kept = list(doc.licenses.licenses)
    subs = list(kept[li].sublicenses)
    if si is None:
        siblings, i = kept, li
    elif ci is None:
        siblings, i = subs, si
    else:
        siblings, i = list(subs[si].cps), ci
    if len(siblings) <= 1:
        return None
    del siblings[i]
    if ci is not None:
        subs[si] = SubLicense(subs[si].id, subs[si].constraints, siblings)
    if si is not None:
        kept[li] = License(kept[li].id, subs)
    return CorpusDocument(LicenseSet(kept), doc.requests)


def shrink_document(doc: CorpusDocument, still_fails: Callable[[CorpusDocument], bool]) -> CorpusDocument:
    """Greedily drop licenses, then sublicenses, then cps, last sibling first, while the failure persists.

    Every variant counts toward ``SHRINK_ATTEMPTS``, also one that would
    drop an only child and so never reaches ``still_fails``.
    """
    attempts = 0
    progress = True

    def attempt(*path: int) -> None:
        nonlocal attempts, doc, progress
        if attempts >= SHRINK_ATTEMPTS:
            return
        attempts += 1
        variant = _without(doc, *path)
        if variant is not None and still_fails(variant):
            doc, progress = variant, True

    while progress and attempts < SHRINK_ATTEMPTS:
        progress = False
        for li in reversed(range(len(doc.licenses))):
            attempt(li)
        for li in range(len(doc.licenses)):
            for si in reversed(range(len(doc.licenses.licenses[li].sublicenses))):
                attempt(li, si)
        for li in range(len(doc.licenses)):
            for si, sl in enumerate(doc.licenses.licenses[li].sublicenses):
                for ci in reversed(range(len(sl.cps))):
                    attempt(li, si, ci)
    return doc


@dataclass
class Counterexample:
    trial: int
    step: int
    check: str
    case: str
    document: dict
    detail: Optional[dict] = None

    def to_json(self) -> dict:
        return asdict(self)

    @classmethod
    def of(
        cls, trial: int, step: int, check: str, result: CheckResult, doc: CorpusDocument
    ) -> Counterexample:
        return cls(trial, step, check, result.case, document_to_json(doc), result.detail)


@dataclass
class CampaignReport:
    """Verdict counts of one campaign, with up to ``MAX_COUNTEREXAMPLES`` kept.

    ``decisions_checked`` counts verdicts, not decisions: every recorded
    pass and failure, that is one per check and decision for fuzz, one per
    instance for neutrality (its first request) and for liveness (the whole
    search over its schedules).
    """

    campaign: str
    algorithm: str
    seed: int
    caps: GeneratorCaps
    profile: str
    trials: int
    checks: tuple[str, ...]
    passes: Counter = field(default_factory=Counter)
    vacuous: Counter = field(default_factory=Counter)
    failures: Counter = field(default_factory=Counter)
    counterexamples: list[Counterexample] = field(default_factory=list)

    def record(
        self, name: str, result: CheckResult, counterexample: Optional[Callable[[], Counterexample]]
    ) -> None:
        """Count one verdict of check ``name``.

        ``counterexample`` (None: keep none for this failure) is called only
        while fewer than ``MAX_COUNTEREXAMPLES`` are kept, so a failure is
        shrunk only when its counterexample will be kept.
        """
        if result.passed:
            self.passes[name] += 1
            if result.vacuous:
                self.vacuous[name] += 1
            return
        self.failures[name] += 1
        if counterexample is not None and len(self.counterexamples) < MAX_COUNTEREXAMPLES:
            self.counterexamples.append(counterexample())

    @property
    def decisions_checked(self) -> int:
        return sum(self.passes.values()) + sum(self.failures.values())

    @property
    def failed(self) -> bool:
        return any(self.failures[name] for name in self.checks)

    def to_json(self) -> dict:
        return {
            "campaign": self.campaign,
            "algorithm": self.algorithm,
            "seed": self.seed,
            "caps": self.caps.to_json(),
            "profile": self.profile,
            "trials": self.trials,
            "checks": list(self.checks),
            "decisions_checked": self.decisions_checked,
            "passes": {k: self.passes[k] for k in self.checks},
            "vacuous_passes": {k: self.vacuous[k] for k in self.checks},
            "failures": {k: self.failures[k] for k in self.checks},
            "counterexamples": [c.to_json() for c in self.counterexamples],
        }

    def to_bytes(self) -> bytes:
        return (json.dumps(self.to_json(), indent=2, sort_keys=True) + "\n").encode("utf-8")


def _shrunk_counterexample(doc: CorpusDocument, trial: int, algorithm: str, check: str) -> Counterexample:
    shrunk = shrink_document(doc, lambda d: bool(_trial_failures(d, algorithm, [check])))
    step, _, result = _trial_failures(shrunk, algorithm, [check])[0]
    return Counterexample.of(trial, step, check, result, shrunk)


# One verdict of a campaign: (check name, result, counterexample thunk or None).
_Verdict = tuple[str, CheckResult, Optional[Callable[[], Counterexample]]]


def _run_campaign(
    campaign: str, algorithm: str, generator: InstanceGenerator, n: int, checks: tuple[str, ...],
    verdicts: Callable[[int, CorpusDocument], Iterable[_Verdict]], stop_after: Optional[int] = None,
) -> CampaignReport:
    """Record ``verdicts(index, document)`` for each of the generator's first ``n`` documents.

    A check keeps a counterexample of its first failure on a document only.
    ``stop_after`` ends the campaign after the document that makes that many
    failing ones, and ``trials`` then counts the documents run.  No check,
    or ``n`` outside ``[1, SEED_STRIDE]``, raises ValueError before any
    document is generated: such a campaign checks nothing, or replays
    another seed's instances.
    """
    if not checks:
        raise ValueError("a campaign needs at least one check")
    if not 1 <= n <= SEED_STRIDE:
        raise ValueError(f"a campaign runs between 1 and {SEED_STRIDE} trials, got {n}")
    report = CampaignReport(campaign, algorithm, generator.seed, generator.caps, generator.profile, n, checks)
    failing = 0
    for index in range(n):
        failed: set[str] = set()  # the checks failed on this document so far
        for name, result, counterexample in verdicts(index, generator.document(index)):
            report.record(name, result, None if name in failed else counterexample)
            if not result.passed:
                failed.add(name)
        if failed:
            failing += 1
            if stop_after is not None and failing >= stop_after:
                report.trials = index + 1
                break
    return report


def fuzz_campaign(
    generator: InstanceGenerator,
    n: int,
    checks: Sequence[str] = ("soundness", "minimal_loss"),
    *,
    algorithm: str = "proposed",
    stop_after: Optional[int] = None,
) -> CampaignReport:
    """Generate ``n`` instances, replay their request scripts and check every decision.

    ``stop_after`` aborts early once that many failing trials have been seen
    (useful when a failure is the expected outcome).
    """
    unknown = set(checks) - set(CHECKS)
    if unknown:
        raise ValueError(f"unknown checks {sorted(unknown)}")
    if len(set(checks)) < len(checks):
        raise ValueError(f"a check is named more than once in {list(checks)}")

    def verdicts(index: int, doc: CorpusDocument) -> Iterable[_Verdict]:
        for _, name, result in run_trial(doc, algorithm, checks):
            yield name, result, functools.partial(_shrunk_counterexample, doc, index, algorithm, name)

    return _run_campaign("fuzz", algorithm, generator, n, tuple(checks), verdicts, stop_after)


def run_neutrality_campaign(
    caps: GeneratorCaps = GeneratorCaps(),
    n: int = 1000,
    seed: int = 0,
) -> CampaignReport:
    """Both allocators must agree when no label anywhere is once+complex."""

    def verdicts(index: int, doc: CorpusDocument) -> Iterable[_Verdict]:
        state = initial_state(doc.licenses)
        if any(lbl.depleting_and_complex for lbl in state_labels(state).values()):
            raise AssertionError("many_only generator emitted a once+complex label")
        request = doc.requests[0]
        base = oma_allocate(state, request)
        filtered = proposed_allocate(state, request)
        same = base == filtered
        detail = None if same else {"oma": repr(base), "proposed": repr(filtered)}
        result = CheckResult(same, "decision_mismatch", detail=detail)
        yield "neutrality", result, lambda: Counterexample.of(index, 0, "neutrality", result, doc)

    generator = InstanceGenerator(caps, seed=seed, profile="many_only")
    return _run_campaign("neutrality", "both", generator, n, ("neutrality",), verdicts)


# --- bounded liveness -------------------------------------------------------


@dataclass
class LivenessResult:
    passed: bool
    states: int
    failure: Optional[dict] = None
    finished: bool = True  # False when MAX_LIVENESS_STATES cut the search short


def run_bounded_liveness(
    licenses: LicenseSet, *, algorithm: str = "proposed", at: int = T0
) -> LivenessResult:
    """Search every 1-fair schedule, of any length, and require black-by-quiescence.

    The schedules are 1-fair: every round requests each initially available
    permission once, in any order, and rounds follow one another without
    end.  After every step, any permission with no valid host left must
    already be black.  The search is depth-first over the permissions still
    due this round, tried in sorted order, so a failure is the first failing
    schedule in that order among those that reach no node twice, cut at its
    failing step.

    A node is the state, the black permissions and the live permissions
    still due this round; when no live one is due, the next round starts at
    once and every live one is due.  What can follow a node depends on
    nothing else, so a node already searched is skipped: its continuations
    are searched from its first visit.  ``states`` counts the nodes
    searched; the search stops at ``MAX_LIVENESS_STATES`` and passes on
    what it searched, unfinished.

    The verdict is exact for any instance:

    * A node is a finite value.  At a fixed ``at`` a counter only loses
      charges and an interval starts once, so there are finitely many
      states, and the masks lie within the support.  So the search ends,
      and it has searched every node that some schedule, however long,
      reaches.
    * At a fixed ``at``, rights only shrink.  A dead permission stays dead,
      and a request for it could only be a NoMatch step that changes
      neither the state nor the black set, so it is cut from the due mask
      and a reported schedule names no such request.
    * A step that charges nothing blackens nothing: no node of its target
      is on a last charge for it, so its loss is empty.  It leaves the black
      set as it was, and the state too but for the intervals it starts,
      each of which starts once.  Charges are finite, so past a finite
      prefix a schedule takes only steps that change neither, and it goes
      round nodes already searched.

    Two reductions leave every verdict as it is.  Both read the state by
    ``AgentState``'s slots: a slot is one sublicense's node and its cps' nodes.

    * A step is memoized on the slots it reads.  The step taken for a
      permission depends only on the node states of the sublicenses with a
      cp granting it (its granting slots), because of what each part of the
      step reads and writes:

      - ``select_target`` skips a sublicense with no granting cp before it
        reads any of its states, so ``allocate`` resolves only granting
        slots;
      - ``sublicense_label`` reads its node and all of its cps, all in the
        slot;
      - ``_target_loss``, which prices a prompt's pool, reads only the
        chosen sublicense's cps;
      - ``color_step`` reads only the decision's pool;
      - ``engine.execute`` writes only the chosen sublicense's node and cp.

      So per (permission, granting slots' node states) the search runs
      ``allocate_and_execute`` once, on a state of those slots only, where
      a read of any other slot would raise KeyError.  It keeps the chosen
      slot, that slot's node states after the step and the permissions the
      step blackens, which do not depend on the black set and are joined to
      each node's own.  Any state with the same granting slots' node states
      steps to itself with the chosen slot's node states replaced.  In the
      same way a slot's live permissions depend only on its own node states,
      so a state's live set is the union of per-slot sets, each one
      ``sublicense_rights`` walk per (slot, node states).
    * A state is kept only as its key: per slot, in ``initial_state``'s
      order, its value in ``AgentState.cstate``, read with one lookup and
      interned as is as an int (a sublicense-state id) the first time it is
      reached.  The key maps one to one to the state, so the nodes searched
      are the ones a search of whole states would search.  The node and step
      memos hash small ints, a step's key picks its granting slots' entries
      out of the state's key, and a successor's key replaces the chosen
      slot's entry.

    Permissions are coded as bits, bit ``i`` for the ``i``-th permission of
    the sorted support: the black, live and due sets are int masks and a
    schedule is a tuple of indices.  Every mask stays within the support,
    since rights only shrink.  Due bits are pushed from high to low, so the
    lowest is searched first, and the lowest dead bit is the failure
    reported; only the failure dict names permissions again.
    """
    state0 = initial_state(licenses)
    # One slot per sublicense, in ``initial_state``'s order: its license and itself, and its key.
    slots = [(lic, sl) for lic in licenses for sl in lic.sublicenses]
    slot_keys = [(lic.id, sl.id) for lic, sl in slots]
    slot_of = {key: k for k, key in enumerate(slot_keys)}
    held = [sublicense_rights(state0, lic, sl, at) for lic, sl in slots]
    support = tuple(sorted(set().union(*held)))
    requests = [Request(p.action, p.content, at=at, usage_duration=USAGE_DURATION) for p in support]
    bit = {p: 1 << i for i, p in enumerate(support)}
    everything = (1 << len(support)) - 1
    # Per permission index, the slots of the sublicenses with a cp granting it, and a
    # getter that picks their entries out of a state key.
    granting = [
        [k for k, (_, sl) in enumerate(slots) if any(p in cp.permissions for cp in sl.cps)] for p in support
    ]
    pick_granting = [itemgetter(*ks) for ks in granting]

    def mask(permissions) -> int:
        assert bit.keys() >= permissions, "a permission outside the support"
        return sum(bit[p] for p in permissions)

    ids: dict = {}  # (slot, its node states) -> sublicense-state id
    slot_nodes: list[Slot] = []  # sublicense-state id -> the slot's node states
    slot_lives: list[int] = []  # sublicense-state id -> the slot's live mask

    def sublicense_state_id(state: AgentState, k: int, held_k=None) -> int:
        """The id of slot ``k``'s node states in ``state``; ``held_k`` is its rights there, if walked."""
        node_states = state.cstate[slot_keys[k]]
        sid = ids.get((k, node_states))
        if sid is None:
            sid = ids[(k, node_states)] = len(slot_nodes)
            slot_nodes.append(node_states)
            if held_k is None:
                held_k = sublicense_rights(state, *slots[k], at)
            slot_lives.append(mask(held_k.keys()))
        return sid

    def take(skey: tuple[int, ...], i: int) -> tuple[int, int, int]:
        """Run the step for permission ``i`` from the state keyed ``skey``.

        The step sees a state of the granting slots' nodes only, so a read
        of any other node raises KeyError.  Returns the chosen slot, its
        sublicense-state id after the step and the blackened mask.
        """
        cstate = {slot_keys[k]: slot_nodes[skey[k]] for k in granting[i]}
        state, request = AgentState(licenses, cstate), requests[i]
        decision, successor = allocate_and_execute(state, request, algorithm=algorithm, chooser=min_loss_chooser)
        assert isinstance(decision, Chosen), "a live permission has a host, and a prompt is chosen"
        k = slot_of[decision.license_id, decision.sublicense_id]
        return k, sublicense_state_id(successor, k), mask(color_step(state, decision, request))

    steps: dict = {}  # (index, granting slots' sublicense-state ids) -> take's answer
    # (state key, black mask, due mask, schedule so far as indices)
    stack = [(tuple(sublicense_state_id(state0, k, held_k) for k, held_k in enumerate(held)), 0, everything, ())]
    searched: set = set()  # (state key, black mask, live due mask)
    while stack:
        skey, black, due, schedule = stack.pop()
        live = 0
        for sid in skey:
            live |= slot_lives[sid]
        due = due & live or live  # a finished round starts the next
        key = (skey, black, due)
        if key in searched:
            continue
        if len(searched) == MAX_LIVENESS_STATES:
            return LivenessResult(passed=True, states=len(searched), finished=False)
        searched.add(key)
        dead = everything & ~(live | black)
        if dead:
            p = support[(dead & -dead).bit_length() - 1]
            return LivenessResult(
                passed=False,
                states=len(searched),
                failure={
                    "schedule": [
                        {"action": support[i].action.value, "content": support[i].content}
                        for i in schedule
                    ],
                    "step": len(schedule) - 1,
                    "permission": {"action": p.action.value, "content": p.content},
                },
            )
        todo = due
        while todo:
            i = todo.bit_length() - 1
            b = 1 << i
            todo ^= b
            step_key = (i, pick_granting[i](skey))
            step = steps.get(step_key)
            if step is None:
                step = steps[step_key] = take(skey, i)
            k, sid, blackened = step
            stack.append((skey[:k] + (sid,) + skey[k + 1 :], black | blackened, due & ~b, schedule + (i,)))
    return LivenessResult(passed=True, states=len(searched))


LIVENESS_CAPS = GeneratorCaps(
    max_licenses=2, max_sublicenses=2, max_cps=2, max_permissions=2, contents=3
)


def run_liveness_campaign(
    caps: GeneratorCaps = LIVENESS_CAPS,
    n: int = 1000,
    seed: int = 0,
    *,
    algorithm: str = "proposed",
) -> CampaignReport:
    """Liveness over every 1-fair schedule of ``n`` generated depleting instances.

    The instances come from the ``depleting`` profile, where every use
    depletes a node; ``run_bounded_liveness`` itself takes any instance and
    searches schedules of any length.  A search that stops at
    ``MAX_LIVENESS_STATES`` passes vacuously.
    """

    def verdicts(index: int, doc: CorpusDocument) -> Iterable[_Verdict]:
        outcome = run_bounded_liveness(doc.licenses, algorithm=algorithm)
        result = CheckResult(outcome.passed, "white_after_quiescence", vacuous=not outcome.finished, detail=outcome.failure)
        yield "liveness", result, lambda: Counterexample.of(index, outcome.failure["step"], "liveness", result, doc)

    generator = InstanceGenerator(caps, seed=seed, profile="depleting")
    return _run_campaign("liveness", algorithm, generator, n, ("liveness",), verdicts)
