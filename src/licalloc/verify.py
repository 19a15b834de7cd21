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
* bounded liveness: under fair request schedules every permission that runs
  out of valid hosts has been marked black by the coloring model.

All generation is seed-deterministic; identical seeds and caps produce
byte-identical reports.  Campaign instances keep every date window open
around the shared request timestamp and make every use long enough for
timed counts, so depletion by counting is the only dynamics, which is the
regime the guarantees are stated for.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Iterable, Optional, Sequence

from .allocate import (
    AllocationDecision,
    Chosen,
    NoMatch,
    PromptRequired,
    allocate,
    min_loss_chooser,
    oma_allocate,
    proposed_allocate,
)
from .corpus import CorpusDocument, document_to_json
from .engine import AgentState, consume, initial_state
from .errors import AssumptionViolation
from .labels import Times, cp_label, state_labels, sublicense_label
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
from .rights import candidates, is_lossy, loss, remnants, rights, select_target

T0 = 1000
TIMER_MAX = 60
USAGE_DURATION = TIMER_MAX + 10


# --- coloring model ---------------------------------------------------------


class Color(str, Enum):
    WHITE = "white"
    BLACK = "black"


@dataclass(frozen=True)
class Coloring:
    """White/black marking over the permissions available initially.

    A permission turns black when it is lost deliberately: because it was
    the request itself, because there was no other candidate, or because
    every candidate was lossy anyway.  Black never reverts to white.
    """

    colors: dict[Permission, Color]

    @classmethod
    def initial(cls, state: AgentState, at: int) -> "Coloring":
        return cls({p: Color.WHITE for p in sorted(rights(state, at))})

    def color(self, permission: Permission) -> Optional[Color]:
        return self.colors.get(permission)

    def whites(self) -> list[Permission]:
        return [p for p, c in self.colors.items() if c is Color.WHITE]


def color_step(
    coloring: Coloring, state: AgentState, decision: Chosen, request: Request
) -> Coloring:
    """Apply one executed decision to the coloring.

    ``state`` is the state the decision was made in (before the consume).
    """
    lost = loss(state, decision.license_id, request)
    if not lost:
        return coloring
    pool = candidates(state, request)
    blanket = len(pool) == 1 or all(is_lossy(state, lid, request) for lid in pool)
    colors = dict(coloring.colors)
    for permission in lost:
        if permission not in colors:
            continue
        if blanket or permission == request.permission:
            colors[permission] = Color.BLACK
    return Coloring(colors)


# --- per-decision checks ----------------------------------------------------


@dataclass(frozen=True)
class CheckResult:
    passed: bool
    case: str
    vacuous: bool = False
    detail: Optional[dict] = None


def _describe_losses(state: AgentState, request: Request, pool: Sequence[str]) -> dict:
    return {
        lid: sorted((p.action.value, p.content, n) for p, n in loss(state, lid, request).items())
        for lid in pool
    }


def check_selection_soundness(
    state: AgentState, request: Request, decision: AllocationDecision
) -> CheckResult:
    """Every decision is covered by one of the three harmless cases.

    Either there was a single candidate and it was taken, or the user was
    prompted because every candidate loses extra rights, or the chosen
    license loses at most one occurrence of the requested permission.
    """
    pool = candidates(state, request)
    if not pool:
        if isinstance(decision, NoMatch):
            return CheckResult(True, "no_candidates", vacuous=True)
        return CheckResult(False, "no_candidates", detail={"decision": repr(decision)})
    if isinstance(decision, NoMatch):
        return CheckResult(False, "missed_candidates", detail={"candidates": pool})
    if len(pool) == 1:
        ok = isinstance(decision, Chosen) and decision.license_id == pool[0]
        return CheckResult(ok, "single_candidate", detail=None if ok else {"candidates": pool})
    prompted = isinstance(decision, PromptRequired) or (
        isinstance(decision, Chosen) and decision.via_prompt
    )
    if prompted:
        if all(is_lossy(state, lid, request) for lid in pool):
            return CheckResult(True, "prompted_all_lossy")
        return CheckResult(
            False, "prompted_all_lossy", detail={"losses": _describe_losses(state, request, pool)}
        )
    assert isinstance(decision, Chosen)
    chosen_loss = loss(state, decision.license_id, request)
    if chosen_loss <= Counter({request.permission: 1}):
        return CheckResult(True, "loss_bounded")
    return CheckResult(
        False,
        "loss_bounded",
        detail={
            "chosen": decision.license_id,
            "losses": _describe_losses(state, request, pool),
        },
    )


def check_weak_minimal_loss(
    state: AgentState, request: Request, decision: AllocationDecision
) -> CheckResult:
    """When a loss is avoidable, the chosen license maximises the remnants."""
    pool = candidates(state, request)
    if not pool:
        return CheckResult(True, "no_candidates", vacuous=True)
    if isinstance(decision, PromptRequired):
        return CheckResult(True, "prompt_unresolved", vacuous=True)
    rem = {lid: remnants(state, lid, request) for lid in pool}
    base = rights(state, request.at)
    bound = Counter({request.permission: 1})
    if all(base - rem[lid] > bound for lid in pool):
        return CheckResult(True, "loss_inevitable", vacuous=True)
    if not isinstance(decision, Chosen):
        return CheckResult(False, "dominance", detail={"decision": repr(decision)})
    chosen = rem[decision.license_id]
    dominated = [lid for lid in pool if not rem[lid] <= chosen]
    if not dominated:
        return CheckResult(True, "dominance")
    return CheckResult(
        False,
        "dominance",
        detail={
            "chosen": decision.license_id,
            "not_dominated": dominated,
            "losses": _describe_losses(state, request, pool),
        },
    )


def check_pair_discipline(
    state: AgentState, request: Request, decision: AllocationDecision
) -> CheckResult:
    """A ranked (non-prompted, non-forced) choice never targets a once+complex node."""
    pool = candidates(state, request)
    if len(pool) < 2 or not isinstance(decision, Chosen) or decision.via_prompt:
        return CheckResult(True, "pair_discipline", vacuous=True)
    sl_label = sublicense_label(state, decision.license_id, decision.sublicense_id)
    cp_lbl = cp_label(state, decision.license_id, decision.sublicense_id, decision.cp_id)
    ok = not sl_label.depleting_and_complex and not cp_lbl.depleting_and_complex
    return CheckResult(
        ok, "pair_discipline", detail=None if ok else {"labels": [str(sl_label), str(cp_lbl)]}
    )


CHECKS: dict[str, Callable[[AgentState, Request, AllocationDecision], CheckResult]] = {
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

    def to_json(self) -> dict:
        return {
            "max_licenses": self.max_licenses,
            "max_sublicenses": self.max_sublicenses,
            "max_cps": self.max_cps,
            "max_permissions": self.max_permissions,
            "max_count": self.max_count,
            "max_requests": self.max_requests,
            "actions": self.actions,
            "contents": self.contents,
        }


PROFILES = ("general", "many_only", "depleting")


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
    """

    def __init__(self, caps: GeneratorCaps = GeneratorCaps(), seed: int = 0, profile: str = "general"):
        if profile not in PROFILES:
            raise ValueError(f"unknown profile {profile!r}")
        if profile == "many_only" and caps.max_count < 2:
            raise ValueError("many_only needs max_count >= 2")
        self.caps = caps
        self.seed = seed
        self.profile = profile
        self._actions = list(Action)[: caps.actions]
        self._contents = [f"c{i}" for i in range(1, caps.contents + 1)]

    def _rng(self, index: int) -> random.Random:
        return random.Random(self.seed * 1_000_003 + index)

    def _permission(self, rng: random.Random) -> Permission:
        return Permission(rng.choice(self._actions), rng.choice(self._contents))

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
        perms: list[Permission] = []
        while len(perms) < n:
            p = self._permission(rng)
            if p not in perms:
                perms.append(p)
            elif len(perms) >= len(self._actions) * len(self._contents):
                break
        return CP(
            cp_id,
            constraints=self._constraints(rng) if constraints is None else constraints,
            permissions=perms,
        )

    def _sublicense(self, rng: random.Random, sl_id: str) -> SubLicense:
        n_cps = rng.randrange(1, self.caps.max_cps + 1)
        if self.profile != "depleting":
            return SubLicense(
                sl_id,
                constraints=self._constraints(rng),
                cps=[self._cp(rng, f"cp-{i}") for i in range(1, n_cps + 1)],
            )
        # depleting: either the sublicense burns itself, or every cp does
        if rng.random() < 0.5:
            constraints = [Count(1)]
            if rng.random() < 0.4:
                constraints.append(self._datetime(rng))
            cps = [self._cp(rng, f"cp-{i}") for i in range(1, n_cps + 1)]
        else:
            constraints = []
            soft = self._soft_constraint(rng)
            if soft is not None and rng.random() < 0.4:
                constraints.append(soft)
            cps = [
                self._cp(rng, f"cp-{i}", constraints=[Count(1)])
                for i in range(1, n_cps + 1)
            ]
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

    Returns (step, check name, result) triples.  Prompts are resolved with
    the deterministic minimum-loss chooser to keep the trial going, but the
    checks see the unresolved decision.
    """
    state = initial_state(doc.licenses)
    results = []
    for step, request in enumerate(doc.requests):
        decision = allocate(state, request, algorithm=algorithm)
        for name in checks:
            results.append((step, name, CHECKS[name](state, request, decision)))
        if isinstance(decision, PromptRequired):
            picked = min_loss_chooser(request, decision.candidates, decision.losses)
            sl_id, cp_id = select_target(state, picked, request)
            decision = Chosen(picked, sl_id, cp_id, via_prompt=True)
        if isinstance(decision, Chosen):
            state = consume(state, decision.license_id, decision.sublicense_id, decision.cp_id, request)
    return results


def _trial_failures(doc: CorpusDocument, algorithm: str, checks: Sequence[str]):
    return [(step, name, res) for step, name, res in run_trial(doc, algorithm, checks) if not res.passed]


def shrink_document(
    doc: CorpusDocument, still_fails: Callable[[CorpusDocument], bool], max_attempts: int = 400
) -> CorpusDocument:
    """Greedily drop licenses, sublicenses and cps while the failure persists."""
    attempts = 0

    def try_variant(variant: Optional[CorpusDocument]) -> bool:
        nonlocal attempts, doc
        attempts += 1
        if variant is None:
            return False
        if still_fails(variant):
            doc = variant
            return True
        return False

    def without_license(i: int) -> Optional[CorpusDocument]:
        if len(doc.licenses) <= 1:
            return None
        kept = [lic for j, lic in enumerate(doc.licenses) if j != i]
        return CorpusDocument(LicenseSet(kept), doc.requests)

    def without_sublicense(li: int, si: int) -> Optional[CorpusDocument]:
        lic = doc.licenses.licenses[li]
        if len(lic.sublicenses) <= 1:
            return None
        subs = [sl for j, sl in enumerate(lic.sublicenses) if j != si]
        kept = list(doc.licenses.licenses)
        kept[li] = License(lic.id, subs)
        return CorpusDocument(LicenseSet(kept), doc.requests)

    def without_cp(li: int, si: int, ci: int) -> Optional[CorpusDocument]:
        lic = doc.licenses.licenses[li]
        sl = lic.sublicenses[si]
        if len(sl.cps) <= 1:
            return None
        cps = [cp for j, cp in enumerate(sl.cps) if j != ci]
        subs = list(lic.sublicenses)
        subs[si] = SubLicense(sl.id, sl.constraints, cps)
        kept = list(doc.licenses.licenses)
        kept[li] = License(lic.id, subs)
        return CorpusDocument(LicenseSet(kept), doc.requests)

    progress = True
    while progress and attempts < max_attempts:
        progress = False
        for i in range(len(doc.licenses) - 1, -1, -1):
            if attempts >= max_attempts:
                break
            if try_variant(without_license(i)):
                progress = True
        for li in range(len(doc.licenses)):
            for si in range(len(doc.licenses.licenses[li].sublicenses) - 1, -1, -1):
                if attempts >= max_attempts:
                    break
                if try_variant(without_sublicense(li, si)):
                    progress = True
        for li in range(len(doc.licenses)):
            for si, sl in enumerate(doc.licenses.licenses[li].sublicenses):
                for ci in range(len(sl.cps) - 1, -1, -1):
                    if attempts >= max_attempts:
                        break
                    if try_variant(without_cp(li, si, ci)):
                        progress = True
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
        return {
            "trial": self.trial,
            "step": self.step,
            "check": self.check,
            "case": self.case,
            "document": self.document,
            "detail": self.detail,
        }


@dataclass
class CampaignReport:
    campaign: str
    algorithm: str
    seed: int
    caps: GeneratorCaps
    profile: str
    trials: int
    checks: tuple[str, ...]
    decisions_checked: int = 0
    passes: dict = field(default_factory=dict)
    vacuous: dict = field(default_factory=dict)
    failures: dict = field(default_factory=dict)
    counterexamples: list[Counterexample] = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return any(self.failures.get(name, 0) for name in self.checks)

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
            "passes": {k: self.passes.get(k, 0) for k in self.checks},
            "vacuous_passes": {k: self.vacuous.get(k, 0) for k in self.checks},
            "failures": {k: self.failures.get(k, 0) for k in self.checks},
            "counterexamples": [c.to_json() for c in self.counterexamples],
        }

    def to_bytes(self) -> bytes:
        return (json.dumps(self.to_json(), indent=2, sort_keys=True) + "\n").encode("utf-8")


def fuzz_campaign(
    generator: InstanceGenerator,
    n: int,
    checks: Sequence[str] = ("soundness", "minimal_loss"),
    *,
    algorithm: str = "proposed",
    max_counterexamples: int = 5,
    shrink: bool = True,
    stop_after: Optional[int] = None,
) -> CampaignReport:
    """Generate ``n`` instances, replay their request scripts and check every decision.

    ``stop_after`` aborts early once that many failing trials have been seen
    (useful when a failure is the expected outcome).
    """
    unknown = set(checks) - set(CHECKS)
    if unknown:
        raise ValueError(f"unknown checks {sorted(unknown)}")
    report = CampaignReport(
        campaign="fuzz",
        algorithm=algorithm,
        seed=generator.seed,
        caps=generator.caps,
        profile=generator.profile,
        trials=n,
        checks=tuple(checks),
    )
    failing_trials = 0
    for index in range(n):
        doc = generator.document(index)
        failed_checks: set[str] = set()
        for step, name, result in run_trial(doc, algorithm, checks):
            report.decisions_checked += 1
            if result.passed:
                report.passes[name] = report.passes.get(name, 0) + 1
                if result.vacuous:
                    report.vacuous[name] = report.vacuous.get(name, 0) + 1
                continue
            report.failures[name] = report.failures.get(name, 0) + 1
            if name in failed_checks:
                continue
            failed_checks.add(name)
            if len(report.counterexamples) < max_counterexamples:
                shrunk = doc
                if shrink:
                    shrunk = shrink_document(
                        doc, lambda d, nm=name: bool(_trial_failures(d, algorithm, [nm]))
                    )
                failures = _trial_failures(shrunk, algorithm, [name])
                fstep, _, fres = failures[0]
                report.counterexamples.append(
                    Counterexample(
                        trial=index,
                        step=fstep,
                        check=name,
                        case=fres.case,
                        document=document_to_json(shrunk),
                        detail=fres.detail,
                    )
                )
        if failed_checks:
            failing_trials += 1
            if stop_after is not None and failing_trials >= stop_after:
                report.trials = index + 1
                break
    return report


def run_neutrality_campaign(
    caps: GeneratorCaps = GeneratorCaps(),
    n: int = 1000,
    seed: int = 0,
    *,
    max_counterexamples: int = 5,
) -> CampaignReport:
    """Both allocators must agree when no label anywhere is once+complex."""
    generator = InstanceGenerator(caps, seed=seed, profile="many_only")
    report = CampaignReport(
        campaign="neutrality",
        algorithm="both",
        seed=seed,
        caps=caps,
        profile="many_only",
        trials=n,
        checks=("neutrality",),
    )
    for index in range(n):
        doc = generator.document(index)
        state = initial_state(doc.licenses)
        if any(lbl.depleting_and_complex for lbl in state_labels(state).values()):
            raise AssertionError("many_only generator emitted a once+complex label")
        request = doc.requests[0]
        report.decisions_checked += 1
        base = oma_allocate(state, request)
        filtered = proposed_allocate(state, request)
        if base == filtered:
            report.passes["neutrality"] = report.passes.get("neutrality", 0) + 1
            continue
        report.failures["neutrality"] = report.failures.get("neutrality", 0) + 1
        if len(report.counterexamples) < max_counterexamples:
            report.counterexamples.append(
                Counterexample(
                    trial=index,
                    step=0,
                    check="neutrality",
                    case="decision_mismatch",
                    document=document_to_json(doc),
                    detail={"oma": repr(base), "proposed": repr(filtered)},
                )
            )
    return report


# --- bounded liveness -------------------------------------------------------


@dataclass(frozen=True)
class Schedule:
    """A finite request list promising each installed permission once per window."""

    requests: tuple[Request, ...]
    window: int

    def is_fair(self, support: Sequence[Permission]) -> bool:
        """Every support permission is requested in every full window."""
        perms = [r.permission for r in self.requests]
        for start in range(0, len(perms) - self.window + 1, self.window):
            block = set(perms[start : start + self.window])
            if not set(support) <= block:
                return False
        return True


def conforms_to_depletion_assumption(state: AgentState) -> bool:
    """Every node burns on use: a many-labeled sublicense only holds once-labeled cps."""
    for lic in state.licenses:
        for sl in lic.sublicenses:
            if sublicense_label(state, lic.id, sl.id).times is Times.MANY:
                for cp in sl.cps:
                    if cp_label(state, lic.id, sl.id, cp.id).times is not Times.ONCE:
                        return False
    return True


@dataclass
class LivenessResult:
    passed: bool
    schedules_run: int
    support: int
    failure: Optional[dict] = None


def _schedules(
    support: Sequence[Permission], rounds: int, seed: int, max_schedules: int, exhaustive_limit: int
) -> Iterable[tuple[Permission, ...]]:
    perms = list(support)
    total = math.factorial(len(perms)) ** rounds
    if total <= exhaustive_limit:
        for combo in itertools.product(itertools.permutations(perms), repeat=rounds):
            yield tuple(p for chunk in combo for p in chunk)
        return
    rng = random.Random(seed)
    yield tuple(p for _ in range(rounds) for p in perms)
    for _ in range(max_schedules - 1):
        flat: list[Permission] = []
        for _ in range(rounds):
            chunk = perms[:]
            rng.shuffle(chunk)
            flat.extend(chunk)
        yield tuple(flat)


def run_bounded_liveness(
    licenses: LicenseSet,
    *,
    algorithm: str = "proposed",
    seed: int = 0,
    at: int = T0,
    usage_duration: int = USAGE_DURATION,
    rounds: Optional[int] = None,
    max_schedules: int = 16,
    exhaustive_limit: int = 256,
) -> LivenessResult:
    """Drive fair schedules and require black-by-quiescence.

    Every round requests each initially available permission once (window =
    support size, so the schedules are 1-fair).  After every step, any
    permission with no valid candidate left must already be black.  Raises
    AssumptionViolation when some node would survive its own selection,
    which is outside the regime this check covers.
    """
    state0 = initial_state(licenses)
    if not conforms_to_depletion_assumption(state0):
        raise AssumptionViolation(
            "instance has a many-labeled sublicense with a non-once cp"
        )
    support = sorted(rights(state0, at))
    if not support:
        return LivenessResult(passed=True, schedules_run=0, support=0)
    if rounds is None:
        hosts = Counter()
        for lic in licenses:
            for sl in lic.sublicenses:
                for cp in sl.cps:
                    for p in set(cp.permissions):
                        hosts[p] += 1
        rounds = max(hosts[p] for p in support) + 1

    def request_for(p: Permission) -> Request:
        return Request(p.action, p.content, at=at, usage_duration=usage_duration)

    schedules_run = 0
    for flat in _schedules(support, rounds, seed, max_schedules, exhaustive_limit):
        schedule = Schedule(tuple(request_for(p) for p in flat), window=len(support))
        schedules_run += 1
        state = state0
        coloring = Coloring.initial(state0, at)
        for step, request in enumerate(schedule.requests):
            decision = allocate(state, request, algorithm=algorithm, chooser=min_loss_chooser)
            if isinstance(decision, Chosen):
                coloring = color_step(coloring, state, decision, request)
                state = consume(
                    state, decision.license_id, decision.sublicense_id, decision.cp_id, request
                )
            for p in support:
                if coloring.color(p) is Color.WHITE and not candidates(state, request_for(p)):
                    return LivenessResult(
                        passed=False,
                        schedules_run=schedules_run,
                        support=len(support),
                        failure={
                            "schedule": [
                                {"action": q.action.value, "content": q.content}
                                for q in schedule.requests[: step + 1]
                            ],
                            "step": step,
                            "permission": {"action": p.action.value, "content": p.content},
                        },
                    )
    return LivenessResult(passed=True, schedules_run=schedules_run, support=len(support))


def run_liveness_campaign(
    caps: GeneratorCaps = GeneratorCaps(max_licenses=2, max_sublicenses=2, max_cps=2, max_permissions=2, contents=3),
    n: int = 1000,
    seed: int = 0,
    *,
    algorithm: str = "proposed",
    max_counterexamples: int = 5,
    max_schedules: int = 8,
) -> CampaignReport:
    """Bounded liveness over generated depleting instances; gated ones are skipped."""
    generator = InstanceGenerator(caps, seed=seed, profile="depleting")
    report = CampaignReport(
        campaign="liveness",
        algorithm=algorithm,
        seed=seed,
        caps=caps,
        profile="depleting",
        trials=n,
        checks=("liveness",),
    )
    produced = 0
    index = 0
    while produced < n and index < n * 10:
        doc = generator.document(index)
        index += 1
        try:
            result = run_bounded_liveness(
                doc.licenses, algorithm=algorithm, seed=seed + index, max_schedules=max_schedules
            )
        except AssumptionViolation:
            continue
        produced += 1
        report.decisions_checked += 1
        if result.passed:
            report.passes["liveness"] = report.passes.get("liveness", 0) + 1
        else:
            report.failures["liveness"] = report.failures.get("liveness", 0) + 1
            if len(report.counterexamples) < max_counterexamples:
                report.counterexamples.append(
                    Counterexample(
                        trial=index - 1,
                        step=result.failure.get("step", 0) if result.failure else 0,
                        check="liveness",
                        case="white_after_quiescence",
                        document=document_to_json(doc),
                        detail=result.failure,
                    )
                )
    report.trials = produced
    return report
