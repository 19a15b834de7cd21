import itertools
from collections import Counter

import pytest

from licalloc.allocate import Chosen, allocate, min_loss_chooser
from licalloc.cases import (
    REQUEST_AT,
    all_lossy_licenses,
    case_studies,
    mixed_branch_license,
)
from licalloc.engine import constraints_hold, consume, initial_state
from licalloc.labels import cp_label, label_sort_key, sublicense_label
from licalloc.model import Action, License, LicenseSet, Permission, Request, sat_cp
from licalloc.rights import candidates, select_target
from licalloc.verify import T0, USAGE_DURATION, Color, Coloring, GeneratorCaps, InstanceGenerator, color_step


@pytest.fixture
def deadline_case():
    """Two licenses over song A: one dies entirely on first use, one counts down."""
    return case_studies()[0]


@pytest.fixture
def deadline_state(deadline_case):
    return initial_state(deadline_case.licenses)


@pytest.fixture
def play_a():
    return Request(Action.PLAY, "song-a", at=REQUEST_AT)


@pytest.fixture
def all_lossy_state():
    return initial_state(all_lossy_licenses())


@pytest.fixture
def mixed_branch_state():
    return initial_state(LicenseSet([mixed_branch_license()]))


def brute_force_rights(state, at) -> Counter:
    """Independent enumeration of the exercisable-permission multiset.

    Deliberately re-walks the tree with plain loops instead of reusing
    rights(); used as the oracle the library implementation is checked
    against.
    """
    found = Counter()
    for lic in state.licenses:
        for sl in lic.sublicenses:
            if not constraints_hold(sl.constraints, state.cstate[(lic.id, sl.id, None)], at):
                continue
            for cp in sl.cps:
                if constraints_hold(cp.constraints, state.cstate[(lic.id, sl.id, cp.id)], at):
                    for p in cp.permissions:
                        found[p] += 1
    return found


def wide_licenses(seed, n=24) -> LicenseSet:
    """``n`` one-license draws over 16 contents, alternating the general and depleting profiles.

    Each license hosts only a few of the corpus's permissions, so most
    requests have hosts and non-hosts alike.
    """
    caps = GeneratorCaps(max_licenses=1, contents=16)
    out = []
    for i in range(n):
        profile = "general" if i % 2 == 0 else "depleting"
        drawn = InstanceGenerator(caps, seed=seed, profile=profile).licenses(i)
        out.append(License(f"license-{i + 1}", drawn.licenses[0].sublicenses))
    return LicenseSet(out)


def full_walk_candidates(state, request) -> list[str]:
    """Ids of the licenses with a valid matching cp, found by walking every license."""

    def can_serve(lic):
        for sl in lic.sublicenses:
            if not constraints_hold(sl.constraints, state.cstate[(lic.id, sl.id, None)], request.at):
                continue
            for cp in sl.cps:
                states = state.cstate[(lic.id, sl.id, cp.id)]
                if sat_cp(cp, request) and constraints_hold(cp.constraints, states, request.at):
                    return True
        return False

    return [lic.id for lic in state.licenses if can_serve(lic)]


def full_walk_resolution(state, request) -> dict:
    """{license id: (target, sublicense label, cp label)} from a walk of every license.

    The oracle for ``resolve_candidates``: every sublicense of every license
    has its states read and its label computed, whatever it grants.  The best
    valid matching sublicense by label wins, then its best valid matching cp;
    ties go to declaration order.
    """
    out = {}
    for lic in state.licenses:
        options = []  # (sublicense label, sublicense, [(cp, cp label)])
        for sl in lic.sublicenses:
            sl_states = state.cstate[(lic.id, sl.id, None)]
            cp_states = [state.cstate[(lic.id, sl.id, cp.id)] for cp in sl.cps]
            sl_label = sublicense_label(sl, sl_states, cp_states)
            matching = [
                (cp, cp_label(cp, states))
                for cp, states in zip(sl.cps, cp_states)
                if sat_cp(cp, request) and constraints_hold(cp.constraints, states, request.at)
            ]
            if matching and constraints_hold(sl.constraints, sl_states, request.at):
                options.append((sl_label, sl, matching))
        if options:
            sl_label, sl, matching = min(options, key=lambda option: label_sort_key(option[0]))
            cp, cp_lbl = min(matching, key=lambda pair: label_sort_key(pair[1]))
            out[lic.id] = ((sl.id, cp.id), sl_label, cp_lbl)
    return out


def target_of(state, license_id, request) -> tuple[str, str]:
    """(sublicense id, cp id) that ``select_target`` resolves for the license."""
    return select_target(state, state.license(license_id), request, request.permission).target


def brute_force_loss(state, license_id, request) -> Counter:
    """Loss by copy, consume and recount: the oracle ``rights.loss`` is checked against.

    Builds the successor state of consuming the license's selected target and
    subtracts its ``brute_force_rights`` from the current ones.  Precondition:
    rights are measured at the instant of the request, so both counts are
    taken at ``request.at``.
    """
    sl_id, cp_id = target_of(state, license_id, request)
    after = consume(state, license_id, sl_id, cp_id, request)
    return brute_force_rights(state, request.at) - brute_force_rights(after, request.at)


def fair_family(licenses, at=T0) -> tuple[list, int]:
    """Support and round count of the bounded 1-fair schedules of ``licenses``.

    Every round requests each initially available permission once; there is
    one round more than the most cps granting any one permission.
    """
    support = sorted(brute_force_rights(initial_state(licenses), at))
    granting = Counter(
        p for lic in licenses for sl in lic.sublicenses for cp in sl.cps for p in set(cp.permissions)
    )
    return support, max((granting[p] for p in support), default=0) + 1


def replay_fair_schedule(licenses, algorithm, schedule, at=T0):
    """Per step of ``schedule``: the first white permission left without a candidate, or None.

    Each permission of ``schedule`` is requested once, decided with
    ``min_loss_chooser`` on a prompt, colored and executed; after the step
    every white permission of the support is asked for ``candidates``.
    """
    support, _ = fair_family(licenses, at)
    requests = {p: Request(p.action, p.content, at=at, usage_duration=USAGE_DURATION) for p in support}
    state, coloring = initial_state(licenses), Coloring.initial(support)
    for p in schedule:
        decision = allocate(state, requests[p], algorithm=algorithm, chooser=min_loss_chooser)
        if isinstance(decision, Chosen):
            coloring = color_step(coloring, state, decision, requests[p])
            state = consume(
                state, decision.license_id, decision.sublicense_id, decision.cp_id, requests[p]
            )
        yield next(
            (q for q in support if coloring.color(q) is Color.WHITE and not candidates(state, requests[q])),
            None,
        )


def brute_force_liveness(licenses, algorithm, at=T0) -> tuple[bool, dict | None]:
    """Replay every fair schedule from the start: the oracle for ``run_bounded_liveness``.

    Schedules come in ``itertools.product`` order over each round's
    permutations of the sorted support.  The first failure is returned as
    ``(False, failure)`` with the schedule cut at its failing step, and
    ``(True, None)`` when every schedule passes.
    """
    support, rounds = fair_family(licenses, at)
    for combo in itertools.product(itertools.permutations(support), repeat=rounds):
        schedule = [p for chunk in combo for p in chunk]
        for step, starved in enumerate(replay_fair_schedule(licenses, algorithm, schedule, at)):
            if starved is not None:
                return False, {
                    "schedule": [
                        {"action": p.action.value, "content": p.content} for p in schedule[: step + 1]
                    ],
                    "step": step,
                    "permission": {"action": starved.action.value, "content": starved.content},
                }
    return True, None


def perm(action, content) -> Permission:
    return Permission(Action(action), content)
