import importlib
import random
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from licalloc.allocate import PromptRequired, allocate_and_execute, min_loss_chooser, oma_allocate, proposed_allocate
from licalloc.cases import REQUEST_AT, all_lossy_licenses, case_studies
from licalloc.engine import AgentState, Depletion, consume, initial_state, is_depleting
from licalloc.errors import NotFoundError
from licalloc.labels import Times, state_labels, sublicense_label
from licalloc.model import (
    CP,
    Action,
    Count,
    Interval,
    License,
    LicenseSet,
    Request,
    SubLicense,
    TimedCount,
)
from licalloc.rights import (
    candidates,
    loss,
    pool_losses,
    remnants,
    resolve_candidates,
    rights,
)
from licalloc.verify import T0, TIMER_MAX, GeneratorCaps, InstanceGenerator

from conftest import (
    brute_force_loss,
    brute_force_rights,
    full_walk_candidates,
    full_walk_resolution,
    perm,
    target_of,
    wide_licenses,
)

# The rights module; the name ``rights`` is bound to its function.
rights_module = importlib.import_module("licalloc.rights")


def test_initial_rights_of_deadline_fixture(deadline_state):
    expected = Counter(
        {
            perm("play", "song-a"): 2,
            perm("play", "song-b"): 1,
            perm("play", "song-c"): 1,
        }
    )
    assert rights(deadline_state, REQUEST_AT) == expected
    assert brute_force_rights(deadline_state, REQUEST_AT) == expected


def test_all_lossy_fixture_rights(all_lossy_state):
    expected = Counter(
        {
            perm("play", "song-a"): 2,
            perm("play", "song-b"): 1,
            perm("play", "song-c"): 1,
            perm("play", "song-d"): 1,
        }
    )
    assert rights(all_lossy_state, REQUEST_AT) == expected


def test_fully_depleted_set_has_no_rights(all_lossy_state):
    state = all_lossy_state
    state = consume(state, "license-1", "sl-1", "cp-1", Request(Action.PLAY, "song-a", at=REQUEST_AT))
    state = consume(state, "license-2", "sl-1", "cp-1", Request(Action.PLAY, "song-c", at=REQUEST_AT))
    assert rights(state, REQUEST_AT) == Counter()


def test_remnants_via_each_license(deadline_state, play_a):
    # burning the dated license kills song-b as collateral
    assert remnants(deadline_state, "license-1", play_a) == Counter(
        {perm("play", "song-a"): 1, perm("play", "song-c"): 1}
    )
    # the counter license just goes from ten to nine charges: every
    # permission occurrence is still exercisable
    after = consume(deadline_state, "license-2", "sl-1", "cp-1", play_a)
    assert remnants(deadline_state, "license-2", play_a) == brute_force_rights(after, play_a.at)
    assert remnants(deadline_state, "license-2", play_a) == rights(deadline_state, play_a.at)


def test_loss_and_lossiness(deadline_state, play_a):
    assert loss(deadline_state, "license-1", play_a) == Counter(
        {perm("play", "song-a"): 1, perm("play", "song-b"): 1}
    )
    assert loss(deadline_state, "license-1", play_a) > Counter({play_a.permission: 1})
    assert loss(deadline_state, "license-2", play_a) == Counter()
    assert not loss(deadline_state, "license-2", play_a) > Counter({play_a.permission: 1})


def test_exactly_the_request_is_not_lossy():
    licenses = LicenseSet(
        [License("l", [SubLicense("sl", constraints=[Count(1)], cps=[CP("cp", permissions=[perm("play", "a")])])])]
    )
    state = initial_state(licenses)
    request = Request(Action.PLAY, "a", at=0)
    assert loss(state, "l", request) == Counter({perm("play", "a"): 1})
    assert not loss(state, "l", request) > Counter({request.permission: 1})


def test_all_lossy_fixture_is_lossy_everywhere(all_lossy_state):
    request = Request(Action.PLAY, "song-a", at=REQUEST_AT)
    assert loss(all_lossy_state, "license-1", request) > Counter({request.permission: 1})
    assert loss(all_lossy_state, "license-2", request) > Counter({request.permission: 1})


def test_candidates_respect_validity(deadline_state, play_a):
    assert candidates(deadline_state, play_a) == ["license-1", "license-2"]
    after = consume(deadline_state, "license-1", "sl-1", "cp-1", play_a)
    assert candidates(after, play_a) == ["license-2"]
    assert candidates(after, Request(Action.PLAY, "song-b", at=play_a.at)) == []


def test_rights_and_candidates_read_states_without_tree_lookups(monkeypatch):
    """So do both allocators on every decision that does not prompt."""
    instances = [(initial_state(case.licenses), case.request) for case in case_studies()]
    instances.append((initial_state(all_lossy_licenses()), Request(Action.PLAY, "song-a", at=REQUEST_AT)))

    # every decision that does not prompt (the all-lossy fixture prompts)
    decisions = [
        (allocator, state, request)
        for allocator in (oma_allocate, proposed_allocate)
        for state, request in instances
        if not isinstance(allocator(state, request), PromptRequired)
    ]
    assert len(decisions) == 2 * len(instances) - 1

    def observe():
        return [(rights(state, request.at), candidates(state, request)) for state, request in instances], [
            allocator(state, request) for allocator, state, request in decisions
        ]

    expected = observe()

    def tree_lookup(*args):
        raise AssertionError(f"tree lookup by id {args[1:]}")

    for name in ("license", "sublicense", "cp"):
        monkeypatch.setattr(AgentState, name, tree_lookup)
    assert observe() == expected


@pytest.mark.parametrize("seed", range(3))
def test_pools_match_a_full_walk_on_wide_corpora(seed):
    """Walking only the hosts finds the same pool, targets and labels as walking every license.

    Requests ask for installed and uninstalled permissions on a clock that
    moves across the generated date windows and intervals, and each decision
    is executed, so counters deplete along the way.
    """
    licenses = wide_licenses(seed)
    installed = sorted({p for lic in licenses for sl in lic.sublicenses for cp in sl.cps for p in cp.permissions})
    absent = [perm("export", "c1"), perm("play", "absent")]
    rng = random.Random(seed)
    state = initial_state(licenses)
    seen = Counter()
    for step in range(150):
        p = rng.choice(installed) if rng.random() < 0.85 else rng.choice(absent)
        request = Request(p.action, p.content, at=step * 50, usage_duration=rng.randrange(TIMER_MAX + 10))
        pool = resolve_candidates(state, request)
        assert candidates(state, request) == full_walk_candidates(state, request) == list(pool)
        resolved = {lid: (r.target, r.sublicense_label, r.cp_label) for lid, r in pool.items()}
        assert resolved == full_walk_resolution(state, request)
        hosts = licenses.hosts(request.permission)
        seen["absent" if not hosts else "pool" if pool else "no_valid_host"] += 1
        seen["host_left_out"] += len(pool) < len(hosts)
        _, state = allocate_and_execute(state, request, chooser=min_loss_chooser)
    assert all(seen[case] for case in ("absent", "pool", "no_valid_host", "host_left_out")), seen


def test_resolution_reads_only_sublicenses_granting_the_request(monkeypatch):
    """Within a host, a sublicense that grants no matching permission is neither read nor labelled."""
    licenses = wide_licenses(0)
    state = initial_state(licenses)
    read, labelled = set(), set()
    sublicense_states = AgentState.sublicense_states

    def reading(self, license_id, sublicense_id):
        read.add((license_id, sublicense_id))
        return sublicense_states(self, license_id, sublicense_id)

    def labelling(sl, *states):
        labelled.add(id(sl))
        return sublicense_label(sl, *states)

    monkeypatch.setattr(AgentState, "sublicense_states", reading)
    monkeypatch.setattr(rights_module, "sublicense_label", labelling)
    installed = sorted({p for lic in licenses for sl in lic.sublicenses for cp in sl.cps for p in cp.permissions})
    for p in installed:
        request = Request(p.action, p.content, at=T0)
        read.clear()
        labelled.clear()
        resolve_candidates(state, request)
        granting = [(lic, sl) for lic in licenses for sl in lic.sublicenses if any(p in cp.permissions for cp in sl.cps)]
        assert read and read <= {(lic.id, sl.id) for lic, sl in granting}
        assert labelled and labelled <= {id(sl) for _, sl in granting}


def test_find_matching_cp_in_two_cp_sublicense():
    request = Request(Action.PLAY, "content-2", at=REQUEST_AT)
    from licalloc.cases import case_studies

    licenses = case_studies()[1].licenses
    state = initial_state(licenses)
    assert target_of(state, "license-1", request) == ("sl-1", "cp-play")
    cp = state.cp("license-1", "sl-1", "cp-play")
    assert any(p == perm("play", "content-2") for p in cp.permissions)


def test_find_matching_prefers_surviving_cp():
    licenses = LicenseSet(
        [
            License(
                "l",
                [
                    SubLicense(
                        "sl",
                        cps=[
                            CP("cp-once", constraints=[Count(1)], permissions=[perm("play", "a")]),
                            CP("cp-many", constraints=[Count(5)], permissions=[perm("play", "a")]),
                        ],
                    )
                ],
            )
        ]
    )
    state = initial_state(licenses)
    request = Request(Action.PLAY, "a", at=0)
    # oracle: enumerate both choices and keep the one whose label survives
    surviving = [
        cp.id
        for cp in state.sublicense("l", "sl").cps
        if state_labels(state)[("l", "sl", cp.id)].times is Times.MANY
    ]
    sl_id, cp_id = target_of(state, "l", request)
    assert sl_id == "sl"
    assert [cp_id] == surviving == ["cp-many"]


def test_select_target_prefers_surviving_sublicense_then_declaration_order():
    def sublicense(sl_id, count):
        return SubLicense(sl_id, constraints=[Count(count)], cps=[CP("cp", permissions=[perm("play", "a")])])

    request = Request(Action.PLAY, "a", at=0)
    ranked = initial_state(LicenseSet([License("l", [sublicense("sl-once", 1), sublicense("sl-many", 5)])]))
    assert target_of(ranked, "l", request) == ("sl-many", "cp")
    tied = initial_state(LicenseSet([License("l", [sublicense("sl-1", 5), sublicense("sl-2", 5)])]))
    assert target_of(tied, "l", request) == ("sl-1", "cp")


def test_find_matching_single_cp(deadline_state, play_a):
    assert target_of(deadline_state, "license-1", play_a) == ("sl-1", "cp-1")


def test_find_matching_requires_a_match(deadline_state):
    with pytest.raises(NotFoundError):
        loss(deadline_state, "license-1", Request(Action.PLAY, "song-z", at=0))
    with pytest.raises(NotFoundError):
        loss(deadline_state, "license-2", Request(Action.PLAY, "song-b", at=0))


counts = st.one_of(st.none(), st.integers(1, 3))
request_contents = st.sampled_from(["a", "b", "c"])


@st.composite
def small_instances(draw):
    n_lic = draw(st.integers(1, 3))
    out = []
    for i in range(n_lic):
        cps = []
        for k in range(draw(st.integers(1, 2))):
            perms = draw(
                st.lists(
                    st.builds(perm, st.just("play"), request_contents),
                    min_size=1,
                    max_size=2,
                    unique=True,
                )
            )
            c = draw(counts)
            cps.append(CP(f"cp-{k}", constraints=[Count(c)] if c else [], permissions=perms))
        sl_count = draw(counts)
        out.append(
            License(
                f"license-{i}",
                [SubLicense("sl-0", constraints=[Count(sl_count)] if sl_count else [], cps=cps)],
            )
        )
    return LicenseSet(out)


@given(small_instances(), request_contents)
def test_remnants_are_contained_in_rights(licenses, content):
    state = initial_state(licenses)
    request = Request(Action.PLAY, content, at=0)
    base = rights(state, 0)
    for lid in candidates(state, request):
        rem = remnants(state, lid, request)
        assert rem <= base
        lost = loss(state, lid, request)
        assert all(n >= 1 for n in lost.values())
        assert base - rem == lost


@given(small_instances(), request_contents)
def test_selected_target_always_satisfies_the_request(licenses, content):
    state = initial_state(licenses)
    request = Request(Action.PLAY, content, at=0)
    for lid in candidates(state, request):
        sl_id, cp_id = target_of(state, lid, request)
        assert request.permission in state.cp(lid, sl_id, cp_id).permissions


def _path(state, lid, target):
    """(constraint, state) pairs on the path from a license to its target cp."""
    sl_id, cp_id = target
    sl = state.sublicense(lid, sl_id)
    return list(
        zip(
            sl.constraints + sl.cp(cp_id).constraints,
            state.sublicense_states(lid, sl_id) + state.cp_states(lid, sl_id, cp_id),
        )
    )


def test_local_loss_matches_copy_consume_recount():
    """``loss``, ``remnants`` and ``pool_losses`` agree with ``brute_force_loss``.

    Precondition: rights are measured at the instant of the request.  Each
    trajectory advances the clock, so date windows close and intervals started
    by earlier uses are running or over; uses vary from none to longer than
    every timer, so timed counts are both charged and spared.  Every step
    prices every candidate, then consumes a randomly picked one.
    """
    caps = GeneratorCaps(max_licenses=5, contents=3)
    seen = Counter()
    for profile in ("general", "depleting", "many_only"):
        gen = InstanceGenerator(caps, seed=7, profile=profile)
        for index in range(100):
            state = initial_state(gen.licenses(index))
            installed = sorted(rights(state, T0))
            rng = random.Random(f"{profile}/{index}")
            at = T0
            for _ in range(10):
                at += rng.choice([0, 0, 1, 50, 900, 3000])
                p = rng.choice(installed)
                request = Request(
                    p.action, p.content, at=at, usage_duration=rng.choice([0, 1, 10, 30, 59, 60, 70])
                )
                pool = candidates(state, request)
                if not pool:
                    continue
                base = brute_force_rights(state, at)
                targets = {lid: target_of(state, lid, request) for lid in pool}
                expected = {lid: brute_force_loss(state, lid, request) for lid in pool}
                # a decision prices the targets its pool resolved
                resolved = resolve_candidates(state, request)
                assert {lid: r.target for lid, r in resolved.items()} == targets
                assert pool_losses(state, request, resolved) == expected
                for lid, target in targets.items():
                    assert loss(state, lid, request) == expected[lid]
                    assert remnants(state, lid, request) == base - expected[lid]
                    seen[is_depleting(state, lid, *target, request)] += 1
                    for c, s in _path(state, lid, target):
                        seen["short use"] += isinstance(c, TimedCount) and request.usage_duration < c.timer
                        seen["started interval"] += isinstance(c, Interval) and s is not None
                    seen["pairs"] += 1
                picked = rng.choice(pool)
                state = consume(state, picked, *targets[picked], request)
    assert all(seen[kind] for kind in Depletion), seen
    assert seen["short use"] and seen["started interval"] and seen["pairs"] >= 4000, seen


def test_submodules_are_not_shadowed_by_package_names():
    import licalloc.allocate as allocate_module
    import licalloc.rights as rights_module

    assert rights_module.remnants is remnants
    assert allocate_module.proposed_allocate.__module__ == "licalloc.allocate"
