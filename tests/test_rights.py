from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from licalloc.cases import REQUEST_AT
from licalloc.engine import consume, initial_state
from licalloc.errors import NotFoundError
from licalloc.labels import Times, cp_label
from licalloc.model import (
    CP,
    Action,
    Count,
    License,
    LicenseSet,
    Request,
    SubLicense,
)
from licalloc.rights import (
    candidates,
    is_lossy,
    loss,
    remnants,
    rights,
    select_target,
)

from conftest import brute_force_rights, perm


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
    assert is_lossy(deadline_state, "license-1", play_a)
    assert loss(deadline_state, "license-2", play_a) == Counter()
    assert not is_lossy(deadline_state, "license-2", play_a)


def test_exactly_the_request_is_not_lossy():
    licenses = LicenseSet(
        [License("l", [SubLicense("sl", constraints=[Count(1)], cps=[CP("cp", permissions=[perm("play", "a")])])])]
    )
    state = initial_state(licenses)
    request = Request(Action.PLAY, "a", at=0)
    assert loss(state, "l", request) == Counter({perm("play", "a"): 1})
    assert not is_lossy(state, "l", request)


def test_all_lossy_fixture_is_lossy_everywhere(all_lossy_state):
    request = Request(Action.PLAY, "song-a", at=REQUEST_AT)
    assert is_lossy(all_lossy_state, "license-1", request)
    assert is_lossy(all_lossy_state, "license-2", request)


def test_candidates_respect_validity(deadline_state, play_a):
    assert candidates(deadline_state, play_a) == ["license-1", "license-2"]
    after = consume(deadline_state, "license-1", "sl-1", "cp-1", play_a)
    assert candidates(after, play_a) == ["license-2"]
    assert candidates(after, Request(Action.PLAY, "song-b", at=play_a.at)) == []


def test_find_matching_cp_in_two_cp_sublicense():
    request = Request(Action.PLAY, "content-2", at=REQUEST_AT)
    from licalloc.cases import case_studies

    licenses = case_studies()[1].licenses
    state = initial_state(licenses)
    assert select_target(state, "license-1", request) == ("sl-1", "cp-play")
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
        if cp_label(state, "l", "sl", cp.id).times is Times.MANY
    ]
    sl_id, cp_id = select_target(state, "l", request)
    assert sl_id == "sl"
    assert [cp_id] == surviving == ["cp-many"]


def test_select_target_prefers_surviving_sublicense_then_declaration_order():
    def sublicense(sl_id, count):
        return SubLicense(sl_id, constraints=[Count(count)], cps=[CP("cp", permissions=[perm("play", "a")])])

    request = Request(Action.PLAY, "a", at=0)
    ranked = initial_state(LicenseSet([License("l", [sublicense("sl-once", 1), sublicense("sl-many", 5)])]))
    assert select_target(ranked, "l", request) == ("sl-many", "cp")
    tied = initial_state(LicenseSet([License("l", [sublicense("sl-1", 5), sublicense("sl-2", 5)])]))
    assert select_target(tied, "l", request) == ("sl-1", "cp")


def test_find_matching_single_cp(deadline_state, play_a):
    assert select_target(deadline_state, "license-1", play_a) == ("sl-1", "cp-1")


def test_find_matching_requires_a_match(deadline_state):
    with pytest.raises(NotFoundError):
        select_target(deadline_state, "license-1", Request(Action.PLAY, "song-z", at=0))
    with pytest.raises(NotFoundError):
        select_target(deadline_state, "license-2", Request(Action.PLAY, "song-b", at=0))


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
    from licalloc.model import sat_cp

    state = initial_state(licenses)
    request = Request(Action.PLAY, content, at=0)
    for lid in candidates(state, request):
        sl_id, cp_id = select_target(state, lid, request)
        assert sat_cp(state.cp(lid, sl_id, cp_id), request)
