import dataclasses

import pytest

from licalloc.model import (
    CP,
    Action,
    Count,
    DateTime,
    License,
    LicenseSet,
    Permission,
    Request,
    SubLicense,
)

from conftest import perm


def test_matches_identity():
    assert perm("play", "a") == Request(Action.PLAY, "a", at=0).permission


def test_matches_action_mismatch():
    assert perm("play", "a") != Request(Action.DISPLAY, "a", at=0).permission


def test_matches_content_mismatch():
    assert perm("play", "b") != Request(Action.PLAY, "a", at=0).permission


def test_sat_cp_two_songs():
    play_a = Request(Action.PLAY, "song-a", at=0).permission
    assert play_a in CP("cp-1", permissions=[perm("play", "song-a"), perm("play", "song-b")]).permissions
    assert play_a not in CP("cp-2", permissions=[perm("play", "song-c")]).permissions
    display_c1 = Request(Action.DISPLAY, "c1", at=0).permission
    assert display_c1 in CP("cp-3", permissions=[perm("display", "c1")]).permissions


def test_sat_lifts_on_case_fixture(deadline_case):
    licenses = deadline_case.licenses

    def satisfiable(lics, request):
        return any(request.permission in cp.permissions for lic in lics for sl in lic.sublicenses for cp in sl.cps)

    assert satisfiable([licenses.license("license-2")], Request(Action.PLAY, "song-a", at=0))
    assert not satisfiable(LicenseSet([]), Request(Action.PLAY, "song-a", at=0))
    # exhaustive scan over both permission lists: song-d appears nowhere
    present = {
        p
        for lic in licenses
        for sl in lic.sublicenses
        for cp in sl.cps
        for p in cp.permissions
    }
    assert perm("play", "song-d") not in present
    assert not satisfiable(licenses, Request(Action.PLAY, "song-d", at=0))


def test_request_validation():
    with pytest.raises(ValueError):
        Request(Action.PLAY, "a", at=-1)
    with pytest.raises(ValueError):
        Request(Action.PLAY, "a", at=0, usage_duration=-5)


def test_constraint_validation():
    with pytest.raises(ValueError):
        Count(0)
    with pytest.raises(ValueError):
        DateTime()
    with pytest.raises(ValueError):
        DateTime(start=10, end=5)
    DateTime(end=5)  # one bound is enough


def test_tree_invariants():
    with pytest.raises(ValueError):
        CP("cp-1", permissions=[])
    with pytest.raises(ValueError):
        SubLicense("sl-1", cps=[])
    with pytest.raises(ValueError):
        License("l-1", sublicenses=[])
    cp = CP("cp-1", permissions=[perm("play", "a")])
    with pytest.raises(ValueError):
        SubLicense("sl-1", cps=[cp, cp])
    lic = License("l-1", [SubLicense("sl-1", cps=[cp])])
    with pytest.raises(ValueError):
        LicenseSet([lic, lic])



def test_a_request_stores_its_permission_and_replace_rebuilds_it():
    request = Request(Action.PLAY, "a", at=3, usage_duration=7)
    assert request.permission == Permission(Action.PLAY, "a")
    assert request.permission is request.permission
    assert dataclasses.replace(request, content="b").permission == Permission(Action.PLAY, "b")
    assert dataclasses.replace(request, action=Action.DISPLAY).permission == Permission(Action.DISPLAY, "a")
    # The stored field takes no part in equality, hashing or the repr.
    assert request == Request(Action.PLAY, "a", at=3, usage_duration=7)
    assert hash(request) == hash(Request(Action.PLAY, "a", at=3, usage_duration=7))
    assert repr(request) == "Request(action=<Action.PLAY: 'play'>, content='a', at=3, usage_duration=7)"


def test_a_cp_grants_each_listed_permission_once_in_first_listing_order():
    a, b = perm("play", "a"), perm("play", "b")
    cp = CP("cp-1", permissions=[a, b, a, a])
    assert cp.permissions == (a, b)
    assert cp == CP("cp-1", permissions=[a, b])


def test_a_permission_hashes_sorts_and_prints_as_it_did_and_is_its_tuple():
    """A ``Permission`` keeps the dataclass's hash, order and repr, so set orders and digests stay."""
    p = Permission(Action.PLAY, "a")
    assert hash(p) == hash((Action.PLAY, "a"))
    assert repr(p) == "Permission(action=<Action.PLAY: 'play'>, content='a')"
    unsorted = [perm("play", "a"), perm("display", "b"), perm("play", "A"), perm("display", "a")]
    assert sorted(unsorted) == [perm("display", "a"), perm("display", "b"), perm("play", "A"), perm("play", "a")]
    assert p == (Action.PLAY, "a") and p != (Action.PLAY, "b")
    action, content = p
    assert (action, content) == (p.action, p.content) == (Action.PLAY, "a")
    with pytest.raises(AttributeError):
        p.content = "b"


_CP = CP("cp", permissions=[perm("play", "a")])
_SL = SubLicense("sl", cps=[_CP])


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: SubLicense("sl", cps=[_CP, CP("cp", permissions=[perm("play", "b")])]), "duplicate cp id 'cp' in sublicense 'sl'"),
        (lambda: License("l", [_SL, _SL]), "duplicate sublicense id 'sl' in license 'l'"),
        (lambda: LicenseSet([License("l", [_SL]), License("l", [_SL])]), "duplicate license id 'l'"),
    ],
    ids=["cp", "sublicense", "license"],
)
def test_a_duplicate_id_is_refused(build, message):
    """Ids are unique among siblings, so (license id, sublicense id) names one sublicense."""
    with pytest.raises(ValueError) as raised:
        build()
    assert str(raised.value) == message
