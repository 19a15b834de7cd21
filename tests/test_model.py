import pytest

from licalloc.model import (
    CP,
    Action,
    Count,
    DateTime,
    License,
    LicenseSet,
    Request,
    SubLicense,
    matches,
    sat_cp,
)

from conftest import perm


def test_matches_identity():
    assert matches(perm("play", "a"), Request(Action.PLAY, "a", at=0))


def test_matches_action_mismatch():
    assert not matches(perm("play", "a"), Request(Action.DISPLAY, "a", at=0))


def test_matches_content_mismatch():
    assert not matches(perm("play", "b"), Request(Action.PLAY, "a", at=0))


def test_sat_cp_two_songs():
    cp = CP("cp-1", permissions=[perm("play", "song-a"), perm("play", "song-b")])
    assert sat_cp(cp, Request(Action.PLAY, "song-a", at=0))
    assert not sat_cp(CP("cp-2", permissions=[perm("play", "song-c")]), Request(Action.PLAY, "song-a", at=0))
    assert sat_cp(CP("cp-3", permissions=[perm("display", "c1")]), Request(Action.DISPLAY, "c1", at=0))


def test_sat_lifts_on_case_fixture(deadline_case):
    licenses = deadline_case.licenses

    def satisfiable(lics, request):
        return any(sat_cp(cp, request) for lic in lics for sl in lic.sublicenses for cp in sl.cps)

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

