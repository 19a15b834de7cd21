from hypothesis import given
from hypothesis import strategies as st

from licalloc.engine import Depletion, consume, initial_state, is_depleting
from licalloc.labels import (
    Complexity,
    ConstraintName,
    Label,
    Times,
    cp_label,
    dominant_constraint,
    state_labels,
)
from licalloc.model import (
    CP,
    Action,
    Count,
    DateTime,
    License,
    LicenseSet,
    Request,
    SubLicense,
    TimedCount,
)
from licalloc.engine import fresh_state

from conftest import perm


def states_for(constraints):
    return [fresh_state(c) for c in constraints]


def test_two_song_single_charge_cp():
    cp = CP("cp", constraints=[Count(1)], permissions=[perm("play", "a"), perm("play", "b")])
    assert cp_label(cp, states_for(cp.constraints)) == Label(
        Complexity.COMPLEX, Times.ONCE, ConstraintName.COUNT
    )


def test_unconstrained_print_cp():
    cp = CP("cp", permissions=[perm("print", "c")])
    assert cp_label(cp, []) == Label(Complexity.SIMPLE, Times.MANY, ConstraintName.TRUE)


def test_dominant_constraint_prefers_datetime_over_count():
    cp = CP(
        "cp",
        constraints=[Count(10), DateTime(end=10_000)],
        permissions=[perm("play", "a")],
    )
    # rank check: the dated constraint outranks the counter
    assert dominant_constraint(cp.constraints) is ConstraintName.DATETIME
    assert cp_label(cp, states_for(cp.constraints)) == Label(
        Complexity.SIMPLE, Times.MANY, ConstraintName.DATETIME
    )


def test_mixed_branch_sublicense(mixed_branch_state):
    # two cps, three permissions in total, single dated charge at the top
    sl = mixed_branch_state.sublicense("license-1", "sl-1")
    assert len(sl.cps) == 2
    labels = state_labels(mixed_branch_state)
    assert labels[("license-1", "sl-1", None)] == Label(
        Complexity.COMPLEX, Times.ONCE, ConstraintName.DATETIME
    )
    assert labels[("license-1", "sl-1", "cp-1")] == Label(
        Complexity.COMPLEX, Times.MANY, ConstraintName.COUNT
    )
    assert labels[("license-1", "sl-1", "cp-2")] == Label(
        Complexity.SIMPLE, Times.ONCE, ConstraintName.COUNT
    )


def test_single_permission_sublicense_is_simple():
    licenses = LicenseSet(
        [License("l", [SubLicense("sl", cps=[CP("cp", permissions=[perm("play", "a")])])])]
    )
    state = initial_state(licenses)
    assert state_labels(state)[("l", "sl", None)] == Label(
        Complexity.SIMPLE, Times.MANY, ConstraintName.TRUE
    )


def test_times_flips_once_after_penultimate_use():
    licenses = LicenseSet(
        [
            License(
                "l",
                [SubLicense("sl", constraints=[Count(2)], cps=[CP("cp", permissions=[perm("play", "a")])])],
            )
        ]
    )
    state = initial_state(licenses)
    assert state_labels(state)[("l", "sl", None)].times is Times.MANY
    after = consume(state, "l", "sl", "cp", Request(Action.PLAY, "a", at=0))
    assert state_labels(after)[("l", "sl", None)].times is Times.ONCE


def test_timed_count_last_charge_labels_once_pessimistically():
    cp = CP("cp", constraints=[TimedCount(1, timer=60)], permissions=[perm("play", "a")])
    assert cp_label(cp, states_for(cp.constraints)).times is Times.ONCE


def test_depleted_sibling_shrinks_sublicense_complexity():
    # once the one-charge sibling is burned, only a single permission is left
    # under the sublicense, so its label drops to simple
    licenses = LicenseSet(
        [
            License(
                "l",
                [
                    SubLicense(
                        "sl",
                        cps=[
                            CP("cp-a", constraints=[Count(1)], permissions=[perm("play", "a")]),
                            CP("cp-b", permissions=[perm("play", "b")]),
                        ],
                    )
                ],
            )
        ]
    )
    state = initial_state(licenses)
    assert state_labels(state)[("l", "sl", None)].complexity is Complexity.COMPLEX
    after = consume(state, "l", "sl", "cp-a", Request(Action.PLAY, "a", at=0))
    assert state_labels(after)[("l", "sl", None)].complexity is Complexity.SIMPLE


def test_relabelling_is_idempotent(deadline_state, play_a):
    after = consume(deadline_state, "license-2", "sl-1", "cp-1", play_a)
    assert state_labels(after) == state_labels(after)
    # and labels derived twice from equal states are equal
    again = consume(deadline_state, "license-2", "sl-1", "cp-1", play_a)
    assert state_labels(after) == state_labels(again)


def test_label_unchanged_without_counters():
    licenses = LicenseSet(
        [License("l", [SubLicense("sl", cps=[CP("cp", constraints=[DateTime(end=10_000)], permissions=[perm("play", "a")])])])]
    )
    state = initial_state(licenses)
    before = state_labels(state)
    after = consume(state, "l", "sl", "cp", Request(Action.PLAY, "a", at=0))
    assert state_labels(after) == before


permissions = st.builds(perm, st.sampled_from(["play", "display", "print"]), st.sampled_from("abc"))


@st.composite
def cps(draw):
    n_perms = draw(st.integers(1, 4))
    perms = draw(st.lists(permissions, min_size=n_perms, max_size=n_perms, unique=True))
    constraints = draw(
        st.lists(
            st.one_of(
                st.builds(Count, st.integers(1, 3)),
                st.builds(DateTime, end=st.integers(500, 5000)),
            ),
            max_size=2,
        )
    )
    return CP("cp", constraints=constraints, permissions=perms)


@given(cps())
def test_cp_complexity_tracks_permission_count(cp):
    label = cp_label(cp, states_for(cp.constraints))
    assert (label.complexity is Complexity.SIMPLE) == (len(cp.permissions) == 1)
    assert (label.constraint is ConstraintName.TRUE) == (not cp.constraints)


@given(cps())
def test_once_label_predicts_depletion(cp):
    licenses = LicenseSet([License("l", [SubLicense("sl", cps=[cp])])])
    state = initial_state(licenses)
    label = state_labels(state)[("l", "sl", "cp")]
    p = cp.permissions[0]
    # long uses make the pessimistic times label exact
    request = Request(p.action, p.content, at=100, usage_duration=10_000)
    verdict = is_depleting(state, "l", "sl", "cp", request)
    assert (label.times is Times.ONCE) == (verdict is not Depletion.NONE)
