import pytest
from hypothesis import given
from hypothesis import strategies as st

from licalloc.engine import (
    ConstraintState,
    Depletion,
    consume,
    constraint_holds,
    constraints_hold,
    cp_valid,
    initial_state,
    is_depleting,
    fresh_state,
)
from licalloc.errors import InvalidTargetError
from licalloc.model import (
    CP,
    Action,
    Count,
    DateTime,
    Interval,
    License,
    LicenseSet,
    Request,
    SubLicense,
    TimedCount,
    Unconstrained,
)

from conftest import perm


def single_license(sl_constraints=(), cp_constraints=(), perms=(("play", "a"),)):
    return LicenseSet(
        [
            License(
                "l-1",
                [
                    SubLicense(
                        "sl-1",
                        constraints=sl_constraints,
                        cps=[CP("cp-1", constraints=cp_constraints, permissions=[perm(a, c) for a, c in perms])],
                    )
                ],
            )
        ]
    )


class TestConstraintHolds:
    def test_count_with_charges(self):
        assert constraint_holds(Count(10), ConstraintState(remaining=10), at=0)

    def test_datetime_end_is_inclusive(self):
        dt = DateTime(end=100)
        st_ = fresh_state(dt)
        assert constraint_holds(dt, st_, at=100)
        assert not constraint_holds(dt, st_, at=101)

    def test_datetime_start_is_inclusive(self):
        dt = DateTime(start=50)
        st_ = fresh_state(dt)
        assert constraint_holds(dt, st_, at=50)
        assert not constraint_holds(dt, st_, at=49)

    def test_count_exhausted_after_single_consume(self):
        licenses = single_license(cp_constraints=[Count(1)])
        state = consume(initial_state(licenses), "l-1", "sl-1", "cp-1", Request(Action.PLAY, "a", at=0))
        st_ = state.cstate[("l-1", "sl-1", "cp-1")][0]
        assert not constraint_holds(Count(1), st_, at=0)
        assert st_.depleted

    def test_depleted_never_holds(self):
        assert not constraint_holds(Unconstrained(), ConstraintState(depleted=True), at=0)

    def test_interval_unstarted_and_running(self):
        iv = Interval(duration=100)
        assert constraint_holds(iv, ConstraintState(), at=12345)
        running = ConstraintState(interval_started_at=100)
        assert constraint_holds(iv, running, at=200)
        assert not constraint_holds(iv, running, at=201)


def test_constraints_hold_empty_list_is_true():
    assert constraints_hold([], [], at=0)


def test_constraints_hold_conjunction():
    cs = [Count(1), DateTime(end=1000)]
    states = [ConstraintState(remaining=0, depleted=True), fresh_state(cs[1])]
    assert not constraints_hold(cs, states, at=10)


def valid(state, license_id, sublicense_id, cp_id, at):
    """``cp_valid`` of the nodes the ids name."""
    sl = state.sublicense(license_id, sublicense_id)
    return cp_valid(state, license_id, sl, sl.cp(cp_id), at)


def test_deadline_sublicense_valid_before_month_end(deadline_state):
    from licalloc.cases import REQUEST_AT

    assert valid(deadline_state, "license-1", "sl-1", "cp-1", REQUEST_AT)


class TestConsume:
    def test_depletes_whole_sublicense(self, deadline_state, play_a):
        after = consume(deadline_state, "license-1", "sl-1", "cp-1", play_a)
        # the single charge is gone, so nothing under the sublicense is valid
        assert not valid(after, "license-1", "sl-1", "cp-1", play_a.at)
        play_b = Request(Action.PLAY, "song-b", at=play_a.at)
        with pytest.raises(InvalidTargetError):
            consume(after, "license-1", "sl-1", "cp-1", play_b)

    def test_count_decrements_without_depleting(self, deadline_state, play_a):
        after = consume(deadline_state, "license-2", "sl-1", "cp-1", play_a)
        assert after.cstate[("license-2", "sl-1", None)][0].remaining == 9
        assert valid(after, "license-2", "sl-1", "cp-1", play_a.at)

    def test_timed_count_ignores_short_use(self):
        licenses = single_license(cp_constraints=[TimedCount(3, timer=30)])
        state = initial_state(licenses)
        short = Request(Action.PLAY, "a", at=0, usage_duration=10)
        after = consume(state, "l-1", "sl-1", "cp-1", short)
        assert after.cstate[("l-1", "sl-1", "cp-1")][0].remaining == 3

    def test_timed_count_charges_long_use(self):
        licenses = single_license(cp_constraints=[TimedCount(3, timer=30)])
        state = initial_state(licenses)
        long_use = Request(Action.PLAY, "a", at=0, usage_duration=30)
        after = consume(state, "l-1", "sl-1", "cp-1", long_use)
        assert after.cstate[("l-1", "sl-1", "cp-1")][0].remaining == 2

    def test_interval_starts_once(self):
        licenses = single_license(sl_constraints=[Interval(1000)], cp_constraints=[], perms=(("play", "a"),))
        state = initial_state(licenses)
        after = consume(state, "l-1", "sl-1", "cp-1", Request(Action.PLAY, "a", at=50))
        assert after.cstate[("l-1", "sl-1", None)][0].interval_started_at == 50
        again = consume(after, "l-1", "sl-1", "cp-1", Request(Action.PLAY, "a", at=200))
        assert again.cstate[("l-1", "sl-1", None)][0].interval_started_at == 50

    def test_datetime_state_untouched(self):
        licenses = single_license(cp_constraints=[DateTime(end=10_000)])
        state = initial_state(licenses)
        after = consume(state, "l-1", "sl-1", "cp-1", Request(Action.PLAY, "a", at=5))
        assert after.cstate[("l-1", "sl-1", "cp-1")][0] == ConstraintState()

    def test_invalid_target_raises_and_leaves_state_alone(self, deadline_state):
        play_z = Request(Action.PLAY, "song-z", at=0)
        snapshot = dict(deadline_state.cstate)
        with pytest.raises(InvalidTargetError):
            consume(deadline_state, "license-1", "sl-1", "cp-1", play_z)
        assert deadline_state.cstate == snapshot

    def test_expired_window_rejects_consume(self):
        licenses = single_license(cp_constraints=[DateTime(end=100)])
        state = initial_state(licenses)
        with pytest.raises(InvalidTargetError):
            consume(state, "l-1", "sl-1", "cp-1", Request(Action.PLAY, "a", at=101))


class TestIsDepleting:
    def test_sublicense_single_charge(self):
        licenses = single_license(sl_constraints=[Count(1)])
        state = initial_state(licenses)
        assert (
            is_depleting(state, "l-1", "sl-1", "cp-1", Request(Action.PLAY, "a", at=0))
            is Depletion.SUBLICENSE_DEPLETES
        )

    def test_no_counters_never_depletes(self):
        licenses = single_license(sl_constraints=[DateTime(end=10_000)], cp_constraints=[Interval(50)])
        state = initial_state(licenses)
        assert (
            is_depleting(state, "l-1", "sl-1", "cp-1", Request(Action.PLAY, "a", at=0))
            is Depletion.NONE
        )

    def test_cp_counter_wins_over_big_sublicense_counter(self):
        licenses = single_license(sl_constraints=[Count(5)], cp_constraints=[Count(1)])
        state = initial_state(licenses)
        request = Request(Action.PLAY, "a", at=0)
        # oracle: simulate the consume and compare validity before/after
        after = consume(state, "l-1", "sl-1", "cp-1", request)
        assert not valid(after, "l-1", "sl-1", "cp-1", 0)
        assert constraints_hold(
            state.sublicense("l-1", "sl-1").constraints,
            after.sublicense_states("l-1", "sl-1"),
            0,
        )
        assert is_depleting(state, "l-1", "sl-1", "cp-1", request) is Depletion.CP_DEPLETES

    def test_short_timed_use_does_not_deplete(self):
        licenses = single_license(cp_constraints=[TimedCount(1, timer=60)])
        state = initial_state(licenses)
        short = Request(Action.PLAY, "a", at=0, usage_duration=5)
        assert is_depleting(state, "l-1", "sl-1", "cp-1", short) is Depletion.NONE
        long_use = Request(Action.PLAY, "a", at=0, usage_duration=60)
        assert is_depleting(state, "l-1", "sl-1", "cp-1", long_use) is Depletion.CP_DEPLETES


@given(
    counts=st.lists(st.integers(1, 3), min_size=1, max_size=3),
    uses=st.integers(0, 6),
)
def test_replaying_a_request_log_is_deterministic(counts, uses):
    licenses = single_license(sl_constraints=[Count(n) for n in counts])
    request = Request(Action.PLAY, "a", at=0)

    def run():
        state = initial_state(licenses)
        for _ in range(uses):
            try:
                state = consume(state, "l-1", "sl-1", "cp-1", request)
            except InvalidTargetError:
                pass
        return state

    first, second = run(), run()
    assert first.cstate == second.cstate
    assert first.licenses == second.licenses


def test_sublicense_depletion_matches_post_state(deadline_state, play_a):
    # depletion verdict agrees with what the permissions can actually do afterwards
    verdict = is_depleting(deadline_state, "license-1", "sl-1", "cp-1", play_a)
    after = consume(deadline_state, "license-1", "sl-1", "cp-1", play_a)
    sl = deadline_state.sublicense("license-1", "sl-1")
    all_dead = all(
        not cp_valid(after, "license-1", sl, cp, play_a.at) for cp in sl.cps
    )
    assert (verdict is Depletion.SUBLICENSE_DEPLETES) == all_dead
