import importlib
import math
import sys
from collections import Counter
from operator import itemgetter

import pytest

from licalloc.allocate import (
    Chosen,
    NoMatch,
    PromptRequired,
    allocate_and_execute,
    min_loss_chooser,
    oma_allocate,
    proposed_allocate,
)
from licalloc.cases import REQUEST_AT, all_lossy_licenses
from licalloc.cli import main
from licalloc.corpus import CorpusDocument, parse_corpus, serialize_corpus
from licalloc.engine import initial_state
from licalloc.labels import Times, state_labels
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
from licalloc.rights import candidates, loss, rights
from licalloc.verify import (
    CHECKS,
    MAX_COUNTEREXAMPLES,
    CampaignReport,
    CheckResult,
    Counterexample,
    GeneratorCaps,
    LIVENESS_CAPS,
    MAX_LIVENESS_STATES,
    SEED_STRIDE,
    T0,
    USAGE_DURATION,
    InstanceGenerator,
    LivenessResult,
    check_selection_soundness,
    check_weak_minimal_loss,
    color_step,
    fuzz_campaign,
    oracle_losses,
    run_bounded_liveness,
    run_liveness_campaign,
    run_neutrality_campaign,
    run_trial,
    shrink_document,
)

from conftest import (
    brute_force_liveness,
    conforms_to_depletion_assumption,
    fair_family,
    perm,
    replay_fair_schedule,
    state_changes_bound,
    target_of,
)

# The rights module; the name ``rights`` is bound to its function.
rights_module = importlib.import_module("licalloc.rights")


def judge(check, state, request, decision):
    """The verdict of ``check`` on the decision, given the oracle ``run_trial`` builds."""
    return check(state, request, decision, oracle_losses(state, request, decision))


class TestColoring:
    def test_baseline_choice_leaves_collateral_white(self, deadline_state, play_a):
        support = rights(deadline_state, play_a.at)
        decision = oma_allocate(deadline_state, play_a)
        assert decision.license_id == "license-1"
        after = color_step(deadline_state, decision, play_a)
        # song-b is collateral damage while a harmless candidate existed: the
        # coloring model refuses to bless it
        assert perm("play", "song-b") in support and perm("play", "song-b") not in after
        assert perm("play", "song-a") in after

    def test_lossless_choice_changes_nothing(self, deadline_state, play_a):
        decision = proposed_allocate(deadline_state, play_a)
        after = color_step(deadline_state, decision, play_a)
        assert after == frozenset()

    def test_prompted_all_lossy_blackens_whole_loss(self, all_lossy_state):
        request = Request(Action.PLAY, "song-a", at=REQUEST_AT)
        support = rights(all_lossy_state, request.at)
        decision = proposed_allocate(all_lossy_state, request, chooser=min_loss_chooser)
        after = color_step(all_lossy_state, decision, request)
        assert perm("play", "song-b") in after
        assert perm("play", "song-a") in after
        assert perm("play", "song-c") in support and perm("play", "song-c") not in after


class TestSelectionSoundness:
    def test_baseline_fails_on_deadline_fixture(self, deadline_state, play_a):
        decision = oma_allocate(deadline_state, play_a)
        result = judge(check_selection_soundness, deadline_state, play_a, decision)
        assert not result.passed
        assert result.case == "loss_bounded"

    def test_filtered_passes_on_deadline_fixture(self, deadline_state, play_a):
        decision = proposed_allocate(deadline_state, play_a)
        result = judge(check_selection_soundness, deadline_state, play_a, decision)
        assert result.passed

    def test_single_candidate_passes(self):
        licenses = LicenseSet(
            [License("only", [SubLicense("sl", constraints=[Count(1)], cps=[CP("cp", permissions=[perm("play", "a"), perm("play", "b")])])])]
        )
        state = initial_state(licenses)
        request = Request(Action.PLAY, "a", at=0)
        decision = proposed_allocate(state, request)
        result = judge(check_selection_soundness, state, request, decision)
        assert result.passed and result.case == "single_candidate"

    def test_prompt_with_all_lossy_passes(self, all_lossy_state):
        request = Request(Action.PLAY, "song-a", at=REQUEST_AT)
        decision = proposed_allocate(all_lossy_state, request)
        assert isinstance(decision, PromptRequired)
        result = judge(check_selection_soundness, all_lossy_state, request, decision)
        assert result.passed and result.case == "prompted_all_lossy"

    def test_resolved_prompt_still_counts_as_prompt(self, all_lossy_state):
        request = Request(Action.PLAY, "song-a", at=REQUEST_AT)
        decision = proposed_allocate(all_lossy_state, request, chooser=min_loss_chooser)
        result = judge(check_selection_soundness, all_lossy_state, request, decision)
        assert result.passed and result.case == "prompted_all_lossy"

    @pytest.mark.xfail(
        strict=True,
        reason="sublicense_label counts the permissions of a cp whose date window has closed (ROADMAP item 2)",
    )
    def test_a_cp_whose_window_has_closed_does_not_make_its_sublicense_complex(self):
        """``l1`` loses only ``play a``: its ``cp-2`` no longer holds at t=1000, so it has nothing to lose."""
        a, b, c = perm("play", "a"), perm("play", "b"), perm("play", "c")
        l1 = License("l1", [SubLicense("sl", [Count(1)], [CP("cp-1", permissions=[a]), CP("cp-2", [DateTime(end=500)], [b])])])
        l2 = License("l2", [SubLicense("sl", [Count(1)], [CP("cp-1", permissions=[a, c])])])
        state = initial_state(LicenseSet([l1, l2]))
        request = Request(Action.PLAY, "a", at=1000)
        result = judge(check_selection_soundness, state, request, proposed_allocate(state, request))
        assert (result.passed, result.case) == (True, "loss_bounded"), result


class TestWeakMinimalLoss:
    def test_filtered_choice_dominates(self, deadline_state, play_a):
        decision = proposed_allocate(deadline_state, play_a)
        assert judge(check_weak_minimal_loss, deadline_state, play_a, decision).passed

    def test_baseline_choice_fails_dominance(self, deadline_state, play_a):
        decision = oma_allocate(deadline_state, play_a)
        result = judge(check_weak_minimal_loss, deadline_state, play_a, decision)
        assert not result.passed

    def test_vacuous_without_candidates(self, deadline_state):
        request = Request(Action.PLAY, "song-z", at=REQUEST_AT)
        from licalloc.allocate import NoMatch

        result = judge(check_weak_minimal_loss, deadline_state, request, NoMatch())
        assert result.passed and result.vacuous

    def test_vacuous_when_loss_inevitable(self, all_lossy_state):
        request = Request(Action.PLAY, "song-a", at=REQUEST_AT)
        decision = proposed_allocate(all_lossy_state, request, chooser=min_loss_chooser)
        result = judge(check_weak_minimal_loss, all_lossy_state, request, decision)
        assert result.passed and result.vacuous

    def test_three_license_instance_requires_the_harmless_one(self):
        # only lic-c survives its own use; choosing either other one must fail
        licenses = LicenseSet(
            [
                License("lic-a", [SubLicense("sl", constraints=[Count(1)], cps=[CP("cp", permissions=[perm("play", "x"), perm("play", "y")])])]),
                License("lic-b", [SubLicense("sl", constraints=[Count(1)], cps=[CP("cp", permissions=[perm("play", "x"), perm("play", "z")])])]),
                License("lic-c", [SubLicense("sl", constraints=[Count(9)], cps=[CP("cp", permissions=[perm("play", "x")])])]),
            ]
        )
        state = initial_state(licenses)
        request = Request(Action.PLAY, "x", at=0)
        for lid in ("lic-a", "lic-b", "lic-c"):
            sl_id, cp_id = target_of(state, lid, request)
            verdict = judge(check_weak_minimal_loss, state, request, Chosen(lid, sl_id, cp_id))
            assert verdict.passed == (lid == "lic-c")
        chosen = proposed_allocate(state, request)
        assert chosen.license_id == "lic-c"


@pytest.mark.parametrize("name", sorted(CHECKS))
def test_choice_of_a_non_candidate_fails(name, deadline_state, play_a):
    result = judge(CHECKS[name], deadline_state, play_a, Chosen("nope", "sl-1", "cp-1"))
    assert (result.passed, result.case) == (False, "not_a_candidate")
    assert result.detail == {"chosen": "nope", "candidates": ["license-1", "license-2"]}


def test_a_use_shorter_than_the_timer_is_not_a_last_charge():
    """A decision labels ``times`` for its request, as ``is_depleting`` prices it."""

    def timed(license_id):
        cp = CP("cp", permissions=[perm("play", "a"), perm("play", "b")])
        return License(license_id, [SubLicense("sl", constraints=[TimedCount(1, timer=60)], cps=[cp])])

    state = initial_state(LicenseSet([timed("l1"), timed("l2")]))
    request = Request(Action.PLAY, "a", at=100, usage_duration=5)
    decision = proposed_allocate(state, request)
    assert decision == Chosen("l1", "sl", "cp")
    assert judge(check_selection_soundness, state, request, decision).passed
    # without a request the labels stay pessimistic
    assert state_labels(state)[("l1", "sl", None)].times is Times.ONCE


def test_pair_discipline_labels_for_the_request_it_checks():
    """A timed count the use is too short to charge is not ``once`` for pair discipline either."""
    def sublicense(constraint, other):
        return SubLicense("sl", [constraint], [CP("cp", permissions=[perm("play", "a"), perm("play", other)])])

    timed, counted = sublicense(TimedCount(1, timer=60), "b"), sublicense(Count(1), "c")
    state = initial_state(LicenseSet([License("license-1", [timed]), License("license-2", [counted])]))
    request = Request(Action.PLAY, "a", at=0, usage_duration=5)
    decision = proposed_allocate(state, request)
    assert decision == Chosen("license-1", "sl", "cp")
    for check in CHECKS.values():
        assert judge(check, state, request, decision).passed
    # the request-free labels still read the timed count as on its last charge
    assert str(state_labels(state)[("license-1", "sl", None)]) == "complex.once.timed_count"


class TestBoundedLiveness:
    def test_all_lossy_instance_passes(self):
        result = run_bounded_liveness(all_lossy_licenses(), at=REQUEST_AT)
        assert result.passed
        assert result.states > 0

    def test_an_instance_with_a_surviving_node_gets_a_finished_verdict(self, deadline_case):
        # the ten-use license survives its own selections, outside the
        # depletion assumption; the baseline burns song-b with its first use
        assert not conforms_to_depletion_assumption(initial_state(deadline_case.licenses))
        filtered = run_bounded_liveness(deadline_case.licenses, at=REQUEST_AT)
        assert (filtered.passed, filtered.finished) == (True, True)
        baseline = run_bounded_liveness(deadline_case.licenses, algorithm="oma", at=REQUEST_AT)
        assert (baseline.passed, baseline.finished) == (False, True)
        assert baseline.failure == {
            "schedule": [{"action": "play", "content": "song-a"}],
            "step": 0,
            "permission": {"action": "play", "content": "song-b"},
        }

    def test_single_permission_single_charge(self):
        licenses = LicenseSet(
            [License("l", [SubLicense("sl", constraints=[Count(1)], cps=[CP("cp", permissions=[perm("play", "a")])])])]
        )
        assert run_bounded_liveness(licenses).passed

    def test_a_step_that_changes_nothing_ends_at_the_node_it_left(self):
        # the label reads the timed count as once, but a use shorter than its
        # timer charges nothing, so every round returns to the initial node
        timed = CP("cp", constraints=[TimedCount(1, timer=USAGE_DURATION + 1)], permissions=[perm("play", "a")])
        licenses = LicenseSet([License("l", [SubLicense("sl", cps=[timed])])])
        assert conforms_to_depletion_assumption(initial_state(licenses))
        for algorithm in ("proposed", "oma"):
            result = run_bounded_liveness(licenses, algorithm=algorithm)
            assert (result.passed, result.states, result.finished) == (True, 1, True)

    def test_an_instance_with_nothing_left_to_request_passes(self):
        closed = DateTime(end=T0 - 1)
        licenses = LicenseSet(
            [License("l", [SubLicense("sl", constraints=[Count(1), closed], cps=[CP("cp", permissions=[perm("play", "a")])])])]
        )
        assert not rights(initial_state(licenses), T0)
        result = run_bounded_liveness(licenses)
        assert (result.passed, result.finished) == (True, True)

    def test_baseline_algorithm_fails_liveness(self):
        # conforming instance where the baseline burns song-b for nothing:
        # the dated license outranks the plain one but takes b with it
        licenses = LicenseSet(
            [
                License(
                    "lic-dated",
                    [SubLicense("sl", constraints=[Count(1), DateTime(end=9000)], cps=[CP("cp", permissions=[perm("play", "a"), perm("play", "b")])])],
                ),
                License(
                    "lic-plain",
                    [SubLicense("sl", constraints=[Count(1)], cps=[CP("cp", permissions=[perm("play", "a")])])],
                ),
            ]
        )
        assert conforms_to_depletion_assumption(initial_state(licenses))
        result = run_bounded_liveness(licenses, algorithm="oma", at=100)
        assert result == LivenessResult(
            passed=False,
            states=2,
            failure={
                "schedule": [{"action": "play", "content": "a"}],
                "step": 0,
                "permission": {"action": "play", "content": "b"},
            },
            finished=True,
        )
        filtered = run_bounded_liveness(licenses, algorithm="proposed", at=100)
        assert filtered.passed


def _conforming_instances(seed, n):
    """The ``n`` instances the liveness campaign checks at ``seed``."""
    generator = InstanceGenerator(LIVENESS_CAPS, seed=seed, profile="depleting")
    return [generator.document(index).licenses for index in range(n)]


def _assert_replays(licenses, algorithm, failure):
    """Replaying the reported schedule starves the reported permission at its step, not before."""
    schedule = [perm(e["action"], e["content"]) for e in failure["schedule"]]
    starved = list(replay_fair_schedule(licenses, algorithm, schedule))
    assert failure["step"] == len(schedule) - 1
    assert starved[:-1] == [None] * failure["step"]
    assert starved[-1] == perm(failure["permission"]["action"], failure["permission"]["content"])


class TestLivenessSearch:
    def test_search_matches_full_enumeration(self):
        verdicts = Counter()
        for licenses in _conforming_instances(seed=0, n=140):
            support, rounds = fair_family(licenses)
            if math.factorial(len(support)) ** rounds > 256:
                continue
            for algorithm in ("proposed", "oma"):
                result = run_bounded_liveness(licenses, algorithm=algorithm)
                assert (result.passed, result.failure) == brute_force_liveness(licenses, algorithm)
                verdicts[result.passed] += 1
                if not result.passed:
                    _assert_replays(licenses, algorithm, result.failure)
        assert verdicts[True] and verdicts[False]

    def test_search_matches_full_enumeration_outside_the_depletion_assumption(self):
        """``general`` instances, where a node can survive its use, against ``state_changes_bound + 1`` rounds."""
        generator = InstanceGenerator(LIVENESS_CAPS, seed=0, profile="general")
        verdicts, outside = Counter(), 0
        for index in range(200):
            licenses = generator.document(index).licenses
            support, _ = fair_family(licenses)
            rounds = state_changes_bound(licenses) + 1
            if math.factorial(len(support)) ** rounds > 256:
                continue
            outside += not conforms_to_depletion_assumption(initial_state(licenses))
            for algorithm in ("proposed", "oma"):
                result = run_bounded_liveness(licenses, algorithm=algorithm)
                assert result.finished
                assert (result.passed, result.failure) == brute_force_liveness(licenses, algorithm, rounds=rounds)
                verdicts[algorithm, result.passed] += 1
        assert outside and verdicts["oma", True]
        assert verdicts["proposed", True] and not verdicts["proposed", False]

    def test_baseline_fails_outside_the_depletion_assumption(self):
        """The first ``general`` instance at seed 0 where ``oma`` fails and the brute force has at most 2,048 schedules."""
        licenses = InstanceGenerator(LIVENESS_CAPS, seed=0, profile="general").document(434).licenses
        assert not conforms_to_depletion_assumption(initial_state(licenses))
        baseline = run_bounded_liveness(licenses, algorithm="oma")
        assert not baseline.passed and baseline.finished
        rounds = state_changes_bound(licenses) + 1
        assert (False, baseline.failure) == brute_force_liveness(licenses, "oma", rounds=rounds)
        _assert_replays(licenses, "oma", baseline.failure)
        assert run_bounded_liveness(licenses, algorithm="proposed").passed

    @pytest.mark.parametrize(
        "seed, index, step",
        [
            pytest.param(0, 157, 0, id="157"),
            pytest.param(0, 251, 4, id="251"),
            # each was reported one step later, after a request no host could serve
            pytest.param(2, 10, 2, id="seed2-10"),
            pytest.param(4, 5, 3, id="seed4-5"),
        ],
    )
    def test_finds_failures_beyond_full_enumeration(self, seed, index, step):
        licenses = InstanceGenerator(LIVENESS_CAPS, seed=seed, profile="depleting").document(index).licenses
        support, rounds = fair_family(licenses)
        assert math.factorial(len(support)) ** rounds > 256
        baseline = run_bounded_liveness(licenses, algorithm="oma")
        assert not baseline.passed and baseline.failure["step"] == step
        _assert_replays(licenses, "oma", baseline.failure)
        # no request of the schedule asks for a permission that no host serves by then
        state = initial_state(licenses)
        for entry in baseline.failure["schedule"]:
            request = Request(Action(entry["action"]), entry["content"], at=T0, usage_duration=USAGE_DURATION)
            assert candidates(state, request), entry
            _, state = allocate_and_execute(state, request, algorithm="oma", chooser=min_loss_chooser)
        assert run_bounded_liveness(licenses, algorithm="proposed").passed

    @pytest.mark.parametrize(
        "algorithm, index, passed",
        [("oma", 40, False), ("oma", 212, False), ("proposed", 18, True), ("proposed", 204, True)],
    )
    def test_searches_finish_at_the_default_caps(self, algorithm, index, passed):
        """Searches that used to stop at the state budget, and so passed vacuously, now finish."""
        licenses = InstanceGenerator(GeneratorCaps(), seed=0, profile="depleting").document(index).licenses
        result = run_bounded_liveness(licenses, algorithm=algorithm)
        assert result.finished and result.states < MAX_LIVENESS_STATES
        assert result.passed is passed
        if not passed:
            _assert_replays(licenses, algorithm, result.failure)

    def test_pinned_seeds_stay_under_the_state_budget(self):
        for seed in range(6):
            for licenses in _conforming_instances(seed, n=40):
                for algorithm in ("proposed", "oma"):
                    result = run_bounded_liveness(licenses, algorithm=algorithm)
                    assert result.states < MAX_LIVENESS_STATES and result.finished

    def test_search_asks_allocate_only_where_a_host_is_left(self, monkeypatch):
        outcomes = Counter()
        allocate_module = sys.modules["licalloc.allocate"]
        inner = allocate_module.allocate

        def counting_allocate(state, request, **kwargs):
            decision = inner(state, request, **kwargs)
            outcomes[type(decision).__name__] += 1
            return decision

        monkeypatch.setattr(allocate_module, "allocate", counting_allocate)
        for algorithm in ("proposed", "oma"):
            run_liveness_campaign(n=40, seed=0, algorithm=algorithm)
        assert outcomes["Chosen"] > 0
        assert outcomes["NoMatch"] == 0

    def test_search_resolves_pools_only_inside_allocate(self, monkeypatch):
        """An executed step colors from the pool its decision carries, so no walk happens outside ``allocate``."""
        allocate_module = sys.modules["licalloc.allocate"]
        inner, resolve = allocate_module.allocate, rights_module.select_target
        depth, resolves = [0], Counter()

        def wrapped_allocate(*args, **kwargs):
            depth[0] += 1
            try:
                return inner(*args, **kwargs)
            finally:
                depth[0] -= 1

        def checked_resolve(*args):
            resolves[depth[0] > 0] += 1
            return resolve(*args)

        monkeypatch.setattr(allocate_module, "allocate", wrapped_allocate)
        monkeypatch.setattr(rights_module, "select_target", checked_resolve)
        for licenses in _conforming_instances(seed=0, n=20):
            for algorithm in ("proposed", "oma"):
                run_bounded_liveness(licenses, algorithm=algorithm)
        assert resolves[True] > 0 and resolves[False] == 0

    def test_search_does_each_states_work_once(self, monkeypatch):
        """Each allocation and validity walk is done once for what it depends on.

        One ``allocate`` per (permission, node states of the sublicenses
        with a cp granting it), one walk per (sublicense, node states), and
        no ``consume`` outside the allocations: a state that meets a step
        already taken steps by its key alone.  Every step the search takes
        picks its granting sublicenses' ids out of a state key once, with a
        getter built by ``itemgetter``, which counts the steps and collects
        the keys of the states they are taken from.
        """
        verify_module = sys.modules["licalloc.verify"]
        inner_execute, inner_walk = verify_module.allocate_and_execute, verify_module.sublicense_rights
        allocated, walked = Counter(), Counter()
        steps = [0]
        keys = set()  # keys of the states a step was taken from

        def counting_execute(state, request, **kwargs):
            granting = tuple(
                state.slot(lic.id, sl.id)
                for lic in state.licenses
                for sl in lic.sublicenses
                if any(request.permission in cp.permissions for cp in sl.cps)
            )
            allocated[(request.permission, granting)] += 1
            return inner_execute(state, request, **kwargs)

        def counting_getter(*items):
            inner = itemgetter(*items)

            def get(skey):
                steps[0] += 1
                keys.add(skey)
                return inner(skey)

            return get

        def refused_consume(*args):
            raise AssertionError("the search called consume outside allocate_and_execute")

        def counting_walk(state, lic, sl, at):
            walked[(lic.id, sl.id, state.slot(lic.id, sl.id))] += 1
            return inner_walk(state, lic, sl, at)

        monkeypatch.setattr(verify_module, "allocate_and_execute", counting_execute)
        monkeypatch.setattr(verify_module, "consume", refused_consume)
        monkeypatch.setattr(verify_module, "sublicense_rights", counting_walk)
        monkeypatch.setattr(verify_module, "itemgetter", counting_getter)
        allocations = walks = sublicense_states = 0
        for licenses in _conforming_instances(seed=0, n=40):
            for algorithm in ("proposed", "oma"):
                allocated.clear()
                walked.clear()
                keys.clear()
                run_bounded_liveness(licenses, algorithm=algorithm)
                assert set(allocated.values()) <= {1} and set(walked.values()) <= {1}
                allocations += len(allocated)
                walks += len(walked)
                sublicense_states += len(keys) * sum(len(lic.sublicenses) for lic in licenses)
        # steps share allocations, and states (fewer than were reached) share each sublicense's walk
        assert 0 < allocations < steps[0]
        assert 0 < walks < sublicense_states

    def test_a_sublicense_that_grants_nothing_asked_takes_no_part_in_its_step(self, monkeypatch):
        """Using ``sl-b`` causes no second allocation for ``play a``, which only ``sl-a`` grants.

        Both sublicenses of the one license start with two charges.  Fair
        rounds request ``play a`` with the two at (2, 2), (2, 1), (1, 1) and
        (1, 0) charges, four states of the license, but at only two states of
        ``sl-a``, so it is allocated twice; ``play b`` alike.
        """
        licenses = LicenseSet(
            [
                License(
                    "l",
                    [
                        SubLicense("sl-a", constraints=[Count(2)], cps=[CP("cp", permissions=[perm("play", "a")])]),
                        SubLicense("sl-b", constraints=[Count(2)], cps=[CP("cp", permissions=[perm("play", "b")])]),
                    ],
                )
            ]
        )
        verify_module = sys.modules["licalloc.verify"]
        inner = verify_module.allocate_and_execute
        allocated = Counter()

        def counting_execute(state, request, **kwargs):
            allocated[request.content] += 1
            return inner(state, request, **kwargs)

        monkeypatch.setattr(verify_module, "allocate_and_execute", counting_execute)
        for algorithm in ("proposed", "oma"):
            allocated.clear()
            result = run_bounded_liveness(licenses, algorithm=algorithm)
            assert (result.passed, result.states, result.finished) == (True, 7, True)
            assert allocated == {"a": 2, "b": 2}

    def test_a_step_reads_only_the_sublicenses_granting_its_permission(self, monkeypatch):
        """The state a step is taken in holds the nodes of the granting sublicenses only.

        Reading them answers; reading any other node, of a host or of
        another license, raises KeyError rather than answering silently.
        """
        verify_module = sys.modules["licalloc.verify"]
        inner = verify_module.allocate_and_execute
        reads = Counter()

        def checked_execute(state, request, **kwargs):
            for lic in state.licenses:
                for sl in lic.sublicenses:
                    if any(request.permission in cp.permissions for cp in sl.cps):
                        state.slot(lic.id, sl.id)
                        reads["inside"] += 1
                        continue
                    with pytest.raises(KeyError):
                        state.slot(lic.id, sl.id)
                    reads["outside"] += 1
            return inner(state, request, **kwargs)

        monkeypatch.setattr(verify_module, "allocate_and_execute", checked_execute)
        for licenses in _conforming_instances(seed=0, n=20):
            for algorithm in ("proposed", "oma"):
                run_bounded_liveness(licenses, algorithm=algorithm)
        assert reads["inside"] and reads["outside"]

    @pytest.mark.parametrize("caps", [LIVENESS_CAPS, GeneratorCaps()], ids=["liveness-caps", "default-caps"])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_depleting_instances_conform_by_construction(self, caps, seed):
        generator = InstanceGenerator(caps, seed=seed, profile="depleting")
        for index in range(1000):
            assert conforms_to_depletion_assumption(initial_state(generator.licenses(index))), index

    def test_a_search_cut_short_is_a_vacuous_pass(self, monkeypatch, capsys):
        # each of the first five instances searches at least two nodes
        monkeypatch.setattr(sys.modules["licalloc.verify"], "MAX_LIVENESS_STATES", 1)
        licenses = _conforming_instances(seed=0, n=1)[0]
        result = run_bounded_liveness(licenses)
        assert (result.passed, result.states, result.finished) == (True, 1, False)
        report = run_liveness_campaign(n=5, seed=0)
        assert (report.passes["liveness"], report.vacuous["liveness"]) == (5, 5)
        assert main(["verify", "--checks", "liveness", "--trials", "5"]) == 0
        assert "liveness: 5 passed (5 vacuous), 0 failed" in capsys.readouterr().out


def _generate_nothing(self, index):
    raise AssertionError("a refused campaign generated an instance")


class TestCampaigns:
    def test_empty_campaign(self, monkeypatch):
        """A campaign of no trial or no check would report zero verdicts as a pass, so it is refused."""
        monkeypatch.setattr(InstanceGenerator, "document", _generate_nothing)
        gen = InstanceGenerator(GeneratorCaps(), seed=1)
        with pytest.raises(ValueError, match="between 1 and"):
            fuzz_campaign(gen, 0)
        with pytest.raises(ValueError, match="at least one check"):
            fuzz_campaign(gen, 1, checks=())

    @pytest.mark.parametrize(
        "start",
        [
            lambda: run_neutrality_campaign(n=0),
            lambda: run_liveness_campaign(n=0),
            lambda: fuzz_campaign(InstanceGenerator(GeneratorCaps(), seed=1), SEED_STRIDE + 1),
        ],
        ids=["neutrality-empty", "liveness-empty", "fuzz-past-stride"],
    )
    def test_a_campaign_outside_its_trial_range_is_refused_before_any_work(self, start, monkeypatch):
        monkeypatch.setattr(InstanceGenerator, "document", _generate_nothing)
        with pytest.raises(ValueError, match=f"between 1 and {SEED_STRIDE} trials"):
            start()

    def test_more_actions_than_there_are_is_refused(self):
        """A cap of 9 actions would draw from the 5 there are while its report said 9."""
        assert GeneratorCaps(actions=len(Action)).actions == len(Action)
        with pytest.raises(ValueError, match=f"actions must be <= {len(Action)}, got 9"):
            GeneratorCaps(actions=9)

    def test_filtered_campaign_is_clean(self):
        gen = InstanceGenerator(GeneratorCaps(), seed=11)
        report = fuzz_campaign(gen, 300, checks=("soundness", "minimal_loss", "pair_discipline"))
        assert not report.failed
        assert report.passes["soundness"] > 0

    def test_baseline_campaign_finds_counterexamples(self):
        gen = InstanceGenerator(GeneratorCaps(), seed=11)
        report = fuzz_campaign(gen, 2000, checks=("soundness",), algorithm="oma", stop_after=1)
        assert report.failed
        assert report.counterexamples

    def test_shrunk_counterexample_still_fails(self):
        gen = InstanceGenerator(GeneratorCaps(), seed=11)
        report = fuzz_campaign(gen, 2000, checks=("soundness",), algorithm="oma", stop_after=1)
        ce = report.counterexamples[0]
        doc = parse_corpus(serialize_corpus(parse_corpus(__import__("json").dumps(ce.document))))
        failures = [
            r for _, name, r in run_trial(doc, "oma", ["soundness"]) if not r.passed
        ]
        assert failures

    def test_seed_determinism_bytes(self):
        caps = GeneratorCaps(max_licenses=3)
        a = fuzz_campaign(InstanceGenerator(caps, seed=5), 50)
        b = fuzz_campaign(InstanceGenerator(caps, seed=5), 50)
        assert a.to_bytes() == b.to_bytes()
        c = fuzz_campaign(InstanceGenerator(caps, seed=6), 50)
        assert c.to_bytes() != a.to_bytes()

    def test_generator_is_seed_deterministic(self):
        gen1 = InstanceGenerator(GeneratorCaps(), seed=9)
        gen2 = InstanceGenerator(GeneratorCaps(), seed=9)
        docs1 = [serialize_corpus(gen1.document(i)) for i in range(20)]
        docs2 = [serialize_corpus(gen2.document(i)) for i in range(20)]
        assert docs1 == docs2
        # access order must not matter
        assert serialize_corpus(gen1.document(3)) == docs1[3]

    def test_neutrality_campaign(self):
        report = run_neutrality_campaign(n=300, seed=3)
        assert not report.failed

    def test_liveness_campaign(self):
        report = run_liveness_campaign(n=60, seed=3)
        assert not report.failed
        assert report.trials == 60

    def test_record_keeps_counterexamples_up_to_the_cap(self):
        report = CampaignReport("fuzz", "proposed", 0, GeneratorCaps(), "general", 1, ("soundness",))
        built = []

        def counterexample():
            built.append(len(built))
            return Counterexample(0, 0, "soundness", "loss_bounded", {})

        report.record("soundness", CheckResult(True, "loss_bounded"), counterexample)
        report.record("soundness", CheckResult(True, "no_candidates", vacuous=True), counterexample)
        report.record("soundness", CheckResult(False, "loss_bounded"), None)
        for _ in range(MAX_COUNTEREXAMPLES + 2):
            report.record("soundness", CheckResult(False, "loss_bounded"), counterexample)
        assert (report.passes["soundness"], report.vacuous["soundness"]) == (2, 1)
        assert report.failures["soundness"] == MAX_COUNTEREXAMPLES + 3
        assert report.decisions_checked == MAX_COUNTEREXAMPLES + 5
        # a full report builds (and so shrinks) no further counterexample
        assert len(report.counterexamples) == len(built) == MAX_COUNTEREXAMPLES
        assert report.failed and report.passes["minimal_loss"] == 0

    @pytest.mark.parametrize(
        "start",
        [
            lambda seed: InstanceGenerator(GeneratorCaps(), seed=seed),
            lambda seed: run_neutrality_campaign(n=1, seed=seed),
            lambda seed: run_liveness_campaign(n=1, seed=seed),
        ],
        ids=["generator", "neutrality", "liveness"],
    )
    def test_a_negative_seed_is_rejected(self, start):
        """``random.Random`` seeds with ``|seed|``, so seed -5 would replay seed 5's instances."""
        with pytest.raises(ValueError, match="seed must be >= 0"):
            start(-5)

    @pytest.mark.parametrize("index", [-1, SEED_STRIDE], ids=["negative", "stride"])
    def test_an_index_outside_the_seed_stride_is_rejected(self, index):
        """Seed 1's index ``SEED_STRIDE`` would replay seed 2's index 0, and index -1 seed 0's last."""
        generator = InstanceGenerator(GeneratorCaps(), seed=1)
        generator.licenses(SEED_STRIDE - 1)
        with pytest.raises(ValueError, match="instance index"):
            generator.document(index)
        with pytest.raises(ValueError, match="instance index"):
            generator.licenses(index)

    def test_unknown_check_rejected(self):
        gen = InstanceGenerator(GeneratorCaps(), seed=0)
        with pytest.raises(ValueError):
            fuzz_campaign(gen, 1, checks=("sanity",))

    def test_repeated_check_rejected(self):
        gen = InstanceGenerator(GeneratorCaps(), seed=0)
        with pytest.raises(ValueError, match="more than once"):
            fuzz_campaign(gen, 1, checks=("soundness", "minimal_loss", "soundness"))


def test_shrinker_prunes_irrelevant_licenses(deadline_case):
    # add noise licenses that do not affect the baseline failure
    noise = [
        License(
            f"noise-{i}",
            [SubLicense("sl", cps=[CP("cp", permissions=[perm("display", f"n{i}")])])],
        )
        for i in range(3)
    ]
    licenses = LicenseSet(list(deadline_case.licenses.licenses) + noise)
    doc = CorpusDocument(licenses, [deadline_case.request])

    def still_fails(d):
        return any(not r.passed for _, _, r in run_trial(d, "oma", ["soundness"]))

    assert still_fails(doc)
    shrunk = shrink_document(doc, still_fails)
    assert still_fails(shrunk)
    assert len(shrunk.licenses) == 2
    assert {l.id for l in shrunk.licenses} == {"license-1", "license-2"}


@pytest.mark.parametrize("budget, calls, kept", [(2, 0, ["cp-1", "cp-2"]), (3, 1, ["cp-1"])])
def test_a_variant_that_would_drop_an_only_child_counts_as_an_attempt(budget, calls, kept, monkeypatch):
    """The lone license and sublicense take the first two attempts; the third drops ``cp-2``."""
    monkeypatch.setattr(sys.modules["licalloc.verify"], "SHRINK_ATTEMPTS", budget)
    asked = []

    def still_fails(doc):
        asked.append(doc)
        return True

    cps = [CP("cp-1", permissions=[perm("play", "a")]), CP("cp-2", permissions=[perm("play", "b")])]
    doc = CorpusDocument(LicenseSet([License("l", [SubLicense("sl", cps=cps)])]), [Request(Action.PLAY, "a", at=0)])
    shrunk = shrink_document(doc, still_fails)
    assert len(asked) == calls
    assert [cp.id for cp in shrunk.licenses.licenses[0].sublicenses[0].cps] == kept


def test_generators_of_one_shape_share_one_permission_grid():
    """The (action, content) grid is built once per shape, not per generator."""
    wide = GeneratorCaps(max_licenses=1, contents=16)
    first, second = InstanceGenerator(wide, seed=1), InstanceGenerator(wide, seed=2, profile="depleting")
    assert first._grid is second._grid
    assert InstanceGenerator(GeneratorCaps(), seed=1)._grid is not first._grid
    permissions = [p for row in first._grid for p in row]
    assert len(set(permissions)) == len(permissions) == first._universe == wide.actions * 16


def test_checks_registry_contains_documented_names():
    assert {"soundness", "minimal_loss", "pair_discipline"} <= set(CHECKS)


class TestEachPoolIsPricedOnce:
    """Pricing a candidate pool builds no successor state and walks ``rights`` at most once."""

    request = Request(Action.PLAY, "song-a", at=REQUEST_AT)

    @pytest.fixture
    def counts(self, spy):
        """{function name: its calls} of ``rights``, ``remnants`` and ``consume``."""
        return spy("rights.rights", "rights.remnants", "engine.consume")

    def test_color_step(self, all_lossy_state, counts):
        decision = proposed_allocate(all_lossy_state, self.request, chooser=min_loss_chooser)
        counts.clear()
        color_step(all_lossy_state, decision, self.request)
        assert len(counts["consume"]) == 0 and len(counts["rights"]) <= 1

    def test_color_step_walks_no_license(self, all_lossy_state, spy):
        """``color_step`` prices the pool its decision carries: it resolves and searches no license.

        Reading which of a target's cps are valid, as pricing a depleting
        sublicense does, is not a walk.
        """
        decision = proposed_allocate(all_lossy_state, self.request, chooser=min_loss_chooser)
        calls = spy("rights.select_target", "rights.candidates")
        after = color_step(all_lossy_state, decision, self.request)
        assert calls["select_target"] == calls["candidates"] == []
        assert perm("play", "song-b") in after

    def test_a_chosen_prompt_is_priced_once(self, all_lossy_state, monkeypatch):
        """A prompt hands its losses to the choice, and ``color_step`` reads them instead of pricing again."""
        prompt = proposed_allocate(all_lossy_state, self.request)
        decision = proposed_allocate(all_lossy_state, self.request, chooser=min_loss_chooser)
        assert decision.via_prompt and decision.losses == prompt.losses
        assert prompt.choose(decision.license_id).losses is prompt.losses

        def second_pricing(*args):
            raise AssertionError("color_step priced a pool its prompt had priced")

        monkeypatch.setattr(sys.modules["licalloc.verify"], "pool_losses", second_pricing)
        assert color_step(all_lossy_state, decision, self.request) == frozenset(prompt.losses[decision.license_id])

    def test_prompted_soundness(self, all_lossy_state, counts):
        decision = proposed_allocate(all_lossy_state, self.request)
        assert isinstance(decision, PromptRequired)
        counts.clear()
        assert judge(check_selection_soundness, all_lossy_state, self.request, decision).passed
        assert len(counts["consume"]) == 0 and len(counts["rights"]) <= 1

    def test_cli_allocate_on_a_prompt(self, tmp_path, counts, capsys):
        path = tmp_path / "all-lossy.json"
        path.write_bytes(serialize_corpus(CorpusDocument(all_lossy_licenses())))
        assert main(["allocate", str(path), "play", "song-a", "--time", str(REQUEST_AT)]) == 3
        assert len(counts["consume"]) == 0 and len(counts["rights"]) <= 1

    def test_run_trial_resolves_a_prompt_from_its_pool(self, counts, spy):
        """The allocator walks each host once; choosing and consuming its prompt resolves no target again."""
        calls = spy("rights.select_target")
        licenses = all_lossy_licenses()
        doc = CorpusDocument(licenses, [self.request])
        assert run_trial(doc, "proposed", []) == []
        walked = [call.args[1].id for call in calls["select_target"]]
        assert walked == [lic.id for lic in licenses.hosts(self.request.permission)]
        assert len(counts["consume"]) == 1


@pytest.mark.parametrize("checks", [tuple(CHECKS), ("soundness",)], ids=["all", "soundness"])
def test_each_checked_decision_builds_one_oracle(checks, monkeypatch, spy):
    """One ``candidates`` walk per checked decision, and one oracle pricing per candidate it found.

    The oracle prices what the decision's pool resolved with one
    ``pool_losses`` call, and any other candidate with ``loss``.  The
    allocator's pool holds every candidate here, so ``loss`` never runs.
    """
    calls = spy("rights.candidates", "rights.loss")
    priced = Counter()
    verify_module = sys.modules["licalloc.verify"]
    price_pool = verify_module.pool_losses

    def pool_losses(state, request, pool):
        priced["pool_losses"] += 1
        priced["pool_priced"] += len(pool)
        return price_pool(state, request, pool)

    # Only the oracle's pricing: the allocator prices a prompt through its own name.
    monkeypatch.setattr(verify_module, "pool_losses", pool_losses)
    report = fuzz_campaign(InstanceGenerator(GeneratorCaps(), seed=100), 200, checks)
    assert not report.failed
    found = sum(len(call.result) for call in calls["candidates"])
    assert len(calls["candidates"]) == priced["pool_losses"] == report.decisions_checked // len(checks)
    assert priced["pool_priced"] + len(calls["loss"]) == found > 0
    assert len(calls["loss"]) == 0


@pytest.mark.parametrize("decision_kind", ["no_match", "partial_pool"])
def test_the_oracle_prices_a_candidate_the_pool_lacks_with_loss(all_lossy_state, decision_kind):
    """Every candidate ``candidates`` finds is priced as ``loss`` prices it, in its order, pool or no pool."""
    request = Request(Action.PLAY, "song-a", at=REQUEST_AT)
    found = candidates(all_lossy_state, request)
    assert len(found) > 1
    if decision_kind == "no_match":
        decision = NoMatch()
    else:
        # A hand-built choice whose pool resolved only the last candidate.
        pool = proposed_allocate(all_lossy_state, request).pool
        kept = found[-1]
        decision = Chosen(kept, *pool[kept].target, pool={kept: pool[kept]})
    losses = oracle_losses(all_lossy_state, request, decision)
    assert list(losses) == found
    assert losses == {lid: loss(all_lossy_state, lid, request) for lid in found}


def test_each_checked_decision_labels_each_hosts_sublicenses_once(monkeypatch):
    """Each host is resolved once per checked decision: the oracle resolves nothing the allocator resolved.

    The allocator calls ``select_target`` once per host; the oracle prices
    the candidates its pool resolved from the pool, so no sublicense is
    labelled twice for one decision.
    """
    verify_module = sys.modules["licalloc.verify"]
    decide, label, resolve = verify_module.allocate, rights_module.sublicense_label, rights_module.select_target
    decisions, labelled, calls = [0], Counter(), Counter()

    def counting_allocate(state, request, **kwargs):
        decisions[0] += 1
        calls["hosts"] += len(state.licenses.hosts(request.permission))
        calls["candidates"] += len(candidates(state, request))
        return decide(state, request, **kwargs)

    def counting_label(sl, *args):
        labelled[(decisions[0], id(sl))] += 1
        return label(sl, *args)

    def counting_resolve(*args):
        calls["select_target"] += 1
        return resolve(*args)

    monkeypatch.setattr(verify_module, "allocate", counting_allocate)
    monkeypatch.setattr(rights_module, "sublicense_label", counting_label)
    monkeypatch.setattr(rights_module, "select_target", counting_resolve)
    generator = InstanceGenerator(GeneratorCaps(), seed=100)
    for index in range(200):
        run_trial(generator.document(index), "proposed", tuple(CHECKS))
    assert calls["candidates"] > 0
    assert calls["select_target"] == calls["hosts"]
    assert len(labelled) > decisions[0] and set(labelled.values()) == {1}
