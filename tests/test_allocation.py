import functools
import importlib
from collections import Counter

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
from licalloc.cases import REQUEST_AT, all_lossy_licenses, case_studies
from licalloc.corpus import parse_corpus
from licalloc.engine import consume, initial_state
from licalloc.errors import ChooserContractError
from licalloc.labels import Complexity, ConstraintName, Label, Times, dominant_constraint, label_sort_key
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
    constraint_rank,
)
from licalloc.rights import rights
from licalloc.verify import T0

from conftest import duplicate_listing_corpus, perm, wide_licenses

# The rights module, as opposed to the ``rights`` function the package re-exports.
rights_module = importlib.import_module("licalloc.rights")


class TestRank:
    def test_unconstrained_is_best(self):
        assert constraint_rank(Unconstrained()) == 0

    def test_datetime_beats_interval(self):
        assert constraint_rank(DateTime(end=10)) < constraint_rank(Interval(10))

    def test_timed_count_beats_count(self):
        assert constraint_rank(TimedCount(3, timer=5)) < constraint_rank(Count(3))


class TestCompareLabels:
    def test_many_preferred_over_once(self):
        a = Label(Complexity.COMPLEX, Times.MANY, ConstraintName.COUNT)
        b = Label(Complexity.SIMPLE, Times.ONCE, ConstraintName.TRUE)
        assert label_sort_key(a) < label_sort_key(b)

    def test_equal_labels_tie(self):
        a = Label(Complexity.SIMPLE, Times.MANY, ConstraintName.TRUE)
        assert label_sort_key(a) == label_sort_key(Label(Complexity.SIMPLE, Times.MANY, ConstraintName.TRUE))

    def test_simple_preferred_when_depleting(self):
        a = Label(Complexity.SIMPLE, Times.ONCE, ConstraintName.COUNT)
        b = Label(Complexity.COMPLEX, Times.ONCE, ConstraintName.COUNT)
        assert label_sort_key(a) < label_sort_key(b)

    def test_constraint_names_follow_constraint_rank(self):
        constraints = [Count(3), TimedCount(3, timer=5), Interval(10), DateTime(end=10), Unconstrained()]
        for c in constraints:
            label = Label(Complexity.SIMPLE, Times.MANY, dominant_constraint([c]))
            assert label_sort_key(label)[2] == constraint_rank(c)


@pytest.mark.parametrize("case", case_studies(), ids=lambda c: c.id)
def test_case_matrix(case):
    state = initial_state(case.licenses)
    for algorithm, allocator in (("oma", oma_allocate), ("proposed", proposed_allocate)):
        decision = allocator(state, case.request)
        assert isinstance(decision, Chosen)
        assert decision.license_id == case.expected[algorithm], f"{case.id}/{algorithm}"


def test_single_license_is_returned_even_when_lossy():
    licenses = LicenseSet(
        [
            License(
                "only",
                [SubLicense("sl", constraints=[Count(1)], cps=[CP("cp", permissions=[perm("play", "a"), perm("play", "b")])])],
            )
        ]
    )
    state = initial_state(licenses)
    request = Request(Action.PLAY, "a", at=0)
    for allocator in (oma_allocate, proposed_allocate):
        decision = allocator(state, request)
        assert isinstance(decision, Chosen) and decision.license_id == "only"


def test_no_match(deadline_state):
    request = Request(Action.PLAY, "song-z", at=REQUEST_AT)
    assert isinstance(oma_allocate(deadline_state, request), NoMatch)
    assert isinstance(proposed_allocate(deadline_state, request), NoMatch)


def test_all_lossy_prompts_with_losses(all_lossy_state, ):
    request = Request(Action.PLAY, "song-a", at=REQUEST_AT)
    decision = proposed_allocate(all_lossy_state, request)
    assert isinstance(decision, PromptRequired)
    assert decision.candidates == ("license-1", "license-2")
    assert decision.losses["license-1"] == Counter(
        {perm("play", "song-a"): 1, perm("play", "song-b"): 1}
    )
    assert decision.losses["license-2"] == Counter(
        {perm("play", "song-a"): 1, perm("play", "song-c"): 1, perm("play", "song-d"): 1}
    )


def test_a_permission_listed_twice_is_granted_once():
    """A cp listing play a twice grants it once, so it is simple and loses only the request."""
    doc = parse_corpus(duplicate_listing_corpus())
    (request,) = doc.requests
    state = initial_state(doc.licenses)
    assert rights(state, request.at) == Counter({perm("play", "a"): 2, perm("play", "b"): 1})
    decision = proposed_allocate(state, request)
    assert decision == Chosen("l1", "sl", "cp")
    assert [str(decision.pool[lid].sublicense_label) for lid in ("l1", "l2")] == [
        "simple.once.count",
        "complex.once.count",
    ]


def test_chooser_resolves_prompt(all_lossy_state):
    request = Request(Action.PLAY, "song-a", at=REQUEST_AT)
    decision = proposed_allocate(all_lossy_state, request, chooser=min_loss_chooser)
    assert isinstance(decision, Chosen)
    assert decision.via_prompt
    assert decision.license_id == "license-1"  # smaller loss multiset


def test_chooser_contract_violation(all_lossy_state):
    request = Request(Action.PLAY, "song-a", at=REQUEST_AT)
    with pytest.raises(ChooserContractError):
        proposed_allocate(all_lossy_state, request, chooser=lambda r, ids, losses: "license-99")


def test_a_decision_carries_every_candidate_of_its_pool(all_lossy_state, deadline_state, play_a):
    """The pool a decision was made from rides along, outside equality, hashing and repr."""
    chosen = proposed_allocate(deadline_state, play_a)
    assert list(chosen.pool) == ["license-1", "license-2"]  # the loser too
    bare = Chosen(chosen.license_id, chosen.sublicense_id, chosen.cp_id)
    assert (bare.pool, chosen) == ({}, bare)
    assert hash(chosen) == hash(bare)
    assert repr(chosen) == repr(bare) == "Chosen(license_id='license-2', sublicense_id='sl-1', cp_id='cp-1', via_prompt=False)"

    request = Request(Action.PLAY, "song-a", at=REQUEST_AT)
    prompt = proposed_allocate(all_lossy_state, request)
    assert isinstance(prompt, PromptRequired) and list(prompt.pool) == list(prompt.candidates)
    assert prompt == PromptRequired(prompt.candidates, prompt.losses)
    assert repr(prompt) == repr(PromptRequired(prompt.candidates, prompt.losses))
    picked = prompt.choose("license-2")
    assert picked == Chosen("license-2", "sl-1", "cp-1", via_prompt=True)
    assert picked.pool is prompt.pool


def test_decisions_of_every_kind_hash(all_lossy_state, deadline_state, play_a):
    """A prompt hashes without its losses, which still take part in equality."""
    request = Request(Action.PLAY, "song-a", at=REQUEST_AT)
    prompt = proposed_allocate(all_lossy_state, request)
    again = proposed_allocate(all_lossy_state, request)
    assert isinstance(prompt, PromptRequired) and prompt == again and hash(prompt) == hash(again)
    assert prompt != PromptRequired(prompt.candidates, {})
    chosen = proposed_allocate(deadline_state, play_a)
    assert {chosen, prompt, again, NoMatch()} == {chosen, prompt, NoMatch()}
    with pytest.raises(ChooserContractError):
        prompt.choose("license-99")


class TestAllocateAndExecute:
    def test_proposed_keeps_song_b(self, deadline_state, play_a):
        decision, after = allocate_and_execute(deadline_state, play_a, algorithm="proposed")
        assert decision == Chosen("license-2", "sl-1", "cp-1")
        assert after.cstate[("license-2", "sl-1", None)][0] == 9
        assert rights(after, play_a.at)[perm("play", "song-b")] == 1

    def test_oma_burns_song_b(self, deadline_state, play_a):
        decision, after = allocate_and_execute(deadline_state, play_a, algorithm="oma")
        assert decision == Chosen("license-1", "sl-1", "cp-1")
        assert rights(after, play_a.at)[perm("play", "song-b")] == 0

    def test_no_match_leaves_state_unchanged(self, deadline_state):
        request = Request(Action.PLAY, "song-z", at=REQUEST_AT)
        decision, after = allocate_and_execute(deadline_state, request)
        assert isinstance(decision, NoMatch)
        assert after.cstate == deadline_state.cstate

    def test_unresolved_prompt_leaves_state_unchanged(self, all_lossy_state):
        request = Request(Action.PLAY, "song-a", at=REQUEST_AT)
        decision, after = allocate_and_execute(all_lossy_state, request)
        assert isinstance(decision, PromptRequired)
        assert after.cstate == all_lossy_state.cstate


def _two_dated_licenses(end_1, end_2):
    return LicenseSet(
        [
            License(
                "lic-1",
                [SubLicense("sl", constraints=[DateTime(end=end_1)], cps=[CP("cp", permissions=[perm("play", "a")])])],
            ),
            License(
                "lic-2",
                [SubLicense("sl", constraints=[DateTime(end=end_2)], cps=[CP("cp", permissions=[perm("play", "a")])])],
            ),
        ]
    )


def test_datetime_tiebreak_modes():
    state = initial_state(_two_dated_licenses(end_1=5000, end_2=2000))
    request = Request(Action.PLAY, "a", at=100)
    earliest = oma_allocate(state, request, datetime_tiebreak="earliest")
    furthest = oma_allocate(state, request, datetime_tiebreak="furthest")
    assert earliest.license_id == "lic-2"
    assert furthest.license_id == "lic-1"
    with pytest.raises(ValueError):
        oma_allocate(state, request, datetime_tiebreak="sideways")


def test_tiebreak_is_validated_before_any_decision(deadline_state, play_a, all_lossy_state):
    # one candidate left, every candidate lossy, and no candidate at all: none
    # of these decisions reaches the ranking, yet each must reject the mode
    single = consume(deadline_state, "license-1", "sl-1", "cp-1", play_a)
    no_match = Request(Action.PLAY, "song-z", at=REQUEST_AT)
    for state, request in ((single, play_a), (all_lossy_state, play_a), (deadline_state, no_match)):
        for allocator in (oma_allocate, proposed_allocate):
            with pytest.raises(ValueError):
                allocator(state, request, datetime_tiebreak="sideways")


@pytest.mark.parametrize(
    "allocator",
    [oma_allocate, proposed_allocate, functools.partial(proposed_allocate, chooser=min_loss_chooser)],
    ids=["oma", "proposed", "proposed-chooser"],
)
def test_one_target_resolution_per_candidate(allocator, monkeypatch):
    """A decision walks each host of the requested permission once, in declaration
    order, only through ``select_target``, and never walks a license that does not host it."""
    walked = []
    resolve = rights_module.select_target

    def counting_resolve(state, lic, request):
        walked.append(lic.id)
        return resolve(state, lic, request)

    def second_walk(*args):
        raise AssertionError("the allocator walked a license outside its pool resolution")

    monkeypatch.setattr(rights_module, "select_target", counting_resolve)
    for name in ("candidates", "_valid_pairs"):
        monkeypatch.setattr(rights_module, name, second_walk)

    def stranger(lid):
        return License(lid, [SubLicense("sl", cps=[CP("cp", permissions=[perm("display", "poster")])])])

    def with_strangers(licenses):
        lics = list(licenses)
        return LicenseSet([stranger("stranger-1"), *lics[:1], stranger("stranger-2"), *lics[1:]])

    play_a = Request(Action.PLAY, "song-a", at=REQUEST_AT)
    instances = [(with_strangers(case.licenses), case.request) for case in case_studies()]
    instances.append((with_strangers(all_lossy_licenses()), play_a))
    for seed in range(3):
        licenses = wide_licenses(seed)
        installed = sorted({p for lic in licenses for sl in lic.sublicenses for cp in sl.cps for p in cp.permissions})
        instances.extend((licenses, Request(p.action, p.content, at=T0)) for p in installed[::5])
    for licenses, request in instances:
        hosts = [
            lic.id
            for lic in licenses
            if any(request.permission in cp.permissions for sl in lic.sublicenses for cp in sl.cps)
        ]
        assert 0 < len(hosts) < len(licenses)
        walked.clear()
        allocator(initial_state(licenses), request)
        assert walked == hosts


def test_open_ended_window_never_wins_earliest_mode():
    licenses = LicenseSet(
        [
            License(
                "open",
                [SubLicense("sl", constraints=[DateTime(start=0)], cps=[CP("cp", permissions=[perm("play", "a")])])],
            ),
            License(
                "closing",
                [SubLicense("sl", constraints=[DateTime(end=9000)], cps=[CP("cp", permissions=[perm("play", "a")])])],
            ),
        ]
    )
    state = initial_state(licenses)
    request = Request(Action.PLAY, "a", at=100)
    assert oma_allocate(state, request).license_id == "closing"
    assert oma_allocate(state, request, datetime_tiebreak="furthest").license_id == "open"


def test_decisions_are_deterministic(deadline_state, play_a):
    first = [proposed_allocate(deadline_state, play_a) for _ in range(3)]
    second = [oma_allocate(deadline_state, play_a) for _ in range(3)]
    assert len(set(map(repr, first))) == 1
    assert len(set(map(repr, second))) == 1


def test_tie_breaks_by_license_order():
    licenses = LicenseSet(
        [
            License("first", [SubLicense("sl", constraints=[Count(3)], cps=[CP("cp", permissions=[perm("play", "a")])])]),
            License("second", [SubLicense("sl", constraints=[Count(3)], cps=[CP("cp", permissions=[perm("play", "a")])])]),
        ]
    )
    state = initial_state(licenses)
    request = Request(Action.PLAY, "a", at=0)
    assert oma_allocate(state, request).license_id == "first"
    assert proposed_allocate(state, request).license_id == "first"


def test_filters_never_choose_an_unsatisfying_license(deadline_state):
    # every chosen id must come from the candidate pool
    request = Request(Action.PLAY, "song-c", at=REQUEST_AT)
    decision = proposed_allocate(deadline_state, request)
    assert isinstance(decision, Chosen)
    assert decision.license_id == "license-2"


def test_proposed_prefers_surviving_candidate_over_better_ranked_depleting_one():
    # lic-dated burns its single charge (and its set ranks higher); lic-plain
    # survives, so it must win under the filtered algorithm but not the baseline
    licenses = LicenseSet(
        [
            License(
                "lic-dated",
                [
                    SubLicense(
                        "sl",
                        constraints=[DateTime(end=9000)],
                        cps=[CP("cp", constraints=[Count(1)], permissions=[perm("play", "a")])],
                    )
                ],
            ),
            License(
                "lic-plain",
                [SubLicense("sl", constraints=[Count(3)], cps=[CP("cp", permissions=[perm("play", "a")])])],
            ),
        ]
    )
    state = initial_state(licenses)
    request = Request(Action.PLAY, "a", at=100)
    assert oma_allocate(state, request).license_id == "lic-dated"
    assert proposed_allocate(state, request).license_id == "lic-plain"
