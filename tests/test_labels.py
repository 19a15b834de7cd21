import pytest
from hypothesis import given
from hypothesis import strategies as st

from licalloc.engine import Depletion, consume, depleted, initial_state, is_depleting, on_last_charge
from licalloc.allocate import allocate_and_execute, min_loss_chooser
from licalloc import corpus as corpus_module
from licalloc.corpus import CorpusDocument, parse_corpus, serialize_corpus
from licalloc.labels import (
    Complexity,
    ConstraintName,
    Label,
    Times,
    cp_label,
    state_labels,
    sublicense_label,
    table_label,
)
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
from licalloc.engine import fresh_state
from licalloc.verify import PROFILES, InstanceGenerator

from conftest import perm, wide_licenses


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
    """A node's label names its best-ranked constraint: the dated one outranks the counter."""
    constraints = [Count(10), DateTime(end=10_000)]
    cp = CP("cp", constraints=constraints, permissions=[perm("play", "a")])
    sl = SubLicense("sl", constraints=constraints, cps=[cp])
    states = states_for(constraints)
    assert cp_label(cp, states) == Label(Complexity.SIMPLE, Times.MANY, ConstraintName.DATETIME)
    assert sublicense_label(sl, states, [states]) == Label(Complexity.SIMPLE, Times.MANY, ConstraintName.DATETIME)


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


@pytest.mark.parametrize("started", [0, 1])
def test_a_started_interval_is_no_counter(started):
    # an interval's state is its start time, which can read like a charge count of 0 or 1
    iv = [Interval(100)]
    assert not depleted(iv, [started]) and not on_last_charge(iv, [started])
    licenses = LicenseSet(
        [
            License(
                "l",
                [
                    SubLicense(
                        "sl",
                        constraints=iv,
                        cps=[
                            CP("cp-a", constraints=iv, permissions=[perm("play", "a")]),
                            CP("cp-b", permissions=[perm("play", "b")]),
                        ],
                    )
                ],
            )
        ]
    )
    after = consume(initial_state(licenses), "l", "sl", "cp-a", Request(Action.PLAY, "a", at=started))
    assert after.slot("l", "sl")[1][0] == (started,)
    labels = state_labels(after)
    assert labels[("l", "sl", "cp-a")].times is Times.MANY
    assert labels[("l", "sl", None)] == Label(Complexity.COMPLEX, Times.MANY, ConstraintName.INTERVAL)


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


counters = st.one_of(
    st.builds(Count, st.integers(1, 2)),
    st.builds(TimedCount, st.integers(1, 2), st.integers(1, 60)),
)


@given(st.lists(counters, min_size=1, max_size=2), st.integers(0, 90), st.sampled_from(["cp", "sublicense"]))
def test_request_label_predicts_depletion_for_any_use(constraints, duration, level):
    """A node labelled for the request is ``once`` exactly when the use leaves one of its counters at zero."""
    on_cp = level == "cp"
    cp = CP("cp", constraints=constraints if on_cp else [], permissions=[perm("play", "a")])
    sl = SubLicense("sl", constraints=[] if on_cp else constraints, cps=[cp])
    state = initial_state(LicenseSet([License("l", [sl])]))
    request = Request(Action.PLAY, "a", at=100, usage_duration=duration)
    sl_states, cp_states = state.slot("l", "sl")
    if on_cp:
        label, depletes = cp_label(cp, cp_states[0], request), Depletion.CP_DEPLETES
    else:
        label, depletes = sublicense_label(sl, sl_states, cp_states, request), Depletion.SUBLICENSE_DEPLETES
    once = label.times is Times.ONCE
    assert is_depleting(state, "l", "sl", "cp", request) is (depletes if once else Depletion.NONE)
    sl_after, cps_after = consume(state, "l", "sl", "cp", request).slot("l", "sl")
    assert once == depleted(constraints, cps_after[0] if on_cp else sl_after)



# --- the label table ----------------------------------------------------------

ALL_LABELS = [
    table_label(complexity, times, name) for complexity in Complexity for times in Times for name in ConstraintName
]
# One constraint of each kind, by the name a label gives it.
SAMPLE_CONSTRAINT = {
    ConstraintName.TRUE: Unconstrained(),
    ConstraintName.DATETIME: DateTime(end=10),
    ConstraintName.INTERVAL: Interval(10),
    ConstraintName.TIMED_COUNT: TimedCount(3, timer=5),
    ConstraintName.COUNT: Count(3),
}


def named_constraint(constraints) -> ConstraintName:
    """The name of a node's best-ranked constraint, ``true`` for none: what a label's ``constraint`` says."""
    if not constraints:
        return ConstraintName.TRUE
    best = min(constraints, key=constraint_rank)
    return next(name for name, sample in SAMPLE_CONSTRAINT.items() if type(sample) is type(best))


def is_table_entry(label) -> bool:
    return label is table_label(label.complexity, label.times, label.constraint)


def test_the_table_holds_each_of_the_twenty_labels_once():
    assert len({id(label) for label in ALL_LABELS}) == 20
    assert len(set(ALL_LABELS)) == 20
    assert all(is_table_entry(label) for label in ALL_LABELS)


def test_label_key_is_the_three_part_preference():
    for label in ALL_LABELS:
        assert label.key == (
            0 if label.times is Times.MANY else 1,
            0 if label.complexity is Complexity.SIMPLE else 1,
            constraint_rank(SAMPLE_CONSTRAINT[label.constraint]),
        )
        # A label built anywhere else carries the same key.
        assert Label(label.complexity, label.times, label.constraint).key == label.key


@pytest.mark.parametrize("profile", PROFILES)
def test_campaign_labels_come_from_the_table(profile):
    """Every label of every state a seeded campaign reaches is the table's entry, and names the node's rank."""
    generator = InstanceGenerator(seed=5, profile=profile)
    for index in range(60):
        doc = generator.document(index)
        state = initial_state(doc.licenses)
        nodes = {
            (lic.id, sl.id, node.id if node is not sl else None): node
            for lic in doc.licenses
            for sl in lic.sublicenses
            for node in (sl, *sl.cps)
        }
        for request in doc.requests:
            labels = state_labels(state)
            assert labels.keys() == nodes.keys()
            for key, label in labels.items():
                assert is_table_entry(label)
                assert label.constraint is named_constraint(nodes[key].constraints)
            decision, state = allocate_and_execute(state, request, chooser=min_loss_chooser)
            for resolved in getattr(decision, "pool", {}).values():
                assert is_table_entry(resolved.sublicense_label) and is_table_entry(resolved.cp_label)


def test_parsed_corpus_labels_come_from_the_table(monkeypatch):
    """Every label a corpus file stores is read as the table's entry."""
    read, parse_label = [], corpus_module._parse_label

    def recorded(*args):
        read.append(parse_label(*args))
        return read[-1]

    monkeypatch.setattr(corpus_module, "_parse_label", recorded)
    doc = parse_corpus(serialize_corpus(CorpusDocument(wide_licenses(0))))
    assert len(read) == sum(1 + len(sl.cps) for lic in doc.licenses for sl in lic.sublicenses)
    assert all(is_table_entry(label) for label in read)


@pytest.mark.parametrize("profile", PROFILES)
def test_every_generated_node_ranks_its_best_constraint(profile):
    generator = InstanceGenerator(seed=7, profile=profile)
    for index in range(200):
        for lic in generator.licenses(index):
            for sl in lic.sublicenses:
                for node in (sl, *sl.cps):
                    assert node.rank == constraint_rank(SAMPLE_CONSTRAINT[named_constraint(node.constraints)])
