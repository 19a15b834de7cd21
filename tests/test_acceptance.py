"""End-to-end acceptance suite.

Each test prints one [PASS]/[FAIL] line with its runtime so the whole gate
can be read off a plain ``pytest tests/test_acceptance.py -v -s`` run.  The
campaign sizes and time budgets are fixed here, not tuned at runtime.
"""

import time
from collections import Counter
from contextlib import contextmanager

import pytest

from licalloc.allocate import Chosen, NoMatch, allocate_and_execute, oma_allocate, proposed_allocate
from licalloc.cases import REQUEST_AT, all_lossy_licenses, case_studies, mixed_branch_license
from licalloc.corpus import CorpusDocument, parse_corpus, serialize_corpus
from licalloc.engine import initial_state
from licalloc.labels import Complexity, ConstraintName, Label, Times, state_labels
from licalloc.model import Action, LicenseSet, Request
from licalloc.verify import (
    GeneratorCaps,
    InstanceGenerator,
    fuzz_campaign,
    run_liveness_campaign,
    run_neutrality_campaign,
)

from conftest import perm

CAMPAIGN_CAPS = GeneratorCaps(
    max_licenses=4, max_sublicenses=3, max_cps=3, max_permissions=4, max_count=3, max_requests=5
)


@contextmanager
def criterion(name: str, budget_s: float):
    record = {"detail": ""}
    start = time.perf_counter()
    try:
        yield record
    except BaseException:
        elapsed = time.perf_counter() - start
        print(f"[FAIL] {name}: {record['detail']} ({elapsed:.2f}s)")
        raise
    elapsed = time.perf_counter() - start
    print(f"[PASS] {name}: {record['detail']} ({elapsed:.2f}s)")
    assert elapsed < budget_s, f"{name} exceeded its {budget_s}s budget ({elapsed:.2f}s)"


def test_case_study_matrix():
    with criterion("case-study-matrix", budget_s=1.0) as record:
        cells = 0
        for case in case_studies():
            state = initial_state(case.licenses)
            for algorithm, allocator in (("proposed", proposed_allocate), ("oma", oma_allocate)):
                decision = allocator(state, case.request)
                assert isinstance(decision, Chosen), f"{case.id}/{algorithm}"
                assert decision.license_id == case.expected[algorithm], f"{case.id}/{algorithm}"
                cells += 1
        record["detail"] = f"{cells}/8 decision cells match"
        assert cells == 8


def test_collateral_loss_scenario():
    with criterion("collateral-loss-replay", budget_s=1.0) as record:
        licenses = case_studies()[0].licenses
        play_a = Request(Action.PLAY, "song-a", at=REQUEST_AT)
        play_b = Request(Action.PLAY, "song-b", at=REQUEST_AT)

        baseline, state = allocate_and_execute(initial_state(licenses), play_a, algorithm="oma")
        assert baseline == Chosen("license-1", "sl-1", "cp-1")
        followup, _ = allocate_and_execute(state, play_b, algorithm="oma")
        assert isinstance(followup, NoMatch)

        filtered, state = allocate_and_execute(initial_state(licenses), play_a, algorithm="proposed")
        assert filtered == Chosen("license-2", "sl-1", "cp-1")
        followup, _ = allocate_and_execute(state, play_b, algorithm="proposed")
        assert isinstance(followup, Chosen)
        record["detail"] = "baseline loses the second song, filtered keeps it"


@pytest.fixture(scope="module")
def combined_campaign():
    generator = InstanceGenerator(CAMPAIGN_CAPS, seed=0, profile="general")
    start = time.perf_counter()
    report = fuzz_campaign(generator, 10_000, checks=("soundness", "minimal_loss"))
    return report, time.perf_counter() - start


def test_selection_soundness_campaign(combined_campaign):
    report, elapsed = combined_campaign
    with criterion("selection-soundness", budget_s=60.0) as record:
        assert report.failures.get("soundness", 0) == 0
        assert report.passes["soundness"] > 10_000
        generator = InstanceGenerator(CAMPAIGN_CAPS, seed=0, profile="general")
        baseline = fuzz_campaign(generator, 10_000, checks=("soundness",), algorithm="oma", stop_after=1)
        assert baseline.failures.get("soundness", 0) >= 1
        assert baseline.counterexamples
        record["detail"] = (
            f"filtered 0/{report.passes['soundness']} failures in {elapsed:.1f}s shared campaign; "
            f"baseline counterexample at trial {baseline.counterexamples[0].trial}"
        )
        assert elapsed < 60.0


def test_weak_minimal_loss_campaign(combined_campaign):
    report, elapsed = combined_campaign
    with criterion("weak-minimal-loss", budget_s=60.0) as record:
        assert report.failures.get("minimal_loss", 0) == 0
        total = report.passes["minimal_loss"]
        vacuous = report.vacuous.get("minimal_loss", 0)
        record["detail"] = (
            f"0/{total} failures ({vacuous} vacuous passes) in {elapsed:.1f}s shared campaign"
        )
        assert total > 10_000
        assert elapsed < 60.0


def test_filter_neutrality_campaign():
    with criterion("filter-neutrality", budget_s=30.0) as record:
        report = run_neutrality_campaign(CAMPAIGN_CAPS, n=10_000, seed=0)
        assert not report.failed
        record["detail"] = f"{report.passes.get('neutrality', 0)}/10000 identical decisions"
        assert report.passes.get("neutrality", 0) == 10_000


def test_bounded_liveness_campaign():
    with criterion("bounded-liveness", budget_s=120.0) as record:
        report = run_liveness_campaign(n=1_000, seed=0)
        assert not report.failed
        record["detail"] = f"{report.passes.get('liveness', 0)}/{report.trials} instances pass"
        assert report.passes.get("liveness", 0) == 1_000


def test_labeling_worked_example():
    with criterion("labeling-worked-example", budget_s=1.0) as record:
        state = initial_state(LicenseSet([mixed_branch_license()]))
        sl = state.sublicense("license-1", "sl-1")
        assert len(sl.cps) == 2
        labels = state_labels(state)
        assert labels[("license-1", "sl-1", None)] == Label(
            Complexity.COMPLEX, Times.ONCE, ConstraintName.DATETIME
        )
        assert labels[("license-1", "sl-1", "cp-1")] == Label(
            Complexity.COMPLEX, Times.MANY, ConstraintName.COUNT
        )
        assert labels[("license-1", "sl-1", "cp-2")] == Label(
            Complexity.SIMPLE, Times.ONCE, ConstraintName.COUNT
        )
        record["detail"] = "2 cps; labels complex.once.datetime / complex.many.count / simple.once.count"


def test_determinism_and_round_trip():
    with criterion("determinism-and-round-trip", budget_s=30.0) as record:
        fixtures = [CorpusDocument(case.licenses, [case.request]) for case in case_studies()]
        fixtures.append(CorpusDocument(all_lossy_licenses(), [Request(Action.PLAY, "song-a", at=REQUEST_AT)]))
        fixtures.append(CorpusDocument(LicenseSet([mixed_branch_license()])))
        for doc in fixtures:
            data = serialize_corpus(doc)
            parsed = parse_corpus(data)
            assert parsed == doc
            assert serialize_corpus(parsed) == data

        caps = GeneratorCaps(max_licenses=3)
        first = fuzz_campaign(InstanceGenerator(caps, seed=42), 200)
        second = fuzz_campaign(InstanceGenerator(caps, seed=42), 200)
        assert first.to_bytes() == second.to_bytes()
        record["detail"] = f"{len(fixtures)} fixtures round-trip; seeded reports byte-identical"


def test_deadline_fixture_rights_multiset():
    # cross-check the headline fixture numbers used throughout the suite
    state = initial_state(case_studies()[0].licenses)
    from licalloc.rights import loss, rights

    assert rights(state, REQUEST_AT) == Counter(
        {perm("play", "song-a"): 2, perm("play", "song-b"): 1, perm("play", "song-c"): 1}
    )
    play_a = Request(Action.PLAY, "song-a", at=REQUEST_AT)
    assert loss(state, "license-1", play_a) == Counter(
        {perm("play", "song-a"): 1, perm("play", "song-b"): 1}
    )
    assert loss(state, "license-2", play_a) == Counter()
