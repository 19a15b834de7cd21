import importlib
import math
import sys
from collections import Counter

import pytest

from licalloc.allocate import Chosen, PromptRequired, min_loss_chooser, oma_allocate, proposed_allocate
from licalloc.cases import REQUEST_AT, all_lossy_licenses
from licalloc.cli import main
from licalloc.corpus import CorpusDocument, parse_corpus, serialize_corpus
from licalloc.engine import AgentState, initial_state
from licalloc.errors import AssumptionViolation
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
)
from licalloc.rights import rights
from licalloc.verify import (
    CHECKS,
    MAX_COUNTEREXAMPLES,
    CampaignReport,
    CheckResult,
    Color,
    Coloring,
    Counterexample,
    GeneratorCaps,
    LIVENESS_CAPS,
    MAX_LIVENESS_STATES,
    InstanceGenerator,
    check_selection_soundness,
    check_weak_minimal_loss,
    color_step,
    conforms_to_depletion_assumption,
    fuzz_campaign,
    oracle_losses,
    run_bounded_liveness,
    run_liveness_campaign,
    run_neutrality_campaign,
    run_trial,
    shrink_document,
)

from conftest import brute_force_liveness, fair_family, perm, replay_fair_schedule, target_of

# The rights module; the name ``rights`` is bound to its function.
rights_module = importlib.import_module("licalloc.rights")


def judge(check, state, request, decision):
    """The verdict of ``check`` on the decision, given the oracle ``run_trial`` builds."""
    return check(state, request, decision, oracle_losses(state, request))


class TestColoring:
    def test_baseline_choice_leaves_collateral_white(self, deadline_state, play_a):
        coloring = Coloring.initial(rights(deadline_state, play_a.at))
        decision = oma_allocate(deadline_state, play_a)
        assert decision.license_id == "license-1"
        after = color_step(coloring, deadline_state, decision, play_a)
        # song-b is collateral damage while a harmless candidate existed: the
        # coloring model refuses to bless it
        assert after.color(perm("play", "song-b")) is Color.WHITE
        assert after.color(perm("play", "song-a")) is Color.BLACK

    def test_lossless_choice_changes_nothing(self, deadline_state, play_a):
        coloring = Coloring.initial(rights(deadline_state, play_a.at))
        decision = proposed_allocate(deadline_state, play_a)
        after = color_step(coloring, deadline_state, decision, play_a)
        assert after == coloring

    def test_prompted_all_lossy_blackens_whole_loss(self, all_lossy_state):
        request = Request(Action.PLAY, "song-a", at=REQUEST_AT)
        coloring = Coloring.initial(rights(all_lossy_state, request.at))
        decision = proposed_allocate(all_lossy_state, request, chooser=min_loss_chooser)
        after = color_step(coloring, all_lossy_state, decision, request)
        assert after.color(perm("play", "song-b")) is Color.BLACK
        assert after.color(perm("play", "song-a")) is Color.BLACK
        assert after.color(perm("play", "song-c")) is Color.WHITE

    def test_monotone_no_black_back_to_white(self, all_lossy_state):
        request = Request(Action.PLAY, "song-a", at=REQUEST_AT)
        coloring = Coloring.initial(rights(all_lossy_state, request.at))
        decision = proposed_allocate(all_lossy_state, request, chooser=min_loss_chooser)
        once = color_step(coloring, all_lossy_state, decision, request)
        twice = color_step(once, all_lossy_state, decision, request)
        blacks = {p for p, c in once.colors.items() if c is Color.BLACK}
        assert {p for p, c in twice.colors.items() if c is Color.BLACK} >= blacks


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


class TestBoundedLiveness:
    def test_all_lossy_instance_passes(self):
        result = run_bounded_liveness(all_lossy_licenses(), at=REQUEST_AT)
        assert result.passed
        assert result.states > 0

    def test_gate_rejects_surviving_nodes(self, deadline_case):
        # the ten-use license survives its own selections, which the bounded
        # argument does not cover
        with pytest.raises(AssumptionViolation):
            run_bounded_liveness(deadline_case.licenses, at=REQUEST_AT)

    def test_single_permission_single_charge(self):
        licenses = LicenseSet(
            [License("l", [SubLicense("sl", constraints=[Count(1)], cps=[CP("cp", permissions=[perm("play", "a")])])])]
        )
        assert run_bounded_liveness(licenses).passed

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
        assert not result.passed
        assert result.failure["permission"] == {"action": "play", "content": "b"}
        filtered = run_bounded_liveness(licenses, algorithm="proposed", at=100)
        assert filtered.passed


def test_depletion_assumption_labels_the_nodes_it_walks(monkeypatch):
    """The check gives the verdict of the state's labels without looking any node up."""

    def by_labels(state):
        labels = state_labels(state)
        return all(
            labels[(lic.id, sl.id, None)].times is not Times.MANY
            or all(labels[(lic.id, sl.id, cp.id)].times is Times.ONCE for cp in sl.cps)
            for lic in state.licenses
            for sl in lic.sublicenses
        )

    states = [
        initial_state(InstanceGenerator(LIVENESS_CAPS, seed=0, profile=profile).document(index).licenses)
        for profile in ("depleting", "general")
        for index in range(40)
    ]
    expected = [by_labels(state) for state in states]
    assert True in expected and False in expected

    def tree_lookup(*args):
        raise AssertionError(f"tree lookup by id {args[1:]}")

    for name in ("license", "sublicense", "cp"):
        monkeypatch.setattr(AgentState, name, tree_lookup)
    assert [conforms_to_depletion_assumption(state) for state in states] == expected


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

    @pytest.mark.parametrize("index", [157, 251])
    def test_finds_failures_beyond_full_enumeration(self, index):
        licenses = InstanceGenerator(LIVENESS_CAPS, seed=0, profile="depleting").document(index).licenses
        support, rounds = fair_family(licenses)
        assert math.factorial(len(support)) ** rounds > 256
        baseline = run_bounded_liveness(licenses, algorithm="oma")
        assert not baseline.passed
        _assert_replays(licenses, "oma", baseline.failure)
        assert run_bounded_liveness(licenses, algorithm="proposed").passed

    def test_pinned_seeds_stay_under_the_state_budget(self):
        for seed in range(6):
            for licenses in _conforming_instances(seed, n=40):
                for algorithm in ("proposed", "oma"):
                    result = run_bounded_liveness(licenses, algorithm=algorithm)
                    assert result.states < MAX_LIVENESS_STATES and result.finished

    def test_search_asks_allocate_only_where_a_host_is_left(self, monkeypatch):
        outcomes = Counter()
        verify_module = sys.modules["licalloc.verify"]
        inner = verify_module.allocate

        def counting_allocate(state, request, **kwargs):
            decision = inner(state, request, **kwargs)
            outcomes[type(decision).__name__] += 1
            return decision

        monkeypatch.setattr(verify_module, "allocate", counting_allocate)
        for algorithm in ("proposed", "oma"):
            run_liveness_campaign(n=40, seed=0, algorithm=algorithm)
        assert outcomes["Chosen"] > 0
        assert outcomes["NoMatch"] == 0

    def test_search_resolves_pools_only_inside_allocate(self, monkeypatch):
        """An executed step colors from the pool its decision carries, so no walk happens outside ``allocate``."""
        verify_module = sys.modules["licalloc.verify"]
        inner, resolve = verify_module.allocate, rights_module.select_target
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

        monkeypatch.setattr(verify_module, "allocate", wrapped_allocate)
        monkeypatch.setattr(rights_module, "select_target", checked_resolve)
        for licenses in _conforming_instances(seed=0, n=20):
            for algorithm in ("proposed", "oma"):
                run_bounded_liveness(licenses, algorithm=algorithm)
        assert resolves[True] > 0 and resolves[False] == 0

    @pytest.mark.parametrize("caps", [LIVENESS_CAPS, GeneratorCaps()], ids=["liveness-caps", "default-caps"])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_depleting_instances_conform_by_construction(self, caps, seed):
        generator = InstanceGenerator(caps, seed=seed, profile="depleting")
        for index in range(1000):
            assert conforms_to_depletion_assumption(initial_state(generator.licenses(index))), index

    def test_a_search_cut_short_is_a_vacuous_pass(self, monkeypatch, capsys):
        monkeypatch.setattr(sys.modules["licalloc.verify"], "MAX_LIVENESS_STATES", 3)
        licenses = _conforming_instances(seed=0, n=1)[0]
        result = run_bounded_liveness(licenses)
        assert (result.passed, result.states, result.finished) == (True, 3, False)
        report = run_liveness_campaign(n=5, seed=0)
        assert (report.passes["liveness"], report.vacuous["liveness"]) == (5, 5)
        assert main(["verify", "--checks", "liveness", "--trials", "5"]) == 0
        assert "liveness: 5 passed (5 vacuous), 0 failed" in capsys.readouterr().out


class TestCampaigns:
    def test_empty_campaign(self):
        gen = InstanceGenerator(GeneratorCaps(), seed=1)
        report = fuzz_campaign(gen, 0)
        assert report.decisions_checked == 0
        assert not report.failed

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

    def test_unknown_check_rejected(self):
        gen = InstanceGenerator(GeneratorCaps(), seed=0)
        with pytest.raises(ValueError):
            fuzz_campaign(gen, 1, checks=("sanity",))


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


def test_checks_registry_contains_documented_names():
    assert {"soundness", "minimal_loss", "pair_discipline"} <= set(CHECKS)


class TestEachPoolIsPricedOnce:
    """Pricing a candidate pool builds no successor state and walks ``rights`` at most once."""

    request = Request(Action.PLAY, "song-a", at=REQUEST_AT)

    @pytest.fixture
    def counts(self, monkeypatch):
        # Every licalloc namespace that bound a name by import gets the
        # counting wrapper, the defining module included.
        counts = Counter()
        for module_name, name in (
            ("licalloc.rights", "rights"),
            ("licalloc.rights", "remnants"),
            ("licalloc.engine", "consume"),
        ):
            original = getattr(sys.modules[module_name], name)

            def counted(*args, _name=name, _original=original, **kwargs):
                counts[_name] += 1
                return _original(*args, **kwargs)

            for loaded_name, module in list(sys.modules.items()):
                if loaded_name.startswith("licalloc") and getattr(module, name, None) is original:
                    monkeypatch.setattr(module, name, counted)
        return counts

    def test_color_step(self, all_lossy_state, counts):
        decision = proposed_allocate(all_lossy_state, self.request, chooser=min_loss_chooser)
        coloring = Coloring.initial(rights(all_lossy_state, REQUEST_AT))
        counts.clear()
        color_step(coloring, all_lossy_state, decision, self.request)
        assert counts["consume"] == 0 and counts["rights"] <= 1

    def test_color_step_walks_no_license(self, all_lossy_state, monkeypatch):
        """``color_step`` prices the pool its decision carries."""
        decision = proposed_allocate(all_lossy_state, self.request, chooser=min_loss_chooser)
        coloring = Coloring.initial(rights(all_lossy_state, REQUEST_AT))

        def second_walk(*args):
            raise AssertionError("color_step walked a license its decision had resolved")

        for name in ("select_target", "candidates", "_valid_pairs"):
            monkeypatch.setattr(rights_module, name, second_walk)
        after = color_step(coloring, all_lossy_state, decision, self.request)
        assert after.color(perm("play", "song-b")) is Color.BLACK

    def test_prompted_soundness(self, all_lossy_state, counts):
        decision = proposed_allocate(all_lossy_state, self.request)
        assert isinstance(decision, PromptRequired)
        counts.clear()
        assert judge(check_selection_soundness, all_lossy_state, self.request, decision).passed
        assert counts["consume"] == 0 and counts["rights"] <= 1

    def test_cli_allocate_on_a_prompt(self, tmp_path, counts, capsys):
        path = tmp_path / "all-lossy.json"
        path.write_bytes(serialize_corpus(CorpusDocument(all_lossy_licenses())))
        assert main(["allocate", str(path), "play", "song-a", "--time", str(REQUEST_AT)]) == 3
        assert counts["consume"] == 0 and counts["rights"] <= 1

    def test_run_trial_resolves_a_prompt_from_its_pool(self, counts, monkeypatch):
        """The allocator walks each host once; choosing and consuming its prompt resolves no target again."""
        original, walked = rights_module.select_target, []

        def counting_resolve(state, lic, request, permission):
            walked.append(lic.id)
            return original(state, lic, request, permission)

        for loaded_name, module in list(sys.modules.items()):
            if loaded_name.startswith("licalloc") and getattr(module, "select_target", None) is original:
                monkeypatch.setattr(module, "select_target", counting_resolve)
        licenses = all_lossy_licenses()
        doc = CorpusDocument(licenses, [self.request])
        assert run_trial(doc, "proposed", []) == []
        assert walked == [lic.id for lic in licenses.hosts(self.request.permission)]
        assert counts["consume"] == 1


@pytest.mark.parametrize("checks", [tuple(CHECKS), ("soundness",)], ids=["all", "soundness"])
def test_each_checked_decision_builds_one_oracle(checks, monkeypatch):
    """One ``candidates`` walk per checked decision, one ``loss`` per candidate it found."""
    calls = Counter()
    walk, price = rights_module.candidates, rights_module.loss

    def candidates(*args):
        pool = walk(*args)
        calls["candidates"] += 1
        calls["candidates_found"] += len(pool)
        return pool

    def loss(*args):
        calls["loss"] += 1
        return price(*args)

    for loaded_name, module in list(sys.modules.items()):
        if loaded_name.startswith("licalloc"):
            for original, counted in ((walk, candidates), (price, loss)):
                if getattr(module, original.__name__, None) is original:
                    monkeypatch.setattr(module, original.__name__, counted)
    report = fuzz_campaign(InstanceGenerator(GeneratorCaps(), seed=100), 200, checks)
    assert not report.failed
    assert calls["candidates"] == report.decisions_checked // len(checks)
    assert calls["loss"] == calls["candidates_found"] > 0
