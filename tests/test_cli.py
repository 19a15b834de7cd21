import importlib
import io
import json
import sys

import pytest

from licalloc.cases import REQUEST_AT, all_lossy_licenses, case_studies
from licalloc.cli import build_parser, main, parse_time
from licalloc.corpus import CorpusDocument, load_corpus, serialize_corpus
from licalloc.engine import initial_state
from licalloc.labels import state_labels
from licalloc.model import CP, Action, Count, DateTime, License, LicenseSet, Request, SubLicense, TimedCount
from licalloc.rights import rights
from licalloc.verify import LIVENESS_CAPS, GeneratorCaps

from conftest import duplicate_listing_corpus, perm

rights_module = importlib.import_module("licalloc.rights")


@pytest.fixture
def deadline_path(tmp_path, deadline_case):
    doc = CorpusDocument(deadline_case.licenses, [deadline_case.request])
    path = tmp_path / "deadline.json"
    path.write_bytes(serialize_corpus(doc))
    return str(path)


@pytest.fixture
def script_path(tmp_path, deadline_case):
    doc = CorpusDocument(
        deadline_case.licenses,
        [
            Request(Action.PLAY, "song-a", at=REQUEST_AT),
            Request(Action.PLAY, "song-b", at=REQUEST_AT),
        ],
    )
    path = tmp_path / "script.json"
    path.write_bytes(serialize_corpus(doc))
    return str(path)


def write_script(tmp_path, licenses, requests):
    path = tmp_path / "script.json"
    path.write_bytes(serialize_corpus(CorpusDocument(LicenseSet(licenses), requests)))
    return str(path)


def play(content, at):
    return Request(Action.PLAY, content, at=at)


@pytest.fixture
def late_license_script(tmp_path):
    """``license-1`` grants play a and play b only from t=150, once; ``license-2`` grants play c."""
    granted = [perm("play", "a"), perm("play", "b")]
    return write_script(
        tmp_path,
        [
            License("license-1", [SubLicense("sl-1", [Count(1)], [CP("cp-1", [DateTime(start=150)], granted)])]),
            License("license-2", [SubLicense("sl-1", cps=[CP("cp-1", permissions=[perm("play", "c")])])]),
        ],
        [play("c", 100), play("a", 200)],
    )


@pytest.fixture
def duplicate_listing_path(tmp_path):
    path = tmp_path / "duplicate.json"
    path.write_text(duplicate_listing_corpus())
    return str(path)


@pytest.fixture
def all_lossy_path(tmp_path):
    doc = CorpusDocument(all_lossy_licenses())
    path = tmp_path / "lossy.json"
    path.write_bytes(serialize_corpus(doc))
    return str(path)


class TestLabel:
    def test_prelabeled_file_round_trips_byte_identically(self, deadline_path, capsys):
        assert main(["label", deadline_path]) == 0
        first = capsys.readouterr().out
        assert main(["label", deadline_path]) == 0
        assert capsys.readouterr().out == first
        with open(deadline_path, "r", encoding="utf-8") as fh:
            assert first == fh.read()

    def test_malformed_file_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        assert main(["label", str(bad)]) == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text", ["[" * 100_000, '{"schema_version": ' + "9" * 5_000 + "}"], ids=["nested", "long-integer"]
    )
    def test_json_the_decoder_cannot_hold_exits_1(self, text, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        assert main(["label", str(bad)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.splitlines()) == 1

    @pytest.mark.parametrize("value", [7, "ab", {"count": 1}], ids=["number", "string", "object"])
    @pytest.mark.parametrize("level", ["sublicense", "cp"])
    def test_constraints_that_are_not_an_array_exit_1(self, level, value, tmp_path, deadline_path, capsys):
        payload = json.load(open(deadline_path))
        node = payload["licenses"][0]["sublicenses"][0]
        if level == "cp":
            node = node["cps"][0]
        node["constraints"] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        assert main(["label", str(bad)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert err.rstrip("\n").endswith(".constraints: constraints must be an array")

    @pytest.mark.parametrize(
        "level, where, message",
        [
            ("license", "$.licenses", "duplicate license id 'license-1'"),
            ("sublicense", "$.licenses[0]", "duplicate sublicense id 'sl-1' in license 'license-1'"),
            ("cp", "$.licenses[0].sublicenses[0]", "duplicate cp id 'cp-1' in sublicense 'sl-1'"),
        ],
    )
    def test_a_duplicate_id_exits_1_with_one_located_line(self, level, where, message, tmp_path, deadline_path, capsys):
        payload = json.load(open(deadline_path))
        siblings = payload["licenses"]
        if level != "license":
            siblings = siblings[0]["sublicenses"]
        if level == "cp":
            siblings = siblings[0]["cps"]
        siblings.append(siblings[0])
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        assert main(["label", str(bad)]) == 1
        assert capsys.readouterr().err == f"error: {where}: {message}\n"

    def test_missing_file_exits_1(self, capsys):
        assert main(["label", "/nonexistent/corpus.json"]) == 1

    def test_label_mismatch_exits_2_in_strict_mode(self, tmp_path, deadline_path, capsys):
        payload = json.load(open(deadline_path))
        payload["licenses"][0]["sublicenses"][0]["label"]["times"] = "many"
        tampered = tmp_path / "tampered.json"
        tampered.write_text(json.dumps(payload))
        assert main(["label", str(tampered)]) == 2
        capsys.readouterr()
        assert main(["label", str(tampered), "--no-strict-labels"]) == 0


    def test_a_permission_listed_twice_is_written_once(self, duplicate_listing_path, capsys):
        assert main(["label", duplicate_listing_path]) == 0
        payload = json.loads(capsys.readouterr().out)
        (l1, l2) = payload["licenses"]
        cp = l1["sublicenses"][0]["cps"][0]
        assert cp["permissions"] == [{"action": "play", "content": "a"}]
        assert cp["label"]["complexity"] == "simple"
        assert len(l2["sublicenses"][0]["cps"][0]["permissions"]) == 2


class TestAllocate:
    def test_a_permission_listed_twice_loses_nothing_more(self, duplicate_listing_path, capsys):
        assert main(["allocate", duplicate_listing_path, "play", "a", "--time", "0"]) == 0
        assert "chosen: l1" in capsys.readouterr().out

    def test_proposed_picks_counter_license(self, deadline_path, capsys):
        code = main(["allocate", deadline_path, "play", "song-a", "--time", str(REQUEST_AT)])
        assert code == 0
        assert "chosen: license-2" in capsys.readouterr().out

    def test_baseline_picks_dated_license(self, deadline_path, capsys):
        code = main(
            ["allocate", deadline_path, "play", "song-a", "--algorithm", "oma", "--time", str(REQUEST_AT)]
        )
        assert code == 0
        assert "chosen: license-1" in capsys.readouterr().out

    @pytest.mark.parametrize("tiebreak, chosen", [("earliest", "finite"), ("furthest", "huge")])
    def test_an_end_past_the_float_range_is_ranked_without_a_traceback(self, tiebreak, chosen, tmp_path, capsys):
        """A 309-digit end is above the largest float; the ranking compares it as an int."""
        granted = [perm("play", "a")]
        path = write_script(
            tmp_path,
            [
                License("huge", [SubLicense("sl", cps=[CP("cp", [DateTime(end=5 * 10**308)], granted)])]),
                License("finite", [SubLicense("sl", cps=[CP("cp", [DateTime(end=2000)], granted)])]),
            ],
            [play("a", 1000)],
        )
        for algorithm in ("proposed", "oma"):
            options = ["--algorithm", algorithm, "--datetime-tiebreak", tiebreak]
            for argv in (["allocate", path, "play", "a", "--time", "1000"], ["simulate", path]):
                assert main([*argv, *options]) == 0
                assert f"chosen: {chosen} / sl / cp" in capsys.readouterr().out

    def test_unknown_content_exits_4(self, deadline_path, capsys):
        assert main(["allocate", deadline_path, "play", "song-z"]) == 4

    def test_prompt_non_interactive_exits_3(self, all_lossy_path, capsys):
        code = main(["allocate", all_lossy_path, "play", "song-a", "--time", str(REQUEST_AT)])
        assert code == 3
        out = capsys.readouterr().out
        assert "license-1" in out and "license-2" in out

    def test_prompt_interactive_reads_choice(self, all_lossy_path, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("2\n"))
        code = main(
            ["allocate", all_lossy_path, "play", "song-a", "--interactive", "--time", str(REQUEST_AT)]
        )
        assert code == 0
        assert "chosen: license-2" in capsys.readouterr().out

    def test_prompt_interactive_eof_exits_3(self, all_lossy_path, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(""))
        code = main(
            ["allocate", all_lossy_path, "play", "song-a", "--interactive", "--time", str(REQUEST_AT)]
        )
        assert code == 3

    @pytest.mark.parametrize(
        "answers, transcript",
        [
            (
                "2\n",
                "every candidate loses rights beyond the request; pick one:\n"
                "  [1] license-1  would lose: play song-a x1, play song-b x1\n"
                "  [2] license-2  would lose: play song-a x1, play song-c x1, play song-d x1\n"
                "license for play song-a [1-2]: chosen: license-2 / sl-1 / cp-1\n"
                "    license-1  would lose: play song-a x1, play song-b x1\n"
                "  * license-2  would lose: play song-a x1, play song-c x1, play song-d x1\n"
                "rights after execution: play song-a x1, play song-b x1\n",
            ),
            (
                "x\nlicense-1\n",
                "every candidate loses rights beyond the request; pick one:\n"
                "  [1] license-1  would lose: play song-a x1, play song-b x1\n"
                "  [2] license-2  would lose: play song-a x1, play song-c x1, play song-d x1\n"
                "license for play song-a [1-2]: pick 1-2 or a license id\n"
                "license for play song-a [1-2]: chosen: license-1 / sl-1 / cp-1\n"
                "  * license-1  would lose: play song-a x1, play song-b x1\n"
                "    license-2  would lose: play song-a x1, play song-c x1, play song-d x1\n"
                "rights after execution: play song-a x1, play song-c x1, play song-d x1\n",
            ),
        ],
        ids=["by-number", "by-id-after-a-bad-answer"],
    )
    def test_an_interactive_prompt_executes_from_its_pool(self, answers, transcript, all_lossy_path, capsys, monkeypatch, spy):
        """The terminal is the allocator's chooser: the pool is priced once, and no ``consume`` looks the choice up."""
        calls = spy("engine.consume", "rights.pool_losses", "rights.loss")
        monkeypatch.setattr("sys.stdin", io.StringIO(answers))
        code = main(
            ["allocate", all_lossy_path, "play", "song-a", "--interactive", "--time", str(REQUEST_AT)]
        )
        assert code == 0
        assert capsys.readouterr().out == transcript
        assert len(calls["consume"]) == len(calls["loss"]) == 0
        assert len(calls["pool_losses"]) == 1

    def test_json_output_parses_back(self, deadline_path, capsys):
        code = main(
            ["allocate", deadline_path, "play", "song-a", "--format", "json", "--time", str(REQUEST_AT)]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["decision"] == "chosen"
        assert payload["license"] == "license-2"
        assert {e["content"]: e["count"] for e in payload["rights_after"]}["song-b"] == 1

    @pytest.mark.parametrize("interactive", [False, True], ids=["default", "interactive"])
    def test_each_host_is_walked_once(self, interactive, tmp_path, capsys, monkeypatch):
        """The decision and its printed pool share one walk of each host."""
        out = tmp_path / "corpora"
        assert main(["cases", "--dump-corpora", str(out)]) == 0
        walked = []
        resolve = rights_module.select_target

        def counting_resolve(state, lic, request):
            walked.append(lic.id)
            return resolve(state, lic, request)

        monkeypatch.setattr(rights_module, "select_target", counting_resolve)
        monkeypatch.setattr("sys.stdin", io.StringIO("1\n"))
        files = sorted(out.glob("*.json"))
        assert len(files) == 5
        for path in files:
            doc = load_corpus(str(path))
            (request,) = doc.requests
            argv = ["allocate", str(path), request.action.value, request.content, "--time", str(request.at)]
            walked.clear()
            assert main(argv + (["--interactive"] if interactive else [])) in (0, 3)
            hosts = [
                lic.id
                for lic in doc.licenses
                if any(request.permission in cp.permissions for sl in lic.sublicenses for cp in sl.cps)
            ]
            assert walked == hosts, path.name
        capsys.readouterr()


class TestSimulate:
    def test_filtered_run_satisfies_both_requests(self, script_path, capsys):
        assert main(["simulate", script_path]) == 0
        out = capsys.readouterr().out
        assert "license-2" in out and "license-1" in out

    def test_baseline_run_fails_second_request(self, script_path, capsys):
        assert main(["simulate", script_path, "--algorithm", "oma"]) == 4
        assert "not satisfiable" in capsys.readouterr().out

    def test_empty_request_script_prints_initial_rights(self, tmp_path, deadline_case, capsys):
        doc = CorpusDocument(deadline_case.licenses)
        path = tmp_path / "no-requests.json"
        path.write_bytes(serialize_corpus(doc))
        assert main(["simulate", str(path)]) == 0
        out = capsys.readouterr().out
        assert "initial rights" in out

    def test_empty_request_script_is_measured_at_the_given_time(self, tmp_path, capsys):
        later = [License("license-1", [SubLicense("sl-1", cps=[CP("cp-1", [DateTime(start=150)], [perm("play", "a")])])])]
        path = write_script(tmp_path, later, [])
        assert main(["simulate", path, "--time", "200"]) == 0
        out = capsys.readouterr().out
        assert "initial rights: play a x1" in out
        assert "final rights: play a x1" in out

    def test_each_step_reports_what_its_use_depletes(self, tmp_path, capsys):
        """Two uses of a two-charge cp, then a sublicense timed count spared by a short use, then charged."""
        licenses = [
            License("l1", [SubLicense("sl", cps=[CP("cp", [Count(2)], [perm("play", "a")])])]),
            License("l2", [SubLicense("sl", [TimedCount(1, timer=30)], [CP("cp", [], [perm("play", "b")])])]),
        ]
        requests = [
            play("a", 0),
            play("a", 1),
            Request(Action.PLAY, "b", at=2, usage_duration=10),
            Request(Action.PLAY, "b", at=3, usage_duration=30),
        ]
        path = write_script(tmp_path, licenses, requests)
        assert main(["simulate", path, "--format", "json"]) == 0
        steps = json.loads(capsys.readouterr().out)["steps"]
        assert [step["depletes"] for step in steps] == ["none", "cp_depletes", "none", "sublicense_depletes"]

    def test_transcript_is_deterministic(self, script_path, capsys):
        main(["simulate", script_path, "--format", "json"])
        first = capsys.readouterr().out
        main(["simulate", script_path, "--format", "json"])
        assert capsys.readouterr().out == first

    def test_prompt_steps_are_flagged(self, tmp_path, capsys):
        doc = CorpusDocument(
            all_lossy_licenses(), [Request(Action.PLAY, "song-a", at=REQUEST_AT)]
        )
        path = tmp_path / "lossy-script.json"
        path.write_bytes(serialize_corpus(doc))
        assert main(["simulate", str(path), "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["steps"][0]["resolved_by_default_chooser"] is True
        assert payload["steps"][0]["decision"]["via_prompt"] is True

    def test_time_override_applies_to_all_requests(self, script_path, capsys):
        assert main(["simulate", script_path, "--time", "1735600123"]) == 0
        assert "@1735600123" in capsys.readouterr().out

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_initial_rights_are_walked_once(self, fmt, tmp_path, capsys, monkeypatch):
        assert main(["cases", "--dump-corpora", str(tmp_path)]) == 0
        path = tmp_path / "deadline-vs-counter.json"
        initial = initial_state(load_corpus(path).licenses).cstate
        walked = []

        def counted(state, at):
            walked.append(state.cstate == initial)
            return rights(state, at)

        for name, module in list(sys.modules.items()):
            if name.startswith("licalloc") and getattr(module, "rights", None) is rights:
                monkeypatch.setattr(module, "rights", counted)
        capsys.readouterr()
        assert main(["simulate", str(path), "--format", fmt]) == 0
        assert "initial" in capsys.readouterr().out
        assert walked.count(True) == 1


    def test_final_rights_reuse_the_last_step(self, tmp_path, capsys, monkeypatch):
        import licalloc.cli as cli_module

        assert main(["cases", "--dump-corpora", str(tmp_path)]) == 0
        walks = []

        def counted(state, at):
            walks.append(at)
            return rights(state, at)

        monkeypatch.setattr(cli_module, "rights", counted)
        capsys.readouterr()
        assert main(["simulate", str(tmp_path / "deadline-vs-counter.json"), "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["final_rights"] == payload["steps"][-1]["rights"]
        assert len(walks) == len(payload["steps"]) + 1

    def test_each_step_walks_its_hosts_once(self, tmp_path, capsys, monkeypatch):
        """A step colors from the pool its decision carries instead of resolving it again."""
        assert main(["cases", "--dump-corpora", str(tmp_path)]) == 0
        walked = []
        resolve = rights_module.select_target

        def counting_resolve(state, lic, request):
            walked.append(lic.id)
            return resolve(state, lic, request)

        monkeypatch.setattr(rights_module, "select_target", counting_resolve)
        assert main(["simulate", str(tmp_path / "deadline-vs-counter.json")]) == 0
        assert walked == ["license-1", "license-2"]
        capsys.readouterr()

    def test_a_stopped_replay_reports_rights_where_it_stopped(self, tmp_path, capsys):
        """The replay stops at t=100, while license-1 still holds; the last request's t=200 is never reached."""
        licenses = [License("license-1", [SubLicense("sl-1", [DateTime(end=150)], [CP("cp-1", permissions=[perm("play", "a")])])])]
        path = write_script(tmp_path, licenses, [play("a", 100), play("z", 100), play("a", 200)])
        assert main(["simulate", path]) == 4
        out = capsys.readouterr().out
        assert "  rights: play a x1" in out
        assert out.endswith("final rights: play a x1\n")

    def test_each_reached_state_is_labelled_once(self, late_license_script, capsys, monkeypatch):
        import licalloc.cli as cli_module

        labelled = []

        def counted(state):
            labelled.append(state)
            return state_labels(state)

        monkeypatch.setattr(cli_module, "state_labels", counted)
        assert main(["simulate", late_license_script, "--format", "json"]) == 0
        steps = json.loads(capsys.readouterr().out)["steps"]
        assert len(labelled) == len(steps) + 1 == 3

    def test_black_lists_only_initial_rights(self, late_license_script, capsys):
        """Step 2 depletes license-1, whose permissions were not valid at the start."""
        assert main(["simulate", late_license_script, "--format", "json"]) == 0
        steps = json.loads(capsys.readouterr().out)["steps"]
        assert steps[1]["decision"]["license"] == "license-1"
        assert steps[1]["depletes"] != "none"
        assert steps[1]["black"] == []


class TestVerify:
    def test_filtered_campaign_exits_0(self, capsys):
        assert main(["verify", "--trials", "50", "--seed", "3"]) == 0

    def test_baseline_campaign_exits_5(self, capsys):
        assert main(["verify", "--trials", "400", "--seed", "3", "--algorithm", "oma"]) == 5

    @pytest.mark.parametrize(
        "flags",
        [
            ["--trials", "0"],
            ["--trials", "-3"],
            ["--max-count", "0"],
            ["--max-licenses", "0"],
            ["--checks", "neutrality", "--max-count", "1"],
            ["--checks", ","],
            ["--checks", ""],
            ["--checks", " , "],
            ["--checks", ",", "--format", "json"],
            ["--checks", "soundness,soundness", "--trials", "3"],
            ["--checks", "liveness,minimal_loss,liveness"],
            ["--seed", "-1"],
            ["--seed", "-5", "--checks", "neutrality,liveness"],
            ["--trials", "1000004"],
            ["--trials", "1000004", "--checks", "neutrality,liveness"],
        ],
        ids=[
            "trials-0",
            "trials-negative",
            "max-count-0",
            "max-licenses-0",
            "neutrality-max-count-1",
            "checks-comma",
            "checks-empty",
            "checks-blank",
            "checks-comma-json",
            "checks-repeated",
            "checks-repeated-campaign",
            "seed-negative",
            "seed-negative-campaigns",
            "trials-past-stride",
            "trials-past-stride-campaigns",
        ],
    )
    def test_bad_campaign_input_exits_1(self, flags, capsys):
        assert main(["verify", *flags]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    def test_json_report_round_trips(self, capsys):
        assert main(["verify", "--trials", "30", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["failed"] is False
        assert payload["reports"][0]["seed"] == 0

    def test_seeded_reports_are_byte_identical(self, capsys):
        main(["verify", "--trials", "40", "--seed", "9", "--format", "json"])
        first = capsys.readouterr().out
        main(["verify", "--trials", "40", "--seed", "9", "--format", "json"])
        assert capsys.readouterr().out == first

    def test_dump_failures_writes_corpus_files(self, tmp_path, capsys):
        out_dir = tmp_path / "failures"
        code = main(
            [
                "verify",
                "--trials",
                "400",
                "--seed",
                "3",
                "--algorithm",
                "oma",
                "--dump-failures",
                str(out_dir),
            ]
        )
        assert code == 5
        dumped = list(out_dir.glob("ce-*.json"))
        assert dumped
        from licalloc.corpus import parse_corpus

        parse_corpus(dumped[0].read_bytes())

    def test_neutrality_and_liveness_checks(self, capsys):
        assert main(["verify", "--checks", "neutrality", "--trials", "100"]) == 0
        assert main(["verify", "--checks", "liveness", "--trials", "20"]) == 0

    def test_pair_discipline_check(self, capsys):
        assert main(["verify", "--checks", "pair_discipline", "--trials", "20"]) == 0
        assert "pair_discipline: 60 passed (20 vacuous), 0 failed" in capsys.readouterr().out

    def test_unknown_check_exits_1(self, capsys):
        assert main(["verify", "--checks", "vibes"]) == 1

    def test_given_caps_override_every_campaign_default(self, capsys):
        argv = ["verify", "--checks", "soundness,liveness", "--trials", "2", "--format", "json"]
        assert main(argv) == 0
        reports = json.loads(capsys.readouterr().out)["reports"]
        assert [r["caps"] for r in reports] == [GeneratorCaps().to_json(), LIVENESS_CAPS.to_json()]
        assert main([*argv, "--max-licenses", "1"]) == 0
        reports = json.loads(capsys.readouterr().out)["reports"]
        assert [r["caps"] for r in reports] == [
            {**GeneratorCaps().to_json(), "max_licenses": 1},
            {**LIVENESS_CAPS.to_json(), "max_licenses": 1},
        ]


class TestCases:
    def test_fresh_build_matches_all_cells(self, capsys):
        assert main(["cases"]) == 0
        assert "all cells match" in capsys.readouterr().out

    def test_json_output_stable(self, capsys):
        assert main(["cases", "--format", "json"]) == 0
        first = capsys.readouterr().out
        payload = json.loads(first)
        assert payload["all_match"] is True
        assert main(["cases", "--format", "json"]) == 0
        assert capsys.readouterr().out == first

    def test_tampered_fixture_exits_5(self, capsys, monkeypatch):
        import licalloc.cli as cli_module

        studies = list(case_studies())
        broken = studies[0]
        swapped = type(broken)(
            id=broken.id,
            title=broken.title,
            licenses=broken.licenses,
            request=broken.request,
            expected={"proposed": "license-1", "oma": "license-2"},
        )
        monkeypatch.setattr(
            cli_module.case_fixtures, "case_studies", lambda: tuple([swapped] + studies[1:])
        )
        assert main(["cases"]) == 5
        err = capsys.readouterr().err
        assert "deadline-vs-counter" in err

    def test_dump_corpora_round_trip(self, tmp_path, capsys):
        out = tmp_path / "corpora"
        assert main(["cases", "--dump-corpora", str(out)]) == 0
        files = sorted(f.name for f in out.glob("*.json"))
        assert "deadline-vs-counter.json" in files
        assert "all-lossy.json" in files
        from licalloc.corpus import parse_corpus

        for f in out.glob("*.json"):
            parse_corpus(f.read_bytes())


@pytest.mark.parametrize(
    "argv",
    [["verify", "--trials", "1", "--dump-failures"], ["cases", "--dump-corpora"]],
    ids=["dump-failures", "dump-corpora"],
)
def test_dump_directory_under_a_file_exits_1(argv, tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert main([*argv, str(blocker / "out")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_parse_time_accepts_iso_and_int():
    assert parse_time("123") == 123
    assert parse_time("1970-01-01T00:02:03Z") == 123
    assert parse_time("1970-01-01T00:02:03+00:00") == 123
    with pytest.raises(Exception):
        parse_time("not-a-time")


@pytest.mark.parametrize(
    "argv",
    [
        ["allocate", "{corpus}", "play", "song-a", "--time", "-5"],
        ["allocate", "{corpus}", "play", "song-a", "--duration", "-1"],
        ["allocate", "{corpus}", "play", "song-a", "--duration", "soon"],
        ["simulate", "{corpus}", "--time", "1969-01-01"],
    ],
    ids=["negative-time", "negative-duration", "non-integer-duration", "time-before-1970"],
)
def test_a_negative_time_or_duration_is_a_usage_error(argv, deadline_path, capsys):
    assert main([arg.format(corpus=deadline_path) for arg in argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err
    assert captured.err.count("error:") == 1


ACCEPTED_OPTIONS = {
    "label": {"--strict-labels"},
    "allocate": {"--algorithm", "--datetime-tiebreak", "--strict-labels", "--format", "--interactive", "--time"},
    "simulate": {"--algorithm", "--datetime-tiebreak", "--strict-labels", "--format", "--time"},
    "verify": {"--algorithm", "--seed", "--format"},
    "cases": {"--format"},
}
SHARED_OPTIONS = {
    "--algorithm": ["oma"],
    "--datetime-tiebreak": ["furthest"],
    "--strict-labels": [],
    "--seed": ["4"],
    "--format": ["json"],
    "--interactive": [],
    "--time": ["7"],
}


def _argv(command, option, corpus):
    positional = {"label": [corpus], "simulate": [corpus], "allocate": [corpus, "play", "song-a"]}
    return [command, *positional.get(command, []), option, *SHARED_OPTIONS[option]]


def test_each_command_takes_its_own_options():
    parser = build_parser()
    for command, accepted in ACCEPTED_OPTIONS.items():
        for option in accepted:
            parser.parse_args(_argv(command, option, "corpus.json"))
    assert sum(len(accepted) for accepted in ACCEPTED_OPTIONS.values()) == 16


@pytest.mark.parametrize(
    "command, option",
    [
        (command, option)
        for command, accepted in ACCEPTED_OPTIONS.items()
        for option in SHARED_OPTIONS
        if option not in accepted
    ],
)
def test_an_option_the_command_ignores_is_a_usage_error(command, option, deadline_path, capsys):
    assert main(_argv(command, option, deadline_path)) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments" in captured.err


@pytest.mark.parametrize(
    "argv",
    [["allocate", "x", "play"], ["cases", "--algorithm", "oma", "--seed", "4", "--time", "7"], ["frobnicate"], []],
    ids=["missing-content", "ignored-options", "unknown-command", "no-command"],
)
def test_usage_error_exits_1_not_the_label_mismatch_code(argv, capsys):
    assert main(argv) == 1
    assert "usage:" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["--help"], ["verify", "--help"]])
def test_help_exits_0(argv, capsys):
    assert main(argv) == 0
    assert "usage:" in capsys.readouterr().out
