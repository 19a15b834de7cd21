import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from licalloc.cases import REQUEST_AT, case_studies, mixed_branch_license
from licalloc.corpus import (
    CorpusDocument,
    CorpusError,
    CorpusSchemaError,
    CorpusSyntaxError,
    LabelMismatchError,
    document_to_json,
    parse_corpus,
    serialize_corpus,
)
from licalloc.engine import AgentState, initial_state
from licalloc.labels import state_labels
from licalloc.model import Action, Count, LicenseSet, Request

from conftest import wide_licenses



@pytest.fixture
def deadline_doc(deadline_case):
    return CorpusDocument(deadline_case.licenses, [deadline_case.request])


def test_round_trip_identity(deadline_doc):
    data = serialize_corpus(deadline_doc)
    parsed = parse_corpus(data)
    assert parsed == deadline_doc
    assert serialize_corpus(parsed) == data


@pytest.mark.parametrize("case", case_studies(), ids=lambda c: c.id)
def test_round_trip_all_bundled_fixtures(case):
    doc = CorpusDocument(case.licenses, [case.request])
    assert parse_corpus(serialize_corpus(doc)) == doc


def test_equal_documents_serialize_identically(deadline_case):
    a = CorpusDocument(deadline_case.licenses, [deadline_case.request])
    b = CorpusDocument(case_studies()[0].licenses, [case_studies()[0].request])
    assert a == b
    assert serialize_corpus(a) == serialize_corpus(b)


def test_parsed_deadline_corpus_structure_and_labels(deadline_doc):
    parsed = parse_corpus(serialize_corpus(deadline_doc))
    assert len(parsed.licenses) == 2
    assert sum(len(l.sublicenses) for l in parsed.licenses) == 2
    payload = json.loads(serialize_corpus(parsed))
    sl_labels = {
        lic["id"]: lic["sublicenses"][0]["label"] for lic in payload["licenses"]
    }
    assert sl_labels["license-1"] == {
        "complexity": "complex",
        "times": "once",
        "constraint": "datetime",
    }
    assert sl_labels["license-2"] == {
        "complexity": "complex",
        "times": "many",
        "constraint": "count",
    }


def test_serialized_labels_match_label_module(deadline_doc):
    payload = json.loads(serialize_corpus(deadline_doc))
    labels = state_labels(initial_state(deadline_doc.licenses))
    for lic in payload["licenses"]:
        for sl in lic["sublicenses"]:
            computed = labels[(lic["id"], sl["id"], None)]
            assert sl["label"] == {
                "complexity": computed.complexity.value,
                "times": computed.times.value,
                "constraint": computed.constraint.value,
            }
            for cp in sl["cps"]:
                got = labels[(lic["id"], sl["id"], cp["id"])]
                assert cp["label"]["times"] == got.times.value


def test_parse_shares_one_permission_per_document():
    """Equal permissions, ids, constraints and constraint tuples are each one object
    within a parsed document, and never one object across two documents."""
    data = serialize_corpus(CorpusDocument(wide_licenses(0)))
    first, second = parse_corpus(data), parse_corpus(data)
    assert first.licenses == second.licenses == parse_corpus(serialize_corpus(first)).licenses

    def values(doc):
        sublicenses = [sl for lic in doc.licenses for sl in lic.sublicenses]
        cps = [cp for sl in sublicenses for cp in sl.cps]
        nodes = [*doc.licenses, *sublicenses, *cps]
        tuples = [node.constraints for node in sublicenses + cps if node.constraints]
        return {
            "permission": [p for cp in cps for p in cp.permissions],
            "id": [node.id for node in nodes],
            "constraint": [c for constraints in tuples for c in constraints],
            "constraint tuple": tuples,
        }

    theirs = values(second)
    for kind, occurrences in values(first).items():
        ids = {id(v) for v in occurrences}
        assert len(ids) == len(set(occurrences)) < len(occurrences), kind
        assert not ids & {id(v) for v in theirs[kind]}, kind


def test_strict_parse_labels_the_nodes_it_walks(monkeypatch):
    """Checking stored labels and writing them look no node up by id."""
    data = serialize_corpus(CorpusDocument(wide_licenses(0, n=64)))

    def tree_lookup(*args):
        raise AssertionError(f"tree lookup by id {args[1:]}")

    for name in ("license", "sublicense", "cp"):
        monkeypatch.setattr(AgentState, name, tree_lookup)
    doc = parse_corpus(data, strict_labels=True)
    assert len(doc.licenses) == 64
    assert serialize_corpus(doc) == data


def test_syntax_error_reports_position():
    with pytest.raises(CorpusSyntaxError) as err:
        parse_corpus(b'{"schema_version": "1", "licenses": [')
    assert "line 1" in str(err.value)


def test_empty_licenses_rejected():
    with pytest.raises(CorpusSchemaError) as err:
        parse_corpus(json.dumps({"schema_version": "1", "licenses": []}))
    assert "$.licenses" in str(err.value)


def _minimal(constraints):
    return {
        "schema_version": "1",
        "licenses": [
            {
                "id": "l",
                "sublicenses": [
                    {
                        "id": "sl",
                        "constraints": constraints,
                        "cps": [
                            {
                                "id": "cp",
                                "constraints": [],
                                "permissions": [{"action": "play", "content": "a"}],
                            }
                        ],
                    }
                ],
            }
        ],
    }


def test_zero_count_rejected_with_location():
    with pytest.raises(CorpusSchemaError) as err:
        parse_corpus(json.dumps(_minimal([{"count": 0}])))
    assert "sublicenses[0].constraints[0]" in str(err.value)


def test_unknown_constraint_tag_rejected():
    with pytest.raises(CorpusSchemaError):
        parse_corpus(json.dumps(_minimal([{"weekly": 3}])))


def test_unknown_action_rejected():
    doc = _minimal([])
    doc["licenses"][0]["sublicenses"][0]["cps"][0]["permissions"][0]["action"] = "teleport"
    with pytest.raises(CorpusSchemaError) as err:
        parse_corpus(json.dumps(doc))
    assert "teleport" in str(err.value)


def test_duplicate_license_ids_rejected():
    doc = _minimal([])
    doc["licenses"].append(json.loads(json.dumps(doc["licenses"][0])))
    with pytest.raises(CorpusSchemaError):
        parse_corpus(json.dumps(doc))


def test_unsupported_schema_version():
    doc = _minimal([])
    doc["schema_version"] = "99"
    with pytest.raises(CorpusSchemaError):
        parse_corpus(json.dumps(doc))


def test_bad_label_is_error_in_strict_mode_only(deadline_doc):
    payload = json.loads(serialize_corpus(deadline_doc))
    payload["licenses"][0]["sublicenses"][0]["label"]["times"] = "many"
    tampered = json.dumps(payload)
    with pytest.raises(LabelMismatchError):
        parse_corpus(tampered)
    relaxed = parse_corpus(tampered, strict_labels=False)
    assert relaxed.licenses == deadline_doc.licenses


def test_requests_round_trip():
    doc = CorpusDocument(
        LicenseSet([mixed_branch_license()]),
        [
            Request(Action.PLAY, "song-a", at=REQUEST_AT, usage_duration=45),
            Request(Action.PRINT, "document-c", at=REQUEST_AT),
        ],
    )
    parsed = parse_corpus(serialize_corpus(doc))
    assert parsed.requests == doc.requests


def test_negative_request_time_rejected():
    doc = _minimal([])
    doc["requests"] = [{"action": "play", "content": "a", "at": -3}]
    with pytest.raises(CorpusSchemaError):
        parse_corpus(json.dumps(doc))


def test_labels_are_optional_in_input():
    parsed = parse_corpus(json.dumps(_minimal([{"count": 2}])))
    assert parsed.licenses.license("l").sublicense("sl").constraints == (Count(2),)


constraint_json = st.one_of(
    st.builds(lambda n: {"count": n}, st.integers(1, 5)),
    st.builds(lambda n, t: {"timed_count": {"n": n, "timer": t}}, st.integers(1, 5), st.integers(1, 99)),
    st.builds(lambda e: {"datetime": {"end": e}}, st.integers(0, 10_000)),
    st.builds(lambda s, d: {"datetime": {"start": s, "end": s + d}}, st.integers(0, 500), st.integers(0, 500)),
    st.builds(lambda d: {"interval": d}, st.integers(1, 10_000)),
    st.just({"true": None}),
)

permission_json = st.builds(
    lambda a, c: {"action": a, "content": c},
    st.sampled_from([a.value for a in Action]),
    st.sampled_from(["a", "b", "c"]),
)


@st.composite
def corpus_json(draw):
    licenses = []
    for i in range(draw(st.integers(1, 3))):
        subs = []
        for j in range(draw(st.integers(1, 2))):
            cps = []
            for k in range(draw(st.integers(1, 2))):
                cps.append(
                    {
                        "id": f"cp-{k}",
                        "constraints": draw(st.lists(constraint_json, max_size=2)),
                        "permissions": draw(st.lists(permission_json, min_size=1, max_size=3)),
                    }
                )
            subs.append(
                {
                    "id": f"sl-{j}",
                    "constraints": draw(st.lists(constraint_json, max_size=2)),
                    "cps": cps,
                }
            )
        licenses.append({"id": f"license-{i}", "sublicenses": subs})
    return {"schema_version": "1", "licenses": licenses}


@given(corpus_json())
def test_parse_serialize_round_trip_property(raw):
    doc = parse_corpus(json.dumps(raw))
    data = serialize_corpus(doc)
    again = parse_corpus(data)
    assert again == doc
    assert serialize_corpus(again) == data
    # serialized labels always verify in strict mode
    assert parse_corpus(data, strict_labels=True) == doc


def test_document_to_json_key_order(deadline_doc):
    payload = document_to_json(deadline_doc)
    assert list(payload) == ["schema_version", "licenses", "requests"]
    lic = payload["licenses"][0]
    assert list(lic) == ["id", "sublicenses"]
    sl = lic["sublicenses"][0]
    assert list(sl) == ["id", "constraints", "cps", "label"]
    cp = sl["cps"][0]
    assert list(cp) == ["id", "constraints", "permissions", "label"]


def _bundled_documents():
    from licalloc.cases import all_lossy_licenses
    from licalloc.model import CP, DateTime, Interval, License, Permission, SubLicense, TimedCount, Unconstrained
    from licalloc.verify import GeneratorCaps, InstanceGenerator, PROFILES

    docs = [CorpusDocument(case.licenses, [case.request]) for case in case_studies()]
    docs += [CorpusDocument(all_lossy_licenses()), CorpusDocument(LicenseSet([mixed_branch_license()]))]
    docs.append(CorpusDocument(LicenseSet([])))
    # strings that need escapes and characters beyond ASCII
    odd = Permission(Action.PLAY, 'sóng "é"\n\\ ☃ \x01')
    docs.append(
        CorpusDocument(
            LicenseSet([License("lic-é", [SubLicense("sl", [TimedCount(2, timer=30)], [CP("cp", [Unconstrained(), Interval(60), DateTime(start=5)], [odd])])])]),
            [Request(Action.PLAY, odd.content, at=0, usage_duration=7)],
        )
    )
    for i in range(50):
        profile = PROFILES[i % len(PROFILES)]
        docs.append(InstanceGenerator(GeneratorCaps(), seed=i, profile=profile).document(i))
    return docs


def test_serialize_writes_what_json_dumps_writes():
    """The canonical bytes are the standard library's indent-2 output, byte for byte."""
    for doc in _bundled_documents():
        expected = json.dumps(document_to_json(doc), indent=2, ensure_ascii=False) + "\n"
        assert serialize_corpus(doc) == expected.encode("utf-8")


# --- every raise site of the parser, with its exact message ------------------


def _valid_document() -> dict:
    """Two licenses, two cps, constraints at both levels and two requests; it parses."""
    return {
        "schema_version": "1",
        "licenses": [
            {
                "id": "l",
                "sublicenses": [
                    {
                        "id": "sl",
                        "constraints": [{"count": 2}, {"interval": 60}],
                        "cps": [
                            {
                                "id": "cp",
                                "constraints": [{"datetime": {"start": 0, "end": 9}}],
                                "permissions": [
                                    {"action": "play", "content": "a"},
                                    {"action": "print", "content": "b"},
                                ],
                            },
                            {"id": "cp2", "permissions": [{"action": "play", "content": "b"}]},
                        ],
                    }
                ],
            },
            {"id": "m", "sublicenses": [{"id": "sl", "cps": [{"id": "cp", "permissions": [{"action": "display", "content": "a"}]}]}]},
        ],
        "requests": [
            {"action": "play", "content": "a", "at": 0},
            {"action": "print", "content": "b", "at": 5, "usage_duration": 3},
        ],
    }


_DELETE = object()


def _with(path: tuple, value=_DELETE) -> str:
    """The valid document with the value at ``path`` replaced, or deleted."""
    doc = _valid_document()
    node = doc
    for step in path[:-1]:
        node = node[step]
    if value is _DELETE:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    return json.dumps(doc)


_L1 = ("licenses", 1)
_SL = ("licenses", 0, "sublicenses", 0)
_CP = _SL + ("cps", 0)
_CP2 = _SL + ("cps", 1)
_PERM = _CP + ("permissions", 1)
_SLC = _SL + ("constraints", 1)
_CPC = _CP + ("constraints", 0)
_REQ = ("requests", 1)
_LABEL = {"complexity": "simple", "times": "many", "constraint": "true"}

PARSE_ERRORS = [
    # top
    ("top-utf8", b'{"schema_version": "\xff"}', CorpusSyntaxError, "byte stream: not valid UTF-8: 'utf-8' codec can't decode byte 0xff in position 20: invalid start byte"),
    ("top-json", b'{"schema_version": "1", "licenses": [', CorpusSyntaxError, "line 1 column 38: Expecting value"),
    ("top-depth", "[" * 100_000, CorpusSyntaxError, "document: nested too deeply"),
    ("top-digits", "1" * 5000, CorpusSyntaxError, "document: Exceeds the limit (4300 digits) for integer string conversion: value has 5000 digits; use sys.set_int_max_str_digits() to increase the limit"),
    ("top-not-object", "[]", CorpusSchemaError, "$: expected an object"),
    ("top-unknown-key", _with(("extra",), 1), CorpusSchemaError, "$: unknown keys ['extra']"),
    ("top-missing-key", _with(("licenses",)), CorpusSchemaError, "$: missing keys ['licenses']"),
    ("top-version", _with(("schema_version",), 1), CorpusSchemaError, "$.schema_version: unsupported schema_version 1"),
    ("top-licenses-empty", _with(("licenses",), []), CorpusSchemaError, "$.licenses: licenses must be a non-empty array"),
    ("top-licenses-not-array", _with(("licenses",), {}), CorpusSchemaError, "$.licenses: licenses must be a non-empty array"),
    ("top-duplicate-license", _with(_L1 + ("id",), "l"), CorpusSchemaError, "$.licenses: duplicate license id 'l'"),
    ("top-requests-not-array", _with(("requests",), {}), CorpusSchemaError, "$.requests: requests must be an array"),
    ("top-sublicense-label-mismatch", _with(_SL + ("label",), {"complexity": "simple", "times": "many", "constraint": "count"}), LabelMismatchError, "l/sl: stored label simple.many.count does not match computed complex.many.interval"),
    ("top-cp-label-mismatch", _with(_CP2 + ("label",), dict(_LABEL, complexity="complex")), LabelMismatchError, "l/sl/cp2: stored label complex.many.true does not match computed simple.many.true"),
    # license
    ("license-not-object", _with(_L1, 3), CorpusSchemaError, "$.licenses[1]: expected an object"),
    ("license-unknown-key", _with(_L1 + ("label",), _LABEL), CorpusSchemaError, "$.licenses[1]: unknown keys ['label']"),
    ("license-missing-key", _with(_L1 + ("sublicenses",)), CorpusSchemaError, "$.licenses[1]: missing keys ['sublicenses']"),
    ("license-id-empty", _with(_L1 + ("id",), ""), CorpusSchemaError, "$.licenses[1]: id must be a non-empty string"),
    ("license-sublicenses-empty", _with(_L1 + ("sublicenses",), []), CorpusSchemaError, "$.licenses[1]: sublicenses must be a non-empty array"),
    ("license-duplicate-sublicense", _with(_L1 + ("sublicenses",), [{"id": "sl", "cps": [{"id": "cp", "permissions": [{"action": "play", "content": "a"}]}]}] * 2), CorpusSchemaError, "$.licenses[1]: duplicate sublicense id 'sl' in license 'm'"),
    # sublicense
    ("sublicense-not-object", _with(_SL, "sl"), CorpusSchemaError, "$.licenses[0].sublicenses[0]: expected an object"),
    ("sublicense-unknown-key", _with(_SL + ("permissions",), []), CorpusSchemaError, "$.licenses[0].sublicenses[0]: unknown keys ['permissions']"),
    ("sublicense-missing-key", _with(_SL + ("cps",)), CorpusSchemaError, "$.licenses[0].sublicenses[0]: missing keys ['cps']"),
    ("sublicense-id-not-string", _with(_SL + ("id",), 5), CorpusSchemaError, "$.licenses[0].sublicenses[0]: id must be a non-empty string"),
    ("sublicense-constraints-not-array", _with(_SL + ("constraints",), {"count": 2}), CorpusSchemaError, "$.licenses[0].sublicenses[0].constraints: constraints must be an array"),
    ("sublicense-cps-empty", _with(_SL + ("cps",), []), CorpusSchemaError, "$.licenses[0].sublicenses[0]: cps must be a non-empty array"),
    ("sublicense-duplicate-cp", _with(_CP2 + ("id",), "cp"), CorpusSchemaError, "$.licenses[0].sublicenses[0]: duplicate cp id 'cp' in sublicense 'sl'"),
    ("sublicense-label-not-object", _with(_SL + ("label",), "simple"), CorpusSchemaError, "$.licenses[0].sublicenses[0].label: expected an object"),
    ("sublicense-label-missing-key", _with(_SL + ("label",), {"complexity": "simple", "constraint": "true"}), CorpusSchemaError, "$.licenses[0].sublicenses[0].label: missing keys ['times']"),
    ("sublicense-label-complexity", _with(_SL + ("label",), dict(_LABEL, complexity="odd")), CorpusSchemaError, "$.licenses[0].sublicenses[0].label: bad label: 'odd' is not a valid Complexity"),
    ("sublicense-label-times", _with(_SL + ("label",), dict(_LABEL, times=["many"])), CorpusSchemaError, "$.licenses[0].sublicenses[0].label: bad label: ['many'] is not a valid Times"),
    ("sublicense-label-constraint", _with(_SL + ("label",), dict(_LABEL, constraint=None)), CorpusSchemaError, "$.licenses[0].sublicenses[0].label: bad label: None is not a valid ConstraintName"),
    # cp
    ("cp-not-object", _with(_CP2, []), CorpusSchemaError, "$.licenses[0].sublicenses[0].cps[1]: expected an object"),
    ("cp-unknown-key", _with(_CP2 + ("cps",), []), CorpusSchemaError, "$.licenses[0].sublicenses[0].cps[1]: unknown keys ['cps']"),
    ("cp-missing-key", _with(_CP2 + ("id",)), CorpusSchemaError, "$.licenses[0].sublicenses[0].cps[1]: missing keys ['id']"),
    ("cp-id-empty", _with(_CP2 + ("id",), ""), CorpusSchemaError, "$.licenses[0].sublicenses[0].cps[1]: id must be a non-empty string"),
    ("cp-constraints-not-array", _with(_CP + ("constraints",), None), CorpusSchemaError, "$.licenses[0].sublicenses[0].cps[0].constraints: constraints must be an array"),
    ("cp-permissions-empty", _with(_CP2 + ("permissions",), []), CorpusSchemaError, "$.licenses[0].sublicenses[0].cps[1]: permissions must be a non-empty array"),
    ("cp-permissions-not-array", _with(_CP2 + ("permissions",), {"action": "play", "content": "a"}), CorpusSchemaError, "$.licenses[0].sublicenses[0].cps[1]: permissions must be a non-empty array"),
    ("cp-label-unknown-key", _with(_CP2 + ("label",), dict(_LABEL, key=1)), CorpusSchemaError, "$.licenses[0].sublicenses[0].cps[1].label: unknown keys ['key']"),
    ("cp-label-complexity", _with(_CP2 + ("label",), dict(_LABEL, complexity=1)), CorpusSchemaError, "$.licenses[0].sublicenses[0].cps[1].label: bad label: 1 is not a valid Complexity"),
    # permission
    ("permission-not-object", _with(_PERM, "play"), CorpusSchemaError, "$.licenses[0].sublicenses[0].cps[0].permissions[1]: expected an object"),
    ("permission-unknown-key", _with(_PERM + ("at",), 0), CorpusSchemaError, "$.licenses[0].sublicenses[0].cps[0].permissions[1]: unknown keys ['at']"),
    ("permission-missing-key", _with(_PERM + ("content",)), CorpusSchemaError, "$.licenses[0].sublicenses[0].cps[0].permissions[1]: missing keys ['content']"),
    ("permission-content-empty", _with(_PERM + ("content",), ""), CorpusSchemaError, "$.licenses[0].sublicenses[0].cps[0].permissions[1]: content must be a non-empty string"),
    ("permission-content-not-string", _with(_PERM + ("content",), ["b"]), CorpusSchemaError, "$.licenses[0].sublicenses[0].cps[0].permissions[1]: content must be a non-empty string"),
    ("permission-action-unknown", _with(_PERM + ("action",), "teleport"), CorpusSchemaError, "$.licenses[0].sublicenses[0].cps[0].permissions[1]: unknown action 'teleport' (expected one of ['play', 'display', 'print', 'execute', 'export'])"),
    ("permission-action-unhashable", _with(_PERM + ("action",), ["play"]), CorpusSchemaError, "$.licenses[0].sublicenses[0].cps[0].permissions[1]: unknown action ['play'] (expected one of ['play', 'display', 'print', 'execute', 'export'])"),
    # constraint
    ("constraint-not-object", _with(_SLC, "count"), CorpusSchemaError, "$.licenses[0].sublicenses[0].constraints[1]: constraint must be a one-key object"),
    ("constraint-two-keys", _with(_SLC, {"count": 1, "interval": 2}), CorpusSchemaError, "$.licenses[0].sublicenses[0].constraints[1]: constraint must be a one-key object"),
    ("constraint-unknown-tag", _with(_SLC, {"weekly": 3}), CorpusSchemaError, "$.licenses[0].sublicenses[0].constraints[1]: unknown constraint tag 'weekly'"),
    ("constraint-count-not-integer", _with(_SLC, {"count": True}), CorpusSchemaError, "$.licenses[0].sublicenses[0].constraints[1]: count must be an integer"),
    ("constraint-count-zero", _with(_SLC, {"count": 0}), CorpusSchemaError, "$.licenses[0].sublicenses[0].constraints[1]: count must be >= 1"),
    ("constraint-timed-count-not-object", _with(_SLC, {"timed_count": 5}), CorpusSchemaError, "$.licenses[0].sublicenses[0].constraints[1]: expected an object"),
    ("constraint-timed-count-missing-key", _with(_SLC, {"timed_count": {"n": 1}}), CorpusSchemaError, "$.licenses[0].sublicenses[0].constraints[1]: missing keys ['timer']"),
    ("constraint-timed-count-unknown-key", _with(_SLC, {"timed_count": {"n": 1, "timer": 2, "t": 3}}), CorpusSchemaError, "$.licenses[0].sublicenses[0].constraints[1]: unknown keys ['t']"),
    ("constraint-timed-count-n", _with(_SLC, {"timed_count": {"n": 1.5, "timer": 2}}), CorpusSchemaError, "$.licenses[0].sublicenses[0].constraints[1]: n must be an integer"),
    ("constraint-timed-count-timer", _with(_SLC, {"timed_count": {"n": 1, "timer": "2"}}), CorpusSchemaError, "$.licenses[0].sublicenses[0].constraints[1]: timer must be an integer"),
    ("constraint-timed-count-n-zero", _with(_SLC, {"timed_count": {"n": 0, "timer": 2}}), CorpusSchemaError, "$.licenses[0].sublicenses[0].constraints[1]: timed count must be >= 1"),
    ("constraint-timed-count-timer-zero", _with(_SLC, {"timed_count": {"n": 1, "timer": 0}}), CorpusSchemaError, "$.licenses[0].sublicenses[0].constraints[1]: timer must be >= 1"),
    ("constraint-datetime-not-object", _with(_CPC, {"datetime": []}), CorpusSchemaError, "$.licenses[0].sublicenses[0].cps[0].constraints[0]: expected an object"),
    ("constraint-datetime-unknown-key", _with(_CPC, {"datetime": {"begin": 1}}), CorpusSchemaError, "$.licenses[0].sublicenses[0].cps[0].constraints[0]: unknown keys ['begin']"),
    ("constraint-datetime-empty", _with(_CPC, {"datetime": {}}), CorpusSchemaError, "$.licenses[0].sublicenses[0].cps[0].constraints[0]: datetime constraint needs a start or an end"),
    ("constraint-datetime-start", _with(_CPC, {"datetime": {"start": "0"}}), CorpusSchemaError, "$.licenses[0].sublicenses[0].cps[0].constraints[0]: start must be an integer"),
    ("constraint-datetime-start-negative", _with(_CPC, {"datetime": {"start": -1}}), CorpusSchemaError, "$.licenses[0].sublicenses[0].cps[0].constraints[0]: start must be >= 0"),
    ("constraint-datetime-end", _with(_CPC, {"datetime": {"end": None}}), CorpusSchemaError, "$.licenses[0].sublicenses[0].cps[0].constraints[0]: end must be an integer"),
    ("constraint-datetime-end-negative", _with(_CPC, {"datetime": {"end": -1}}), CorpusSchemaError, "$.licenses[0].sublicenses[0].cps[0].constraints[0]: end must be >= 0"),
    ("constraint-datetime-reversed", _with(_CPC, {"datetime": {"start": 5, "end": 3}}), CorpusSchemaError, "$.licenses[0].sublicenses[0].cps[0].constraints[0]: datetime start must not be after end"),
    ("constraint-interval-not-integer", _with(_CPC, {"interval": "60"}), CorpusSchemaError, "$.licenses[0].sublicenses[0].cps[0].constraints[0]: interval must be an integer"),
    ("constraint-interval-zero", _with(_CPC, {"interval": 0}), CorpusSchemaError, "$.licenses[0].sublicenses[0].cps[0].constraints[0]: interval duration must be >= 1"),
    ("constraint-true-not-null", _with(_CPC, {"true": 1}), CorpusSchemaError, "$.licenses[0].sublicenses[0].cps[0].constraints[0]: the true constraint takes null"),
    # a value equal to one parsed before it, but not a JSON integer
    ("constraint-count-float-after-equal-int", _with(_SLC, {"count": 2.0}), CorpusSchemaError, "$.licenses[0].sublicenses[0].constraints[1]: count must be an integer"),
    ("constraint-interval-float-after-equal-int", _with(_CPC, {"interval": 60.0}), CorpusSchemaError, "$.licenses[0].sublicenses[0].cps[0].constraints[0]: interval must be an integer"),
    ("constraint-datetime-false-after-zero", _with(_CP2 + ("constraints",), [{"datetime": {"start": False, "end": 9}}]), CorpusSchemaError, "$.licenses[0].sublicenses[0].cps[1].constraints[0]: start must be an integer"),
    # request
    ("request-not-object", _with(_REQ, 1), CorpusSchemaError, "$.requests[1]: expected an object"),
    ("request-unknown-key", _with(_REQ + ("id",), "r"), CorpusSchemaError, "$.requests[1]: unknown keys ['id']"),
    ("request-missing-key", _with(_REQ + ("at",)), CorpusSchemaError, "$.requests[1]: missing keys ['at']"),
    ("request-content-empty", _with(_REQ + ("content",), ""), CorpusSchemaError, "$.requests[1]: content must be a non-empty string"),
    ("request-at-not-integer", _with(_REQ + ("at",), "5"), CorpusSchemaError, "$.requests[1]: at must be an integer"),
    ("request-at-negative", _with(_REQ + ("at",), -1), CorpusSchemaError, "$.requests[1]: at must be >= 0"),
    ("request-duration-not-integer", _with(_REQ + ("usage_duration",), 1.5), CorpusSchemaError, "$.requests[1]: usage_duration must be an integer"),
    ("request-duration-negative", _with(_REQ + ("usage_duration",), -3), CorpusSchemaError, "$.requests[1]: usage_duration must be >= 0"),
    ("request-action-unknown", _with(_REQ + ("action",), "fly"), CorpusSchemaError, "$.requests[1]: unknown action 'fly' (expected one of ['play', 'display', 'print', 'execute', 'export'])"),
]


def test_the_valid_document_parses():
    """Each row below breaks this document in one place; unbroken, it parses."""
    doc = parse_corpus(json.dumps(_valid_document()))
    assert [lic.id for lic in doc.licenses] == ["l", "m"]
    assert len(doc.requests) == 2


@pytest.mark.parametrize(
    "data, error, message", [row[1:] for row in PARSE_ERRORS], ids=[row[0] for row in PARSE_ERRORS]
)
def test_parse_error_class_and_message(data, error, message):
    with pytest.raises(CorpusError) as err:
        parse_corpus(data)
    assert type(err.value) is error
    assert str(err.value) == message


# Values that each take the place of one JSON value of a valid document.
REPLACEMENTS = (None, True, 0, -1, 1.5, "", [], {}, [1], {"a": 1}, 2**70, float("nan"))


def _paths(value, path=()):
    """The path of ``value`` and of every JSON value inside it, containers first."""
    yield path
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _paths(item, path + (key,))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _paths(item, path + (i,))


def _replaced(doc, path: tuple, value):
    if not path:
        return value
    copy = json.loads(json.dumps(doc))
    node = copy
    for step in path[:-1]:
        node = node[step]
    node[path[-1]] = value
    return copy


def test_one_bad_value_anywhere_is_a_corpus_error():
    """Replacing any one value of a bundled document parses or raises a CorpusError, nothing else."""
    documents = [json.loads(serialize_corpus(CorpusDocument(c.licenses, [c.request]))) for c in case_studies()]
    documents.append(_valid_document())
    tried = 0
    for doc in documents:
        for path in _paths(doc):
            for value in REPLACEMENTS:
                data = json.dumps(_replaced(doc, path, value))
                try:
                    parse_corpus(data)
                except CorpusError:
                    pass
                except Exception as exc:  # pragma: no cover - the failure message names the input
                    raise AssertionError(f"{type(exc).__name__} escaped for {path} := {value!r}") from exc
                tried += 1
    assert tried > 2000
