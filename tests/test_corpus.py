import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from licalloc.cases import REQUEST_AT, case_studies, mixed_branch_license
from licalloc.corpus import (
    CorpusDocument,
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
    """Equal permissions are one object within a parsed document, never across two."""
    data = serialize_corpus(CorpusDocument(wide_licenses(0)))
    first, second = parse_corpus(data), parse_corpus(data)
    assert first.licenses == second.licenses == parse_corpus(serialize_corpus(first)).licenses

    def permissions(doc):
        return [p for lic in doc.licenses for sl in lic.sublicenses for cp in sl.cps for p in cp.permissions]

    occurrences = permissions(first)
    assert len({id(p) for p in occurrences}) == len(set(occurrences)) < len(occurrences)
    assert not {id(p) for p in occurrences} & {id(p) for p in permissions(second)}


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
