"""Corpus files: parsing, validation and canonical serialization.

A corpus is a UTF-8 JSON document:

    {
      "schema_version": "1",
      "licenses": [
        {"id": ..., "sublicenses": [
          {"id": ..., "constraints": [...], "cps": [
            {"id": ..., "constraints": [...], "permissions": [
              {"action": "play", "content": "song-a"}], "label": {...}}],
           "label": {...}}]}],
      "requests": [{"action": ..., "content": ..., "at": 0, "usage_duration": 0}]
    }

Constraints are tagged one-key objects: {"count": 10},
{"timed_count": {"n": 3, "timer": 30}}, {"datetime": {"start"?, "end"?}},
{"interval": 2592000}, {"true": null}.

Labels in files are advisory caches.  The parser always recomputes them; in
strict mode a stored label that disagrees with the recomputed one is an
error.  Serialization is canonical (fixed key order, two-space indent,
trailing newline), so equal documents serialize to identical bytes and
parse/serialize round-trips are exact.  A cp that lists a permission twice
grants it once, so it is written once.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring
from dataclasses import dataclass
from typing import Any, Optional, Union

from .engine import initial_state
from .errors import LicallocError
from .labels import Complexity, ConstraintName, Label, Times, state_labels, table_label
from .model import (
    CP,
    Action,
    Constraint,
    Count,
    DateTime,
    Interval,
    License,
    LicenseSet,
    Permission,
    Request,
    SubLicense,
    TimedCount,
    Unconstrained,
)

SCHEMA_VERSION = "1"


class CorpusError(LicallocError):
    """A corpus file could not be loaded; ``location`` says where."""

    def __init__(self, message: str, location: str = ""):
        self.location = location
        super().__init__(f"{location}: {message}" if location else message)


class CorpusSyntaxError(CorpusError):
    pass


class CorpusSchemaError(CorpusError):
    pass


class LabelMismatchError(CorpusError):
    pass


@dataclass(frozen=True)
class CorpusDocument:
    licenses: LicenseSet
    requests: tuple[Request, ...] = ()

    def __init__(self, licenses, requests=()):
        object.__setattr__(self, "licenses", licenses)
        object.__setattr__(self, "requests", tuple(requests))


# --- parsing ---------------------------------------------------------------


def _expect(condition: bool, message: str, where: str) -> None:
    if not condition:
        raise CorpusSchemaError(message, where)


def _expect_keys(obj: dict, allowed: set[str], required: set[str], where: str) -> None:
    _expect(isinstance(obj, dict), "expected an object", where)
    extra = set(obj) - allowed
    _expect(not extra, f"unknown keys {sorted(extra)}", where)
    missing = required - set(obj)
    _expect(not missing, f"missing keys {sorted(missing)}", where)


def _int_field(obj: dict, key: str, where: str, minimum: Optional[int] = None) -> int:
    value = obj[key]
    _expect(isinstance(value, int) and not isinstance(value, bool), f"{key} must be an integer", where)
    if minimum is not None:
        _expect(value >= minimum, f"{key} must be >= {minimum}", where)
    return value


def _parse_constraint(obj: Any, where: str) -> Constraint:
    _expect(isinstance(obj, dict) and len(obj) == 1, "constraint must be a one-key object", where)
    tag, body = next(iter(obj.items()))
    try:
        if tag == "count":
            _expect(isinstance(body, int) and not isinstance(body, bool), "count must be an integer", where)
            return Count(body)
        if tag == "timed_count":
            _expect_keys(body, {"n", "timer"}, {"n", "timer"}, where)
            return TimedCount(_int_field(body, "n", where), _int_field(body, "timer", where))
        if tag == "datetime":
            _expect_keys(body, {"start", "end"}, set(), where)
            start = _int_field(body, "start", where, 0) if "start" in body else None
            end = _int_field(body, "end", where, 0) if "end" in body else None
            return DateTime(start=start, end=end)
        if tag == "interval":
            _expect(isinstance(body, int) and not isinstance(body, bool), "interval must be an integer", where)
            return Interval(body)
        if tag == "true":
            _expect(body is None, "the true constraint takes null", where)
            return Unconstrained()
    except ValueError as exc:
        raise CorpusSchemaError(str(exc), where) from exc
    raise CorpusSchemaError(f"unknown constraint tag {tag!r}", where)


def _parse_constraints(obj: dict, where: str, interned: dict) -> tuple[Constraint, ...]:
    """The node's optional ``constraints`` array, empty when absent, as the document's one equal tuple."""
    raw = obj.get("constraints", [])
    _expect(isinstance(raw, list), "constraints must be an array", f"{where}.constraints")
    parsed = (_parse_constraint(c, f"{where}.constraints[{i}]") for i, c in enumerate(raw))
    constraints = tuple(interned.setdefault(c, c) for c in parsed)
    return interned.setdefault(constraints, constraints)


def _parse_action(value: Any, where: str) -> Action:
    try:
        return Action(value)
    except ValueError:
        raise CorpusSchemaError(
            f"unknown action {value!r} (expected one of {[a.value for a in Action]})", where
        ) from None


def _parse_permission(obj: Any, where: str, interned: dict) -> Permission:
    """The document's one ``Permission`` for this (action, content), made on first sight."""
    _expect_keys(obj, {"action", "content"}, {"action", "content"}, where)
    content = obj["content"]
    _expect(isinstance(content, str) and content != "", "content must be a non-empty string", where)
    permission = Permission(_parse_action(obj["action"], where), content)
    return interned.setdefault(permission, permission)


def _parse_label(obj: Any, where: str) -> Label:
    _expect_keys(obj, {"complexity", "times", "constraint"}, {"complexity", "times", "constraint"}, where)
    try:
        return table_label(
            Complexity(obj["complexity"]), Times(obj["times"]), ConstraintName(obj["constraint"])
        )
    except ValueError as exc:
        raise CorpusSchemaError(f"bad label: {exc}", where) from exc


def _parse_id(obj: dict, where: str, interned: dict) -> str:
    """The node's id, as the document's one string with that value."""
    value = obj.get("id")
    _expect(isinstance(value, str) and value != "", "id must be a non-empty string", where)
    return interned.setdefault(value, value)


def _parse_cp(obj: Any, where: str, interned: dict) -> tuple[CP, Optional[Label]]:
    _expect_keys(obj, {"id", "constraints", "permissions", "label"}, {"id", "permissions"}, where)
    cp_id = _parse_id(obj, where, interned)
    constraints = _parse_constraints(obj, where, interned)
    perms_raw = obj["permissions"]
    _expect(isinstance(perms_raw, list) and perms_raw, "permissions must be a non-empty array", where)
    permissions = [
        _parse_permission(p, f"{where}.permissions[{i}]", interned) for i, p in enumerate(perms_raw)
    ]
    stored = _parse_label(obj["label"], f"{where}.label") if "label" in obj else None
    try:
        return CP(cp_id, constraints, permissions), stored
    except ValueError as exc:
        raise CorpusSchemaError(str(exc), where) from exc


def _parse_sublicense(obj: Any, where: str, interned: dict):
    _expect_keys(obj, {"id", "constraints", "cps", "label"}, {"id", "cps"}, where)
    sl_id = _parse_id(obj, where, interned)
    constraints = _parse_constraints(obj, where, interned)
    cps_raw = obj["cps"]
    _expect(isinstance(cps_raw, list) and cps_raw, "cps must be a non-empty array", where)
    parsed = [_parse_cp(c, f"{where}.cps[{i}]", interned) for i, c in enumerate(cps_raw)]
    stored = _parse_label(obj["label"], f"{where}.label") if "label" in obj else None
    try:
        sl = SubLicense(sl_id, constraints, [cp for cp, _ in parsed])
    except ValueError as exc:
        raise CorpusSchemaError(str(exc), where) from exc
    stored_cp_labels = {cp.id: lbl for (cp, lbl) in parsed if lbl is not None}
    return sl, stored, stored_cp_labels


def _parse_license(obj: Any, where: str, interned: dict):
    _expect_keys(obj, {"id", "sublicenses"}, {"id", "sublicenses"}, where)
    lic_id = _parse_id(obj, where, interned)
    subs_raw = obj["sublicenses"]
    _expect(isinstance(subs_raw, list) and subs_raw, "sublicenses must be a non-empty array", where)
    parsed = [_parse_sublicense(s, f"{where}.sublicenses[{i}]", interned) for i, s in enumerate(subs_raw)]
    try:
        lic = License(lic_id, [sl for sl, _, _ in parsed])
    except ValueError as exc:
        raise CorpusSchemaError(str(exc), where) from exc
    stored = {}
    for sl, sl_label, cp_labels in parsed:
        if sl_label is not None:
            stored[(lic_id, sl.id, None)] = sl_label
        for cp_id, lbl in cp_labels.items():
            stored[(lic_id, sl.id, cp_id)] = lbl
    return lic, stored


def _parse_request(obj: Any, where: str) -> Request:
    _expect_keys(obj, {"action", "content", "at", "usage_duration"}, {"action", "content", "at"}, where)
    content = obj["content"]
    _expect(isinstance(content, str) and content != "", "content must be a non-empty string", where)
    at = _int_field(obj, "at", where, 0)
    duration = _int_field(obj, "usage_duration", where, 0) if "usage_duration" in obj else 0
    return Request(_parse_action(obj["action"], where), content, at=at, usage_duration=duration)


def parse_corpus(data: Union[bytes, str], *, strict_labels: bool = True) -> CorpusDocument:
    """Parse and validate a corpus document.

    Labels are recomputed from the parsed structure; in strict mode a stored
    label that disagrees raises LabelMismatchError.  Equal permissions,
    constraints and ids within the document are each one shared object.
    """
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CorpusSyntaxError(f"not valid UTF-8: {exc}", "byte stream") from exc
    try:
        raw = json.loads(data)
    except json.JSONDecodeError as exc:
        raise CorpusSyntaxError(exc.msg, f"line {exc.lineno} column {exc.colno}") from exc
    except RecursionError:
        raise CorpusSyntaxError("nested too deeply", "document") from None
    except ValueError as exc:  # an integer literal longer than Python's digit limit
        raise CorpusSyntaxError(str(exc), "document") from None

    _expect_keys(raw, {"schema_version", "licenses", "requests"}, {"schema_version", "licenses"}, "$")
    version = raw["schema_version"]
    _expect(version == SCHEMA_VERSION, f"unsupported schema_version {version!r}", "$.schema_version")
    lic_raw = raw["licenses"]
    _expect(isinstance(lic_raw, list) and lic_raw, "licenses must be a non-empty array", "$.licenses")
    interned: dict = {}  # each permission, constraint and id of the document, by value
    parsed = [_parse_license(l, f"$.licenses[{i}]", interned) for i, l in enumerate(lic_raw)]
    try:
        licenses = LicenseSet([lic for lic, _ in parsed])
    except ValueError as exc:
        raise CorpusSchemaError(str(exc), "$.licenses") from exc
    requests_raw = raw.get("requests", [])
    _expect(isinstance(requests_raw, list), "requests must be an array", "$.requests")
    requests = [_parse_request(r, f"$.requests[{i}]") for i, r in enumerate(requests_raw)]

    stored_labels: dict = {}
    for _, stored in parsed:
        stored_labels.update(stored)
    if strict_labels and stored_labels:
        computed = state_labels(initial_state(licenses))
        for (lid, slid, cpid), label in stored_labels.items():
            fresh = computed[(lid, slid, cpid)]
            if fresh != label:
                node = f"{lid}/{slid}" + (f"/{cpid}" if cpid else "")
                raise LabelMismatchError(f"stored label {label} does not match computed {fresh}", node)
    return CorpusDocument(licenses=licenses, requests=requests)


# --- serialization ---------------------------------------------------------


def _constraint_to_json(c: Constraint) -> dict:
    if isinstance(c, Count):
        return {"count": c.initial}
    if isinstance(c, TimedCount):
        return {"timed_count": {"n": c.initial, "timer": c.timer}}
    if isinstance(c, DateTime):
        body = {}
        if c.start is not None:
            body["start"] = c.start
        if c.end is not None:
            body["end"] = c.end
        return {"datetime": body}
    if isinstance(c, Interval):
        return {"interval": c.duration}
    if isinstance(c, Unconstrained):
        return {"true": None}
    raise TypeError(f"unknown constraint {c!r}")


def _label_to_json(label: Label) -> dict:
    return {
        "complexity": label.complexity.value,
        "times": label.times.value,
        "constraint": label.constraint.value,
    }


def document_to_json(doc: CorpusDocument) -> dict:
    """Plain-dict form of a document in canonical key order, with current labels."""
    labels = state_labels(initial_state(doc.licenses))
    licenses = []
    for lic in doc.licenses:
        subs = []
        for sl in lic.sublicenses:
            cps = []
            for cp in sl.cps:
                entry = {
                    "id": cp.id,
                    "constraints": [_constraint_to_json(c) for c in cp.constraints],
                    "permissions": [
                        {"action": p.action.value, "content": p.content} for p in cp.permissions
                    ],
                    "label": _label_to_json(labels[(lic.id, sl.id, cp.id)]),
                }
                cps.append(entry)
            sub = {
                "id": sl.id,
                "constraints": [_constraint_to_json(c) for c in sl.constraints],
                "cps": cps,
                "label": _label_to_json(labels[(lic.id, sl.id, None)]),
            }
            subs.append(sub)
        licenses.append({"id": lic.id, "sublicenses": subs})
    out: dict = {"schema_version": SCHEMA_VERSION, "licenses": licenses}
    if doc.requests:
        requests = []
        for r in doc.requests:
            entry = {"action": r.action.value, "content": r.content, "at": r.at}
            if r.usage_duration:
                entry["usage_duration"] = r.usage_duration
            requests.append(entry)
        out["requests"] = requests
    return out


def _emit(value: Any, indent: str, out: list[str]) -> None:
    """Append ``value`` to ``out`` as ``json.dumps(indent=2, ensure_ascii=False)`` writes it.

    ``indent`` is the newline and indentation of the line ``value`` starts
    on.  With an indent, ``json.dumps`` runs CPython's pure-Python encoder;
    this writes the same text with one call per value, and strings go
    through the same ``encode_basestring``.
    """
    if isinstance(value, str):
        out.append(encode_basestring(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = indent + "  "
        head = "{" + inner
        for key, item in value.items():
            out.append(head + encode_basestring(key) + ": ")
            _emit(item, inner, out)
            head = "," + inner
        out.append(indent + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = indent + "  "
        head = "[" + inner
        for item in value:
            out.append(head)
            _emit(item, inner, out)
            head = "," + inner
        out.append(indent + "]")
    else:
        out.append(json.dumps(value))


def serialize_corpus(doc: CorpusDocument) -> bytes:
    """Canonical bytes: fixed key order, 2-space indent, trailing newline.

    The bytes are ``json.dumps(document_to_json(doc), indent=2,
    ensure_ascii=False)`` and a newline, written by ``_emit``.
    """
    out: list[str] = []
    _emit(document_to_json(doc), "\n", out)
    out.append("\n")
    return "".join(out).encode("utf-8")


def load_corpus(path: str, *, strict_labels: bool = True) -> CorpusDocument:
    with open(path, "rb") as fh:
        return parse_corpus(fh.read(), strict_labels=strict_labels)
