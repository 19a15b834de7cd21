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

The parser checks a node in file order: first its keys, with one set test
against the allowed and required keys, then its id, its constraints, its
children one by one, its label, and last what needs the whole node
(duplicate child ids).  The first failure raises.  Its location, such as
``$.licenses[0].sublicenses[1].cps[0]``, is built only then, as the error
passes up through the node's parents.  A permission is looked up by its raw
action and content, and a constraint by its tag and type-checked fields, so
a repeated one costs a dict hit and only its first sight is validated and
built in full.  Within a document, equal ids, permissions, constraints and
constraint tuples are each one object; two documents share none of them.
The strict label check then compares each stored label with the one
``state_labels`` computes for the parsed licenses.

The writer builds the text from the model directly, one f-string per
fixed-shape value (a constraint, a permission, a label, a request) at its
fixed depth.  The text is what ``json.dumps(indent=2, ensure_ascii=False)``
writes for the document's plain-dict form, which ``document_to_json`` reads
back from it.
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


class _Fault(Exception):
    """A schema fault in the node being parsed; ``where`` is its location below that node.

    Each parent a fault passes through prepends its own step, so a location
    is built only on the way out of a document that fails.
    """

    def __init__(self, message: str, where: str = ""):
        super().__init__(message)
        self.message = message
        self.where = where


def _keys_fault(obj: Any, allowed: frozenset, required: frozenset, where: str = "") -> _Fault:
    """Why ``obj`` failed its node's key check: not an object, an unknown key or a missing one."""
    if not isinstance(obj, dict):
        return _Fault("expected an object", where)
    extra = obj.keys() - allowed
    if extra:
        return _Fault(f"unknown keys {sorted(extra)}", where)
    return _Fault(f"missing keys {sorted(required - obj.keys())}", where)


def _each(parse, items: list, step: str, context) -> list:
    """``parse(item, context)`` for each item in order; a fault gets ``step[index]`` prepended."""
    out = []
    try:
        for item in items:
            out.append(parse(item, context))
    except _Fault as fault:
        fault.where = f"{step}[{len(out)}]{fault.where}"
        raise
    return out


def _int_field(obj: dict, key: str, minimum: Optional[int] = None) -> int:
    value = obj[key]
    if type(value) is not int:  # a JSON integer, not a bool or a float
        raise _Fault(f"{key} must be an integer")
    if minimum is not None and value < minimum:
        raise _Fault(f"{key} must be >= {minimum}")
    return value


class _Parsed:
    """What parsing one document gathers besides its tree.

    The document's one object per equal id, permission, constraint and
    constraint tuple, and its stored labels: one entry per node, ``None``
    where the file has no label, in the order ``state_labels`` lists the
    nodes (each sublicense, then its cps).
    """

    __slots__ = ("ids", "permissions", "constraints", "constraint_tuples", "labels")

    def __init__(self):
        self.ids: dict = {}
        self.permissions: dict = {}  # by the raw (action, content) pair
        self.constraints: dict = {}  # by ``_parse_constraint``'s key
        self.constraint_tuples: dict = {}  # by the tuple of their constraints' keys
        self.labels: list[Optional[Label]] = []


_TIMED_COUNT_KEYS = frozenset({"n", "timer"})
_DATETIME_KEYS = frozenset({"start", "end"})
_CONSTRAINT_TYPES = {
    "count": Count,
    "timed_count": TimedCount,
    "datetime": DateTime,
    "interval": Interval,
    "true": Unconstrained,
}


def _parse_constraint(obj: Any, interned: dict) -> tuple:
    """Validate one constraint and return its key: the tag, then its integer fields.

    Each field is checked to be a JSON integer before it goes in the key, so
    equal keys mean equal constraints and a ``true`` never finds a ``1``.
    ``interned[key]`` is the document's one constraint for the key, built
    (and its bounds checked) the first time the key is seen.
    """
    if not (isinstance(obj, dict) and len(obj) == 1):
        raise _Fault("constraint must be a one-key object")
    ((tag, body),) = obj.items()
    if tag == "count" or tag == "interval":
        if type(body) is not int:  # a JSON integer, not a bool or a float
            raise _Fault(f"{tag} must be an integer")
        key = (tag, body)
    elif tag == "timed_count":
        if not (isinstance(body, dict) and body.keys() == _TIMED_COUNT_KEYS):
            raise _keys_fault(body, _TIMED_COUNT_KEYS, _TIMED_COUNT_KEYS)
        key = (tag, _int_field(body, "n"), _int_field(body, "timer"))
    elif tag == "datetime":
        if not (isinstance(body, dict) and body.keys() <= _DATETIME_KEYS):
            raise _keys_fault(body, _DATETIME_KEYS, frozenset())
        start = _int_field(body, "start", 0) if "start" in body else None
        end = _int_field(body, "end", 0) if "end" in body else None
        key = (tag, start, end)
    elif tag == "true":
        if body is not None:
            raise _Fault("the true constraint takes null")
        key = (tag,)
    else:
        raise _Fault(f"unknown constraint tag {tag!r}")
    if key not in interned:
        try:
            interned[key] = _CONSTRAINT_TYPES[tag](*key[1:])
        except ValueError as exc:  # a bound the constraint's own constructor checks
            raise _Fault(str(exc)) from None
    return key


def _parse_constraints(obj: dict, parsed: _Parsed) -> tuple[Constraint, ...]:
    """The node's optional ``constraints`` array, empty when absent, as the document's one equal tuple."""
    raw = obj.get("constraints", [])
    if not isinstance(raw, list):
        raise _Fault("constraints must be an array", ".constraints")
    if not raw:
        return ()
    keys = tuple(_each(_parse_constraint, raw, ".constraints", parsed.constraints))
    try:
        return parsed.constraint_tuples[keys]
    except KeyError:
        constraints = parsed.constraint_tuples[keys] = tuple(map(parsed.constraints.__getitem__, keys))
        return constraints


_ACTIONS = {action.value: action for action in Action}


def _parse_action(value: Any) -> Action:
    try:
        return _ACTIONS[value]
    except (KeyError, TypeError):  # not an action's name, or not even hashable
        raise _Fault(f"unknown action {value!r} (expected one of {list(_ACTIONS)})") from None


_PERMISSION_KEYS = frozenset({"action", "content"})


def _parse_permission(obj: Any, interned: dict) -> Permission:
    """The document's one ``Permission`` for this (action, content), validated on first sight.

    ``interned`` maps each raw ``(action, content)`` pair already parsed to
    its permission, so only a pair of valid strings is ever a key.
    """
    if not (isinstance(obj, dict) and obj.keys() == _PERMISSION_KEYS):
        raise _keys_fault(obj, _PERMISSION_KEYS, _PERMISSION_KEYS)
    raw = (obj["action"], obj["content"])
    try:
        return interned[raw]
    except (KeyError, TypeError):  # first sight, or an unhashable value that fails below
        pass
    content = obj["content"]
    if not (isinstance(content, str) and content != ""):
        raise _Fault("content must be a non-empty string")
    permission = interned[raw] = Permission(_parse_action(obj["action"]), content)
    return permission


_LABEL_KEYS = frozenset({"complexity", "times", "constraint"})
# Every label, by the raw strings of its three fields.
_LABELS = {(c.value, t.value, n.value): table_label(c, t, n) for c in Complexity for t in Times for n in ConstraintName}


def _parse_label(obj: Any) -> Label:
    if not (isinstance(obj, dict) and obj.keys() == _LABEL_KEYS):
        raise _keys_fault(obj, _LABEL_KEYS, _LABEL_KEYS, ".label")
    try:
        return _LABELS[obj["complexity"], obj["times"], obj["constraint"]]
    except (KeyError, TypeError):  # some field holds no value of its kind: the enums name the first
        pass
    try:
        return table_label(Complexity(obj["complexity"]), Times(obj["times"]), ConstraintName(obj["constraint"]))
    except ValueError as exc:
        raise _Fault(f"bad label: {exc}", ".label") from None


def _parse_id(obj: dict, interned: dict) -> str:
    """The node's id, as the document's one string with that value."""
    value = obj["id"]
    if not (isinstance(value, str) and value != ""):
        raise _Fault("id must be a non-empty string")
    return interned.setdefault(value, value)


_CP_KEYS = frozenset({"id", "constraints", "permissions", "label"})
_CP_REQUIRED = frozenset({"id", "permissions"})


def _parse_cp(obj: Any, parsed: _Parsed) -> CP:
    if not (isinstance(obj, dict) and obj.keys() <= _CP_KEYS and obj.keys() >= _CP_REQUIRED):
        raise _keys_fault(obj, _CP_KEYS, _CP_REQUIRED)
    cp_id = _parse_id(obj, parsed.ids)
    constraints = _parse_constraints(obj, parsed)
    perms_raw = obj["permissions"]
    if not (isinstance(perms_raw, list) and perms_raw):
        raise _Fault("permissions must be a non-empty array")
    permissions = _each(_parse_permission, perms_raw, ".permissions", parsed.permissions)
    parsed.labels.append(_parse_label(obj["label"]) if "label" in obj else None)
    return CP(cp_id, constraints, permissions)


_SUBLICENSE_KEYS = frozenset({"id", "constraints", "cps", "label"})
_SUBLICENSE_REQUIRED = frozenset({"id", "cps"})


def _parse_sublicense(obj: Any, parsed: _Parsed) -> SubLicense:
    if not (isinstance(obj, dict) and obj.keys() <= _SUBLICENSE_KEYS and obj.keys() >= _SUBLICENSE_REQUIRED):
        raise _keys_fault(obj, _SUBLICENSE_KEYS, _SUBLICENSE_REQUIRED)
    sl_id = _parse_id(obj, parsed.ids)
    constraints = _parse_constraints(obj, parsed)
    cps_raw = obj["cps"]
    if not (isinstance(cps_raw, list) and cps_raw):
        raise _Fault("cps must be a non-empty array")
    labels = parsed.labels
    slot = len(labels)  # listed before its cps' labels, though the file holds it after them
    labels.append(None)
    cps = _each(_parse_cp, cps_raw, ".cps", parsed)
    if "label" in obj:
        labels[slot] = _parse_label(obj["label"])
    try:
        return SubLicense(sl_id, constraints, cps)
    except ValueError as exc:
        raise _Fault(str(exc)) from None


_LICENSE_KEYS = frozenset({"id", "sublicenses"})


def _parse_license(obj: Any, parsed: _Parsed) -> License:
    if not (isinstance(obj, dict) and obj.keys() == _LICENSE_KEYS):
        raise _keys_fault(obj, _LICENSE_KEYS, _LICENSE_KEYS)
    lic_id = _parse_id(obj, parsed.ids)
    subs_raw = obj["sublicenses"]
    if not (isinstance(subs_raw, list) and subs_raw):
        raise _Fault("sublicenses must be a non-empty array")
    sublicenses = _each(_parse_sublicense, subs_raw, ".sublicenses", parsed)
    try:
        return License(lic_id, sublicenses)
    except ValueError as exc:
        raise _Fault(str(exc)) from None


_REQUEST_KEYS = frozenset({"action", "content", "at", "usage_duration"})
_REQUEST_REQUIRED = frozenset({"action", "content", "at"})


def _parse_request(obj: Any, _context=None) -> Request:
    if not (isinstance(obj, dict) and obj.keys() <= _REQUEST_KEYS and obj.keys() >= _REQUEST_REQUIRED):
        raise _keys_fault(obj, _REQUEST_KEYS, _REQUEST_REQUIRED)
    content = obj["content"]
    if not (isinstance(content, str) and content != ""):
        raise _Fault("content must be a non-empty string")
    at = _int_field(obj, "at", 0)
    duration = _int_field(obj, "usage_duration", 0) if "usage_duration" in obj else 0
    return Request(_parse_action(obj["action"]), content, at=at, usage_duration=duration)


_DOCUMENT_KEYS = frozenset({"schema_version", "licenses", "requests"})
_DOCUMENT_REQUIRED = frozenset({"schema_version", "licenses"})


def _parse_document(raw: Any) -> tuple[LicenseSet, list[Request], list[Optional[Label]]]:
    """The licenses, the requests and the stored labels (see ``_Parsed``) of a decoded document."""
    if not (isinstance(raw, dict) and raw.keys() <= _DOCUMENT_KEYS and raw.keys() >= _DOCUMENT_REQUIRED):
        raise _keys_fault(raw, _DOCUMENT_KEYS, _DOCUMENT_REQUIRED)
    version = raw["schema_version"]
    if version != SCHEMA_VERSION:
        raise _Fault(f"unsupported schema_version {version!r}", ".schema_version")
    lic_raw = raw["licenses"]
    if not (isinstance(lic_raw, list) and lic_raw):
        raise _Fault("licenses must be a non-empty array", ".licenses")
    parsed = _Parsed()
    try:
        licenses = LicenseSet(_each(_parse_license, lic_raw, ".licenses", parsed))
    except ValueError as exc:
        raise _Fault(str(exc), ".licenses") from None
    requests_raw = raw.get("requests", [])
    if not isinstance(requests_raw, list):
        raise _Fault("requests must be an array", ".requests")
    requests = _each(_parse_request, requests_raw, ".requests", None)
    return licenses, requests, parsed.labels


def parse_corpus(data: Union[bytes, str], *, strict_labels: bool = True) -> CorpusDocument:
    """Parse and validate a corpus document.

    Labels are recomputed from the parsed structure; in strict mode a stored
    label that disagrees raises LabelMismatchError.  Equal permissions,
    constraints, constraint tuples and ids within the document are each one
    shared object.
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
    try:
        licenses, requests, stored_labels = _parse_document(raw)
    except _Fault as fault:
        raise CorpusSchemaError(fault.message, "$" + fault.where) from None

    if strict_labels and any(label is not None for label in stored_labels):
        computed = state_labels(initial_state(licenses))
        for ((lid, slid, cpid), fresh), label in zip(computed.items(), stored_labels, strict=True):
            if label is not None and fresh != label:
                node = f"{lid}/{slid}" + (f"/{cpid}" if cpid else "")
                raise LabelMismatchError(f"stored label {label} does not match computed {fresh}", node)
    return CorpusDocument(licenses=licenses, requests=requests)


# --- serialization ---------------------------------------------------------

# _NL[d] starts a line at nesting depth d (the document's own braces are at 0).
_NL = tuple("\n" + "  " * depth for depth in range(11))


def _number(value: Any) -> str:
    """A number as ``json.dumps`` writes it."""
    return int.__repr__(value) if type(value) is int else json.dumps(value)


def _array(items: list[str], depth: int) -> str:
    """The array of written ``items``, for a value on a line at ``depth``."""
    if not items:
        return "[]"
    inner = _NL[depth + 1]
    return "[" + inner + ("," + inner).join(items) + _NL[depth] + "]"


def _constraint_text(c: Constraint, depth: int) -> str:
    i, j, k = _NL[depth], _NL[depth + 1], _NL[depth + 2]
    kind = type(c)
    if kind is Count:
        return f'{{{j}"count": {_number(c.initial)}{i}}}'
    if kind is TimedCount:
        return f'{{{j}"timed_count": {{{k}"n": {_number(c.initial)},{k}"timer": {_number(c.timer)}{j}}}{i}}}'
    if kind is DateTime:
        bounds = [f'"{name}": {_number(bound)}' for name, bound in (("start", c.start), ("end", c.end)) if bound is not None]
        return f'{{{j}"datetime": {{{k}' + f",{k}".join(bounds) + f"{j}}}{i}}}"
    if kind is Interval:
        return f'{{{j}"interval": {_number(c.duration)}{i}}}'
    if kind is Unconstrained:
        return f'{{{j}"true": null{i}}}'
    raise TypeError(f"unknown constraint {c!r}")


def _label_text(label: Label, depth: int) -> str:
    i, j = _NL[depth], _NL[depth + 1]
    return (
        f'{{{j}"complexity": "{label.complexity.value}",{j}"times": "{label.times.value}",'
        f'{j}"constraint": "{label.constraint.value}"{i}}}'
    )


# Each label written at a sublicense's depth and at a cp's, by ``Label.key``.
_SUBLICENSE_LABEL_TEXT = {label.key: _label_text(label, 5) for label in _LABELS.values()}
_CP_LABEL_TEXT = {label.key: _label_text(label, 7) for label in _LABELS.values()}


def serialize_corpus(doc: CorpusDocument) -> bytes:
    """Canonical bytes: fixed key order, 2-space indent, trailing newline.

    The bytes are what ``json.dumps(indent=2, ensure_ascii=False)`` writes
    for the document's plain-dict form with its current labels, and a
    newline.
    """
    labels = state_labels(initial_state(doc.licenses))
    n3, n4, n5, n6, n7, n8, n9 = _NL[3:10]
    licenses = []
    for lic in doc.licenses:
        subs = []
        for sl in lic.sublicenses:
            cps = []
            for cp in sl.cps:
                permissions = [
                    f'{{{n9}"action": {encode_basestring(action)},{n9}"content": {encode_basestring(content)}{n8}}}'
                    for action, content in cp.permissions
                ]
                cps.append(
                    f'{{{n7}"id": {encode_basestring(cp.id)},'
                    f'{n7}"constraints": {_array([_constraint_text(c, 8) for c in cp.constraints], 7)},'
                    f'{n7}"permissions": {_array(permissions, 7)},'
                    f'{n7}"label": {_CP_LABEL_TEXT[labels[(lic.id, sl.id, cp.id)].key]}{n6}}}'
                )
            subs.append(
                f'{{{n5}"id": {encode_basestring(sl.id)},'
                f'{n5}"constraints": {_array([_constraint_text(c, 6) for c in sl.constraints], 5)},'
                f'{n5}"cps": {_array(cps, 5)},'
                f'{n5}"label": {_SUBLICENSE_LABEL_TEXT[labels[(lic.id, sl.id, None)].key]}{n4}}}'
            )
        licenses.append(f'{{{n3}"id": {encode_basestring(lic.id)},{n3}"sublicenses": {_array(subs, 3)}{_NL[2]}}}')
    text = f'{{{_NL[1]}"schema_version": "{SCHEMA_VERSION}",{_NL[1]}"licenses": {_array(licenses, 1)}'
    if doc.requests:
        text += f',{_NL[1]}"requests": {_array([_request_text(r) for r in doc.requests], 1)}'
    return (text + "\n}\n").encode("utf-8")


def _request_text(r: Request) -> str:
    n2, n3 = _NL[2], _NL[3]
    duration = f',{n3}"usage_duration": {_number(r.usage_duration)}' if r.usage_duration else ""
    return (
        f'{{{n3}"action": {encode_basestring(r.action)},{n3}"content": {encode_basestring(r.content)},'
        f'{n3}"at": {_number(r.at)}{duration}{n2}}}'
    )


def document_to_json(doc: CorpusDocument) -> dict:
    """Plain-dict form of a document in canonical key order, with current labels, read from its bytes."""
    return json.loads(serialize_corpus(doc))


def load_corpus(path: str, *, strict_labels: bool = True) -> CorpusDocument:
    with open(path, "rb") as fh:
        return parse_corpus(fh.read(), strict_labels=strict_labels)
