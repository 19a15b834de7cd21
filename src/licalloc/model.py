"""License model: actions, permissions, requests, constraints and the license tree.

A license is a list of sublicenses.  A sublicense couples a constraint list
with a list of constraint-permission sets (CPs).  A CP couples its own
constraint list with the permissions it grants.  A permission is exercisable
only while *both* constraint lists hold, which is what the rest of the
package calls validity.

All types here are immutable values; sequences are normalised to tuples so
instances can be hashed, compared and shared freely.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple, Optional, Union

from .errors import NotFoundError

Timestamp = int
Content = str


class Action(str, Enum):
    """The closed set of actions a license may grant."""

    PLAY = "play"
    DISPLAY = "display"
    PRINT = "print"
    EXECUTE = "execute"
    EXPORT = "export"


class Permission(NamedTuple):
    """An action on a content.

    A tuple, so hashing, equality and order run in C: it equals and sorts
    as the plain tuple ``(action, content)`` and unpacks into it.
    """

    action: Action
    content: Content


@dataclass(frozen=True, slots=True)
class Request:
    """A user request: exercise ``action`` on ``content`` at time ``at``.

    ``usage_duration`` is how long the use lasts; it only matters for
    timed-count accounting (a use shorter than the constraint's timer does
    not consume a charge).
    """

    action: Action
    content: Content
    at: Timestamp
    usage_duration: int = 0
    # The permission this request asks for, built once from action and content.
    permission: Permission = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.at < 0:
            raise ValueError("request timestamp must be >= 0")
        if self.usage_duration < 0:
            raise ValueError("usage_duration must be >= 0")
        object.__setattr__(self, "permission", Permission(self.action, self.content))


# --- constraints -----------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Count:
    """At most ``initial`` uses, each use consuming one charge."""

    initial: int

    def __post_init__(self) -> None:
        if self.initial < 1:
            raise ValueError("count must be >= 1")


@dataclass(frozen=True, slots=True)
class TimedCount:
    """Like Count, but a use consumes a charge only if it lasts >= timer seconds."""

    initial: int
    timer: int

    def __post_init__(self) -> None:
        if self.initial < 1:
            raise ValueError("timed count must be >= 1")
        if self.timer < 1:
            raise ValueError("timer must be >= 1")


@dataclass(frozen=True, slots=True)
class DateTime:
    """Valid between ``start`` and ``end`` inclusive; either bound may be open."""

    start: Optional[Timestamp] = None
    end: Optional[Timestamp] = None

    def __post_init__(self) -> None:
        if self.start is None and self.end is None:
            raise ValueError("datetime constraint needs a start or an end")
        for bound in (self.start, self.end):
            if bound is not None and bound < 0:
                raise ValueError("datetime bounds must be >= 0")
        if self.start is not None and self.end is not None and self.start > self.end:
            raise ValueError("datetime start must not be after end")


@dataclass(frozen=True, slots=True)
class Interval:
    """Valid for ``duration`` seconds starting from the first use."""

    duration: int

    def __post_init__(self) -> None:
        if self.duration < 1:
            raise ValueError("interval duration must be >= 1")


@dataclass(frozen=True, slots=True)
class Unconstrained:
    """The always-true constraint."""


Constraint = Union[Count, TimedCount, DateTime, Interval, Unconstrained]

# Selection priority of constraint kinds, 0 best: an unconstrained right is
# always preferred, a dated right beats an interval which beats the counters,
# and a timed count is preferred over a plain count.
_RANK = {Unconstrained: 0, DateTime: 1, Interval: 2, TimedCount: 3, Count: 4}


def constraint_rank(constraint: Constraint) -> int:
    """Ordinal of ``constraint`` in the selection order (lower is preferred)."""
    return _RANK[type(constraint)]


def _dominant_rank(constraints: tuple[Constraint, ...]) -> int:
    """Rank of the best-ranked constraint of a node; an empty list ranks as unconstrained."""
    if len(constraints) < 2:
        return _RANK[type(constraints[0])] if constraints else _RANK[Unconstrained]
    return min([_RANK[type(c)] for c in constraints])


# --- license tree ----------------------------------------------------------

# The frozen dataclasses below set their fields through this one binding.
_set = object.__setattr__


def _require_id(value: str, what: str) -> None:
    if not isinstance(value, str) or not value:
        raise ValueError(f"{what} id must be a non-empty string")


def _require_unique_ids(items, what: str, within: str = "") -> None:
    """Raise ValueError naming the first of ``items`` whose id an earlier one has.

    A constructor calls it only once one set of the ids has come out
    smaller than ``items``.
    """
    seen = set()
    for item in items:
        if item.id in seen:
            raise ValueError(f"duplicate {what} id {item.id!r}{within}")
        seen.add(item.id)


@dataclass(frozen=True, slots=True)
class ConstraintPermissionSet:
    """Constraints that, when met, authorise a set of permissions, each granted once.

    ``rank`` is the rank of the node's best-ranked constraint, fixed with
    the constraints; it takes no part in equality, hashing or repr.
    """

    id: str
    constraints: tuple[Constraint, ...]
    permissions: tuple[Permission, ...]
    rank: int = field(init=False, compare=False, repr=False)

    def __init__(self, id, constraints=(), permissions=()):
        _require_id(id, "cp")
        constraints = tuple(constraints)
        permissions = tuple(dict.fromkeys(permissions))
        _set(self, "id", id)
        _set(self, "constraints", constraints)
        _set(self, "permissions", permissions)
        _set(self, "rank", _dominant_rank(constraints))
        if not permissions:
            raise ValueError(f"cp {id!r} must grant at least one permission")


CP = ConstraintPermissionSet


@dataclass(frozen=True, slots=True)
class SubLicense:
    """Constraints governing a list of constraint-permission sets.

    ``rank`` is as on ``ConstraintPermissionSet``.
    """

    id: str
    constraints: tuple[Constraint, ...]
    cps: tuple[ConstraintPermissionSet, ...]
    rank: int = field(init=False, compare=False, repr=False)

    def __init__(self, id, constraints=(), cps=()):
        _require_id(id, "sublicense")
        constraints = tuple(constraints)
        cps = tuple(cps)
        _set(self, "id", id)
        _set(self, "constraints", constraints)
        _set(self, "cps", cps)
        _set(self, "rank", _dominant_rank(constraints))
        if not cps:
            raise ValueError(f"sublicense {id!r} must contain at least one cp")
        if len({cp.id for cp in cps}) < len(cps):
            _require_unique_ids(cps, "cp", f" in sublicense {id!r}")

    def cp(self, cp_id: str) -> ConstraintPermissionSet:
        for cp in self.cps:
            if cp.id == cp_id:
                return cp
        raise NotFoundError(f"no cp {cp_id!r} in sublicense {self.id!r}")


@dataclass(frozen=True, slots=True)
class License:
    id: str
    sublicenses: tuple[SubLicense, ...]

    def __init__(self, id, sublicenses=()):
        _require_id(id, "license")
        sublicenses = tuple(sublicenses)
        _set(self, "id", id)
        _set(self, "sublicenses", sublicenses)
        if not sublicenses:
            raise ValueError(f"license {id!r} must contain at least one sublicense")
        if len({sl.id for sl in sublicenses}) < len(sublicenses):
            _require_unique_ids(sublicenses, "sublicense", f" in license {id!r}")

    def sublicense(self, sl_id: str) -> SubLicense:
        for sl in self.sublicenses:
            if sl.id == sl_id:
                return sl
        raise NotFoundError(f"no sublicense {sl_id!r} in license {self.id!r}")


@dataclass(frozen=True, slots=True)
class LicenseSet:
    """An ordered collection of licenses; the order is the tie-break order.

    ``hosts`` answers which licenses grant a permission from an index built
    on first use: one pass over the tree fills a flat
    ``{Permission: (host licenses in declaration order)}`` map.
    """

    licenses: tuple[License, ...]
    _hosts: Optional[dict[Permission, tuple[License, ...]]] = field(repr=False, compare=False)

    def __init__(self, licenses=()):
        licenses = tuple(licenses)
        _set(self, "licenses", licenses)
        _set(self, "_hosts", None)
        if len({lic.id for lic in licenses}) < len(licenses):
            _require_unique_ids(licenses, "license")

    def __iter__(self):
        return iter(self.licenses)

    def __len__(self) -> int:
        return len(self.licenses)

    def license(self, license_id: str) -> License:
        for lic in self.licenses:
            if lic.id == license_id:
                return lic
        raise NotFoundError(f"no license {license_id!r} in set")

    def hosts(self, permission: Permission) -> tuple[License, ...]:
        """Licenses with some cp granting ``permission``, in declaration order."""
        if self._hosts is None:
            index: dict[Permission, list[License]] = {}
            for lic in self.licenses:
                for p in {p for sl in lic.sublicenses for cp in sl.cps for p in cp.permissions}:
                    index.setdefault(p, []).append(lic)
            object.__setattr__(self, "_hosts", {p: tuple(hosts) for p, hosts in index.items()})
        return self._hosts.get(permission, ())

