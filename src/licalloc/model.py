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

from dataclasses import dataclass
from enum import Enum
from typing import Optional, Union

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


@dataclass(frozen=True, order=True)
class Permission:
    """An action on a content."""

    action: Action
    content: Content


@dataclass(frozen=True)
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

    def __post_init__(self) -> None:
        if self.at < 0:
            raise ValueError("request timestamp must be >= 0")
        if self.usage_duration < 0:
            raise ValueError("usage_duration must be >= 0")

    @property
    def permission(self) -> Permission:
        """The permission this request asks for."""
        return Permission(self.action, self.content)


# --- constraints -----------------------------------------------------------


@dataclass(frozen=True)
class Count:
    """At most ``initial`` uses, each use consuming one charge."""

    initial: int

    def __post_init__(self) -> None:
        if self.initial < 1:
            raise ValueError("count must be >= 1")


@dataclass(frozen=True)
class TimedCount:
    """Like Count, but a use consumes a charge only if it lasts >= timer seconds."""

    initial: int
    timer: int

    def __post_init__(self) -> None:
        if self.initial < 1:
            raise ValueError("timed count must be >= 1")
        if self.timer < 1:
            raise ValueError("timer must be >= 1")


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class Interval:
    """Valid for ``duration`` seconds starting from the first use."""

    duration: int

    def __post_init__(self) -> None:
        if self.duration < 1:
            raise ValueError("interval duration must be >= 1")


@dataclass(frozen=True)
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


# --- license tree ----------------------------------------------------------


def _require_id(value: str, what: str) -> None:
    if not isinstance(value, str) or not value:
        raise ValueError(f"{what} id must be a non-empty string")


@dataclass(frozen=True)
class ConstraintPermissionSet:
    """Constraints that, when met, authorise a set of permissions."""

    id: str
    constraints: tuple[Constraint, ...]
    permissions: tuple[Permission, ...]

    def __init__(self, id, constraints=(), permissions=()):
        _require_id(id, "cp")
        object.__setattr__(self, "id", id)
        object.__setattr__(self, "constraints", tuple(constraints))
        object.__setattr__(self, "permissions", tuple(permissions))
        if not self.permissions:
            raise ValueError(f"cp {id!r} must grant at least one permission")


CP = ConstraintPermissionSet


@dataclass(frozen=True)
class SubLicense:
    """Constraints governing a list of constraint-permission sets."""

    id: str
    constraints: tuple[Constraint, ...]
    cps: tuple[ConstraintPermissionSet, ...]

    def __init__(self, id, constraints=(), cps=()):
        _require_id(id, "sublicense")
        object.__setattr__(self, "id", id)
        object.__setattr__(self, "constraints", tuple(constraints))
        object.__setattr__(self, "cps", tuple(cps))
        if not self.cps:
            raise ValueError(f"sublicense {id!r} must contain at least one cp")
        seen = set()
        for cp in self.cps:
            if cp.id in seen:
                raise ValueError(f"duplicate cp id {cp.id!r} in sublicense {id!r}")
            seen.add(cp.id)

    def cp(self, cp_id: str) -> ConstraintPermissionSet:
        for cp in self.cps:
            if cp.id == cp_id:
                return cp
        raise NotFoundError(f"no cp {cp_id!r} in sublicense {self.id!r}")


@dataclass(frozen=True)
class License:
    id: str
    sublicenses: tuple[SubLicense, ...]

    def __init__(self, id, sublicenses=()):
        _require_id(id, "license")
        object.__setattr__(self, "id", id)
        object.__setattr__(self, "sublicenses", tuple(sublicenses))
        if not self.sublicenses:
            raise ValueError(f"license {id!r} must contain at least one sublicense")
        seen = set()
        for sl in self.sublicenses:
            if sl.id in seen:
                raise ValueError(f"duplicate sublicense id {sl.id!r} in license {id!r}")
            seen.add(sl.id)

    def sublicense(self, sl_id: str) -> SubLicense:
        for sl in self.sublicenses:
            if sl.id == sl_id:
                return sl
        raise NotFoundError(f"no sublicense {sl_id!r} in license {self.id!r}")


@dataclass(frozen=True)
class LicenseSet:
    """An ordered collection of licenses; the order is the tie-break order."""

    licenses: tuple[License, ...]

    def __init__(self, licenses=()):
        object.__setattr__(self, "licenses", tuple(licenses))
        seen = set()
        for lic in self.licenses:
            if lic.id in seen:
                raise ValueError(f"duplicate license id {lic.id!r}")
            seen.add(lic.id)

    def __iter__(self):
        return iter(self.licenses)

    def __len__(self) -> int:
        return len(self.licenses)

    def license(self, license_id: str) -> License:
        for lic in self.licenses:
            if lic.id == license_id:
                return lic
        raise NotFoundError(f"no license {license_id!r} in set")


# --- structural matching ---------------------------------------------------


def matches(permission: Permission, request: Request) -> bool:
    """True iff the permission grants exactly what the request asks for."""
    return permission.action == request.action and permission.content == request.content


def sat_cp(cp: ConstraintPermissionSet, request: Request) -> bool:
    """True iff some permission of the cp matches the request (structure only)."""
    return any(matches(p, request) for p in cp.permissions)

