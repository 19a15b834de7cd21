"""Constraint evaluation and consumption.

The static license tree never changes; everything that can change lives in an
``AgentState``: for every node of the tree, keyed by ``NodeKey`` (license id,
sublicense id, cp id or None), the tuple of its constraints' states in
declaration order.  A ``None`` cp slot keys the sublicense itself, so reading
a node's states is one dict lookup, with no walk of the tree.

``consume`` is the only state transition.  It returns a fresh state; a failed
precondition raises and leaves the input untouched, so replaying a request
log always reproduces the same final state.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import InvalidTargetError
from .model import (
    Constraint,
    ConstraintPermissionSet,
    Count,
    DateTime,
    Interval,
    License,
    LicenseSet,
    Request,
    SubLicense,
    TimedCount,
    Timestamp,
    Unconstrained,
    sat_cp,
)

NodeKey = tuple[str, str, Optional[str]]


@dataclass(frozen=True, slots=True)
class ConstraintState:
    """Mutable side of one constraint occurrence.

    ``remaining`` is set for counters, ``interval_started_at`` for intervals.
    ``depleted`` is sticky: once a counter hits zero the owning node can never
    hold again.
    """

    remaining: Optional[int] = None
    interval_started_at: Optional[Timestamp] = None
    depleted: bool = False


def fresh_state(constraint: Constraint) -> ConstraintState:
    if isinstance(constraint, (Count, TimedCount)):
        return ConstraintState(remaining=constraint.initial)
    return ConstraintState()


def constraint_holds(constraint: Constraint, state: ConstraintState, at: Timestamp) -> bool:
    """True iff the constraint authorises a use at time ``at``."""
    if state.depleted:
        return False
    if isinstance(constraint, Unconstrained):
        return True
    if isinstance(constraint, (Count, TimedCount)):
        return state.remaining is not None and state.remaining >= 1
    if isinstance(constraint, DateTime):
        if constraint.start is not None and at < constraint.start:
            return False
        if constraint.end is not None and at > constraint.end:
            return False
        return True
    if isinstance(constraint, Interval):
        if state.interval_started_at is None:
            return True
        return at <= state.interval_started_at + constraint.duration
    raise TypeError(f"unknown constraint {constraint!r}")


def constraints_hold(
    constraints: Sequence[Constraint],
    states: Sequence[ConstraintState],
    at: Timestamp,
) -> bool:
    """Conjunction over a constraint list; an empty list holds."""
    return all(constraint_holds(c, s, at) for c, s in zip(constraints, states))


@dataclass
class AgentState:
    """Installed licenses plus the consumption state of every constraint.

    Treat instances as immutable: ``consume`` returns a new state and never
    mutates its input.
    """

    licenses: LicenseSet
    cstate: dict[NodeKey, tuple[ConstraintState, ...]]

    def license(self, license_id: str) -> License:
        return self.licenses.license(license_id)

    def sublicense(self, license_id: str, sublicense_id: str) -> SubLicense:
        return self.license(license_id).sublicense(sublicense_id)

    def cp(self, license_id: str, sublicense_id: str, cp_id: str) -> ConstraintPermissionSet:
        return self.sublicense(license_id, sublicense_id).cp(cp_id)

    def sublicense_states(self, license_id: str, sublicense_id: str) -> tuple[ConstraintState, ...]:
        return self.cstate[(license_id, sublicense_id, None)]

    def cp_states(self, license_id: str, sublicense_id: str, cp_id: str) -> tuple[ConstraintState, ...]:
        return self.cstate[(license_id, sublicense_id, cp_id)]


def initial_state(licenses: LicenseSet) -> AgentState:
    """Fresh agent state: full counters, unstarted intervals, nothing depleted."""
    cstate: dict[NodeKey, tuple[ConstraintState, ...]] = {}
    for lic in licenses:
        for sl in lic.sublicenses:
            cstate[(lic.id, sl.id, None)] = tuple(map(fresh_state, sl.constraints))
            for cp in sl.cps:
                cstate[(lic.id, sl.id, cp.id)] = tuple(map(fresh_state, cp.constraints))
    return AgentState(licenses=licenses, cstate=cstate)


def cp_valid(
    state: AgentState, license_id: str, sublicense: SubLicense, cp: ConstraintPermissionSet, at: Timestamp
) -> bool:
    """True iff the full governing conjunction (sublicense and cp level) holds."""
    return constraints_hold(
        sublicense.constraints, state.sublicense_states(license_id, sublicense.id), at
    ) and constraints_hold(cp.constraints, state.cp_states(license_id, sublicense.id, cp.id), at)


class Depletion(enum.Enum):
    NONE = "none"
    CP_DEPLETES = "cp_depletes"
    SUBLICENSE_DEPLETES = "sublicense_depletes"


def _advance(constraint: Constraint, state: ConstraintState, request: Request) -> ConstraintState:
    """State of one constraint after a successful use."""
    if isinstance(constraint, Count):
        remaining = state.remaining - 1
        return ConstraintState(remaining=remaining, depleted=remaining == 0)
    if isinstance(constraint, TimedCount):
        if request.usage_duration >= constraint.timer:
            remaining = state.remaining - 1
            return ConstraintState(remaining=remaining, depleted=remaining == 0)
        return state
    if isinstance(constraint, Interval):
        if state.interval_started_at is None:
            return ConstraintState(interval_started_at=request.at)
        return state
    return state


def _checked_target(
    state: AgentState, license_id: str, sublicense_id: str, cp_id: str, request: Request
) -> tuple[SubLicense, ConstraintPermissionSet]:
    """The target's sublicense and cp, once they are shown to match and hold now."""
    sl = state.sublicense(license_id, sublicense_id)
    cp = sl.cp(cp_id)
    if not sat_cp(cp, request):
        raise InvalidTargetError(
            f"cp {cp_id!r} of {license_id}/{sublicense_id} grants no permission matching the request"
        )
    if not cp_valid(state, license_id, sl, cp, request.at):
        raise InvalidTargetError(
            f"constraints of {license_id}/{sublicense_id}/{cp_id} do not hold at t={request.at}"
        )
    return sl, cp


def consume(
    state: AgentState, license_id: str, sublicense_id: str, cp_id: str, request: Request
) -> AgentState:
    """Exercise a permission of the given cp and return the successor state.

    Every count at the sublicense and cp level loses one charge, timed counts
    only when the use lasts at least their timer, and unstarted intervals
    start now.  A counter reaching zero marks its state depleted, which
    permanently invalidates the owning cp (cp level) or the whole sublicense
    (sublicense level).

    Raises InvalidTargetError (leaving ``state`` untouched) when the cp does
    not match the request or its governing constraints do not hold.
    """
    sl, cp = _checked_target(state, license_id, sublicense_id, cp_id, request)
    cstate = dict(state.cstate)
    for key, constraints in (
        ((license_id, sublicense_id, None), sl.constraints),
        ((license_id, sublicense_id, cp_id), cp.constraints),
    ):
        cstate[key] = tuple(_advance(c, s, request) for c, s in zip(constraints, cstate[key]))
    return AgentState(licenses=state.licenses, cstate=cstate)


def is_depleting(
    state: AgentState, license_id: str, sublicense_id: str, cp_id: str, request: Request
) -> Depletion:
    """Pure lookahead: classify what a consume of this target would deplete.

    Depletion is the only change a consume makes to what holds at
    ``request.at``: other charges leave a counter at one or more, and an
    interval it starts holds at its own start.
    """
    sl, cp = _checked_target(state, license_id, sublicense_id, cp_id, request)

    def would_deplete(constraints, states):
        return any(
            _advance(c, s, request).depleted and not s.depleted
            for c, s in zip(constraints, states)
        )

    if would_deplete(sl.constraints, state.sublicense_states(license_id, sublicense_id)):
        return Depletion.SUBLICENSE_DEPLETES
    if would_deplete(cp.constraints, state.cp_states(license_id, sublicense_id, cp_id)):
        return Depletion.CP_DEPLETES
    return Depletion.NONE
