"""Constraint evaluation and consumption.

The static license tree never changes; everything that can change lives in an
``AgentState``: for every node of the tree, keyed by ``NodeKey`` (license id,
sublicense id, cp id or None), the tuple of its constraints' states in
declaration order.  A ``None`` cp slot keys the sublicense itself, so reading
a node's states is one dict lookup, with no walk of the tree.

A constraint's state is one ``Optional[int]``: a counter's remaining charges,
a started interval's start time, and None otherwise.  This module is the only
one that reads it; the labels ask ``depleted`` and ``on_last_charge``.

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
)

NodeKey = tuple[str, str, Optional[str]]


ConstraintState = Optional[int]
_COUNTERS = (Count, TimedCount)


def fresh_state(constraint: Constraint) -> ConstraintState:
    return constraint.initial if isinstance(constraint, _COUNTERS) else None


def constraint_holds(constraint: Constraint, state: ConstraintState, at: Timestamp) -> bool:
    """True iff the constraint authorises a use at time ``at``."""
    if isinstance(constraint, Unconstrained):
        return True
    if isinstance(constraint, _COUNTERS):
        return state >= 1
    if isinstance(constraint, DateTime):
        if constraint.start is not None and at < constraint.start:
            return False
        if constraint.end is not None and at > constraint.end:
            return False
        return True
    if isinstance(constraint, Interval):
        return state is None or at <= state + constraint.duration
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


def _charged(constraint: Constraint, request: Optional[Request]) -> bool:
    """True iff a use for ``request`` takes a charge of this constraint.

    A count always does, a timed count when the use lasts at least its
    timer; with no request every counter is taken to be charged.
    """
    if isinstance(constraint, TimedCount):
        return request is None or request.usage_duration >= constraint.timer
    return isinstance(constraint, Count)


def _advance(constraint: Constraint, state: ConstraintState, request: Request) -> ConstraintState:
    """State of one constraint after a successful use."""
    if _charged(constraint, request):
        return state - 1
    if isinstance(constraint, Interval) and state is None:
        return request.at
    return state


# The labels ask this and ``on_last_charge`` of every node they walk; the membership
# tests scan the states in C and rule out most nodes before the typed check runs.
def depleted(constraints: Sequence[Constraint], states: Sequence[ConstraintState]) -> bool:
    """True iff some counter of the node is out of charges, so it never holds again."""
    return 0 in states and any(isinstance(c, _COUNTERS) and s == 0 for c, s in zip(constraints, states))


def on_last_charge(
    constraints: Sequence[Constraint],
    states: Sequence[ConstraintState],
    request: Optional[Request] = None,
) -> bool:
    """True iff some counter of the node that a use charges has at most one charge left.

    With a request, a timed count counts only when the use lasts at least
    its timer, as ``consume`` charges it.  Without one the reading is
    pessimistic: a timed count on its last charge counts even though a use
    shorter than its timer would leave it untouched.
    """
    return (0 in states or 1 in states) and any(
        _charged(c, request) and s <= 1 for c, s in zip(constraints, states)
    )


def _checked_target(
    state: AgentState, license_id: str, sublicense_id: str, cp_id: str, request: Request
) -> tuple[SubLicense, ConstraintPermissionSet]:
    """The target's sublicense and cp, once they are shown to match and hold now."""
    sl = state.sublicense(license_id, sublicense_id)
    cp = sl.cp(cp_id)
    if request.permission not in cp.permissions:
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
    start now.  A counter reaching zero depletes its node, which permanently
    invalidates the owning cp (cp level) or the whole sublicense (sublicense
    level).

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


def node_depletion(
    state: AgentState,
    license_id: str,
    sublicense: SubLicense,
    cp: ConstraintPermissionSet,
    request: Request,
) -> Depletion:
    """What a consume of the given nodes would deplete; the target is not checked.

    Depletion is the only change a consume makes to what holds at
    ``request.at``: other charges leave a counter at one or more, and an
    interval it starts holds at its own start.  A target that holds has no
    counter at zero, so a counter at zero after the use is one it depleted.
    The caller vouches that the target matches and holds, as a resolved
    target of ``rights.select_target`` does.
    """

    def would_deplete(constraints, states):
        return depleted(constraints, [_advance(c, s, request) for c, s in zip(constraints, states)])

    if would_deplete(sublicense.constraints, state.sublicense_states(license_id, sublicense.id)):
        return Depletion.SUBLICENSE_DEPLETES
    if would_deplete(cp.constraints, state.cp_states(license_id, sublicense.id, cp.id)):
        return Depletion.CP_DEPLETES
    return Depletion.NONE


def is_depleting(
    state: AgentState, license_id: str, sublicense_id: str, cp_id: str, request: Request
) -> Depletion:
    """Pure lookahead: classify what a consume of this target would deplete.

    The target is looked up by id and checked as ``consume`` checks it;
    ``node_depletion`` then classifies it.
    """
    sl, cp = _checked_target(state, license_id, sublicense_id, cp_id, request)
    return node_depletion(state, license_id, sl, cp, request)
