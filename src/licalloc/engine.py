"""Constraint evaluation and consumption.

The static license tree never changes; everything that can change lives in an
``AgentState``: per sublicense, keyed by (license id, sublicense id), a slot
of its node's constraint states and its cps' (aligned with ``sl.cps``), each
node's a tuple in declaration order.  Whatever is asked of a sublicense reads
one slot, so it is one dict lookup, with no walk of the tree.

A constraint's state is one ``Optional[int]``: a counter's remaining charges,
a started interval's start time, and None otherwise.  This module is the only
one that reads it; the labels ask ``depleted`` and ``on_last_charge``.

``execute`` is the only state transition: it takes the target's nodes (the
sublicense and its cp's index, as ``rights.Resolved`` holds them) and returns
a fresh state, with no lookup and no check; ``allocate_and_execute`` hands it
the target its allocator resolved at this state, for every caller that acts
on its own decision (``licalloc allocate`` and ``simulate`` among them).
``consume`` is the checked entry point by ids, for callers that must not
trust an allocator (a replayed request log, ``verify.run_trial``): it looks
the target up, checks it and then executes it.  A failed check raises and
leaves the input untouched, so replaying a request log always reproduces the
same final state.
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
# A sublicense's node states, then its cps' node states aligned with ``sl.cps``.
Slot = tuple[tuple[ConstraintState, ...], tuple[tuple[ConstraintState, ...], ...]]
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

    ``cstate`` maps (license id, sublicense id) to the sublicense's ``Slot``.
    Treat instances as immutable: ``execute``, and ``consume`` through it,
    returns a new state and never mutates its input, and nothing caches on
    it, so a state is a plain value: equal states answer every question
    alike.
    """

    licenses: LicenseSet
    cstate: dict[tuple[str, str], Slot]

    def license(self, license_id: str) -> License:
        return self.licenses.license(license_id)

    def sublicense(self, license_id: str, sublicense_id: str) -> SubLicense:
        return self.license(license_id).sublicense(sublicense_id)

    def cp(self, license_id: str, sublicense_id: str, cp_id: str) -> ConstraintPermissionSet:
        return self.sublicense(license_id, sublicense_id).cp(cp_id)

    def slot(self, license_id: str, sublicense_id: str) -> Slot:
        """The sublicense's node states and its cps' node states, aligned with ``sl.cps``."""
        return self.cstate[(license_id, sublicense_id)]


def initial_state(licenses: LicenseSet) -> AgentState:
    """Fresh agent state: full counters, unstarted intervals, nothing depleted.

    Equal node states, and equal slots, are one shared tuple.
    """
    shared: dict = {}

    def share(value: tuple) -> tuple:
        return shared.setdefault(value, value)

    def fresh(constraints: tuple[Constraint, ...]) -> tuple[ConstraintState, ...]:
        return share(tuple(map(fresh_state, constraints)))

    cstate = {
        (lic.id, sl.id): share((fresh(sl.constraints), share(tuple(fresh(cp.constraints) for cp in sl.cps))))
        for lic in licenses
        for sl in lic.sublicenses
    }
    return AgentState(licenses=licenses, cstate=cstate)


def cp_valid(
    state: AgentState, license_id: str, sublicense: SubLicense, cp: ConstraintPermissionSet, at: Timestamp
) -> bool:
    """True iff the full governing conjunction (sublicense and cp level) holds."""
    sl_states, cp_states = state.slot(license_id, sublicense.id)
    return constraints_hold(sublicense.constraints, sl_states, at) and constraints_hold(
        cp.constraints, cp_states[sublicense.cps.index(cp)], at
    )


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


def _advanced(
    constraints: Sequence[Constraint], states: Sequence[ConstraintState], request: Request
) -> tuple[ConstraintState, ...]:
    """States of one node's constraints after a successful use."""
    return tuple(
        s - 1 if _charged(c, request) else request.at if s is None and isinstance(c, Interval) else s
        for c, s in zip(constraints, states)
    )


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
) -> tuple[SubLicense, int]:
    """The target's sublicense and its cp's index, once they are shown to match and hold now."""
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
    return sl, sl.cps.index(cp)


def execute(
    state: AgentState, license_id: str, sublicense: SubLicense, cp_index: int, request: Request
) -> AgentState:
    """Exercise a permission of ``sublicense.cps[cp_index]`` and return the successor state.

    Every count at the sublicense and cp level loses one charge, timed counts
    only when the use lasts at least their timer, and unstarted intervals
    start now.  A counter reaching zero depletes its node, which permanently
    invalidates the owning cp (cp level) or the whole sublicense (sublicense
    level).  Only the target sublicense's slot is replaced: the successor
    shares every other slot, and the slot's other cps' states, with ``state``.

    Nothing is checked: the cp must grant the request's permission and its
    governing constraints must hold, as they do for a target
    ``rights.select_target`` resolved at ``state`` for ``request``.
    """
    sl_states, cp_states = state.slot(license_id, sublicense.id)
    j = cp_index
    cp_states = (*cp_states[:j], _advanced(sublicense.cps[j].constraints, cp_states[j], request), *cp_states[j + 1 :])
    slot = (_advanced(sublicense.constraints, sl_states, request), cp_states)
    return AgentState(licenses=state.licenses, cstate={**state.cstate, (license_id, sublicense.id): slot})


def consume(
    state: AgentState, license_id: str, sublicense_id: str, cp_id: str, request: Request
) -> AgentState:
    """Look the target up by ids, check it, then ``execute`` it.

    Raises InvalidTargetError (leaving ``state`` untouched) when the cp does
    not match the request or its governing constraints do not hold.
    """
    sl, j = _checked_target(state, license_id, sublicense_id, cp_id, request)
    return execute(state, license_id, sl, j, request)


def is_depleting(
    state: AgentState, license_id: str, sublicense_id: str, cp_id: str, request: Request
) -> Depletion:
    """Pure lookahead: classify what a consume of this target would deplete.

    The target is looked up by id and checked as ``consume`` checks it; its
    nodes are then read as ``rights.Resolved.depletion`` reads its labels.
    """
    sl, j = _checked_target(state, license_id, sublicense_id, cp_id, request)
    sl_states, cp_states = state.slot(license_id, sublicense_id)
    if on_last_charge(sl.constraints, sl_states, request):
        return Depletion.SUBLICENSE_DEPLETES
    if on_last_charge(sl.cps[j].constraints, cp_states[j], request):
        return Depletion.CP_DEPLETES
    return Depletion.NONE
