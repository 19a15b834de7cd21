"""Labels attached to sublicenses and constraint-permission sets.

A label is a (complexity, times, constraint) triple:

* ``times`` says whether the node survives another use.  ``once`` means some
  counter at the node is down to its last charge, so the next use depletes
  it.  A decision labels for its request (``rights.select_target`` and the
  ``pair_discipline`` check pass it): a timed count is charged only by a use
  that lasts at least its timer.  Without a request (``state_labels``)
  timed counts are counted pessimistically, as if every use were long
  enough to take a charge (see ``engine.on_last_charge``).
* ``complexity`` says whether depleting the node would take more than the
  single requested permission with it.  For a cp that is simply "more than
  one permission granted".  For a sublicense it counts the permission
  occurrences of its not-yet-depleted cps: depleting the sublicense kills all
  of those at once.
* ``constraint`` names the best-ranked constraint present at the node itself
  (``true`` when the node has no constraints).

Labels are always derived from the current constraint states, never stored,
so they can not go stale: relabelling after a consume is the identity.

The request-free labels of ``state_labels`` decide nothing.  Corpus files
store them as advisory caches, and ``licalloc simulate`` shows how a step
changed them; neither has one request to label for.  The neutrality
precondition and the liveness assumption read them too, but campaign uses
last ``verify.USAGE_DURATION``, longer than any generated timer, so every
timed count is charged and both readings agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

from .engine import AgentState, ConstraintState, NodeKey, depleted, on_last_charge
from .model import (
    Constraint,
    ConstraintPermissionSet,
    Count,
    DateTime,
    Interval,
    Request,
    SubLicense,
    TimedCount,
    Unconstrained,
    _RANK,
    constraint_rank,
)


class Times(str, Enum):
    MANY = "many"
    ONCE = "once"


class Complexity(str, Enum):
    SIMPLE = "simple"
    COMPLEX = "complex"


class ConstraintName(str, Enum):
    TRUE = "true"
    DATETIME = "datetime"
    INTERVAL = "interval"
    TIMED_COUNT = "timed_count"
    COUNT = "count"


_NAME_BY_TYPE = {
    Unconstrained: ConstraintName.TRUE,
    DateTime: ConstraintName.DATETIME,
    Interval: ConstraintName.INTERVAL,
    TimedCount: ConstraintName.TIMED_COUNT,
    Count: ConstraintName.COUNT,
}

_NAME_RANK = {name: _RANK[kind] for kind, name in _NAME_BY_TYPE.items()}


@dataclass(frozen=True)
class Label:
    complexity: Complexity
    times: Times
    constraint: ConstraintName

    def __str__(self) -> str:
        return f"{self.complexity.value}.{self.times.value}.{self.constraint.value}"

    @property
    def depleting_and_complex(self) -> bool:
        """The combination the proposed allocator filters out."""
        return self.times is Times.ONCE and self.complexity is Complexity.COMPLEX


def dominant_constraint(constraints: Sequence[Constraint]) -> ConstraintName:
    """Name of the best-ranked constraint in the list, ``true`` when empty."""
    if not constraints:
        return ConstraintName.TRUE
    best = min(constraints, key=constraint_rank)
    return _NAME_BY_TYPE[type(best)]


def cp_label(
    cp: ConstraintPermissionSet,
    cp_states: Sequence[ConstraintState],
    request: Optional[Request] = None,
) -> Label:
    """Label of a constraint-permission set under the given constraint states.

    ``times`` is read for a use serving ``request``; without one it is the
    pessimistic reading.
    """
    complexity = Complexity.SIMPLE if len(cp.permissions) == 1 else Complexity.COMPLEX
    times = Times.ONCE if on_last_charge(cp.constraints, cp_states, request) else Times.MANY
    return Label(complexity, times, dominant_constraint(cp.constraints))


def sublicense_label(
    sl: SubLicense,
    sl_states: Sequence[ConstraintState],
    cp_states: Sequence[Sequence[ConstraintState]],
    request: Optional[Request] = None,
) -> Label:
    """Label of a sublicense; ``cp_states`` is aligned with ``sl.cps``.

    ``times`` is read as ``cp_label`` reads it.
    """
    live_permissions = sum(
        len(cp.permissions)
        for cp, states in zip(sl.cps, cp_states)
        if not depleted(cp.constraints, states)
    )
    complexity = Complexity.SIMPLE if live_permissions <= 1 else Complexity.COMPLEX
    times = Times.ONCE if on_last_charge(sl.constraints, sl_states, request) else Times.MANY
    return Label(complexity, times, dominant_constraint(sl.constraints))


def state_labels(state: AgentState) -> dict[NodeKey, Label]:
    """Current labels of every sublicense and cp, keyed by (lid, slid, cpid|None).

    These labels know no request, so ``times`` is the pessimistic reading (a
    use that reaches every timer); the labels in corpus files are these.
    """
    out: dict[NodeKey, Label] = {}
    for lic in state.licenses:
        for sl in lic.sublicenses:
            cp_states = [state.cp_states(lic.id, sl.id, cp.id) for cp in sl.cps]
            out[(lic.id, sl.id, None)] = sublicense_label(
                sl, state.sublicense_states(lic.id, sl.id), cp_states
            )
            for cp, states in zip(sl.cps, cp_states):
                out[(lic.id, sl.id, cp.id)] = cp_label(cp, states)
    return out


def label_sort_key(label: Label) -> tuple[int, int, int]:
    """Preference key, lower is better.

    A node that survives the use (many) beats one that depletes (once); among
    depleting nodes a simple one loses only the requested permission, so
    simple beats complex; remaining ties go to the better-ranked constraint.
    """
    return (
        0 if label.times is Times.MANY else 1,
        0 if label.complexity is Complexity.SIMPLE else 1,
        _NAME_RANK[label.constraint],
    )
