"""Labels attached to sublicenses and constraint-permission sets.

A label is a (complexity, times, constraint) triple:

* ``times`` says whether the node survives another use: ``once`` means a
  counter the next use charges is on its last charge, so that use depletes
  the node.  A decision labels for its request (``rights.select_target`` and
  ``pair_discipline`` pass it), so a timed count counts only for a use of at
  least its timer; that label is the depletion lookahead ``loss`` reads
  (``rights.Resolved.depletion``).  Without a request (``state_labels``)
  every timed count is taken as charged (see ``engine.on_last_charge``).
* ``complexity`` says whether depleting the node would take more than the
  single requested permission with it.  For a cp that is simply "more than
  one permission granted".  For a sublicense it counts the permission
  occurrences of its not-yet-depleted cps: depleting the sublicense kills all
  of those at once.
* ``constraint`` names the best-ranked constraint present at the node itself
  (``true`` when the node has no constraints): the node's ``rank``, fixed
  when the node is built.

There are only 20 labels, and each is built once, at import, with its
preference ``key`` fixed on it.  ``cp_label`` and ``sublicense_label`` pick
one out of the table, so a call reads only ``times`` and complexity off the
current constraint states; ``table_label`` gives the entry for given fields,
which is how a corpus file's labels are read.  Labels are always derived from
the current constraint states, never stored with them, so they can not go
stale: relabelling after a consume is the identity.

The request-free labels of ``state_labels`` decide nothing.  Corpus files
store them as advisory caches, and ``licalloc simulate`` shows how a step
changed them; neither has one request to label for.  The neutrality
precondition reads them too, but campaign uses last
``verify.USAGE_DURATION``, longer than any generated timer, so every timed
count is charged and both readings agree.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Optional, Sequence

from .engine import AgentState, ConstraintState, NodeKey, depleted, on_last_charge
from .model import (
    ConstraintPermissionSet,
    Count,
    DateTime,
    Interval,
    Request,
    SubLicense,
    TimedCount,
    Unconstrained,
    _RANK,
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
# The constraint name a node's ``rank`` stands for, indexed by rank.
_NAME_BY_RANK = tuple(sorted(_NAME_RANK, key=_NAME_RANK.__getitem__))


@dataclass(frozen=True)
class Label:
    complexity: Complexity
    times: Times
    constraint: ConstraintName
    # Preference key, lower is better, fixed when the label is built: many beats
    # once, then simple beats complex (it loses only the requested permission),
    # then the better-ranked constraint wins.
    key: tuple[int, int, int] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        key = (
            0 if self.times is Times.MANY else 1,
            0 if self.complexity is Complexity.SIMPLE else 1,
            _NAME_RANK[self.constraint],
        )
        object.__setattr__(self, "key", key)

    def __str__(self) -> str:
        return f"{self.complexity.value}.{self.times.value}.{self.constraint.value}"

    @property
    def depleting_and_complex(self) -> bool:
        """The combination the proposed allocator filters out."""
        return self.times is Times.ONCE and self.complexity is Complexity.COMPLEX


# Every label, built once: ``_TABLE[complex][once][rank]``, where ``complex`` and
# ``once`` are bools (0 or 1) and ``rank`` indexes ``_NAME_BY_RANK``.
_TABLE = tuple(
    tuple(tuple(Label(complexity, times, name) for name in _NAME_BY_RANK) for times in (Times.MANY, Times.ONCE))
    for complexity in (Complexity.SIMPLE, Complexity.COMPLEX)
)


def table_label(complexity: Complexity, times: Times, constraint: ConstraintName) -> Label:
    """The table's one label with these fields."""
    return _TABLE[complexity is Complexity.COMPLEX][times is Times.ONCE][_NAME_RANK[constraint]]


def cp_label(
    cp: ConstraintPermissionSet,
    cp_states: Sequence[ConstraintState],
    request: Optional[Request] = None,
) -> Label:
    """Label of a constraint-permission set under the given constraint states.

    ``times`` is read for a use serving ``request``; without one it is the
    pessimistic reading.
    """
    return _TABLE[len(cp.permissions) != 1][on_last_charge(cp.constraints, cp_states, request)][cp.rank]


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
    return _TABLE[live_permissions > 1][on_last_charge(sl.constraints, sl_states, request)][sl.rank]


def state_labels(state: AgentState) -> dict[NodeKey, Label]:
    """Current labels of every sublicense and cp, keyed by (lid, slid, cpid|None).

    These labels know no request, so ``times`` is the pessimistic reading (a
    use that reaches every timer); the labels in corpus files are these.
    """
    out: dict[NodeKey, Label] = {}
    for lic in state.licenses:
        for sl in lic.sublicenses:
            sl_states, cp_states = state.slot(lic.id, sl.id)
            out[(lic.id, sl.id, None)] = sublicense_label(sl, sl_states, cp_states)
            for cp, states in zip(sl.cps, cp_states):
                out[(lic.id, sl.id, cp.id)] = cp_label(cp, states)
    return out

