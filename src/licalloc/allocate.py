"""The two allocation algorithms.

``oma_allocate`` is the baseline: rank every candidate license by the
constraints governing its matching right and take the best.  It never looks
at what else a selection destroys, which is exactly how it ends up burning
rights the user still wanted.

``proposed_allocate`` wraps the same ranking in label filters: candidates
whose matching sublicense or cp would deplete while carrying more than the
requested permission are set aside, and among the survivors one that does
not deplete at all is preferred.  If every candidate is in the destructive
class the decision is handed to the user (a prompt), because only the user
knows which rights they value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping, Optional, Sequence, Union

from .engine import AgentState, consume
from .errors import ChooserContractError
from .labels import Times, cp_label, sublicense_label
from .model import Constraint, DateTime, Request, constraint_rank
from .rights import RightsMultiset, candidate_losses, candidates, select_target

DATETIME_TIEBREAKS = ("earliest", "furthest")


@dataclass(frozen=True)
class Chosen:
    license_id: str
    sublicense_id: str
    cp_id: str
    via_prompt: bool = False


@dataclass(frozen=True)
class PromptRequired:
    candidates: tuple[str, ...]
    losses: Mapping[str, RightsMultiset]


@dataclass(frozen=True)
class NoMatch:
    pass


AllocationDecision = Union[Chosen, PromptRequired, NoMatch]

# Given (request, candidate ids, per-candidate losses), returns the id of the
# candidate to use.  May block on user input.
Chooser = Callable[[Request, Sequence[str], Mapping[str, RightsMultiset]], str]


def min_loss_chooser(request: Request, ids: Sequence[str], losses: Mapping[str, RightsMultiset]) -> str:
    """Deterministic stand-in for the user: smallest loss, ties by id."""
    return min(ids, key=lambda lid: (sum(losses[lid].values()), lid))


def _check_tiebreak(datetime_tiebreak: str) -> None:
    if datetime_tiebreak not in DATETIME_TIEBREAKS:
        raise ValueError(f"unknown datetime tiebreak {datetime_tiebreak!r}")


def _constraint_key(constraint: Constraint, tiebreak: str) -> tuple[int, float]:
    # An end-of-validity bound means the right is lost by waiting, so by
    # default the soonest-expiring one is used first; an absent end never
    # expires.  The "furthest" mode inverts this.
    if not isinstance(constraint, DateTime):
        return (constraint_rank(constraint), 0.0)
    end = math.inf if constraint.end is None else float(constraint.end)
    return (constraint_rank(constraint), end if tiebreak == "earliest" else -end)


def _list_key(constraints: Sequence[Constraint], tiebreak: str) -> tuple[int, float]:
    """Best (rank, expiry) over a constraint list; empty lists act unconstrained."""
    if not constraints:
        return (0, 0.0)
    return min(_constraint_key(c, tiebreak) for c in constraints)


def _best_ranked(
    state: AgentState, targets: Mapping[str, tuple[str, str]], tiebreak: str
) -> Chosen:
    """The best-ranked candidate of a non-empty {license id: (sublicense id, cp id)} map.

    The written rules rank a right by the best constraint in its full
    governing conjunction.  Ties are broken structurally: the constraint
    carried by the sublicense scopes the whole branch, so it outweighs one
    local to the cp; after that, declaration order decides (the map is in
    declaration order and ``min`` keeps the first of equal keys).
    """

    def key(license_id: str) -> tuple:
        sl_id, cp_id = targets[license_id]
        sl = state.sublicense(license_id, sl_id)
        cp = sl.cp(cp_id)
        return (
            _list_key(sl.constraints + cp.constraints, tiebreak),
            _list_key(sl.constraints, tiebreak),
            _list_key(cp.constraints, tiebreak),
        )

    best = min(targets, key=key)
    return Chosen(best, *targets[best])


def oma_allocate(
    state: AgentState, request: Request, *, datetime_tiebreak: str = "earliest"
) -> AllocationDecision:
    """Baseline allocation: best-ranked valid candidate, no loss awareness."""
    _check_tiebreak(datetime_tiebreak)
    targets = {lid: select_target(state, lid, request) for lid in candidates(state, request)}
    if not targets:
        return NoMatch()
    return _best_ranked(state, targets, datetime_tiebreak)


def proposed_allocate(
    state: AgentState,
    request: Request,
    *,
    chooser: Optional[Chooser] = None,
    datetime_tiebreak: str = "earliest",
) -> AllocationDecision:
    """Label-filtered allocation.

    1. Collect the valid candidates; none means NoMatch, a single one is
       returned as is (its loss, if any, is unavoidable).
    2. Drop candidates whose matching sublicense label is once+complex, then
       those whose matching cp label is once+complex: those selections would
       destroy rights beyond the request.
    3. If survivors remain, prefer the ones whose matching pair is many/many
       (provably deplete nothing) and run the baseline ranking on that pool.
    4. Otherwise every candidate costs the user something: prompt, or resolve
       through the supplied chooser.
    """
    _check_tiebreak(datetime_tiebreak)
    targets = {lid: select_target(state, lid, request) for lid in candidates(state, request)}
    if not targets:
        return NoMatch()
    if len(targets) == 1:
        ((lid, target),) = targets.items()
        return Chosen(lid, *target)

    labels = {
        lid: (sublicense_label(state, lid, sl_id), cp_label(state, lid, sl_id, cp_id))
        for lid, (sl_id, cp_id) in targets.items()
    }
    survivors = {
        lid: target
        for lid, target in targets.items()
        if not any(label.depleting_and_complex for label in labels[lid])
    }
    if survivors:
        non_depleting = {
            lid: target
            for lid, target in survivors.items()
            if all(label.times is Times.MANY for label in labels[lid])
        }
        return _best_ranked(state, non_depleting or survivors, datetime_tiebreak)

    pool = tuple(targets)
    losses = candidate_losses(state, request, list(pool))
    if chooser is not None:
        picked = chooser(request, pool, losses)
        if picked not in pool:
            raise ChooserContractError(f"chooser returned {picked!r}, not a candidate")
        return Chosen(picked, *targets[picked], via_prompt=True)
    return PromptRequired(pool, losses)


def allocate(
    state: AgentState,
    request: Request,
    *,
    algorithm: str = "proposed",
    chooser: Optional[Chooser] = None,
    datetime_tiebreak: str = "earliest",
) -> AllocationDecision:
    """Dispatch on the algorithm name ("oma" or "proposed")."""
    if algorithm == "oma":
        return oma_allocate(state, request, datetime_tiebreak=datetime_tiebreak)
    if algorithm == "proposed":
        return proposed_allocate(
            state, request, chooser=chooser, datetime_tiebreak=datetime_tiebreak
        )
    raise ValueError(f"unknown algorithm {algorithm!r}")


def allocate_and_execute(
    state: AgentState,
    request: Request,
    *,
    algorithm: str = "proposed",
    chooser: Optional[Chooser] = None,
    datetime_tiebreak: str = "earliest",
) -> tuple[AllocationDecision, AgentState]:
    """Allocate and, on a definite choice, consume it.

    NoMatch and an unresolved prompt leave the state unchanged.
    """
    decision = allocate(
        state,
        request,
        algorithm=algorithm,
        chooser=chooser,
        datetime_tiebreak=datetime_tiebreak,
    )
    if isinstance(decision, Chosen):
        state = consume(state, decision.license_id, decision.sublicense_id, decision.cp_id, request)
    return decision, state


__all__ = [
    "AllocationDecision",
    "Chooser",
    "Chosen",
    "NoMatch",
    "PromptRequired",
    "allocate",
    "allocate_and_execute",
    "min_loss_chooser",
    "oma_allocate",
    "proposed_allocate",
]
