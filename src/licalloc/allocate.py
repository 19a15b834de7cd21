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

Each allocator resolves its candidates once, and its decision keeps that
``resolve_candidates`` pool (``pool``: every candidate's resolved target),
so whoever acts on the decision walks no license again; a prompt becomes a
choice through ``PromptRequired.choose``, which hands the choice the losses
the prompt priced (``Chosen.losses``), so they are not priced again.  The
pool and a choice's losses take no part in equality, hashing or repr; a
prompt's losses (a dict) take part in equality but not in its hash.
``allocate_and_execute`` executes a choice from its pool: the chosen
target's nodes go to ``engine.execute``, with no lookup by id.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional, Sequence, Union

from .engine import AgentState, execute
from .errors import ChooserContractError
from .labels import Times
from .model import Constraint, DateTime, Request, constraint_rank
from .rights import Resolved, RightsMultiset, pool_losses, resolve_candidates

DATETIME_TIEBREAKS = ("earliest", "furthest")


@dataclass(frozen=True)
class Chosen:
    license_id: str
    sublicense_id: str
    cp_id: str
    via_prompt: bool = False
    pool: Mapping[str, Resolved] = field(default_factory=dict, compare=False, repr=False)
    # Each candidate's loss, when a prompt priced the pool (None otherwise).
    losses: Optional[Mapping[str, RightsMultiset]] = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class PromptRequired:
    candidates: tuple[str, ...]
    losses: Mapping[str, RightsMultiset] = field(hash=False)
    pool: Mapping[str, Resolved] = field(default_factory=dict, compare=False, repr=False)

    def choose(self, license_id: str) -> Chosen:
        """The decision the user (or a chooser) makes by picking ``license_id``."""
        if license_id not in self.candidates:
            raise ChooserContractError(f"chooser returned {license_id!r}, not a candidate")
        return Chosen(
            license_id, *self.pool[license_id].target, via_prompt=True, pool=self.pool, losses=self.losses
        )


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
    # expires.  The "furthest" mode inverts this.  An end stays an int, which
    # Python compares with a float exactly: float() would overflow past 1e308.
    if not isinstance(constraint, DateTime):
        return (constraint_rank(constraint), 0.0)
    end = math.inf if constraint.end is None else constraint.end
    return (constraint_rank(constraint), end if tiebreak == "earliest" else -end)


def _list_key(constraints: Sequence[Constraint], tiebreak: str) -> tuple[int, float]:
    """Best (rank, expiry) over a constraint list; empty lists act unconstrained."""
    if not constraints:
        return (0, 0.0)
    return min(_constraint_key(c, tiebreak) for c in constraints)


def _best_ranked(pool: Mapping[str, Resolved], tiebreak: str) -> str:
    """The id of the best-ranked candidate of a non-empty {license id: resolved target} map.

    The written rules rank a right by the best constraint in its full
    governing conjunction.  Ties are broken structurally: the constraint
    carried by the sublicense scopes the whole branch, so it outweighs one
    local to the cp; after that, declaration order decides (the map is in
    declaration order and ``min`` keeps the first of equal keys).
    """

    def key(license_id: str) -> tuple:
        sl, cp = pool[license_id].sublicense, pool[license_id].cp
        return (
            _list_key(sl.constraints + cp.constraints, tiebreak),
            _list_key(sl.constraints, tiebreak),
            _list_key(cp.constraints, tiebreak),
        )

    return min(pool, key=key)


def oma_allocate(
    state: AgentState,
    request: Request,
    *,
    datetime_tiebreak: str = "earliest",
) -> AllocationDecision:
    """Baseline allocation: best-ranked valid candidate, no loss awareness."""
    _check_tiebreak(datetime_tiebreak)
    pool = resolve_candidates(state, request)
    if not pool:
        return NoMatch()
    best = _best_ranked(pool, datetime_tiebreak)
    return Chosen(best, *pool[best].target, pool=pool)


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
    pool = resolve_candidates(state, request)
    if not pool:
        return NoMatch()
    if len(pool) == 1:
        ((lid, resolved),) = pool.items()
        return Chosen(lid, *resolved.target, pool=pool)

    survivors = {
        lid: r
        for lid, r in pool.items()
        if not (r.sublicense_label.depleting_and_complex or r.cp_label.depleting_and_complex)
    }
    if survivors:
        non_depleting = {
            lid: r
            for lid, r in survivors.items()
            if r.sublicense_label.times is Times.MANY and r.cp_label.times is Times.MANY
        }
        best = _best_ranked(non_depleting or survivors, datetime_tiebreak)
        return Chosen(best, *pool[best].target, pool=pool)

    prompt = PromptRequired(tuple(pool), pool_losses(state, request, pool), pool)
    if chooser is not None:
        return prompt.choose(chooser(request, prompt.candidates, prompt.losses))
    return prompt


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
        return proposed_allocate(state, request, chooser=chooser, datetime_tiebreak=datetime_tiebreak)
    raise ValueError(f"unknown algorithm {algorithm!r}")


def allocate_and_execute(
    state: AgentState,
    request: Request,
    *,
    algorithm: str = "proposed",
    chooser: Optional[Chooser] = None,
    datetime_tiebreak: str = "earliest",
) -> tuple[AllocationDecision, AgentState]:
    """Allocate and, on a definite choice, execute it.

    The chosen target was resolved at ``state`` for ``request``, so it
    matches and holds: its nodes, read from the decision's pool, go to
    ``engine.execute`` with no lookup by id and no second check.  The
    successor equals what ``consume`` by the decision's ids would return.
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
        target = decision.pool[decision.license_id]
        state = execute(state, decision.license_id, target.sublicense, target.cp_index, request)
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
