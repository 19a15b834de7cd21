"""Rights accounting: what is exercisable now and what a selection would cost.

``rights`` counts one occurrence per permission per currently valid cp, so it
measures availability, not remaining charges (a cp with ten charges left
contributes each of its permissions once).  ``remnants`` recomputes that
multiset after consuming a request through a given license, and ``loss`` is
the multiset difference.  A selection is lossy when it takes strictly more
than the one requested occurrence with it.
"""

from __future__ import annotations

from collections import Counter
from typing import Optional

from .engine import AgentState, consume, cp_valid, sublicense_valid, constraints_hold
from .errors import NotFoundError
from .labels import cp_label, label_sort_key, sublicense_label
from .model import ConstraintPermissionSet, Request, SubLicense, Timestamp, sat_cp

RightsMultiset = Counter  # Permission -> multiplicity


def valid_matches(
    state: AgentState, license_id: str, request: Request
) -> list[tuple[SubLicense, ConstraintPermissionSet]]:
    """All (sublicense, cp) pairs of the license that match and are valid now."""
    out = []
    for sl in state.license(license_id).sublicenses:
        if not sublicense_valid(state, license_id, sl.id, request.at):
            continue
        for cp in sl.cps:
            if sat_cp(cp, request) and cp_valid(state, license_id, sl.id, cp.id, request.at):
                out.append((sl, cp))
    return out


def candidates(state: AgentState, request: Request) -> list[str]:
    """Ids of licenses that can satisfy the request at its timestamp."""
    return [
        lic.id for lic in state.licenses if valid_matches(state, lic.id, request)
    ]


def select_target(state: AgentState, license_id: str, request: Request) -> tuple[str, str]:
    """(sublicense id, cp id) a selection of this license would consume.

    Among the sublicenses holding a valid matching cp, the one whose current
    label compares best wins; within it, the matching cp with the best label
    wins.  Ties go to declaration order.
    """
    cps_by_sublicense: dict[str, list[str]] = {}
    for sl, cp in valid_matches(state, license_id, request):
        cps_by_sublicense.setdefault(sl.id, []).append(cp.id)
    if not cps_by_sublicense:
        raise NotFoundError(
            f"license {license_id!r} has no valid permission matching the request"
        )
    sl_id = min(
        cps_by_sublicense,
        key=lambda sl: label_sort_key(sublicense_label(state, license_id, sl)),
    )
    cp_id = min(
        cps_by_sublicense[sl_id],
        key=lambda cp: label_sort_key(cp_label(state, license_id, sl_id, cp)),
    )
    return sl_id, cp_id


def rights(state: AgentState, at: Timestamp) -> RightsMultiset:
    """Multiset of exercisable permissions, one occurrence per valid cp."""
    out: RightsMultiset = Counter()
    for lic in state.licenses:
        for sl in lic.sublicenses:
            sl_states = state.sublicense_states(lic.id, sl.id)
            if not constraints_hold(sl.constraints, sl_states, at):
                continue
            for cp in sl.cps:
                if constraints_hold(cp.constraints, state.cp_states(lic.id, sl.id, cp.id), at):
                    out.update(cp.permissions)
    return out


def remnants(state: AgentState, license_id: str, request: Request) -> RightsMultiset:
    """Rights still exercisable after satisfying the request via this license."""
    sl_id, cp_id = select_target(state, license_id, request)
    after = consume(state, license_id, sl_id, cp_id, request)
    return rights(after, request.at)


def loss(state: AgentState, license_id: str, request: Request) -> RightsMultiset:
    """Rights that satisfying the request via this license makes unavailable."""
    return rights(state, request.at) - remnants(state, license_id, request)


def is_lossy(state: AgentState, license_id: str, request: Request) -> bool:
    """True iff the selection loses strictly more than the requested permission."""
    return loss(state, license_id, request) > Counter({request.permission: 1})


def candidate_losses(
    state: AgentState, request: Request, candidate_ids: Optional[list[str]] = None
) -> dict[str, RightsMultiset]:
    """Loss multiset of every candidate license for the request."""
    if candidate_ids is None:
        candidate_ids = candidates(state, request)
    base = rights(state, request.at)
    return {lid: base - remnants(state, lid, request) for lid in candidate_ids}
