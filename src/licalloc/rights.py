"""Rights accounting: what is exercisable now and what a selection would cost.

``rights`` counts one occurrence per permission per currently valid cp, so it
measures availability, not remaining charges (a cp with ten charges left
contributes each of its permissions once).  ``remnants`` recomputes that
multiset after consuming a request through a given license, and ``loss`` is
the multiset difference for one license.  ``candidate_losses`` prices a whole
pool: one ``rights`` walk for the base and one ``remnants`` per candidate.  A
selection is lossy when its loss exceeds ``Counter({request.permission: 1})``,
that is, when it takes more than the one requested occurrence with it.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterator, Sequence

from .engine import AgentState, consume, constraints_hold
from .errors import NotFoundError
from .labels import cp_label, label_sort_key, sublicense_label
from .model import ConstraintPermissionSet, License, Request, SubLicense, Timestamp, sat_cp

RightsMultiset = Counter  # Permission -> multiplicity


def _valid_pairs(
    state: AgentState, lic: License, at: Timestamp
) -> Iterator[tuple[SubLicense, ConstraintPermissionSet]]:
    """(sublicense, cp) pairs of the license whose constraints all hold at ``at``."""
    for sl in lic.sublicenses:
        if not constraints_hold(sl.constraints, state.sublicense_states(lic.id, sl.id), at):
            continue
        for cp in sl.cps:
            if constraints_hold(cp.constraints, state.cp_states(lic.id, sl.id, cp.id), at):
                yield sl, cp


def valid_matches(
    state: AgentState, license_id: str, request: Request
) -> list[tuple[SubLicense, ConstraintPermissionSet]]:
    """All (sublicense, cp) pairs of the license that match and are valid now."""
    return [
        (sl, cp)
        for sl, cp in _valid_pairs(state, state.license(license_id), request.at)
        if sat_cp(cp, request)
    ]


def candidates(state: AgentState, request: Request) -> list[str]:
    """Ids of licenses that can satisfy the request at its timestamp."""
    return [
        lic.id
        for lic in state.licenses
        if any(sat_cp(cp, request) for _, cp in _valid_pairs(state, lic, request.at))
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
        for _, cp in _valid_pairs(state, lic, at):
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


def candidate_losses(
    state: AgentState, request: Request, candidate_ids: Sequence[str]
) -> dict[str, RightsMultiset]:
    """Loss multiset of each listed candidate license for the request."""
    base = rights(state, request.at)
    return {lid: base - remnants(state, lid, request) for lid in candidate_ids}
