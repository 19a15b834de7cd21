"""Rights accounting: what is exercisable now and what a selection would cost.

``rights`` counts one occurrence per permission per currently valid cp, so it
measures availability, not remaining charges (a cp with ten charges left
contributes each of its permissions once).

Loss is measured at the instant of the request.  There a consume changes what
holds only by depletion (see ``engine.is_depleting``), and only on the
target's path, so ``loss`` reads it off that path without building the
successor state: the permissions of the sublicense's currently valid cps when
the sublicense depletes, the target cp's permissions when only the cp
depletes, and nothing otherwise.  ``remnants`` is ``rights`` minus that loss,
and ``candidate_losses`` prices a whole pool, one target at a time.  A
selection is lossy when its loss exceeds ``Counter({request.permission: 1})``,
that is, when it takes more than the one requested occurrence with it.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterator, Mapping, Sequence, Union

from .engine import AgentState, Depletion, constraints_hold, is_depleting
from .errors import NotFoundError
from .labels import cp_label, label_sort_key, sublicense_label
from .model import ConstraintPermissionSet, License, Request, SubLicense, Timestamp, sat_cp

RightsMultiset = Counter  # Permission -> multiplicity
Target = tuple[str, str]  # (sublicense id, cp id) a selection would consume


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


def select_target(state: AgentState, license_id: str, request: Request) -> Target:
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


def _target_loss(
    state: AgentState, license_id: str, target: Target, request: Request
) -> RightsMultiset:
    """Rights lost at ``request.at`` by consuming the license's resolved target."""
    sl_id, cp_id = target
    depletion = is_depleting(state, license_id, sl_id, cp_id, request)
    if depletion is Depletion.NONE:
        return Counter()
    sl = state.sublicense(license_id, sl_id)
    if depletion is Depletion.CP_DEPLETES:
        return Counter(sl.cp(cp_id).permissions)
    lost: RightsMultiset = Counter()
    for cp in sl.cps:
        if constraints_hold(cp.constraints, state.cp_states(license_id, sl_id, cp.id), request.at):
            lost.update(cp.permissions)
    return lost


def loss(state: AgentState, license_id: str, request: Request) -> RightsMultiset:
    """Rights that satisfying the request via this license makes unavailable."""
    return _target_loss(state, license_id, select_target(state, license_id, request), request)


def remnants(state: AgentState, license_id: str, request: Request) -> RightsMultiset:
    """Rights still exercisable after satisfying the request via this license."""
    return rights(state, request.at) - loss(state, license_id, request)


def candidate_losses(
    state: AgentState, request: Request, pool: Union[Sequence[str], Mapping[str, Target]]
) -> dict[str, RightsMultiset]:
    """Loss multiset of each candidate license for the request.

    ``pool`` lists candidate ids, whose targets are resolved here, or maps
    each id to the target ``select_target`` already resolved for it.
    """
    targets = pool if isinstance(pool, Mapping) else {
        lid: select_target(state, lid, request) for lid in pool
    }
    return {lid: _target_loss(state, lid, target, request) for lid, target in targets.items()}
