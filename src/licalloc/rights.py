"""Rights accounting: what is exercisable now and what a selection would cost.

``rights`` counts one occurrence per permission per currently valid cp (a cp
grants each permission once), so it measures availability, not remaining
charges (a cp with ten charges left contributes each of its permissions
once).

Target resolution is one walk of a license (``select_target``), which also
labels both target nodes.  The ``verify`` checks do not trust the allocator
they check: their oracle, built once per decision, maps each license id that
``candidates`` finds to its ``loss``.  ``resolve_candidates`` and
``candidates`` walk only the hosts of the requested permission:
``LicenseSet.hosts`` reads them from a flat ``{Permission: (host licenses in
declaration order)}`` index that the set builds on first use, in one pass
over its tree.  Within a host, ``select_target`` skips a sublicense with no
cp granting the permission before it reads any state, so only sublicenses
that could serve the request are read and labelled.  Hosts keep declaration
order, so every tie-break is the one a walk of every license would make.

Loss is measured at the instant of the request.  There a consume changes what
holds only by depletion (see ``engine.node_depletion``), and only on the
target's path, so ``loss`` reads it off that path without building the
successor state: the permissions of the sublicense's currently valid cps when
the sublicense depletes, the target cp's permissions when only the cp
depletes, and nothing otherwise.  ``remnants`` is ``rights`` minus that loss,
and ``pool_losses`` prices a resolved pool, one target at a time.  A
selection is lossy when its loss exceeds ``Counter({request.permission: 1})``,
that is, when it takes more than the one requested occurrence with it.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterator, Mapping, NamedTuple, Optional

from .engine import AgentState, Depletion, constraints_hold, node_depletion
from .errors import NotFoundError
from .labels import Label, cp_label, label_sort_key, sublicense_label
from .model import ConstraintPermissionSet, License, Request, SubLicense, Timestamp

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


class Resolved(NamedTuple):
    """A license's target for a request, with the current labels of both nodes."""

    sublicense: SubLicense
    cp: ConstraintPermissionSet
    sublicense_label: Label
    cp_label: Label

    @property
    def target(self) -> Target:
        return self.sublicense.id, self.cp.id


def select_target(state: AgentState, lic: License, request: Request) -> Optional[Resolved]:
    """The target a selection of this license would consume, or None if it has none.

    Both nodes are labelled for this request, so a timed count the use is
    too short to charge does not make a node ``once``.  Among the
    sublicenses holding a valid matching cp, the one whose current label
    compares best wins; within it, the matching cp with the best label
    wins.  Ties go to declaration order.  A sublicense with no cp granting
    the permission is skipped before any of its states are read.
    """
    permission = request.permission
    options = []  # (sublicense label, sublicense, [(matching cp, its states)])
    for sl in lic.sublicenses:
        granting = [i for i, cp in enumerate(sl.cps) if permission in cp.permissions]
        if not granting:
            continue
        sl_states = state.sublicense_states(lic.id, sl.id)
        if not constraints_hold(sl.constraints, sl_states, request.at):
            continue
        cp_states = [state.cp_states(lic.id, sl.id, cp.id) for cp in sl.cps]
        matching = [
            (sl.cps[i], cp_states[i])
            for i in granting
            if constraints_hold(sl.cps[i].constraints, cp_states[i], request.at)
        ]
        if matching:
            options.append((sublicense_label(sl, sl_states, cp_states, request), sl, matching))
    if not options:
        return None
    sl_label, sl, matching = min(options, key=lambda option: label_sort_key(option[0]))
    labelled = ((cp, cp_label(cp, states, request)) for cp, states in matching)
    cp, cp_lbl = min(labelled, key=lambda pair: label_sort_key(pair[1]))
    return Resolved(sl, cp, sl_label, cp_lbl)


def resolve_candidates(state: AgentState, request: Request) -> dict[str, Resolved]:
    """Every candidate license's resolved target, in declaration order.

    Only the licenses that host the requested permission are walked.
    """
    hosts = state.licenses.hosts(request.permission)
    pool = ((lic.id, select_target(state, lic, request)) for lic in hosts)
    return {lid: resolved for lid, resolved in pool if resolved is not None}


def candidates(state: AgentState, request: Request) -> list[str]:
    """Ids of licenses that can satisfy the request at its timestamp."""
    return [
        lic.id
        for lic in state.licenses.hosts(request.permission)
        if any(request.permission in cp.permissions for _, cp in _valid_pairs(state, lic, request.at))
    ]


def rights(state: AgentState, at: Timestamp) -> RightsMultiset:
    """Multiset of exercisable permissions, one occurrence per valid cp."""
    out: RightsMultiset = Counter()
    for lic in state.licenses:
        for _, cp in _valid_pairs(state, lic, at):
            out.update(cp.permissions)
    return out


def _target_loss(
    state: AgentState, license_id: str, resolved: Resolved, request: Request
) -> RightsMultiset:
    """Rights lost at ``request.at`` by consuming the license's resolved target.

    The target was resolved at this state, so it is priced by its nodes,
    without looking it up or checking it again.
    """
    sl, cp = resolved.sublicense, resolved.cp
    depletion = node_depletion(state, license_id, sl, cp, request)
    if depletion is Depletion.NONE:
        return Counter()
    if depletion is Depletion.CP_DEPLETES:
        return Counter(cp.permissions)
    lost: RightsMultiset = Counter()
    for other in sl.cps:
        if constraints_hold(other.constraints, state.cp_states(license_id, sl.id, other.id), request.at):
            lost.update(other.permissions)
    return lost


def loss(state: AgentState, license_id: str, request: Request) -> RightsMultiset:
    """Rights that satisfying the request via this license makes unavailable."""
    resolved = select_target(state, state.license(license_id), request)
    if resolved is None:
        raise NotFoundError(f"license {license_id!r} has no valid permission matching the request")
    return _target_loss(state, license_id, resolved, request)


def remnants(state: AgentState, license_id: str, request: Request) -> RightsMultiset:
    """Rights still exercisable after satisfying the request via this license."""
    return rights(state, request.at) - loss(state, license_id, request)


def pool_losses(
    state: AgentState, request: Request, pool: Mapping[str, Resolved]
) -> dict[str, RightsMultiset]:
    """Loss multiset of each resolved candidate of ``resolve_candidates``'s pool."""
    return {lid: _target_loss(state, lid, resolved, request) for lid, resolved in pool.items()}
