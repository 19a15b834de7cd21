"""Rights accounting: what is exercisable now and what a selection would cost.

``rights`` counts one occurrence per permission per currently valid cp (a cp
grants each permission once), so it measures availability, not remaining
charges (a cp with ten charges left contributes each of its permissions
once).  It is the sum of ``sublicense_rights``: a sublicense's share reads
only its own node and its cps' nodes.

Target resolution is one walk of a license (``select_target``), which also
labels both target nodes; it is pure, and nothing is cached on the state.
The ``verify`` checks do not trust the allocator they check: their oracle
finds its candidates by its own ``candidates`` walk of the valid pairs, not
from the allocator's pool (see ``verify.oracle_losses``).
``resolve_candidates`` and ``candidates`` walk only the hosts of the
requested permission: ``LicenseSet.hosts`` reads them from a flat
``{Permission: (host licenses in declaration order)}`` index that the set
builds on first use, in one pass over its tree.  Within a host,
``select_target`` skips a sublicense with no cp granting the permission
before it reads any state, so only sublicenses that could serve the request
are read and labelled.  Hosts keep declaration order, so every tie-break is
the one a walk of every license would make.

Loss is measured at the instant of the request.  There a consume changes what
holds only by depletion (other charges leave a counter at one or more, and an
interval it starts holds at its own start), and only on the target's path.
``Resolved.depletion`` reads what it depletes off the target's labels, so
``loss`` builds no successor state: the permissions of the sublicense's
currently valid cps when the sublicense depletes, the target cp's permissions
when only the cp depletes, and nothing otherwise.  Which cps are valid is
read in one place, ``_valid_cps``, for ``rights``, ``candidates`` and that
loss alike.  ``remnants`` is ``rights`` minus that loss, and ``pool_losses``
prices a resolved pool, one target at a time.  A selection is lossy when its
loss exceeds ``Counter({request.permission: 1})``, that is, when it takes
more than the one requested occurrence with it.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Mapping, NamedTuple, Optional

from .engine import AgentState, Depletion, constraints_hold
from .errors import NotFoundError
from .labels import Label, Times, cp_label, sublicense_label
from .model import ConstraintPermissionSet, License, Request, SubLicense, Timestamp

RightsMultiset = Counter  # Permission -> multiplicity
Target = tuple[str, str]  # (sublicense id, cp id) a selection would consume


def _valid_cps(
    state: AgentState, license_id: str, sl: SubLicense, at: Timestamp
) -> Iterable[ConstraintPermissionSet]:
    """The sublicense's cps whose constraints, and the sublicense's own, all hold at ``at``; lazy in the cps."""
    sl_states, cp_states = state.slot(license_id, sl.id)
    if not constraints_hold(sl.constraints, sl_states, at):
        return ()
    return (cp for cp, states in zip(sl.cps, cp_states) if constraints_hold(cp.constraints, states, at))


class Resolved(NamedTuple):
    """A license's target for a request, with the current labels of both nodes.

    ``cp_index`` is the cp's index in ``sublicense.cps``, so that
    ``engine.execute`` can take the target without looking it up.
    """

    sublicense: SubLicense
    cp: ConstraintPermissionSet
    sublicense_label: Label
    cp_label: Label
    cp_index: int

    @property
    def target(self) -> Target:
        return self.sublicense.id, self.cp.id

    @property
    def depletion(self) -> Depletion:
        """What a use for the request the target was resolved for depletes.

        A resolved target holds, so each counter on its path has a charge
        left, and the use leaves one at zero exactly when it charges it on its
        last charge: ``engine.on_last_charge`` for the request, which is how
        both labels read ``times``.  A sublicense that depletes takes its cps.
        """
        if self.sublicense_label.times is Times.ONCE:
            return Depletion.SUBLICENSE_DEPLETES
        if self.cp_label.times is Times.ONCE:
            return Depletion.CP_DEPLETES
        return Depletion.NONE


def select_target(state: AgentState, lic: License, request: Request) -> Optional[Resolved]:
    """The target a selection of this license would consume, or None if it has none.

    Both nodes are labelled for this request, so a timed count the use is
    too short to charge does not make a node ``once``.  Among the
    sublicenses holding a valid matching cp, the one whose current label
    compares best wins; within it, the matching cp with the best label
    wins.  Ties go to declaration order.  A sublicense with no cp granting
    the permission is skipped before any of its states are read.

    ``lic`` is one of the state's licenses.  The answer depends only on the
    state, the license and the whole request, its instant and use duration
    included.
    """
    permission = request.permission
    options = []  # (sublicense label, sublicense, [(matching cp's index, its states)])
    for sl in lic.sublicenses:
        granting = [i for i, cp in enumerate(sl.cps) if permission in cp.permissions]
        if not granting:
            continue
        sl_states, cp_states = state.slot(lic.id, sl.id)
        if not constraints_hold(sl.constraints, sl_states, request.at):
            continue
        matching = [
            (i, cp_states[i]) for i in granting if constraints_hold(sl.cps[i].constraints, cp_states[i], request.at)
        ]
        if matching:
            options.append((sublicense_label(sl, sl_states, cp_states, request), sl, matching))
    if not options:
        return None
    # ``Label.key`` is the preference order: lower is better.
    sl_label, sl, matching = min(options, key=lambda option: option[0].key)
    labelled = ((i, cp_label(sl.cps[i], states, request)) for i, states in matching)
    i, cp_lbl = min(labelled, key=lambda pair: pair[1].key)
    return Resolved(sl, sl.cps[i], sl_label, cp_lbl, i)


def resolve_candidates(state: AgentState, request: Request) -> dict[str, Resolved]:
    """Every candidate license's resolved target, in declaration order.

    Only the licenses that host the requested permission are walked.
    """
    hosts = state.licenses.hosts(request.permission)
    pool = ((lic.id, select_target(state, lic, request)) for lic in hosts)
    return {lid: resolved for lid, resolved in pool if resolved is not None}


def candidates(state: AgentState, request: Request) -> list[str]:
    """Ids of licenses that can satisfy the request at its timestamp."""
    permission, at = request.permission, request.at
    return [
        lic.id
        for lic in state.licenses.hosts(permission)
        if any(permission in cp.permissions for sl in lic.sublicenses for cp in _valid_cps(state, lic.id, sl, at))
    ]


def sublicense_rights(state: AgentState, lic: License, sl: SubLicense, at: Timestamp) -> RightsMultiset:
    """The sublicense's share of ``rights``: it reads only the nodes of ``sl`` and its cps."""
    out: RightsMultiset = Counter()
    for cp in _valid_cps(state, lic.id, sl, at):
        out.update(cp.permissions)
    return out


def rights(state: AgentState, at: Timestamp) -> RightsMultiset:
    """Multiset of exercisable permissions, one occurrence per valid cp: the sum of every sublicense's share."""
    out: RightsMultiset = Counter()
    for lic in state.licenses:
        for sl in lic.sublicenses:
            out.update(sublicense_rights(state, lic, sl, at))
    return out


def _target_loss(
    state: AgentState, license_id: str, resolved: Resolved, request: Request
) -> RightsMultiset:
    """Rights lost at ``request.at`` by consuming the license's resolved target.

    It was resolved at this state for this request, so ``Resolved.depletion``
    prices it without a lookup or a successor state.  A depleting sublicense
    loses its valid cps, read through ``_valid_cps`` as ``rights`` reads them.
    """
    sl, depletion = resolved.sublicense, resolved.depletion
    if depletion is Depletion.NONE:
        return Counter()
    if depletion is Depletion.CP_DEPLETES:
        return Counter(resolved.cp.permissions)
    lost: RightsMultiset = Counter()
    for cp in _valid_cps(state, license_id, sl, request.at):
        lost.update(cp.permissions)
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
