from collections import Counter

import pytest

from licalloc.cases import (
    REQUEST_AT,
    all_lossy_licenses,
    case_studies,
    mixed_branch_license,
)
from licalloc.engine import constraints_hold, consume, initial_state
from licalloc.model import Action, LicenseSet, Permission, Request
from licalloc.rights import select_target


@pytest.fixture
def deadline_case():
    """Two licenses over song A: one dies entirely on first use, one counts down."""
    return case_studies()[0]


@pytest.fixture
def deadline_state(deadline_case):
    return initial_state(deadline_case.licenses)


@pytest.fixture
def play_a():
    return Request(Action.PLAY, "song-a", at=REQUEST_AT)


@pytest.fixture
def all_lossy_state():
    return initial_state(all_lossy_licenses())


@pytest.fixture
def mixed_branch_state():
    return initial_state(LicenseSet([mixed_branch_license()]))


def brute_force_rights(state, at) -> Counter:
    """Independent enumeration of the exercisable-permission multiset.

    Deliberately re-walks the tree with plain loops instead of reusing
    rights(); used as the oracle the library implementation is checked
    against.
    """
    found = Counter()
    for lic in state.licenses:
        for sl in lic.sublicenses:
            if not constraints_hold(sl.constraints, state.cstate[(lic.id, sl.id, None)], at):
                continue
            for cp in sl.cps:
                if constraints_hold(cp.constraints, state.cstate[(lic.id, sl.id, cp.id)], at):
                    for p in cp.permissions:
                        found[p] += 1
    return found


def brute_force_loss(state, license_id, request) -> Counter:
    """Loss by copy, consume and recount: the oracle ``rights.loss`` is checked against.

    Builds the successor state of consuming the license's selected target and
    subtracts its ``brute_force_rights`` from the current ones.  Precondition:
    rights are measured at the instant of the request, so both counts are
    taken at ``request.at``.
    """
    sl_id, cp_id = select_target(state, license_id, request)
    after = consume(state, license_id, sl_id, cp_id, request)
    return brute_force_rights(state, request.at) - brute_force_rights(after, request.at)


def perm(action, content) -> Permission:
    return Permission(Action(action), content)
