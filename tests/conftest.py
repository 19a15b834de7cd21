from collections import Counter

import pytest

from licalloc.cases import (
    REQUEST_AT,
    all_lossy_licenses,
    case_studies,
    mixed_branch_license,
)
from licalloc.engine import constraints_hold, initial_state
from licalloc.model import Action, LicenseSet, Permission, Request


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


def perm(action, content) -> Permission:
    return Permission(Action(action), content)
