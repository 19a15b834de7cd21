"""The names the per-layer trace times are the code each decision runs.

``bench/tracing.py`` rebinds a traced function in every loaded ``licalloc``
module namespace that holds it.  A name that no decision reaches reads 0
calls and hides its work in the caller's self time, so this test rebinds the
same way and requires each name to run.
"""

import sys
from collections import defaultdict

import pytest

from licalloc.allocate import Chosen, allocate, min_loss_chooser
from licalloc.cases import REQUEST_AT, all_lossy_licenses, case_studies
from licalloc.engine import consume, initial_state
from licalloc.model import Action, Request

TRACED = (
    ("licalloc.labels", "sublicense_label"),
    ("licalloc.labels", "cp_label"),
    ("licalloc.rights", "select_target"),
    ("licalloc.engine", "cp_valid"),
)

INPUTS = [(case.licenses, case.request) for case in case_studies()] + [
    (all_lossy_licenses(), Request(Action.PLAY, "song-a", at=REQUEST_AT))
]


@pytest.mark.parametrize("algorithm", ["oma", "proposed"])
def test_each_decision_runs_every_traced_name(algorithm, monkeypatch):
    calls = defaultdict(list)  # traced name -> argument tuple of each call
    for module_name, name in TRACED:
        original = getattr(sys.modules[module_name], name)

        def recording(*args, _name=name, _original=original):
            calls[_name].append(args)
            return _original(*args)

        for loaded_name, module in list(sys.modules.items()):
            if loaded_name == "licalloc" or loaded_name.startswith("licalloc."):
                for key, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, key, recording)

    for licenses, request in INPUTS:
        state = initial_state(licenses)
        calls.clear()
        decision = allocate(state, request, algorithm=algorithm, chooser=min_loss_chooser)
        assert isinstance(decision, Chosen) and decision.pool
        walked = [args[1].id for args in calls["select_target"]]
        assert walked == [lic.id for lic in licenses.hosts(request.permission)]
        for resolved in decision.pool.values():
            assert any(args[0] is resolved.sublicense for args in calls["sublicense_label"])
            assert any(args[0] is resolved.cp for args in calls["cp_label"])
        calls.clear()
        consume(state, decision.license_id, decision.sublicense_id, decision.cp_id, request)
        assert len(calls["cp_valid"]) == 1
