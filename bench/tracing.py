"""Span and call-count tracing of the licalloc layers, from outside the package.

``Tracer.install`` rebinds each traced function in every loaded ``licalloc``
module namespace (and in module-level dicts such as ``verify.CHECKS``) that
holds it, and the traced methods on their classes; ``Tracer.uninstall``
restores the originals.  Nothing under ``src/`` knows it is being traced.

A timed function records one span per call: name, start and end
(``perf_counter_ns``), the index of the enclosing span and the operation id.
Count-only functions (the hot lookups) just bump a counter.  ``fold`` adds a
finished pass's spans to the per-function totals; the first pass's spans
stay in memory until ``write_spans`` is called at the end of the run.
"""

from __future__ import annotations

import gzip
import json
import sys
from collections import Counter
from time import perf_counter_ns

# Traced name -> (module, attribute); "Class.method" attributes are methods.
TIMED = {
    "corpus.parse_corpus": ("licalloc.corpus", "parse_corpus"),
    "engine.initial_state": ("licalloc.engine", "initial_state"),
    "engine.consume": ("licalloc.engine", "consume"),
    "engine.is_depleting": ("licalloc.engine", "is_depleting"),
    "labels.sublicense_label": ("licalloc.labels", "sublicense_label"),
    "labels.cp_label": ("licalloc.labels", "cp_label"),
    "labels.state_labels": ("licalloc.labels", "state_labels"),
    "rights.candidates": ("licalloc.rights", "candidates"),
    "rights.select_target": ("licalloc.rights", "select_target"),
    "rights.rights": ("licalloc.rights", "rights"),
    "rights.remnants": ("licalloc.rights", "remnants"),
    "rights.loss": ("licalloc.rights", "loss"),
    "allocate.oma_allocate": ("licalloc.allocate", "oma_allocate"),
    "allocate.proposed_allocate": ("licalloc.allocate", "proposed_allocate"),
    "verify.document": ("licalloc.verify", "InstanceGenerator.document"),
    "verify.check_selection_soundness": ("licalloc.verify", "check_selection_soundness"),
    "verify.check_weak_minimal_loss": ("licalloc.verify", "check_weak_minimal_loss"),
    "verify.color_step": ("licalloc.verify", "color_step"),
    "verify.shrink_document": ("licalloc.verify", "shrink_document"),
}

# Hot functions: counted, never timed.  Every AgentState id lookup is a
# linear scan, so the three lookup methods together form ``engine.lookup``.
COUNTED = {
    "engine.lookup": [
        ("licalloc.engine", "AgentState.license"),
        ("licalloc.engine", "AgentState.sublicense"),
        ("licalloc.engine", "AgentState.cp"),
    ],
    "engine.cp_valid": [("licalloc.engine", "cp_valid")],
}

ALLOCATORS = ("allocate.oma_allocate", "allocate.proposed_allocate")

RATIOS = (
    "rights.select_target.calls_per_candidate",
    "engine.consume.speculative_share",
    "allocate.prompt_share",
    "allocate.no_match_share",
    "allocate.pool_size_mean",
    "verify.soundness.single_candidate_share",
)


def per_layer_names() -> list[tuple[str, str]]:
    """(metric name, unit) of every per-layer metric, in report order."""
    out = []
    for name in TIMED:
        out.append((f"{name}.calls_per_op", "calls/op"))
        out.append((f"{name}.self_share", "share"))
    for name in COUNTED:
        out.append((f"{name}.calls_per_op", "calls/op"))
    units = {"allocate.pool_size_mean": "candidates", "rights.select_target.calls_per_candidate": "calls/candidate"}
    out.extend((name, units.get(name, "share")) for name in RATIOS)
    out.append(("trace_overhead", "ratio"))
    return out


def _resolve(module_name: str, attr: str):
    owner = sys.modules[module_name]
    if "." in attr:
        cls_name, attr = attr.split(".")
        owner = getattr(owner, cls_name)
    return owner, attr


class Tracer:
    """Records spans and counts while installed.

    A span named in ``op_spans`` opens a new operation unless another such
    span is already open (``proposed_allocate`` calling ``oma_allocate``).
    """

    def __init__(self, op_spans: tuple[str, ...]):
        self.op_spans = op_spans
        self.names = list(TIMED)
        self.spans: list = []  # (name index, start ns, end ns, parent index, op id)
        self.counts: Counter = Counter()
        self.op_id = 0
        self.decisions = Counter()  # top-level allocator outcomes
        self.pool_sizes: list[int] = []
        self.speculative_consumes = 0
        self.soundness_cases: Counter = Counter()
        self.calls: Counter = Counter()  # folded totals per name index
        self.self_ns: Counter = Counter()
        self.first_pass: list = []
        self._open: list[tuple[int, str]] = []  # (span index, name) of open spans
        self._patches: list = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        for index, (name, (module_name, attr)) in enumerate(TIMED.items()):
            self._rebind(module_name, attr, self._timed(index, name, self._observer(name)))
        for name, targets in COUNTED.items():
            for module_name, attr in targets:
                self._rebind(module_name, attr, self._counted(name))

    def uninstall(self) -> None:
        for restore in reversed(self._patches):
            restore()
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _rebind(self, module_name: str, attr: str, make_wrapper) -> None:
        owner, attr = _resolve(module_name, attr)
        original = owner.__dict__[attr]
        wrapper = make_wrapper(original)
        if isinstance(owner, type):
            setattr(owner, attr, wrapper)
            self._patches.append(lambda: setattr(owner, attr, original))
            return
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "licalloc" or mod_name.startswith("licalloc.")):
                continue
            namespace = vars(mod)
            for key, value in list(namespace.items()):
                if value is original:
                    namespace[key] = wrapper
                    self._patches.append(lambda ns=namespace, k=key: ns.__setitem__(k, original))
                elif type(value) is dict:
                    for dkey, dvalue in list(value.items()):
                        if dvalue is original:
                            value[dkey] = wrapper
                            self._patches.append(lambda d=value, k=dkey: d.__setitem__(k, original))

    # -- wrappers -----------------------------------------------------------

    def _counted(self, name: str):
        counts = self.counts

        def make(original):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return original(*args, **kwargs)

            return wrapper

        return make

    def _timed(self, index: int, name: str, observe):
        spans, open_spans = self.spans, self._open
        op_spans = self.op_spans
        opens_op = name in op_spans

        def make(original):
            def wrapper(*args, **kwargs):
                parent = open_spans[-1] if open_spans else (-1, "")
                if opens_op and not any(n in op_spans for _, n in open_spans):
                    self.op_id += 1
                slot = len(spans)
                spans.append(None)
                open_spans.append((slot, name))
                start = perf_counter_ns()
                try:
                    result = original(*args, **kwargs)
                finally:
                    end = perf_counter_ns()
                    open_spans.pop()
                    spans[slot] = (index, start, end, parent[0], self.op_id)
                if observe is not None:
                    observe(parent[1], result)
                return result

            return wrapper

        return make

    # -- ratio observers ----------------------------------------------------

    def _open_allocators(self) -> int:
        return sum(n in ALLOCATORS for _, n in self._open)

    def _observer(self, name: str):
        if name in ALLOCATORS:

            def observe(parent, decision):
                if self._open_allocators():
                    return
                kind = type(decision).__name__
                if kind == "Chosen" and decision.via_prompt:
                    kind = "Prompt"
                self.decisions[kind] += 1

            return observe
        if name == "rights.candidates":

            def observe(parent, pool):
                # The pool of a decision is the first candidates() call made
                # directly by a top-level allocator.
                if parent in ALLOCATORS and self._open_allocators() == 1:
                    self.pool_sizes.append(len(pool))

            return observe
        if name == "engine.consume":

            def observe(parent, _):
                if parent == "rights.remnants":
                    self.speculative_consumes += 1

            return observe
        if name == "verify.check_selection_soundness":

            def observe(parent, result):
                self.soundness_cases[result.case] += 1

            return observe
        return None

    # -- results ------------------------------------------------------------

    def fold(self) -> None:
        """Add the spans recorded since the last fold to the totals.

        A span's self time is its duration minus its direct children's.
        """
        child_ns = Counter()
        for index, start, end, parent, _ in self.spans:
            self.calls[index] += 1
            self.self_ns[index] += end - start
            if parent >= 0:
                child_ns[parent] += end - start
        for slot, (index, *_rest) in enumerate(self.spans):
            self.self_ns[index] -= child_ns[slot]
        if not self.first_pass:
            self.first_pass = self.spans[:]
        self.spans.clear()

    def metrics(self, ops: int, traced_wall_s: float) -> dict[str, float]:
        """Per-layer metrics but ``trace_overhead``; the arguments cover the folded passes."""
        calls, self_ns = self.calls, self.self_ns
        wall_ns = traced_wall_s * 1e9
        out: dict[str, float] = {}
        for index, name in enumerate(self.names):
            out[f"{name}.calls_per_op"] = calls[index] / ops
            out[f"{name}.self_share"] = self_ns[index] / wall_ns
        for name in COUNTED:
            out[f"{name}.calls_per_op"] = self.counts[name] / ops
        pool_total = sum(self.pool_sizes)
        select_calls = calls[self.names.index("rights.select_target")]
        consumes = calls[self.names.index("engine.consume")]
        decisions = sum(self.decisions.values())
        soundness = sum(self.soundness_cases.values())
        out["rights.select_target.calls_per_candidate"] = select_calls / pool_total if pool_total else 0.0
        out["engine.consume.speculative_share"] = self.speculative_consumes / consumes if consumes else 0.0
        out["allocate.prompt_share"] = (
            (self.decisions["Prompt"] + self.decisions["PromptRequired"]) / decisions if decisions else 0.0
        )
        out["allocate.no_match_share"] = self.decisions["NoMatch"] / decisions if decisions else 0.0
        out["allocate.pool_size_mean"] = pool_total / len(self.pool_sizes) if self.pool_sizes else 0.0
        out["verify.soundness.single_candidate_share"] = (
            self.soundness_cases["single_candidate"] / soundness if soundness else 0.0
        )
        return out

    def write_spans(self, path) -> None:
        """Write the first pass's spans as one JSON object per line, gzipped."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for slot, (index, start, end, parent, op) in enumerate(self.first_pass):
                fh.write(
                    json.dumps(
                        {"id": slot, "name": self.names[index], "start_ns": start,
                         "end_ns": end, "parent": parent, "op": op}
                    )
                    + "\n"
                )
