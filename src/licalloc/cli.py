"""Command line front end.

Commands: ``label`` (validate and relabel a corpus), ``allocate`` (run one
request), ``simulate`` (replay a corpus's request script), ``verify`` (run
property campaigns) and ``cases`` (reproduce the bundled case studies).

Each command accepts only the options it reads.  Exit codes: 0 success, 1
usage, I/O or parse/schema error, 2 label mismatch in strict mode, 3
unresolved prompt, 4 no matching license, 5 property or case failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from collections import Counter
from datetime import datetime, timezone
from typing import Mapping, Sequence

from . import cases as case_fixtures
from .allocate import Chosen, NoMatch, PromptRequired, allocate, allocate_and_execute, min_loss_chooser
from .corpus import CorpusDocument, LabelMismatchError, load_corpus, serialize_corpus
from .engine import initial_state
from .errors import LicallocError
from .labels import state_labels
from .model import Action, Request
from .rights import RightsMultiset, pool_losses, rights
from .verify import (
    CHECKS,
    LIVENESS_CAPS,
    SEED_STRIDE,
    GeneratorCaps,
    InstanceGenerator,
    color_step,
    fuzz_campaign,
    run_liveness_campaign,
    run_neutrality_campaign,
)

EXIT_OK = 0
EXIT_LOAD = 1
EXIT_LABEL_MISMATCH = 2
EXIT_PROMPT = 3
EXIT_NO_MATCH = 4
EXIT_PROPERTY = 5


def parse_time(value: str) -> int:
    """Epoch seconds, not before 1970, from an integer literal or an ISO-8601 timestamp."""
    try:
        seconds = int(value)
    except ValueError:
        try:
            parsed = datetime.fromisoformat(value.replace("Z", "+00:00"))
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer or ISO-8601 timestamp: {value!r}")
        if parsed.tzinfo is None:
            parsed = parsed.replace(tzinfo=timezone.utc)
        seconds = int(parsed.timestamp())
    if seconds < 0:
        raise argparse.ArgumentTypeError(f"time before 1970-01-01: {value!r}")
    return seconds


def non_negative_int(value: str) -> int:
    try:
        number = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {value!r}")
    if number < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {number}")
    return number


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="licalloc", description="License allocation engine and property checker"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_label = sub.add_parser("label", help="validate a corpus and print it with labels")
    p_label.add_argument("corpus")
    p_label.set_defaults(func=cmd_label)

    p_alloc = sub.add_parser("allocate", help="allocate one request against a corpus")
    p_alloc.add_argument("corpus")
    p_alloc.add_argument("action", choices=[a.value for a in Action])
    p_alloc.add_argument("content")
    p_alloc.add_argument("--duration", type=non_negative_int, default=0, help="usage duration in seconds")
    interactive = p_alloc.add_mutually_exclusive_group()
    interactive.add_argument(
        "--interactive", dest="interactive", action="store_true", default=False
    )
    interactive.add_argument("--no-interactive", dest="interactive", action="store_false")
    p_alloc.set_defaults(func=cmd_allocate)

    p_sim = sub.add_parser("simulate", help="replay the corpus's request script")
    p_sim.add_argument("corpus")
    p_sim.set_defaults(func=cmd_simulate)

    p_verify = sub.add_parser("verify", help="run property campaigns on generated instances")
    p_verify.add_argument(
        "--checks",
        default="soundness,minimal_loss",
        help="comma list from: " + ", ".join([*CHECKS, "neutrality", "liveness"]),
    )
    p_verify.add_argument("--trials", type=int, default=1000)
    p_verify.add_argument("--seed", type=int, default=0)
    # Unset caps keep each campaign's own defaults (GeneratorCaps, LIVENESS_CAPS).
    p_verify.add_argument("--max-licenses", type=int)
    p_verify.add_argument("--max-sublicenses", type=int)
    p_verify.add_argument("--max-cps", type=int)
    p_verify.add_argument("--max-permissions", type=int)
    p_verify.add_argument("--max-count", type=int)
    p_verify.add_argument("--max-requests", type=int)
    p_verify.add_argument("--dump-failures", metavar="DIR", default=None)
    p_verify.set_defaults(func=cmd_verify)

    p_cases = sub.add_parser("cases", help="reproduce the bundled case studies")
    p_cases.add_argument("--dump-corpora", metavar="DIR", default=None)
    p_cases.set_defaults(func=cmd_cases)

    # Options several commands read; each command takes only those it reads.
    for p in (p_label, p_alloc, p_sim):
        strict = p.add_mutually_exclusive_group()
        strict.add_argument(
            "--strict-labels", dest="strict_labels", action="store_true", default=True
        )
        strict.add_argument("--no-strict-labels", dest="strict_labels", action="store_false")
    for p in (p_alloc, p_sim, p_verify):
        p.add_argument("--algorithm", choices=("oma", "proposed"), default="proposed")
    for p in (p_alloc, p_sim):
        p.add_argument("--datetime-tiebreak", choices=("earliest", "furthest"), default="earliest")
        p.add_argument(
            "--time",
            type=parse_time,
            default=None,
            help="request timestamp override (integer seconds or ISO-8601)",
        )
    for p in (p_alloc, p_sim, p_verify, p_cases):
        p.add_argument("--format", choices=("text", "json"), default="text")

    return parser


def _fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _load(args) -> CorpusDocument:
    return load_corpus(args.corpus, strict_labels=args.strict_labels)


def _emit_json(payload: dict) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def _rights_entries(multiset: Counter) -> list[dict]:
    return [
        {"action": p.action.value, "content": p.content, "count": n}
        for p, n in sorted(multiset.items())
    ]


def _rights_text(multiset: Counter) -> str:
    if not multiset:
        return "(none)"
    return ", ".join(f"{p.action.value} {p.content} x{n}" for p, n in sorted(multiset.items()))


# --- label ------------------------------------------------------------------


def cmd_label(args) -> int:
    sys.stdout.write(serialize_corpus(_load(args)).decode("utf-8"))
    return EXIT_OK


# --- allocate ---------------------------------------------------------------


def _prompt_user(request: Request, ids: Sequence[str], losses: Mapping[str, RightsMultiset]) -> str:
    """A ``Chooser`` that asks the terminal; raises EOFError when input ends first."""
    print("every candidate loses rights beyond the request; pick one:")
    for i, lid in enumerate(ids, 1):
        print(f"  [{i}] {lid}  would lose: {_rights_text(losses[lid])}")
    while True:
        answer = input(f"license for {request.action.value} {request.content} [1-{len(ids)}]: ").strip()
        if answer in ids:
            return answer
        if answer.isdigit() and 1 <= int(answer) <= len(ids):
            return ids[int(answer) - 1]
        print(f"pick 1-{len(ids)} or a license id")


def cmd_allocate(args) -> int:
    doc = _load(args)
    at = args.time if args.time is not None else 0
    request = Request(Action(args.action), args.content, at=at, usage_duration=args.duration)
    state = initial_state(doc.licenses)
    try:
        decision, after = allocate_and_execute(
            state, request, algorithm=args.algorithm, datetime_tiebreak=args.datetime_tiebreak,
            chooser=_prompt_user if args.interactive else None,
        )
    except EOFError:
        return EXIT_PROMPT

    if isinstance(decision, NoMatch):
        if args.format == "json":
            _emit_json({"decision": "no_match", "candidates": []})
        else:
            print("no installed license satisfies the request")
        return EXIT_NO_MATCH

    if isinstance(decision, PromptRequired):
        if args.format == "json":
            _emit_json(
                {
                    "decision": "prompt_required",
                    "candidates": list(decision.candidates),
                    "losses": {
                        lid: _rights_entries(decision.losses[lid]) for lid in decision.candidates
                    },
                }
            )
        else:
            print("user choice required; candidates:")
            for lid in decision.candidates:
                print(f"  {lid}  would lose: {_rights_text(decision.losses[lid])}")
        return EXIT_PROMPT

    losses = decision.losses if decision.losses is not None else pool_losses(state, request, decision.pool)
    pool = list(decision.pool)
    remaining = rights(after, request.at)
    if args.format == "json":
        _emit_json(
            {
                "decision": "chosen",
                "algorithm": args.algorithm,
                "license": decision.license_id,
                "sublicense": decision.sublicense_id,
                "cp": decision.cp_id,
                "via_prompt": decision.via_prompt,
                "candidates": pool,
                "losses": {lid: _rights_entries(losses[lid]) for lid in pool},
                "rights_after": _rights_entries(remaining),
            }
        )
    else:
        print(f"chosen: {decision.license_id} / {decision.sublicense_id} / {decision.cp_id}")
        for lid in pool:
            marker = "*" if lid == decision.license_id else " "
            print(f"  {marker} {lid}  would lose: {_rights_text(losses[lid])}")
        print(f"rights after execution: {_rights_text(remaining)}")
    return EXIT_OK


# --- simulate ---------------------------------------------------------------


def cmd_simulate(args) -> int:
    doc = _load(args)
    requests = list(doc.requests)
    if args.time is not None:
        requests = [
            Request(r.action, r.content, at=args.time, usage_duration=r.usage_duration)
            for r in requests
        ]
    state = initial_state(doc.licenses)
    initial = rights(state, requests[0].at if requests else args.time or 0)
    black: frozenset = frozenset()
    labels = state_labels(state)
    final = initial
    steps: list[dict] = []
    rights_after: dict[int, Counter] = {}  # step -> rights after it, for the text view
    exit_code = EXIT_OK

    for i, request in enumerate(requests, 1):
        entry: dict = {
            "step": i,
            "request": {
                "action": request.action.value,
                "content": request.content,
                "at": request.at,
                "usage_duration": request.usage_duration,
            },
        }
        decision, after = allocate_and_execute(
            state,
            request,
            algorithm=args.algorithm,
            chooser=min_loss_chooser,
            datetime_tiebreak=args.datetime_tiebreak,
        )
        if isinstance(decision, Chosen) and decision.via_prompt:
            entry["resolved_by_default_chooser"] = True
        if isinstance(decision, NoMatch):
            entry["decision"] = "no_match"
            steps.append(entry)
            exit_code = EXIT_NO_MATCH
            final = rights(state, request.at)
            break
        entry["decision"] = {
            "license": decision.license_id,
            "sublicense": decision.sublicense_id,
            "cp": decision.cp_id,
            "via_prompt": decision.via_prompt,
        }
        entry["depletes"] = decision.pool[decision.license_id].depletion.value
        black |= color_step(state, decision, request)
        labels_after = state_labels(after)
        entry["label_updates"] = {
            "/".join(k for k in key if k): f"{labels[key]} -> {labels_after[key]}"
            for key in sorted(labels, key=lambda k: (k[0], k[1], k[2] or ""))
            if labels[key] != labels_after[key]
        }
        # A loss can take permissions that were not valid at the start; those are not listed.
        entry["black"] = [
            {"action": p.action.value, "content": p.content} for p in sorted(black) if p in initial
        ]
        state, labels = after, labels_after
        final = rights_after[i] = rights(state, request.at)
        entry["rights"] = _rights_entries(final)
        steps.append(entry)

    payload = {
        "algorithm": args.algorithm,
        "initial_rights": _rights_entries(initial),
        "steps": steps,
        "final_rights": _rights_entries(final),
    }
    if args.format == "json":
        _emit_json(payload)
    else:
        print(f"algorithm: {args.algorithm}")
        print(f"initial rights: {_rights_text(initial)}")
        for entry in steps:
            req = entry["request"]
            print(f"step {entry['step']}: {req['action']} {req['content']} @{req['at']}")
            if entry.get("decision") == "no_match":
                print("  no matching license; request not satisfiable")
                continue
            d = entry["decision"]
            suffix = " (resolved by default chooser)" if entry.get("resolved_by_default_chooser") else ""
            print(f"  chosen: {d['license']} / {d['sublicense']} / {d['cp']}{suffix}")
            print(f"  depletes: {entry['depletes']}")
            for node, change in entry["label_updates"].items():
                print(f"  label {node}: {change}")
            if entry["black"]:
                blacks = ", ".join(f"{b['action']} {b['content']}" for b in entry["black"])
                print(f"  black: {blacks}")
            print(f"  rights: {_rights_text(rights_after[entry['step']])}")
        print(f"final rights: {_rights_text(final)}")
    return exit_code


# --- verify -----------------------------------------------------------------


def cmd_verify(args) -> int:
    checks = [c.strip() for c in args.checks.split(",") if c.strip()]
    if not checks:
        return _fail(f"--checks names no check: {args.checks!r}", EXIT_LOAD)
    unknown = set(checks) - {*CHECKS, "neutrality", "liveness"}
    if unknown:
        return _fail(f"unknown checks: {sorted(unknown)}", EXIT_LOAD)
    if len(set(checks)) < len(checks):
        return _fail(f"a check is named more than once in {checks}", EXIT_LOAD)
    if args.trials < 1:
        return _fail(f"--trials must be >= 1, got {args.trials}", EXIT_LOAD)
    if args.trials > SEED_STRIDE:
        return _fail(f"--trials must be <= {SEED_STRIDE}, got {args.trials}", EXIT_LOAD)
    if args.seed < 0:
        return _fail(f"--seed must be >= 0, got {args.seed}", EXIT_LOAD)
    given = {k: v for k, v in vars(args).items() if k.startswith("max_") and v is not None}
    try:
        caps = dataclasses.replace(GeneratorCaps(), **given)
        liveness_caps = dataclasses.replace(LIVENESS_CAPS, **given)
    except ValueError as exc:
        return _fail(str(exc), EXIT_LOAD)
    if "neutrality" in checks and caps.max_count < 2:
        return _fail("the neutrality check needs --max-count >= 2", EXIT_LOAD)
    reports = []
    decision_checks = [c for c in checks if c in CHECKS]
    if decision_checks:
        generator = InstanceGenerator(caps, seed=args.seed, profile="general")
        reports.append(
            fuzz_campaign(generator, args.trials, decision_checks, algorithm=args.algorithm)
        )
    if "neutrality" in checks:
        reports.append(run_neutrality_campaign(caps, args.trials, args.seed))
    if "liveness" in checks:
        reports.append(
            run_liveness_campaign(
                liveness_caps, n=args.trials, seed=args.seed, algorithm=args.algorithm
            )
        )

    if args.dump_failures:
        os.makedirs(args.dump_failures, exist_ok=True)
        for report in reports:
            for ce in report.counterexamples:
                path = os.path.join(
                    args.dump_failures, f"ce-{report.campaign}-{ce.check}-{ce.trial}.json"
                )
                with open(path, "w", encoding="utf-8") as fh:
                    json.dump(ce.document, fh, indent=2)
                    fh.write("\n")

    failed = any(r.failed for r in reports)
    if args.format == "json":
        _emit_json({"reports": [r.to_json() for r in reports], "failed": failed})
    else:
        for r in reports:
            print(
                f"campaign {r.campaign} (algorithm={r.algorithm}, seed={r.seed}, trials={r.trials}):"
            )
            for name in r.checks:
                line = (
                    f"  {name}: {r.passes[name]} passed"
                    f" ({r.vacuous[name]} vacuous), {r.failures[name]} failed"
                )
                print(line)
            for ce in r.counterexamples:
                print(f"  counterexample: trial {ce.trial} step {ce.step} [{ce.check}/{ce.case}]")
    return EXIT_PROPERTY if failed else EXIT_OK


# --- cases ------------------------------------------------------------------


def cmd_cases(args) -> int:
    studies = case_fixtures.case_studies()
    if args.dump_corpora:
        os.makedirs(args.dump_corpora, exist_ok=True)
        extras = {
            "all-lossy": CorpusDocument(
                case_fixtures.all_lossy_licenses(),
                [Request(Action.PLAY, "song-a", at=case_fixtures.REQUEST_AT)],
            ),
        }
        for study in studies:
            extras[study.id] = CorpusDocument(study.licenses, [study.request])
        for name, doc in sorted(extras.items()):
            with open(os.path.join(args.dump_corpora, f"{name}.json"), "wb") as fh:
                fh.write(serialize_corpus(doc))

    rows = []
    all_ok = True
    for study in studies:
        state = initial_state(study.licenses)
        row = {"id": study.id, "title": study.title, "request": f"{study.request.action.value} {study.request.content}"}
        for algorithm in ("proposed", "oma"):
            decision = allocate(state, study.request, algorithm=algorithm)
            actual = decision.license_id if isinstance(decision, Chosen) else type(decision).__name__
            expected = study.expected[algorithm]
            ok = actual == expected
            all_ok = all_ok and ok
            row[algorithm] = {"expected": expected, "actual": actual, "match": ok}
        rows.append(row)

    if args.format == "json":
        _emit_json({"cases": rows, "all_match": all_ok})
    else:
        for row in rows:
            print(f"{row['id']}: request {row['request']}")
            for algorithm in ("proposed", "oma"):
                cell = row[algorithm]
                status = "ok" if cell["match"] else "MISMATCH"
                print(
                    f"  {algorithm:9s} expected {cell['expected']:12s} got {cell['actual']:12s} [{status}]"
                )
        print("all cells match" if all_ok else "case table mismatch")
    if not all_ok:
        bad = [
            f"{row['id']}/{alg}"
            for row in rows
            for alg in ("proposed", "oma")
            if not row[alg]["match"]
        ]
        print(f"mismatched cells: {', '.join(bad)}", file=sys.stderr)
        return EXIT_PROPERTY
    return EXIT_OK


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 0 after --help and 2 on a usage error
        return EXIT_OK if exc.code == 0 else EXIT_LOAD
    try:
        return args.func(args)
    except LabelMismatchError as exc:
        return _fail(str(exc), EXIT_LABEL_MISMATCH)
    except (LicallocError, OSError) as exc:
        return _fail(str(exc), EXIT_LOAD)


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
