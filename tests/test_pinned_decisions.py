"""Seeded decisions pinned by digest.

Each test hashes a deterministic transcript of the engine's decisions and
compares it with a sha256 literal, so a change to the state layout, the
validity walk or the selection code that alters a decision, a check verdict,
a counterexample or a remnant multiset fails here.  The benchmark's
reference digests cover only ``proposed`` on the ``general`` profile; these
add ``oma``, the ``depleting`` profile, ``pair_discipline``, each check run
alone, neutrality, liveness under both algorithms (the reports and, per
search, the nodes searched), the ``furthest`` tiebreak and the CLI's
``simulate``/``allocate`` output on the bundled fixtures.  The reports count
verdicts, so a changed draw could keep them; the generated documents
themselves are pinned too.
"""

import hashlib
import json

from licalloc.allocate import Chosen, NoMatch, min_loss_chooser, oma_allocate, proposed_allocate
from licalloc.cli import main
from licalloc.corpus import parse_corpus, serialize_corpus
from licalloc.engine import consume, initial_state
from licalloc.model import License, LicenseSet, Request
from licalloc.rights import candidates, remnants, rights
from licalloc.verify import (
    LIVENESS_CAPS,
    T0,
    USAGE_DURATION,
    GeneratorCaps,
    InstanceGenerator,
    fuzz_campaign,
    run_bounded_liveness,
    run_liveness_campaign,
    run_neutrality_campaign,
)

SEEDS = range(10)
PROFILES = ("general", "depleting")
ALL_CHECKS = ("soundness", "minimal_loss", "pair_discipline")


def _sha256(chunks) -> str:
    digest = hashlib.sha256()
    for chunk in chunks:
        digest.update(chunk)
    return digest.hexdigest()


def test_fuzz_reports_are_pinned():
    reports = (
        fuzz_campaign(
            InstanceGenerator(seed=seed, profile=profile), 30, ALL_CHECKS, algorithm=algorithm
        ).to_bytes()
        for seed in SEEDS
        for profile in PROFILES
        for algorithm in ("proposed", "oma")
    )
    assert _sha256(reports) == "53c138ae96886ba89183915ab05cae158996cd7163407509554d0fea6e3f3aed"


def test_single_check_fuzz_reports_are_pinned():
    """Each check run alone, as the shrinker and ``verify --checks`` run it."""
    reports = (
        fuzz_campaign(
            InstanceGenerator(seed=seed, profile=profile), 30, (check,), algorithm=algorithm
        ).to_bytes()
        for check in ALL_CHECKS
        for seed in SEEDS
        for profile in PROFILES
        for algorithm in ("proposed", "oma")
    )
    assert _sha256(reports) == "8919dbca1b4d73e2bb7b034476f6fa4448c551d13df453ccb2661b89190826e4"


def test_generated_documents_are_pinned():
    """Every profile at the default, liveness and ``stream_wide`` caps, byte for byte."""
    documents = (
        serialize_corpus(InstanceGenerator(caps, seed=seed, profile=profile).document(index))
        for caps in (GeneratorCaps(), LIVENESS_CAPS, GeneratorCaps(max_licenses=1, contents=16))
        for profile in ("general", "many_only", "depleting")
        for seed in (0, 7)
        for index in range(100)
    )
    assert _sha256(documents) == "75302e26f764a89249a01620796f7a509acbdf1290bebac4de93863473e4be8f"


def test_neutrality_reports_are_pinned():
    reports = (run_neutrality_campaign(n=60, seed=seed).to_bytes() for seed in SEEDS)
    assert _sha256(reports) == "963613ee3f040ad2bfabf0dfeb819e4b9a526e6b9a760f6df6b97591bafb6e27"


def _six_licenses(seed: int, profile: str) -> LicenseSet:
    generator = InstanceGenerator(GeneratorCaps(max_licenses=1), seed=seed, profile=profile)
    return LicenseSet(
        License(f"license-{i + 1}", generator.licenses(i).licenses[0].sublicenses)
        for i in range(6)
    )


def _multiset(counter) -> str:
    return ",".join(f"{p.action.value}:{p.content}:{n}" for p, n in sorted(counter.items()))


def _transcript(licenses: LicenseSet, tiebreak: str):
    """Per request: every candidate's remnants, then the proposed decision.

    Requests cycle twice through the initially installed permissions; each
    decision is executed, prompts resolved by ``min_loss_chooser``.
    """
    state = initial_state(licenses)
    support = sorted(rights(state, T0))
    for p in support * 2:
        request = Request(p.action, p.content, at=T0, usage_duration=USAGE_DURATION)
        for lid in candidates(state, request):
            yield f"{p.content} {lid} {_multiset(remnants(state, lid, request))}\n".encode()
        decision = proposed_allocate(
            state, request, chooser=min_loss_chooser, datetime_tiebreak=tiebreak
        )
        yield f"{p.content} -> {decision!r}\n".encode()
        if isinstance(decision, Chosen):
            state = consume(
                state, decision.license_id, decision.sublicense_id, decision.cp_id, request
            )
        else:
            assert isinstance(decision, NoMatch)


def test_remnants_and_proposed_decisions_are_pinned():
    transcripts = (
        chunk
        for seed in SEEDS
        for profile in PROFILES
        for tiebreak in ("earliest", "furthest")
        for chunk in _transcript(_six_licenses(seed, profile), tiebreak)
    )
    assert _sha256(transcripts) == "c1da88f672969e9eeb1a288687d6c33ff047fae85adf37a48df1c91b2b08727f"


def _oma_transcript(licenses: LicenseSet, tiebreak: str):
    """Per request, the executed ``oma`` decision, over the same request cycle."""
    state = initial_state(licenses)
    support = sorted(rights(state, T0))
    for p in support * 2:
        request = Request(p.action, p.content, at=T0, usage_duration=USAGE_DURATION)
        decision = oma_allocate(state, request, datetime_tiebreak=tiebreak)
        yield f"{p.content} -> {decision!r}\n".encode()
        if isinstance(decision, Chosen):
            state = consume(
                state, decision.license_id, decision.sublicense_id, decision.cp_id, request
            )
        else:
            assert isinstance(decision, NoMatch)


def test_oma_decisions_are_pinned():
    transcripts = (
        chunk
        for seed in SEEDS
        for profile in PROFILES
        for tiebreak in ("earliest", "furthest")
        for chunk in _oma_transcript(_six_licenses(seed, profile), tiebreak)
    )
    assert _sha256(transcripts) == "783fa8ca3368ea06432897f1eb994d18997a841bdec66f422088fa3ef39b6ef6"


LIVENESS_SEEDS = range(6)


def _liveness_reports(algorithm):
    return (run_liveness_campaign(n=40, seed=seed, algorithm=algorithm).to_bytes() for seed in LIVENESS_SEEDS)


def test_proposed_liveness_reports_are_pinned():
    digest = _sha256(_liveness_reports("proposed"))
    assert digest == "f6074b1e1fef645dea2e705f40221579009908019d4caafe601f9645c4c2fa76"


def test_oma_liveness_reports_are_pinned():
    digest = _sha256(_liveness_reports("oma"))
    assert digest == "35eda72e843e173e2840365f6feec780dc4ead041869889e42981fa09f980631"


def _liveness_searches():
    """Per search: its verdict, the nodes it searched, whether it finished and its failure.

    Campaign reports omit the node count, so this is the digest that moves
    when the search reaches more or fewer nodes.
    """
    for profile in ("depleting", "general"):
        for seed in range(3):
            generator = InstanceGenerator(LIVENESS_CAPS, seed=seed, profile=profile)
            for index in range(40):
                licenses = generator.licenses(index)
                for algorithm in ("proposed", "oma"):
                    r = run_bounded_liveness(licenses, algorithm=algorithm)
                    failure = json.dumps(r.failure, sort_keys=True)
                    yield f"{profile} {seed} {index} {algorithm}: {r.passed} {r.states} {r.finished} {failure}\n".encode()


def test_liveness_search_node_counts_are_pinned():
    digest = _sha256(_liveness_searches())
    assert digest == "4a145f7abafd9f01f296dfaf26b12b76365355b78a331c398f62506ec4e419d9"


def _cli_transcript(corpus_dir, capsys):
    """Exit code and stdout of ``simulate`` and ``allocate`` on every fixture.

    Each chunk is labelled with the fixture's file name and the arguments
    after the corpus path, so the digest does not depend on where the
    fixtures were written.
    """
    for path in sorted(corpus_dir.glob("*.json")):
        request = parse_corpus(path.read_bytes()).requests[0]
        runs = [["simulate", "--algorithm", algorithm, "--format", "json"] for algorithm in ("proposed", "oma")]
        runs += [
            ["allocate", "--algorithm", algorithm, "--format", fmt, "--time", str(request.at)]
            for algorithm in ("proposed", "oma")
            for fmt in ("text", "json")
        ]
        for command, *options in runs:
            positional = [request.action.value, request.content] if command == "allocate" else []
            code = main([command, str(path), *positional, *options])
            label = " ".join([path.name, command, *positional, *options])
            yield f"{label} -> {code}\n{capsys.readouterr().out}".encode()


def test_cli_output_on_dumped_fixtures_is_pinned(tmp_path, capsys):
    assert main(["cases", "--dump-corpora", str(tmp_path)]) == 0
    capsys.readouterr()
    assert _sha256(_cli_transcript(tmp_path, capsys)) == "e3ad5cb2e47fb14b09648fc5dc450725dcfa7551d54234361f5476d0ce8c13cb"
