"""Seeded decisions pinned by digest.

Each test hashes a deterministic transcript of the engine's decisions and
compares it with a sha256 literal, so a change to the state layout, the
validity walk or the selection code that alters a decision, a check verdict,
a counterexample or a remnant multiset fails here.  The benchmark's
reference digests cover only ``proposed`` on the ``general`` profile; these
add ``oma``, the ``depleting`` profile, ``pair_discipline``, neutrality and
the ``furthest`` tiebreak.
"""

import hashlib

from licalloc.allocate import Chosen, NoMatch, min_loss_chooser, proposed_allocate
from licalloc.engine import consume, initial_state
from licalloc.model import License, LicenseSet, Request
from licalloc.rights import candidates, remnants, rights
from licalloc.verify import (
    T0,
    USAGE_DURATION,
    GeneratorCaps,
    InstanceGenerator,
    fuzz_campaign,
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
