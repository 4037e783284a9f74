"""Seeded, coverage-guided adversary generation (ROADMAP item 4).

Where :mod:`repro.faults.campaign` sweeps a *fixed grid* of fault
points over the standard scenarios, this subpackage *searches*: it
derives adversarial inputs — mutated boot images, hostile RTOS task
programs, delivery replay/rollback schedules, bus transaction storms —
from seeds, executes them against the production subsystems, and
steers generation toward behaviours whose PERF counter-vector
signatures the :class:`~repro.obs.coverage.CoverageMap` has not seen
before.

Layout:

* :mod:`~repro.faults.adversary.mutators` — pure seed -> mutation
  functions and the per-family op spaces (no subsystem imports);
* :mod:`~repro.faults.adversary.families` — the adversary families
  binding op sequences to real subsystems with golden-run oracles and
  the masked/detected/recovered/silent-corruption classification;
* :mod:`~repro.faults.adversary.campaign` — the coverage-guided loop,
  memo dedup, parallel fan-out with parent-side folding, hardening
  gate, delta-debug minimized repros, canonical artifacts;
* :mod:`~repro.faults.adversary.shrink` — ``ddmin`` delta debugging.

Like :mod:`repro.faults.scenarios`, :mod:`~repro.faults.adversary.
families` (and hence :mod:`~repro.faults.adversary.campaign`) pulls in
the TEE/RTOS/SoC stacks, so this package must never be imported
eagerly from :mod:`repro.faults` — import it explicitly.

Quick use::

    from repro.faults.adversary import standard_adversary_campaign

    result = standard_adversary_campaign(seed=2026, generations=8,
                                         population=128)
    assert not result.hardened_violations()
    result.write("adversary_campaign.json")
    result.write_corpus("adversary_corpus.json")

    from repro.faults.adversary import replay
    record = replay(result.corpus_dict()["entries"][0])
"""

from .campaign import (CORPUS_SCHEMA_VERSION, AdversaryCampaign,
                       AdversaryCampaignResult, load_corpus, replay,
                       standard_adversary_campaign)
from .families import (AdversaryCase, AdversaryFamily, CaseRecord,
                       acceptable_on_hardened, classify_case, run_case,
                       standard_families)
from .mutators import (MAX_OPS, OpSpace, apply_boot_ops,
                       boot_base_image, derive_seed, ops_from_json,
                       ops_to_json)
from .shrink import ddmin, shrink_case

__all__ = [
    "AdversaryCampaign", "AdversaryCampaignResult",
    "CORPUS_SCHEMA_VERSION", "load_corpus", "replay",
    "standard_adversary_campaign",
    "AdversaryCase", "AdversaryFamily", "CaseRecord",
    "acceptable_on_hardened", "classify_case", "run_case",
    "standard_families",
    "MAX_OPS", "OpSpace", "apply_boot_ops", "boot_base_image",
    "derive_seed", "ops_from_json", "ops_to_json",
    "ddmin", "shrink_case",
]
