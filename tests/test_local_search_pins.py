"""Pins for the Kyber-CCA local search: neighbour order and search
outcomes.

``NEIGHBOUR_DIGEST`` is SHA-256 over the ``describe()`` line of every
neighbour of eight seeded random starts and the default design, in the
order :func:`neighbours` yields them.  ``SEARCHES`` holds the
evaluation count and best design of four seeded 10-start searches
(area goal, masking order 1: the ``dse-local`` bench op).  Both were
computed on the rehashing ``Configuration`` and the generator-built
neighbours, before either was optimised, and must never be
regenerated: a faster search has to reproduce them byte for byte.
"""

import hashlib
import random

import pytest

from repro.hades import (DesignContext, LocalSearchExplorer,
                         OptimizationGoal, neighbours)
from repro.hades.library import kyber_cca

NEIGHBOUR_SEED = 2025
NEIGHBOUR_STARTS = 8
NEIGHBOUR_COUNT = 343
NEIGHBOUR_DIGEST = \
    "00250bcd1dc8984a66b2a7d83faf1d03aa286a0584a60068572bf1a45658d99e"

KYBER_CCA_BEST = (
    "kyber_cca(compare=serial, control=fsm, sampler=popcount, "
    "keccak:[keccak_slice_serial(slice_width=1)], "
    "polymul:[polymul(accumulator:[digit_serial(digit=8)], "
    "mod_adder:[adder_mod_q(core=ripple, reduction=lazy)])])")

#: seed -> (evaluations, best.describe()) of a 10-start search.
SEARCHES = {
    11: (2167, KYBER_CCA_BEST),
    23: (2273, KYBER_CCA_BEST),
    2026: (2051, KYBER_CCA_BEST),
    31337: (2054, KYBER_CCA_BEST),
}


def test_neighbour_sequence_pinned():
    template = kyber_cca()
    rng = random.Random(NEIGHBOUR_SEED)
    starts = [template.random_configuration(rng)
              for _ in range(NEIGHBOUR_STARTS)]
    starts.append(template.default_configuration())
    digest = hashlib.sha256()
    count = 0
    for start in starts:
        for neighbour in neighbours(template, start):
            digest.update(neighbour.describe().encode() + b"\n")
            count += 1
    assert (count, digest.hexdigest()) == (NEIGHBOUR_COUNT,
                                           NEIGHBOUR_DIGEST)


@pytest.mark.parametrize("seed", sorted(SEARCHES))
def test_ten_start_search_pinned(seed):
    result = LocalSearchExplorer(
        kyber_cca(), DesignContext(masking_order=1), seed=seed).run(
            OptimizationGoal.AREA, starts=10, jobs=1)
    assert (result.evaluations, result.best.configuration.describe()) \
        == SEARCHES[seed]
