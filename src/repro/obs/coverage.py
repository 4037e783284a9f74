"""Counter-vector coverage maps: the campaign-scale novelty signal.

ROADMAP item 4 wants fault campaigns steered by *coverage* over
architectural behaviour: a run whose :class:`~repro.obs.perf.
PerfSnapshot` delta looks like nothing seen before is a keeper, one
that lands in an already-covered bucket is not.  Raw counter vectors
are far too fine for that — every run differs by a few bus grants — so
this module quantizes each count into a deterministic logarithmic
bucket and treats the sorted ``(event, bucket)`` tuple as the run's
*signature*.  A :class:`CoverageMap` is then per-group (per scenario,
per design template, ...) sets of signatures with:

* :meth:`~CoverageMap.observe` — fold one vector in; returns whether
  the signature was novel (the generator-steering predicate);
* :meth:`~CoverageMap.merge` — commutative set union, so per-shard
  maps built in pool workers merge to exactly the serial map;
* :meth:`~CoverageMap.to_json` / :meth:`~CoverageMap.write` —
  canonical export (sorted keys, sorted signatures, no timestamps):
  byte-identical for any worker count, the property the scale tests
  pin.

Bucketization is ``sign * exponent`` of the value (``frexp`` for
floats, ``bit_length`` for ints — identical where they overlap), so it
is exact, total and monotone: 0 -> 0, [1, 2) -> 1, [2, 4) -> 2,
[2^k, 2^(k+1)) -> k+1, (0, 1) -> the float exponent <= 0.  Counter
vectors therefore need no scaling to be comparable, and HADES metric
vectors (floats) use the very same map.
"""

from __future__ import annotations

import json
import math
import pathlib

from .export import atomic_write_text

#: Bump when the exported layout changes incompatibly.
SCHEMA_VERSION = 1


def log_bucket(value) -> int:
    """The deterministic logarithmic bucket of a numeric value.

    ``0 -> 0``; positive values map to their binary exponent
    (``[2^(k-1), 2^k) -> k``), negative values to the negated bucket of
    their magnitude.  Integers use exact ``bit_length`` arithmetic so
    no float rounding can shift a boundary count.
    """
    if not value:
        return 0
    sign = 1 if value > 0 else -1
    magnitude = value if value > 0 else -value
    if isinstance(magnitude, int):
        return sign * magnitude.bit_length()
    return sign * math.frexp(magnitude)[1]


def signature(vector: dict) -> tuple:
    """The log-bucketized signature of one counter vector.

    Zero entries are dropped (a missing counter and a zero counter are
    the same observation) and the remainder is sorted by event name, so
    equal behaviour always yields an equal, hashable tuple.
    """
    return tuple(sorted((event, log_bucket(count))
                        for event, count in vector.items() if count))


class CoverageMap:
    """Per-group signature sets with novelty detection and merge."""

    def __init__(self, name: str = "coverage"):
        self.name = name
        self._groups = {}          # group -> set of signature tuples
        self._observations = {}    # group -> vectors folded in

    # -- observing ---------------------------------------------------------

    def observe(self, group: str, vector) -> bool:
        """Fold one counter vector (or pre-computed signature tuple)
        into ``group``; returns True when the signature is novel —
        the keep-this-seed predicate of coverage-guided generation."""
        sig = vector if isinstance(vector, tuple) else signature(vector)
        self._observations[group] = self._observations.get(group, 0) + 1
        seen = self._groups.setdefault(group, set())
        if sig in seen:
            return False
        seen.add(sig)
        return True

    # -- reading -----------------------------------------------------------

    def groups(self) -> list:
        return sorted(self._groups)

    def distinct(self) -> int:
        """Distinct signatures across all groups."""
        return sum(len(seen) for seen in self._groups.values())

    @property
    def observations(self) -> int:
        return sum(self._observations.values())

    # -- merging (the shard-order worker merge) ----------------------------

    def merge(self, other) -> "CoverageMap":
        """Union ``other`` (a CoverageMap or an exported dict) into this
        map.  Set union and observation addition are commutative, so
        per-shard maps merged in any order equal the serial map."""
        if isinstance(other, CoverageMap):
            groups = {group: set(seen)
                      for group, seen in other._groups.items()}
            observations = dict(other._observations)
        else:
            groups, observations = _decode_groups(other)
        for group, seen in groups.items():
            self._groups.setdefault(group, set()).update(seen)
        for group, count in observations.items():
            self._observations[group] = \
                self._observations.get(group, 0) + count
        return self

    # -- canonical export --------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-native canonical form: groups sorted, signatures sorted,
        no timestamps — two equal maps export byte-identically."""
        groups = {}
        for group in sorted(self._groups):
            groups[group] = {
                "observations": self._observations.get(group, 0),
                "distinct": len(self._groups[group]),
                "signatures": [[[event, bucket] for event, bucket in sig]
                               for sig in sorted(self._groups[group])],
            }
        return {
            "schema_version": SCHEMA_VERSION,
            "name": self.name,
            "observations": self.observations,
            "distinct": self.distinct(),
            "groups": groups,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    def write(self, path) -> pathlib.Path:
        return atomic_write_text(path, self.to_json())


def _decode_groups(payload: dict) -> tuple:
    """``(groups, observations)`` from an exported coverage dict."""
    groups, observations = {}, {}
    for group, entry in (payload.get("groups") or {}).items():
        groups[group] = {
            tuple((event, bucket) for event, bucket in sig)
            for sig in entry.get("signatures", ())}
        observations[group] = entry.get("observations", 0)
    return groups, observations
