"""The security-by-design composition engine (paper Section II-A).

Given a use-case profile (assets + adversary model + constraints) the
framework derives a concrete security architecture: the minimal set of
catalog features (plus their dependencies) covering every applicable
threat, with the residual risks and the aggregate overhead made
explicit.  "End-users must be able to adapt the security framework to
their individual use-case and requirements and shed any unnecessary
overhead."
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .adversary import AdversaryModel, WORST_CASE
from .features import Overhead, default_catalog


@dataclass(frozen=True)
class UseCaseProfile:
    """What one application needs from the security framework."""

    name: str
    assets: frozenset                 # of Asset
    adversary: AdversaryModel
    real_time: bool = False
    description: str = ""

    def applicable_threats(self, catalog: dict) -> set:
        """Threats in scope: any catalog-known threat whose capability
        the adversary has and whose asset the profile protects."""
        known = set()
        for feature in catalog.values():
            known |= feature.mitigates
        return {threat for threat in known
                if threat.capability in self.adversary
                and threat.asset in self.assets}


@dataclass
class SecurityArchitecture:
    """A derived, concrete architecture for one use case."""

    profile: UseCaseProfile
    features: tuple                   # of SecurityFeature, sorted
    covered: set = field(default_factory=set)
    residual: set = field(default_factory=set)

    @property
    def feature_names(self) -> tuple:
        return tuple(feature.name for feature in self.features)

    def total_overhead(self) -> Overhead:
        total = Overhead()
        for feature in self.features:
            total = total.combine(feature.overhead)
        return total

    def verify(self, catalog: dict) -> bool:
        """Re-check coverage and dependency closure from scratch."""
        names = set(self.feature_names)
        for feature in self.features:
            if any(dep not in names for dep in feature.depends_on):
                return False
        mitigated = set()
        for feature in self.features:
            mitigated |= feature.mitigates
        return self.profile.applicable_threats(catalog) <= \
            (mitigated | self.residual)


class SecurityFramework:
    """The catalog plus the derivation algorithm."""

    def __init__(self, catalog: dict = None):
        self.catalog = dict(catalog or default_catalog())
        self._validate_catalog()

    def _validate_catalog(self) -> None:
        for feature in self.catalog.values():
            for dependency in feature.depends_on:
                if dependency not in self.catalog:
                    raise ValueError(
                        f"{feature.name} depends on unknown feature "
                        f"{dependency!r}")
        # Dependency graph must be acyclic.
        visiting, done = set(), set()

        def visit(name):
            if name in done:
                return
            if name in visiting:
                raise ValueError(f"dependency cycle through {name!r}")
            visiting.add(name)
            for dependency in self.catalog[name].depends_on:
                visit(dependency)
            visiting.discard(name)
            done.add(name)

        for name in self.catalog:
            visit(name)

    def _close_dependencies(self, names: set) -> set:
        closed = set(names)
        frontier = list(names)
        while frontier:
            for dependency in self.catalog[frontier.pop()].depends_on:
                if dependency not in closed:
                    closed.add(dependency)
                    frontier.append(dependency)
        return closed

    def derive(self, profile: UseCaseProfile) -> SecurityArchitecture:
        """Derive the minimal architecture for ``profile``.

        Minimality is in feature count (after dependency closure),
        found exactly when the candidate pool has at most 12 features
        and greedily otherwise.  Threats no catalog feature mitigates stay in
        ``residual`` — surfaced, never silently dropped.
        """
        if not profile.adversary.is_weaker_than(WORST_CASE):
            raise ValueError("profile adversary exceeds the worst case")
        threats = profile.applicable_threats(self.catalog)
        relevant = {name: feature
                    for name, feature in self.catalog.items()
                    if feature.mitigates & threats}
        mitigable = set()
        for feature in relevant.values():
            mitigable |= feature.mitigates & threats
        residual = threats - mitigable
        target = mitigable
        chosen = self._minimal_cover(relevant, target)
        closed = self._close_dependencies(chosen)
        features = tuple(sorted((self.catalog[name] for name in closed),
                                key=lambda f: f.name))
        architecture = SecurityArchitecture(
            profile=profile, features=features,
            covered=target, residual=residual)
        assert architecture.verify(self.catalog)
        return architecture

    def _minimal_cover(self, relevant: dict, target: set) -> set:
        if not target:
            return set()
        names = sorted(relevant)
        if len(names) <= 12:
            # Exact: smallest subset (with dependency closure counted)
            # that covers the target.
            best = None
            for size in range(1, len(names) + 1):
                for combo in itertools.combinations(names, size):
                    covered = set()
                    for name in combo:
                        covered |= relevant[name].mitigates & target
                    if covered == target:
                        closed = self._close_dependencies(set(combo))
                        if best is None or len(closed) < len(best):
                            best = closed
                if best is not None:
                    return set(best)
            return set(names)
        # Greedy fallback for big catalogs.
        chosen = set()
        remaining = set(target)
        while remaining:
            name = max(names, key=lambda n:
                       len(relevant[n].mitigates & remaining))
            gain = relevant[name].mitigates & remaining
            if not gain:
                break
            chosen.add(name)
            remaining -= gain
        return chosen

    def explain(self, architecture: SecurityArchitecture) -> str:
        """Human-readable derivation summary."""
        lines = [f"Architecture for {architecture.profile.name}:"]
        for feature in architecture.features:
            lines.append(f"  + {feature.name}: {feature.description}")
        if architecture.residual:
            lines.append("  residual risks:")
            for threat in sorted(architecture.residual,
                                 key=lambda t: t.describe()):
                lines.append(f"  ! {threat.describe()}")
        overhead = architecture.total_overhead()
        lines.append(
            f"  overhead: +{overhead.area_kge:.1f} kGE, "
            f"energy x{overhead.energy_factor:.2f}, "
            f"latency x{overhead.latency_factor:.2f}, "
            f"+{overhead.code_bytes} B code")
        return "\n".join(lines)
