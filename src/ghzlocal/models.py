"""Finite local detection models and their exact probability calculus.

A model assigns to each of the 128 GHZ-compatible microstates a nonempty set
of detection distributions (d-distributions): D/U flags for all nine sites.
Probabilities follow the uniform double average, 1/128 per state and 1/d per
d-distribution within a state; weights are implicit, never stored.

Measured outcomes with 0 at undetected sites form an m-specification; a pair
(state, d-distribution) fixes it with no reference to any measurement context,
which is precisely the locality of the construction.  Dropping the z slots and
writing D for 0 converts m-specifications to Szabo-Fine combinations.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Iterator, Mapping, NamedTuple, Optional, Union

from .qm import OutcomeAssignment, outcome_assignments, qm_probability
from .state_space import (
    SITES,
    XY_SITES,
    MeasurementContext,
    MicroState,
    PartitionElement,
    Site,
    Triad,
    classify,
    enumerate_contexts,
    enumerate_ghz_microstates,
    partition_classes,
)

DETECTED = "D"
UNDETECTED = "U"

N_STATES = 128


class UndefinedConditionalError(ZeroDivisionError):
    """Conditional-on-detection probability requested where nothing is ever detected."""


@dataclass(frozen=True)
class DDistribution:
    """Detection flags for all nine sites, in canonical site order.

    One flag per site: the +1 and -1 outcomes of an observable share their
    detection behavior by construction, so no representable model can split
    them.
    """

    flags: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.flags) != 9:
            raise ValueError(f"d-distribution needs 9 flags, got {len(self.flags)}")
        if any(f not in (DETECTED, UNDETECTED) for f in self.flags):
            raise ValueError(f"flags must be 'D' or 'U': {self.flags!r}")

    @classmethod
    def all_detected(cls) -> "DDistribution":
        return cls((DETECTED,) * 9)

    @classmethod
    def all_undetected(cls) -> "DDistribution":
        return cls((UNDETECTED,) * 9)

    @classmethod
    def with_undetected(cls, sites: Iterable[Site]) -> "DDistribution":
        undetected = {s.index for s in sites}
        return cls(tuple(UNDETECTED if i in undetected else DETECTED for i in range(9)))

    def detects(self, site: Site) -> bool:
        return self.flags[site.index] == DETECTED

    @cached_property
    def _detected(self) -> int:
        # bit i set when site i is detected; read only by _detecting, and built
        # on first use so that parsing a model does not pay for it
        return sum(1 << i for i, f in enumerate(self.flags) if f == DETECTED)

    @property
    def undetected_sites(self) -> tuple[Site, ...]:
        return tuple(s for s in SITES if self.flags[s.index] == UNDETECTED)

    @property
    def undetected_count(self) -> int:
        return sum(1 for f in self.flags if f == UNDETECTED)

    def __repr__(self) -> str:
        return f"DDistribution({''.join(self.flags)})"


@dataclass(frozen=True)
class MSpecification:
    """Registered outcomes per site: the state's sign where detected, 0 where not."""

    values: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.values) != 9:
            raise ValueError(f"m-specification needs 9 values, got {len(self.values)}")
        if any(v not in (-1, 0, +1) for v in self.values):
            raise ValueError(f"m-specification values must be -1, 0 or +1: {self.values!r}")

    def value(self, site: Site) -> int:
        return self.values[site.index]

    @property
    def is_all_zero(self) -> bool:
        return not any(self.values)


def m_specification(state: MicroState, ddist: DDistribution) -> MSpecification:
    """Outcomes produced by a state under a d-distribution; depends on nothing else."""
    return MSpecification(
        tuple(
            v if f == DETECTED else 0
            for v, f in zip(state.values, ddist.flags)
        )
    )


@dataclass(frozen=True)
class Model:
    """A complete model: every GHZ-compatible state mapped to its d-distributions.

    Families are canonically ordered and duplicate-free; the state prior is
    uniform 1/128 and each family is uniform 1/len(family).
    """

    name: str
    assignment: tuple[tuple[MicroState, tuple[DDistribution, ...]], ...]

    def __post_init__(self) -> None:
        expected = enumerate_ghz_microstates()
        got = [state for state, _ in self.assignment]
        if got != expected:
            raise ValueError(
                "model must assign all 128 GHZ-compatible microstates in canonical order"
            )
        for state, family in self.assignment:
            if not family:
                raise ValueError(f"empty d-distribution family at {state.label}")
            if list(family) != sorted(set(family), key=lambda d: d.flags):
                raise ValueError(f"family at {state.label} not canonical/duplicate-free")

    @classmethod
    def from_state_map(
        cls, name: str, mapping: Mapping[MicroState, Iterable[DDistribution]]
    ) -> "Model":
        states = enumerate_ghz_microstates()
        missing = [s for s in states if s not in mapping]
        if missing or len(mapping) != len(states):
            raise ValueError("state map must cover exactly the GHZ-compatible states")
        assignment = []
        for state in states:
            family = sorted(set(mapping[state]), key=lambda d: d.flags)
            assignment.append((state, tuple(family)))
        return cls(name, tuple(assignment))

    @classmethod
    def from_element_families(
        cls, name: str, families: Mapping[PartitionElement, Iterable[DDistribution]]
    ) -> "Model":
        """Build a model whose d-distributions are shared across a partition class."""
        if set(families) != set(PartitionElement):
            raise ValueError("families must cover all 8 partition elements")
        mapping = {}
        for element, states in partition_classes().items():
            family = tuple(families[element])
            for state in states:
                mapping[state] = family
        return cls.from_state_map(name, mapping)

    def family(self, state: MicroState) -> tuple[DDistribution, ...]:
        try:
            return self._family_map[state]
        except KeyError:
            raise ValueError(f"{state!r} is not a GHZ-compatible microstate") from None

    @property
    def _family_map(self) -> dict[MicroState, tuple[DDistribution, ...]]:
        cached = self.__dict__.get("_family_map_cache")
        if cached is None:
            cached = dict(self.assignment)
            self.__dict__["_family_map_cache"] = cached
        return cached

    def pairs(self) -> Iterator[tuple[MicroState, DDistribution, Fraction]]:
        """All (state, d-distribution, weight) triples; weights sum to 1."""
        for state, family in self.assignment:
            share = Fraction(1, N_STATES * len(family))
            for ddist in family:
                yield state, ddist, share

    def element_families(self) -> dict[PartitionElement, tuple[DDistribution, ...]]:
        """Per-class families; raises if states of one class differ (non-uniform model)."""
        families: dict[PartitionElement, tuple[DDistribution, ...]] = {}
        for state, family in self.assignment:
            element = classify(state)
            known = families.setdefault(element, family)
            if known != family:
                raise ValueError(f"model {self.name!r} is not uniform on {element.value}")
        return families

    def __repr__(self) -> str:
        return f"Model(name={self.name!r}, states={len(self.assignment)})"


# ---------------------------------------------------------------------------
# probabilities


def _site_mask(sites: Iterable[Site]) -> int:
    """Bit i set for each of the (distinct) sites with index i."""
    return sum(1 << s.index for s in sites)


def _detecting(family: Iterable[DDistribution], mask: int) -> list[DDistribution]:
    """The d-distributions of a family that detect every site of a ``_site_mask``."""
    return [dd for dd in family if dd._detected & mask == mask]


def _context_masses(
    model: Model, context: MeasurementContext
) -> tuple[Fraction, dict[tuple[int, ...], Fraction]]:
    """Detected mass of a context and its split by outcome tuple.

    A pair counts as detected only when every selected site carries D; its
    outcomes then coincide with the state's values on those sites.
    """
    idxs = tuple(s.index for s in context.sites)
    mask = _site_mask(context.sites)
    detected = Fraction(0)
    buckets: dict[tuple[int, ...], Fraction] = {}
    for state, family in model.assignment:
        hits = len(_detecting(family, mask))
        if not hits:
            continue
        mass = Fraction(hits, N_STATES * len(family))
        detected += mass
        key = tuple(state.values[i] for i in idxs)
        buckets[key] = buckets.get(key, Fraction(0)) + mass
    return detected, buckets


def detection_probability(
    model: Model,
    context: MeasurementContext,
    restrict: Union[MicroState, PartitionElement, None] = None,
) -> Fraction:
    """Probability that every site of the context is detected.

    ``restrict`` limits the uniform state average to one microstate or to one
    partition class; by default all 128 states contribute.
    """
    if restrict is None:
        targets: list[MicroState] = enumerate_ghz_microstates()
    elif isinstance(restrict, PartitionElement):
        targets = list(partition_classes()[restrict])
    else:
        targets = [restrict]
    mask = _site_mask(context.sites)
    total = Fraction(0)
    for state in targets:
        family = model.family(state)
        total += Fraction(len(_detecting(family, mask)), len(family))
    return total / len(targets)


def conditional_probability(model: Model, assign: OutcomeAssignment) -> Fraction:
    """Probability of the outcomes given that all their sites are detected."""
    detected, buckets = _context_masses(model, assign.context)
    if detected == 0:
        raise UndefinedConditionalError(
            f"model {model.name!r} never detects context {assign.context.label}"
        )
    return buckets.get(assign.outcomes, Fraction(0)) / detected


def conditional_probability_by_element(
    model: Model, assign: OutcomeAssignment
) -> Fraction:
    """Conditional probability via per-class aggregation.

    Independent of the pairwise route: needs one shared family per partition
    class, then combines class-level detecting fractions with class-level
    outcome counts.  Raises ValueError for non-uniform models.
    """
    families = model.element_families()
    idxs = tuple(s.index for s in assign.context.sites)
    mask = _site_mask(assign.context.sites)
    numerator = Fraction(0)
    denominator = Fraction(0)
    for element, family in families.items():
        hits = len(_detecting(family, mask))
        if not hits:
            continue
        weight = Fraction(hits, len(family))
        states = partition_classes()[element]
        matching = sum(
            1 for s in states if tuple(s.values[i] for i in idxs) == assign.outcomes
        )
        numerator += weight * matching
        denominator += weight * len(states)
    if denominator == 0:
        raise UndefinedConditionalError(
            f"model {model.name!r} never detects context {assign.context.label}"
        )
    return numerator / denominator


def total_probability(model: Model, assign: OutcomeAssignment) -> Fraction:
    """Overall display probability: detection times conditional, or 0."""
    detected = detection_probability(model, assign.context)
    if detected == 0:
        return Fraction(0)
    return detected * conditional_probability(model, assign)


# ---------------------------------------------------------------------------
# verification


@dataclass(frozen=True)
class AcFailure:
    context: MeasurementContext
    assignment: OutcomeAssignment
    expected: Fraction
    actual: Fraction
    rule: str = "ac"


@dataclass(frozen=True)
class DmFailure:
    state: MicroState
    ddist: DDistribution
    triad: Triad
    rule: str = "dm"


@dataclass(frozen=True)
class CountFailure:
    quantity: str
    expected: int
    actual: int
    rule: str = "counts"


Failure = Union[AcFailure, DmFailure, CountFailure]


@dataclass(frozen=True)
class VerificationReport:
    check: str
    failures: tuple[Failure, ...]
    skipped: tuple[str, ...] = ()

    @property
    def passed(self) -> bool:
        return not self.failures


def verify_ac(model: Model) -> VerificationReport:
    """Adequacy: conditional-on-detection probabilities equal the quantum values.

    Every context with positive detected mass is checked for every outcome
    assignment, exactly; contexts the model never detects are reported as
    skipped, not failed.
    """
    failures: list[Failure] = []
    skipped: list[str] = []
    for context in enumerate_contexts():
        detected, buckets = _context_masses(model, context)
        if detected == 0:
            skipped.append(context.label)
            continue
        for assign in outcome_assignments(context):
            actual = buckets.get(assign.outcomes, Fraction(0)) / detected
            expected = qm_probability(assign)
            if actual != expected:
                failures.append(AcFailure(context, assign, expected, actual))
    return VerificationReport("ac", tuple(failures), tuple(skipped))


def verify_dm(model: Model) -> VerificationReport:
    """Detection masking: a state violating a triad constraint must leave at
    least one site of that triad undetected, in every d-distribution."""
    failures: list[Failure] = []
    for state, family in model.assignment:
        for triad in classify(state).violated:
            for ddist in _detecting(family, _site_mask(triad.sites)):
                failures.append(DmFailure(state, ddist, triad))
    return VerificationReport("dm", tuple(failures))


def is_deterministic(model: Model) -> bool:
    """Whether every state has exactly one d-distribution."""
    return all(len(family) == 1 for _, family in model.assignment)


# ---------------------------------------------------------------------------
# Szabo-Fine combinations

_SLOT_ORDER = {"+1": 0, "-1": 1, "D": 2}
_XY_INDEX = tuple(s.index for s in XY_SITES)
_TRIAD_SLOTS = {
    triad: tuple(XY_SITES.index(s) for s in triad.sites) for triad in Triad
}


@dataclass(frozen=True)
class Combination:
    """Hidden-variable point over the six x/y sites: +1, -1, or D (defective)."""

    slots: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.slots) != 6:
            raise ValueError(f"combination needs 6 slots, got {len(self.slots)}")
        if any(s not in _SLOT_ORDER for s in self.slots):
            raise ValueError(f"slots must be '+1', '-1' or 'D': {self.slots!r}")

    @property
    def surviving_triads(self) -> int:
        """Number of triads whose three sites all carry outcomes (no D)."""
        return sum(
            1
            for positions in _TRIAD_SLOTS.values()
            if all(self.slots[p] != "D" for p in positions)
        )

    @property
    def label(self) -> str:
        return ",".join(self.slots)

    def sort_key(self) -> tuple[int, ...]:
        return tuple(_SLOT_ORDER[s] for s in self.slots)


def to_combination(mspec: MSpecification) -> Optional[Combination]:
    """Drop the z slots and write D for 0; the all-zero m-specification maps to
    None, the distinguished marker for a completely undetected object."""
    if mspec.is_all_zero:
        return None
    slots = tuple(
        "D" if mspec.values[i] == 0 else f"{mspec.values[i]:+d}" for i in _XY_INDEX
    )
    return Combination(slots)


@dataclass
class CombinationDistribution:
    """Pushforward of a model's measure onto combinations plus the undetected marker."""

    masses: dict[Combination, Fraction]
    undetected: Fraction

    @property
    def total_mass(self) -> Fraction:
        return sum(self.masses.values(), self.undetected)

    def rows(self) -> list[tuple[Combination, Fraction]]:
        return sorted(self.masses.items(), key=lambda item: item[0].sort_key())


def combination_distribution(model: Model) -> CombinationDistribution:
    masses: dict[Combination, Fraction] = {}
    undetected = Fraction(0)
    for state, ddist, weight in model.pairs():
        combo = to_combination(m_specification(state, ddist))
        if combo is None:
            undetected += weight
        else:
            masses[combo] = masses.get(combo, Fraction(0)) + weight
    return CombinationDistribution(masses, undetected)


# ---------------------------------------------------------------------------
# counting


class CensusRecord(NamedTuple):
    """Distinct d-distributions, m-specifications (the all-zero one included),
    and combinations (the undetected marker excluded)."""

    d_distributions: int
    m_specifications: int
    combinations: int


def census(model: Model) -> CensusRecord:
    ddists: set[DDistribution] = set()
    mspecs: set[MSpecification] = set()
    combos: set[Combination] = set()
    for state, family in model.assignment:
        for ddist in family:
            ddists.add(ddist)
            mspec = m_specification(state, ddist)
            mspecs.add(mspec)
            combo = to_combination(mspec)
            if combo is not None:
                combos.add(combo)
    return CensusRecord(len(ddists), len(mspecs), len(combos))


def mspec_occurrences(model: Model) -> Counter[MSpecification]:
    """How many (state, d-distribution) pairs produce each m-specification."""
    return Counter(
        m_specification(state, ddist)
        for state, family in model.assignment
        for ddist in family
    )
