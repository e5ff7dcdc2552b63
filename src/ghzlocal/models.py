"""Finite local detection models and their exact probability calculus.

A model assigns to each of the 128 GHZ-compatible microstates a nonempty set
of detection distributions (d-distributions): D/U flags for all nine sites.
Probabilities follow the uniform double average, 1/128 per state and 1/d per
d-distribution within a state.

A model built from its 8 class families holds those families and its name; its 128
per-state slots are stored only when a per-state reader asks for them, and the bulk
views walk them unstored.  A model built from a document or a state map holds its
slots.  Detection masking is read from the context table: a pair that breaks it
lands in one of the 16 cells of the four triad contexts whose GHZ probability is 0,
so only a model with weight there walks its slots, to list its failures.

Bulk queries read integer views of the model, cached on the instance.  A pair
(state, d-distribution) is the state's 9-bit sign mask (bit i set where the value
is -1), the d-distribution's 9-bit detect mask (bit i set where site i is
detected) and the weight L // d over ``128 * L``, L the lcm of the family sizes.
A pair detects a context's site mask C when ``detect & C == C``, with outcome
``sign & C``.  The m-specification histogram holds per ``(detect, sign & detect)``
its pair count and weight, in order of first occurrence.  The context table is
filled from it in one pass, the same for every model: 343 cells, one per choice of
no site or one signed site on each particle, so a context's split by outcome is 2,
4 or 8 of them and its detected weight their sum.  Exact ``Fraction``s are built
from the final integer sums only.

Measured outcomes with 0 at undetected sites form an m-specification; a pair
(state, d-distribution) fixes it with no reference to any measurement context,
which is precisely the locality of the construction.  Dropping the z slots and
writing D for 0 converts m-specifications to Szabo-Fine combinations.
"""

from __future__ import annotations

import math
import sys
from collections import Counter
from fractions import Fraction
from functools import cached_property, lru_cache
from operator import attrgetter
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, NamedTuple, Optional, Union

from .state_space import (
    SITES,
    XY_SITES,
    MeasurementContext,
    MicroState,
    PartitionElement,
    Site,
    Triad,
    _STABILISER,
    _Value,
    _site_mask,
    _state_classes,
    enumerate_contexts,
    enumerate_ghz_microstates,
    partition_classes,
)

if TYPE_CHECKING:
    from .qm import OutcomeAssignment

DETECTED = "D"
UNDETECTED = "U"

N_STATES = 128


class UndefinedConditionalError(ZeroDivisionError):
    """Conditional-on-detection probability requested where nothing is ever detected."""


class DDistribution(_Value):
    """Detection flags for all nine sites, in canonical site order.

    One flag per site: the +1 and -1 outcomes of an observable share their
    detection behavior by construction, so no representable model can split
    them.  ``_detected`` is the detect mask: bit i set when site i is detected;
    ``_hash`` is the hash of ``(flags,)``, stored once.
    """

    _fields = ("flags",)

    def __init__(self, flags: tuple[str, ...]) -> None:
        if len(flags) != 9:
            raise ValueError(f"d-distribution needs 9 flags, got {len(flags)}")
        if any(f not in (DETECTED, UNDETECTED) for f in flags):
            raise ValueError(f"flags must be 'D' or 'U': {flags!r}")
        object.__setattr__(self, "flags", flags)
        object.__setattr__(self, "_detected", sum(1 << i for i, f in enumerate(flags) if f == DETECTED))
        object.__setattr__(self, "_hash", hash((flags,)))

    def __hash__(self) -> int:
        return self._hash

    @classmethod
    def all_detected(cls) -> "DDistribution":
        return _shared_ddistribution((DETECTED,) * 9)

    @classmethod
    def all_undetected(cls) -> "DDistribution":
        return _shared_ddistribution((UNDETECTED,) * 9)

    @classmethod
    def with_undetected(cls, sites: Iterable[Site]) -> "DDistribution":
        undetected = {s.index for s in sites}
        return _shared_ddistribution(tuple(UNDETECTED if i in undetected else DETECTED for i in range(9)))

    def detects(self, site: Site) -> bool:
        return self.flags[site.index] == DETECTED

    @property
    def undetected_sites(self) -> tuple[Site, ...]:
        return tuple(s for s in SITES if self.flags[s.index] == UNDETECTED)

    @property
    def undetected_count(self) -> int:
        return sum(1 for f in self.flags if f == UNDETECTED)

    def __repr__(self) -> str:
        return f"DDistribution({''.join(self.flags)})"


_DDISTRIBUTIONS: dict[tuple[str, ...], DDistribution] = {}


def _shared_ddistribution(flags: tuple[str, ...]) -> DDistribution:
    """The one shared instance per flags tuple, built and stored on first use.
    Invalid flags raise ValueError and are never stored: at most 512 entries."""
    return _DDISTRIBUTIONS.get(flags) or _DDISTRIBUTIONS.setdefault(flags, DDistribution(flags))


class MSpecification(_Value):
    """Registered outcomes per site: the state's sign where detected, 0 where not."""

    _fields = ("values",)

    def __init__(self, values: tuple[int, ...]) -> None:
        if len(values) != 9:
            raise ValueError(f"m-specification needs 9 values, got {len(values)}")
        if any(v not in (-1, 0, +1) for v in values):
            raise ValueError(f"m-specification values must be -1, 0 or +1: {values!r}")
        object.__setattr__(self, "values", values)

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


def _canonical_family(family: Iterable[DDistribution], where: object) -> tuple[DDistribution, ...]:
    """A family as a model stores it: sorted by flags, duplicate-free, a lone ``DDistribution``
    as given.  Empty raises ValueError; a member with no flags raises AttributeError."""
    fixed = tuple(family)
    if len(fixed) != 1 or fixed[0].__class__ is not DDistribution:
        fixed = tuple(sorted(set(fixed), key=attrgetter("flags")))
        if not fixed:
            where = getattr(where, "label", None) or where.value  # a state, or a class
            raise ValueError(f"empty d-distribution family at {where}")
    return fixed


class Model(_Value):
    """A complete model: every GHZ-compatible state mapped to its d-distributions.

    The constructor takes and holds the 128 (state, family) slots of a document or of
    ``from_state_map``; ``from_element_families`` takes and holds the 8 class
    families in ``_families``, and derives the slots on first read; the search stores
    the families it has canonicalised through the same ``_stored`` step.  All store
    each family by the one rule of ``_canonical_family``, and equality and hash are
    those of ``(name, assignment)``.  The state prior is uniform 1/128 and each family
    is uniform 1/len(family).
    """

    _fields = ("name", "assignment")
    _families: Optional[dict[PartitionElement, tuple[DDistribution, ...]]] = None  # set by ``_stored`` only

    def __init__(
        self, name: str, assignment: tuple[tuple[MicroState, tuple[DDistribution, ...]], ...]
    ) -> None:
        assignment, shared = tuple(assignment), _state_classes()
        # a slot whose state is not the shared state at its place is left out, so the count shows it
        slots = tuple(
            (state, _canonical_family(f, state))
            for (state, f), (ref, _) in zip(assignment, shared) if state is ref or state == ref
        )
        if not len(slots) == len(assignment) == len(shared):
            raise ValueError(
                "model must assign all 128 GHZ-compatible microstates in canonical order"
            )
        self._set(name, slots)

    @classmethod
    def from_state_map(
        cls, name: str, mapping: Mapping[MicroState, Iterable[DDistribution]]
    ) -> "Model":
        states = enumerate_ghz_microstates()
        if len(mapping) != len(states) or any(s not in mapping for s in states):
            raise ValueError("state map must cover exactly the GHZ-compatible states")
        return cls(name, tuple((state, mapping[state]) for state in states))

    @classmethod
    def from_element_families(
        cls, name: str, families: Mapping[PartitionElement, Iterable[DDistribution]]
    ) -> "Model":
        """Build a model from its 8 class families, each canonicalised once: it holds the name
        and the families, and equals the constructor's model of the slots they fill."""
        classes = partition_classes()
        if families.keys() != classes.keys():
            raise ValueError("families must cover all 8 partition elements")
        return cls._stored(name, {el: _canonical_family(families[el], el) for el in classes})

    @classmethod
    def _stored(cls, name: str, families: dict[PartitionElement, tuple[DDistribution, ...]]) -> "Model":
        """A model holding its name and 8 canonical families, in PartitionElement order, as
        given: no constructor, so the slots are derived on first read."""
        model = cls.__new__(cls)
        object.__setattr__(model, "name", name)
        object.__setattr__(model, "_families", families)
        return model

    @cached_property
    def assignment(self) -> tuple[tuple[MicroState, tuple[DDistribution, ...]], ...]:
        """The 128 (state, family) slots in canonical state order.  The constructor sets them;
        a class-built model derives them from its families on first read."""
        return tuple(self._slots())

    def _slots(self) -> Iterable[tuple[MicroState, tuple[DDistribution, ...]]]:
        """The slots in state order: a class model's read from its families, unstored."""
        families = self._families
        if families is None:
            return self.assignment
        return ((state, families[element]) for state, element in _state_classes())

    def family(self, state: MicroState) -> tuple[DDistribution, ...]:
        try:
            return self._family_map[state]
        except KeyError:
            raise ValueError(f"{state!r} is not a GHZ-compatible microstate") from None

    @cached_property
    def _family_map(self) -> dict[MicroState, tuple[DDistribution, ...]]:
        return dict(self.assignment)

    @cached_property
    def _lcm(self) -> int:
        """The lcm L of the family sizes: every weight and table entry is over ``128 * L``."""
        return math.lcm(*{len(family) for _, family in self._slots()})

    @cached_property
    def _mspecs(self) -> tuple[dict[int, int], dict[int, int]]:
        """Per m-specification, coded ``detect << 9 | sign & detect``, in order of first
        occurrence over the pairs: how many pairs produce it, and their weight over ``128 * _lcm``."""
        lcm = self._lcm
        counts: dict[int, int] = {}
        weights: dict[int, int] = {}
        for state, family in self._slots():
            weight = lcm // len(family)
            for dd in family:
                code = dd._detected << 9 | state._signs & dd._detected
                counts[code] = counts.get(code, 0) + 1
                weights[code] = weights.get(code, 0) + weight
        return counts, weights

    @cached_property
    def _contexts(self) -> "_ContextTable":
        """The context table, filled for all 63 contexts on first read."""
        return _ContextTable(self)

    def pairs(self) -> Iterator[tuple[MicroState, DDistribution, Fraction]]:
        """All (state, d-distribution, weight) triples; weights sum to 1."""
        for state, family in self.assignment:
            share = Fraction(1, N_STATES * len(family))
            for ddist in family:
                yield state, ddist, share

    def element_families(self) -> dict[PartitionElement, tuple[DDistribution, ...]]:
        """Per-class families, read from the slots unless held; raises if a class's states differ."""
        if self._families is not None:
            return dict(self._families)
        found: dict[PartitionElement, set[tuple[DDistribution, ...]]] = {el: set() for el in PartitionElement}
        for (_, family), (_, element) in zip(self.assignment, _state_classes()):
            found[element].add(family)
        for element, families in found.items():
            if len(families) > 1:
                raise ValueError(f"model {self.name!r} is not uniform on {element.value}")
        return {element: families.pop() for element, families in found.items()}

    def __repr__(self) -> str:
        return f"Model(name={self.name!r}, states={N_STATES})"


def _outcome_key(items: Iterable[tuple[Site, int]]) -> int:
    """Bit i set where the (site, sign) items put -1 on site i: a state's ``sign & C``."""
    return sum(1 << s.index for s, v in items if v < 0)


def _detecting(family: Iterable[DDistribution], mask: int) -> list[DDistribution]:
    """The d-distributions of a family that detect every site of a ``_site_mask``."""
    return [dd for dd in family if dd._detected & mask == mask]


# ---------------------------------------------------------------------------
# probabilities


class _ContextTable:
    """A model's context table: 343 exact cells over ``scale``, filled in one pass when built.

    A cell chooses on each particle no site or one site with its sign (7 options, the
    cell ``49 * o1 + 7 * o2 + o3``) and holds the weight of the pairs that detect the
    chosen sites and give them those signs; cell 0 holds all the weight.  A context's
    outcome split is its cells, and its detected weight their sum (``_cell_map``).

    The cells are fixed-width fields of one int: each code adds its weight times the
    fields of the options its particle-3 part gives, grouped by its particle-1/2 bits;
    each group is shifted into the options of its particle-2 part, and each particle-1
    group into those of its particle-1 part.  No cell exceeds ``scale``, so no field
    carries into the next.
    """

    def __init__(self, model: Model) -> None:
        self.scale = scale = N_STATES * model._lcm
        size = 1 << ((scale.bit_length() - 1) >> 3).bit_length()  # bytes per field: 1, 2, 4, 8, 16 ...
        width = 8 * size
        third, second, first = _options(width), _options(7 * width), _options(49 * width)
        groups: dict[int, int] = {}
        for code, weight in model._mspecs[1].items():
            key = code & 0x7E3F  # the code's particle-1/2 detect and sign bits
            groups[key] = groups.get(key, 0) + weight * third[code >> 12 & 56 | code >> 6 & 7]
        ones: dict[int, int] = {}
        for code, fields in groups.items():
            key = code & 0xE07  # the code's particle-1 detect and sign bits
            ones[key] = ones.get(key, 0) + fields * second[code >> 9 & 56 | code >> 3 & 7]
        packed = sum(fields * first[code >> 6 & 56 | code & 7] for code, fields in ones.items())
        data = memoryview(packed.to_bytes(343 * size, sys.byteorder))
        if size <= 8:
            cells = data.cast("BHIQ"[size.bit_length() - 1]).tolist()
        else:
            cells = [int.from_bytes(data[i:i + size], sys.byteorder) for i in range(0, 343 * size, size)]
        self.cells = cells if sys.byteorder == "little" else cells[::-1]

    def __getitem__(self, mask: int) -> tuple[int, dict[int, int]]:
        """A context site mask's detected weight and its split by outcome key ``sign & mask``."""
        split = {key: self.cells[cell] for key, cell in _cell_map()[mask].items()}
        return sum(split.values()), split


@lru_cache(maxsize=12)  # three strides per field width
def _options(stride: int) -> tuple[int, ...]:
    """Per particle part ``detect << 3 | sign`` (3 bits each): ``1 << stride * o`` summed over
    the options o it gives, 0 (no site) and ``1 + 2 * j + sign bit j`` per detected site j."""
    return tuple(
        1 + sum(1 << stride * (1 + 2 * j + (sign >> j & 1)) for j in range(3) if detect >> j & 1)
        for detect in range(8) for sign in range(8)
    )


@lru_cache(maxsize=1)
def _cell_map() -> dict[int, dict[int, int]]:
    """Per context site mask, per outcome key ``sign & mask``: its cell, one walk of the 342."""
    cells: dict[int, dict[int, int]] = {}
    for cell in range(1, 343):
        mask = key = 0
        for low, option in ((0, cell // 49), (3, cell // 7 % 7), (6, cell % 7)):
            if option:
                j, negative = divmod(option - 1, 2)
                mask |= 1 << low + j
                key |= negative << low + j
        cells.setdefault(mask, {})[key] = cell
    return cells


def detection_probability(
    model: Model,
    context: MeasurementContext,
    restrict: Union[MicroState, PartitionElement, None] = None,
) -> Fraction:
    """Probability that every site of the context is detected.

    ``restrict`` limits the uniform state average to one microstate or to one
    partition class; by default all 128 states contribute.
    """
    mask = _site_mask(context.sites)
    if restrict is None:
        table = model._contexts
        return Fraction(table[mask][0], table.scale)
    if not isinstance(restrict, PartitionElement):
        families = [model.family(restrict)]
    elif model._families is not None:  # a class model: the class average is its family's
        families = [model._families[restrict]]
    else:
        families = [model.family(state) for state in partition_classes()[restrict]]
    lcm = math.lcm(*{len(family) for family in families})
    hits = sum(len(_detecting(family, mask)) * (lcm // len(family)) for family in families)
    return Fraction(hits, lcm * len(families))


def conditional_probability(model: Model, assign: OutcomeAssignment) -> Fraction:
    """Probability of the outcomes given that all their sites are detected."""
    detected, buckets = model._contexts[_site_mask(assign.context.sites)]
    if detected == 0:
        raise UndefinedConditionalError(
            f"model {model.name!r} never detects context {assign.context.label}"
        )
    return Fraction(buckets[_outcome_key(assign.items())], detected)


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
    table = model._contexts
    _, buckets = table[_site_mask(assign.context.sites)]
    return Fraction(buckets[_outcome_key(assign.items())], table.scale)


# ---------------------------------------------------------------------------
# verification


class AcFailure(_Value):
    _fields = ("context", "assignment", "expected", "actual", "rule")

    def __init__(
        self,
        context: MeasurementContext,
        assignment: OutcomeAssignment,
        expected: Fraction,
        actual: Fraction,
        rule: str = "ac",
    ) -> None:
        object.__setattr__(self, "context", context)
        object.__setattr__(self, "assignment", assignment)
        object.__setattr__(self, "expected", expected)
        object.__setattr__(self, "actual", actual)
        object.__setattr__(self, "rule", rule)


class DmFailure(_Value):
    _fields = ("state", "ddist", "triad", "rule")

    def __init__(
        self, state: MicroState, ddist: DDistribution, triad: Triad, rule: str = "dm"
    ) -> None:
        object.__setattr__(self, "state", state)
        object.__setattr__(self, "ddist", ddist)
        object.__setattr__(self, "triad", triad)
        object.__setattr__(self, "rule", rule)


class CountFailure(_Value):
    _fields = ("quantity", "expected", "actual", "rule")

    def __init__(self, quantity: str, expected: int, actual: int, rule: str = "counts") -> None:
        self._set(quantity, expected, actual, rule)


Failure = Union[AcFailure, DmFailure, CountFailure]


class VerificationReport(_Value):
    _fields = ("check", "failures", "skipped")

    def __init__(
        self, check: str, failures: tuple[Failure, ...], skipped: tuple[str, ...] = ()
    ) -> None:
        self._set(check, failures, skipped)

    @property
    def passed(self) -> bool:
        return not self.failures


def verify_ac(model: Model) -> VerificationReport:
    """Adequacy: conditional-on-detection probabilities equal the quantum values.

    Every context with positive detected mass is checked for every outcome
    assignment, exactly; contexts the model never detects are reported as
    skipped, not failed.  ``n / detected == p / q`` is tested as
    ``n * q == p * detected``.
    """
    failures: list[Failure] = []
    skipped: list[str] = []
    cells = model._contexts.cells
    for context, mask, rows in _ac_table():
        detected = sum([cells[row[3]] for row in rows])
        if detected == 0:
            skipped.append(context.label)
            continue
        for key, numerator, denominator, cell in rows:
            n = cells[cell]
            if n * denominator != numerator * detected:
                assign, expected = _ac_expected(mask, key, numerator, denominator)
                failures.append(AcFailure(context, assign, expected, Fraction(n, detected)))
    return VerificationReport("ac", tuple(failures), tuple(skipped))


@lru_cache(maxsize=1)
def _ac_table() -> tuple[tuple[MeasurementContext, int, tuple[tuple[int, int, int, int], ...]], ...]:
    """Per context: its site mask and, per outcome assignment in ``outcome_assignments``
    order, its outcome key, its GHZ probability as unreduced integers (numerator,
    denominator) and its context-table cell.  The probability is the stabiliser's closed
    form: sign * (-1)^|key & S| summed over the ``_STABILISER`` supports S within the
    context, over 2^k for k sites."""
    table = []
    for context in enumerate_contexts():
        mask, scale = _site_mask(context.sites), 1 << len(context.sites)
        within = [(support, sign) for support, sign in _STABILISER if support & mask == support]
        rows = tuple(
            (key, sum([sign * (-1) ** (key & support).bit_count() for support, sign in within]), scale, cell)
            for key, cell in _cell_map()[mask].items()
        )
        table.append((context, mask, rows))
    return tuple(table)


@lru_cache(maxsize=342)  # one entry per outcome assignment, built at its first failure
def _ac_expected(mask: int, key: int, numerator: int, denominator: int) -> tuple[OutcomeAssignment, Fraction]:
    """The outcome assignment of an ``_ac_table`` row and its quantum probability, the row's ratio."""
    from .qm import OutcomeAssignment
    context = MeasurementContext(tuple(s for s in SITES if mask >> s.index & 1))
    assign = OutcomeAssignment(context, tuple(-1 if key >> s.index & 1 else +1 for s in context.sites))
    return assign, Fraction(numerator, denominator)


def verify_dm(model: Model) -> VerificationReport:
    """Detection masking: a state violating a triad constraint must leave at
    least one site of that triad undetected, in every d-distribution.

    Such a pair, and only such a pair, puts weight in one of the ``_dm_cells()``, so a
    model whose context table is 0 there passes; a failing model's slots are walked to
    list the failures in state order, then triad order, then family order."""
    cells = model._contexts.cells
    if not any([cells[cell] for cell in _dm_cells()]):
        return VerificationReport("dm", ())
    return VerificationReport("dm", tuple(
        DmFailure(state, ddist, triad)
        for (state, family), (_, element) in zip(model._slots(), _state_classes())
        for triad in element.violated for ddist in _detecting(family, triad.mask)
    ))


@lru_cache(maxsize=1)
def _dm_cells() -> tuple[int, ...]:
    """The 16 cells, 4 per triad, whose outcome key breaks the triad's required sign."""
    return tuple(cell for triad in Triad for key, cell in _cell_map()[triad.mask].items() if not triad.holds(key))


def is_deterministic(model: Model) -> bool:
    """Whether every state has exactly one d-distribution: the family sizes' lcm is 1."""
    return model._lcm == 1


# ---------------------------------------------------------------------------
# Szabo-Fine combinations

_SLOT_ORDER = {"+1": 0, "-1": 1, "D": 2}
_XY_INDEX = tuple(s.index for s in XY_SITES)
_XY_MASK = _site_mask(XY_SITES)
_XY_CODE = _XY_MASK << 9 | _XY_MASK  # an m-specification code's combination
_SLOT_NAMES = {+1: "+1", -1: "-1", 0: "D"}
_TRIAD_SLOTS = {
    triad: tuple(XY_SITES.index(s) for s in triad.sites) for triad in Triad
}


class Combination(_Value):
    """Hidden-variable point over the six x/y sites: +1, -1, or D (defective).

    ``surviving_triads`` is the number of triads whose three sites all carry
    outcomes (no D); it, the sort key and ``_hash``, the hash of ``(slots,)``,
    are computed once, at construction.
    """

    _fields = ("slots",)

    def __init__(self, slots: tuple[str, ...]) -> None:
        if len(slots) != 6:
            raise ValueError(f"combination needs 6 slots, got {len(slots)}")
        if any(s not in _SLOT_ORDER for s in slots):
            raise ValueError(f"slots must be '+1', '-1' or 'D': {slots!r}")
        object.__setattr__(self, "slots", slots)
        object.__setattr__(
            self,
            "surviving_triads",
            sum(1 for positions in _TRIAD_SLOTS.values() if all(slots[p] != "D" for p in positions)),
        )
        object.__setattr__(self, "_sort_key", tuple(_SLOT_ORDER[s] for s in slots))
        object.__setattr__(self, "_hash", hash((slots,)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def label(self) -> str:
        return ",".join(self.slots)


def to_combination(mspec: MSpecification) -> Optional[Combination]:
    """Drop the z slots and write D for 0; the all-zero m-specification maps to
    None, the distinguished marker for a completely undetected object."""
    if mspec.is_all_zero:
        return None
    slots = tuple(
        "D" if mspec.values[i] == 0 else f"{mspec.values[i]:+d}" for i in _XY_INDEX
    )
    return Combination(slots)


class CombinationDistribution(_Value):
    """Pushforward of a model's measure onto combinations plus the undetected marker."""

    _fields = ("masses", "undetected")
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None  # type: ignore[assignment]

    def __init__(self, masses: dict[Combination, Fraction], undetected: Fraction) -> None:
        self.masses = masses
        self.undetected = undetected

    @property
    def total_mass(self) -> Fraction:
        """All the masses, the undetected one too, summed as integers over their denominators' lcm."""
        masses = (*self.masses.values(), self.undetected)
        lcm = math.lcm(*(m.denominator for m in masses))
        return Fraction(sum(m.numerator * (lcm // m.denominator) for m in masses), lcm)

    def rows(self) -> list[tuple[Combination, Fraction]]:
        return sorted(self.masses.items(), key=lambda item: item[0]._sort_key)


def _slot(detect: int, signs: int, i: int) -> int:
    """Outcome at site i of the m-specification with the given masks: 0, +1 or -1."""
    return 0 if not detect >> i & 1 else -1 if signs >> i & 1 else +1


@lru_cache(maxsize=729)  # one entry per combination
def _combination(detect: int, signs: int) -> Combination:
    return Combination(tuple(_SLOT_NAMES[_slot(detect, signs, i)] for i in _XY_INDEX))


def combination_distribution(model: Model) -> CombinationDistribution:
    scale = N_STATES * model._lcm
    weights: dict[tuple[int, int], int] = {}  # (detect, sign) masks on the x/y sites
    undetected = 0
    for code, weight in model._mspecs[1].items():
        if code >> 9:  # a z-only d-distribution still yields the all-D combination
            key = code & _XY_CODE
            weights[key] = weights.get(key, 0) + weight
        else:
            undetected += weight
    masses = {_combination(*divmod(key, 512)): Fraction(w, scale) for key, w in weights.items()}
    return CombinationDistribution(masses, Fraction(undetected, scale))


# ---------------------------------------------------------------------------
# counting


class CensusRecord(NamedTuple):
    """Distinct d-distributions, m-specifications (the all-zero one included),
    and combinations (the undetected marker excluded)."""

    d_distributions: int
    m_specifications: int
    combinations: int


def census(model: Model) -> CensusRecord:
    """A d-distribution is its detect mask, an m-specification its
    (detect, sign & detect) masks, a combination those masks on the x/y sites."""
    mspecs = set(model._mspecs[0])
    combos = {code & _XY_CODE for code in mspecs if code >> 9}
    return CensusRecord(len({code >> 9 for code in mspecs}), len(mspecs), len(combos))


def mspec_occurrences(model: Model) -> Counter[MSpecification]:
    """How many (state, d-distribution) pairs produce each m-specification."""
    return Counter({
        MSpecification(tuple(_slot(*divmod(code, 512), i) for i in range(9))): n
        for code, n in model._mspecs[0].items()
    })
