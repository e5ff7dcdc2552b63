"""Sites, microstates, triads, and the partition of the GHZ-compatible state space.

The hidden variable of every model is a microstate: one sign per (axis,
particle) site, nine sites in all.  The GHZ preparation restricts the
admissible microstates to those whose three z-values agree, leaving 2^7 = 128
states.  Four distinguished three-site measurements (the triads) each impose
a product-sign constraint; the constraints cannot all hold at once, and the
satisfaction pattern partitions the 128 states into 8 classes of 16.
"""

from __future__ import annotations

import itertools
from enum import Enum
from functools import lru_cache
from typing import Iterable


class Axis(Enum):
    """Spin measurement axis. Canonical order is X < Y < Z."""

    X = "x"
    Y = "y"
    Z = "z"

    __hash__ = object.__hash__  # == is identity; Enum's own hashes the name in Python


AXES: tuple[Axis, ...] = (Axis.X, Axis.Y, Axis.Z)
PARTICLES: tuple[int, ...] = (1, 2, 3)

_SIGNS = (+1, -1)  # +1 sorts before -1 in every canonical enumeration


def _is_int(value: object) -> bool:
    # bool is an int subclass, but true/false are not integers in a document
    return isinstance(value, int) and not isinstance(value, bool)


class _Value:
    """An immutable value: equality (within one class), hash and repr are those of
    the tuple of its ``_fields``, and assigning or deleting an attribute raises
    AttributeError.  ``__init__`` validates, then sets the fields with ``_set``, or
    with ``object.__setattr__`` in a class built in bulk (``_set`` is slower)."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _astuple(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def _set(self, *values: object) -> None:
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._astuple() == other._astuple()  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class Site(_Value):
    """One (axis, particle) slot of the nine-site layout, at canonical position ``index``."""

    _fields = ("axis", "particle")

    def __init__(self, axis: Axis, particle: int) -> None:
        if not isinstance(axis, Axis):
            raise ValueError(f"axis must be an Axis, got {axis!r}")
        if type(particle) is not int or particle not in PARTICLES:
            raise ValueError(f"particle must be 1, 2 or 3, got {particle!r}")
        self._set(axis, particle)
        object.__setattr__(self, "index", 3 * (particle - 1) + AXES.index(axis))
        object.__setattr__(self, "_hash", hash((axis, particle)))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.index == other.index  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        return self._hash

    @property
    def label(self) -> str:
        return f"{self.axis.value}{self.particle}"

    @classmethod
    def from_label(cls, label: str) -> "Site":
        if len(label) != 2 or label[0] not in "xyz" or label[1] not in "123":
            raise ValueError(f"bad site label {label!r}, expected e.g. 'x1'")
        return cls(Axis(label[0]), int(label[1]))


# Canonical site order, fixed for all serialization:
# x1, y1, z1, x2, y2, z2, x3, y3, z3.
SITES: tuple[Site, ...] = tuple(
    Site(axis, particle) for particle in PARTICLES for axis in AXES
)

# The six x/y sites in canonical order; combinations are defined on these.
XY_SITES: tuple[Site, ...] = tuple(s for s in SITES if s.axis is not Axis.Z)
Z_SITES: tuple[Site, ...] = tuple(s for s in SITES if s.axis is Axis.Z)


def _site_mask(sites: Iterable[Site]) -> int:
    """Bit i set for each of the (distinct) sites with index i."""
    return sum(1 << s.index for s in sites)


class MicroState(_Value):
    """A 9-tuple of signs, one per site, in canonical site order.

    States with unequal z-values are representable (the full sign space is
    occasionally useful for sanity checks) but only GHZ-compatible states,
    those with equal z-values, take part in any model-level operation.
    ``_signs`` is the state as a sign mask: bit i set where the value at site
    i is -1; ``_hash`` is the hash of ``(values,)``, stored once.
    """

    _fields = ("values",)

    def __init__(self, values: tuple[int, ...]) -> None:
        if len(values) != 9:
            raise ValueError(f"microstate needs 9 values, got {len(values)}")
        if any(v not in (-1, +1) for v in values):
            raise ValueError(f"microstate values must be +/-1: {values!r}")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "_signs", sum(1 << i for i, v in enumerate(values) if v < 0))
        object.__setattr__(self, "_hash", hash((values,)))

    def __hash__(self) -> int:
        return self._hash

    def value(self, site: Site) -> int:
        return self.values[site.index]

    @property
    def is_ghz_compatible(self) -> bool:
        k1, k2, k3 = (self.values[s.index] for s in Z_SITES)
        return k1 == k2 == k3

    @property
    def label(self) -> str:
        groups = [self.values[i : i + 3] for i in (0, 3, 6)]
        return "(" + ";".join(",".join(f"{v:+d}" for v in g) for g in groups) + ")"

    def __repr__(self) -> str:  # compact, the default spells out the tuple
        return f"MicroState{self.label}"


class Triad(Enum):
    """One of the four compatible three-site measurements with a forced product sign.

    Each member carries ``sites``, its three ``SITES`` entries in canonical
    order (so ``site in triad.sites`` hits by identity); ``mask``, their
    ``_site_mask``; and ``required_sign``, -1 for IV and +1 for the others.
    """

    I = "I"
    II = "II"
    III = "III"
    IV = "IV"

    __hash__ = object.__hash__

    def __init__(self, value: str) -> None:
        labels = {"I": "x1 y2 y3", "II": "y1 x2 y3", "III": "y1 y2 x3", "IV": "x1 x2 x3"}[value]
        self.sites = tuple(s for s in SITES if s.label in labels.split())
        self.mask = _site_mask(self.sites)
        self.required_sign = -1 if value == "IV" else +1

    def holds(self, signs: int) -> bool:
        """Whether a sign mask (bit i set where site i holds -1) gives the triad its required
        sign: an even number of -1s on its sites, or an odd number for IV."""
        return (-1) ** (signs & self.mask).bit_count() == self.required_sign

    @property
    def context(self) -> "MeasurementContext":
        return MeasurementContext(self.sites)


class PartitionElement(Enum):
    """Class of a GHZ-compatible state by the set of triad constraints it satisfies.

    A state satisfies either exactly one triad (the starred classes I0..IV0)
    or exactly three (the triple intersections); each class holds 16 states.
    Each member carries ``satisfied``, the frozenset of triads its value names;
    ``violated``, the other triads in Triad order; and ``is_starred``, true
    for the classes satisfying a single triad.
    """

    I0 = "I0"
    II0 = "II0"
    III0 = "III0"
    IV0 = "IV0"
    I_II_III = "I&II&III"
    I_II_IV = "I&II&IV"
    I_III_IV = "I&III&IV"
    II_III_IV = "II&III&IV"

    __hash__ = object.__hash__

    def __init__(self, value: str) -> None:
        self.satisfied = frozenset(Triad(t) for t in value.removesuffix("0").split("&"))
        self.violated = tuple(t for t in Triad if t not in self.satisfied)
        self.is_starred = len(self.satisfied) == 1


_SATISFIED_TO_ELEMENT = {el.satisfied: el for el in PartitionElement}

# The GHZ state's stabiliser group as signed site masks (S, sign): the identity, the four
# triads with their required signs and the three z pairs with +1 (Mermin, PRL 65, 1838).
_STABILISER: tuple[tuple[int, int], ...] = (
    (0, +1),
    *((t.mask, t.required_sign) for t in Triad),
    *((_site_mask(pair), +1) for pair in itertools.combinations(Z_SITES, 2)),
)


class MeasurementContext(_Value):
    """A compatible selection of observables: at most one axis per particle.

    Sites are kept in canonical order; construction rejects a selection that
    puts two observables on the same particle.
    """

    _fields = ("sites",)

    def __init__(self, sites: tuple[Site, ...]) -> None:
        sites = tuple(sorted(sites, key=lambda s: s.index))
        if not 1 <= len(sites) <= 3:
            raise ValueError(f"context needs 1..3 sites, got {len(sites)}")
        particles = [s.particle for s in sites]
        if len(set(particles)) != len(particles):
            raise ValueError(f"two observables on one particle: {self.label_of(sites)}")
        object.__setattr__(self, "sites", sites)

    @staticmethod
    def label_of(sites: tuple[Site, ...]) -> str:
        return ",".join(s.label for s in sites)

    @property
    def label(self) -> str:
        return self.label_of(self.sites)

    @property
    def selection(self) -> dict[int, Axis]:
        return {s.particle: s.axis for s in self.sites}

    @classmethod
    def from_labels(cls, *labels: str) -> "MeasurementContext":
        return cls(tuple(Site.from_label(lb) for lb in labels))

    def __repr__(self) -> str:
        return f"MeasurementContext({self.label})"


@lru_cache(maxsize=1)
def _ghz_microstates() -> dict[tuple[int, ...], MicroState]:
    """The 128 GHZ-compatible states in canonical order, keyed by their values:
    the one shared instance of each that the readers and builders hand out."""
    # Lexicographic on the full 9-tuple with +1 < -1; the shared z-value sits
    # at position 3 of the nesting so duplicates at z2, z3 keep the order.
    states = {}
    for i1, j1, k, i2, j2, i3, j3 in itertools.product(_SIGNS, repeat=7):
        values = (i1, j1, k, i2, j2, k, i3, j3, k)
        states[values] = MicroState(values)
    return states


def enumerate_ghz_microstates() -> list[MicroState]:
    """All 128 GHZ-compatible microstates in canonical (lexicographic) order."""
    return list(_ghz_microstates().values())


def triad_product(state: MicroState, triad: Triad) -> int:
    """Product of the state's values on the triad's three sites."""
    a, b, c = triad.sites
    return state.values[a.index] * state.values[b.index] * state.values[c.index]


def satisfies(state: MicroState, triad: Triad) -> bool:
    """Whether the state's triad product equals the triad's required sign."""
    return triad_product(state, triad) == triad.required_sign


def satisfied_triads(state: MicroState) -> frozenset[Triad]:
    return frozenset(t for t in Triad if satisfies(state, t))


def classify(state: MicroState) -> PartitionElement:
    """Partition class of a GHZ-compatible state.

    Raises ValueError for states with unequal z-values: those never occur
    under the GHZ preparation and carry no class.
    """
    if not state.is_ghz_compatible:
        raise ValueError(f"state {state.label} is not GHZ-compatible")
    return _SATISFIED_TO_ELEMENT[satisfied_triads(state)]


@lru_cache(maxsize=1)
def _state_classes() -> tuple[tuple[MicroState, PartitionElement], ...]:
    """Each GHZ state, in canonical order, with the class violating the triads that do not hold on it."""
    by_violated = {el.violated: el for el in PartitionElement}
    states = _ghz_microstates().values()
    return tuple((s, by_violated[tuple(t for t in Triad if not t.holds(s._signs))]) for s in states)


@lru_cache(maxsize=1)
def partition_classes() -> dict[PartitionElement, tuple[MicroState, ...]]:
    """The 8 partition classes, each a canonical-order tuple of 16 states."""
    classes: dict[PartitionElement, list[MicroState]] = {el: [] for el in PartitionElement}
    for state, element in _state_classes():
        classes[element].append(state)
    return {el: tuple(states) for el, states in classes.items()}


def enumerate_contexts() -> list[MeasurementContext]:
    """All 63 compatible contexts: 9 singles, 27 pairs, 27 triples, over the ``SITES`` entries.

    Canonical order: by context size, then by particle subset, then by the
    axis assignment in X < Y < Z order.
    """
    contexts = []
    for size in (1, 2, 3):
        for particles in itertools.combinations(PARTICLES, size):
            for axes in itertools.product(range(len(AXES)), repeat=size):
                sites = tuple(SITES[3 * (p - 1) + a] for a, p in zip(axes, particles))
                contexts.append(MeasurementContext(sites))
    return contexts
