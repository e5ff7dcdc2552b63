"""Exhaustive, lazily streamed search for models satisfying the family constraints.

The search assigns one family of undetected-site masks per partition class
(states inside a class are interchangeable under the uniform weights).  Every
candidate mask hits each triad the class violates, so detection masking (DM)
holds by construction, and adequacy (AC) follows from a lemma:

    for every class E, every context C other than the triads E violates, and
    every outcome assignment o of C: #{s in E : s|C = o} = 16 * qm(o).

All states of E detect C with one weight w_E(C), which DM sets to 0 on E's
violated triads, so P(o | C detected) = sum_E w_E(C)*16*qm(o) / sum_E w_E(C)*16
= qm(o).  The search is therefore the plain product of the per-class family
lists; ``test_class_counts_match_qm_off_violated_triads`` in tests/test_search.py
guards the lemma.  A class's candidates are a process-wide table keyed by (class,
failure count, pool): each (failure count, pool) walks its site sets once per process,
as 9-bit masks in label order with their d-distributions, and each class ranks that
walk once.  A mask hits a triad when its bits meet the triad's; candidates go by how
redundantly they cover the violated triads (ties in label order), so maximal-coverage
models stream first and bounded prefixes are meaningful.  Each search regenerates its
families, canonicalising each once where the product generates it: a stream depends
on its spec alone.
"""

from __future__ import annotations

import itertools
import sys
from functools import lru_cache
from typing import Iterator, Optional, Union

from .models import (
    CensusRecord,
    CountFailure,
    DDistribution,
    Model,
    VerificationReport,
    _canonical_family,
    census,
)
from .state_space import SITES, XY_SITES, PartitionElement, _is_int, _site_mask, _Value


class UnboundedSearchError(ValueError):
    """The constraint profile does not bound the search space."""


class SearchSpec(_Value):
    """Declarative constraint profile for the model search.

    ``failure_count`` fixes the exact number of U-flags per d-distribution and
    is required: without it the family space per class is too large to walk.
    ``ddists_per_state`` restricts the family size per state (a (lo, hi)
    range; an integer n is stored as (n, n)); ``star_elements_all_undetected``
    gives the single-triad classes the all-undetected escape instead of
    searched masks; ``limit`` caps the number of emitted models.
    """

    _fields = (
        "failure_count", "z_always_detected", "per_element_uniformity",
        "ddists_per_state", "star_elements_all_undetected", "limit",
    )

    def __init__(
        self,
        failure_count: Optional[int] = None,
        z_always_detected: bool = True,
        per_element_uniformity: bool = True,
        ddists_per_state: Union[tuple[int, int], int, None] = None,
        star_elements_all_undetected: bool = False,
        limit: Optional[int] = None,
    ) -> None:
        if _is_int(ddists_per_state):
            ddists_per_state = (ddists_per_state, ddists_per_state)
        self._set(
            failure_count, z_always_detected, per_element_uniformity,
            ddists_per_state, star_elements_all_undetected, limit,
        )

    def validate(self) -> None:
        if self.failure_count is None:
            raise UnboundedSearchError(
                "search spec is unbounded: failure_count must be set"
            )
        if not _is_int(self.failure_count):
            raise ValueError(f"failure_count must be an integer: {self.failure_count!r}")
        if not 0 <= self.failure_count <= 9:
            raise ValueError(f"failure_count out of range: {self.failure_count}")
        for flag in ("z_always_detected", "per_element_uniformity", "star_elements_all_undetected"):
            if not isinstance(getattr(self, flag), bool):
                raise ValueError(f"{flag} must be True or False: {getattr(self, flag)!r}")
        if not self.per_element_uniformity:
            raise UnboundedSearchError(
                "search spec is unbounded: only per-element-uniform search is supported"
            )
        if self.ddists_per_state is not None:
            pair = self.ddists_per_state
            valid = isinstance(pair, tuple) and len(pair) == 2 and all(map(_is_int, pair))
            if not valid or not 1 <= pair[0] <= pair[1]:
                raise ValueError(f"bad ddists_per_state range: {pair}")
        if self.limit is not None and not (_is_int(self.limit) and 0 <= self.limit <= sys.maxsize):
            raise ValueError(f"bad limit: {self.limit!r}")


_LABELS = tuple(s.label for s in SITES)  # by site index: the masks' tie-break keys


@lru_cache(maxsize=20)  # one walk per (failure count, pool)
def _masks(failure_count: int, z_always_detected: bool) -> tuple[tuple[int, DDistribution], ...]:
    """Every set of ``failure_count`` pool sites as a 9-bit int, bit i set for site i
    undetected, with its d-distribution, in order of the site labels."""
    pool = XY_SITES if z_always_detected else SITES
    keyed = sorted(
        (tuple(_LABELS[s.index] for s in sites), _site_mask(sites), sites)
        for sites in itertools.combinations(pool, failure_count)
    )
    return tuple((bits, DDistribution.with_undetected(sites)) for _, bits, sites in keyed)


@lru_cache(maxsize=160)  # one ranking per (class, failure count, pool)
def _ranked(
    element: PartitionElement, failure_count: int, z_always_detected: bool
) -> tuple[DDistribution, ...]:
    """The d-distributions of the masks that hit each triad the class violates, by
    descending coverage of those triads; the sort is stable, so ties keep label order."""
    violated = [t.mask for t in element.violated]
    coverage = []
    for bits, ddist in _masks(failure_count, z_always_detected):
        total = 0
        for triad in violated:
            hits = (bits & triad).bit_count()
            if not hits:
                break
            total -= hits
        else:
            coverage.append((total, ddist))
    coverage.sort(key=lambda pair: pair[0])
    return tuple(ddist for _, ddist in coverage)


def _candidates(
    element: PartitionElement, spec: SearchSpec
) -> tuple[tuple[DDistribution, ...], range]:
    """The class's ranked candidates and its range of family sizes; a starred class under
    the escape has the one all-undetected candidate."""
    if spec.star_elements_all_undetected and element.is_starred:
        return (DDistribution.all_undetected(),), range(1, 2)
    ddists = _ranked(element, spec.failure_count, spec.z_always_detected)
    lo, hi = spec.ddists_per_state or (1, len(ddists))
    return ddists, range(lo, min(hi, len(ddists)) + 1)


def _products(
    classes: list[tuple[PartitionElement, tuple[DDistribution, ...], range]],
    prefix: tuple[tuple[DDistribution, ...], ...] = (),
) -> Iterator[tuple[tuple[DDistribution, ...], ...]]:
    """Lazy Cartesian product of the classes' canonical families after ``prefix``, first class
    outermost; a class's families (size-major, then combinations order) are regenerated and
    canonicalised per prefix from its ``_candidates``, never materialised."""
    (element, ddists, sizes), rest = classes[0], classes[1:]
    for size in sizes:
        for family in itertools.combinations(ddists, size):
            families = prefix + (_canonical_family(family, element),)
            if rest:
                yield from _products(rest, families)
            else:
                yield families


def search_models(spec: SearchSpec) -> Iterator[Model]:
    """Stream every model matching the profile, in canonical order, up to the limit.

    Every product of per-class families is emitted: DM holds by construction of
    the candidate masks and AC by the lemma in the module docstring.  An
    exhausted stream with no emissions means the profile is unsatisfiable.
    """
    spec.validate()
    elements = list(PartitionElement)
    classes = [(element, *_candidates(element, spec)) for element in elements]
    # Probe feasibility up front so an unsatisfiable class cannot hide behind
    # a combinatorially large prefix of satisfiable ones.
    if not all(sizes for _, _, sizes in classes):
        return
    products = itertools.islice(_products(classes), spec.limit)
    for n, families in enumerate(products, start=1):
        yield Model._stored(f"model-{n:04d}", dict(zip(elements, families)))


class ExpectedCounts(_Value):
    """Expected census values; None fields are not checked."""

    _fields = ("d_distributions", "m_specifications", "combinations")

    def __init__(
        self,
        d_distributions: Optional[int] = None,
        m_specifications: Optional[int] = None,
        combinations: Optional[int] = None,
    ) -> None:
        self._set(d_distributions, m_specifications, combinations)


def verify_counts(model: Model, expected: ExpectedCounts) -> VerificationReport:
    """Exact comparison of a model's census against expected counts."""
    actual = census(model)
    failures = []
    for quantity in CensusRecord._fields:
        want = getattr(expected, quantity)
        got = getattr(actual, quantity)
        if want is not None and want != got:
            failures.append(CountFailure(quantity, want, got))
    return VerificationReport("counts", tuple(failures))
