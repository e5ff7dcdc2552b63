"""Model search: membership, uniqueness, impossibility, determinism, soundness,
and the class-count lemma that makes the search a plain product."""

import itertools
import sys
from collections import Counter

import pytest

from ghzlocal import (
    DDistribution,
    ExpectedCounts,
    Model,
    SearchSpec,
    UnboundedSearchError,
    enumerate_contexts,
    outcome_assignments,
    partition_classes,
    qm_probability,
    search_models,
    verify_ac,
    verify_counts,
    verify_dm,
)
from ghzlocal import search
from ghzlocal.search import _ranked
from ghzlocal.state_space import SITES, XY_SITES, PartitionElement


M3_SHAPE = SearchSpec(failure_count=3, ddists_per_state=(1, 1), limit=4)
M1_SHAPE = SearchSpec(
    failure_count=1, star_elements_all_undetected=True, ddists_per_state=(3, 3), limit=4
)
ONE_FAILURE_EVERYWHERE = SearchSpec(failure_count=1, limit=4)


def feasible_masks(element, spec):
    """The class's DM-feasible undetected-site masks as the search ranks them: exactly
    ``failure_count`` sites, each violated triad hit at least once; by descending
    violated-triad coverage, then by site labels."""
    return [dd.undetected_sites for dd in _ranked(element, spec.failure_count, spec.z_always_detected)]


def test_spec_must_be_bounded():
    with pytest.raises(UnboundedSearchError):
        SearchSpec().validate()
    with pytest.raises(UnboundedSearchError):
        SearchSpec(failure_count=2, per_element_uniformity=False).validate()
    SearchSpec(failure_count=2).validate()


def test_spec_rejects_bad_ranges():
    with pytest.raises(ValueError):
        SearchSpec(failure_count=2, ddists_per_state=(0, 2)).validate()
    with pytest.raises(ValueError):
        SearchSpec(failure_count=2, ddists_per_state=(3, 1)).validate()
    with pytest.raises(ValueError):
        SearchSpec(failure_count=12).validate()
    for limit in (-1, sys.maxsize + 1, 10**20):
        with pytest.raises(ValueError, match="bad limit"):
            SearchSpec(failure_count=2, limit=limit).validate()
    SearchSpec(failure_count=2, limit=sys.maxsize).validate()
    # an integer n is the range (n, n); anything else but a pair of integers is refused
    SearchSpec(failure_count=3, ddists_per_state=1).validate()
    # a list once validated, and the spec then failed to hash
    bads = (0, -2, True, 1.0, "1", (1,), (1, 2, 3), ("1", 2), (1, 2.0), (True, 1), {1: 2}, [1, 1], [1, 2])
    for bad in bads:
        with pytest.raises(ValueError, match="bad ddists_per_state range"):
            SearchSpec(failure_count=2, ddists_per_state=bad).validate()


@pytest.mark.parametrize("flag", ["z_always_detected", "per_element_uniformity", "star_elements_all_undetected"])
@pytest.mark.parametrize("bad", ["false", "true", 0, 1, None])
def test_spec_rejects_a_flag_that_is_not_a_bool(flag, bad):
    # "false" once switched the starred escape on, and 0 passed for z_always_detected
    with pytest.raises(ValueError, match=f"{flag} must be True or False"):
        SearchSpec(failure_count=1, limit=2, **{flag: bad}).validate()
    with pytest.raises(ValueError, match=f"{flag} must be True or False"):
        next(search_models(SearchSpec(failure_count=1, limit=2, **{flag: bad})))


@pytest.mark.parametrize("bad", [True, False, 2.0, "3"])
def test_spec_rejects_a_failure_count_that_is_not_an_integer(bad):
    # True once read as 1 and streamed nothing; 2.0 and "3" raised a bare TypeError
    with pytest.raises(ValueError, match="failure_count must be an integer"):
        SearchSpec(failure_count=bad).validate()
    with pytest.raises(ValueError, match="failure_count must be an integer"):
        next(search_models(SearchSpec(failure_count=bad, ddists_per_state=1)))


@pytest.mark.parametrize("bad", [True, False, 2.5, 2.0, "3"])
def test_spec_rejects_a_limit_that_is_not_an_integer(bad):
    # True once streamed one model; 2.5 raised islice's own ValueError
    with pytest.raises(ValueError, match="bad limit"):
        SearchSpec(failure_count=3, limit=bad).validate()
    with pytest.raises(ValueError, match="bad limit"):
        next(search_models(SearchSpec(failure_count=3, ddists_per_state=1, limit=bad)))


def test_integer_family_size_streams_as_its_range():
    assert SearchSpec(failure_count=3, ddists_per_state=1) == SearchSpec(
        failure_count=3, ddists_per_state=(1, 1)
    )
    for n, pair in ((1, (1, 1)), (2, (2, 2))):
        as_int = list(search_models(SearchSpec(failure_count=2, ddists_per_state=n, limit=6)))
        as_pair = list(search_models(SearchSpec(failure_count=2, ddists_per_state=pair, limit=6)))
        assert len(as_int) == 6
        assert [(m.name, m.assignment) for m in as_int] == [(m.name, m.assignment) for m in as_pair]


def test_m3_shaped_search_emits_m3(m3):
    models = list(search_models(M3_SHAPE))
    assert len(models) == 4
    # maximal-coverage candidate ordering makes the canonical model stream first
    assert models[0].assignment == m3.assignment
    assert any(m.assignment == m3.assignment for m in models)


def test_m1_shaped_search_finds_exactly_m1(m1):
    models = list(search_models(M1_SHAPE))
    assert len(models) == 1
    assert models[0].assignment == m1.assignment


def test_one_failure_everywhere_is_impossible():
    assert list(search_models(ONE_FAILURE_EVERYWHERE)) == []


def test_one_failure_infeasibility_is_structural():
    # a single undetected site touches at most two triads, a starred class
    # violates three
    for element in PartitionElement:
        masks = feasible_masks(element, ONE_FAILURE_EVERYWHERE)
        if element.is_starred:
            assert masks == []
        else:
            (violated,) = element.violated
            assert {m[0] for m in masks} == set(violated.sites)


def test_search_is_deterministic():
    first = [m.assignment for m in search_models(M3_SHAPE)]
    second = [m.assignment for m in search_models(M3_SHAPE)]
    assert first == second


def test_search_respects_limit():
    assert len(list(search_models(SearchSpec(failure_count=3, ddists_per_state=(1, 1), limit=2)))) == 2
    assert list(search_models(SearchSpec(failure_count=3, ddists_per_state=(1, 1), limit=0))) == []


def test_emitted_models_are_sound():
    for spec in (M3_SHAPE, M1_SHAPE):
        for model in search_models(spec):
            assert verify_ac(model).passed
            assert verify_dm(model).passed


def _class_residuals(element, context):
    """#{s in class : s|context = o} - 16 * qm(o), for every outcome assignment o."""
    states = partition_classes()[element]
    idxs = [site.index for site in context.sites]
    return [
        sum(1 for s in states if tuple(s.values[i] for i in idxs) == assign.outcomes)
        - 16 * qm_probability(assign)
        for assign in outcome_assignments(context)
    ]


def test_class_counts_match_qm_off_violated_triads():
    # The premise of search_models emitting every product without an AC check:
    # on every context a class may detect under DM, its 16 states reproduce
    # the quantum distribution exactly.
    equalities = 0
    for element in PartitionElement:
        violated = {frozenset(triad.sites) for triad in element.violated}
        for context in enumerate_contexts():
            if frozenset(context.sites) in violated:
                continue
            residuals = _class_residuals(element, context)
            assert residuals == [0] * len(residuals), (element, context.label)
            equalities += len(residuals)
    assert equalities == 2608


def test_violated_triads_break_class_counts():
    # DM masking is necessary, not merely sufficient: every violated triad has
    # an outcome the class gets wrong.
    for element in PartitionElement:
        for triad in element.violated:
            assert any(_class_residuals(element, triad.context)), (element, triad)


def _reference_masks(element, spec):
    """feasible_masks from Site objects and triad site tuples, no bit masks:
    every mask of the pool that shares a site with each violated triad, ordered
    by descending (site, violated triad) incidences, then by site labels."""
    pool = XY_SITES if spec.z_always_detected else SITES
    masks = [
        mask for mask in itertools.combinations(pool, spec.failure_count)
        if all(any(s in triad.sites for s in mask) for triad in element.violated)
    ]

    def coverage(mask):
        return sum(1 for site in mask for triad in element.violated if site in triad.sites)

    return sorted(masks, key=lambda m: (-coverage(m), tuple(s.label for s in m)))


@pytest.mark.parametrize("z_always_detected", [True, False])
@pytest.mark.parametrize("failure_count", range(10))
def test_feasible_masks_match_site_reference(failure_count, z_always_detected):
    # the premise of the bit-mask shortcut: same masks, same order, every class
    spec = SearchSpec(failure_count=failure_count, z_always_detected=z_always_detected)
    for element in PartitionElement:
        assert feasible_masks(element, spec) == _reference_masks(element, spec), element


def _clear_candidate_tables():
    search._masks.cache_clear()
    search._ranked.cache_clear()


@pytest.mark.parametrize(
    "spec",
    [
        SearchSpec(failure_count=2, ddists_per_state=(1, 2), limit=1),
        SearchSpec(failure_count=2, ddists_per_state=(1, 2), limit=200),
        SearchSpec(failure_count=1, star_elements_all_undetected=True, limit=50),
    ],
    ids=["fc2-first-model", "fc2-many-prefixes", "fc1-starred-escape"],
)
def test_candidates_are_computed_once_per_class_per_search(spec, monkeypatch):
    # the candidates are a process-wide table keyed by (class, failure count, pool): from a
    # cleared table, two calls of one spec make one walk of the masks and one ranking per
    # searched class in total, never one per prefix, and a spec that differs only in its
    # pool walks exactly once more
    _clear_candidate_tables()
    calls, ranked = Counter(), search._ranked

    def counting_rank(element, failure_count, z_always_detected):
        calls[element] += 1
        return ranked(element, failure_count, z_always_detected)

    monkeypatch.setattr(search, "_ranked", counting_rank)
    searched = [
        el for el in PartitionElement
        if not (spec.star_elements_all_undetected and el.is_starred)
    ]
    for call in (1, 2):
        models = list(search_models(spec))
        assert len(models) == spec.limit
        assert calls == Counter({el: call for el in searched})
        assert search._masks.cache_info().misses == 1
        assert ranked.cache_info().misses == len(searched)
    fields = dict(zip(SearchSpec._fields, spec._astuple()))
    other_pool = SearchSpec(**{**fields, "z_always_detected": not spec.z_always_detected})
    list(search_models(other_pool))
    assert search._masks.cache_info().misses == 2
    assert ranked.cache_info().misses == 2 * len(searched)


def _stream(spec):
    return [(m.name, m._families) for m in search_models(spec)]


def _fresh_streams(specs):
    """Each spec's stream from a cleared candidate table."""
    fresh = {}
    for spec in specs:
        _clear_candidate_tables()
        fresh[spec] = _stream(spec)
    return fresh


def test_a_stream_does_not_depend_on_the_searches_before_it():
    # the premise of keeping the candidate table for the process: a stream equals its fresh
    # stream whatever ran before it, for the benchmark's three profiles in two orders, and
    # for neighbours that differ only in failure count or only in the pool
    profiles = [
        SearchSpec(failure_count=3, ddists_per_state=1, limit=200),
        SearchSpec(failure_count=2, ddists_per_state=(1, 2), limit=200),
        SearchSpec(failure_count=1, star_elements_all_undetected=True, limit=200),
    ]
    pool_major = [
        SearchSpec(failure_count=fc, z_always_detected=z, limit=3)
        for z in (True, False) for fc in range(10)
    ]
    count_major = sorted(pool_major, key=lambda spec: spec.failure_count)
    fresh = _fresh_streams(profiles + pool_major)
    assert sum(map(bool, fresh.values())) == 3 + 5 + 8  # fc 2-6 on the x/y pool, 2-9 on all sites
    for order in (profiles, profiles[::-1], pool_major, count_major):
        _clear_candidate_tables()
        for spec in order:
            assert _stream(spec) == fresh[spec], spec


@pytest.mark.parametrize(
    "spec",
    [
        SearchSpec(failure_count=3, ddists_per_state=(1, 1), limit=200),
        SearchSpec(failure_count=2, ddists_per_state=(1, 2), limit=200),
        SearchSpec(failure_count=1, star_elements_all_undetected=True, limit=200),
        SearchSpec(failure_count=2, ddists_per_state=(2, 3), limit=250),
    ],
    ids=["fc3-deterministic", "fc2-families-1-2", "fc1-starred-escape", "fc2-families-2-3"],
)
def test_searched_models_store_what_the_class_build_stores(spec):
    # the premise of canonicalising each family once, where _products generates it:
    # a searched model holds the families from_element_families would store, sorted by
    # flags and free of duplicates, with the classes in PartitionElement order
    models = list(search_models(spec))
    assert len(models) == spec.limit
    for model in models:
        built = Model.from_element_families(model.name, model._families)
        assert model._families == built._families
        assert list(model._families) == list(PartitionElement)
        for family in model._families.values():
            assert family == tuple(sorted(set(family), key=lambda dd: dd.flags))


def test_family_size_above_a_class_candidate_count_gives_empty_stream():
    # fc=3: starred classes have 17 candidates, triple intersections 19
    assert list(search_models(SearchSpec(failure_count=3, ddists_per_state=18))) == []
    assert len(list(search_models(SearchSpec(failure_count=3, ddists_per_state=17, limit=3)))) == 3
    # the starred escape leaves the triple intersections, last in class order,
    # 3 candidates each at fc=1
    escape = dict(failure_count=1, star_elements_all_undetected=True)
    assert list(search_models(SearchSpec(**escape, ddists_per_state=4))) == []
    assert len(list(search_models(SearchSpec(**escape, ddists_per_state=3)))) == 1


def _reference_stream(spec):
    """Eager product of per-class families built from _reference_masks, first
    class outermost, keeping the candidates that pass full AC and DM."""
    per_class = []
    for element in PartitionElement:
        if spec.star_elements_all_undetected and element.is_starred:
            per_class.append([(DDistribution.all_undetected(),)])
            continue
        ddists = [DDistribution.with_undetected(m) for m in _reference_masks(element, spec)]
        lo, hi = spec.ddists_per_state or (1, len(ddists))
        per_class.append(
            [fam for k in range(lo, hi + 1) for fam in itertools.combinations(ddists, k)]
        )
    for families in itertools.product(*per_class):
        model = Model.from_element_families("reference", dict(zip(PartitionElement, families)))
        if verify_dm(model).passed and verify_ac(model).passed:
            yield model


@pytest.mark.parametrize(
    "spec",
    [M3_SHAPE, M1_SHAPE, SearchSpec(failure_count=2, ddists_per_state=(1, 2), limit=8)],
    ids=["m3-shape", "m1-shape", "fc2-families-1-2"],
)
def test_stream_equals_filtered_reference_product(spec):
    streamed = list(search_models(spec))
    # an unsound stream fails here, before the reference walks unsound candidates
    for model in streamed:
        assert verify_dm(model).passed and verify_ac(model).passed
    expected = [m.assignment for m in itertools.islice(_reference_stream(spec), spec.limit)]
    assert [m.assignment for m in streamed] == expected
    assert [m.name for m in streamed] == [f"model-{n:04d}" for n in range(1, len(expected) + 1)]


def test_two_failure_search_contains_m2_masks(m2):
    # the shipped two-failure model sits inside its search space: every one of
    # its per-class families is drawn from the DM-feasible candidates
    spec = SearchSpec(failure_count=2)
    families = m2.element_families()
    for element, family in families.items():
        candidates = {
            frozenset(mask) for mask in feasible_masks(element, spec)
        }
        for dd in family:
            assert frozenset(dd.undetected_sites) in candidates


def test_feasible_masks_ordering_prefers_redundant_coverage():
    spec = SearchSpec(failure_count=3)
    masks = feasible_masks(PartitionElement.I0, spec)
    assert len(masks) == 17
    # the unique mask covering each violated triad twice comes first
    assert {s.label for s in masks[0]} == {"y1", "x2", "x3"}
    masks_triple = feasible_masks(PartitionElement.I_II_III, spec)
    assert len(masks_triple) == 19
    assert {s.label for s in masks_triple[0]} == {"x1", "x2", "x3"}


def test_verify_counts(m3, m2):
    assert verify_counts(m2, ExpectedCounts(m_specifications=192, combinations=96)).passed
    assert verify_counts(m3, ExpectedCounts(m_specifications=96, combinations=48)).passed
    report = verify_counts(m3, ExpectedCounts(m_specifications=128, combinations=48))
    assert not report.passed
    (failure,) = report.failures
    assert failure.quantity == "m_specifications"
    assert failure.expected == 128 and failure.actual == 96
