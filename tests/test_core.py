"""The integer core of models.py against plain Fraction loops.

Every function that reads the compiled view of a model is checked against a
reference that walks ``Model.pairs()`` with ``Fraction`` weights and builds
``m_specification`` / ``to_combination`` objects directly.  The random models
are per-state (non-uniform), with family sizes 1 to 5 (so the common weight
denominator reaches 128 * 60), z-only and all-undetected d-distributions, and
all-detected d-distributions injected into up to eight states.  The uniform
models hold one drawn family per partition class; each is built from its 8
families (one family object per class) and from a state map of equal but
distinct families, and again with one state's family swapped, which makes it
non-uniform.  On every model the 343 context-table cells are checked
against the per-pair masses, and a document whose family sizes are the primes 2
to 47 makes cells wider than 64 bits.  A class-built model holds only its
families: its views are checked before, and without, its 128 slots being stored.  The reproduction report's
triad events, read from the context table, are checked against one
``conditional_probability`` call per outcome triple.  ``verify_dm``, which reads its
verdict from the 16 detection-masking cells of the context table and walks the slots
of a failing model only, is checked against ``slot_verify_dm``, the walk over all 128
slots, and its cells against the zero-probability rows of the four triad contexts.
"""

from collections import Counter
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from ghzlocal import (
    DDistribution,
    Model,
    SearchSpec,
    Triad,
    PartitionElement,
    UndefinedConditionalError,
    census,
    classify,
    combination_distribution,
    conditional_probability,
    detection_probability,
    enumerate_contexts,
    enumerate_ghz_microstates,
    is_deterministic,
    model_m1,
    model_m2,
    model_m3,
    OutcomeAssignment,
    m_specification,
    outcome_assignments,
    qm_probability,
    search_models,
    to_combination,
    total_probability,
    verify_ac,
    verify_dm,
)
from ghzlocal import builtin, models
from ghzlocal.models import (
    AcFailure, DmFailure, VerificationReport, _ac_table, _ContextTable, _detecting, _dm_cells, _site_mask,
    mspec_occurrences,
)
from ghzlocal.serialize import model_from_json, model_to_json
from ghzlocal.state_space import _state_classes

STATES = enumerate_ghz_microstates()
ALL_DETECTED = (1 << 9) - 1
Z_BITS = (2, 5, 8)  # z1, z2, z3 in canonical site order


def ddist(mask: int) -> DDistribution:
    return DDistribution(tuple("D" if mask >> i & 1 else "U" for i in range(9)))


@st.composite
def mask_pools(draw) -> list[int]:
    # a small pool of d-distributions makes never-detected (skipped) contexts
    # likely; it always holds the all-undetected and one z-only distribution
    z_only = sum(1 << b for b in draw(st.sets(st.sampled_from(Z_BITS), min_size=1)))
    drawn = draw(st.lists(st.integers(0, ALL_DETECTED), min_size=3, max_size=10))
    return sorted({0, z_only, *drawn})


@st.composite
def random_models(draw) -> Model:
    pool = draw(mask_pools())
    if len(pool) < 5:
        pool += [m for m in (ALL_DETECTED, 1, 2, 4, 8) if m not in pool][: 5 - len(pool)]
    # every size 1..5 occurs, so the lcm of the family sizes is 60
    sizes = draw(st.permutations(list(range(1, 6)) + [draw(st.integers(1, 5)) for _ in STATES[5:]]))
    families = [
        draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n, unique=True)) for n in sizes
    ]
    for i in draw(st.sets(st.integers(0, len(STATES) - 1), max_size=8)):
        if ALL_DETECTED not in families[i]:
            families[i][0] = ALL_DETECTED
    return Model.from_state_map(
        "random", {s: [ddist(m) for m in family] for s, family in zip(STATES, families)}
    )


def cell_of(assign: OutcomeAssignment) -> int:
    """The context-table cell of an outcome assignment: per particle 0 for no site, else
    1 + 2 * axis (x, y, z = 0, 1, 2) + 1 where the outcome is -1, the first particle
    most significant in base 7."""
    options = [0, 0, 0]
    for site, value in assign.items():
        options[site.index // 3] = 1 + 2 * (site.index % 3) + (value < 0)
    return 49 * options[0] + 7 * options[1] + options[2]


def reference(model: Model) -> dict:
    """Everything the core computes, from Fraction-weighted pairs."""
    pairs = list(model.pairs())
    ac_failures, skipped = [], []
    detection, masses = {}, {}
    for context in enumerate_contexts():
        idx = [s.index for s in context.sites]
        detected = Fraction(0)
        buckets: dict = {}
        for state, dd, weight in pairs:
            if all(dd.flags[i] == "D" for i in idx):
                detected += weight
                key = tuple(state.values[i] for i in idx)
                buckets[key] = buckets.get(key, Fraction(0)) + weight
        detection[context] = detected
        if not detected:
            skipped.append(context.label)
        for assign in outcome_assignments(context):
            masses[assign] = buckets.get(assign.outcomes, Fraction(0))
            if detected and masses[assign] / detected != qm_probability(assign):
                ac_failures.append(
                    AcFailure(context, assign, qm_probability(assign), masses[assign] / detected)
                )
    dm_failures = [
        DmFailure(state, dd, triad)
        for state, family in model.assignment
        for triad in classify(state).violated
        for dd in family
        if all(dd.detects(site) for site in triad.sites)
    ]
    combos: dict = {}
    undetected = Fraction(0)
    for state, dd, weight in pairs:
        combo = to_combination(m_specification(state, dd))
        if combo is None:
            undetected += weight
        else:
            combos[combo] = combos.get(combo, Fraction(0)) + weight
    mspecs = Counter(m_specification(state, dd) for state, dd, _ in pairs)
    return {
        "ac": (tuple(ac_failures), tuple(skipped)),
        "dm": tuple(dm_failures),
        "census": (len({dd for _, dd, _ in pairs}), len(mspecs), len(combos)),
        "combinations": (list(combos.items()), undetected),
        "mspecs": list(mspecs.items()),
        "detection": detection,
        "masses": masses,
    }


def check_against_reference(model: Model) -> None:
    ref = reference(model)
    table = model._contexts  # cell 0 holds all the weight, each other cell one assignment's mass
    assert table.cells[0] == table.scale and len(table.cells) == 343
    for assign, mass in ref["masses"].items():
        assert Fraction(table.cells[cell_of(assign)], table.scale) == mass, assign
    ac = verify_ac(model)
    assert (ac.failures, ac.skipped) == ref["ac"]
    assert verify_dm(model).failures == ref["dm"]
    assert tuple(census(model)) == ref["census"]
    dist = combination_distribution(model)
    assert (list(dist.masses.items()), dist.undetected) == ref["combinations"]
    combos, undetected = ref["combinations"]
    assert dist.total_mass == sum((mass for _, mass in combos), undetected) == 1
    assert list(mspec_occurrences(model).items()) == ref["mspecs"]
    for context, detected in ref["detection"].items():
        assert detection_probability(model, context) == detected
    for assign, mass in ref["masses"].items():
        assert total_probability(model, assign) == mass
        detected = ref["detection"][assign.context]
        if detected:
            assert conditional_probability(model, assign) == mass / detected
        else:
            with pytest.raises(UndefinedConditionalError):
                conditional_probability(model, assign)


@settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(model=random_models())
def test_core_matches_fraction_loops_on_random_models(model):
    check_against_reference(model)


def test_ac_table_rows_are_the_state_vector_probabilities():
    """The premise of verify_ac's integer table: per context, in order, each row is
    one outcome assignment's key, its qm_probability as (numerator, denominator) and
    its context-table cell; the 342 rows hold the 342 nonempty cells."""
    table = _ac_table()
    assert [context for context, _, _ in table] == enumerate_contexts()
    cells = []
    for context, mask, context_rows in table:
        assert mask == _site_mask(context.sites)
        assigns = outcome_assignments(context)
        assert len(context_rows) == len(assigns)
        for (key, numerator, denominator, cell), assign in zip(context_rows, assigns):
            assert key == sum(1 << site.index for site, v in assign.items() if v < 0)
            expected = qm_probability(OutcomeAssignment(context, assign.outcomes))
            assert Fraction(numerator, denominator) == expected
            assert cell == cell_of(assign)
            cells.append(cell)
    assert sorted(cells) == list(range(1, 343))


@settings(max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(model=random_models())
def test_ac_failures_match_one_qm_call_per_assignment(model):
    ref = reference(model)
    failures = []
    for assign, mass in ref["masses"].items():
        detected = ref["detection"][assign.context]
        expected = qm_probability(assign)
        if detected and mass != expected * detected:
            failures.append(AcFailure(assign.context, assign, expected, mass / detected))
    assert verify_ac(model).failures == tuple(failures)


@pytest.mark.parametrize(
    "fixture", ["m3", "m1", "m2", "all_detected_model", "all_undetected_model"]
)
def test_core_matches_fraction_loops_on_fixed_models(fixture, request):
    check_against_reference(request.getfixturevalue(fixture))


PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def test_core_matches_fraction_loops_on_wide_cells():
    """Fifteen states whose family sizes are the primes 2 to 47, the rest of size 1: the
    scale 128 * lcm exceeds 2^64, so the cells are unpacked without a fixed-width view."""
    document = model_to_json(model_m3())
    for i, entry in enumerate(document["states"]):
        size = PRIMES[i] if i < len(PRIMES) else 1
        entry["ddists"] = [list(ddist((37 * i + 11 * k) % 512).flags) for k in range(size)]
    model = model_from_json(document)
    assert model._contexts.scale > 2**64
    check_against_reference(model)


@st.composite
def uniform_models(draw) -> tuple[Model, Model, Model]:
    """One drawn family (sizes 1 to 4) per class, as a class-built model, as a
    state map of fresh equal families, and as that map with one state's family
    swapped for a different one."""
    pool = draw(mask_pools())
    family = st.lists(st.sampled_from(pool), min_size=1, max_size=min(4, len(pool)), unique=True)
    masks = {element: draw(family) for element in PartitionElement}
    by_class = Model.from_element_families(
        "uniform", {element: [ddist(m) for m in ms] for element, ms in masks.items()}
    )
    state_masks = {state: masks[classify(state)] for state in STATES}
    by_state = Model.from_state_map(
        "uniform", {state: tuple(ddist(m) for m in ms) for state, ms in state_masks.items()}
    )
    swapped_state = draw(st.sampled_from(STATES))
    state_masks[swapped_state] = draw(family.filter(lambda ms: set(ms) != set(state_masks[swapped_state])))
    swapped = Model.from_state_map(
        "swapped", {state: tuple(ddist(m) for m in ms) for state, ms in state_masks.items()}
    )
    return by_class, by_state, swapped


def check_class_restrictions(model: Model) -> None:
    """``detection_probability`` restricted to each class against the pairs' weights: a
    class holds 16 of the 128 states, so its average is 8 times their detected weight."""
    weights: dict = {}  # (class, detected sites as a bit set) -> weight
    for state, dd, weight in model.pairs():
        key = (classify(state), sum(1 << i for i, flag in enumerate(dd.flags) if flag == "D"))
        weights[key] = weights.get(key, Fraction(0)) + weight
    for context in enumerate_contexts():
        mask = sum(1 << site.index for site in context.sites)
        for element in PartitionElement:
            expected = 8 * sum(w for (el, detected), w in weights.items() if el is element and detected & mask == mask)
            assert detection_probability(model, context, restrict=element) == expected


@settings(max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(models=uniform_models())
def test_core_matches_fraction_loops_on_uniform_models(models):
    by_class, by_state, swapped = models
    assert by_class == by_state
    for model in models:
        check_against_reference(model)
        check_class_restrictions(model)
    # the class build holds its families; a state-map model holds none and reads them from
    # its slots when asked, equal to the class build's, or lost by one state
    assert by_class._families is not None
    assert by_state._families is None and swapped._families is None
    assert by_state.element_families() == by_class.element_families()
    with pytest.raises(ValueError, match="not uniform on"):
        swapped.element_families()


def triad_events_reference(model: Model) -> dict:
    """``builtin._triad_events`` from one ``conditional_probability`` call per outcome triple."""
    events = {}
    for triad in Triad:
        mass, exact = Fraction(0), True
        for assign in outcome_assignments(triad.context):
            p = conditional_probability(model, assign)
            a, b, c = assign.outcomes
            if a * b * c == triad.required_sign:
                mass += p
                exact = exact and p == Fraction(1, 4)
            else:
                exact = exact and p == 0
        events[triad] = (mass, exact)
    return events


@pytest.mark.parametrize("fixture", ["m3", "m1", "m2"])
def test_triad_events_match_conditional_probabilities_on_fixed_models(fixture, request):
    model = request.getfixturevalue(fixture)
    assert builtin._triad_events(model) == triad_events_reference(model)


@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(models=uniform_models())
def test_triad_events_match_conditional_probabilities_on_uniform_models(models):
    # a class keeps its family in 15 of its 16 states, so a swapped model detects what by_class does
    assume(all(detection_probability(models[0], triad.context) for triad in Triad))
    for model in models:
        assert builtin._triad_events(model) == triad_events_reference(model)


def test_a_pair_fills_the_cells_of_the_contexts_it_detects():
    """The premise of the one-pass context table: a lone pair with detect mask d and sign mask
    s fills the empty cell and, for exactly the contexts whose sites d detects (the brute-force
    filter of the 63 context masks), the cell of the outcome ``s & mask``, each with its weight."""
    contexts = [(_site_mask(context.sites), context) for context in enumerate_contexts()]
    assert len({mask for mask, _ in contexts}) == 63
    for detect in range(ALL_DETECTED + 1):
        for signs in {0, detect, detect & 0b101010101, detect & 0b011001110}:
            filled = {0} | {
                cell_of(OutcomeAssignment(context, tuple(-1 if signs >> s.index & 1 else +1 for s in context.sites)))
                for mask, context in contexts if detect & mask == mask
            }
            lone = SimpleNamespace(_lcm=1, _mspecs=(None, {detect << 9 | signs: 1}))
            assert _ContextTable(lone).cells == [int(cell in filled) for cell in range(343)], (detect, signs)


def slot_free_views(model: Model) -> list:
    """The views that a class-built model answers without storing its slots, with the order of
    failures, combination masses and m-specifications kept."""
    ac, dist = verify_ac(model), combination_distribution(model)
    return [
        (ac.failures, ac.skipped),
        verify_dm(model).failures,
        tuple(census(model)),
        (list(dist.masses.items()), dist.undetected),
        list(mspec_occurrences(model).items()),
        is_deterministic(model),
        model.element_families(),
        repr(model),
    ]


def reference_views(model: Model) -> list:
    """``slot_free_views`` from the Fraction loops over the model's slots."""
    ref = reference(model)
    return [
        ref["ac"],
        ref["dm"],
        ref["census"],
        ref["combinations"],
        ref["mspecs"],
        all(len(family) == 1 for _, family in model.assignment),
        {classify(state): family for state, family in model.assignment},
        f"Model(name={model.name!r}, states=128)",
    ]


def check_class_views(families: dict) -> None:
    """The views of a class-built model, computed without storing its slots, against the
    Fraction loops over the state-map model of the same slots."""
    lazy = Model.from_element_families("uniform", families)
    by_state = Model.from_state_map("uniform", {state: families[classify(state)] for state in STATES})
    assert slot_free_views(lazy) == reference_views(by_state)
    assert "assignment" not in lazy.__dict__


@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(models=uniform_models())
def test_class_views_match_fraction_loops_without_slots(models):
    by_class, by_state, swapped = models
    check_class_views(by_class.element_families())
    for model in models:
        assert is_deterministic(model) == all(len(family) == 1 for _, family in model.assignment)
    # the class build sets the families; a state-map model holds none and reads them from its slots
    assert by_class._families == by_class.element_families() == by_state.element_families()
    assert by_state._families is None and swapped._families is None
    with pytest.raises(ValueError, match="not uniform on"):
        swapped.element_families()


@pytest.mark.parametrize("builder", [model_m3, model_m1, model_m2])
def test_class_views_of_the_builtin_models(builder):
    check_class_views(builder().element_families())


# every class fails detection masking on each triad it violates, so the failures of
# all 128 states interleave the classes
FAILING_FAMILIES = (
    {element: (DDistribution.all_detected(),) for element in PartitionElement},
    {element: (ddist(0), ddist(ALL_DETECTED), ddist(0b111111000)) for element in PartitionElement},
)


def test_class_views_list_dm_failures_in_state_order():
    for families in FAILING_FAMILIES:
        check_class_views(families)


def slot_verify_dm(model: Model) -> VerificationReport:
    """``verify_dm`` walking the 128 slots, each with its class's violated triads: the
    oracle of the verdict read from the context table, and of the failures listed."""
    failures = []
    for (state, family), (_, element) in zip(model.assignment, _state_classes()):
        for triad in element.violated:
            for dd in _detecting(family, triad.mask):
                failures.append(DmFailure(state, dd, triad))
    return VerificationReport("dm", tuple(failures))


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(models=uniform_models())
def test_dm_verdict_from_the_table_matches_the_slot_walk_on_drawn_families(models):
    # the class-built, state-map and swapped models all read their verdict from the table
    for model in models:
        assert verify_dm(model) == slot_verify_dm(model)


def test_dm_verdict_from_the_table_matches_the_slot_walk():
    searched = search_models(SearchSpec(failure_count=2, ddists_per_state=(1, 2), limit=40))
    fixed = [Model.from_element_families("failing", families) for families in FAILING_FAMILIES]
    for model in [model_m3(), model_m1(), model_m2(), *fixed, *searched]:
        assert verify_dm(model) == slot_verify_dm(model), model.name
    assert all(len(verify_dm(model).failures) > 128 for model in fixed)


def test_dm_cells_are_the_zero_probability_rows_of_the_triads():
    """The premise of the DM verdict: a pair detecting a triad lands in one of its 8 outcome
    cells, and the 4 that break its required sign are the ones of GHZ probability 0."""
    triads = {triad.mask for triad in Triad}
    zero = {cell for _, mask, rows in _ac_table() if mask in triads for _, numerator, _, cell in rows if numerator == 0}
    assert len(_dm_cells()) == len(set(_dm_cells())) == 16
    assert set(_dm_cells()) == zero


@pytest.mark.parametrize("element", list(PartitionElement), ids=lambda element: element.value)
def test_one_exposed_state_fails_dm_on_exactly_its_violated_triads(element):
    """M3 with one state of the class detecting all nine sites: DM fails once per triad the
    state violates (one for a triple class, whose triad's cells alone decide the verdict;
    three for a starred class), and nowhere else."""
    state = next(state for state, el in _state_classes() if el is element)
    slots = dict(model_m3().assignment)
    slots[state] = (DDistribution.all_detected(),)
    model = Model.from_state_map("exposed", slots)
    report = verify_dm(model)
    assert [(f.state, f.ddist, f.triad) for f in report.failures] == [
        (state, DDistribution.all_detected(), triad) for triad in element.violated
    ]
    assert len(report.failures) == (3 if element.value.endswith("0") else 1)
    assert report == slot_verify_dm(model)


def test_a_passing_model_does_not_walk_its_slots(monkeypatch):
    """A model with no weight in the DM cells passes from its context table alone: with the
    per-family detecting filter broken, M3, M1, M2 and a document model still pass."""
    passing = [model_m3(), model_m1(), model_m2(), model_from_json(model_to_json(model_m2()))]

    def broken(family, mask):
        raise AssertionError("a passing model walked its slots")

    monkeypatch.setattr(models, "_detecting", broken)
    for model in passing:
        assert verify_dm(model).passed, model.name


def test_class_built_models_derive_their_slots_only_on_demand():
    """Searching, building a built-in, its report rows and every view below leave a
    class-built model's 128 slots unbuilt; a per-state reader then derives them, equal
    to the constructor's."""
    for name, build in (("M3", model_m3), ("M1", model_m1), ("M2", model_m2)):
        model = build()
        builtin._ROWS[name](model)
        assert "assignment" not in model.__dict__, name
    searched = search_models(SearchSpec(failure_count=2, ddists_per_state=(1, 2), limit=6))
    views = (
        verify_ac, verify_dm, census, combination_distribution, mspec_occurrences,
        is_deterministic, Model.element_families, repr,
        lambda model: detection_probability(model, Triad.I.context),
        lambda model: total_probability(model, outcome_assignments(Triad.IV.context)[0]),
    )
    for model in [*searched, model_m3(), model_m1(), model_m2()]:
        assert "assignment" not in model.__dict__
        for view in views:
            view(model)
            assert "assignment" not in model.__dict__, view
        assert model == Model.from_state_map(model.name, dict(model.assignment))
        assert "assignment" in model.__dict__


def test_document_models_read_their_slots_without_a_state_map():
    """A document model holds no class families: its lcm, views and ``element_families()``
    walk its slots beside ``_state_classes()``, and only ``family()`` builds the state ->
    family dict.  Its families come in PartitionElement order, not in the order the classes
    first occur among the states, and a non-uniform one names its first such class in that
    order."""
    uniform = model_from_json(model_to_json(model_m2()))
    document = model_to_json(model_m3())
    first, last = document["states"][0], document["states"][-1]  # an I&II&III and an IV0 state
    first["ddists"], last["ddists"] = last["ddists"], first["ddists"]
    swapped = model_from_json(document)
    for model in (uniform, swapped):
        for view in (verify_ac, verify_dm, census, combination_distribution):
            view(model)
        assert "_family_map" not in model.__dict__, model.name
    assert list(uniform.element_families()) == list(PartitionElement)
    assert uniform.element_families() == model_m2().element_families()
    assert uniform._families is None and swapped._families is None
    with pytest.raises(ValueError, match="not uniform on IV0$"):  # IV0 comes before I&II&III
        swapped.element_families()
    assert "_family_map" not in swapped.__dict__
    swapped.family(STATES[0])
    assert "_family_map" in swapped.__dict__
