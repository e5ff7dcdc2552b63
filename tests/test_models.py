"""Model calculus: m-specifications, the three probabilities, verification, combinations."""

import itertools
import operator
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghzlocal import (
    SITES,
    XY_SITES,
    Combination,
    CombinationDistribution,
    DDistribution,
    MeasurementContext,
    MicroState,
    Model,
    MSpecification,
    OutcomeAssignment,
    PartitionElement,
    Site,
    Triad,
    UndefinedConditionalError,
    census,
    classify,
    combination_distribution,
    conditional_probability,
    conditional_probability_by_element,
    detection_probability,
    enumerate_contexts,
    enumerate_ghz_microstates,
    is_deterministic,
    m_specification,
    outcome_assignments,
    partition_classes,
    qm_probability,
    to_combination,
    total_probability,
    verify_ac,
    verify_dm,
)

ALL_PLUS = MicroState((1,) * 9)


def ctx(*labels: str) -> MeasurementContext:
    return MeasurementContext.from_labels(*labels)


def sign_assign(context: MeasurementContext, *outcomes: int) -> OutcomeAssignment:
    return OutcomeAssignment(context, tuple(outcomes))


# --------------------------------------------------------------------------- m-specifications


def test_mspec_identity_under_full_detection():
    spec = m_specification(ALL_PLUS, DDistribution.all_detected())
    assert spec.values == (1,) * 9


def test_mspec_all_zero_under_no_detection():
    spec = m_specification(ALL_PLUS, DDistribution.all_undetected())
    assert spec.values == (0,) * 9
    assert spec.is_all_zero


def test_mspec_of_starred_state_under_its_mask(m3):
    state = MicroState((1, 1, 1, 1, -1, 1, 1, -1, 1))  # a member of I0
    assert classify(state) is PartitionElement.I0
    dd = m3.family(state)[0]
    spec = m_specification(state, dd)
    # outcomes survive at x1, y2, y3 and the z sites; zeros at y1, x2, x3
    assert spec.values == (1, 0, 1, 0, -1, 1, 0, -1, 1)


def test_mspec_is_context_free_and_determines_every_context_quantity(m1):
    # locality: all context-dependent masses factor through the m-specification
    for context in enumerate_contexts():
        idxs = [s.index for s in context.sites]
        detected = Fraction(0)
        by_outcome: dict = {}
        for state, family in m1.assignment:
            for dd in family:
                spec = m_specification(state, dd)
                if all(spec.values[i] != 0 for i in idxs):
                    w = Fraction(1, 128 * len(family))
                    detected += w
                    key = tuple(spec.values[i] for i in idxs)
                    by_outcome[key] = by_outcome.get(key, Fraction(0)) + w
        assert detected == detection_probability(m1, context)
        for assign in outcome_assignments(context):
            expected = by_outcome.get(assign.outcomes, Fraction(0)) / detected
            assert conditional_probability(m1, assign) == expected


# --------------------------------------------------------------------------- detection


def test_detection_examples(m3, m1):
    assert detection_probability(m3, ctx("z1")) == 1
    assert detection_probability(m1, ctx("x1"), restrict=PartitionElement.I_II_III) == Fraction(2, 3)
    assert (
        detection_probability(m1, ctx("x1", "x2", "x3"), restrict=PartitionElement.I_II_III)
        == 0
    )
    assert detection_probability(m1, ctx("x1")) == Fraction(5, 12)


def test_detection_restricted_to_single_state(m1):
    state = partition_classes()[PartitionElement.I_II_III][0]
    assert detection_probability(m1, ctx("x1"), restrict=state) == Fraction(2, 3)
    starred = partition_classes()[PartitionElement.I0][0]
    assert detection_probability(m1, ctx("x1"), restrict=starred) == 0


def test_detection_restricted_to_non_ghz_state_names_it(m1):
    state = MicroState((1, 1, 1, 1, 1, -1, 1, 1, 1))
    with pytest.raises(ValueError, match=re.escape(state.label)):
        detection_probability(m1, ctx("x1"), restrict=state)


# --------------------------------------------------------------------------- conditionals


def test_conditional_examples(m3, m1):
    assert conditional_probability(m3, sign_assign(ctx("x1"), 1)) == Fraction(1, 2)
    # any outcome triple satisfying the first triad's constraint
    assert conditional_probability(m3, sign_assign(Triad.I.context, 1, 1, 1)) == Fraction(1, 4)
    event = Fraction(0)
    for assign in outcome_assignments(Triad.I.context):
        if assign.outcomes[0] * assign.outcomes[1] * assign.outcomes[2] == 1:
            p = conditional_probability(m1, assign)
            assert p == Fraction(1, 4)
            event += p
    assert event == 1


def test_conditional_undefined_when_never_detected(all_undetected_model):
    with pytest.raises(UndefinedConditionalError):
        conditional_probability(all_undetected_model, sign_assign(ctx("x1"), 1))


def test_total_probability_examples(m3, all_undetected_model):
    assert total_probability(m3, sign_assign(ctx("z1"), 1)) == Fraction(1, 2)
    assert total_probability(all_undetected_model, sign_assign(ctx("x1"), 1)) == 0
    assert total_probability(m3, sign_assign(Triad.I.context, 1, 1, 1)) == Fraction(1, 32)


def test_total_is_detection_times_conditional(m2):
    for context in enumerate_contexts():
        det = detection_probability(m2, context)
        for assign in outcome_assignments(context):
            total = total_probability(m2, assign)
            if det == 0:
                assert total == 0
            else:
                cond = conditional_probability(m2, assign)
                assert total == det * cond
                assert 0 <= total <= cond


# --------------------------------------------------------------------------- verification


def test_builtin_models_pass_ac_and_dm(m3, m1, m2):
    for model in (m3, m1, m2):
        assert verify_ac(model).passed
        assert verify_dm(model).passed


def test_builtin_models_skip_no_context(m3, m1, m2):
    for model in (m3, m1, m2):
        assert verify_ac(model).skipped == ()


def test_all_detected_model_fails_ac_with_triad_witness(all_detected_model):
    report = verify_ac(all_detected_model)
    assert not report.passed
    triad_contexts = {t.context for t in Triad}
    assert any(f.context in triad_contexts for f in report.failures)
    # and nothing else can fail: the state census matches the quantum values
    # on every non-triad context
    assert all(f.context in triad_contexts for f in report.failures)


def test_all_undetected_model_skips_everything(all_undetected_model):
    report = verify_ac(all_undetected_model)
    assert report.passed
    assert len(report.skipped) == 63


def test_dm_failure_witness(m3):
    # giving the all-plus state full detection violates masking on triad IV
    mapping = {state: list(m3.family(state)) for state in enumerate_ghz_microstates()}
    mapping[ALL_PLUS] = [DDistribution.all_detected()]
    broken = Model.from_state_map("broken", mapping)
    report = verify_dm(broken)
    assert not report.passed
    assert any(f.state == ALL_PLUS and f.triad is Triad.IV for f in report.failures)


def test_is_deterministic(m3, m1, m2):
    assert is_deterministic(m3)
    assert not is_deterministic(m1)
    assert not is_deterministic(m2)


def test_triad_event_is_certain_for_ac_models(m3, m1, m2):
    for model in (m3, m1, m2):
        for triad in Triad:
            if detection_probability(model, triad.context) == 0:
                continue
            event = sum(
                conditional_probability(model, a)
                for a in outcome_assignments(triad.context)
                if a.outcomes[0] * a.outcomes[1] * a.outcomes[2] == triad.required_sign
            )
            assert event == 1


# --------------------------------------------------------------------------- two code paths


def test_elementwise_conditional_agrees_with_brute_force(m3, m1):
    for model in (m3, m1):
        for context in enumerate_contexts():
            for assign in outcome_assignments(context):
                try:
                    brute = conditional_probability(model, assign)
                except UndefinedConditionalError:
                    with pytest.raises(UndefinedConditionalError):
                        conditional_probability_by_element(model, assign)
                    continue
                assert conditional_probability_by_element(model, assign) == brute


def test_elementwise_conditional_rejects_non_uniform_models(m3):
    mapping = {state: list(m3.family(state)) for state in enumerate_ghz_microstates()}
    mapping[ALL_PLUS] = [DDistribution.all_undetected()]
    lopsided = Model.from_state_map("lopsided", mapping)
    with pytest.raises(ValueError):
        conditional_probability_by_element(lopsided, OutcomeAssignment.of({Site.from_label("x1"): 1}))


# --------------------------------------------------------------------------- combinations


def test_to_combination_examples():
    spec = MSpecification((1, 0, 1, 0, 1, 1, 0, 1, 1))
    assert to_combination(spec) == Combination(("+1", "D", "D", "+1", "D", "+1"))
    spec2 = MSpecification((0, 1, 1, 0, 1, 1, 0, 1, 1))
    assert to_combination(spec2) == Combination(("D", "+1", "D", "+1", "D", "+1"))
    assert to_combination(MSpecification((0,) * 9)) is None


def test_surviving_triad_counts():
    assert Combination(("+1", "D", "D", "+1", "D", "+1")).surviving_triads == 1
    assert Combination(("D", "+1", "D", "+1", "D", "+1")).surviving_triads == 0
    assert Combination(("D", "+1", "+1", "+1", "+1", "+1")).surviving_triads == 2
    assert Combination(("+1",) * 6).surviving_triads == 4
    # all 3^6 combinations: each triad's slots are its sites' positions among the x/y sites
    positions = [[XY_SITES.index(site) for site in triad.sites] for triad in Triad]
    order = {"+1": 0, "-1": 1, "D": 2}
    for slots in itertools.product(("+1", "-1", "D"), repeat=6):
        combo = Combination(slots)
        assert combo.surviving_triads == sum(all(slots[p] != "D" for p in triad) for triad in positions), slots
        assert combo._sort_key == tuple(order[slot] for slot in slots), slots
        assert hash(combo) == hash((slots,)), slots


def test_combination_distribution_masses(m3, m1, m2):
    d3 = combination_distribution(m3)
    tally = {}
    for mass in d3.masses.values():
        tally[mass] = tally.get(mass, 0) + 1
    assert tally == {Fraction(1, 32): 16, Fraction(1, 64): 32}
    assert d3.undetected == 0
    assert d3.total_mass == 1

    d1 = combination_distribution(m1)
    assert len(d1.masses) == 48
    assert set(d1.masses.values()) == {Fraction(1, 96)}
    assert d1.undetected == Fraction(1, 2)
    assert d1.total_mass == 1

    d2 = combination_distribution(m2)
    assert len(d2.masses) == 96
    assert d2.total_mass == 1


def test_total_mass_is_exact_for_any_masses():
    # coprime denominators, so no shared scale: the integer sum runs over their lcm
    slots = itertools.islice(itertools.product(("+1", "-1", "D"), repeat=6), 4)
    masses = dict(zip(map(Combination, slots), (Fraction(1, 3), Fraction(2, 7), Fraction(5, 11), Fraction(-4, 17))))
    for dist in (
        CombinationDistribution(masses, Fraction(1, 13)),
        CombinationDistribution(masses, Fraction(0)),
        CombinationDistribution({}, Fraction(3, 5)),
        CombinationDistribution({}, Fraction(0)),
    ):
        total = dist.total_mass
        assert type(total) is Fraction
        assert total == sum(dist.masses.values(), dist.undetected)
    assert CombinationDistribution(masses, Fraction(1, 13)).total_mass == Fraction(46723, 51051)


def test_census_examples(m3, m1, m2):
    assert census(m3) == (8, 96, 48)
    assert census(m1) == (7, 97, 48)  # the all-U distribution and all-zero m-spec included
    assert census(m2) == (12, 192, 96)


# --------------------------------------------------------------------------- model structure


def test_model_requires_full_state_coverage():
    with pytest.raises(ValueError):
        Model.from_state_map("partial", {ALL_PLUS: [DDistribution.all_detected()]})
    # the constructor itself insists on every state, in canonical order
    states = enumerate_ghz_microstates()
    family = (DDistribution.all_detected(),)
    for order in (states[::-1], states[1:], [states[1], states[0], *states[2:]], states + states[:1]):
        with pytest.raises(ValueError):
            Model("out-of-order", tuple((s, family) for s in order))
    # the order is checked by equality: states equal to the shared ones, not them, pass
    fresh = [MicroState(s.values) for s in states]
    assert not any(map(operator.is_, fresh, states))
    assert Model("m", tuple((s, family) for s in fresh)) == Model("m", tuple((s, family) for s in states))


def test_model_rejects_empty_family():
    mapping = {s: [DDistribution.all_detected()] for s in enumerate_ghz_microstates()}
    mapping[ALL_PLUS] = []
    with pytest.raises(ValueError):
        Model.from_state_map("empty-family", mapping)


def test_model_families_are_normalized():
    dd1 = DDistribution.all_detected()
    dd2 = DDistribution.all_undetected()
    mapping = {s: [dd2, dd1, dd2] for s in enumerate_ghz_microstates()}
    model = Model.from_state_map("normalized", mapping)
    assert model.family(ALL_PLUS) == (dd1, dd2)
    # the constructor canonicalises: shuffled, repeated families built directly
    # equal the model from the state map, whatever order either was given in
    dd3 = DDistribution.with_undetected([Site.from_label("x1")])
    states = enumerate_ghz_microstates()
    pools = [[dd3, dd1, dd3], [dd2, dd3, dd1, dd2], [dd1, dd1]]
    direct = Model("normalized", tuple((s, pools[i % 3]) for i, s in enumerate(states)))
    mapped = Model.from_state_map(
        "normalized", {s: pools[i % 3][::-1] for i, s in enumerate(states)}
    )
    assert direct == mapped
    assert [family for _, family in direct.assignment[:3]] == [(dd1, dd3), (dd1, dd3, dd2), (dd1,)]
    assert Model("normalized", tuple((s, mapping[s]) for s in states)) == model
    # a family of one, given as a fresh d-distribution equal to a shared one
    fresh = Model("normalized", tuple((s, [DDistribution(dd3.flags)]) for s in states))
    assert fresh == Model("normalized", tuple((s, (dd3,)) for s in states))
    assert [family for _, family in fresh.assignment[:2]] == [(dd3,), (dd3,)]
    # a lone non-d-distribution is refused as in a longer family: it has no flags
    with pytest.raises(AttributeError):
        Model("normalized", tuple((s, [dd3.flags]) for s in states))


def test_shared_family_object_is_canonicalised_for_every_state():
    # from_element_families hands one family object to the 16 states of a
    # class; the constructor sorts and de-duplicates it once, for all of them
    pool = [DDistribution.with_undetected([site]) for site in SITES]
    families = {el: [pool[i], pool[0], pool[i], pool[8 - i]] for i, el in enumerate(PartitionElement)}
    model = Model.from_element_families("shared", families)
    for element, states in partition_classes().items():
        want = tuple(sorted(set(families[element]), key=lambda d: d.flags))
        assert [model.family(state) for state in states] == [want] * 16
        assert len({id(model.family(state)) for state in states}) == 1
    fresh = {s: list(families[classify(s)]) for s in enumerate_ghz_microstates()}
    assert Model.from_state_map("shared", fresh) == model
    # the model and its census do not depend on the order families are given in
    assert census(Model.from_element_families("r", {el: f[::-1] for el, f in families.items()})) == (
        census(model)
    )


SHARED_POOL = [DDistribution.with_undetected([site]) for site in SITES] + [
    DDistribution.all_detected(),
    DDistribution.all_undetected(),
]


@st.composite
def class_families(draw) -> dict:
    """A family per class: repeats, any order, and now and then a lone fresh
    d-distribution equal to a shared one."""
    families = {}
    for element in PartitionElement:
        members = draw(st.lists(st.sampled_from(SHARED_POOL), min_size=1, max_size=6))
        if len(members) == 1 and draw(st.booleans()):
            members = [DDistribution(members[0].flags)]
        families[element] = draw(st.sampled_from([list, tuple]))(members)
    return families


@settings(max_examples=40, deadline=None)
@given(families=class_families(), element=st.sampled_from(list(PartitionElement)))
def test_class_build_equals_state_build(families, element):
    # from_element_families fills the 128 slots from 8 canonical families; the
    # constructor canonicalises per state; both apply the same family rule
    model = Model.from_element_families("m", families)
    slots = {s: list(families[classify(s)]) for s in enumerate_ghz_microstates()}
    by_state = Model.from_state_map("m", slots)
    assert model == by_state and hash(model) == hash(by_state)
    assert model.assignment == by_state.assignment
    assert [state for state, _ in model.assignment] == enumerate_ghz_microstates()
    for el, states in partition_classes().items():
        want = tuple(sorted(set(families[el]), key=lambda d: d.flags))
        assert model.family(states[0]) == want
        assert len({id(model.family(state)) for state in states}) == 1
    # a missing class, an extra key and an empty family are refused
    missing = {el: f for el, f in families.items() if el is not element}
    for bad in (missing, {**families, "extra": families[element]}, {**families, element: []}):
        with pytest.raises(ValueError):
            Model.from_element_families("bad", bad)
    # a member without flags, alone or beside d-distributions
    for member in ([SHARED_POOL[0].flags], [SHARED_POOL[0], SHARED_POOL[1].flags]):
        with pytest.raises(AttributeError):
            Model.from_element_families("bad", {**families, element: member})


def test_model_from_one_pass_iterable_of_fresh_families():
    # each family list is dropped by its producer as soon as it is handed on, so
    # a freed list's id can come back for the next one with other contents
    pool = [DDistribution.with_undetected([site]) for site in SITES]
    states = enumerate_ghz_microstates()
    model = Model("fresh", ((s, [pool[i % 9]]) for i, s in enumerate(states)))
    assert [model.family(s) for s in states] == [(pool[i % 9],) for i in range(128)]


def test_detect_masks_match_flags():
    for flags in itertools.product("DU", repeat=9):
        ddist = DDistribution(flags)
        assert ddist._detected == sum(1 << s.index for s in SITES if ddist.detects(s))
    assert DDistribution.all_detected()._detected == 0b111111111
    assert DDistribution.with_undetected([Site.from_label("y3")])._detected == 0b101111111


def test_ddistribution_validation():
    with pytest.raises(ValueError):
        DDistribution(("D",) * 8)
    with pytest.raises(ValueError):
        DDistribution(("D",) * 8 + ("X",))


ASSIGNMENTS = [
    a for context in enumerate_contexts() for a in outcome_assignments(context)
]


@settings(max_examples=60)
@given(assign=st.sampled_from(ASSIGNMENTS))
def test_conditional_matches_qm_on_builtin(assign, m2):
    # the adequacy condition, sampled pointwise on the two-failure model
    assert conditional_probability(m2, assign) == qm_probability(assign)
