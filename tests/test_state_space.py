"""State space: enumeration, triad constraints, partition, contexts."""

import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ghzlocal import (
    AXES,
    PARTICLES,
    SITES,
    XY_SITES,
    Axis,
    MeasurementContext,
    MicroState,
    PartitionElement,
    Site,
    Triad,
    classify,
    enumerate_contexts,
    enumerate_ghz_microstates,
    partition_classes,
    satisfied_triads,
    satisfies,
    triad_product,
)
from ghzlocal.state_space import _ghz_microstates, _state_classes

ALL_PLUS = MicroState((1,) * 9)
STATES = enumerate_ghz_microstates()

I, II, III, IV = Triad.I, Triad.II, Triad.III, Triad.IV
# The paper's class table: the triad constraints each partition class satisfies.
CLASS_TABLE = {
    PartitionElement.I0: {I},
    PartitionElement.II0: {II},
    PartitionElement.III0: {III},
    PartitionElement.IV0: {IV},
    PartitionElement.I_II_III: {I, II, III},
    PartitionElement.I_II_IV: {I, II, IV},
    PartitionElement.I_III_IV: {I, III, IV},
    PartitionElement.II_III_IV: {II, III, IV},
}


def test_site_layout():
    assert len(SITES) == 9
    assert [s.label for s in SITES] == ["x1", "y1", "z1", "x2", "y2", "z2", "x3", "y3", "z3"]
    assert [s.label for s in XY_SITES] == ["x1", "y1", "x2", "y2", "x3", "y3"]
    assert Site.from_label("y2") == Site(Axis.Y, 2)
    with pytest.raises(ValueError):
        Site.from_label("w1")
    with pytest.raises(ValueError):
        Site.from_label("x4")
    assert [s.index for s in SITES] == list(range(9))
    for axis, particle in (("x", 1), (None, 1), (Axis.X, True), (Axis.X, 1.0), (Axis.X, 4)):
        with pytest.raises(ValueError):
            Site(axis, particle)


def test_enumeration_count_and_membership():
    assert len(STATES) == 128
    assert len(set(STATES)) == 128
    assert ALL_PLUS in STATES
    assert MicroState((1, 1, 1, 1, 1, -1, 1, 1, 1)) not in STATES
    assert all(s.is_ghz_compatible for s in STATES)


def test_enumeration_is_canonical_and_deterministic():
    again = enumerate_ghz_microstates()
    assert again == STATES
    # lexicographic with +1 before -1
    keys = [tuple(0 if v == 1 else 1 for v in s.values) for s in STATES]
    assert keys == sorted(keys)


def test_triad_sites_and_signs():
    assert [s.label for s in Triad.I.sites] == ["x1", "y2", "y3"]
    assert [s.label for s in Triad.II.sites] == ["y1", "x2", "y3"]
    assert [s.label for s in Triad.III.sites] == ["y1", "y2", "x3"]
    assert [s.label for s in Triad.IV.sites] == ["x1", "x2", "x3"]
    assert [t.required_sign for t in Triad] == [1, 1, 1, -1]


def test_triad_sites_are_the_canonical_instances():
    # `site in triad.sites` then hits by identity, without a Site.__eq__ call
    for triad in Triad:
        for site in triad.sites:
            assert site is SITES[site.index]


def test_triads_carry_their_masks_and_signs():
    for triad in Triad:
        assert triad.mask == sum(1 << s.index for s in triad.sites)
        assert all(any(s is site for site in SITES) for s in triad.sites)
        assert triad.required_sign == (-1 if triad is IV else +1)


def test_partition_elements_carry_the_class_table():
    # each member derives its facts from its value string; the table is the reference
    assert list(CLASS_TABLE) == list(PartitionElement)
    for element, satisfied in CLASS_TABLE.items():
        assert element.satisfied == frozenset(satisfied)
        assert element.violated == tuple(t for t in (I, II, III, IV) if t not in satisfied)
        assert element.is_starred is (len(satisfied) == 1)
    starred = [el for el in PartitionElement if el.is_starred]
    assert starred == [PartitionElement.I0, PartitionElement.II0, PartitionElement.III0, PartitionElement.IV0]


def test_triad_product_examples():
    assert triad_product(ALL_PLUS, Triad.I) == 1
    flipped = MicroState((-1,) + (1,) * 8)  # i1 = -1
    assert triad_product(flipped, Triad.I) == -1
    # the all-plus product on the fourth triad is +1, so its -1 requirement fails
    assert triad_product(ALL_PLUS, Triad.IV) == 1
    assert not satisfies(ALL_PLUS, Triad.IV)


def test_satisfaction_census():
    for triad in Triad:
        assert sum(1 for s in STATES if satisfies(s, triad)) == 64


def test_no_state_satisfies_all_and_every_state_satisfies_some():
    assert not any(all(satisfies(s, t) for t in Triad) for s in STATES)
    assert all(any(satisfies(s, t) for t in Triad) for s in STATES)


def test_partition_has_8_classes_of_16():
    classes = partition_classes()
    assert set(classes) == set(PartitionElement)
    assert all(len(states) == 16 for states in classes.values())
    assert sum(len(states) for states in classes.values()) == 128


def test_sign_mask_tables_match_classify():
    # partition_classes() and _state_classes() read a triad's sign from Triad.holds,
    # the parity of the state's -1s on it; classify and triad.sites are the reference
    assert partition_classes() == {
        el: tuple(s for s in STATES if classify(s) is el) for el in PartitionElement
    }
    assert list(partition_classes()) == list(PartitionElement)
    assert _state_classes() == tuple((state, classify(state)) for state in STATES)
    assert all(a is b for (a, _), b in zip(_state_classes(), STATES))
    for element in PartitionElement:
        assert element.violated == tuple(t for t in Triad if t not in element.satisfied)
    # Triad.holds reads the same parity off any of the 512 sign masks, GHZ-compatible or not
    for signs in range(512):
        state = MicroState(tuple(-1 if signs >> i & 1 else +1 for i in range(9)))
        assert state._signs == signs
        assert [t.holds(signs) for t in Triad] == [satisfies(state, t) for t in Triad]


def test_shared_states_equal_fresh_ones_and_carry_their_sign_masks():
    table = _ghz_microstates()
    assert list(table.values()) == STATES and all(a is b for a, b in zip(table.values(), STATES))
    for values, state in table.items():
        fresh = MicroState(values)
        assert state == fresh and state.values == values
        signs = sum(1 << site.index for site in SITES if state.value(site) == -1)
        assert state._signs == fresh._signs == signs
    # a state outside the table computes its mask the same way
    assert MicroState((1, 1, 1, 1, 1, -1, 1, 1, -1))._signs == (1 << 5) | (1 << 8)


def test_classify_examples():
    assert classify(ALL_PLUS) is PartitionElement.I_II_III
    state = MicroState((1, 1, 1, 1, -1, 1, 1, -1, 1))
    assert classify(state) is PartitionElement.I0


def test_classify_rejects_non_ghz_state():
    with pytest.raises(ValueError):
        classify(MicroState((1, 1, 1, 1, 1, -1, 1, 1, 1)))


@given(st.sampled_from(STATES))
def test_satisfied_triad_count_is_one_or_three(state):
    count = len(satisfied_triads(state))
    assert count in (1, 3)
    element = classify(state)
    assert element.satisfied == satisfied_triads(state)
    assert len(element.violated) == 4 - count


@given(st.tuples(*[st.sampled_from((1, -1))] * 9))
def test_odd_satisfaction_even_outside_ghz(values):
    # The four triad products always multiply to +1 while the required signs
    # multiply to -1, so an odd number of constraints fails for ANY sign tuple.
    state = MicroState(values)
    violated = sum(1 for t in Triad if not satisfies(state, t))
    assert violated % 2 == 1


def test_microstate_validation():
    with pytest.raises(ValueError):
        MicroState((1, 1, 1))
    with pytest.raises(ValueError):
        MicroState((1, 1, 1, 1, 1, 1, 1, 1, 0))


def test_context_rejects_two_axes_on_one_particle():
    with pytest.raises(ValueError):
        MeasurementContext.from_labels("x1", "y1")


def test_context_sites_are_normalized():
    ctx = MeasurementContext.from_labels("y3", "x1")
    assert ctx.label == "x1,y3"
    assert ctx.selection == {1: Axis.X, 3: Axis.Y}


def test_enumerate_contexts():
    contexts = enumerate_contexts()
    assert len(contexts) == 63
    sizes = [len(c.sites) for c in contexts]
    assert sizes.count(1) == 9 and sizes.count(2) == 27 and sizes.count(3) == 27
    assert MeasurementContext.from_labels("x1", "y2", "y3") in contexts
    assert len(set(contexts)) == 63
    assert enumerate_contexts() == contexts


def test_contexts_hold_the_canonical_sites_in_the_canonical_order():
    # the order as written out: size, then particle subset, then axes in X < Y < Z order
    expected = [
        MeasurementContext(tuple(Site(axis, particle) for axis, particle in zip(axes, particles)))
        for size in (1, 2, 3)
        for particles in itertools.combinations(PARTICLES, size)
        for axes in itertools.product(AXES, repeat=size)
    ]
    contexts = enumerate_contexts()
    assert contexts == expected
    assert [c.label for c in contexts[:4]] == ["x1", "y1", "z1", "x2"]
    assert all(site is SITES[site.index] for context in contexts for site in context.sites)


@given(st.sampled_from(enumerate_contexts()))
def test_every_context_is_compatible(ctx):
    particles = [s.particle for s in ctx.sites]
    assert len(set(particles)) == len(particles)


def test_triad_contexts_are_among_enumerated():
    contexts = set(enumerate_contexts())
    for triad in Triad:
        assert triad.context in contexts
