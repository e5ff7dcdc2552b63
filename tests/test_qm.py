"""Quantum oracle: state-vector route, closed forms, and the verbal rule table.

All values are exact; every comparison is ==.  Values marked by hand below
were computed by projecting the unnormalized GHZ vector manually.
"""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ghzlocal import (
    GHZ_AMPLITUDES,
    GHZ_SQUARED_NORM,
    Axis,
    MeasurementContext,
    OutcomeAssignment,
    Triad,
    enumerate_contexts,
    ghz_triad_probability,
    outcome_assignments,
    qm_probability,
    rule_table_probability,
)

CONTEXTS = enumerate_contexts()


def assign(spec: str) -> OutcomeAssignment:
    """Parse 'x1=+1,y2=-1' into an assignment."""
    pairs = [token.split("=") for token in spec.split(",")]
    ctx = MeasurementContext.from_labels(*[p[0] for p in pairs])
    by_label = {p[0]: int(p[1]) for p in pairs}
    return OutcomeAssignment(ctx, tuple(by_label[s.label] for s in ctx.sites))


def test_ghz_vector_shape():
    assert GHZ_AMPLITUDES == ((1, 0),) + ((0, 0),) * 6 + ((-1, 0),)
    assert GHZ_SQUARED_NORM == sum(re * re + im * im for re, im in GHZ_AMPLITUDES) == 2


def test_single_site_probabilities_are_half():
    for axis in Axis:
        for particle in (1, 2, 3):
            for sign in (1, -1):
                a = assign(f"{axis.value}{particle}={sign:+d}")
                assert qm_probability(a) == Fraction(1, 2)


def test_opposite_z_pair_is_impossible():
    assert qm_probability(assign("z1=+1,z2=-1")) == 0
    assert qm_probability(assign("z1=+1,z2=+1")) == Fraction(1, 2)


def test_two_z_plus_one_transverse():
    # by hand: projecting out z1=z2=+1 leaves the +++ branch, then the
    # transverse measurement splits it evenly
    assert qm_probability(assign("z1=+1,z2=+1,x3=-1")) == Fraction(1, 4)
    assert qm_probability(assign("z1=+1,z2=+1,x3=+1")) == Fraction(1, 4)
    assert qm_probability(assign("z1=+1,z2=-1,x3=+1")) == 0


def test_triad_closed_forms_match_state_vector():
    for triad in Triad:
        for a in outcome_assignments(triad.context):
            assert qm_probability(a) == ghz_triad_probability(triad, a.outcomes)


def test_triad_examples():
    assert ghz_triad_probability(Triad.IV, (1, 1, 1)) == 0
    assert ghz_triad_probability(Triad.I, (1, 1, 1)) == Fraction(1, 4)
    total = sum(
        ghz_triad_probability(Triad.II, a.outcomes)
        for a in outcome_assignments(Triad.II.context)
    )
    assert total == 1


def test_rule_table_examples():
    assert rule_table_probability(assign("x1=+1,y2=-1")) == Fraction(1, 4)
    assert rule_table_probability(assign("z1=+1,z2=+1,z3=+1")) == Fraction(1, 2)
    assert rule_table_probability(assign("x1=+1,x2=+1,y3=+1")) == Fraction(1, 8)


@given(st.sampled_from(CONTEXTS))
def test_normalization(ctx):
    assert sum(qm_probability(a) for a in outcome_assignments(ctx)) == 1


@given(st.sampled_from([c for c in CONTEXTS if len(c.sites) >= 2]))
def test_marginal_consistency(ctx):
    # summing out the last site reproduces the reduced-context probability
    reduced = MeasurementContext(ctx.sites[:-1])
    for a in outcome_assignments(reduced):
        marginal = sum(
            qm_probability(OutcomeAssignment(ctx, a.outcomes + (sign,)))
            for sign in (1, -1)
        )
        assert marginal == qm_probability(a)


def test_rule_table_agrees_with_state_vector_everywhere():
    for ctx in CONTEXTS:
        for a in outcome_assignments(ctx):
            assert rule_table_probability(a) == qm_probability(a), a.label


def test_all_values_are_dyadic_with_denominator_dividing_8():
    for ctx in CONTEXTS:
        for a in outcome_assignments(ctx):
            p = qm_probability(a)
            assert 0 <= p <= 1
            assert 8 % p.denominator == 0


def test_double_z_opposite_signs_always_zero():
    for ctx in CONTEXTS:
        z_positions = [i for i, s in enumerate(ctx.sites) if s.axis is Axis.Z]
        if len(z_positions) < 2:
            continue
        for a in outcome_assignments(ctx):
            z_signs = {a.outcomes[i] for i in z_positions}
            if len(z_signs) > 1:
                assert qm_probability(a) == 0


def test_outcome_assignment_validation():
    ctx = MeasurementContext.from_labels("x1", "y2")
    with pytest.raises(ValueError):
        OutcomeAssignment(ctx, (1,))
    with pytest.raises(ValueError):
        OutcomeAssignment(ctx, (1, 0))


def test_outcome_assignments_enumeration_order():
    ctx = MeasurementContext.from_labels("x1", "y2")
    outcomes = [a.outcomes for a in outcome_assignments(ctx)]
    assert outcomes == [(1, 1), (1, -1), (-1, 1), (-1, -1)]
