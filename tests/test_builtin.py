"""The three shipped models against every published count and probability.

The models are built in ``builtin.py`` from their class rules; these tests
derive the same rules independently from the triad structure, compare them
with the built families, and check the full set of stated numbers, so a wrong
rule cannot survive.
"""

import hashlib
import itertools
import json
from fractions import Fraction

import pytest

from ghzlocal import (
    BUILTIN_SELECTORS,
    XY_SITES,
    DDistribution,
    MeasurementContext,
    Model,
    PartitionElement,
    Triad,
    census,
    combination_distribution,
    detection_probability,
    m_specification,
    model_m3,
    mspec_occurrences,
    partition_classes,
    reproduce_section4,
)
from ghzlocal import builtin
from ghzlocal.builtin import builtin_model
from ghzlocal.serialize import combinations_to_csv, model_to_json, repro_report_to_json
from test_reproduce_all import DATA, MODEL_SHA256


def ctx(*labels: str) -> MeasurementContext:
    return MeasurementContext.from_labels(*labels)


def xy_complement(sites):
    return tuple(s for s in XY_SITES if s not in sites)


def same_triad_pairs():
    return {frozenset(pair) for t in Triad for pair in itertools.combinations(t.sites, 2)}


def undetected_labels(selector):
    """Per class, the undetected-site labels of each d-distribution of the built model."""
    return {
        element: [{s.label for s in dd.undetected_sites} for dd in family]
        for element, family in builtin_model(selector).element_families().items()
    }


# --------------------------------------------------------------------------- rule derivations


def test_m3_table_matches_triad_structure():
    families = undetected_labels("M3")
    assert set(families) == set(PartitionElement)
    for element, masks in families.items():
        (mask,) = masks
        if element.is_starred:
            (satisfied,) = element.satisfied
            expected = {s.label for s in xy_complement(satisfied.sites)}
        else:
            (violated,) = element.violated
            expected = {s.label for s in violated.sites}
        assert mask == expected, element


def test_m1_table_masks_the_violated_triad():
    families = undetected_labels("M1")
    assert set(families) == set(PartitionElement)
    for element, masks in families.items():
        if element.is_starred:
            assert masks == [{f"{axis}{n}" for axis in "xyz" for n in (1, 2, 3)}], element
            continue
        (violated,) = element.violated
        assert all(len(mask) == 1 for mask in masks), element
        assert sorted(lb for mask in masks for lb in mask) == sorted(s.label for s in violated.sites), element


def test_m2_table_matches_pair_rule():
    shared = same_triad_pairs()
    families = undetected_labels("M2")
    assert set(families) == set(PartitionElement)
    for element, masks in families.items():
        got = {frozenset(mask) for mask in masks}
        if element.is_starred:
            (satisfied,) = element.satisfied
            complement = xy_complement(satisfied.sites)
            expected = {
                frozenset((a.label, b.label))
                for a, b in itertools.combinations(complement, 2)
            }
        else:
            (violated,) = element.violated
            violated_labels = {s.label for s in violated.sites}
            expected = {
                frozenset((a.label, b.label))
                for a, b in itertools.combinations(XY_SITES, 2)
                if frozenset((a, b)) in shared
                and ({a.label, b.label} & violated_labels)
            }
            assert len(expected) == 9, element
        assert got == expected, element


# --------------------------------------------------------------------------- structural facts


def test_m3_failure_counts_and_z_flags(m3):
    for _, family in m3.assignment:
        assert len(family) == 1
        assert family[0].undetected_count == 3
        assert all(family[0].flags[i] == "D" for i in (2, 5, 8))


def test_m1_failure_counts(m1):
    for state, family in m1.assignment:
        counts = sorted(dd.undetected_count for dd in family)
        if family[0] == DDistribution.all_undetected():
            assert counts == [9]
        else:
            assert counts == [1, 1, 1]
            assert all(all(dd.flags[i] == "D" for i in (2, 5, 8)) for dd in family)


def test_m2_failure_counts_and_z_flags(m2):
    for _, family in m2.assignment:
        assert len(family) in (3, 9)
        for dd in family:
            assert dd.undetected_count == 2
            assert all(dd.flags[i] == "D" for i in (2, 5, 8))


def test_m1_distinct_single_failure_ddists(m1):
    singles = {
        dd for _, family in m1.assignment for dd in family if dd.undetected_count == 1
    }
    assert len(singles) == 6
    assert {dd.undetected_sites[0].label for dd in singles} == {
        "x1", "y1", "x2", "y2", "x3", "y3"
    }


# --------------------------------------------------------------------------- published numbers


def test_m3_census_and_i0_mspec_forms(m3):
    assert census(m3) == (8, 96, 48)
    i0_specs = {
        m_specification(s, m3.family(s)[0]).values
        for s in partition_classes()[PartitionElement.I0]
    }
    expected = set()
    for i1, j2, k in itertools.product((1, -1), repeat=3):
        j3 = i1 * j2
        expected.add((i1, 0, k, 0, j2, k, 0, j3, k))
    assert i0_specs == expected
    assert len(i0_specs) == 8


def test_m3_triple_detection_happens_exactly_on_the_starred_class(m3):
    for triad, element in [
        (Triad.I, PartitionElement.I0),
        (Triad.II, PartitionElement.II0),
        (Triad.III, PartitionElement.III0),
        (Triad.IV, PartitionElement.IV0),
    ]:
        detecting = {
            state
            for state, family in m3.assignment
            if all(family[0].detects(s) for s in triad.sites)
        }
        assert detecting == set(partition_classes()[element])


def test_m3_detection_probabilities(m3):
    for n in (1, 2, 3):
        assert detection_probability(m3, ctx(f"z{n}")) == 1
        assert detection_probability(m3, ctx(f"x{n}")) == Fraction(1, 2)
        assert detection_probability(m3, ctx(f"y{n}")) == Fraction(1, 2)


def test_m3_detection_factorizes_like_independent_flags(m3):
    # with a unique d-distribution per state the site flags are independent
    assert detection_probability(m3, ctx("x1", "y2")) == Fraction(1, 4)
    assert detection_probability(m3, ctx("x1", "z2")) == Fraction(1, 2)
    assert detection_probability(m3, ctx("x1", "y2", "y3")) == Fraction(1, 8)


def test_m1_restricted_detection_footnote_numbers(m1):
    el = PartitionElement.I_II_III
    cases = [
        (("x1",), Fraction(2, 3)),
        (("y1",), Fraction(1)),
        (("x1", "y2"), Fraction(2, 3)),
        (("x1", "x2"), Fraction(1, 3)),
        (("x1", "x2", "x3"), Fraction(0)),
        (("x1", "y2", "x3"), Fraction(1, 3)),
        (("x1", "y2", "y3"), Fraction(2, 3)),
    ]
    for labels, expected in cases:
        assert detection_probability(m1, ctx(*labels), restrict=el) == expected, labels


def test_m1_overall_detection(m1):
    for n in (1, 2, 3):
        assert detection_probability(m1, ctx(f"x{n}")) == Fraction(5, 12)
        assert detection_probability(m1, ctx(f"y{n}")) == Fraction(5, 12)
        assert detection_probability(m1, ctx(f"z{n}")) == Fraction(1, 2)


def test_m1_mspec_masses(m1):
    occurrences = mspec_occurrences(m1)
    detectable = {
        spec: Fraction(count, 128 * 3)
        for spec, count in occurrences.items()
        if not spec.is_all_zero
    }
    assert len(detectable) == 96
    assert set(detectable.values()) == {Fraction(1, 192)}
    all_zero = [spec for spec in occurrences if spec.is_all_zero]
    assert len(all_zero) == 1
    assert Fraction(occurrences[all_zero[0]], 128) == Fraction(1, 2)


def test_m2_census_and_multiplicity(m2):
    counts = census(m2)
    assert counts.m_specifications == 192
    assert counts.combinations == 96
    assert counts.d_distributions == 12
    assert set(mspec_occurrences(m2).values()) == {4}


def test_m2_family_sizes_by_class(m2):
    for element, states in partition_classes().items():
        expected = 3 if element.is_starred else 9
        for state in states:
            assert len(m2.family(state)) == expected


# --------------------------------------------------------------------------- reproduction


@pytest.mark.parametrize("selector", ["M3", "M1", "M2"])
def test_reproduction_reports_pass(selector):
    report = reproduce_section4(selector)
    failed = [c for c in report.checks if not c.passed]
    assert report.passed, failed


def test_unknown_selector_raises():
    for _ in range(2):  # a failed lookup is not remembered
        with pytest.raises(KeyError) as raised:
            builtin_model("M9")
        assert raised.value.args == ("unknown model selector 'M9'; use M3, M1 or M2",)
    with pytest.raises(KeyError):
        reproduce_section4("M9")


def reproduce_all_outputs(selector):
    """The report, model export and combination CSV that scripts/reproduce_all.py writes."""
    model = builtin_model(selector)
    return (
        json.dumps(repro_report_to_json(reproduce_section4(selector)), indent=2, sort_keys=True) + "\n",
        json.dumps(model_to_json(model), indent=2, sort_keys=True) + "\n",
        combinations_to_csv(combination_distribution(model)),
    )


def test_shared_models_survive_callers_mutating_what_they_get():
    """A selector's model is one instance per process while the builders build afresh;
    what a view hands out is the caller's, so mutating it changes no later output."""
    assert builtin_model("M3") is builtin_model("M3")
    assert model_m3() is not model_m3()
    for selector in BUILTIN_SELECTORS:
        reproduce_all_outputs(selector)
        model = builtin_model(selector)
        families = model.element_families()
        families[PartitionElement.I0] = (DDistribution.all_detected(),)
        families.popitem()
        masses = combination_distribution(model).masses
        masses[next(iter(masses))] = Fraction(1)
        masses.popitem()
        occurrences = mspec_occurrences(model)
        occurrences.update(occurrences)
        occurrences.popitem()
        document = model_to_json(model)
        for entry in document["states"]:
            entry["values"].reverse()
            entry["ddists"].append(entry["ddists"][0])
            entry["ddists"][0].reverse()
        document["states"].pop()
    for selector in BUILTIN_SELECTORS:
        stem = selector.lower()
        report, export, csv = reproduce_all_outputs(selector)
        assert report.encode() == (DATA / f"{stem}_report.json").read_bytes()
        assert hashlib.sha256(export.encode()).hexdigest() == MODEL_SHA256[f"{stem}_model.json"]
        assert csv.encode() == (DATA / f"{stem}_combinations.csv").read_bytes()


def m3_with_exposed_triple_intersection() -> Model:
    """M3 with the I&II&III class always fully detected: breaks adequacy and masking."""
    families = builtin_model("M3").element_families()
    families[PartitionElement.I_II_III] = (DDistribution.all_detected(),)
    return Model.from_element_families("M3-exposed", families)


def m1_with_two_member_families() -> Model:
    """M1 with each triple-class family cut to its first two d-distributions: each detectable
    m-specification still comes from two pairs, now of weight 1/256 each."""
    families = builtin_model("M1").element_families()
    cut = {el: family if el.is_starred else family[:2] for el, family in families.items()}
    return Model.from_element_families("M1-cut", cut)


FED = {"exposed": m3_with_exposed_triple_intersection, "cut": m1_with_two_member_families}
EXPOSED_FAILS = {"adequacy condition holds": "fail", "detection-masking condition holds": "fail"}


@pytest.mark.parametrize(
    ("selector", "fed", "named_rows"),
    [
        ("M3", "M1", {"deterministic": "no", "detection probability, z singles": "1/2"}),
        ("M3", "M2", {"deterministic": "no", "distinct m-specifications": "192"}),
        ("M3", "exposed", EXPOSED_FAILS),
        ("M1", "M3", {"deterministic": "yes", "mass of the all-undetected marker": "0"}),
        ("M1", "M2", {"starred-class states are never detected": "no", "overall detection, x/y singles": "2/3"}),
        ("M1", "exposed", EXPOSED_FAILS),
        ("M2", "M3", {"every d-distribution has exactly two undetected sites": "no", "distinct combinations": "48"}),
        ("M2", "M1", {"z sites always detected": "no", "distinct m-specifications": "97"}),
        ("M2", "exposed", EXPOSED_FAILS),
        ("M1", "cut", {"mass of each detectable m-specification": "1/128"}),
    ],
)
def test_report_rows_are_computed_from_the_model(monkeypatch, selector, fed, named_rows):
    model = FED[fed]() if fed in FED else builtin_model(fed)
    monkeypatch.setattr(builtin, "builtin_model", lambda _selector: model)
    report = reproduce_section4(selector)
    assert not report.passed
    actual = {c.name: c for c in report.checks}
    for name, value in named_rows.items():
        assert not actual[name].passed, name
        assert actual[name].actual == value, name
