"""The three canonical models M3, M1, M2 and their reproduction report.

Each model is defined by a small table: which sites each partition class
leaves undetected.  The tables are shipped as literal data; the test suite
re-derives them from the triad structure and validates every published count
and probability before trusting them.

* M3 - deterministic, one d-distribution per class, three U-flags each:
  a starred class keeps exactly its satisfied triad (plus all z) detectable,
  a triple-intersection class masks exactly its violated triad.
* M1 - starred classes are never detected at all; a triple-intersection state
  has three d-distributions, each masking a single site of its violated triad.
* M2 - two U-flags per d-distribution, z always detected: a starred class
  takes the three site pairs inside its M3 mask, a triple-intersection class
  all nine same-triad pairs that touch its violated triad.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .models import (
    DDistribution,
    Model,
    census,
    combination_distribution,
    conditional_probability,
    detection_probability,
    is_deterministic,
    m_specification,
    mspec_occurrences,
    verify_ac,
    verify_dm,
)
from .qm import outcome_assignments
from .state_space import (
    Axis,
    MeasurementContext,
    PartitionElement,
    Site,
    Triad,
    partition_classes,
)

E = PartitionElement

# Undetected-site tables, one mask (or family of masks) per partition class.

M3_UNDETECTED: dict[PartitionElement, tuple[str, ...]] = {
    E.I0: ("y1", "x2", "x3"),
    E.II0: ("x1", "y2", "x3"),
    E.III0: ("x1", "x2", "y3"),
    E.IV0: ("y1", "y2", "y3"),
    E.I_II_III: ("x1", "x2", "x3"),
    E.I_II_IV: ("y1", "y2", "x3"),
    E.I_III_IV: ("y1", "x2", "y3"),
    E.II_III_IV: ("x1", "y2", "y3"),
}

# M1: starred classes get the all-undetected distribution; each other class
# lists the single-U masks, one per site of its violated triad.
M1_SINGLE_UNDETECTED: dict[PartitionElement, tuple[str, ...]] = {
    E.I_II_III: ("x1", "x2", "x3"),
    E.I_II_IV: ("y1", "y2", "x3"),
    E.I_III_IV: ("y1", "x2", "y3"),
    E.II_III_IV: ("x1", "y2", "y3"),
}

M2_UNDETECTED_PAIRS: dict[PartitionElement, tuple[tuple[str, str], ...]] = {
    E.I0: (("y1", "x2"), ("y1", "x3"), ("x2", "x3")),
    E.II0: (("x1", "y2"), ("x1", "x3"), ("y2", "x3")),
    E.III0: (("x1", "x2"), ("x1", "y3"), ("x2", "y3")),
    E.IV0: (("y1", "y2"), ("y1", "y3"), ("y2", "y3")),
    E.I_II_III: (
        ("x1", "y2"), ("x1", "y3"), ("y1", "x2"), ("y1", "x3"),
        ("x1", "x2"), ("x1", "x3"), ("x2", "x3"), ("x2", "y3"), ("y2", "x3"),
    ),
    E.I_II_IV: (
        ("y1", "y2"), ("y1", "y3"), ("y1", "x3"), ("y1", "x2"), ("x1", "y2"),
        ("y2", "y3"), ("y2", "x3"), ("x1", "x3"), ("x2", "x3"),
    ),
    E.I_III_IV: (
        ("y1", "x2"), ("y1", "y2"), ("y1", "y3"), ("y1", "x3"), ("x1", "x2"),
        ("x2", "x3"), ("x2", "y3"), ("x1", "y3"), ("y2", "y3"),
    ),
    E.II_III_IV: (
        ("x1", "x2"), ("x1", "x3"), ("x1", "y2"), ("x1", "y3"), ("y1", "y2"),
        ("y2", "y3"), ("y1", "y3"), ("y2", "x3"), ("x2", "y3"),
    ),
}


def _mask(labels: tuple[str, ...]) -> DDistribution:
    return DDistribution.with_undetected(Site.from_label(lb) for lb in labels)


def model_m3() -> Model:
    """Deterministic model with three detection failures per object."""
    families = {el: (_mask(labels),) for el, labels in M3_UNDETECTED.items()}
    return Model.from_element_families("M3", families)


def model_m1() -> Model:
    """Single detection failure on the detectable half, total failure elsewhere."""
    families: dict[PartitionElement, tuple[DDistribution, ...]] = {}
    for element in PartitionElement:
        if element.is_starred:
            families[element] = (DDistribution.all_undetected(),)
        else:
            families[element] = tuple(
                _mask((lb,)) for lb in M1_SINGLE_UNDETECTED[element]
            )
    return Model.from_element_families("M1", families)


def model_m2() -> Model:
    """Two detection failures per object, z components always detected."""
    families = {
        el: tuple(_mask(pair) for pair in pairs)
        for el, pairs in M2_UNDETECTED_PAIRS.items()
    }
    return Model.from_element_families("M2", families)


BUILTIN_SELECTORS: tuple[str, ...] = ("M3", "M1", "M2")

_BUILDERS: dict[str, Callable[[], Model]] = {
    "M3": model_m3,
    "M1": model_m1,
    "M2": model_m2,
}


def builtin_model(selector: str) -> Model:
    """Model for a selector string; raises KeyError for unknown selectors."""
    try:
        return _BUILDERS[selector]()
    except KeyError:
        raise KeyError(f"unknown model selector {selector!r}; use M3, M1 or M2") from None


# ---------------------------------------------------------------------------
# reproduction report


@dataclass(frozen=True)
class ReproCheck:
    name: str
    expected: str
    actual: str

    @property
    def passed(self) -> bool:
        return self.expected == self.actual

    @property
    def line(self) -> str:
        """The report line: PASS/FAIL tag, check name, expected and actual value."""
        return f"{'PASS' if self.passed else 'FAIL'}  {self.name}: expected {self.expected}, got {self.actual}"


@dataclass(frozen=True)
class ReproductionReport:
    model: str
    checks: tuple[ReproCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def _ctx(*labels: str) -> MeasurementContext:
    return MeasurementContext.from_labels(*labels)


def _f(value: Fraction) -> str:
    return str(value)


def _single_detections(model: Model, axis: Axis) -> set[Fraction]:
    return {
        detection_probability(model, _ctx(f"{axis.value}{n}")) for n in (1, 2, 3)
    }


def _triad_conditionals(model: Model) -> tuple[bool, bool]:
    """(event probability is 1, every satisfying outcome triple is 1/4) over all triads."""
    event_ok = True
    triple_ok = True
    for triad in Triad:
        total = Fraction(0)
        for assign in outcome_assignments(triad.context):
            product = assign.outcomes[0] * assign.outcomes[1] * assign.outcomes[2]
            p = conditional_probability(model, assign)
            if product == triad.required_sign:
                total += p
                triple_ok = triple_ok and p == Fraction(1, 4)
            else:
                triple_ok = triple_ok and p == 0
        event_ok = event_ok and total == 1
    return event_ok, triple_ok


def _check_verifications(model: Model) -> list[ReproCheck]:
    return [
        ReproCheck("adequacy condition holds", "pass", "pass" if verify_ac(model).passed else "fail"),
        ReproCheck("detection-masking condition holds", "pass", "pass" if verify_dm(model).passed else "fail"),
    ]


def _reproduce_m3(model: Model) -> list[ReproCheck]:
    checks = [
        ReproCheck("deterministic", "yes", "yes" if is_deterministic(model) else "no")
    ]
    counts = census(model)
    checks.append(ReproCheck("distinct d-distributions", "8", str(counts.d_distributions)))
    checks.append(ReproCheck("distinct m-specifications", "96", str(counts.m_specifications)))
    checks.append(ReproCheck("distinct combinations", "48", str(counts.combinations)))

    # the I0 class yields the 8 outcome patterns (i1,0,k; 0,j2,k; 0,j3,k), i1*j2*j3=+1
    i0_states = partition_classes()[E.I0]
    i0_specs = {m_specification(s, model.family(s)[0]) for s in i0_states}
    expected_specs = set()
    for k in (+1, -1):
        for i1 in (+1, -1):
            for j2 in (+1, -1):
                j3 = i1 * j2  # forces i1*j2*j3 = +1
                expected_specs.add((i1, 0, k, 0, j2, k, 0, j3, k))
    checks.append(
        ReproCheck(
            "I0 m-specifications are the 8 patterns (i1,0,k;0,j2,k;0,j3,k) with i1*j2*j3=+1",
            "match",
            "match" if {m.values for m in i0_specs} == expected_specs else "mismatch",
        )
    )

    z_dets = _single_detections(model, Axis.Z)
    xy_dets = _single_detections(model, Axis.X) | _single_detections(model, Axis.Y)
    checks.append(ReproCheck("detection probability, z singles", "1", _f(max(z_dets)) if len(z_dets) == 1 else "mixed"))
    checks.append(ReproCheck("detection probability, x/y singles", "1/2", _f(max(xy_dets)) if len(xy_dets) == 1 else "mixed"))

    # triple detection under the first triad happens exactly on the I0 class
    triad_i = Triad.I.context
    detecting = {
        state
        for state, family in model.assignment
        if all(family[0].detects(s) for s in triad_i.sites)
    }
    checks.append(
        ReproCheck(
            "states triple-detected in the first triad",
            "the 16 states of I0",
            "the 16 states of I0" if detecting == set(i0_states) else f"{len(detecting)} other states",
        )
    )
    checks.append(
        ReproCheck(
            "conditional probability of the first-triad constraint event",
            "16/16",
            f"{16 * _sum_satisfying(model, Triad.I)}/16",
        )
    )

    event_ok, triple_ok = _triad_conditionals(model)
    checks.append(ReproCheck("every triad constraint event is certain on detection", "yes", "yes" if event_ok else "no"))
    checks.append(ReproCheck("each satisfying outcome triple has conditional 1/4 (4/16)", "yes", "yes" if triple_ok else "no"))

    dist = combination_distribution(model)
    tally = Counter(dist.masses.values())
    checks.append(
        ReproCheck(
            "combination masses",
            "16 at 1/32 and 32 at 1/64",
            f"{tally[Fraction(1, 32)]} at 1/32 and {tally[Fraction(1, 64)]} at 1/64"
            if set(tally) <= {Fraction(1, 32), Fraction(1, 64)}
            else "unexpected masses",
        )
    )
    checks.append(ReproCheck("total combination mass", "1", _f(dist.total_mass)))
    checks.extend(_check_verifications(model))
    return checks


def _sum_satisfying(model: Model, triad: Triad) -> Fraction:
    total = Fraction(0)
    for assign in outcome_assignments(triad.context):
        if assign.outcomes[0] * assign.outcomes[1] * assign.outcomes[2] == triad.required_sign:
            total += conditional_probability(model, assign)
    return total


def _reproduce_m1(model: Model) -> list[ReproCheck]:
    checks = [
        ReproCheck("deterministic", "no", "no" if not is_deterministic(model) else "yes")
    ]
    all_u = DDistribution.all_undetected()
    starred_ok = all(
        model.family(s) == (all_u,)
        for el in PartitionElement
        if el.is_starred
        for s in partition_classes()[el]
    )
    checks.append(ReproCheck("starred-class states are never detected", "yes", "yes" if starred_ok else "no"))

    triple_ok = all(
        len(model.family(s)) == 3
        for el in PartitionElement
        if not el.is_starred
        for s in partition_classes()[el]
    )
    checks.append(ReproCheck("three d-distributions per triple-intersection state", "yes", "yes" if triple_ok else "no"))

    counts = census(model)
    checks.append(
        ReproCheck(
            "distinct single-failure d-distributions",
            "6",
            str(counts.d_distributions - 1),  # discounting the all-undetected one
        )
    )
    checks.append(ReproCheck("distinct m-specifications (detectable half)", "96", str(counts.m_specifications - 1)))

    element = E.I_II_III
    restricted = [
        ("x1 within I&II&III", ("x1",), "2/3"),
        ("y1 within I&II&III", ("y1",), "1"),
        ("x1,y2 within I&II&III", ("x1", "y2"), "2/3"),
        ("x1,x2 within I&II&III", ("x1", "x2"), "1/3"),
        ("x1,x2,x3 within I&II&III", ("x1", "x2", "x3"), "0"),
        ("x1,y2,x3 within I&II&III", ("x1", "y2", "x3"), "1/3"),
        ("x1,y2,y3 within I&II&III", ("x1", "y2", "y3"), "2/3"),
    ]
    for name, labels, expected in restricted:
        actual = detection_probability(model, _ctx(*labels), restrict=element)
        checks.append(ReproCheck(f"detection probability of {name}", expected, _f(actual)))

    xy_dets = _single_detections(model, Axis.X) | _single_detections(model, Axis.Y)
    z_dets = _single_detections(model, Axis.Z)
    checks.append(ReproCheck("overall detection, x/y singles", "5/12", _f(max(xy_dets)) if len(xy_dets) == 1 else "mixed"))
    checks.append(ReproCheck("overall detection, z singles", "1/2", _f(max(z_dets)) if len(z_dets) == 1 else "mixed"))

    occurrences = mspec_occurrences(model)
    masses = {
        spec: Fraction(n, 128 * 3)
        for spec, n in occurrences.items()
        if not spec.is_all_zero
    }
    uniform = set(masses.values()) == {Fraction(1, 192)}
    checks.append(ReproCheck("mass of each detectable m-specification", "1/192", "1/192" if uniform else "mixed"))

    # first-triad conditionals, counted over distinct m-specifications
    triad_i = Triad.I
    detecting_specs = [
        spec for spec in occurrences if all(spec.value(s) != 0 for s in triad_i.context.sites)
    ]
    checks.append(ReproCheck("m-specifications triple-detecting the first triad", "48", str(len(detecting_specs))))
    per_triple = Counter(
        tuple(spec.value(s) for s in triad_i.context.sites) for spec in detecting_specs
    )
    satisfying = {
        outs: n
        for outs, n in per_triple.items()
        if outs[0] * outs[1] * outs[2] == triad_i.required_sign
    }
    counts_ok = set(satisfying.values()) == {12} and len(satisfying) == 4 == len(per_triple)
    checks.append(
        ReproCheck(
            "each satisfying outcome triple occurs in 12/48 of them",
            "yes",
            "yes" if counts_ok else "no",
        )
    )
    event_ok, triple_ok = _triad_conditionals(model)
    checks.append(ReproCheck("every triad constraint event is certain on detection", "yes", "yes" if event_ok else "no"))
    checks.append(ReproCheck("each satisfying outcome triple has conditional 1/4 (12/48)", "yes", "yes" if triple_ok else "no"))

    dist = combination_distribution(model)
    uniform_combos = set(dist.masses.values()) == {Fraction(1, 96)}
    checks.append(ReproCheck("distinct combinations", "48", str(len(dist.masses))))
    checks.append(ReproCheck("combination masses uniform", "1/96 each", "1/96 each" if uniform_combos else "mixed"))
    checks.append(ReproCheck("mass of the all-undetected marker", "1/2", _f(dist.undetected)))
    checks.append(ReproCheck("total combination mass", "1", _f(dist.total_mass)))
    checks.extend(_check_verifications(model))
    return checks


def _reproduce_m2(model: Model) -> list[ReproCheck]:
    two_u = all(
        dd.undetected_count == 2 for _, family in model.assignment for dd in family
    )
    z_ok = all(
        dd.detects(site)
        for _, family in model.assignment
        for dd in family
        for site in (Site.from_label("z1"), Site.from_label("z2"), Site.from_label("z3"))
    )
    checks = [
        ReproCheck("every d-distribution has exactly two undetected sites", "yes", "yes" if two_u else "no"),
        ReproCheck("z sites always detected", "yes", "yes" if z_ok else "no"),
    ]
    counts = census(model)
    checks.append(ReproCheck("distinct m-specifications", "192", str(counts.m_specifications)))
    checks.append(ReproCheck("distinct combinations", "96", str(counts.combinations)))
    multiplicities = set(mspec_occurrences(model).values())
    checks.append(
        ReproCheck(
            "pooled occurrence multiplicity of every m-specification",
            "4",
            str(max(multiplicities)) if len(multiplicities) == 1 else "mixed",
        )
    )
    checks.extend(_check_verifications(model))
    return checks


_REPRODUCERS = {"M3": _reproduce_m3, "M1": _reproduce_m1, "M2": _reproduce_m2}


def reproduce_section4(selector: str) -> ReproductionReport:
    """Recompute every published count and probability for one built-in model."""
    if selector not in _REPRODUCERS:
        raise KeyError(f"unknown model selector {selector!r}; use M3, M1 or M2")
    model = builtin_model(selector)
    checks = _REPRODUCERS[selector](model)
    return ReproductionReport(selector, tuple(checks))
