"""Value semantics of the package's record classes, and what a CLI process imports.

Every record class is a plain class on one private base, not a dataclass:
these tests pin the behaviour a frozen dataclass gave them.
"""

import itertools
import os
import pickle
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import ghzlocal
from ghzlocal import (
    AcFailure,
    Axis,
    Combination,
    CombinationDistribution,
    CountFailure,
    DDistribution,
    DmFailure,
    ExpectedCounts,
    MeasurementContext,
    MicroState,
    MSpecification,
    OutcomeAssignment,
    PartitionElement,
    ReproCheck,
    ReproductionReport,
    SearchSpec,
    Site,
    Triad,
    VerificationReport,
    enumerate_ghz_microstates,
    model_m1,
    model_m3,
)
from ghzlocal.cli import CommandOutcome
from ghzlocal.serialize import ddistribution_from_json, microstate_from_json
from ghzlocal.state_space import _Value

PLUS = (1,) * 9
MIXED = (1, -1, 1, -1, 1, 1, -1, -1, 1)
CTX_A = MeasurementContext.from_labels("x1", "y2")
CTX_B = MeasurementContext.from_labels("x1", "x2")
ASSIGN_A = OutcomeAssignment(CTX_A, (1, -1))
ASSIGN_B = OutcomeAssignment(CTX_B, (-1, 1))
DD_A = DDistribution(("D",) * 9)
DD_B = DDistribution(("U",) * 9)
CHECK_A = ReproCheck("a", "1", "1")
M3, M1 = model_m3(), model_m1()

# (class, its fields, two argument tuples that differ in every field, the
# number of trailing fields with defaults and the repr of cls(*first))
CASES = [
    (Site, ("axis", "particle"), (Axis.Y, 2), (Axis.X, 3), 0,
     "Site(axis=<Axis.Y: 'y'>, particle=2)"),
    (MicroState, ("values",), (PLUS,), (MIXED,), 0, "MicroState(+1,+1,+1;+1,+1,+1;+1,+1,+1)"),
    (MeasurementContext, ("sites",), (CTX_A.sites,), (CTX_B.sites,), 0,
     "MeasurementContext(x1,y2)"),
    (OutcomeAssignment, ("context", "outcomes"), (CTX_A, (1, -1)), (CTX_B, (-1, 1)), 0,
     "OutcomeAssignment(context=MeasurementContext(x1,y2), outcomes=(1, -1))"),
    (DDistribution, ("flags",), (DD_A.flags,), (DD_B.flags,), 0, "DDistribution(DDDDDDDDD)"),
    (MSpecification, ("values",), (PLUS,), ((0,) * 9,), 0,
     "MSpecification(values=(1, 1, 1, 1, 1, 1, 1, 1, 1))"),
    (ghzlocal.Model, ("name", "assignment"), ("M3", M3.assignment), ("M1", M1.assignment), 0,
     "Model(name='M3', states=128)"),
    (AcFailure, ("context", "assignment", "expected", "actual", "rule"),
     (CTX_A, ASSIGN_A, Fraction(1, 4), Fraction(1, 2), "x"),
     (CTX_B, ASSIGN_B, Fraction(1, 8), Fraction(0), "ac"), 1,
     "AcFailure(context=MeasurementContext(x1,y2), assignment=OutcomeAssignment("
     "context=MeasurementContext(x1,y2), outcomes=(1, -1)), expected=Fraction(1, 4),"
     " actual=Fraction(1, 2), rule='x')"),
    (DmFailure, ("state", "ddist", "triad", "rule"),
     (MicroState(PLUS), DD_A, Triad.I, "x"), (MicroState(MIXED), DD_B, Triad.IV, "dm"), 1,
     "DmFailure(state=MicroState(+1,+1,+1;+1,+1,+1;+1,+1,+1), ddist=DDistribution(DDDDDDDDD),"
     " triad=<Triad.I: 'I'>, rule='x')"),
    (CountFailure, ("quantity", "expected", "actual", "rule"), ("combinations", 1, 2, "x"),
     ("d_distributions", 3, 4, "counts"), 1,
     "CountFailure(quantity='combinations', expected=1, actual=2, rule='x')"),
    (VerificationReport, ("check", "failures", "skipped"), ("ac", (), ("x1",)),
     ("dm", (CountFailure("q", 1, 2),), ()), 1,
     "VerificationReport(check='ac', failures=(), skipped=('x1',))"),
    (Combination, ("slots",), (("+1", "-1", "D", "D", "+1", "+1"),), (("D",) * 6,), 0,
     "Combination(slots=('+1', '-1', 'D', 'D', '+1', '+1'))"),
    (CombinationDistribution, ("masses", "undetected"),
     ({Combination(("D",) * 6): Fraction(1, 2)}, Fraction(1, 2)), ({}, Fraction(1)), 0,
     "CombinationDistribution(masses={Combination(slots=('D', 'D', 'D', 'D', 'D', 'D')):"
     " Fraction(1, 2)}, undetected=Fraction(1, 2))"),
    (ReproCheck, ("name", "expected", "actual"), ("a", "1", "2"), ("b", "3", "4"), 0,
     "ReproCheck(name='a', expected='1', actual='2')"),
    (ReproductionReport, ("model", "checks"), ("M3", (CHECK_A,)), ("M1", ()), 0,
     "ReproductionReport(model='M3', checks=(ReproCheck(name='a', expected='1', actual='1'),))"),
    (SearchSpec,
     ("failure_count", "z_always_detected", "per_element_uniformity", "ddists_per_state",
      "star_elements_all_undetected", "limit"),
     (3, False, False, (1, 2), True, 5), (None, True, True, None, False, None), 6,
     "SearchSpec(failure_count=3, z_always_detected=False, per_element_uniformity=False,"
     " ddists_per_state=(1, 2), star_elements_all_undetected=True, limit=5)"),
    (ExpectedCounts, ("d_distributions", "m_specifications", "combinations"), (1, 2, 3),
     (None, None, None), 3,
     "ExpectedCounts(d_distributions=1, m_specifications=2, combinations=3)"),
    (CommandOutcome, ("exit_code", "payload"), (1, "text"), (0, ""), 1,
     "CommandOutcome(exit_code=1, payload='text')"),
]


@pytest.mark.parametrize(
    "cls, fields, first, second, n_defaults, text", CASES, ids=[case[0].__name__ for case in CASES]
)
def test_record_value_semantics(cls, fields, first, second, n_defaults, text):
    value = cls(*first)
    assert tuple(getattr(value, name) for name in fields) == first
    assert cls(**dict(zip(fields, first))) == value == cls(*first)
    assert repr(value) == text
    # equality is field by field: changing any one field breaks it
    for i in range(len(fields)):
        mixed = first[:i] + second[i : i + 1] + first[i + 1 :]
        assert cls(*mixed) != value
    # defaults: the trailing fields of the second argument tuple are the defaults
    required = len(fields) - n_defaults
    assert tuple(getattr(cls(*first[:required]), name) for name in fields[required:]) == (
        second[required:]
    )
    # equal fields in another class are not equal
    other = type("Other", (_Value,), {"_fields": fields})()
    for name, field_value in zip(fields, first):
        object.__setattr__(other, name, field_value)
    assert value != other and other != value
    if cls is CombinationDistribution:  # the one mutable record
        with pytest.raises(TypeError):
            hash(value)
        value.undetected = Fraction(0)
        assert value.undetected == 0
        return
    assert hash(value) == hash(first)
    with pytest.raises(AttributeError):
        setattr(value, fields[0], second[0])
    with pytest.raises(AttributeError):
        delattr(value, fields[-1])
    with pytest.raises(AttributeError):
        value.extra = 1
    assert tuple(getattr(value, name) for name in fields) == first


def test_stored_hashes_are_those_of_fresh_equal_values():
    # MicroState and DDistribution compute their hash once, at construction;
    # every shared instance must hash as an equal value built now does
    for state in enumerate_ghz_microstates():
        fresh = MicroState(state.values)
        assert hash(state) == hash(fresh) == hash((state.values,))
        assert hash(microstate_from_json(list(state.values))) == hash(fresh)
        assert {fresh: 1}[state] == 1 and {state: 1}[fresh] == 1
    for flags in itertools.product("DU", repeat=9):
        fresh = DDistribution(tuple(flags))
        shared = ddistribution_from_json(list(flags))
        assert hash(shared) == hash(fresh) == hash((fresh.flags,))
        assert {fresh: 1}[shared] == 1 and {shared: 1}[fresh] == 1
        # the reader and the search's builder hand out one instance per flags tuple
        assert DDistribution.with_undetected(fresh.undetected_sites) is shared
    # so do the all-U escape of the search and M1, and the all-D constructor
    assert DDistribution.all_undetected() is ddistribution_from_json(["U"] * 9)
    assert DDistribution.all_detected() is ddistribution_from_json(["D"] * 9)


@pytest.mark.parametrize("enum", [Axis, Triad, PartitionElement])
def test_enum_members_are_singletons_so_identity_hashing_is_sound(enum):
    # the package enums hash by identity (object.__hash__, in C); that agrees
    # with == only while equality is identity and no copy of a member exists
    assert enum.__hash__ is object.__hash__
    for a, b in itertools.product(enum, repeat=2):
        assert (a == b) is (a is b)
    for member in enum:
        assert pickle.loads(pickle.dumps(member)) is member
        assert enum(member.value) is member


def test_same_values_in_different_classes_are_unequal():
    assert MicroState(PLUS) != MSpecification(PLUS)
    assert MSpecification(PLUS) != MicroState(PLUS)
    assert ReproCheck("M3", "1", "1") != ("M3", "1", "1")


def test_cli_process_imports_neither_dataclasses_nor_inspect():
    src = Path(ghzlocal.__file__).resolve().parents[1]
    probe = "import ghzlocal.cli, sys; print('dataclasses' in sys.modules, 'inspect' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-S", "-c", probe],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, check=True,
    )
    assert result.stdout.split() == ["False", "False"]
    for path in sorted((src / "ghzlocal").glob("*.py")):
        assert not re.search(r"^\s*(from|import)\s+dataclasses\b", path.read_text(), re.M), path
