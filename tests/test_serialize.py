"""Serialization round trips and schema validation."""

import copy
import itertools
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghzlocal import (
    DDistribution,
    MeasurementContext,
    MicroState,
    Model,
    OutcomeAssignment,
    SearchSpec,
    Site,
    combination_distribution,
    enumerate_ghz_microstates,
    model_m3,
    verify_ac,
    verify_dm,
)
from ghzlocal.builtin import reproduce_section4
from ghzlocal.models import _DDISTRIBUTIONS
from ghzlocal.serialize import (
    FormatError,
    assignment_to_json,
    combinations_to_csv,
    combinations_to_json,
    ddistribution_from_json,
    fraction_from_str,
    fraction_to_str,
    microstate_from_json,
    microstate_to_json,
    model_from_json,
    model_to_json,
    parse_context_arg,
    parse_outcomes_arg,
    repro_report_to_json,
    search_spec_from_json,
    search_spec_to_json,
    verification_report_to_json,
)


def test_fraction_strings():
    assert fraction_to_str(Fraction(1, 2)) == "1/2"
    assert fraction_to_str(Fraction(0)) == "0/1"
    assert fraction_to_str(Fraction(1)) == "1/1"
    assert fraction_from_str("5/12") == Fraction(5, 12)
    with pytest.raises(FormatError):
        fraction_from_str("1/0")
    with pytest.raises(FormatError):
        fraction_from_str("abc")
    # exact p/q text only: no decimals, exponents, padding, and no non-strings
    for bad in ("0.5", "1e-3", "1/2.0", " 1/2", "1/-2", "1_000/3", [1], None, 1, Fraction(1, 2)):
        with pytest.raises(FormatError):
            fraction_from_str(bad)


def test_microstate_round_trip():
    state = MicroState((1, -1, 1, -1, 1, 1, 1, -1, 1))
    assert microstate_from_json(microstate_to_json(state)) == state
    with pytest.raises(FormatError):
        microstate_from_json([1, 2, 3])
    # only JSON integers; nothing is coerced to one
    for bad in ("1", True, -1.7, 1.0, None):
        with pytest.raises(FormatError):
            microstate_from_json([bad] + [1] * 8)


def test_readers_hand_out_one_shared_instance_per_value(m3):
    for state in enumerate_ghz_microstates():
        assert microstate_from_json(list(state.values)) is state
    # a valid state outside the GHZ table is built fresh, as before
    outside = [1, 1, 1, 1, 1, -1, 1, 1, 1]
    assert microstate_from_json(outside) == MicroState(tuple(outside))
    for flags in itertools.product("DU", repeat=9):
        shared = ddistribution_from_json(list(flags))
        assert ddistribution_from_json(list(flags)) is shared
        assert shared == DDistribution(flags) and shared._detected == DDistribution(flags)._detected
    parsed = model_from_json(model_to_json(m3))
    assert all(a is b for (a, _), b in zip(parsed.assignment, enumerate_ghz_microstates()))
    # a document with a state outside the GHZ table is still rejected by the model
    document = model_to_json(m3)
    document["states"][0]["values"] = outside
    with pytest.raises(FormatError, match="^state map must cover exactly the GHZ-compatible states$"):
        model_from_json(document)


def test_ddistribution_reader_refuses_other_flags_by_their_text():
    # a flag that is not exactly "D" or "U" is reported as the document gave it,
    # and no refused tuple enters the shared table
    for i, bad in itertools.product(range(9), (1, None, True, [1], {"D": 1}, "d", "DU", "")):
        flags = ["D"] * 9
        flags[i] = bad
        message = f"flags must be 'D' or 'U': {flags!r}"
        with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
            ddistribution_from_json(flags)
    # spelled out: 1 is not shown as '1', nor null as 'None'
    for flags, shown in (([1] * 9, "[1, 1, 1, 1, 1, 1, 1, 1, 1]"), (["D"] * 8 + [None], "[" + "'D', " * 8 + "None]")):
        message = f"flags must be 'D' or 'U': {shown}"
        with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
            ddistribution_from_json(flags)
    assert len(_DDISTRIBUTIONS) <= 512
    assert all(set(flags) <= {"D", "U"} for flags in _DDISTRIBUTIONS)


def test_readers_refuse_non_integers_at_every_position(m3):
    canonical = model_to_json(m3)
    for i, bad in itertools.product(range(9), (True, False, 1.0, -1.0, "1", None, [1])):
        values = [1] * 9
        values[i] = bad
        message = f"microstate must be a JSON array of 9 integers: {values!r}"
        with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
            microstate_from_json(values)
        # in the first entry of a canonical document and in a later one
        for entry in (0, 77):
            document = copy.deepcopy(canonical)
            document["states"][entry]["values"][i] = bad
            values = document["states"][entry]["values"]
            message = f"microstate must be a JSON array of 9 integers: {values!r}"
            with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
                model_from_json(document)


def _message(document):
    with pytest.raises(FormatError) as info:
        model_from_json(document)
    return str(info.value)


def test_documents_out_of_canonical_order_read_as_before(m1, m2):
    """Swapped, repeated and missing entries: the model or the message of a
    reader that maps every entry by its state."""
    for model in (m1, m2):
        canonical = model_to_json(model)
        states = canonical["states"]
        labels = [state.label for state, _ in model.assignment]
        swapped = copy.deepcopy(canonical)
        swapped["states"][3], swapped["states"][70] = states[70], states[3]
        assert model_from_json(swapped) == model
        reversed_ = {**canonical, "states": states[::-1]}
        assert model_from_json(reversed_) == model
        repeated = {**canonical, "states": states[:70] + [states[3]] + states[71:]}
        assert _message(repeated) == f"duplicate state {labels[3]} in model document"
        appended = {**canonical, "states": states + [states[127]]}
        assert _message(appended) == f"duplicate state {labels[127]} in model document"
        first_again = {**canonical, "states": [states[0]] + states[:127]}
        assert _message(first_again) == f"duplicate state {labels[0]} in model document"
        # a state that is not GHZ-compatible: refused at the end, or as a repeat
        stray = {"values": [1, 1, 1, 1, 1, -1, 1, 1, 1], "ddists": states[0]["ddists"]}
        stray_label = MicroState(tuple(stray["values"])).label
        for document in ({**canonical, "states": states[:70] + [stray] + states[71:]},
                         {**canonical, "states": states + [stray]}):
            assert _message(document) == "state map must cover exactly the GHZ-compatible states"
        twice = {**canonical, "states": [stray] + states[:127] + [stray]}
        assert _message(twice) == f"duplicate state {stray_label} in model document"
        for missing in ({**canonical, "states": states[:70] + states[71:]},
                        {**canonical, "states": states[:127]}):
            assert _message(missing) == "state map must cover exactly the GHZ-compatible states"
        # a d-distribution repeated within one state, at the start, middle or end
        for entry in (0, 70, 127):
            repeat = copy.deepcopy(canonical)
            repeat["states"][entry]["ddists"].append(states[entry]["ddists"][0])
            assert _message(repeat) == f"state {labels[entry]} lists a d-distribution more than once"
        # an error in a late entry is reported as such, in order or not
        for document in (copy.deepcopy(canonical), copy.deepcopy(swapped)):
            document["states"][100]["ddists"] = []
            assert _message(document) == f"state {labels[100]} needs a nonempty 'ddists' array"
            document["states"][101]["ddists"] = []
            document["states"][100] = states[5]
            assert _message(document) == f"duplicate state {labels[5]} in model document"


def test_model_round_trip(m3, m1, m2):
    for model in (m3, m1, m2):
        document = model_to_json(model)
        assert document["schema_version"] == 1
        assert len(document["states"]) == 128
        again = model_from_json(document)
        assert again == model


def test_model_from_json_rejects_bad_documents(m3):
    with pytest.raises(FormatError):
        model_from_json([])
    with pytest.raises(FormatError):
        model_from_json({"name": "x", "states": [{"values": [1] * 9}]})
    with pytest.raises(FormatError):
        model_from_json({"name": "x", "states": []})
    document = model_to_json(m3)
    del document["schema_version"]
    assert model_from_json(document) == m3
    for version in (99, 0, True, "1", 1.0, None):
        with pytest.raises(FormatError):
            model_from_json({**model_to_json(m3), "schema_version": version})
    for bad in ("1", True, -1.7):
        document = model_to_json(m3)
        document["states"][0]["values"][0] = bad
        with pytest.raises(FormatError):
            model_from_json(document)
    document = model_to_json(m3)
    document["states"][0]["ddists"] *= 2
    with pytest.raises(FormatError, match=re.escape(f"state {m3.assignment[0][0].label} ")):
        model_from_json(document)
    with pytest.raises(FormatError, match="not valid Unicode"):
        model_from_json({**model_to_json(m3), "name": "\ud800x"})
    # an unknown key, top-level or in a state entry, is refused, as in a search spec
    with pytest.raises(FormatError, match=re.escape("unknown model document keys: ['comment']")):
        model_from_json({**model_to_json(m3), "comment": "x"})
    document = model_to_json(m3)
    values, ddists = document["states"][77]["values"], document["states"][77]["ddists"]
    # three keys, or two of which one is unknown
    for entry in ({"values": values, "ddists": ddists, "comment": "x"}, {"values": values, "comment": ddists}):
        document["states"][77] = entry
        with pytest.raises(FormatError, match="needs exactly 'values' and 'ddists'"):
            model_from_json(document)


def test_context_parsing():
    ctx = parse_context_arg("x1,y2,y3")
    assert ctx == MeasurementContext.from_labels("x1", "y2", "y3")
    with pytest.raises(ValueError):
        parse_context_arg("x1,y1")
    with pytest.raises(ValueError):
        parse_context_arg("q7")
    for text in ("", "x1,,y2", "x1,", ",x1", "x1, ,y2", " x1", "x1 ", "x1, y2", "x1\t,y2", "\nx1"):
        with pytest.raises(ValueError):
            parse_context_arg(text)


def test_outcomes_parsing():
    ctx = parse_context_arg("x1,y2")
    assert parse_outcomes_arg("+1,-1", ctx) == (1, -1)
    with pytest.raises(ValueError):
        parse_outcomes_arg("+1", ctx)
    with pytest.raises(ValueError):
        parse_outcomes_arg("+1,0", ctx)
    # exactly +1 or -1: no bare 1, no spaces around a sign
    for text in (" 1 , -1", "1,-1", "+1,1", "+1, -1", " +1,-1", "+1,-1 ", "+ 1,-1", "+1,,-1"):
        with pytest.raises(ValueError, match="outcomes must be"):
            parse_outcomes_arg(text, ctx)


def test_assignment_json_shape():
    assign = OutcomeAssignment.of(
        {Site.from_label("x1"): 1, Site.from_label("y2"): -1}
    )
    assert assignment_to_json(assign) == {
        "sites": [["x", 1], ["y", 2]],
        "outcomes": [1, -1],
    }


def test_verification_report_json(m3, all_detected_model):
    good = verification_report_to_json(verify_ac(m3))
    assert good["pass"] is True and good["failures"] == []
    bad = verification_report_to_json(verify_ac(all_detected_model))
    assert bad["pass"] is False
    first = bad["failures"][0]
    assert first["rule"] == "ac"
    assert set(first) == {"rule", "context", "assignment", "expected", "actual"}
    dm = verification_report_to_json(verify_dm(m3))
    assert dm["check"] == "dm" and dm["pass"] is True


def test_combinations_csv_and_json(m1):
    dist = combination_distribution(m1)
    csv_text = combinations_to_csv(dist)
    lines = csv_text.strip().splitlines()
    assert lines[0] == "x1,y1,x2,y2,x3,y3,probability,surviving_triads"
    assert len(lines) == 1 + 48 + 1  # header, combinations, all-undetected row
    assert lines[-1] == "U,U,U,U,U,U,1/2,0"
    document = combinations_to_json("M1", dist)
    assert document["undetected_probability"] == "1/2"
    assert len(document["combinations"]) == 48
    assert all(row["probability"] == "1/96" for row in document["combinations"])


def test_search_spec_round_trip():
    spec = SearchSpec(failure_count=3, ddists_per_state=(1, 1), limit=5)
    assert search_spec_from_json(search_spec_to_json(spec)) == spec
    assert search_spec_from_json({"failure_count": 1, "ddists_per_state": 3}) == SearchSpec(
        failure_count=1, ddists_per_state=(3, 3)
    )
    assert search_spec_from_json(
        {"failure_count": 3, "ddists_per_state": 1, "z_always_detected": False, "limit": 0}
    ) == SearchSpec(failure_count=3, ddists_per_state=(1, 1), z_always_detected=False, limit=0)
    # every field set: schema_version first, then the fields in SearchSpec order, a range as a list
    full = SearchSpec(
        failure_count=2, z_always_detected=False, per_element_uniformity=False,
        ddists_per_state=(1, 3), star_elements_all_undetected=True, limit=7,
    )
    assert list(search_spec_to_json(full).items()) == [
        ("schema_version", 1),
        ("failure_count", 2),
        ("z_always_detected", False),
        ("per_element_uniformity", False),
        ("ddists_per_state", [1, 3]),
        ("star_elements_all_undetected", True),
        ("limit", 7),
    ]
    assert search_spec_from_json(search_spec_to_json(full)) == full


def test_search_spec_rejects_bad_documents():
    with pytest.raises(FormatError):
        search_spec_from_json({"failure": 1})
    with pytest.raises(FormatError):
        search_spec_from_json({"failure_count": "three"})
    with pytest.raises(FormatError):
        search_spec_from_json({"ddists_per_state": [1, 2, 3]})
    with pytest.raises(FormatError):
        search_spec_from_json("nope")
    # bool is an int in Python; neither may stand in for the other
    for document in (
        {"failure_count": True, "z_always_detected": "false"},
        {"failure_count": 3, "limit": False},
        {"failure_count": 3, "ddists_per_state": True},
        {"failure_count": 3, "ddists_per_state": [1, True]},
        {"failure_count": 3, "z_always_detected": "false"},
        {"failure_count": 3, "z_always_detected": 0},
        {"failure_count": 3, "per_element_uniformity": 1},
        {"failure_count": 3, "star_elements_all_undetected": None},
        {"failure_count": 3, "schema_version": 99},
        {"failure_count": 3, "schema_version": True},
        {"failure_count": 3, "schema_version": "1"},
    ):
        with pytest.raises(FormatError):
            search_spec_from_json(document)


def test_repro_report_json():
    document = repro_report_to_json(reproduce_section4("M3"))
    assert document["model"] == "M3"
    assert document["pass"] is True
    assert all(set(c) == {"name", "expected", "actual", "pass"} for c in document["checks"])


# --------------------------------------------------------------------------- fuzzing

JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=5) | st.dictionaries(st.text(max_size=8), inner, max_size=5),
    max_leaves=20,
)


@st.composite
def mutated(draw, document):
    """A copy of a JSON document with the value at a drawn path replaced by arbitrary JSON."""
    document = copy.deepcopy(document)
    parent, key, node = None, None, document
    while isinstance(node, (list, dict)) and node and draw(st.booleans()):
        key = draw(st.sampled_from(sorted(node) if isinstance(node, dict) else range(len(node))))
        parent, node = node, node[key]
    if parent is None:
        return draw(JSON)
    parent[key] = draw(JSON)
    return document


READERS = {
    "model": (model_from_json, Model, model_to_json(model_m3())),
    "search_spec": (
        search_spec_from_json,
        SearchSpec,
        {"schema_version": 1, "failure_count": 2, "ddists_per_state": [1, 2], "limit": 3,
         "z_always_detected": True, "star_elements_all_undetected": False},
    ),
    "microstate": (microstate_from_json, MicroState, [1, -1, 1, 1, 1, 1, -1, -1, 1]),
    "ddistribution": (ddistribution_from_json, DDistribution, ["D", "U"] * 4 + ["D"]),
    "fraction": (fraction_from_str, Fraction, "-5/12"),
}


@pytest.mark.parametrize("reader", sorted(READERS))
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_readers_yield_an_object_or_a_format_error(reader, data):
    parse, kind, valid = READERS[reader]
    value = data.draw(st.one_of(JSON, mutated(valid), st.text()))
    try:
        result = parse(value)
    except FormatError:
        return
    assert isinstance(result, kind)
