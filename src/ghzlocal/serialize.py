"""Documented JSON and CSV forms for every boundary object, and their text.

All probabilities cross the boundary as exact "p/q" strings, never decimals;
all documents carry a schema_version field.
"""

from __future__ import annotations

import csv
import io
import re
from fractions import Fraction
from typing import TYPE_CHECKING, Any, Optional

from .models import (
    AcFailure,
    CombinationDistribution,
    CountFailure,
    DDistribution,
    DmFailure,
    Model,
    VerificationReport,
    _shared_ddistribution,
)
from .state_space import XY_SITES, MeasurementContext, MicroState, Site, _ghz_microstates, _is_int

if TYPE_CHECKING:
    from .builtin import ReproductionReport
    from .qm import OutcomeAssignment
    from .search import SearchSpec

SCHEMA_VERSION = 1
_NINE_INTS = (int,) * 9  # the value types of a microstate as a document gives it


class FormatError(ValueError):
    """A document (model file, search spec, ...) does not match its schema."""


def _check_schema_version(data: dict[str, Any]) -> None:
    """An absent schema_version is read as the current one; any other value is rejected."""
    version = data.get("schema_version", SCHEMA_VERSION)
    if not _is_int(version) or version != SCHEMA_VERSION:
        raise FormatError(f"unsupported schema_version {version!r}; expected {SCHEMA_VERSION}")


def fraction_to_str(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


_RATIONAL = re.compile(r"[+-]?[0-9]+(?:/[0-9]+)?")


def fraction_from_str(text: Any) -> Fraction:
    """Read an exact "p/q" (or integer "p") string; decimals, exponents,
    whitespace and non-strings are a FormatError."""
    if not isinstance(text, str) or not _RATIONAL.fullmatch(text):
        raise FormatError(f"bad rational {text!r}; expected an exact 'p/q' string")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise FormatError(f"bad rational {text!r}") from exc


def document_to_text(document: Any, *, line: bool = False) -> str:
    """JSON text with sorted keys, indented by two spaces or as one compact ``line``;
    ``json`` loads at the first call, so table and CSV output never imports it."""
    import json
    if line:
        return json.dumps(document, sort_keys=True, separators=(",", ":"))
    return json.dumps(document, indent=2, sort_keys=True)


def document_from_text(text: str) -> Any:
    """The document a JSON text holds: ``ValueError`` for text that is not JSON or holds an
    integer too long to convert, ``RecursionError`` for nesting too deep to read."""
    import json
    return json.loads(text)


# --------------------------------------------------------------------------- states


def microstate_to_json(state: MicroState) -> list[int]:
    return list(state.values)


def microstate_from_json(values: Any) -> MicroState:
    """The shared instance of a GHZ-compatible state; any other state is built fresh."""
    # one C-level type test; only an int subclass other than bool needs ``_is_int``
    if not isinstance(values, list) or (
        tuple(map(type, values)) != _NINE_INTS and (len(values) != 9 or not all(map(_is_int, values)))
    ):
        raise FormatError(f"microstate must be a JSON array of 9 integers: {values!r}")
    values = tuple(values)
    state = _ghz_microstates().get(values)
    if state is not None:
        return state
    try:
        return MicroState(values)
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


def ddistribution_to_json(ddist: DDistribution) -> list[str]:
    return list(ddist.flags)


def ddistribution_from_json(flags: Any) -> DDistribution:
    """One shared instance per flags tuple."""
    if not isinstance(flags, list) or len(flags) != 9:
        raise FormatError(f"d-distribution must be a JSON array of 9 flags: {flags!r}")
    try:
        return _shared_ddistribution(tuple(flags))
    except (TypeError, ValueError) as exc:  # an unhashable or invalid flag
        raise FormatError(f"flags must be 'D' or 'U': {flags!r}") from exc


# --------------------------------------------------------------------------- models


def model_to_json(model: Model) -> dict[str, Any]:
    return {
        "schema_version": SCHEMA_VERSION,
        "name": model.name,
        "states": [
            {
                "values": microstate_to_json(state),
                "ddists": [ddistribution_to_json(dd) for dd in family],
            }
            for state, family in model.assignment
        ],
    }


def model_from_json(data: Any) -> Model:
    if not isinstance(data, dict):
        raise FormatError("model document must be a JSON object")
    _check_schema_version(data)
    unknown = set(data) - {"schema_version", "name", "states"}
    if unknown:
        raise FormatError(f"unknown model document keys: {sorted(unknown)}")
    name = data.get("name")
    states = data.get("states")
    if not isinstance(name, str) or not isinstance(states, list):
        raise FormatError("model document needs string 'name' and array 'states'")
    try:  # a lone surrogate such as "\ud800" is valid JSON but no text
        name.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise FormatError(f"model name {name!r} is not valid Unicode") from exc
    read: dict[int, list[DDistribution]] = {}  # keyed by sign mask, one per state
    for entry in states:
        if not isinstance(entry, dict) or len(entry) != 2 or "values" not in entry or "ddists" not in entry:
            raise FormatError(f"model state entry needs exactly 'values' and 'ddists': {entry!r}")
        state = microstate_from_json(entry["values"])
        ddists = entry["ddists"]
        if not isinstance(ddists, list) or not ddists:
            raise FormatError(f"state {state.label} needs a nonempty 'ddists' array")
        if state._signs in read:
            raise FormatError(f"duplicate state {state.label} in model document")
        read[state._signs] = [ddistribution_from_json(d) for d in ddists]
    canonical = _ghz_microstates().values()
    families = [read.pop(state._signs, None) for state in canonical]
    if read or None in families:
        raise FormatError("state map must cover exactly the GHZ-compatible states")
    model = Model(name, tuple(zip(canonical, families)))
    # the model merges a repeated d-distribution; a document must not repeat one
    for (state, family), listed in zip(model.assignment, families):
        if len(family) != len(listed):
            raise FormatError(f"state {state.label} lists a d-distribution more than once")
    return model


# --------------------------------------------------------------------------- contexts


def parse_context_arg(text: str) -> MeasurementContext:
    """Parse a context argument like "x1,y2,y3"; raises ValueError when malformed,
    an empty site among the commas or a space around a site included."""
    labels = text.split(",")
    if not all(labels):
        raise ValueError(f"empty site in context argument {text!r}")
    sites = tuple(Site.from_label(lb) for lb in labels)
    return MeasurementContext(sites)


def parse_outcomes_arg(text: str, context: MeasurementContext) -> tuple[int, ...]:
    """Parse an outcomes argument like "+1,-1" against a context: each outcome is
    exactly +1 or -1, signed and with no spaces."""
    tokens = text.split(",")
    if set(tokens) - {"+1", "-1"}:
        raise ValueError(f"outcomes must be +1 or -1: {text!r}")
    outcomes = tuple(1 if t == "+1" else -1 for t in tokens)
    if len(outcomes) != len(context.sites):
        raise ValueError(
            f"{len(outcomes)} outcomes for {len(context.sites)}-site context"
        )
    return outcomes


def assignment_to_json(assign: OutcomeAssignment) -> dict[str, Any]:
    return {
        "sites": [[s.axis.value, s.particle] for s in assign.context.sites],
        "outcomes": list(assign.outcomes),
    }


# --------------------------------------------------------------------------- reports


def _failure_to_json(failure: Any) -> dict[str, Any]:
    if isinstance(failure, AcFailure):
        return {
            "rule": failure.rule,
            "context": failure.context.label,
            "assignment": assignment_to_json(failure.assignment),
            "expected": fraction_to_str(failure.expected),
            "actual": fraction_to_str(failure.actual),
        }
    if isinstance(failure, DmFailure):
        return {
            "rule": failure.rule,
            "state": microstate_to_json(failure.state),
            "ddist": ddistribution_to_json(failure.ddist),
            "triad": failure.triad.value,
        }
    if isinstance(failure, CountFailure):
        return {
            "rule": failure.rule,
            "quantity": failure.quantity,
            "expected": failure.expected,
            "actual": failure.actual,
        }
    raise TypeError(f"unknown failure type {type(failure).__name__}")


def verification_report_to_json(report: VerificationReport) -> dict[str, Any]:
    return {
        "schema_version": SCHEMA_VERSION,
        "check": report.check,
        "pass": report.passed,
        "failures": [_failure_to_json(f) for f in report.failures],
        "skipped": list(report.skipped),
    }


def repro_report_to_json(report: ReproductionReport) -> dict[str, Any]:
    return {
        "schema_version": SCHEMA_VERSION,
        "model": report.model,
        "pass": report.passed,
        "checks": [
            {
                "name": c.name,
                "expected": c.expected,
                "actual": c.actual,
                "pass": c.passed,
            }
            for c in report.checks
        ],
    }


# --------------------------------------------------------------------------- combinations


def combinations_to_json(model_name: str, dist: CombinationDistribution) -> dict[str, Any]:
    return {
        "schema_version": SCHEMA_VERSION,
        "model": model_name,
        "combinations": [
            {
                "slots": list(combo.slots),
                "probability": fraction_to_str(mass),
                "surviving_triads": combo.surviving_triads,
            }
            for combo, mass in dist.rows()
        ],
        "undetected_probability": fraction_to_str(dist.undetected),
    }


def combinations_to_csv(dist: CombinationDistribution) -> str:
    """CSV rows of the distribution; the all-undetected point is the final row,
    written with U in every slot column."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow([s.label for s in XY_SITES] + ["probability", "surviving_triads"])
    for combo, mass in dist.rows():
        writer.writerow(list(combo.slots) + [fraction_to_str(mass), combo.surviving_triads])
    if dist.undetected:
        writer.writerow(["U"] * 6 + [fraction_to_str(dist.undetected), 0])
    return buffer.getvalue()


# --------------------------------------------------------------------------- search specs


def search_spec_to_json(spec: SearchSpec) -> dict[str, Any]:
    """``schema_version``, then every ``SearchSpec`` field in its order; a range as a list."""
    document = {"schema_version": SCHEMA_VERSION, **dict(zip(spec._fields, spec._astuple()))}
    document["ddists_per_state"] = list(spec.ddists_per_state) if spec.ddists_per_state else None
    return document


def _optional_int(data: dict[str, Any], key: str) -> Optional[int]:
    value = data.get(key)
    if value is not None and not _is_int(value):
        raise FormatError(f"{key} must be an integer: {value!r}")
    return value


def _flag(data: dict[str, Any], key: str, default: bool) -> bool:
    value = data.get(key, default)
    if not isinstance(value, bool):
        raise FormatError(f"{key} must be true or false: {value!r}")
    return value


def search_spec_from_json(data: Any) -> SearchSpec:
    from .search import SearchSpec
    if not isinstance(data, dict):
        raise FormatError("search spec must be a JSON object")
    _check_schema_version(data)
    unknown = set(data) - {"schema_version", *SearchSpec._fields}
    if unknown:
        raise FormatError(f"unknown search spec keys: {sorted(unknown)}")
    ddists = data.get("ddists_per_state")
    if isinstance(ddists, list) and len(ddists) == 2 and all(map(_is_int, ddists)):
        ddists = tuple(ddists)
    elif ddists is not None and not _is_int(ddists):
        raise FormatError(f"ddists_per_state must be an int or [lo, hi]: {ddists!r}")
    return SearchSpec(
        failure_count=_optional_int(data, "failure_count"),
        z_always_detected=_flag(data, "z_always_detected", True),
        per_element_uniformity=_flag(data, "per_element_uniformity", True),
        ddists_per_state=ddists,
        star_elements_all_undetected=_flag(data, "star_elements_all_undetected", False),
        limit=_optional_int(data, "limit"),
    )
