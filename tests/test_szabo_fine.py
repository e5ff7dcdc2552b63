"""The Szabo-Fine conversion as a checked statement.

The paper's closing claim is that its finite models convert into the prism
models of Szabo and Fine (Phys. Lett. A 295 (2002) 229).  The exported
combination measure is such a model: a combination detects an x/y-only
context when none of the context's slots is D, and the all-undetected row
(U in every slot) detects nothing.  So adequacy computed from the exported CSV
alone, read back through ``fraction_from_str``, must give the failures and the
skipped contexts of ``verify_ac`` restricted to the 26 x/y-only contexts.
"""

import csv
import io
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings

from ghzlocal import (
    XY_SITES,
    Model,
    combination_distribution,
    enumerate_contexts,
    outcome_assignments,
    qm_probability,
    verify_ac,
)
from ghzlocal.models import AcFailure
from ghzlocal.serialize import combinations_to_csv, fraction_from_str
from test_core import random_models

XY_CONTEXTS = [c for c in enumerate_contexts() if all(s in XY_SITES for s in c.sites)]
XY_COLUMNS = [s.label for s in XY_SITES]


def prism_measure(model: Model) -> list[tuple[dict[str, str], Fraction]]:
    """The exported combination rows: the slot of each x/y site, and the mass."""
    rows = csv.DictReader(io.StringIO(combinations_to_csv(combination_distribution(model))))
    assert rows.fieldnames == XY_COLUMNS + ["probability", "surviving_triads"]
    return [({c: row[c] for c in XY_COLUMNS}, fraction_from_str(row["probability"])) for row in rows]


def prism_adequacy(measure: list[tuple[dict[str, str], Fraction]]) -> tuple[tuple, tuple]:
    """AC failures and skipped contexts over the x/y-only contexts, from the measure alone."""
    failures, skipped = [], []
    for context in XY_CONTEXTS:
        labels = [s.label for s in context.sites]
        detecting = [
            ([slots[lb] for lb in labels], mass)
            for slots, mass in measure
            if all(slots[lb] not in ("D", "U") for lb in labels)
        ]
        detected = sum(mass for _, mass in detecting)
        if not detected:
            skipped.append(context.label)
            continue
        for assign in outcome_assignments(context):
            want = [f"{v:+d}" for v in assign.outcomes]
            actual = sum(mass for outcomes, mass in detecting if outcomes == want) / detected
            if actual != qm_probability(assign):
                failures.append(AcFailure(context, assign, qm_probability(assign), actual))
    return tuple(failures), tuple(skipped)


def check_prism_route(model: Model) -> tuple[tuple, tuple]:
    measure = prism_measure(model)
    assert sum(mass for _, mass in measure) == 1
    report = verify_ac(model)
    xy_labels = {c.label for c in XY_CONTEXTS}
    restricted = (
        tuple(f for f in report.failures if f.context in XY_CONTEXTS),
        tuple(label for label in report.skipped if label in xy_labels),
    )
    assert prism_adequacy(measure) == restricted
    return restricted


def test_there_are_26_xy_only_contexts():
    assert len(XY_CONTEXTS) == 26
    assert sum(len(c.sites) == 3 for c in XY_CONTEXTS) == 8


@pytest.mark.parametrize("fixture", ["m3", "m1", "m2"])
def test_builtin_models_are_adequate_prism_models(fixture, request):
    assert check_prism_route(request.getfixturevalue(fixture)) == ((), ())


def test_prism_route_names_the_failures_and_skips(all_detected_model, all_undetected_model):
    failures, skipped = check_prism_route(all_detected_model)
    assert failures and not skipped
    assert {f.context for f in failures} <= {c for c in XY_CONTEXTS if len(c.sites) == 3}
    assert check_prism_route(all_undetected_model) == ((), tuple(c.label for c in XY_CONTEXTS))


@settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(model=random_models())
def test_prism_route_matches_verify_ac_on_random_models(model):
    # per-state models, which fail AC, so the compared failure lists are long
    check_prism_route(model)
