"""Cold start: each command imports only the modules it uses, and the package
namespace resolves its public names and submodules on first use."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ghzlocal import model_m2
from ghzlocal.serialize import model_to_json

SRC = Path(__file__).resolve().parents[1] / "src"
ENV = {**os.environ, "PYTHONPATH": str(SRC)}

# argv; modules the command runs, which the parse must see; modules it must not load.
# ``-X importtime`` records a module imported by an import statement naming it
# (``from .serialize import ...``), not one imported through ``from . import x``
# or ``importlib``, so the first set checks that the parse sees what ran.
COMMAND_IMPORTS = [
    (["states", "--partition"], {"cli", "state_space"}, {"builtin", "models", "qm", "search", "serialize"}),
    (["search", "spec.json", "--limit", "1"], {"models", "search", "serialize"}, {"builtin"}),
    (["combinations", "M2", "--format", "csv"], {"builtin", "models", "serialize"}, {"qm", "search"}),
    (["export", "M1"], {"builtin", "models", "serialize"}, {"qm", "search"}),
    (["verify", "M2"], {"builtin", "models"}, {"qm", "search"}),
    (["verify", "M2", "--counts", "192,96"], {"builtin", "models", "search"}, set()),
    (["verify", "m2.json"], {"models", "serialize"}, {"builtin", "qm", "search"}),
    (["reproduce", "M3"], {"builtin", "models"}, {"qm", "search"}),
]


def imported_submodules(argv: list[str], cwd: Path) -> set[str]:
    """The ghzlocal submodules a fresh ``python -m ghzlocal`` process imports, read
    from the ``-X importtime`` lines on its stderr."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "ghzlocal", *argv],
        cwd=cwd, env=ENV, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    names = {
        line.rsplit("|", 1)[1].strip()
        for line in proc.stderr.splitlines()
        if line.startswith("import time:")
    }
    return {name.removeprefix("ghzlocal.") for name in names if name.startswith("ghzlocal.")}


@pytest.mark.parametrize(
    "argv, runs, absent", COMMAND_IMPORTS, ids=[" ".join(argv) for argv, _, _ in COMMAND_IMPORTS]
)
def test_each_command_imports_only_what_it_uses(tmp_path, argv, runs, absent):
    (tmp_path / "spec.json").write_text('{"failure_count": 3, "ddists_per_state": 1}')
    (tmp_path / "m2.json").write_text(json.dumps(model_to_json(model_m2())))
    loaded = imported_submodules(argv, tmp_path)
    assert runs <= loaded
    assert not loaded & absent


PUBLIC_NAMES = [
    "BUILTIN_SELECTORS", "ReproCheck", "ReproductionReport", "builtin_model", "model_m1",
    "model_m2", "model_m3", "reproduce_section4",
    "AcFailure", "CensusRecord", "Combination", "CombinationDistribution", "CountFailure",
    "DDistribution", "DmFailure", "Model", "MSpecification", "UndefinedConditionalError",
    "VerificationReport", "census", "combination_distribution", "conditional_probability",
    "conditional_probability_by_element", "detection_probability", "is_deterministic",
    "m_specification", "mspec_occurrences", "to_combination", "total_probability", "verify_ac",
    "verify_dm",
    "GHZ_AMPLITUDES", "GHZ_SQUARED_NORM", "OutcomeAssignment", "ghz_triad_probability",
    "outcome_assignments", "qm_probability", "rule_table_probability",
    "ExpectedCounts", "SearchSpec", "UnboundedSearchError", "search_models", "verify_counts",
    "AXES", "PARTICLES", "SITES", "XY_SITES", "Axis", "MeasurementContext", "MicroState",
    "PartitionElement", "Site", "Triad", "classify", "enumerate_contexts",
    "enumerate_ghz_microstates", "partition_classes", "satisfied_triads", "satisfies",
    "triad_product",
]

NAMESPACE_CHECK = """
import json, sys
import ghzlocal
import ghzlocal.cli
loaded = sorted(name for name in sys.modules if name.startswith("ghzlocal"))
resolved = [
    callable(ghzlocal.builtin.reproduce_section4),
    callable(ghzlocal.serialize.model_from_json),
    callable(ghzlocal.models.verify_ac),
    callable(ghzlocal.qm.qm_probability),
    callable(ghzlocal.search.search_models),
    callable(ghzlocal.state_space.enumerate_contexts),
]
star = {}
exec("from ghzlocal import *", star)
try:
    ghzlocal.no_such_name
    unknown = "resolved"
except AttributeError:
    unknown = "AttributeError"
print(json.dumps({
    "loaded": loaded, "resolved": resolved, "all": ghzlocal.__all__,
    "star": sorted(set(star) - {"__builtins__"}), "dir": dir(ghzlocal), "unknown": unknown,
}))
"""


def test_package_namespace_resolves_on_first_use():
    proc = subprocess.run(
        [sys.executable, "-c", NAMESPACE_CHECK], env=ENV, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout)
    assert len(PUBLIC_NAMES) == 60
    assert result["loaded"] == ["ghzlocal", "ghzlocal.cli", "ghzlocal.state_space"]
    assert result["resolved"] == [True] * 6
    assert result["all"] == PUBLIC_NAMES
    assert result["star"] == sorted(PUBLIC_NAMES)
    assert set(PUBLIC_NAMES) <= set(result["dir"])
    assert result["unknown"] == "AttributeError"
