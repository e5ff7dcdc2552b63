"""Exact probability engine for finite local detection models of the GHZ experiment.

The package enumerates the 128-state hidden-variable space of the GHZ
preparation, computes quantum probabilities exactly from the state vector,
represents models that explain outcomes through predetermined detection
failures, verifies them against the quantum conditional-on-detection
probabilities, rebuilds the three canonical models M3, M1 and M2, searches
the whole family, and exports Szabo-Fine prism-model combinations with their
induced measures.

Each submodule, and each public name below, is imported on first use.
"""

import importlib

__version__ = "0.1.0"

# the built-in model selectors, known without importing ``builtin``, which re-exports them
BUILTIN_SELECTORS: tuple[str, ...] = ("M3", "M1", "M2")

# each public name, under the submodule that defines or (BUILTIN_SELECTORS) re-exports it
_EXPORTS: dict[str, list[str]] = {
    "builtin": """
        BUILTIN_SELECTORS ReproCheck ReproductionReport builtin_model model_m1 model_m2 model_m3
        reproduce_section4
    """.split(),
    "models": """
        AcFailure CensusRecord Combination CombinationDistribution CountFailure DDistribution
        DmFailure Model MSpecification UndefinedConditionalError VerificationReport census
        combination_distribution conditional_probability conditional_probability_by_element
        detection_probability is_deterministic m_specification mspec_occurrences to_combination
        total_probability verify_ac verify_dm
    """.split(),
    "qm": """
        GHZ_AMPLITUDES GHZ_SQUARED_NORM OutcomeAssignment ghz_triad_probability
        outcome_assignments qm_probability rule_table_probability
    """.split(),
    "search": "ExpectedCounts SearchSpec UnboundedSearchError search_models verify_counts".split(),
    "state_space": """
        AXES PARTICLES SITES XY_SITES Axis MeasurementContext MicroState PartitionElement Site
        Triad classify enumerate_contexts enumerate_ghz_microstates partition_classes
        satisfied_triads satisfies triad_product
    """.split(),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = ("builtin", "cli", "models", "qm", "search", "serialize", "state_space")

__all__ = list(_HOME)


def __getattr__(name: str) -> object:
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
