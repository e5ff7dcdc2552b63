"""Exact probability engine for finite local detection models of the GHZ experiment.

The package enumerates the 128-state hidden-variable space of the GHZ
preparation, computes quantum probabilities exactly from the state vector,
represents models that explain outcomes through predetermined detection
failures, verifies them against the quantum conditional-on-detection
probabilities, rebuilds the three canonical models M3, M1 and M2, searches
the whole family, and exports Szabo-Fine prism-model combinations with their
induced measures.
"""

from .builtin import (
    BUILTIN_SELECTORS,
    ReproCheck,
    ReproductionReport,
    builtin_model,
    model_m1,
    model_m2,
    model_m3,
    reproduce_section4,
)
from .models import (
    AcFailure,
    CensusRecord,
    Combination,
    CombinationDistribution,
    CountFailure,
    DDistribution,
    DmFailure,
    Model,
    MSpecification,
    UndefinedConditionalError,
    VerificationReport,
    census,
    combination_distribution,
    conditional_probability,
    conditional_probability_by_element,
    detection_probability,
    is_deterministic,
    m_specification,
    mspec_occurrences,
    to_combination,
    total_probability,
    verify_ac,
    verify_dm,
)
from .qm import (
    GHZ_AMPLITUDES,
    GHZ_SQUARED_NORM,
    OutcomeAssignment,
    ghz_triad_probability,
    outcome_assignments,
    qm_probability,
    rule_table_probability,
)
from .search import (
    ExpectedCounts,
    SearchSpec,
    UnboundedSearchError,
    search_models,
    verify_counts,
)
from .state_space import (
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

__version__ = "0.1.0"
