import pytest
from hypothesis import Phase, settings

from ghzlocal import (
    DDistribution,
    Model,
    enumerate_ghz_microstates,
    model_m1,
    model_m2,
    model_m3,
)

# `pytest --hypothesis-profile mutants` reports a failing example without shrinking it:
# against a broken copy of the code, shrinking each failure takes minutes, and a mutant
# check needs only to see that a test fails.  The default profile is unchanged.
settings.register_profile("mutants", phases=[Phase.explicit, Phase.reuse, Phase.generate, Phase.target])


@pytest.fixture(scope="session")
def m3() -> Model:
    return model_m3()


@pytest.fixture(scope="session")
def m1() -> Model:
    return model_m1()


@pytest.fixture(scope="session")
def m2() -> Model:
    return model_m2()


@pytest.fixture(scope="session")
def all_detected_model() -> Model:
    """Every state always fully detected; violates the adequacy condition."""
    dd = DDistribution.all_detected()
    return Model.from_state_map(
        "all-detected", {s: [dd] for s in enumerate_ghz_microstates()}
    )


@pytest.fixture(scope="session")
def all_undetected_model() -> Model:
    """Nothing is ever detected; adequacy holds vacuously everywhere."""
    dd = DDistribution.all_undetected()
    return Model.from_state_map(
        "all-undetected", {s: [dd] for s in enumerate_ghz_microstates()}
    )
