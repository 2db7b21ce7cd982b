import numpy as np
import pytest

from painleve_instanton.report import line_family

# verify's default window, away from t -> 0, where the poles 1 and x
# collide (dx/dt -> 0)
WINDOW = (0.5, 0.95, 201)


@pytest.fixture(scope="session")
def ts_default():
    return np.linspace(*WINDOW)


@pytest.fixture(scope="session")
def line_families():
    """n -> (profile, line family) on that window, from the stage that
    `verify`, `trace` and `pvi-integrate` run."""
    return {n: line_family(n, *WINDOW) for n in (1, 3, 5)}


@pytest.fixture(scope="session")
def prof1(line_families):
    return line_families[1][0]


@pytest.fixture(scope="session")
def prof3(line_families):
    return line_families[3][0]


@pytest.fixture(scope="session")
def prof5(line_families):
    return line_families[5][0]


@pytest.fixture(scope="session")
def fam1_raw(line_families):
    return line_families[1][1]


@pytest.fixture(scope="session")
def fam3_raw(line_families):
    return line_families[3][1]


@pytest.fixture(scope="session")
def fam5_raw(line_families):
    return line_families[5][1]


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)
