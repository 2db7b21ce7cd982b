import numpy as np
import pytest

from painleve_instanton.instanton import asd_closed_profile, solve_bvp
from painleve_instanton.isomonodromy import make_family


@pytest.fixture(scope="session")
def ts_default():
    # below t ~ 0.4 the poles 1 and x collide (dx/dt -> 0) and the
    # finite-difference residual checks become ill-conditioned
    return np.linspace(0.5, 0.95, 201)


@pytest.fixture(scope="session")
def prof1():
    return asd_closed_profile(1)


@pytest.fixture(scope="session")
def prof3():
    return asd_closed_profile(3)


@pytest.fixture(scope="session")
def prof5():
    return solve_bvp(5)


@pytest.fixture(scope="session")
def fam1_raw(prof1, ts_default):
    return make_family(prof1, ts_default)


@pytest.fixture(scope="session")
def fam3_raw(prof3, ts_default):
    return make_family(prof3, ts_default)


@pytest.fixture(scope="session")
def fam5_raw(prof5, ts_default):
    return make_family(prof5, ts_default)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)
