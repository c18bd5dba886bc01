"""Shared fixtures: canonical model specs and seeded streams."""
import numpy as np
import pytest

from heavytail import models, randkit
from heavytail.randkit import TailLaw, derive_stream

MASTER_SEED = 20260823

# one line per acceptance criterion, echoed after the test summary
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture
def stream():
    return derive_stream(MASTER_SEED, 1)


@pytest.fixture
def ar_pareto15():
    """Scalar linear chain, a = 0.5, positive Pareto(1.5) innovations."""
    return models.Var1Spec(TailLaw(randkit.PARETO, alpha=1.5),
                           a_matrix=np.array([[0.5]]))


@pytest.fixture
def ar_sympareto15():
    return models.Var1Spec(TailLaw(randkit.SYMMETRIC_PARETO, alpha=1.5),
                           a_matrix=np.array([[0.5]]))


@pytest.fixture
def iid_pareto08():
    """Degenerate linear chain (a = 0): iid positive Pareto(0.8)."""
    return models.Var1Spec(TailLaw(randkit.PARETO, alpha=0.8),
                           a_matrix=np.array([[0.0]]))


@pytest.fixture
def ar_gauss():
    return models.Var1Spec(TailLaw(randkit.GAUSSIAN),
                           a_matrix=np.array([[0.5]]))


@pytest.fixture
def kesten_lognormal():
    """Scalar recurrence with lognormal multiplier, log-variance 0.5."""
    import math
    return models.KestenSpec(
        a_law=TailLaw(randkit.LOGNORMAL, mu=-0.5, sigma=math.sqrt(0.5)),
        b_law=TailLaw(randkit.PARETO, alpha=10.0))


@pytest.fixture
def garch_benchmark():
    return models.Garch11Spec(0.05, 0.1, 0.85)
