import numpy as np
import pytest
from hypothesis import settings

from mgbarrier import pathfollow
from mgbarrier.problems import ProblemSpec, build_problem

settings.register_profile("suite", deadline=None, max_examples=50)
settings.load_profile("suite")


@pytest.fixture(scope="session")
def small_problem():
    """Tiny 2-level p=1.5 problem shared by solver-level tests."""
    return build_problem(ProblemSpec(p=1.5, alpha=2, levels=2, cells0=2))


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def mgb_with_iterates():
    """run(problem, config) -> (trace, iterates): run_mgb's trace and the
    (k, z) of every fine iterate it records a cost for, logged by wrapping
    _Run.record_step."""
    def run(problem, config):
        iterates, record_step = [], pathfollow._Run.record_step

        def logged(self, k, t, z_fine):
            iterates.append((k, z_fine.copy()))
            record_step(self, k, t, z_fine)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(pathfollow._Run, "record_step", logged)
            return pathfollow.run_mgb(problem, config), iterates
    return run
