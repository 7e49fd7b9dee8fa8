import numpy as np
import pytest

import diffsemcom as dsc
from diffsemcom import noise_budget
from instruments import standard_normal_mixture


@pytest.fixture(scope="session")
def sched():
    return dsc.build_schedule(1000, 8.5e-4, 0.012)


@pytest.fixture(scope="session")
def plan50(sched):
    return dsc.make_stride_plan(sched, 50)


@pytest.fixture(scope="session")
def std_normal_8():
    return standard_normal_mixture(8)


def tight_wide_source(d):
    """Two-component source: one tight mode, one wide mode, unit power."""
    return dsc.GaussianMixtureModel(
        np.array([0.5, 0.5]),
        np.vstack([np.full(d, 0.9), np.full(d, -0.9)]),
        np.vstack([np.full(d, 0.05), np.full(d, 0.75)]),
    )


@pytest.fixture(scope="session")
def bimodal_64():
    return tight_wide_source(64)


@pytest.fixture(scope="session")
def bimodal_8():
    return tight_wide_source(8)


@pytest.fixture
def mis_index_budget(monkeypatch):
    """Call to make the validator's predicted budget mis-index T_F1 by +2.

    A negative control: the Monte-Carlo moments stay right, so a validator
    that still passes cannot tell a wrong budget from a right one.
    """
    def install():
        real = noise_budget.compute_noise_budget

        def shifted(schedule, plan, split, gamma, sigma_eff2):
            split = noise_budget.SplitConfig(min(split.t_f1 + 2, plan.k - split.t_f2), split.t_f2)
            return real(schedule, plan, split, gamma, sigma_eff2)

        monkeypatch.setattr(noise_budget, "compute_noise_budget", shifted)

    return install
