import math

import numpy as np
import pytest

import diffsemcom as dsc
from diffsemcom.errors import ParameterError

# alpha_bar[1000] of the shipped schedule (1000, 8.5e-4, 0.012), frozen from a
# pure-python multiply loop over beta_t = (sqrt(b0) + (t-1)/999 (sqrt(b1) - sqrt(b0)))^2.
GOLDEN_AB_1000 = 0.004660098513077236


def scaled_linear_alphas(t_train, beta_start, beta_end):
    """alpha_t = 1 - beta_t by the documented formula, with alpha_0 = 1 at index 0."""
    betas = np.linspace(np.sqrt(beta_start), np.sqrt(beta_end), t_train) ** 2
    return np.concatenate([[1.0], 1.0 - betas])


def test_alpha_bar_zero_is_one(sched):
    assert sched.alpha_bars[0] == 1.0
    s = dsc.build_schedule(1, 0.01, 0.01)
    assert s.alpha_bars[0] == 1.0
    assert s.alpha_bars[1] == pytest.approx(0.99)


def test_golden_cumulative_product(sched):
    assert sched.alpha_bars[1000] == pytest.approx(GOLDEN_AB_1000, rel=1e-12)


def test_brute_force_product_matches():
    s = dsc.build_schedule(400, 5e-4, 0.03)
    alphas = scaled_linear_alphas(400, 5e-4, 0.03)
    prod = 1.0
    for t in range(1, 401):
        prod *= float(alphas[t])
    assert s.alpha_bars[400] == pytest.approx(prod, rel=1e-13)


def test_recursion_exact(sched):
    # cumprod is a running multiply, so the recursion holds bitwise
    alphas = scaled_linear_alphas(1000, 8.5e-4, 0.012)
    assert np.array_equal(sched.alpha_bars[1:], sched.alpha_bars[:-1] * alphas[1:])


def test_strict_monotonicity(sched):
    assert np.all(np.diff(sched.alpha_bars) < 0)


def test_scaled_linear_formula():
    # beta_t is read back from the table as 1 - alpha_bar_t / alpha_bar_{t-1}
    s = dsc.build_schedule(100, 1e-3, 0.02)
    for t in (1, 37, 100):
        expected = (
            math.sqrt(1e-3)
            + (t - 1) / 99 * (math.sqrt(0.02) - math.sqrt(1e-3))
        ) ** 2
        beta = 1.0 - s.alpha_bars[t] / s.alpha_bars[t - 1]
        assert beta == pytest.approx(expected, rel=1e-12)


def test_build_schedule_validation():
    with pytest.raises(ParameterError):
        dsc.build_schedule(0, 1e-4, 0.02)
    with pytest.raises(ParameterError):
        dsc.build_schedule(100, 0.0, 0.02)
    with pytest.raises(ParameterError):
        dsc.build_schedule(100, 0.03, 0.02)
    with pytest.raises(ParameterError):
        dsc.build_schedule(100, 0.5, 1.0)


def test_alpha_bar_ratio_trivial(sched):
    assert dsc.alpha_bar_ratio(sched, 123, 123) == 1.0
    assert dsc.alpha_bar_ratio(sched, 0, 321) == pytest.approx(
        sched.alpha_bars[321], rel=1e-15
    )


def test_alpha_bar_ratio_product_oracle(sched):
    alphas = scaled_linear_alphas(1000, 8.5e-4, 0.012)
    direct = 1.0
    for t in range(6, 11):
        direct *= float(alphas[t])
    assert dsc.alpha_bar_ratio(sched, 5, 10) == pytest.approx(direct, rel=1e-13)


def test_alpha_bar_ratio_composition(sched):
    rng = np.random.default_rng(0)
    for _ in range(50):
        a, b, c = sorted(rng.integers(0, 1001, size=3))
        lhs = dsc.alpha_bar_ratio(sched, a, c)
        rhs = dsc.alpha_bar_ratio(sched, a, b) * dsc.alpha_bar_ratio(sched, b, c)
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_alpha_bar_ratio_range_errors(sched):
    with pytest.raises(ParameterError):
        dsc.alpha_bar_ratio(sched, 10, 5)
    with pytest.raises(ParameterError):
        dsc.alpha_bar_ratio(sched, -1, 5)
    with pytest.raises(ParameterError):
        dsc.alpha_bar_ratio(sched, 0, 1001)


def test_stride_plan_uniform(sched):
    plan = dsc.make_stride_plan(sched, 50)
    assert list(plan.timesteps[:3]) == [20, 40, 60]
    assert plan.timesteps[-1] == 1000
    assert np.all(np.diff(plan.timesteps) == 20)


def test_stride_plan_identity(sched):
    plan = dsc.make_stride_plan(sched, 1000)
    assert list(plan.timesteps) == list(range(1, 1001))


def test_stride_plan_rounding_oracle(sched):
    plan = dsc.make_stride_plan(sched, 7)
    oracle = [int(math.floor(i * 1000 / 7 + 0.5)) for i in range(1, 8)]
    assert list(plan.timesteps) == oracle


def test_stride_plan_strictly_increasing_for_every_k(sched):
    # k <= t_train makes consecutive round-half-up steps differ by at least 1
    for k in range(1, sched.t_train + 1):
        steps = dsc.make_stride_plan(sched, k).timesteps
        assert steps[0] >= 1 and steps[-1] == sched.t_train and np.all(np.diff(steps) >= 1), k


def test_stride_plan_k_validation(sched):
    with pytest.raises(ParameterError):
        dsc.make_stride_plan(sched, 0)
    with pytest.raises(ParameterError):
        dsc.make_stride_plan(sched, 1001)


def test_stride_plan_helpers(sched):
    plan = dsc.make_stride_plan(sched, 50)
    assert plan.training_step(0) == 0
    assert plan.training_step(5) == 100
    assert plan.ascending_steps(0, 3) == [20, 40, 60]
    assert plan.ascending_steps(5, 7) == [120, 140]
    assert plan.descending_plan(3) == [40, 20, 0]
    assert plan.descending_plan(1) == [0]
    assert plan.descending_plan(0) == []


def test_arrays_are_immutable(sched):
    with pytest.raises(ValueError):
        sched.alpha_bars[3] = 0.5
