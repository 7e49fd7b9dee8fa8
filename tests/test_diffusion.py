import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import diffsemcom as dsc
from diffsemcom.diffusion import _ddim_step
from diffsemcom.errors import ParameterError
from instruments import ConstantDenoiser, standard_normal_mixture


class _ZeroRng:
    """Stands in for a generator; forces eps = 0 in forward_reparam."""

    def standard_normal(self, shape):
        return np.zeros(shape)


def test_forward_reparam_zero_noise(sched):
    z = dsc.Latent(np.array([1.0, -2.0]), 0)
    out = dsc.forward_reparam(sched, z, 400, _ZeroRng())
    r = dsc.alpha_bar_ratio(sched, 0, 400)
    assert out.t == 400
    assert np.allclose(out.values, np.sqrt(r) * z.values, rtol=1e-15)


def test_forward_reparam_identity(sched):
    z = dsc.Latent(np.array([0.3, 0.7]), 123)
    out = dsc.forward_reparam(sched, z, 123, dsc.stream(0, 20))
    assert np.array_equal(out.values, z.values)


def test_forward_reparam_rejects_backward(sched):
    z = dsc.Latent(np.zeros(2), 100)
    with pytest.raises(ParameterError):
        dsc.forward_reparam(sched, z, 99, dsc.stream(0, 21))


def test_forward_reparam_moments(sched):
    rng = dsc.stream(0, 22)
    z0 = np.array([0.8, -1.1, 0.4])
    t = 300
    batch = dsc.forward_reparam(
        sched, dsc.Latent(np.tile(z0, (100_000, 1)), 0), t, rng
    ).values
    ab = sched.alpha_bars[t]
    mc_sigma = np.sqrt((1 - ab) / 100_000)
    assert np.all(np.abs(batch.mean(axis=0) - np.sqrt(ab) * z0) < 3 * mc_sigma * 1.5)
    assert np.all(np.abs(batch.var(axis=0) / (1 - ab) - 1.0) < 0.03)


def test_sample_step_zero_prediction_scaling(sched):
    rng = np.random.default_rng(23)
    zero = ConstantDenoiser(0.0)
    for _ in range(20):
        t = int(rng.integers(2, 1001))
        t_prev = int(rng.integers(0, t))
        v = rng.standard_normal(4)
        out = dsc.ddim_sample_step(sched, dsc.Latent(v, t), t_prev, zero)
        expected = np.sqrt(sched.alpha_bars[t_prev] / sched.alpha_bars[t]) * v
        assert np.allclose(out.values, expected, rtol=1e-14)
        assert out.t == t_prev


def test_invert_step_zero_prediction_scaling(sched):
    rng = np.random.default_rng(24)
    zero = ConstantDenoiser(0.0)
    for _ in range(20):
        t = int(rng.integers(0, 999))
        t_next = int(rng.integers(t + 1, 1001))
        v = rng.standard_normal(4)
        out = dsc.ddim_invert_step(sched, dsc.Latent(v, t), t_next, zero)
        expected = np.sqrt(sched.alpha_bars[t_next] / sched.alpha_bars[t]) * v
        assert np.allclose(out.values, expected, rtol=1e-14)


def test_degenerate_equal_step_is_exact_identity(sched):
    # the step core at equal endpoints returns the input bit-for-bit
    rng = np.random.default_rng(25)
    for t in (1, 77, 1000):
        v = rng.standard_normal(6)
        eps = rng.standard_normal(6)
        out = _ddim_step(sched, v, t, t, eps)
        assert np.array_equal(out, v)


def test_step_direction_errors(sched):
    zero = ConstantDenoiser(0.0)
    z = dsc.Latent(np.zeros(2), 100)
    with pytest.raises(ParameterError):
        dsc.ddim_sample_step(sched, z, 100, zero)
    with pytest.raises(ParameterError):
        dsc.ddim_sample_step(sched, z, 150, zero)
    with pytest.raises(ParameterError):
        dsc.ddim_invert_step(sched, z, 100, zero)
    with pytest.raises(ParameterError):
        dsc.ddim_invert_step(sched, z, 50, zero)


def test_constant_denoiser_single_pair_inverse(sched):
    rng = np.random.default_rng(26)
    den = ConstantDenoiser(rng.standard_normal(5))
    z = dsc.Latent(rng.standard_normal(5), 120)
    up = dsc.ddim_invert_step(sched, z, 480, den)
    back = dsc.ddim_sample_step(sched, up, 120, den)
    assert np.max(np.abs(back.values - z.values)) < 1e-12


def test_run_plans_empty_and_fold(sched):
    zero = ConstantDenoiser(0.0)
    z = dsc.Latent(np.array([1.0, 2.0]), 500)
    assert dsc.run_ddim_sample(sched, z, [], zero) is z
    assert dsc.run_ddim_invert(sched, z, [], zero) is z

    # a 2-step plan equals composing the single steps
    den = ConstantDenoiser(np.array([0.4, -0.2]))
    two = dsc.run_ddim_sample(sched, z, [300, 100], den)
    one = dsc.ddim_sample_step(sched, dsc.ddim_sample_step(sched, z, 300, den), 100, den)
    assert np.array_equal(two.values, one.values)


def test_run_plan_single_scaled_copy(sched):
    zero = ConstantDenoiser(0.0)
    z = dsc.Latent(np.array([3.0, -1.0]), 800)
    out = dsc.run_ddim_sample(sched, z, [200], zero)
    assert out.t == 200
    assert np.allclose(
        out.values,
        np.sqrt(sched.alpha_bars[200] / sched.alpha_bars[800]) * z.values,
        rtol=1e-14,
    )


def test_run_plan_validation(sched):
    zero = ConstantDenoiser(0.0)
    z = dsc.Latent(np.zeros(2), 500)
    with pytest.raises(ParameterError):
        dsc.run_ddim_sample(sched, z, [300, 300], zero)
    with pytest.raises(ParameterError):
        dsc.run_ddim_sample(sched, z, [600, 100], zero)
    with pytest.raises(ParameterError):
        dsc.run_ddim_invert(sched, z, [400], zero)
    with pytest.raises(ParameterError):
        dsc.run_ddim_invert(sched, z, [600, 550], zero)
    with pytest.raises(ParameterError):
        dsc.run_ddim_invert(sched, z, [600, 1200], zero)


def _plans(min_size):
    """Strictly increasing training steps in 1..1000."""
    return st.lists(st.integers(1, 1000), min_size=min_size, max_size=12, unique=True).map(sorted)


@settings(max_examples=80, deadline=None)
@given(steps=_plans(1), d=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
def test_invert_then_sample_round_trip_property(sched, steps, d, seed):
    rng = np.random.default_rng(seed)
    den = ConstantDenoiser(rng.standard_normal(d))
    z0 = rng.standard_normal(d)
    up = dsc.run_ddim_invert(sched, dsc.Latent(z0, 0), steps, den)
    down = dsc.run_ddim_sample(sched, up, steps[-2::-1] + [0], den)
    assert up.t == steps[-1] and down.t == 0
    assert np.max(np.abs(down.values - z0)) < 1e-12


@settings(max_examples=80, deadline=None)
@given(steps=_plans(2), d=st.integers(1, 8), fault=st.sampled_from(["repeat", "swap", "range"]),
       data=st.data())
def test_bad_plan_raises_property(sched, steps, d, fault, data):
    # the folds check nothing themselves: every bad plan fails in a step
    den = ConstantDenoiser(0.5)
    up, down = list(steps), steps[-2::-1] + [0]
    if fault == "range":
        up.append(sched.t_train + data.draw(st.integers(1, 50)))
        down.append(-data.draw(st.integers(1, 50)))
    else:
        for plan in (up, down):
            i = data.draw(st.integers(0, len(plan) - 1))
            if fault == "repeat":
                plan.insert(i, plan[i])
            else:
                j = min(i, len(plan) - 2)
                plan[j], plan[j + 1] = plan[j + 1], plan[j]
    with pytest.raises(ParameterError):
        dsc.run_ddim_invert(sched, dsc.Latent(np.ones(d), 0), up, den)
    with pytest.raises(ParameterError):
        dsc.run_ddim_sample(sched, dsc.Latent(np.ones(d), steps[-1]), down, den)


def test_constant_denoiser_multi_step_round_trip(sched):
    rng = np.random.default_rng(27)
    for _ in range(25):
        d = int(rng.integers(1, 6))
        den = ConstantDenoiser(rng.standard_normal(d))
        z0 = rng.standard_normal(d)
        steps = np.sort(rng.choice(np.arange(1, 1001), size=rng.integers(1, 12), replace=False))
        up = dsc.run_ddim_invert(sched, dsc.Latent(z0, 0), list(steps), den)
        down = dsc.run_ddim_sample(sched, up, list(steps[:-1][::-1]) + [0], den)
        assert down.t == 0
        assert np.max(np.abs(down.values - z0)) < 1e-12


def test_gmm_round_trip_accuracy(sched):
    # analytic denoiser, stride-1 inversion to t=200 and back
    src = dsc.GaussianMixtureModel(
        np.array([0.5, 0.5]), np.vstack([np.full(2, 1.2), np.full(2, -1.2)]),
        np.full((2, 2), 0.5),
    )
    den = dsc.GmmDenoiser(src, sched)
    z0 = dsc.gmm_sample(src, 50, dsc.stream(0, 28))
    plan_up = list(range(1, 201))
    up = dsc.run_ddim_invert(sched, dsc.Latent(z0, 0), plan_up, den)
    down = dsc.run_ddim_sample(sched, up, list(range(199, 0, -1)) + [0], den)
    rel = np.sum((down.values - z0) ** 2) / np.sum(z0**2)
    assert rel < 1e-2


def test_stride_refinement_monotonicity(sched):
    src = dsc.GaussianMixtureModel(
        np.array([0.5, 0.5]), np.vstack([np.full(2, 1.2), np.full(2, -1.2)]),
        np.full((2, 2), 0.5),
    )
    den = dsc.GmmDenoiser(src, sched)
    z0 = dsc.gmm_sample(src, 100, dsc.stream(0, 29))
    medians = []
    for k in (10, 20, 40):
        step = 200 // k
        plan_up = list(range(step, 201, step))
        up = dsc.run_ddim_invert(sched, dsc.Latent(z0, 0), plan_up, den)
        down = dsc.run_ddim_sample(sched, up, plan_up[:-1][::-1] + [0], den)
        rel = np.sum((down.values - z0) ** 2, axis=-1) / np.sum(z0**2, axis=-1)
        medians.append(np.median(rel))
    assert medians[0] >= medians[1] >= medians[2]


def test_norm_growth_toward_unit(sched):
    # inverting a standard-normal source to t_train keeps ||z||^2/d near 1
    model = standard_normal_mixture(16)
    den = dsc.GmmDenoiser(model, sched)
    z0 = dsc.gmm_sample(model, 256, dsc.stream(0, 30))
    plan = dsc.make_stride_plan(sched, 50)
    up = dsc.run_ddim_invert(sched, dsc.Latent(z0, 0), list(plan.timesteps), den)
    ratio = np.mean(up.values**2)
    assert abs(ratio - 1.0) < 0.1


def test_sampling_from_pure_noise_distribution(sched, plan50):
    # 50-step sampling loop from pure noise lands near the source
    # distribution: far below untransformed noise for a structured mixture,
    # and below 0.1 absolute for the (stationary) standard-normal source
    rng = dsc.stream(0, 31)
    bimodal = dsc.GaussianMixtureModel(
        np.array([0.5, 0.5]),
        np.vstack([np.full(8, 1.0), np.full(8, -1.0)]),
        np.full((2, 8), 0.5),
    )
    for model, against_raw, tol in [
        (standard_normal_mixture(8), False, 0.1),
        (bimodal, True, None),
    ]:
        den = dsc.GmmDenoiser(model, sched)
        noise = rng.standard_normal((2000, 8))
        z = dsc.Latent(noise, 1000)
        out = dsc.run_ddim_sample(sched, z, plan50.descending_plan(50), den)
        fresh = dsc.Reference(dsc.gmm_sample(model, 2000, rng))
        sw_sampled = dsc.sliced_w2(dsc.Reference(out.values), fresh)
        if against_raw:
            sw_raw = dsc.sliced_w2(dsc.Reference(noise), fresh)
            assert sw_sampled < sw_raw
        if tol is not None:
            assert sw_sampled < tol


def test_latent_validation():
    with pytest.raises(ParameterError):
        dsc.Latent(np.array([np.inf]), 0)
    with pytest.raises(ParameterError):
        dsc.Latent(np.zeros(2), -1)


def test_operators_pure(sched):
    den = dsc.GmmDenoiser(standard_normal_mixture(3), sched)
    z = dsc.Latent(np.array([[0.5, -0.5, 1.0]]), 400)
    a = dsc.ddim_sample_step(sched, z, 100, den)
    b = dsc.ddim_sample_step(sched, z, 100, den)
    assert np.array_equal(a.values, b.values)
