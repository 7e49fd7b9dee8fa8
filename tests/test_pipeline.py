import os
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import diffsemcom as dsc
from diffsemcom.channel import ChannelConfig
from diffsemcom.config import parse_config
from diffsemcom.errors import ParameterError
from diffsemcom.harness import build_objects
from diffsemcom.pipeline import (
    PipelineConfig,
    decode_at,
    encode_transmit,
    receiver_forward,
    run_baseline_random_noise,
    run_trial,
)
from instruments import ConstantDenoiser, standard_normal_mixture

QUIET = ChannelConfig(400.0, "real_simplified")  # effectively noiseless
AT5 = ChannelConfig(5.0, "real_simplified")
BIMODAL_INI = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "configs",
                           "bimodal.ini")


def test_encode_tf1_zero_is_normalized_source(sched, plan50, std_normal_8):
    cfg = PipelineConfig(t_f1=0, t_f2=5)
    den = dsc.GmmDenoiser(std_normal_8, sched)
    z0 = dsc.gmm_sample(std_normal_8, 4, dsc.stream(1, 0))
    values, gamma = encode_transmit(z0, cfg, sched, plan50, den)
    ref_values, ref_gamma = dsc.power_normalize(z0)
    assert np.array_equal(values, ref_values)
    assert np.array_equal(gamma, ref_gamma)


def test_encode_zero_denoiser_matches_normalized_source(sched, plan50, std_normal_8):
    # a zero prediction makes inversion a pure scaling, which normalization
    # absorbs: transmitted values equal the normalized source
    cfg = PipelineConfig(t_f1=5, t_f2=0)
    z0 = dsc.gmm_sample(std_normal_8, 4, dsc.stream(1, 2))
    values, _ = encode_transmit(z0, cfg, sched, plan50, ConstantDenoiser(0.0))
    ref_values, _ = dsc.power_normalize(z0)
    assert np.allclose(values, ref_values, rtol=1e-12)


def test_encode_power_matches_forward_monte_carlo(sched, plan50):
    # the inverted latent's average power tracks the stochastic-forward
    # power at the same step within 10%
    model = standard_normal_mixture(256)
    den = dsc.GmmDenoiser(model, sched)
    z0 = dsc.gmm_sample(model, 128, dsc.stream(1, 4))
    inverted = dsc.run_ddim_invert(
        sched, dsc.Latent(z0, 0), plan50.ascending_steps(0, 5), den
    ).values
    forward = dsc.forward_reparam(
        sched, dsc.Latent(z0, 0), plan50.training_step(5), dsc.stream(1, 40)
    ).values
    mc_power = float(np.mean(forward**2))
    assert abs(np.mean(inverted**2) / mc_power - 1.0) < 0.1
    assert abs(mc_power - 1.0) < 0.05  # standard normal is stationary


def test_receive_decode_exact_inverse(sched, plan50):
    # constant denoiser, no channel noise, T_F2 = 0, T_B = T_F1
    rng = dsc.stream(1, 5)
    z0 = rng.standard_normal(8)
    den = ConstantDenoiser(rng.standard_normal(8))
    y = dsc.run_ddim_invert(sched, dsc.Latent(z0, 0), plan50.ascending_steps(0, 5), den).values
    cfg = PipelineConfig(t_f1=5, t_f2=0, t_b=5)
    out = decode_at(receiver_forward(y, cfg, sched, plan50, den), sched, plan50, den, 5)
    assert np.max(np.abs(out - z0)) <= 1e-12


def test_receive_decode_gamma_consistent_round_trip(sched, plan50):
    # GMM denoiser through the whole encoder (with normalization): the
    # decoder recovers gamma * z0 since no de-normalization is applied
    d = 1024
    src = dsc.GaussianMixtureModel(
        np.array([0.5, 0.5]),
        np.vstack([np.full(d, 0.8), np.full(d, -0.8)]),
        np.full((2, d), 0.36),
    )
    den = dsc.GmmDenoiser(src, sched)
    cfg = PipelineConfig(t_f1=5, t_f2=0, t_b=5)
    z0 = dsc.gmm_sample(src, 8, dsc.stream(1, 7))
    values, gamma = encode_transmit(z0, cfg, sched, plan50, den)
    z_hat = receiver_forward(values, cfg, sched, plan50, den)
    out = decode_at(z_hat, sched, plan50, den, 5)
    ref = gamma[:, None] * z0
    rel = np.sum((out - ref) ** 2, axis=-1) / np.sum(ref**2, axis=-1)
    assert np.max(rel) < 1e-2


def test_receive_decode_t_b_zero_only_for_empty_split(sched, plan50, std_normal_8):
    den = dsc.GmmDenoiser(std_normal_8, sched)
    y = np.ones(8)
    cfg0 = PipelineConfig(t_f1=0, t_f2=0, t_b=0)
    z_hat = receiver_forward(y, cfg0, sched, plan50, den)
    assert np.array_equal(decode_at(z_hat, sched, plan50, den, 0), y)
    # a config cannot hold t_b = 0 on a non-empty split; a depth passed in can
    cfg_auto = PipelineConfig(t_f1=5, t_f2=0, t_b="auto")
    with pytest.raises(ParameterError, match="resolved t_b = 0 is only valid for an empty split"):
        decode_at(receiver_forward(y, cfg_auto, sched, plan50, den), sched, plan50, den, 0)
    # the rule reads the latent's tag, on or off the plan
    for t in (1, plan50.training_step(1), sched.t_train):
        with pytest.raises(ParameterError, match="resolved t_b = 0 is only valid"):
            decode_at(dsc.Latent(y, t), sched, plan50, den, 0)
    # any other depth outside the plan is the plan's error
    for t_b in (-1, plan50.k + 1):
        with pytest.raises(ParameterError):
            decode_at(z_hat, sched, plan50, den, t_b)


def _affine_ddim(sched, mu, v, steps):
    """(a, b) with z -> a * z + b the DDIM fold through training steps[0] -> steps[-1].

    For one diagonal component N(mu, v) the diffused score at t is
    (m_t - z) / s_t with m_t = sqrt(ab_t) mu and s_t = ab_t v + 1 - ab_t, so
    eps_hat = sqrt(1 - ab_t) (z - m_t) / s_t and every step is affine in z.
    """
    ab = sched.alpha_bars
    a, b = np.ones_like(mu), np.zeros_like(mu)
    for t_from, t_to in zip(steps, steps[1:]):
        c = np.sqrt(ab[t_to] / ab[t_from])
        coef = np.sqrt(1.0 - ab[t_to]) - c * np.sqrt(1.0 - ab[t_from])
        s = ab[t_from] * v + 1.0 - ab[t_from]
        e = np.sqrt(1.0 - ab[t_from]) / s
        step_a, step_b = c + coef * e, -coef * e * np.sqrt(ab[t_from]) * mu
        a, b = step_a * a, step_a * b + step_b
    return a, b


def _max_rel_err(got, want):
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


@settings(max_examples=60, deadline=None)
@given(
    mu=st.lists(st.floats(-2.0, 2.0), min_size=8, max_size=8),
    v=st.lists(st.floats(0.05, 3.0), min_size=8, max_size=8),
    t_f1=st.integers(0, 7), t_f2=st.integers(0, 7),
    t_b_offset=st.integers(0, 50), seed=st.integers(0, 2**16),
)
def test_single_gaussian_encode_decode_match_closed_form(sched, plan50, mu, v, t_f1, t_f2,
                                                         t_b_offset, seed):
    # encode -> decode on one Gaussian component is a composition of affine
    # maps, one per DDIM step; both forward legs invert deterministically
    mu, v = np.asarray(mu), np.asarray(v)
    src = dsc.GaussianMixtureModel(np.ones(1), mu[None, :], v[None, :])
    den = dsc.GmmDenoiser(src, sched)
    t_f = t_f1 + t_f2
    t_b = max(t_f, 1) + t_b_offset % (51 - max(t_f, 1))  # max(t_f, 1)..50
    cfg = PipelineConfig(t_f1=t_f1, t_f2=t_f2, t_b=t_b)
    rng = dsc.stream(3, seed)
    z0 = dsc.gmm_sample(src, 16, rng)

    values, gamma = encode_transmit(z0, cfg, sched, plan50, den)
    a1, b1 = _affine_ddim(sched, mu, v, [0] + plan50.ascending_steps(0, t_f1))
    z_t1 = a1 * z0 + b1
    want_gamma = 1.0 / np.sqrt(np.mean(z_t1 * z_t1, axis=-1))
    assert _max_rel_err(gamma, want_gamma) <= 1e-12
    assert _max_rel_err(values, want_gamma[:, None] * z_t1) <= 1e-12

    y = dsc.awgn_apply(values, ChannelConfig(-10.0 * np.log10(0.3), "real_simplified"), rng)
    out = decode_at(receiver_forward(y, cfg, sched, plan50, den), sched, plan50, den, t_b)
    a2, b2 = _affine_ddim(sched, mu, v, [plan50.training_step(t_f1)]
                          + plan50.ascending_steps(t_f1, t_f))
    a3, b3 = _affine_ddim(sched, mu, v, [plan50.training_step(t_b)]
                          + plan50.descending_plan(t_b))
    assert _max_rel_err(out, a3 * (a2 * y + b2) + b3) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(
    mu=st.lists(st.floats(-2.0, 2.0), min_size=8, max_size=8),
    v=st.lists(st.floats(0.05, 3.0), min_size=8, max_size=8),
    t_f1=st.integers(0, 10), t_f2=st.integers(0, 10), seed=st.integers(0, 2**16),
)
def test_single_gaussian_inverting_leg_carries_channel_noise_by_its_slope(sched, plan50, mu, v,
                                                                          t_f1, t_f2, seed):
    # on one Gaussian component the receiver's inverting leg is affine, so
    # the channel noise reaches T_F scaled by the leg's slope a, not by the
    # budget's sqrt(r) of a fresh-noise leg
    mu, v = np.asarray(mu), np.asarray(v)
    src = dsc.GaussianMixtureModel(np.ones(1), mu[None, :], v[None, :])
    den = dsc.GmmDenoiser(src, sched)
    cfg = PipelineConfig(t_f1=t_f1, t_f2=t_f2)
    k_x, k_n = dsc.stream(5, seed).spawn(2)
    x = k_x.standard_normal((16, 8))
    n = np.sqrt(0.3) * k_n.standard_normal((16, 8))
    delta = (receiver_forward(x + n, cfg, sched, plan50, den).values
             - receiver_forward(x, cfg, sched, plan50, den).values)
    a, _b = _affine_ddim(sched, mu, v, [plan50.training_step(t_f1)]
                         + plan50.ascending_steps(t_f1, t_f1 + t_f2))
    assert _max_rel_err(delta, a * n) <= 1e-12


def test_inverting_leg_gain_on_bimodal_mixture_matches_flow_closed_form():
    # E|leg(x + n) - leg(x)|^2 / E|n|^2 on bimodal.ini's mixture at 10 dB,
    # split (5, 5).  Each component's probability flow stretches the noise
    # by (ab_F v_j + 1 - ab_F) / (ab_F1 v_j + 1 - ab_F1) in power: 1.89 for
    # the tight mode, 1.045 for the wide one, against the budget's
    # r = ab_F / ab_F1 = 0.843.  The leg is still linear in the noise at
    # 10 dB (at 0 dB it is not: 1.33).  Measured 1.4550 against the
    # continuous form's 1.4687 (-0.93%): the five discrete DDIM steps give
    # 1.4560 by the per-component slopes of _affine_ddim, and the sampling
    # spread of the component fractions is 0.45% over these 4,096 samples.
    # The 2% tolerance covers both.
    cfg = parse_config(BIMODAL_INI)
    sched, plan, src, den = build_objects(cfg)
    p, channel = cfg.pipeline, replace(cfg.channel, snr_db=10.0)
    ab_f1, ab_f = (sched.alpha_bars[plan.training_step(t)] for t in (p.t_f1, p.split.t_f))
    v = src.variances[:, 0]
    closed = float(np.sum(src.weights * (ab_f * v + 1.0 - ab_f) / (ab_f1 * v + 1.0 - ab_f1)))
    delta2 = noise2 = 0.0
    for seed in range(8):
        k_src, k_ch = dsc.stream(cfg.run.seed, seed).spawn(2)
        x, _gamma = encode_transmit(dsc.gmm_sample(src, 512, k_src), p, sched, plan, den)
        y = dsc.awgn_apply(x, channel, k_ch)
        delta = (receiver_forward(y, p, sched, plan, den).values
                 - receiver_forward(x, p, sched, plan, den).values)
        delta2 += float(np.sum(delta**2))
        noise2 += float(np.sum((y - x) ** 2))
    assert delta2 / noise2 == pytest.approx(closed, rel=0.02)


def test_single_gaussian_trial_mse_within_clt_band_of_conditional_mean(sched, plan50):
    # given z0 (and so gamma and T_B) the decoded error is D + G * noise with
    # D = (K - 1) z0 + C, K = A3 A2 gamma A1, C = A3 A2 gamma B1 + A3 B2 + B3
    # and G = A3 A2; mse is then a mean of n * d independent squares of known
    # mean and variance.  Each draw's standardized residual is about N(0, 1),
    # so each lies within 5 and their mean within 5 / sqrt(draws).
    draws, n = 40, 512
    rng = np.random.default_rng(7)
    residuals = []
    for seed in range(draws):
        mu, v = rng.uniform(-2.0, 2.0, 8), rng.uniform(0.05, 3.0, 8)
        t_f1, t_f2 = (int(t) for t in rng.integers(0, 8, 2))
        t_b = "auto" if seed % 2 else int(rng.integers(1, 51))
        snr_db = rng.uniform(-5.0, 20.0)
        model = ("complex_paper", "real_simplified")[seed // 2 % 2]
        src = dsc.GaussianMixtureModel(np.ones(1), mu[None, :], v[None, :])
        cfg = PipelineConfig(t_f1=t_f1, t_f2=t_f2, t_b=t_b)
        channel = ChannelConfig(snr_db, model)
        res = run_trial(cfg, channel, src, sched, plan50,
                        dsc.GmmDenoiser(src, sched), n, dsc.stream(4, seed))

        t_f, t_b = t_f1 + t_f2, res.t_b_resolved
        a1, b1 = _affine_ddim(sched, mu, v, [0] + plan50.ascending_steps(0, t_f1))
        a2, b2 = _affine_ddim(sched, mu, v, [plan50.training_step(t_f1)]
                              + plan50.ascending_steps(t_f1, t_f))
        a3, b3 = _affine_ddim(sched, mu, v, [plan50.training_step(t_b)]
                              + plan50.descending_plan(t_b))
        gamma = res.gamma[:, None]
        det = (a3 * a2 * gamma * a1 - 1.0) * res.z0 + a3 * a2 * gamma * b1 + a3 * b2 + b3
        # the decoded channel noise's variance, per entry
        var = np.broadcast_to((a3 * a2) ** 2, det.shape) * channel.noise_var
        want = float(np.mean(det**2 + var))
        std = float(np.sqrt(np.sum(4.0 * det**2 * var + 2.0 * var**2))) / det.size
        residuals.append((res.metrics.mse - want) / std)
    residuals = np.asarray(residuals)
    assert np.max(np.abs(residuals)) <= 5.0, residuals
    assert abs(np.mean(residuals)) <= 5.0 / np.sqrt(draws), residuals


@settings(max_examples=40, deadline=None)
@given(
    t_f1=st.integers(0, 10), t_f2=st.integers(0, 10),
    fresh_noise=st.booleans(),
    t_b=st.one_of(st.just("auto"), st.integers(0, 50)),
    seed=st.integers(0, 2**16),
)
def test_run_trial_decodes_through_receive_decode(sched, plan50, bimodal_8, t_f1, t_f2,
                                                  fresh_noise, t_b, seed):
    # run_trial has no decoder of its own: its output is the hand-wired chain
    # encode_transmit -> awgn_apply -> receiver_forward -> decode_at on the four
    # substreams
    if t_b == 0 and t_f1 + t_f2:
        t_b = t_f1 + t_f2  # t_b = 0 is valid only on the empty split
    den = dsc.GmmDenoiser(bimodal_8, sched)
    cfg = PipelineConfig(t_f1=t_f1, t_f2=t_f2, t_b=t_b)
    res = run_trial(cfg, AT5, bimodal_8, sched, plan50, den, 4, dsc.stream(2, seed),
                    fresh_noise=fresh_noise)

    k_src, _k_tx, k_ch, k_rx = dsc.stream(2, seed).spawn(4)
    z0 = dsc.gmm_sample(bimodal_8, 4, k_src)
    values, gamma = encode_transmit(z0, cfg, sched, plan50, den)
    y = dsc.awgn_apply(values, AT5, k_ch)
    if t_b == "auto":
        budget = dsc.compute_noise_budget(sched, plan50, cfg.split, float(np.mean(gamma)),
                                          AT5.noise_var)
        t_b = dsc.select_denoise_steps(sched, plan50, budget.sigma_tot2).t_b
    assert res.t_b_resolved == t_b
    z_hat = receiver_forward(y, cfg, sched, plan50, den, k_rx if fresh_noise else None)
    assert np.array_equal(res.z_tilde0, decode_at(z_hat, sched, plan50, den, t_b))


def test_run_trial_deterministic(sched, plan50, bimodal_64):
    den = dsc.GmmDenoiser(bimodal_64, sched)
    cfg = PipelineConfig(t_f1=5, t_f2=5, t_b="auto")
    a = run_trial(cfg, AT5, bimodal_64, sched, plan50, den, 64, dsc.stream(1, 12))
    b = run_trial(cfg, AT5, bimodal_64, sched, plan50, den, 64, dsc.stream(1, 12))
    assert a.metrics == b.metrics
    assert a.t_b_resolved == b.t_b_resolved
    assert np.array_equal(a.z_tilde0, b.z_tilde0)


def test_degenerate_channel_identity(sched, plan50):
    # sigma_ch^2 = 0, zero-constant denoiser, T_F2 = 0, T_B = T_F1: the
    # decoded latent equals gamma * z0 exactly (no de-normalization exists)
    src = standard_normal_mixture(16)
    den = ConstantDenoiser(0.0)
    cfg = PipelineConfig(t_f1=5, t_f2=0, t_b=5)
    res = run_trial(cfg, QUIET, src, sched, plan50, den, 16, dsc.stream(1, 13))
    ref = res.gamma[:, None] * res.z0
    assert np.max(np.abs(res.z_tilde0 - ref)) <= 1e-12


def test_snr_ordering_median_mse(sched, plan50, bimodal_64):
    den = dsc.GmmDenoiser(bimodal_64, sched)
    lo, hi = [], []
    for seed in range(20):
        for target, snr in ((lo, 0.0), (hi, 20.0)):
            cfg = PipelineConfig(t_f1=5, t_f2=5, t_b="auto")
            res = run_trial(cfg, ChannelConfig(snr, "real_simplified"), bimodal_64, sched, plan50, den, 64, dsc.stream(1, 100 + seed))
            target.append(res.metrics.mse)
    assert np.median(hi) < np.median(lo)


def test_sw2_median_decreases_along_snr_for_unit_power_source(sched, plan50):
    # for a unit-power source the decoded distribution approaches the
    # source as SNR grows
    src = standard_normal_mixture(64)
    den = dsc.GmmDenoiser(src, sched)
    medians = []
    for snr in (0.0, 10.0, 20.0):
        cfg = PipelineConfig(t_f1=5, t_f2=5, t_b="auto")
        channel = ChannelConfig(snr, "real_simplified")
        vals = [
            run_trial(cfg, channel, src, sched, plan50, den, 128, dsc.stream(1, 200 + seed)).metrics.sw2
            for seed in range(8)
        ]
        medians.append(np.median(vals))
    assert medians[0] > medians[1] > medians[2]


def test_paper_analog_t_b_exceeds_t_f_at_0db(sched, plan50, bimodal_64):
    den = dsc.GmmDenoiser(bimodal_64, sched)
    cfg = PipelineConfig(t_f1=5, t_f2=5, t_b="auto")
    res = run_trial(cfg, ChannelConfig(0.0, "complex_paper"), bimodal_64, sched, plan50, den, 64, dsc.stream(1, 14))
    assert res.t_b_resolved > 10


def test_receiver_forward_modes_both_work(sched, plan50, bimodal_64):
    den = dsc.GmmDenoiser(bimodal_64, sched)
    cfg = PipelineConfig(t_f1=5, t_f2=5, t_b="auto")
    outs = {}
    for fresh_noise in (False, True):
        res = run_trial(cfg, AT5, bimodal_64, sched, plan50, den, 32, dsc.stream(1, 15),
                        fresh_noise=fresh_noise)
        outs[fresh_noise] = res.metrics.mse
    assert all(np.isfinite(v) for v in outs.values())
    assert outs[False] != outs[True]


def test_baseline_trivial_recovery_and_determinism(sched, plan50, bimodal_64):
    den = dsc.GmmDenoiser(bimodal_64, sched)
    cfg = PipelineConfig(t_f1=0, t_f2=0, t_b=0)
    a = run_baseline_random_noise(cfg, QUIET, bimodal_64, sched, plan50, den, 16,
                                  dsc.stream(1, 17))
    b = run_baseline_random_noise(cfg, QUIET, bimodal_64, sched, plan50, den, 16, dsc.stream(1, 17))
    ref = a.gamma[:, None] * a.z0
    assert np.max(np.abs(a.z_tilde0 - ref)) < 1e-12
    assert np.array_equal(a.z_tilde0, b.z_tilde0)


def test_baseline_shares_source_draws_with_proposed(sched, plan50, bimodal_64):
    den = dsc.GmmDenoiser(bimodal_64, sched)
    cfg = PipelineConfig(t_f1=5, t_f2=5, t_b="auto")
    a = run_trial(cfg, AT5, bimodal_64, sched, plan50, den, 32, dsc.stream(1, 18))
    b = run_baseline_random_noise(cfg, AT5, bimodal_64, sched, plan50, den, 32, dsc.stream(1, 18))
    assert np.array_equal(a.z0, b.z0)
