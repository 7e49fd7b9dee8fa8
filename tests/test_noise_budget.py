import os
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import diffsemcom as dsc
from diffsemcom import cli
from diffsemcom.channel import ChannelConfig
from diffsemcom.config import parse_config, serialize_config
from diffsemcom.errors import ParameterError
from diffsemcom.noise_budget import SplitConfig, validate_prop1
from instruments import standard_normal_mixture


def test_budget_no_receiver_leg(sched, plan50):
    # T_F2 = 0 and gamma = 1 reduces to the plain forward noise level
    b = dsc.compute_noise_budget(sched, plan50, SplitConfig(5, 0), 1.0, 0.25)
    t1 = plan50.training_step(5)
    assert b.r == 1.0
    assert b.sigma_eps2 == pytest.approx(1 - sched.alpha_bars[t1], rel=1e-12)
    assert b.sigma_n2 == pytest.approx(0.25)


def test_budget_gamma_one_any_split(sched, plan50):
    for split in (SplitConfig(5, 5), SplitConfig(2, 9), SplitConfig(0, 7)):
        b = dsc.compute_noise_budget(sched, plan50, split, 1.0, 0.1)
        tf = plan50.training_step(split.t_f)
        assert b.sigma_eps2 == pytest.approx(1 - sched.alpha_bars[tf], rel=1e-12)


@settings(max_examples=200, deadline=None)
@given(t_train=st.integers(10, 299), beta_start=st.floats(1e-4, 5e-3),
       gamma=st.floats(0.5, 1.5), sigma_eff2=st.floats(0.0, 1.0), data=st.data())
def test_budget_identity_random_tuples(t_train, beta_start, gamma, sigma_eff2, data):
    # sigma_eps^2 from the budget equals (1 - r) + gamma^2 r (1 - ab_F1)
    beta_end = data.draw(st.floats(beta_start, 0.05))
    sch = dsc.build_schedule(t_train, beta_start, beta_end)
    k = data.draw(st.integers(1, t_train))
    plan = dsc.make_stride_plan(sch, k)
    f1 = data.draw(st.integers(0, k))
    f2 = data.draw(st.integers(0, k - f1))
    b = dsc.compute_noise_budget(sch, plan, SplitConfig(f1, f2), gamma, sigma_eff2)
    t1 = plan.training_step(f1)
    alt = (1 - b.r) + gamma**2 * b.r * (1 - sch.alpha_bars[t1])
    assert abs(b.sigma_eps2 - alt) <= 1e-12


@settings(max_examples=200, deadline=None)
@given(log_gamma=st.floats(-3.0, 6.0), split_kind=st.sampled_from(("baseline", "split")),
       data=st.data())
def test_budget_exact_over_gamma_range(sched, plan50, log_gamma, split_kind, data):
    # sigma_eps^2 against its exact rational value, on the baseline's (0, T_F)
    # and on a (T_F1, T_F2) split with T_F1 > 0: at a large gamma the form
    # 1 - r (1 - gamma^2) - gamma^2 ab_F cancels, so no rounding may build up
    gamma = 10.0**log_gamma
    f1 = 0 if split_kind == "baseline" else data.draw(st.integers(1, plan50.k))
    f2 = data.draw(st.integers(1 if f1 == 0 else 0, plan50.k - f1))
    b = dsc.compute_noise_budget(sched, plan50, SplitConfig(f1, f2), gamma, 0.0)
    ab1 = Fraction(float(sched.alpha_bars[plan50.training_step(f1)]))
    ab_f = Fraction(float(sched.alpha_bars[plan50.training_step(f1 + f2)]))
    g2 = Fraction(gamma) ** 2
    exact = 1 - ab_f / ab1 * (1 - g2) - g2 * ab_f
    assert abs(Fraction(b.sigma_eps2) - exact) <= Fraction(1e-14) * max(1, exact)


def test_budget_validation(sched, plan50):
    with pytest.raises(ParameterError):
        dsc.compute_noise_budget(sched, plan50, SplitConfig(30, 30), 1.0, 0.1)
    with pytest.raises(ParameterError):
        dsc.compute_noise_budget(sched, plan50, SplitConfig(5, 5), 0.0, 0.1)
    with pytest.raises(ParameterError):
        dsc.compute_noise_budget(sched, plan50, SplitConfig(5, 5), 1.0, -0.1)
    with pytest.raises(ParameterError):
        SplitConfig(-1, 5)


def test_remark2_monotonic_channel_attenuation(sched, plan50):
    # with T_F1 fixed, growing T_F2 strictly shrinks r and sigma_n^2
    prev = None
    for t_f2 in range(0, 10):
        b = dsc.compute_noise_budget(sched, plan50, SplitConfig(5, t_f2), 1.0, 0.3)
        if prev is not None:
            assert b.r < prev.r
            assert b.sigma_n2 < prev.sigma_n2
        prev = b


def test_selector_boundary_and_zero(sched, plan50):
    levels = 1 - sched.alpha_bars[plan50.timesteps]
    for t_star in (1, 7, 50):
        sel = dsc.select_denoise_steps(sched, plan50, float(levels[t_star - 1]))
        assert sel.t_b == t_star
        assert not sel.saturated
    sel = dsc.select_denoise_steps(sched, plan50, 0.0)
    assert sel.t_b == 1


def test_selector_saturation(sched, plan50):
    levels = 1 - sched.alpha_bars[plan50.timesteps]
    sel = dsc.select_denoise_steps(sched, plan50, float(levels[-1]) + 1e-6)
    assert sel.t_b == 50
    assert sel.saturated


def test_selector_matches_linear_scan(sched, plan50):
    rng = np.random.default_rng(71)
    levels = 1 - sched.alpha_bars[plan50.timesteps]
    for sigma in rng.uniform(0.0, 1.1, size=100):
        sel = dsc.select_denoise_steps(sched, plan50, float(sigma))
        scan = next((i + 1 for i, lv in enumerate(levels) if lv >= sigma), None)
        if scan is None:
            assert sel.t_b == plan50.k and sel.saturated
        else:
            assert sel.t_b == scan and not sel.saturated


@st.composite
def schedules_and_plans(draw):
    t_train = draw(st.integers(1, 1000))
    beta_start = draw(st.floats(1e-6, 0.05))
    beta_end = draw(st.floats(beta_start, 0.3))
    schedule = dsc.build_schedule(t_train, beta_start, beta_end)
    return schedule, dsc.make_stride_plan(schedule, draw(st.integers(1, t_train)))


@settings(max_examples=150, deadline=None)
@given(sp=schedules_and_plans(), data=st.data())
def test_selector_monotone_and_saturates_past_last_level_property(sp, data):
    schedule, plan = sp
    levels = 1 - schedule.alpha_bars[plan.timesteps]
    # probes: arbitrary values, the plan's own levels and their neighbours
    at_levels = st.sampled_from(levels).map(float)
    probe = st.one_of(st.floats(0.0, 1.5), at_levels,
                      at_levels.map(lambda v: float(np.nextafter(v, 2.0))))
    sigmas = sorted(data.draw(st.lists(probe, min_size=1, max_size=30)))
    picks = [dsc.select_denoise_steps(schedule, plan, s) for s in sigmas]
    for s, sel in zip(sigmas, picks):
        assert 1 <= sel.t_b <= plan.k
        assert sel.saturated == (s > levels[-1])
    assert all(a.t_b <= b.t_b for a, b in zip(picks, picks[1:]))


def test_selector_rejects_negative(sched, plan50):
    with pytest.raises(ParameterError):
        dsc.select_denoise_steps(sched, plan50, -0.1)


def test_remark3_bound_provable_regime(sched, plan50):
    # T_B >= T_F is guaranteed whenever sigma_eff^2 >= (1-gamma^2)(1-ab_F1);
    # at gamma = 1 that is every positive sigma_eff^2
    split = SplitConfig(5, 5)
    t1 = plan50.training_step(split.t_f1)
    for gamma in (1.0, 0.97, 0.92):
        floor = (1 - gamma**2) * (1 - sched.alpha_bars[t1])
        for snr_db in (0.0, 5.0, 10.0, 15.0, 20.0):
            sigma_eff2 = ChannelConfig(snr_db, "complex_paper").noise_var
            if sigma_eff2 < floor:
                continue
            b = dsc.compute_noise_budget(sched, plan50, split, gamma, sigma_eff2)
            sel = dsc.select_denoise_steps(sched, plan50, b.sigma_tot2)
            assert sel.t_b >= split.t_f


def test_remark1_gamma_approaches_one(sched, plan50):
    # stochastic forward of a power-2.75 source: median |gamma - 1| shrinks
    # as the transmitter-side leg deepens
    d = 64
    src = dsc.GaussianMixtureModel(
        np.array([0.5, 0.5]),
        np.vstack([np.full(d, 1.5), np.full(d, -1.5)]),
        np.full((2, d), 0.5),
    )
    rng = dsc.stream(0, 72)
    z0 = dsc.gmm_sample(src, 400, rng)
    medians = []
    for t_f1 in (5, 15, 30, 50):
        zt = dsc.forward_reparam(
            sched, dsc.Latent(z0, 0), plan50.training_step(t_f1), dsc.stream(0, 73)
        ).values
        _, gammas = dsc.power_normalize(zt)
        medians.append(np.median(np.abs(gammas - 1.0)))
    assert all(a > b for a, b in zip(medians, medians[1:]))


def test_validator_reduction_no_channel(sched, plan50):
    # sigma_eff^2 ~ 0 and T_F2 = 0: the budget is the diffusion part at the
    # per-sample gamma alone.  Normalizing fixes each sample's power at d,
    # which removes the radial degree of freedom that the budget's constant
    # gamma keeps, so the pooled variance is (d - 1) / d of it.
    d = 64
    rep = validate_prop1(
        sched, plan50, SplitConfig(5, 0), ChannelConfig(400.0, "real_simplified"),
        standard_normal_mixture(d), 20_000, dsc.stream(0, 74),
    )
    b = rep.budget
    assert b.r == 1.0
    assert b.sigma_tot2 == b.sigma_eps2  # sigma_n^2 = 1e-40 is below its rounding
    t1 = plan50.training_step(5)
    assert b.sigma_eps2 == pytest.approx(b.gamma_used ** 2 * (1 - sched.alpha_bars[t1]),
                                         rel=1e-12)
    expected = b.sigma_tot2 * (d - 1) / d
    mc_rel = 3 * np.sqrt(2.0 / (20_000 * d))
    assert abs(rep.pooled_var - expected) / expected < mc_rel
    assert rep.passed()


def test_validator_full_pipeline_passes(sched, plan50):
    src = standard_normal_mixture(64)
    rep = validate_prop1(
        sched, plan50, SplitConfig(5, 5), ChannelConfig(5.0, "complex_paper"),
        src, 20_000, dsc.stream(0, 75),
    )
    assert rep.var_rel_err < 0.03
    assert rep.frac_mean_within_band >= 0.99
    assert rep.passed()


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 10a")
def test_verify_prop1_passes_on_the_empty_split_at_200_db(tmp_path):
    # default.ini on split (0, 0) at 200 dB predicts a variance of 5e-21, but
    # the pooled (sum z^2 - n mean^2) / (n - 1) floors near 1e-16 mean^2:
    # 6.5e-17, a var_rel_err of 1.3e6%, so a correct simulator exits 1
    cfg = parse_config(os.path.join(os.path.dirname(__file__), os.pardir, "configs",
                                    "default.ini"))
    cfg = replace(cfg, pipeline=replace(cfg.pipeline, t_f1=0, t_f2=0),
                  channel=replace(cfg.channel, snr_db=200.0))
    path = tmp_path / "empty_split_200db.ini"
    path.write_text(serialize_config(cfg))
    assert cli.main(["verify-prop1", "--config", str(path), "--out", str(tmp_path / "out")]) == 0


def test_validator_negative_control(sched, plan50, mis_index_budget):
    mis_index_budget()
    src = standard_normal_mixture(64)
    rep = validate_prop1(
        sched, plan50, SplitConfig(5, 5), ChannelConfig(5.0, "complex_paper"),
        src, 20_000, dsc.stream(0, 75),
    )
    assert not rep.passed()


def test_validator_enforces_sample_floor(sched, plan50):
    src = standard_normal_mixture(8)
    with pytest.raises(ParameterError):
        validate_prop1(
            sched, plan50, SplitConfig(5, 5), ChannelConfig(5.0, "complex_paper"),
            src, 500, dsc.stream(0, 77),
        )


def test_validator_csv_shape(sched, plan50):
    src = standard_normal_mixture(8)
    rep = validate_prop1(
        sched, plan50, SplitConfig(2, 2), ChannelConfig(10.0, "complex_paper"),
        src, 10_000, dsc.stream(0, 78),
    )
    lines = rep.to_csv().strip().splitlines()
    assert lines[0] == "dim,empirical_mean_err,empirical_var,predicted_var,rel_err"
    assert len(lines) == 1 + 8
    assert rep.summary_line().startswith("prop1 ")


def _serial_moments(sched, plan, split, channel_cfg, source, n_samples, rng, chunk):
    """The validator's chunk loop as it ran on one thread in fresh arrays:
    the reference that the threaded, buffer-reusing loop must match bit for bit.
    Returns (emp_mean, emp_var, gamma_used)."""
    d = source.d
    ab = sched.alpha_bars
    t1 = plan.training_step(split.t_f1)
    tf = plan.training_step(split.t_f)
    r = float(ab[tf] / ab[t1])
    sigma_eff2 = channel_cfg.noise_var
    n_chunks = (n_samples + chunk - 1) // chunk
    kids = rng.spawn(1 + n_chunks)
    z0 = dsc.gmm_sample(source, 1, kids[0])[0]
    sum_z, sum_z2, sum_gamma = [], [], []
    done = 0
    for c in range(n_chunks):
        m = min(chunk, n_samples - done)
        g = kids[1 + c]
        eps1 = g.standard_normal((m, d))
        z_t1 = np.sqrt(ab[t1]) * z0 + np.sqrt(1.0 - ab[t1]) * eps1
        gamma = 1.0 / np.sqrt(np.mean(z_t1 * z_t1, axis=-1))
        y = gamma[:, None] * z_t1 + np.sqrt(sigma_eff2) * g.standard_normal((m, d))
        eps2 = g.standard_normal((m, d))
        z_hat = np.sqrt(r) * y + np.sqrt(1.0 - r) * eps2
        sum_z.append(np.sum(z_hat, axis=0))
        sum_z2.append(np.sum(z_hat * z_hat, axis=0))
        sum_gamma.append(float(np.sum(gamma)))
        done += m
    total = np.sum(np.stack(sum_z), axis=0)
    total2 = np.sum(np.stack(sum_z2), axis=0)
    emp_mean = total / n_samples
    emp_var = (total2 - n_samples * emp_mean * emp_mean) / (n_samples - 1)
    return emp_mean, emp_var, float(np.sum(sum_gamma) / n_samples)


@pytest.mark.parametrize("chunk", [4096, 1000])  # 3 chunks; 11 chunks, more than threads
def test_validator_bits_match_serial_loop_at_any_thread_count(sched, plan50, bimodal_64,
                                                             monkeypatch, chunk):
    src = bimodal_64
    channel = ChannelConfig(5.0, "complex_paper")
    n = 10_001
    for split in (SplitConfig(5, 5), SplitConfig(0, 10), SplitConfig(10, 0)):
        ref = _serial_moments(sched, plan50, split, channel, src, n, dsc.stream(0, 79), chunk)
        for cpus in (1, 3):
            monkeypatch.setattr(os, "sched_getaffinity",
                                lambda pid, cpus=cpus: set(range(cpus)), raising=False)
            rep = validate_prop1(sched, plan50, split, channel, src, n, dsc.stream(0, 79),
                                 chunk=chunk)
            assert np.array_equal(rep.emp_mean, ref[0]), (split, cpus)
            assert np.array_equal(rep.emp_var, ref[1]), (split, cpus)
            assert rep.budget.gamma_used == ref[2], (split, cpus)


def test_validator_scratch_is_one_chunk_buffer_per_thread(sched, plan50, monkeypatch):
    # tracemalloc sees numpy's buffers.  Each thread holds one chunk x d
    # float64 buffer and a block-sized one, so the peak stays under 1.25
    # chunk buffers per thread; a second chunk-sized buffer would double it.
    d, n, chunk = 64, 10_001, 4096
    src = standard_normal_mixture(d)
    channel = ChannelConfig(5.0, "complex_paper")
    # untraced first, so that the one-time imports of a first call do not count
    validate_prop1(sched, plan50, SplitConfig(5, 5), channel, src, n, dsc.stream(0, 80))
    for cpus in (1, 2):
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid, cpus=cpus: set(range(cpus)), raising=False)
        tracemalloc.start()
        try:
            validate_prop1(sched, plan50, SplitConfig(5, 5), channel, src, n, dsc.stream(0, 80))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * cpus * chunk * d * 8, (cpus, peak)
