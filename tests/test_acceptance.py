"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Statistical criteria use
fixed master seeds, so every number here is reproducible.
"""

import math
import os
import time
import numpy as np
import pytest

import diffsemcom as dsc
from diffsemcom import cli
from diffsemcom.channel import ChannelConfig
from diffsemcom.config import parse_config
from diffsemcom.denoisers import gmm_marginal, gmm_score
from diffsemcom.errors import ParameterError
from diffsemcom.harness import cmd_verify_prop1
from diffsemcom.mlp import TrainConfig, init_mlp, loss_and_grads, mlp_predict, train_denoiser
from diffsemcom.noise_budget import SplitConfig
from diffsemcom.pipeline import PipelineConfig, run_baseline_random_noise, run_trial
from instruments import ConstantDenoiser, gmm_log_density, measure_snr, standard_normal_mixture

HERE = os.path.dirname(os.path.abspath(__file__))
CONFIGS = os.path.join(os.path.dirname(HERE), "configs")


def _report(num, description, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] criterion {num}: {description}{suffix}")
    assert ok, f"criterion {num}: {description}{suffix}"


def _tight_wide(d=64):
    return dsc.GaussianMixtureModel(
        np.array([0.5, 0.5]),
        np.vstack([np.full(d, 0.9), np.full(d, -0.9)]),
        np.vstack([np.full(d, 0.05), np.full(d, 0.75)]),
    )


def test_criterion_01_prop1_monte_carlo(tmp_path):
    cfg = parse_config(os.path.join(CONFIGS, "default.ini"))
    t0 = time.time()
    code, report = cmd_verify_prop1(cfg, tmp_path)
    elapsed = time.time() - t0
    ok = (
        code == 0
        and report.dimension == 512
        and report.n_samples == 20_000
        and report.var_rel_err <= 0.03
        and report.frac_mean_within_band >= 0.99
        and elapsed <= 60.0
    )
    _report(1, "prop-1 Monte Carlo variance/mean at d=512, n=2e4, 5 dB", ok,
            f"var_rel_err={report.var_rel_err:.4%}, "
            f"mean_within={report.frac_mean_within_band:.2%}, {elapsed:.1f}s")


def test_criterion_02_budget_identity():
    rng = np.random.default_rng(2024)
    t0 = time.time()
    worst = 0.0
    for _ in range(1000):
        t_train = int(rng.integers(10, 400))
        b0 = float(rng.uniform(1e-4, 5e-3))
        b1 = float(rng.uniform(b0, 0.05))
        sch = dsc.build_schedule(t_train, b0, b1)
        k = int(rng.integers(1, t_train + 1))
        plan = dsc.make_stride_plan(sch, k)
        f1 = int(rng.integers(0, k + 1))
        f2 = int(rng.integers(0, k - f1 + 1))
        gamma = float(rng.uniform(0.5, 1.5))
        budget = dsc.compute_noise_budget(
            sch, plan, SplitConfig(f1, f2), gamma, float(rng.uniform(0, 1))
        )
        t1 = plan.training_step(f1)
        alt = (1 - budget.r) + gamma**2 * budget.r * (1 - sch.alpha_bars[t1])
        worst = max(worst, abs(budget.sigma_eps2 - alt))
    elapsed = time.time() - t0
    ok = worst <= 1e-12 and elapsed <= 1.0
    _report(2, "budget identity to 1e-12 over 1000 random tuples",
            ok, f"worst={worst:.2e}, {elapsed:.2f}s")


def test_criterion_03_step_selector(sched, plan50):
    levels = 1 - sched.alpha_bars[plan50.timesteps]
    rng = np.random.default_rng(3)
    ok = True
    for sigma in rng.uniform(0.0, 1.1, size=100):
        sel = dsc.select_denoise_steps(sched, plan50, float(sigma))
        scan = next((i + 1 for i, lv in enumerate(levels) if lv >= sigma), None)
        if scan is None:
            ok &= sel.t_b == plan50.k and sel.saturated
        else:
            ok &= sel.t_b == scan and not sel.saturated
    for t_star in (1, 13, 50):
        sel = dsc.select_denoise_steps(sched, plan50, float(levels[t_star - 1]))
        ok &= sel.t_b == t_star and not sel.saturated
    sat = dsc.select_denoise_steps(sched, plan50, float(levels[-1]) + 1e-9)
    ok &= sat.t_b == plan50.k and sat.saturated
    _report(3, "step selector equals exhaustive scan, exact boundaries, saturation", ok)


def test_criterion_04_exact_inverse_composition(sched):
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(100):
        d = int(rng.integers(1, 8))
        den = ConstantDenoiser(rng.standard_normal(d))
        z0 = rng.standard_normal(d)
        n_steps = int(rng.integers(1, 14))
        steps = np.sort(rng.choice(np.arange(1, 1001), size=n_steps, replace=False))
        up = dsc.run_ddim_invert(sched, dsc.Latent(z0, 0), list(steps), den)
        down = dsc.run_ddim_sample(sched, up, list(steps[:-1][::-1]) + [0], den)
        worst = max(worst, float(np.max(np.abs(down.values - z0))))
    ok = worst <= 1e-12
    _report(4, "constant-denoiser invert/sample round trip <= 1e-12 per component",
            ok, f"worst={worst:.2e}")


def test_criterion_05_analytic_denoiser(sched):
    rng = np.random.default_rng(5)
    h = 1e-5
    worst = 0.0
    for _ in range(200):
        j = int(rng.integers(1, 5))
        d = int(rng.integers(1, 9))
        w = rng.dirichlet(np.ones(j))
        model = dsc.GaussianMixtureModel(
            w / w.sum(), rng.normal(0, 1.5, (j, d)), rng.uniform(0.3, 2.0, (j, d))
        )
        t = int(rng.integers(1, 1001))
        mt = gmm_marginal(model, sched, t)
        z = dsc.gmm_sample(mt, 1, rng)[0]
        analytic = gmm_score(model, sched, z, t)
        fd = np.empty(d)
        for i in range(d):
            zp, zm = z.copy(), z.copy()
            zp[i] += h
            zm[i] -= h
            fd[i] = (gmm_log_density(mt, zp) - gmm_log_density(mt, zm)) / (2 * h)
        worst = max(worst, float(np.linalg.norm(fd - analytic)
                                 / max(np.linalg.norm(analytic), 1e-12)))
    std = standard_normal_mixture(6)
    den = dsc.GmmDenoiser(std, sched)
    z = rng.standard_normal(6)
    exact = max(
        float(np.max(np.abs(den.predict(z, t) - np.sqrt(1 - sched.alpha_bars[t]) * z)))
        for t in (1, 250, 1000)
    )
    ok = worst < 1e-4 and exact <= 1e-12
    _report(5, "GMM score vs finite differences < 1e-4; standard-normal case exact",
            ok, f"fd_worst={worst:.2e}, std_exact={exact:.2e}")


def test_criterion_06_gmm_round_trip(sched):
    src = dsc.GaussianMixtureModel(
        np.array([0.5, 0.5]),
        np.vstack([np.full(2, 1.2), np.full(2, -1.2)]),
        np.full((2, 2), 0.5),
    )
    den = dsc.GmmDenoiser(src, sched)
    z0 = dsc.gmm_sample(src, 100, dsc.stream(6, 0))  # 100 seeds as a batch

    def round_trip(plan_up):
        up = dsc.run_ddim_invert(sched, dsc.Latent(z0, 0), plan_up, den)
        down = dsc.run_ddim_sample(sched, up, plan_up[:-1][::-1] + [0], den)
        return np.sum((down.values - z0) ** 2, axis=-1) / np.sum(z0**2, axis=-1)

    rel_stride1 = round_trip(list(range(1, 201)))
    medians = [
        float(np.median(round_trip(list(range(200 // k, 201, 200 // k)))))
        for k in (10, 20, 40)
    ]
    ok = float(np.max(rel_stride1)) < 1e-2 and medians[0] >= medians[1] >= medians[2]
    _report(6, "stride-1 invert/sample rel MSE < 1e-2; error non-increasing with refinement",
            ok, f"stride1_max={np.max(rel_stride1):.2e}, medians={['%.2e' % m for m in medians]}")


def _trend_setup():
    sched = dsc.build_schedule(1000, 8.5e-4, 0.012)
    plan = dsc.make_stride_plan(sched, 50)
    src = _tight_wide(64)
    den = dsc.GmmDenoiser(src, sched)
    return sched, plan, src, den


def test_criterion_07_remark3_trend():
    sched, plan, src, den = _trend_setup()
    ch = ChannelConfig(5.0, "real_simplified")
    cfg_auto = PipelineConfig(t_f1=5, t_f2=5, t_b="auto")
    cfg_forced = PipelineConfig(t_f1=5, t_f2=5, t_b=10)
    wins = 0
    t_b_auto = None
    for seed in range(20):
        a = run_trial(cfg_auto, ch, src, sched, plan, den, 256, dsc.stream(0, 1, seed))
        f = run_trial(cfg_forced, ch, src, sched, plan, den, 256, dsc.stream(0, 1, seed))
        wins += a.metrics.sw2 < f.metrics.sw2
        t_b_auto = a.t_b_resolved
    monotone = True
    for seed in range(5):
        tbs = []
        for snr in (0.0, 5.0, 10.0, 15.0, 20.0):
            cfg = PipelineConfig(t_f1=5, t_f2=5, t_b="auto")
            res = run_trial(cfg, ChannelConfig(snr, "real_simplified"), src, sched, plan, den, 64, dsc.stream(0, 1, seed))
            tbs.append(res.t_b_resolved)
        monotone &= all(x >= y for x, y in zip(tbs, tbs[1:]))
    ok = wins >= 16 and t_b_auto > 10 and monotone
    _report(7, "auto T_B (> T_F) beats forced T_B = T_F on sw2 >= 80%; "
               "T_B non-increasing in SNR", ok,
            f"wins={wins}/20, auto_t_b={t_b_auto}, monotone={monotone}")


def test_criterion_08_inversion_vs_random_noise():
    sched, plan, src, den = _trend_setup()
    cfg = PipelineConfig(t_f1=5, t_f2=5, t_b="auto")
    ch = ChannelConfig(5.0, "real_simplified")
    wins_sw2 = wins_mse = 0
    for seed in range(20):
        a = run_trial(cfg, ch, src, sched, plan, den, 256, dsc.stream(0, 1, seed))
        b = run_baseline_random_noise(cfg, ch, src, sched, plan, den, 256, dsc.stream(0, 1, seed))
        wins_sw2 += a.metrics.sw2 < b.metrics.sw2
        wins_mse += a.metrics.mse < b.metrics.mse
    ok = wins_sw2 >= 16 and wins_mse >= 16
    _report(8, "inversion beats random-noise baseline on sw2 and mse >= 80%",
            ok, f"sw2 {wins_sw2}/20, mse {wins_mse}/20")


def sign_test_p_value(wins: int, n: int) -> float:
    """One-sided exact binomial tail P(X >= wins) under p = 1/2."""
    if not (0 <= wins <= n):
        raise ParameterError(f"wins={wins} outside 0..{n}")
    total = sum(math.comb(n, k) for k in range(wins, n + 1))
    return total / 2.0 ** n


def test_sign_test_p_value():
    assert sign_test_p_value(0, 10) == pytest.approx(1.0)
    assert sign_test_p_value(10, 10) == pytest.approx(2.0**-10)
    assert sign_test_p_value(5, 9) == pytest.approx(0.5)
    with pytest.raises(ParameterError):
        sign_test_p_value(11, 10)


def test_criterion_09_split_trend():
    sched, plan, src, den = _trend_setup()
    ch = ChannelConfig(5.0, "real_simplified")
    cfg_55 = PipelineConfig(t_f1=5, t_f2=5, t_b="auto")
    cfg_100 = PipelineConfig(t_f1=10, t_f2=0, t_b="auto")
    wins = 0
    for seed in range(30):
        a = run_trial(cfg_55, ch, src, sched, plan, den, 256, dsc.stream(0, 1, seed))
        b = run_trial(cfg_100, ch, src, sched, plan, den, 256, dsc.stream(0, 1, seed))
        wins += a.metrics.sw2 <= b.metrics.sw2
    p = sign_test_p_value(wins, 30)
    ok = wins >= 18
    _report(9, "(5,5) <= (10,0) on sw2 in >= 60% of 30 paired seeds",
            ok, f"wins={wins}/30, sign-test p={p:.2e}")


def test_criterion_10_channel_calibration():
    # SNR calibration on the per-real-dimension model; noise-variance split
    # on the complex model.  Under the complex model the same real-vector
    # SNR formula reads exactly 10*log10(2) high, which is the documented
    # per-symbol vs per-dimension accounting gap; assert that too.
    rng = dsc.stream(10, 0)
    values, _ = dsc.power_normalize(rng.standard_normal((200, 512)))  # 102400 comps
    channel = ChannelConfig(7.0, "real_simplified")
    sigma_ch2 = channel.noise_var
    y_real = dsc.awgn_apply(values, channel, dsc.stream(10, 1))
    measured = measure_snr(values, y_real)
    snr_ok = abs(measured - 7.0) < 0.2
    y_cx = dsc.awgn_apply(values, ChannelConfig(7.0, "complex_paper"), dsc.stream(10, 2))
    noise_var = float(np.var(y_cx - values))
    var_ok = abs(noise_var - sigma_ch2 / 2) / (sigma_ch2 / 2) < 0.03
    measured_cx = measure_snr(values, y_cx)
    offset_ok = abs(measured_cx - (7.0 + 10 * math.log10(2.0))) < 0.2
    _report(10, "measured SNR within 0.2 dB; complex noise variance within 3% of half",
            snr_ok and var_ok and offset_ok,
            f"snr={measured:.3f} dB, var_rel_err={abs(noise_var - sigma_ch2/2)/(sigma_ch2/2):.3%}, "
            f"complex_offset={measured_cx - 7.0:.3f} dB")


def test_criterion_11_mlp_denoiser(sched):
    params = init_mlp(2, 8, 2, dsc.stream(11, 0), t_emb=8)
    rng = np.random.default_rng(11)
    z = rng.standard_normal((4, 2))
    t = rng.integers(1, 1001, size=4)
    target = rng.standard_normal((4, 2))
    _, grads = loss_and_grads(params, z, t, target)
    h = 1e-5
    worst = 0.0
    for arr, grad in zip(params.arrays(), grads):
        flat, gflat = arr.ravel(), grad.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            lp, _ = loss_and_grads(params, z, t, target)
            flat[i] = orig - h
            lm, _ = loss_and_grads(params, z, t, target)
            flat[i] = orig
            fd = (lp - lm) / (2 * h)
            worst = max(worst, abs(fd - gflat[i]) / max(abs(fd), abs(gflat[i]), 1e-8))

    src = standard_normal_mixture(2)
    trained, _ = train_denoiser(
        init_mlp(2, 64, 1, dsc.stream(11, 1)), src, sched,
        TrainConfig(iterations=6000), 123,
    )
    probe_rng = np.random.default_rng(99)
    tt = probe_rng.integers(1, 1001, size=4000)
    zz = probe_rng.standard_normal((4000, 2))
    ref = np.sqrt(1 - sched.alpha_bars[tt])[:, None] * zz
    pred = mlp_predict(trained, zz, tt)
    rel_rmse = float(np.sqrt(np.sum((pred - ref) ** 2) / np.sum(ref**2)))
    ok = worst < 1e-4 and rel_rmse < 0.15
    _report(11, "MLP gradients match finite differences; trained rel RMSE < 0.15",
            ok, f"grad_worst={worst:.2e}, rel_rmse={rel_rmse:.3f}")


def test_criterion_12_cli_reproducibility(tmp_path):
    cfg_path = tmp_path / "tiny.ini"
    cfg_path.write_text(
        "[source]\ndimension = 32\n"
        "[prop1]\nn_samples = 10000\n"
        "[sweep]\nsnr_db = 0 10\nseeds = 0 1\nn_per_cell = 32\nplot = true\n"
        "[train]\niterations = 150\n"
    )
    outputs = {
        "verify-prop1": ["prop1_report.csv"],
        "sweep": ["sweep.csv", "sweep_mse.svg", "sweep_sw2.svg"],
        "ablate": ["ablate.csv"],
        "train": ["train_loss.csv", "denoiser.ckpt"],
    }
    identical = True
    for command, files in outputs.items():
        d1, d2 = tmp_path / f"{command}-1", tmp_path / f"{command}-2"
        for d in (d1, d2):
            code = cli.main([command, "--config", str(cfg_path), "--out", str(d)])
            assert code == 0, f"{command} exited {code}"
        for name in files:
            b1 = (d1 / name).read_bytes()
            b2 = (d2 / name).read_bytes()
            identical &= b1 == b2
    _report(12, "every CLI command yields byte-identical outputs across runs", identical)
