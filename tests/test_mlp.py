import numpy as np
import pytest

import diffsemcom as dsc
from diffsemcom.errors import ParameterError, TrainingDivergedError
from diffsemcom.mlp import (
    MlpDenoiser,
    TrainConfig,
    _Adam,
    init_mlp,
    load_checkpoint,
    loss_and_grads,
    mlp_predict,
    save_checkpoint,
    train_denoiser,
)
from instruments import standard_normal_mixture


def glorot_bound(fan_in: int, fan_out: int) -> float:
    """Half-width of the init interval; every initial weight lies inside it."""
    return float(np.sqrt(6.0 / (fan_in + fan_out)))


def test_init_deterministic():
    a = init_mlp(3, 16, 2, dsc.stream(4, 0))
    b = init_mlp(3, 16, 2, dsc.stream(4, 0))
    for x, y in zip(a.arrays(), b.arrays()):
        assert np.array_equal(x, y)


def test_init_within_recomputed_bound():
    params = init_mlp(5, 32, 3, dsc.stream(4, 1), t_emb=16)
    n_in = 5 + 16 + 3
    for w, (fi, fo) in zip(
        (params.w1, params.w2, params.w3), ((n_in, 32), (32, 32), (32, 5))
    ):
        assert np.max(np.abs(w)) <= glorot_bound(fi, fo)
    assert np.all(params.b1 == 0) and np.all(params.b3 == 0)


def test_forward_finite_on_zero_input():
    params = init_mlp(4, 8, 1, dsc.stream(4, 2))
    out = mlp_predict(params, np.zeros((1, 4)), 0)
    assert out.shape == (1, 4)
    assert np.all(np.isfinite(out))


def test_predict_deterministic_and_shapes():
    params = init_mlp(3, 8, 2, dsc.stream(4, 3))
    z = np.random.default_rng(0).standard_normal((5, 3))
    a = mlp_predict(params, z, 100)
    b = mlp_predict(params, z, 100)
    assert np.array_equal(a, b)
    assert a.shape == (5, 3)
    with pytest.raises(ParameterError):
        mlp_predict(params, np.zeros((5, 4)), 100)


def test_gradients_match_finite_differences():
    params = init_mlp(2, 8, 2, dsc.stream(4, 4), t_emb=8)
    rng = np.random.default_rng(1)
    z = rng.standard_normal((4, 2))
    t = rng.integers(1, 1001, size=4)
    target = rng.standard_normal((4, 2))
    _, grads = loss_and_grads(params, z, t, target)
    h = 1e-5
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
            assert abs(fd - gflat[i]) / max(abs(fd), abs(gflat[i]), 1e-8) < 1e-4


def test_label_rows_stay_at_their_init():
    # the label input columns are zero, so their rows of w1 get no gradient
    params = init_mlp(3, 8, 2, dsc.stream(4, 7), t_emb=8)
    rng = np.random.default_rng(3)
    _, grads = loss_and_grads(params, rng.standard_normal((6, 3)),
                              rng.integers(1, 1001, size=6), rng.standard_normal((6, 3)))
    assert grads[0].shape == (3 + 8 + 2, 8)
    assert np.all(grads[0][3 + 8:] == 0.0)


def test_sgd_step_moves_downhill():
    params = init_mlp(2, 8, 1, dsc.stream(4, 5))
    rng = np.random.default_rng(2)
    z = rng.standard_normal((32, 2))
    t = rng.integers(1, 1001, size=32)
    target = rng.standard_normal((32, 2))
    l0, grads = loss_and_grads(params, z, t, target)
    for arr, g in zip(params.arrays(), grads):
        arr -= 0.05 * g
    l1, _ = loss_and_grads(params, z, t, target)
    assert l1 < l0


def test_training_loss_halves(sched):
    src = standard_normal_mixture(2)
    params = init_mlp(2, 64, 1, dsc.stream(4, 6))
    # initial smoothed loss: the untrained network on 10 fresh batches
    eval_rng = np.random.default_rng(77)
    init_losses = []
    for _ in range(10):
        z0 = dsc.gmm_sample(src, 256, eval_rng)
        t = eval_rng.integers(1, 1001, size=256)
        eps = eval_rng.standard_normal((256, 2))
        ab = sched.alpha_bars[t][:, None]
        z_t = np.sqrt(ab) * z0 + np.sqrt(1 - ab) * eps
        loss, _ = loss_and_grads(params, z_t, t, eps)
        init_losses.append(loss)
    _, trace = train_denoiser(
        params, src, sched,
        TrainConfig(iterations=800), 123,
    )
    assert np.mean(trace[-100:]) <= 0.5 * np.mean(init_losses)


def test_zero_learning_rate_keeps_params(sched, monkeypatch):
    monkeypatch.setattr(TrainConfig, "learning_rate", 0.0)
    src = standard_normal_mixture(2)
    params = init_mlp(2, 8, 1, dsc.stream(4, 7))
    trained, _ = train_denoiser(params, src, sched, TrainConfig(iterations=20), 0)
    for a, b in zip(trained.arrays(), params.arrays()):
        assert np.array_equal(a, b)


def test_training_divergence_raises(sched):
    # the guard fires as soon as the loss goes non-finite
    src = standard_normal_mixture(2)
    params = init_mlp(2, 8, 1, dsc.stream(4, 8))
    params.w3[0, 0] = np.nan
    with pytest.raises(TrainingDivergedError, match=r"at iteration 0$"):
        train_denoiser(params, src, sched, TrainConfig(iterations=50), 0)


def test_training_bit_reproducible(sched):
    src = standard_normal_mixture(2)
    cfg = TrainConfig(iterations=50)
    p1, t1 = train_denoiser(init_mlp(2, 8, 1, dsc.stream(4, 9)), src, sched, cfg, 9)
    p2, t2 = train_denoiser(init_mlp(2, 8, 1, dsc.stream(4, 9)), src, sched, cfg, 9)
    assert np.array_equal(t1, t2)
    for a, b in zip(p1.arrays(), p2.arrays()):
        assert np.array_equal(a, b)


def _plain_train(params, source, schedule, cfg, seed):
    """train_denoiser's loop as plain expressions in fresh arrays: the
    reference that the buffer-reusing loop must match bit for bit.  Returns
    the trained copy and the loss trace, cut before a non-finite loss."""
    params = params.copy()
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    adam = _Adam(cfg.learning_rate, [a.shape for a in params.arrays()])
    ab = schedule.alpha_bars
    n, d, half = cfg.batch_size, params.d, params.t_emb // 2
    freqs = np.exp(-np.log(10000.0) * np.arange(half) / max(half - 1, 1))
    trace = []
    for _ in range(cfg.iterations):
        labels = rng.choice(source.n_components, size=n, p=source.weights)
        z0 = source.means[labels] + np.sqrt(source.variances[labels]) * rng.standard_normal((n, d))
        t = rng.integers(1, schedule.t_train + 1, size=n)
        eps = rng.standard_normal((n, d))
        z_t = np.sqrt(ab[t])[:, None] * z0 + np.sqrt(1.0 - ab[t])[:, None] * eps
        arg = t.astype(float)[:, None] * freqs[None, :]
        x = np.concatenate([z_t, np.sin(arg), np.cos(arg), np.zeros((n, params.label_count))],
                           axis=1)
        h1 = np.tanh(x @ params.w1 + params.b1)
        h2 = np.tanh(h1 @ params.w2 + params.b2)
        resid = h2 @ params.w3 + params.b3 - eps
        loss = float(np.mean(resid * resid))
        if not np.isfinite(loss):
            break
        trace.append(loss)
        g_out = 2.0 * resid / resid.size
        g_a2 = (g_out @ params.w3.T) * (1.0 - h2 * h2)
        g_a1 = (g_a2 @ params.w2.T) * (1.0 - h1 * h1)
        adam.step(params.arrays(), [x.T @ g_a1, g_a1.sum(axis=0), h1.T @ g_a2,
                                    g_a2.sum(axis=0), h2.T @ g_out, g_out.sum(axis=0)])
    return params, np.array(trace)


def test_training_bits_match_plain_loop(sched, bimodal_8, monkeypatch):
    # J = 2, hidden != d, and a batch that is not a whole number of sample blocks
    monkeypatch.setattr(TrainConfig, "batch_size", 100)
    cfg = TrainConfig(iterations=40)
    params = init_mlp(8, 24, 2, dsc.stream(4, 14))
    trained, trace = train_denoiser(params, bimodal_8, sched, cfg, 3)
    ref_params, ref_trace = _plain_train(params, bimodal_8, sched, cfg, 3)
    assert np.array_equal(trace, ref_trace)
    for a, b in zip(trained.arrays(), ref_params.arrays()):
        assert np.array_equal(a, b)
    # a huge step overflows the loss after the first update: the error
    # names the first iteration that the plain loop could not finish
    monkeypatch.setattr(TrainConfig, "learning_rate", 1e300)
    with np.errstate(all="ignore"):
        _, ref_trace = _plain_train(params, bimodal_8, sched, cfg, 3)
        with pytest.raises(TrainingDivergedError) as err:
            train_denoiser(params, bimodal_8, sched, cfg, 3)
    assert 0 < ref_trace.size < cfg.iterations
    assert str(err.value) == f"non-finite loss at iteration {ref_trace.size}"


def test_checkpoint_round_trip(tmp_path):
    params = init_mlp(3, 8, 2, dsc.stream(4, 10))
    path = tmp_path / "net.ckpt"
    save_checkpoint(params, path)
    loaded = load_checkpoint(path)
    assert loaded.d == 3 and loaded.hidden == 8 and loaded.label_count == 2
    for a, b in zip(loaded.arrays(), params.arrays()):
        assert np.array_equal(a, b)
    z = np.random.default_rng(3).standard_normal((1, 3))
    assert np.array_equal(mlp_predict(loaded, z, 42), mlp_predict(params, z, 42))


def test_checkpoint_rejects_garbage(tmp_path):
    path = tmp_path / "bad.ckpt"
    save_checkpoint(init_mlp(3, 8, 2, dsc.stream(4, 10)), path)
    whole = path.read_bytes()
    for blob in (b"NOPE" + b"\x00" * 40, whole[:-16], whole + b"\x00" * 8):
        path.write_bytes(blob)
        with pytest.raises(ParameterError, match="bad checkpoint magic|bad\\.ckpt"):
            load_checkpoint(path)
    # one non-finite weight, in the first or the last array
    for name, value in (("w1", np.nan), ("b3", np.inf), ("b3", -np.inf)):
        params = init_mlp(3, 8, 2, dsc.stream(4, 10))
        getattr(params, name).flat[-1] = value
        save_checkpoint(params, path)
        with pytest.raises(ParameterError, match="non-finite weights"):
            load_checkpoint(path)


def test_denoiser_contract(sched):
    params = init_mlp(2, 8, 1, dsc.stream(4, 11))
    den = MlpDenoiser(params)
    z = np.random.default_rng(5).standard_normal((7, 2))
    out = den.predict(z, 10)
    assert out.shape == z.shape


def test_trained_pipeline_mse_within_factor_two(sched):
    # end-to-end smoke: the trained net's pipeline MSE stays within 2x of
    # the analytic denoiser's on the standard-normal source
    from diffsemcom.channel import ChannelConfig
    from diffsemcom.pipeline import PipelineConfig, run_trial

    src = standard_normal_mixture(2)
    trained, _ = train_denoiser(
        init_mlp(2, 64, 1, dsc.stream(4, 12)), src, sched,
        TrainConfig(iterations=2500), 5,
    )
    plan = dsc.make_stride_plan(sched, 50)
    cfg = PipelineConfig(t_f1=5, t_f2=5, t_b="auto")
    channel = ChannelConfig(5.0, "real_simplified")
    mses = {}
    for name, den in (("mlp", MlpDenoiser(trained)),
                      ("analytic", dsc.GmmDenoiser(src, sched))):
        res = run_trial(cfg, channel, src, sched, plan, den, 512, dsc.stream(4, 13))
        mses[name] = res.metrics.mse
    assert mses["mlp"] <= 2.0 * mses["analytic"]
