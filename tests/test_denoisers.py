import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import diffsemcom as dsc
from diffsemcom.denoisers import (
    _logsumexp, _ScoreTerms, gmm_marginal, gmm_score,
)
from diffsemcom.errors import ParameterError
from instruments import ConstantDenoiser, gmm_log_density, standard_normal_mixture


def random_mixture(rng, j_max=4, d_max=8):
    j = int(rng.integers(1, j_max + 1))
    d = int(rng.integers(1, d_max + 1))
    w = rng.dirichlet(np.ones(j))
    w = w / w.sum()
    means = rng.normal(0.0, 1.5, (j, d))
    var = rng.uniform(0.3, 2.0, (j, d))
    return dsc.GaussianMixtureModel(w, means, var)


def test_model_validation():
    with pytest.raises(ParameterError):
        dsc.GaussianMixtureModel(np.array([0.6, 0.6]), np.zeros((2, 2)), np.ones((2, 2)))
    with pytest.raises(ParameterError):
        dsc.GaussianMixtureModel(np.array([1.0]), np.zeros((1, 2)), np.zeros((1, 2)))
    with pytest.raises(ParameterError):
        dsc.GaussianMixtureModel(np.array([0.5, 0.5]), np.zeros((1, 2)), np.ones((1, 2)))
    # a second moment sum(mean^2 + var) that overflows, or a variance that overflows
    for mean, var in ((1e154, 1.0), (0.0, 1e308)):
        with pytest.raises(ParameterError, match="second moment"):
            dsc.GaussianMixtureModel(np.array([1.0]), np.full((1, 2), mean), np.full((1, 2), var))
    dsc.GaussianMixtureModel(np.array([1.0]), np.full((1, 2), 1e153), np.ones((1, 2)))
    # a subnormal variance, whose reciprocal overflows
    with pytest.raises(ParameterError, match="reciprocal"):
        dsc.GaussianMixtureModel(np.array([1.0]), np.zeros((1, 2)), np.full((1, 2), 1e-320))
    # each component's own terms are finite, but one's mean against the
    # other's variance overflows
    with pytest.raises(ParameterError, match="pair bound"):
        dsc.GaussianMixtureModel(np.array([0.5, 0.5]), np.array([[1e150] * 2, [1e-100] * 2]),
                                 np.array([[1.0] * 2, [1e-300] * 2]))


def test_sample_moments():
    model = standard_normal_mixture(4)
    z = dsc.gmm_sample(model, 100_000, dsc.stream(0, 40))
    assert np.all(np.abs(z.mean(axis=0)) < 0.02)
    assert np.all(np.abs(z.var(axis=0) - 1.0) < 0.03)


def test_sample_degenerate_weights():
    eps = 1e-13  # weights must stay positive
    model = dsc.GaussianMixtureModel(
        np.array([1.0 - eps, eps]),
        np.vstack([np.full(3, 5.0), np.full(3, -5.0)]),
        np.full((2, 3), 0.01),
    )
    z = dsc.gmm_sample(model, 1000, dsc.stream(0, 41))
    assert np.all(z > 0)  # all draws from component 1


def test_sample_deterministic():
    model = standard_normal_mixture(3)
    a = dsc.gmm_sample(model, 64, dsc.stream(7, 1))
    b = dsc.gmm_sample(model, 64, dsc.stream(7, 1))
    assert np.array_equal(a, b)
    # block by block, into a buffer or not: the bits of the plain expression,
    # with a row count that is not a whole number of blocks
    for seed in range(4):
        model = random_mixture(np.random.default_rng(seed))
        rng = dsc.stream(7, 2)
        labels = rng.choice(model.n_components, size=150, p=model.weights)
        eps = rng.standard_normal((150, model.d))
        ref = model.means[labels] + np.sqrt(model.variances[labels]) * eps
        assert np.array_equal(dsc.gmm_sample(model, 150, dsc.stream(7, 2)), ref)
        out = np.empty((150, model.d))
        assert dsc.gmm_sample(model, 150, dsc.stream(7, 2), out=out) is out
        assert np.array_equal(out, ref)


def test_marginal_t0_is_source(sched):
    rng = np.random.default_rng(5)
    model = random_mixture(rng)
    mt = gmm_marginal(model, sched, 0)
    assert np.allclose(mt.means, model.means)
    assert np.allclose(mt.variances, model.variances)


def test_marginal_standard_normal_stationary(sched):
    model = standard_normal_mixture(5)
    for t in (1, 100, 500, 1000):
        mt = gmm_marginal(model, sched, t)
        assert np.allclose(mt.variances, 1.0, atol=1e-15)
        assert np.allclose(mt.means, 0.0)


def test_marginal_matches_forward_simulation(sched):
    rng = np.random.default_rng(6)
    model = dsc.GaussianMixtureModel(
        np.array([0.3, 0.7]),
        np.array([[1.0, -2.0], [-1.5, 0.5]]),
        np.array([[0.5, 1.2], [2.0, 0.4]]),
    )
    t = 350
    z0 = dsc.gmm_sample(model, 100_000, rng)
    ab = sched.alpha_bars[t]
    zt = np.sqrt(ab) * z0 + np.sqrt(1 - ab) * rng.standard_normal(z0.shape)
    mt = gmm_marginal(model, sched, t)
    mix_mean = mt.weights @ mt.means
    mix_var = mt.weights @ (mt.variances + mt.means**2) - mix_mean**2
    assert np.all(np.abs(zt.mean(axis=0) - mix_mean) < 0.03)
    assert np.all(np.abs(zt.var(axis=0) / mix_var - 1.0) < 0.03)


def test_score_standard_normal(sched):
    model = standard_normal_mixture(4)
    z = np.random.default_rng(8).standard_normal(4)
    for t in (0, 10, 800):
        assert np.allclose(gmm_score(model, sched, z, t), -z, rtol=1e-12)


def test_score_single_gaussian_closed_form(sched):
    model = dsc.GaussianMixtureModel(
        np.array([1.0]), np.array([[2.0, -1.0]]), np.array([[0.5, 1.5]])
    )
    t = 400
    ab = sched.alpha_bars[t]
    z = np.array([0.3, 0.9])
    expected = -(z - np.sqrt(ab) * model.means[0]) / (ab * model.variances[0] + 1 - ab)
    assert np.allclose(gmm_score(model, sched, z, t), expected, rtol=1e-12)


def test_score_finite_differences(sched):
    rng = np.random.default_rng(9)
    h = 1e-5
    for _ in range(40):
        model = random_mixture(rng)
        t = int(rng.integers(1, 1001))
        mt = gmm_marginal(model, sched, t)
        z = dsc.gmm_sample(mt, 1, rng)[0]
        analytic = gmm_score(model, sched, z, t)
        fd = np.empty(model.d)
        for i in range(model.d):
            zp, zm = z.copy(), z.copy()
            zp[i] += h
            zm[i] -= h
            fd[i] = (gmm_log_density(mt, zp) - gmm_log_density(mt, zm)) / (2 * h)
        rel = np.linalg.norm(fd - analytic) / max(np.linalg.norm(analytic), 1e-12)
        assert rel < 1e-4


def test_score_underflow_far_probe(sched):
    # log-space responsibilities must survive probes far from every mode
    model = dsc.GaussianMixtureModel(
        np.array([0.5, 0.5]), np.array([[40.0], [-40.0]]), np.array([[0.01], [0.01]])
    )
    score = gmm_score(model, sched, np.array([0.5]), 1)
    assert np.all(np.isfinite(score))


def _admitted(weights, means, variances):
    try:
        dsc.GaussianMixtureModel(weights, means, variances)
    except ParameterError:
        return False
    return True


@st.composite
def mixtures_near_the_bound(draw):
    """Mixtures of wide-ranging means and variances, with the means scaled to
    within a factor 10^3 of the largest scale that the model admits."""
    j, d = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    exponents = st.lists(st.floats(-308.0, 300.0), min_size=j * d, max_size=j * d)
    variances = 10.0 ** np.reshape(draw(exponents), (j, d))
    shape = np.reshape(draw(st.lists(st.floats(-1.0, 1.0), min_size=j * d, max_size=j * d)),
                       (j, d))
    weights = np.asarray(draw(st.lists(st.floats(0.1, 1.0), min_size=j, max_size=j)))
    weights /= weights.sum()
    assume(_admitted(weights, np.zeros((j, d)), variances))
    lo, hi = -330.0, 308.0  # log10 of the mean scale: admitted at lo
    while hi - lo > 1e-3:
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if _admitted(weights, shape * 10.0 ** mid, variances) else (lo, mid)
    scale = 10.0 ** (lo - draw(st.floats(0.0, 3.0)))
    return dsc.GaussianMixtureModel(weights, shape * scale, variances)


@settings(max_examples=60, deadline=None)
@given(model=mixtures_near_the_bound(), seed=st.integers(0, 2**16))
def test_score_finite_for_every_admitted_mixture(sched, plan50, model, seed):
    # the admission bound covers a probe drawn from any component's
    # diffused marginal, at every step of the plan
    rng = np.random.default_rng(seed)
    cache = {}
    for s in range(plan50.k + 1):
        t = plan50.training_step(s)
        mt = gmm_marginal(model, sched, t)
        for j in range(model.n_components):
            z = mt.means[j] + np.sqrt(mt.variances[j]) * rng.standard_normal((8, model.d))
            assert np.all(np.isfinite(gmm_score(model, sched, z, t, cache))), (s, j)


def tensor_form_score(model, sched, z, t):
    """Score through the (..., J, d) tensor of per-component differences."""
    mt = gmm_marginal(model, sched, t)
    diff = z[..., None, :] - mt.means
    logp = np.log(mt.weights) - 0.5 * np.sum(
        diff * diff / mt.variances + np.log(mt.variances) + np.log(2.0 * np.pi), axis=-1
    )
    resp = np.exp(logp - logp.max(axis=-1, keepdims=True))
    resp /= resp.sum(axis=-1, keepdims=True)
    terms = resp[..., None] * (mt.means - z[..., None, :]) / mt.variances
    # scale: the summed magnitudes, so a score that cancels to ~0 between
    # components is compared against what was cancelled
    return terms.sum(axis=-2), np.abs(terms).sum(axis=-2)


@settings(max_examples=60, deadline=None)
@given(j=st.integers(1, 4), d=st.integers(1, 16), t=st.integers(0, 1000),
       seed=st.integers(0, 2**32 - 1), spread=st.sampled_from([0.5, 1.0, 3.0]))
def test_score_matches_tensor_form(sched, j, d, t, seed, spread):
    rng = np.random.default_rng(seed)
    model = dsc.GaussianMixtureModel(
        rng.dirichlet(np.ones(j)) if j > 1 else np.ones(1),
        rng.normal(0.0, 1.5, (j, d)), rng.uniform(0.3, 2.0, (j, d)),
    )
    z = spread * rng.standard_normal((32, d))
    ref, scale = tensor_form_score(model, sched, z, t)
    cache = {}
    got = gmm_score(model, sched, z, t, cache=cache)
    assert np.all(np.abs(got - ref) <= 1e-10 * scale)
    # the cached per-t terms give the same bits as freshly built ones
    assert np.array_equal(gmm_score(model, sched, z, t, cache=cache), got)
    assert list(cache) == [t]
    # one row alone: the same score within the tolerance (BLAS may add a
    # single row's dot products in another order than a batch's)
    assert np.all(np.abs(gmm_score(model, sched, z[0], t) - ref[0]) <= 1e-10 * scale[0])


def loop_form_score(model, sched, z, t):
    """Score through one pass per component over z, with gmm_score's own
    responsibilities: sum_j resp_j (mean_j - z) / var_j, added in component
    order.  Also returns sum_j resp_j (|mean_j| + |z|) / var_j, the size of
    the terms that a form splitting mean_j / var_j from z / var_j adds up."""
    terms = _ScoreTerms.at(model, sched, t)
    logp = (z * z) @ terms.neg_half_ivar + z @ terms.mean_ivar + terms.const
    resp = np.exp(logp - _logsumexp(logp)[..., None])
    mt = gmm_marginal(model, sched, t)
    score = np.zeros_like(z)
    scale = np.zeros_like(z)
    for j in range(model.n_components):
        score += (mt.means[j] - z) / mt.variances[j] * resp[..., j, None]
        scale += (np.abs(mt.means[j]) + np.abs(z)) / mt.variances[j] * resp[..., j, None]
    return score, scale


@settings(max_examples=80, deadline=None)
@given(j=st.integers(1, 5), d=st.integers(1, 16), t=st.integers(0, 1000),
       seed=st.integers(0, 2**32 - 1), spread=st.sampled_from([1.0, 10.0, 1e2]))
def test_score_matches_loop_form(sched, j, d, t, seed, spread):
    # far-from-mode probes make the responsibilities nearly one-hot, so one
    # component's terms dominate every row
    rng = np.random.default_rng(seed)
    model = dsc.GaussianMixtureModel(
        rng.dirichlet(np.ones(j)) if j > 1 else np.ones(1),
        rng.normal(0.0, 1.5, (j, d)), rng.uniform(0.3, 2.0, (j, d)),
    )
    z = spread * rng.standard_normal((16, d))
    ref, scale = loop_form_score(model, sched, z, t)
    assert np.all(np.abs(gmm_score(model, sched, z, t) - ref) <= 1e-12 * scale)
    ref0, scale0 = loop_form_score(model, sched, z[0], t)
    assert np.all(np.abs(gmm_score(model, sched, z[0], t) - ref0) <= 1e-12 * scale0)


@settings(max_examples=60, deadline=None)
@given(j=st.integers(1, 4), d=st.integers(1, 16), t=st.integers(0, 1000),
       seed=st.integers(0, 2**32 - 1), gap=st.sampled_from([1e-9, 1e-7, 1e-5]))
def test_score_next_to_a_mode_keeps_relative_accuracy(sched, j, d, t, seed, gap):
    # Probes a relative gap away from a component's mean, where the score is
    # small: forming mean/var and z/var separately and subtracting them
    # would leave an error of order eps * |mean| / var, far above the
    # tensor form's bound.
    rng = np.random.default_rng(seed)
    model = dsc.GaussianMixtureModel(
        rng.dirichlet(np.ones(j)) if j > 1 else np.ones(1),
        rng.normal(0.0, 1.5, (j, d)), rng.uniform(0.3, 2.0, (j, d)),
    )
    mt = gmm_marginal(model, sched, t)
    at = mt.means[rng.integers(0, j, 8)]
    z = at * (1.0 + gap * rng.standard_normal((8, d)))
    ref, scale = tensor_form_score(model, sched, z, t)
    assert np.all(np.abs(gmm_score(model, sched, z, t) - ref) <= 1e-10 * scale)


@settings(max_examples=100, deadline=None)
@given(j=st.integers(1, 6), lead=st.sampled_from([(), (7,), (3, 5)]),
       seed=st.integers(0, 2**32 - 1), spread=st.sampled_from([1.0, 50.0, 1e3]),
       offset=st.sampled_from([0.0, -1e3, 1e3]))
def test_logsumexp_matches_max_sum_form(j, lead, seed, spread, offset):
    # the max/sum reduction is the reference; far-from-mode values near
    # +-1e3 underflow exp unless the max shift is right
    a = offset + spread * np.random.default_rng(seed).standard_normal(lead + (j,))
    m = np.max(a, axis=-1, keepdims=True)
    ref = np.squeeze(m, axis=-1) + np.log(np.sum(np.exp(a - m), axis=-1))
    got = _logsumexp(a)
    assert np.shape(got) == lead
    assert np.array_equal(got, ref)


def test_score_rejects_bad_input(sched):
    # finiteness is the Latent's check, not the score's (see Denoiser)
    model = standard_normal_mixture(2)
    with pytest.raises(ParameterError):
        gmm_score(model, sched, np.zeros(3), 10)
    with pytest.raises(ParameterError):
        gmm_score(model, sched, np.zeros(2), 1001)
    with pytest.raises(ParameterError):
        gmm_score(model, sched, np.zeros(3), 10, cache={})
    with pytest.raises(ParameterError):
        dsc.GmmDenoiser(model, sched).predict(np.zeros(3), 10)


def test_eps_from_score(sched):
    assert np.all(dsc.eps_from_score(np.zeros(3), sched, 500) == 0.0)
    model = standard_normal_mixture(3)
    den = dsc.GmmDenoiser(model, sched)
    z = np.random.default_rng(11).standard_normal(3)
    for t in (1, 333, 1000):
        expected = np.sqrt(1 - sched.alpha_bars[t]) * z
        assert np.allclose(den.predict(z, t), expected, rtol=1e-12)


def test_eps_optimality_monte_carlo(sched):
    # the analytic predictor should beat the zero predictor on forward pairs
    rng = np.random.default_rng(12)
    model = dsc.GaussianMixtureModel(
        np.array([0.5, 0.5]), np.array([[1.5, -1.5], [-1.5, 1.5]]),
        np.full((2, 2), 0.4),
    )
    den = dsc.GmmDenoiser(model, sched)
    t = 300
    ab = sched.alpha_bars[t]
    z0 = dsc.gmm_sample(model, 20_000, rng)
    eps = rng.standard_normal(z0.shape)
    zt = np.sqrt(ab) * z0 + np.sqrt(1 - ab) * eps
    err_analytic = np.mean((den.predict(zt, t) - eps) ** 2)
    err_zero = np.mean(eps**2)
    assert err_analytic < err_zero


class CountingDenoiser(ConstantDenoiser):
    def __init__(self, value):
        super().__init__(value)
        self.calls = 0

    def predict(self, z, t):
        self.calls += 1
        return super().predict(z, t)


def test_one_predict_call_per_ddim_step(sched, plan50):
    # Every DDIM step is unconditional: one predict call per plan step, in
    # both folds.
    z0 = dsc.Latent(np.linspace(-1.0, 1.0, 8), 0)
    den = CountingDenoiser(np.full(8, 0.3))
    z = dsc.run_ddim_invert(sched, z0, plan50.ascending_steps(0, 5), den)
    assert den.calls == 5 and z.t == plan50.training_step(5)
    den.calls = 0
    dsc.run_ddim_sample(sched, z, plan50.descending_plan(5), den)
    assert den.calls == 5
