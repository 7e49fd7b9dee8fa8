import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import diffsemcom as dsc
from diffsemcom import Reference
from diffsemcom.errors import DegenerateInputError, ParameterError
from diffsemcom.metrics import METRIC_SEED, _median_distance, _sq_dists, median_bandwidth


def _pooled_sq_dists(x, y):
    """Squared distances between all rows of the stacked batch [x; y]: the
    reference the blocked distances are checked against."""
    z = np.vstack([x, y])
    zz = np.sum(z * z, axis=1)
    gram = z @ z.T
    gram *= 2.0
    sq = zz[:, None] + zz[None, :]
    sq -= gram
    np.maximum(sq, 0.0, out=sq)
    return sq


def _pooled_median_distance(sq):
    med = float(np.median(np.sqrt(sq[np.triu_indices(sq.shape[0], k=1)])))
    return med if med > 0.0 else 1.0


def _pooled_mmd2(x, y, h):
    n, m = len(x), len(y)
    k = np.exp(_pooled_sq_dists(x, y) / (-2.0 * h * h))
    kxx, kyy = k[:n, :n].copy(), k[n:, n:].copy()
    np.fill_diagonal(kxx, 0.0)
    np.fill_diagonal(kyy, 0.0)
    return kxx.sum() / (n * (n - 1)) + kyy.sum() / (m * (m - 1)) - 2.0 * k[:n, n:].mean()


def test_mse_trivial():
    a = np.random.default_rng(80).standard_normal((5, 3))
    assert dsc.mse(a, a) == 0.0
    assert dsc.mse(np.zeros((2, 4)), np.ones((2, 4))) == 1.0


def test_mse_naive_loop_oracle():
    rng = np.random.default_rng(81)
    a = rng.standard_normal((6, 4))
    b = rng.standard_normal((6, 4))
    total = 0.0
    for i in range(6):
        for j in range(4):
            total += (a[i, j] - b[i, j]) ** 2
    assert dsc.mse(a, b) == pytest.approx(total / 24.0, rel=1e-12)


def test_mse_shape_mismatch():
    with pytest.raises(ParameterError):
        dsc.mse(np.zeros((2, 3)), np.zeros((3, 2)))


def test_mse_constant_shift():
    rng = np.random.default_rng(82)
    x = rng.standard_normal((10, 5))
    for c in (0.5, 2.0):
        assert dsc.mse(x, x + c) == pytest.approx(c * c, rel=1e-12)


def test_sliced_w2_identical_batches():
    x = np.random.default_rng(83).standard_normal((100, 4))
    assert dsc.sliced_w2(Reference(x), Reference(x.copy())) == 0.0


def test_sliced_w2_1d_sort_oracle():
    rng = np.random.default_rng(84)
    x = rng.standard_normal((200, 1))
    y = rng.standard_normal((200, 1))
    got = dsc.sliced_w2(Reference(x), Reference(y))
    oracle = np.sqrt(np.mean((np.sort(x[:, 0]) - np.sort(y[:, 0])) ** 2))
    assert got == pytest.approx(oracle, rel=1e-12)


def test_sliced_w2_gaussian_shift():
    rng = np.random.default_rng(85)
    m = 2.0
    x = rng.standard_normal((10_000, 1))
    y = rng.standard_normal((10_000, 1)) + m
    got = dsc.sliced_w2(Reference(x), Reference(y))
    assert abs(got - m) / m < 0.1


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 60), d=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
def test_sliced_w2_symmetry(n, d, seed):
    # the distance does not depend on which batch is measured against
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, d))
    y = rng.standard_normal((n, d)) * 1.5
    a = dsc.sliced_w2(Reference(x), Reference(y))
    b = dsc.sliced_w2(Reference(y), Reference(x))
    assert a == pytest.approx(b, rel=1e-12)


def test_sliced_w2_validation():
    with pytest.raises(ParameterError, match="non-empty"):
        dsc.sliced_w2(Reference(np.empty((0, 2))), Reference(np.empty((0, 2))))
    with pytest.raises(ParameterError, match="dimension mismatch"):
        dsc.sliced_w2(Reference(np.zeros((4, 2))), Reference(np.zeros((4, 3))))
    with pytest.raises(ParameterError, match="equal batch sizes"):
        dsc.sliced_w2(Reference(np.zeros((4, 2))), Reference(np.zeros((5, 2))))


def test_mmd2_kernel_self_is_one():
    x = np.array([[0.3, -0.7]])
    # k(a, a) = exp(0) = 1; check through the pairwise path via two copies
    d2 = np.sum((x - x) ** 2)
    assert np.exp(-d2) == 1.0


def test_mmd2_naive_loop_oracle():
    rng = np.random.default_rng(88)
    x = rng.standard_normal((8, 3))
    y = rng.standard_normal((10, 3))
    h = 0.9
    got = dsc.mmd2_unbiased(Reference(x), Reference(y), bandwidth=h)

    def k(a, b):
        return np.exp(-np.sum((a - b) ** 2) / (2 * h * h))

    xx = sum(k(x[i], x[j]) for i in range(8) for j in range(8) if i != j) / (8 * 7)
    yy = sum(k(y[i], y[j]) for i in range(10) for j in range(10) if i != j) / (10 * 9)
    xy = sum(k(x[i], y[j]) for i in range(8) for j in range(10)) / 80
    assert got == pytest.approx(xx + yy - 2 * xy, rel=1e-12)


def test_mmd2_null_distribution_small():
    n = 1000
    count_ok = 0
    for seed in range(20):
        rng = dsc.stream(seed, 89)
        x = rng.standard_normal((n, 2))
        y = rng.standard_normal((n, 2))
        if abs(dsc.mmd2_unbiased(Reference(x), Reference(y))) < 5.0 / n:
            count_ok += 1
    assert count_ok == 20


@settings(max_examples=40, deadline=None)
@given(n=st.integers(16, 40), m=st.integers(16, 40), d=st.integers(1, 6),
       seed=st.integers(0, 2**32 - 1))
def test_mmd2_symmetry_and_validation(n, m, d, seed):
    # at least 16 rows a side keep the shifted batches' MMD^2 away from 0,
    # where a last-bit difference in the xy block would exceed rel=1e-12
    rng = np.random.default_rng(seed)
    x = Reference(rng.standard_normal((n, d)))
    y = Reference(rng.standard_normal((m, d)) + 1.0)
    assert dsc.mmd2_unbiased(x, y, 1.0) == pytest.approx(
        dsc.mmd2_unbiased(y, x, 1.0), rel=1e-12
    )
    with pytest.raises(ParameterError, match="at least 2 samples"):
        dsc.mmd2_unbiased(Reference(x.batch[:1]), y, 1.0)
    with pytest.raises(ParameterError, match="dimension mismatch"):
        dsc.mmd2_unbiased(x, Reference(np.zeros((m, d + 1))), 1.0)
    for bad in (-1.0, np.nan, np.inf):
        with pytest.raises(ParameterError, match="bandwidth"):
            dsc.mmd2_unbiased(x, y, bad)


@settings(max_examples=30, deadline=None)
@given(n=st.integers(2, 8), m=st.integers(2, 8), d=st.integers(1, 4),
       bandwidth=st.one_of(st.none(), st.floats(0.2, 5.0)), seed=st.integers(0, 2**32 - 1))
def test_mmd2_zero_mean_under_null(n, m, d, bandwidth, seed):
    # Unbiased (Gretton et al. 2012): E[MMD^2] = 0 when x and y share a law.
    # The median bandwidth depends on the pooled batch only, and over random
    # splits of a fixed pooled batch into x and y the U-statistic averages
    # to 0, so that bandwidth keeps the mean at 0 too.
    rng = np.random.default_rng(seed)
    draws = np.array([
        dsc.mmd2_unbiased(Reference(rng.standard_normal((n, d))),
                          Reference(rng.standard_normal((m, d))), bandwidth)
        for _ in range(200)
    ])
    assert abs(draws.mean()) <= 4.0 * draws.std(ddof=1) / np.sqrt(draws.size)
    assert draws.min() < 0.0


def test_median_bandwidth_positive():
    rng = np.random.default_rng(91)
    x = rng.standard_normal((30, 4))
    y = rng.standard_normal((30, 4))
    assert median_bandwidth(x, y) > 0


@settings(max_examples=80, deadline=None)
@given(n=st.integers(2, 40), d=st.integers(1, 6), seed=st.integers(0, 2**32 - 1),
       grid=st.booleans())
def test_median_distance_matches_np_median(n, d, seed, grid):
    # n rows give n (n - 1) / 2 pairs: odd and even counts both occur; a
    # rounded grid adds tied distances
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n, d)) * rng.uniform(0.1, 10.0)
    if grid:
        z = np.round(z)
    x, y = Reference(z[: n // 2]), Reference(z[n // 2:])
    # the oracle takes the same block distances: a pooled Gram product may
    # round a distance in another last bit (see the blocked-vs-pooled test)
    sq_xx, sq_yy = x.sq_dists, y.sq_dists
    sq_xy = _sq_dists(x.batch, x.norms, y.batch, y.norms)
    pooled = np.block([[sq_xx, sq_xy], [sq_xy.T, sq_yy]])
    assert _median_distance(sq_xx, sq_yy, sq_xy) == _pooled_median_distance(pooled)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])  # 0, 1, 3, 6 and 10 pairs
def test_median_distance_all_zero_is_one(n):
    k = n // 2
    assert _median_distance(np.zeros((k, k)), np.zeros((n - k, n - k)),
                            np.zeros((k, n - k))) == 1.0
    assert median_bandwidth(np.ones((n, 2)), np.ones((1, 2))) == 1.0


@settings(max_examples=120, deadline=None)
@given(n=st.integers(2, 40), m=st.integers(2, 40), d=st.integers(1, 8),
       seed=st.integers(0, 2**32 - 1), scale=st.sampled_from([0.1, 1.0, 10.0]),
       grid=st.booleans())
def test_blocked_distances_match_pooled_reference(n, m, d, seed, scale, grid):
    # The blocks come from their own matmuls, so BLAS may add a dot product
    # in another order than the pooled one: equal within 1e-12, not in bits.
    # A rounded grid adds tied and zero distances.
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, d)) * scale
    y = rng.standard_normal((m, d)) * scale + rng.uniform(-1.0, 1.0)
    if grid:
        x, y = np.round(x), np.round(y)
    h = _pooled_median_distance(_pooled_sq_dists(x, y))
    assert abs(median_bandwidth(x, y) - h) <= 1e-12
    assert abs(dsc.mmd2_unbiased(Reference(x), Reference(y)) - _pooled_mmd2(x, y, h)) <= 1e-12


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_metrics_reject_non_finite(bad):
    # a batch is checked once, when it is wrapped: every kernel reads it
    # through a Reference, metric_report wraps its decoded batch, and
    # median_bandwidth wraps both of its own
    rng = np.random.default_rng(93)
    x = rng.standard_normal((16, 3))
    y = rng.standard_normal((16, 3))
    x_bad = x.copy()
    x_bad[4, 1] = bad
    with pytest.raises(ParameterError, match="batches must be finite"):
        Reference(x_bad)
    with pytest.raises(ParameterError, match="batches must be finite"):
        dsc.metric_report(x_bad, Reference(y))
    for a, b in ((x_bad, y), (y, x_bad)):
        with pytest.raises(ParameterError, match="batches must be finite"):
            median_bandwidth(a, b)


def test_reference_metrics_match_plain_batches_bit_for_bit():
    # a Reference's cached terms are the ones each metric computes from a
    # fresh wrap of the plain batch, and measuring against it leaves them
    # unchanged
    rng = np.random.default_rng(96)
    y = rng.standard_normal((32, 6))
    ref = Reference(y)
    for shift in (0.1, 0.5, 0.1):
        x = y + shift * rng.standard_normal(y.shape)
        assert dsc.sliced_w2(Reference(x), ref) == dsc.sliced_w2(Reference(x), Reference(y))
        assert dsc.mmd2_unbiased(Reference(x), ref) == dsc.mmd2_unbiased(Reference(x), Reference(y))
        report = dsc.metric_report(x, ref)
        assert dsc.metric_report(x, Reference(y)) == report
        assert report.sw2 == dsc.sliced_w2(Reference(x), Reference(y))
        assert report.mmd2 == dsc.mmd2_unbiased(Reference(x), Reference(y))


@pytest.mark.parametrize("n, d", [(32, 6), (256, 64), (40, 1)])
def test_metric_report_sw2_matches_plain_numpy(n, d):
    # the sliced-W2 directions are 128 standard normal draws from
    # METRIC_SEED, each scaled to unit length
    rng = np.random.default_rng(97)
    x, y = rng.standard_normal((n, d)), rng.standard_normal((n, d)) + 0.3
    dirs = np.random.default_rng(METRIC_SEED).standard_normal((128, d))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    px, py = np.sort(x @ dirs.T, axis=0), np.sort(y @ dirs.T, axis=0)
    assert dsc.metric_report(x, Reference(y)).sw2 == float(np.sqrt(np.mean((px - py) ** 2)))


def test_metric_report_fields():
    rng = np.random.default_rng(92)
    src = rng.standard_normal((64, 4))
    rep = dsc.metric_report(src + 0.1, Reference(src))
    assert rep.mse == pytest.approx(0.01, rel=1e-10)
    assert rep.nmse == pytest.approx(rep.mse / np.mean(np.var(src, axis=0)), rel=1e-10)
    assert rep.sw2 >= 0.0


def test_metric_report_rejects_non_finite_metric():
    # an nmse over a source batch of zero variance, and squared projections
    # that overflow, are errors that name the metric
    src = np.ones((8, 4))
    with pytest.raises(DegenerateInputError, match="metric nmse is not finite"):
        dsc.metric_report(src + 0.1, Reference(src))
    rng = np.random.default_rng(95)
    far = 1e153 + 1e140 * rng.standard_normal((8, 4))
    with pytest.raises(DegenerateInputError, match="metric sw2 is not finite"):
        dsc.metric_report(rng.standard_normal((8, 4)), Reference(far))
