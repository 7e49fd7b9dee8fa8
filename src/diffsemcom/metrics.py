"""Vector-space distortion and distribution metrics.

mse/nmse play the distortion role, sliced 2-Wasserstein and unbiased MMD^2
the distribution role.  Both distribution estimators take two References,
finite batches checked once when wrapped.  Sliced W2 projects on fixed
directions drawn from METRIC_SEED and the MMD draws nothing, so reported
numbers are reproducible.

The MMD and its median-heuristic bandwidth read three blocks of squared
distances: within x, within y and from x to y.  The pooled matrix of the
stacked batch [x; y] is never formed, as its yx block would only repeat xy.
The median runs over the pairs above the pooled matrix's diagonal: the upper
triangles of the xx and yy blocks and all of the xy block.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError, ParameterError

# The projections of sliced_w2, and the seed of their directions, fixed so
# that identical runs report identical metrics.
SW2_PROJECTIONS = 128
METRIC_SEED = 20318


@dataclass(frozen=True)
class MetricReport:
    mse: float
    nmse: float
    sw2: float
    mmd2: float


def mse(a, b) -> float:
    """Mean squared componentwise difference."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ParameterError(f"shape mismatch: {a.shape} vs {b.shape}")
    return float(np.mean((a - b) ** 2))


@functools.lru_cache(maxsize=8)
def _metric_dirs(d):
    """The SW2_PROJECTIONS unit directions in R^d of sliced_w2, one per row,
    drawn from METRIC_SEED (shared, so read-only)."""
    dirs = np.random.default_rng(METRIC_SEED).standard_normal((SW2_PROJECTIONS, d))
    norms = np.linalg.norm(dirs, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    dirs /= norms
    dirs.flags.writeable = False
    return dirs


class Reference:
    """A finite batch that is measured or measured against (a grid seed's
    source batch, or a decoded batch), with the terms of it alone that the
    metrics read, each computed on first use: its variance (nmse's
    denominator), its sorted projections on the sliced_w2 directions, its
    squared row norms and its within-batch squared distances (the MMD's)."""

    def __init__(self, batch):
        self.batch = np.atleast_2d(np.asarray(batch, dtype=float))
        # rejected here, as a partition-taken median would skip it silently
        if not np.all(np.isfinite(self.batch)):
            raise ParameterError("batches must be finite")

    @functools.cached_property
    def variance(self):
        return np.mean(np.var(self.batch, axis=0))

    @functools.cached_property
    def projections(self):
        return np.sort(self.batch @ _metric_dirs(self.batch.shape[1]).T, axis=0)

    @functools.cached_property
    def norms(self):
        return np.sum(self.batch * self.batch, axis=1)

    @functools.cached_property
    def sq_dists(self):
        return _sq_dists(self.batch, self.norms, self.batch, self.norms)


def sliced_w2(x: Reference, y: Reference) -> float:
    """Sliced 2-Wasserstein distance between two equal-size sample batches.

    Averages, over the SW2_PROJECTIONS fixed unit directions, the squared
    1-D distance between sorted projections, then takes the square root.
    y's projections are its cached ones; x's are a temporary.
    """
    if x.batch.size == 0 or y.batch.size == 0:
        raise ParameterError("batches must be non-empty")
    (n, d), (m, e) = x.batch.shape, y.batch.shape
    if d != e:
        raise ParameterError(f"dimension mismatch: {d} vs {e}")
    if n != m:
        raise ParameterError(f"sorted-projection pairing needs equal batch sizes, got {n} vs {m}")
    px = np.sort(x.batch @ _metric_dirs(d).T, axis=0)
    return float(np.sqrt(np.mean((px - y.projections) ** 2)))


def median_bandwidth(x, y) -> float:
    """Median pairwise distance over the pooled batch (bandwidth heuristic)."""
    x, y = Reference(x), Reference(y)
    return _median_distance(x.sq_dists, y.sq_dists, _sq_dists(x.batch, x.norms, y.batch, y.norms))


def _sq_dists(a, an, b, bn):
    """Squared distances between the rows of a and b, given their squared norms."""
    gram = a @ b.T  # when b is a, numpy computes the symmetric product
    gram *= 2.0
    sq = an[:, None] + bn[None, :]
    sq -= gram
    np.maximum(sq, 0.0, out=sq)
    return sq


@functools.lru_cache(maxsize=16)
def _upper_flat(n):
    """Flat indices of the entries above the diagonal of an n x n matrix
    (read-only: every caller gets the same array)."""
    i, j = np.triu_indices(n, k=1)
    flat = i * n + j
    flat.flags.writeable = False
    return flat


def _median_distance(sxx, syy, sxy):
    """Median distance over the pooled pairs (1.0 if it is 0): the upper
    triangles of sxx and syy and all of sxy.

    sqrt is monotone, so the median distance is the mean of the roots of the
    one or two middle squared distances, as np.median takes it.  One
    partial sort finds the upper middle value; the lower one (even count)
    is the largest value below it.
    """
    pairs = np.concatenate(
        (sxx.take(_upper_flat(sxx.shape[0])), syy.take(_upper_flat(syy.shape[0])), sxy.ravel())
    )
    if pairs.size == 0:
        return 1.0
    hi = pairs.size // 2
    pairs.partition(hi)
    middle = pairs[hi] if pairs.size % 2 else (pairs[:hi].max(), pairs[hi])
    med = float(np.mean(np.sqrt(middle)))
    return med if med > 0.0 else 1.0


def mmd2_unbiased(x: Reference, y: Reference, bandwidth=None) -> float:
    """Unbiased squared MMD with a Gaussian kernel exp(-||a-b||^2 / 2h^2).

    U-statistic form; can be slightly negative under the null by
    construction.  bandwidth=None uses the pooled median heuristic.  y's
    within-batch distances are kept and not overwritten.
    """
    (n, d), (m, e) = x.batch.shape, y.batch.shape
    if n < 2 or m < 2:
        raise ParameterError(f"need at least 2 samples per batch, got {n} and {m}")
    if d != e:
        raise ParameterError(f"dimension mismatch: {d} vs {e}")
    sxx = _sq_dists(x.batch, x.norms, x.batch, x.norms)
    sxy = _sq_dists(x.batch, x.norms, y.batch, y.norms)
    if bandwidth is None:
        bandwidth = _median_distance(sxx, y.sq_dists, sxy)
    if not (bandwidth > 0 and np.isfinite(bandwidth)):
        raise ParameterError(f"bandwidth must be positive and finite, got {bandwidth}")
    neg_h2 = -2.0 * bandwidth * bandwidth
    # Each block is fresh and contiguous: its sum adds in a fixed order.  The
    # yy block is a copy, as the reference keeps its distances.
    kxx = np.divide(sxx, neg_h2, out=sxx)
    kxy = np.divide(sxy, neg_h2, out=sxy)
    kyy = np.divide(y.sq_dists, neg_h2)
    for block in (kxx, kyy, kxy):
        np.exp(block, out=block)
    np.fill_diagonal(kxx, 0.0)
    np.fill_diagonal(kyy, 0.0)
    return float(
        kxx.sum() / (n * (n - 1)) + kyy.sum() / (m * (m - 1)) - 2.0 * kxy.mean()
    )


def metric_report(decoded, source: Reference) -> MetricReport:
    """Distortion + distribution metrics of a decoded batch against its
    source: sw2 over the fixed directions, MMD^2 at the median-heuristic
    bandwidth.  A non-finite decoded batch raises ParameterError; a metric
    that is not finite (an overflow, or an nmse over a source batch of zero
    variance) raises DegenerateInputError, whatever the warnings filter."""
    decoded = Reference(decoded)
    with np.errstate(all="ignore"):
        m = mse(decoded.batch, source.batch)
        report = MetricReport(mse=m, nmse=float(m / source.variance),
                              sw2=sliced_w2(decoded, source), mmd2=mmd2_unbiased(decoded, source))
    for name, value in vars(report).items():
        if not np.isfinite(value):
            raise DegenerateInputError(f"metric {name} is not finite ({value})")
    return report
