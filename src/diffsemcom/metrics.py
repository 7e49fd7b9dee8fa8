"""Vector-space distortion and distribution metrics.

mse/nmse play the distortion role, sliced 2-Wasserstein and unbiased MMD^2
the distribution role.  Both distribution estimators take explicit
randomness (projection directions) or none (MMD), so reported numbers are
reproducible.

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


def sliced_w2(x, y, n_projections, rng) -> float:
    """Sliced 2-Wasserstein distance between two equal-size sample batches.

    Averages, over random unit directions, the squared 1-D distance between
    sorted projections, then takes the square root.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.atleast_2d(np.asarray(y, dtype=float))
    if x.size == 0 or y.size == 0:
        raise ParameterError("batches must be non-empty")
    if x.shape[1] != y.shape[1]:
        raise ParameterError(f"dimension mismatch: {x.shape[1]} vs {y.shape[1]}")
    if x.shape[0] != y.shape[0]:
        raise ParameterError(
            f"sorted-projection pairing needs equal batch sizes, got {x.shape[0]} vs {y.shape[0]}"
        )
    if n_projections < 1:
        raise ParameterError(f"need at least one projection, got {n_projections}")
    _require_finite(x, y)
    d = x.shape[1]
    dirs = rng.standard_normal((int(n_projections), d))
    norms = np.linalg.norm(dirs, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    dirs /= norms
    px = np.sort(x @ dirs.T, axis=0)
    py = np.sort(y @ dirs.T, axis=0)
    return float(np.sqrt(np.mean((px - py) ** 2)))


def median_bandwidth(x, y) -> float:
    """Median pairwise distance over the pooled batch (bandwidth heuristic)."""
    x, y = np.atleast_2d(x), np.atleast_2d(y)
    _require_finite(x, y)
    return _median_distance(*_block_sq_dists(x, y))


def _block_sq_dists(x, y):
    """Squared distances within x, within y and from x to y."""
    xn = np.sum(x * x, axis=1)
    yn = np.sum(y * y, axis=1)
    return _sq_dists(x, xn, x, xn), _sq_dists(y, yn, y, yn), _sq_dists(x, xn, y, yn)


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


def _require_finite(*batches):
    """Reject NaN or inf: a partition-taken median would skip it silently."""
    for batch in batches:
        if not np.all(np.isfinite(batch)):
            raise ParameterError("batches must be finite")


def mmd2_unbiased(x, y, bandwidth=None) -> float:
    """Unbiased squared MMD with a Gaussian kernel exp(-||a-b||^2 / 2h^2).

    U-statistic form; can be slightly negative under the null by
    construction.  bandwidth=None uses the pooled median heuristic.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.atleast_2d(np.asarray(y, dtype=float))
    n, m = x.shape[0], y.shape[0]
    if n < 2 or m < 2:
        raise ParameterError(f"need at least 2 samples per batch, got {n} and {m}")
    if x.shape[1] != y.shape[1]:
        raise ParameterError(f"dimension mismatch: {x.shape[1]} vs {y.shape[1]}")
    _require_finite(x, y)
    blocks = _block_sq_dists(x, y)
    if bandwidth is None:
        bandwidth = _median_distance(*blocks)
    if not (bandwidth > 0 and np.isfinite(bandwidth)):
        raise ParameterError(f"bandwidth must be positive and finite, got {bandwidth}")
    neg_h2 = -2.0 * bandwidth * bandwidth
    # Each block is fresh and contiguous: its sum adds in a fixed order.
    for block in blocks:
        np.divide(block, neg_h2, out=block)
        np.exp(block, out=block)
    kxx, kyy, kxy = blocks
    np.fill_diagonal(kxx, 0.0)
    np.fill_diagonal(kyy, 0.0)
    return float(
        kxx.sum() / (n * (n - 1)) + kyy.sum() / (m * (m - 1)) - 2.0 * kxy.mean()
    )


def metric_report(decoded, source_batch, rng) -> MetricReport:
    """Distortion + distribution metrics of a decoded batch against its source:
    sw2 over 128 projections, MMD^2 at the median-heuristic bandwidth.  A metric
    that is not finite (an overflow, or an nmse over a source batch of zero
    variance) raises DegenerateInputError, whatever the warnings filter."""
    with np.errstate(all="ignore"):
        m = mse(decoded, source_batch)
        report = MetricReport(mse=m, nmse=float(m / np.mean(np.var(source_batch, axis=0))),
                              sw2=sliced_w2(decoded, source_batch, 128, rng),
                              mmd2=mmd2_unbiased(decoded, source_batch))
    for name, value in vars(report).items():
        if not np.isfinite(value):
            raise DegenerateInputError(f"metric {name} is not finite ({value})")
    return report
