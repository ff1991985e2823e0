"""Hot numeric kernels, one numpy implementation each.

Each kernel is exact for its contract and deterministic: the Welford update
matches a two-pass mean/variance to rounding, the kNN distance is exact
k-nearest, and the IoU maximum matches a pairwise scan. Time them with
benchmarks/bench_kernels.py.
"""

from __future__ import annotations

import numpy as np


def welford_update(count, mean, m2, batch):
    """Fold ``batch`` rows into a running (count, mean, m2); returns the new count.

    Sequential per-row update; ``mean`` and ``m2`` are modified in place.
    """
    c = count
    for i in range(batch.shape[0]):
        c += 1
        delta = batch[i] - mean
        mean += delta / c
        m2 += delta * (batch[i] - mean)
    return c


def knn_mean_distance(stored, queries, k, chunk=None):
    """Mean Euclidean distance from each query to its k nearest stored rows.

    Queries are processed in chunks sized so the (chunk, n, d) difference
    temporary stays around 256 MB regardless of how many rows are stored.
    """
    m = queries.shape[0]
    if chunk is None:
        per_query = max(1, stored.shape[0] * stored.shape[1])
        chunk = min(512, max(1, 32_000_000 // per_query))
    out = np.empty(m, dtype=np.float64)
    for s in range(0, m, chunk):
        q = queries[s : s + chunk]
        d2 = ((q[:, None, :] - stored[None, :, :]) ** 2).sum(axis=2)
        kd = np.partition(d2, k - 1, axis=1)[:, :k]
        out[s : s + chunk] = np.sqrt(kd).mean(axis=1)
    return out


def max_iou_per_group(boxes, offsets):
    """Per-group max pairwise IoU; groups with fewer than 2 boxes give 0."""
    n_groups = offsets.shape[0] - 1
    out = np.zeros(n_groups, dtype=np.float64)
    for g in range(n_groups):
        bb = boxes[offsets[g] : offsets[g + 1]]
        n = bb.shape[0]
        if n < 2:
            continue
        x1 = np.maximum(bb[:, None, 0], bb[None, :, 0])
        y1 = np.maximum(bb[:, None, 1], bb[None, :, 1])
        x2 = np.minimum(bb[:, None, 2], bb[None, :, 2])
        y2 = np.minimum(bb[:, None, 3], bb[None, :, 3])
        inter = np.clip(x2 - x1, 0.0, None) * np.clip(y2 - y1, 0.0, None)
        area = (bb[:, 2] - bb[:, 0]) * (bb[:, 3] - bb[:, 1])
        union = area[:, None] + area[None, :] - inter
        iou = np.where(union > 0.0, inter / np.where(union > 0.0, union, 1.0), 0.0)
        np.fill_diagonal(iou, 0.0)
        out[g] = iou.max()
    return out


def active_path() -> str:
    """The kernel implementation in use; always 'numpy'."""
    return "numpy"
