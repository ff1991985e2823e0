"""Hot numeric kernels, one numpy implementation each.

Each kernel is exact for its contract and deterministic: the Welford update
matches a two-pass mean/variance to rounding and the kNN distance is exact
k-nearest. Time them with benchmarks/bench_kernels.py.

kNN contract: a query's score is the mean of the square roots of its k
smallest exact squared distances ``((q - s) ** 2).sum()``, summed in
ascending order, so it equals a brute-force sort bit for bit.
``knn_k_smallest`` returns those k distances, and it can merge them with a
prior: the k smallest over an earlier set of rows. The k smallest over the
union of two row sets are the k smallest of the two per-set lists, and each
distance is the same exact value whichever scan computes it, so a merged
result equals a fresh scan over every row, bit for bit.

Candidates are chosen by the expansion |q|^2 + |s|^2 - 2 q.s, whose distance
to the exact value is at most 4 (d + 3) eps (|q|^2 + max |s|^2). The
expansion less that bound is a lower bound on a pair's exact distance. Each
query gets an upper bound on its k-th distance: the smaller of the prior's
k-th (when the prior holds k rows) and the k-th smallest expansion plus the
bound (when ``stored`` holds k rows), else infinity. Every pair whose lower
bound does not exceed it is rescored exactly, and the rest cannot reach the
k smallest. A query far from the origin relative to the spread of the data
(a large common offset), or an expansion that overflows to NaN, leaves
every pair of that query a candidate: the certificate falls back to a full
scan. The rescoring subtracts, squares and sums row by row: the same
operations in the same order as the expression above, so the same bits.

Working set of one call, per block of at most ``_BLOCK_ELEMENTS`` (2^22)
query x row pairs: the expansion block and one copy of it to find the k-th
smallest, a bool mask of the block, a few integers and a distance per
candidate pair plus the merge rows, and the rescoring gathers of at most
``_RESCORE_ELEMENTS`` (2^16) float64 values each, one of query rows and one
of stored rows.
"""

from __future__ import annotations

import numpy as np

# Largest (queries, stored) expansion block in float64 elements (32 MB): one GEMM per block.
_BLOCK_ELEMENTS = 1 << 22
# Largest gather of query or stored rows for the exact rescoring, in float64 elements
# (512 KB): a chunk that stays in cache rescores faster than a larger one.
_RESCORE_ELEMENTS = 1 << 16


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


def knn_k_smallest(stored, queries, k, prior=None):
    """Each query's k smallest exact squared distances, ascending, over ``prior``'s rows and ``stored``.

    ``prior`` (m, p) is an earlier result for the same queries and k over other
    rows (p = min(k, rows covered)); None stands for no rows. Returns
    (m, min(k, p + len(stored))), exact under the kNN contract above: one GEMM
    per query block bounds every pair, and the pairs that could enter the k
    smallest are rescored exactly and merged with the prior.
    """
    m, (n, d) = queries.shape[0], stored.shape
    p = 0 if prior is None else prior.shape[1]
    width = min(k, p + n)
    if n == 0:
        return np.empty((m, 0)) if prior is None else prior[:, :width].copy()
    sq_s = np.einsum("ij,ij->i", stored, stored)
    sq_q = np.einsum("ij,ij->i", queries, queries)
    # Bounds |expanded - exact| for every pair of the row, both sides rounded;
    # the subnormal term covers products that underflow.
    fp = np.finfo(np.float64)
    rounding = 4 * (d + 3) * (fp.eps * (sq_q + sq_s.max()) + fp.smallest_subnormal)
    block = max(1, _BLOCK_ELEMENTS // n)
    out = np.empty((m, width))
    for s in range(0, m, block):
        q, r = queries[s : s + block], rounding[s : s + block]
        low = q @ stored.T
        low *= -2.0
        low += sq_q[s : s + block, None]
        low += sq_s
        low -= r[:, None]
        limit = np.partition(low, k - 1, axis=1)[:, k - 1] + 2 * r if n >= k else np.full(len(q), np.inf)
        if p >= k:
            limit = np.fmin(limit, prior[s : s + block, k - 1])
        # A pair is left out only when its lower bound exceeds the limit; NaN keeps it.
        qi, sj = np.divmod(np.flatnonzero(~(low > limit[:, None])), n)
        del low
        counts = np.bincount(qi, minlength=len(q))
        merged = np.full((len(q), p + counts.max()), np.inf)
        if p:
            merged[:, :p] = prior[s : s + block]
        rank = np.arange(len(qi)) - (np.cumsum(counts) - counts)[qi]  # each pair's place among its query's
        merged[qi, p + rank] = _rescore(q, stored, qi, sj)
        merged.sort(axis=1)
        out[s : s + block] = merged[:, :width]
    return out


def knn_mean_distance(stored, queries, k):
    """Mean Euclidean distance from each query to its k nearest stored rows: a fresh scan."""
    return np.sqrt(knn_k_smallest(stored, queries, k)).mean(axis=1)


def _rescore(queries, stored, qi, sj):
    """Exact ``((q - s) ** 2).sum()`` of each (query, stored) index pair, a bounded chunk at a time."""
    d2 = np.empty(len(qi))
    step = max(1, _RESCORE_ELEMENTS // stored.shape[1])
    for a in range(0, len(qi), step):
        diff = queries[qi[a : a + step]]
        diff -= stored[sj[a : a + step]]
        diff *= diff
        d2[a : a + step] = diff.sum(axis=1)
    return d2


def active_path() -> str:
    """The kernel implementation in use; always 'numpy'."""
    return "numpy"
