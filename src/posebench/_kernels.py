"""Hot numeric kernels, one numpy implementation each.

Each kernel is exact for its contract and deterministic: the Welford update
matches a two-pass mean/variance to rounding and the kNN distance is exact
k-nearest. Time them with benchmarks/bench_kernels.py.

kNN contract: a query's score is the mean of the square roots of its k
smallest exact squared distances ``((q - s) ** 2).sum()``, summed in
ascending order, so it equals a brute-force sort bit for bit. Candidates
are chosen by the expansion |q|^2 + |s|^2 - 2 q.s, whose distance to the
exact value is at most 4 (d + 3) eps (|q|^2 + max |s|^2). A row is
certified when its nearest left-out row, less that bound, is no nearer than
the k-th exact distance; a row that is not certified is scanned in full.
The exact rescoring gathers the candidates once and subtracts and squares
in place in that one buffer: the same operations in the same order as the
expression above, so the same bits.
"""

from __future__ import annotations

import numpy as np

# Candidates rescored exactly per query beyond the k needed.
_SLACK = 8
# Largest (queries, stored) expansion, or (queries, candidates, d) rescoring
# buffer, in float64 elements (32 MB); the rescoring works in that one buffer.
_BLOCK_ELEMENTS = 1 << 22


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


def knn_mean_distance(stored, queries, k):
    """Mean Euclidean distance from each query to its k nearest stored rows.

    Exact under the kNN contract above: one GEMM per query block picks
    ``k + _SLACK`` candidates, which are rescored exactly.
    """
    n, d = stored.shape
    c = min(n, k + _SLACK)
    sq_s = np.einsum("ij,ij->i", stored, stored)
    sq_q = np.einsum("ij,ij->i", queries, queries)
    # Bounds |expanded - exact| for every pair of the row, both sides rounded;
    # the subnormal term covers products that underflow.
    fp = np.finfo(np.float64)
    rounding = 4 * (d + 3) * (fp.eps * (sq_q + sq_s.max()) + fp.smallest_subnormal)
    block = max(1, _BLOCK_ELEMENTS // max(n, c * d))
    out = np.empty(queries.shape[0], dtype=np.float64)
    for s in range(0, queries.shape[0], block):
        q = queries[s : s + block]
        e2 = sq_q[s : s + block, None] + sq_s - 2.0 * (q @ stored.T)
        cand = np.argpartition(e2, c - 1, axis=1)[:, :c]
        buf = stored[cand]
        np.subtract(q[:, None, :], buf, out=buf)
        np.multiply(buf, buf, out=buf)
        d2 = buf.sum(axis=2)
        d2.sort(axis=1)
        kd = d2[:, :k]
        # Certificate: no row left out can be nearer than the k-th exact
        # distance. It fails on NaN, so an overflowed expansion falls back too.
        np.put_along_axis(e2, cand, np.inf, axis=1)
        floor = e2.min(axis=1) - rounding[s : s + block]
        for i in np.flatnonzero(~(floor >= kd[:, -1])):
            kd[i] = _exact_row(stored, q[i], k)
        out[s : s + block] = np.sqrt(kd).mean(axis=1)
    return out


def _exact_row(stored, query, k):
    """The k smallest exact squared distances from ``query``, ascending."""
    return np.sort(((query - stored) ** 2).sum(axis=1))[:k]


def active_path() -> str:
    """The kernel implementation in use; always 'numpy'."""
    return "numpy"
