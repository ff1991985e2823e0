"""Hot numeric kernels, one numpy implementation each.

Each kernel is exact for its contract and deterministic: the Welford update
matches a two-pass mean/variance to rounding and the kNN distance is exact
k-nearest. Time them with benchmarks/bench_kernels.py.

kNN contract: a query's score is the mean of the square roots of its k
smallest exact squared distances ``((q - s) ** 2).sum()``, summed in
ascending order, so it equals a brute-force sort bit for bit.
``knn_k_smallest`` returns those k distances, and it can merge them with a
prior: the k smallest over an earlier set of windows. The k smallest over
the union of two sets are the k smallest of the two per-set lists, and each
distance is the same exact value whichever scan computes it, so a merged
result equals a fresh scan over every window, bit for bit.

Queries and stored vectors are windows over pose rows, as the knn scorer
holds them: window i of ``(rows, index)`` is ``rows[index[i]]`` flattened,
d = L w values for an (n, L) index over (P, w) rows.

Candidates are chosen by a centred float32 filter. ``knn_queries`` fixes one
centre c per query batch, the mean of the rows its windows use, and keeps
each query centred and rounded once, q~ = fl32(fl64(q - c)); a call gathers
its stored windows the same way, s~, from one float32 table of their centred
rows, and one float32 GEMM per block of queries gives the expansion
E = |q~|^2 + |s~|^2 - 2 q~.s~ (the norms summed in float64, then rounded).
With e = 2^-23 (float32's epsilon, twice its unit roundoff) and t = 2^-149
(its smallest subnormal), two margins bound a pair's distance from E:

- Rows, in distance. Rounding moves each centred value by at most e times
  itself, or by t once it underflows, so |q~ - (q - c)| <= e |q~| + sqrt(d) t
  and likewise for s. By the triangle inequality the real distance
  r = |q - s| lies within D = e (|q~| + |s~|) + 2 sqrt(d) t of |q~ - s~|;
  taken in squared distance this margin would grow with |q - c|^2.
- Expansion, in squared distance. E sums d + 2 terms, the d products
  doubled and the two norms, rounded in float32 in whatever order BLAS
  adds them, so |E - |q~ - s~|^2| <= G = g (|q~| + |s~|)^2 + (d + 2) t,
  with g = gamma_{d+2} = (d + 2) e / (1 - (d + 2) e) (Higham, Accuracy and
  Stability of Numerical Algorithms, 2002, ch. 3: any summation order); the
  t term covers products that underflow.

So sqrt(max(E - G, 0)) - D <= r <= sqrt(E + G) + D. The rescored value
V = fl64(sum (q_i - s_i)^2) sums d nonnegative terms, so it lies within
r^2 (1 +- h) +- d 2^-1074, h = gamma_{d+8} in float64 (eight more terms
than the sum needs, for the few float64 operations that evaluate these
bounds; 2^-1074 for squares that underflow). Each query's margins take the
largest |s~| of the call. A query's limit is the smaller of the prior's k-th
distance (when the prior holds k windows) and the bound on V implied by the
call's k-th smallest E (when the call holds k windows), else infinity; a
pair is rescored unless its E exceeds the threshold on E that the limit
implies, rounded up to float32, and the rest cannot reach the k smallest.
The certificate fails, and every pair of the query is rescored as in a
float64 full scan, when a value is not finite, when (|q~| + max |s~|)^2
reaches half of float32's range (so E could overflow), or when the
threshold keeps every pair. The centre only changes which pairs are
rescored, never a distance. Rescoring gathers each candidate pair's float64
rows into (chunk, d) rows and subtracts, squares and sums row by row: the
same operations in the same order as the expression above, so the same bits.

Working set of one call over n stored windows: the float32 table of the
rows they use and its gather, n d float32 values; per block of at most
``_BLOCK_ELEMENTS`` (2^22) query x window pairs, the float32 expansion
block (16 MB); per row chunk of that block, at most ``_CHUNK_ELEMENTS``
(2^17) pairs, one float32 partition copy to find the k-th smallest, a bool
mask, a few integers and a distance per candidate pair and the chunk's
merge rows, so no copy of the whole block is made; and the rescoring
gathers, at most ``_RESCORE_ELEMENTS`` (2^16) float64 values each, one of
query rows and one of stored rows. The caller keeps the queries: their
float32 matrix, m d values, and m squared norms.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

# Largest (queries, windows) float32 expansion block (16 MB): one GEMM per block.
_BLOCK_ELEMENTS = 1 << 22
# Largest row chunk of a block that is partitioned, masked and merged at once (512 KB of float32).
_CHUNK_ELEMENTS = 1 << 17
# Largest gather of query or stored rows for the exact rescoring, in float64 elements
# (512 KB): a chunk that stays in cache rescores faster than a larger one.
_RESCORE_ELEMENTS = 1 << 16

_F32, _F64 = np.finfo(np.float32), np.finfo(np.float64)


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


class KnnQueries(NamedTuple):
    """Query windows ``rows[index]`` with their filter: the centre, the centred float32 matrix and its squared norms."""

    rows: np.ndarray
    index: np.ndarray
    centre: np.ndarray
    matrix: np.ndarray
    sq: np.ndarray


def knn_queries(rows, index) -> KnnQueries:
    """The windows ``rows[index]`` as queries, centred on the mean of the rows they use."""
    used = np.zeros(len(rows), dtype=bool)
    used[index] = True
    centre = rows.sum(axis=0, where=used[:, None]) / max(1, used.sum())
    return KnnQueries(rows, index, centre, *_centred(rows, index, centre))


def _centred(rows, index, centre):
    """The windows ``rows[index]`` less ``centre``, rounded to float32, (n, d), and their float64 squared norms.

    Each row the windows use is centred in float64 and rounded once, into one table, and the windows are
    gathered from it.
    """
    lo, hi = (int(index.min()), int(index.max()) + 1) if index.size else (0, 0)
    table = np.empty((hi - lo, rows.shape[1]), dtype=np.float32)
    with np.errstate(over="ignore", invalid="ignore"):
        np.subtract(rows[lo:hi], centre, out=table, casting="same_kind")
    local = index - lo
    sq = np.einsum("ij,ij->i", table, table, dtype=np.float64)[local].sum(axis=1)
    return table[local].reshape(len(index), index.shape[1] * rows.shape[1]), sq


def knn_k_smallest(rows, index, queries, k, prior=None):
    """Each query's k smallest exact squared distances, ascending, over ``prior``'s windows and ``rows[index]``.

    ``queries`` comes from ``knn_queries``; ``prior`` (m, p) is an earlier result for the same queries and k
    over other windows (p = min(k, windows covered)), None standing for none. Returns
    (m, min(k, p + len(index))), exact under the kNN contract above: a float32 GEMM per query block bounds
    every pair, and the pairs that could enter the k smallest are rescored exactly and merged with the prior.
    """
    m, n = len(queries.index), len(index)
    p = 0 if prior is None else prior.shape[1]
    width = min(k, p + n)
    if n == 0:
        return np.empty((m, 0)) if prior is None else prior[:, :width].copy()
    d = queries.matrix.shape[1]
    stored, sq_s = _centred(rows, index, queries.centre)
    # Each query's margins over the largest stored norm: slack (D) in distance, spread (G) in squared distance.
    reach = np.sqrt(queries.sq) + np.sqrt(sq_s.max())
    terms = (d + 2) * _F32.eps
    g = terms / (1 - terms) if terms < 1 else np.inf
    h = (d + 8) * _F64.eps / (1 - (d + 8) * _F64.eps)
    tiny = d * _F64.smallest_subnormal
    slack = _F32.eps * reach + 2 * np.sqrt(d) * _F32.smallest_subnormal
    spread = g * reach**2 + (d + 2) * _F32.smallest_subnormal
    spread[~(reach**2 < _F32.max / 2)] = np.inf  # the expansion may overflow, or a value is not finite
    with np.errstate(over="ignore"):
        sq_q32, sq_s32 = queries.sq.astype(np.float32), sq_s.astype(np.float32)
    block, chunk = max(1, _BLOCK_ELEMENTS // n), max(1, _CHUNK_ELEMENTS // n)
    out = np.empty((m, width))
    for b in range(0, m, block):
        with np.errstate(over="ignore"):  # a certificate that could overflow has failed already
            expansion = queries.matrix[b : b + block] @ stored.T
        for c in range(0, len(expansion), chunk):
            e = expansion[c : c + chunk]
            at = slice(b + c, b + c + len(e))
            with np.errstate(over="ignore", invalid="ignore"):  # a failed certificate keeps its pairs
                e *= -2.0
                e += sq_q32[at, None]
                e += sq_s32
                limit = np.full(len(e), np.inf)
                if n >= k:
                    kth = np.partition(e, k - 1, axis=1)[:, k - 1].astype(np.float64)
                    limit = (np.sqrt(np.maximum(kth + spread[at], 0)) + slack[at]) ** 2 * (1 + h) + tiny
                if p >= k:
                    limit = np.fmin(limit, prior[at, k - 1])
                threshold = (np.sqrt((limit + tiny) / (1 - h)) + slack[at]) ** 2 + spread[at]
                above = np.nextafter(threshold.astype(np.float32), np.float32(np.inf))  # rounded up
            # A pair is left out only when its expansion exceeds the threshold; NaN keeps it.
            qi, sj = np.divmod(np.flatnonzero(~(e > above[:, None])), n)
            counts = np.bincount(qi, minlength=len(e))
            merged = np.full((len(e), p + counts.max()), np.inf)
            if p:
                merged[:, :p] = prior[at]
            rank = np.arange(len(qi)) - (np.cumsum(counts) - counts)[qi]  # each pair's place among its query's
            merged[qi, p + rank] = _rescore(queries, rows, index, b + c + qi, sj)
            merged.sort(axis=1)
            out[at] = merged[:, :width]
    return out


def _rescore(queries, rows, index, qi, sj):
    """Exact ``((q - s) ** 2).sum()`` of each (query, stored window) index pair, a bounded chunk at a time."""
    d2 = np.empty(len(qi))
    d = queries.matrix.shape[1]
    step = max(1, _RESCORE_ELEMENTS // d)
    for a in range(0, len(qi), step):
        diff = queries.rows[queries.index[qi[a : a + step]]].reshape(-1, d)
        diff -= rows[index[sj[a : a + step]]].reshape(-1, d)
        diff *= diff
        d2[a : a + step] = diff.sum(axis=1)
    return d2


def active_path() -> str:
    """The kernel implementation in use; always 'numpy'."""
    return "numpy"
