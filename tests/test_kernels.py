"""Each kernel against a two-pass or brute-force reference."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posebench import _kernels, stats
from conftest import dense_knn_mean, dense_windows, working_set_mb


def welford_reference(batch):
    mean = batch.mean(axis=0)
    m2 = ((batch - mean) ** 2).sum(axis=0)
    return mean, m2


class TestWelfordKernel:
    def test_matches_two_pass_reference(self, rng):
        batch = rng.normal(size=(200, 51))
        mean = np.zeros(51)
        m2 = np.zeros(51)
        count = _kernels.welford_update(0, mean, m2, batch)
        ref_mean, ref_m2 = welford_reference(batch)
        assert count == 200
        np.testing.assert_allclose(mean, ref_mean, atol=1e-12)
        np.testing.assert_allclose(m2, ref_m2, rtol=1e-9)

    def test_resumes_from_running_state(self, rng):
        batch = rng.normal(size=(120, 8))
        mean = np.zeros(8)
        m2 = np.zeros(8)
        c = _kernels.welford_update(0, mean, m2, batch[:50])
        c = _kernels.welford_update(c, mean, m2, batch[50:])
        ref_mean, ref_m2 = welford_reference(batch)
        assert c == 120
        np.testing.assert_allclose(mean, ref_mean, atol=1e-12)
        np.testing.assert_allclose(m2, ref_m2, rtol=1e-9)


def knn_reference(stored, queries, k):
    """Sort each query's exact squared distances, keep the k smallest, then sqrt().mean()."""
    out = np.empty(len(queries))
    for i, q in enumerate(queries):
        out[i] = np.sqrt(np.sort(((stored - q) ** 2).sum(axis=1))[:k]).mean()
    return out


def dense_k_smallest(stored, queries, k, prior=None):
    """knn_k_smallest with each row of the dense ``stored`` and ``queries`` a window of length 1."""
    queries = _kernels.knn_queries(*dense_windows(queries))
    return _kernels.knn_k_smallest(*dense_windows(stored), queries, k, prior)


@pytest.fixture
def rescored(monkeypatch):
    """Record, per rescoring call, the stored window count and the query index of each pair rescored."""
    calls = []
    rescore = _kernels._rescore

    def counted(queries, rows, index, qi, sj):
        calls.append((len(index), qi.copy()))
        return rescore(queries, rows, index, qi, sj)

    monkeypatch.setattr(_kernels, "_rescore", counted)
    return calls


def full_scans(calls):
    """Queries whose certificate failed: every one of their pairs was rescored."""
    return sum(int((np.bincount(qi) == n).sum()) for n, qi in calls)


def pairs_rescored(calls):
    return sum(len(qi) for _, qi in calls)


def pose_windows(rng, count, length=24, stride=6, scale=0.1):
    """``count`` overlapping windows over one track of 34-value pose rows, as extract_windows lays them out."""
    rows = rng.normal(0.0, scale, size=(stride * (count - 1) + length, 34))
    return rows, stride * np.arange(count)[:, None] + np.arange(length)


class TestKnnKernel:
    def check(self, stored, queries, k):
        got = dense_knn_mean(stored, queries, k)
        np.testing.assert_array_equal(got, knn_reference(stored, queries, k))

    def test_matches_brute_force(self, rng):
        stored = rng.normal(size=(120, 10))
        queries = rng.normal(size=(17, 10))
        for k in (1, 3, 7):
            self.check(stored, queries, k)

    def test_duplicate_stored_rows(self, rng):
        base = rng.normal(size=(30, 6))
        stored = np.concatenate([base, base, base[:5]])
        self.check(stored, rng.normal(size=(12, 6)), 4)

    def test_queries_equal_to_stored_rows(self, rng):
        stored = rng.normal(size=(50, 8))
        queries = np.concatenate([stored[:10], rng.normal(size=(3, 8))])
        self.check(stored, queries, 1)
        self.check(stored, queries, 3)

    def test_every_row_a_candidate(self, rng, rescored):
        # k == n leaves no row out: every pair is rescored, and only then.
        queries = rng.normal(size=(9, 5))
        stored = rng.normal(size=(6, 5))
        self.check(stored, queries, 6)
        assert full_scans(rescored) == 9
        rescored.clear()
        self.check(stored, queries, 2)
        self.check(rng.normal(size=(11, 5)), queries, 3)
        assert full_scans(rescored) == 0

    def test_large_common_offset_is_centred_away(self, rng, rescored):
        # The centre removes a common 1e6 offset before the rows are rounded to float32,
        # so the filter keeps few pairs and none of the 7 queries falls back.
        stored = 1e6 + 1e-3 * rng.normal(size=(60, 16))
        queries = 1e6 + 1e-3 * rng.normal(size=(7, 16))
        self.check(stored, queries, 3)
        assert full_scans(rescored) == 0
        assert pairs_rescored(rescored) < 0.25 * 7 * 60

    def test_offsets_on_both_sides_fall_back(self, rng, rescored):
        # Queries at +1e6 and -1e6 put the centre between them: each centred query is still 1e6
        # from it, its float32 rounding outweighs the gaps between neighbours, and every query
        # is scanned in full.
        stored = 1e6 + 1e-3 * rng.normal(size=(60, 16))
        queries = np.concatenate([1e6 + 1e-3 * rng.normal(size=(4, 16)), -1e6 + 1e-3 * rng.normal(size=(3, 16))])
        self.check(stored, queries, 3)
        assert full_scans(rescored) == 7

    def test_offset_near_cancellation(self):
        # Offsets where float32 rounding is about the gap between neighbours:
        # only the stated bound keeps a misranked row out.
        for offset in (1e3, 1e4, 1e5):
            rng = np.random.default_rng(0)
            stored = offset + 1e-3 * rng.normal(size=(60, 8))
            queries = offset + 1e-3 * rng.normal(size=(100, 8))
            for k in (1, 3):
                self.check(stored, queries, k)

    def test_underflow(self, rng):
        # Squares near the subnormal range lose their relative precision.
        stored = 2e-162 * rng.normal(size=(40, 4))
        queries = 2e-162 * rng.normal(size=(200, 4))
        for k in (1, 2, 3):
            self.check(stored, queries, k)

    def test_overflowed_expansion_falls_back(self, rng, rescored):
        # The centred rows overflow float32 (so does the expansion) while the float64
        # differences stay finite, so only the full scan finds the nearest row.
        stored = 2e154 + 1e150 * rng.permutation(np.arange(30.0))[:, None]
        with np.errstate(over="ignore", invalid="ignore"):
            self.check(stored, np.full((1, 1), 2e154), 1)
        assert full_scans(rescored) == 1

    def test_overflowing_expansion_falls_back(self, rng, rescored):
        # At 1e19 the rows fit float32 but their squared norms, and so the expansion, may not:
        # every query is scanned in full. At 1e17 the same data is filtered.
        for scale, fallbacks in ((1e19, 5), (1e17, 0)):
            rescored.clear()
            self.check(scale * rng.normal(size=(40, 4)), scale * rng.normal(size=(5, 4)), 2)
            assert full_scans(rescored) == fallbacks, scale

    def test_integer_grid_ties(self, rng):
        stored = rng.integers(-3, 4, size=(200, 3)).astype(np.float64)
        queries = rng.integers(-3, 4, size=(40, 3)).astype(np.float64)
        for k in (1, 5, 20):
            self.check(stored, queries, k)

    def test_sums_in_ascending_order(self):
        # Summed largest first, 1 + 1.1e-16 + 1.1e-16 rounds to 1; smallest first it does not.
        stored = np.concatenate([[[1.0], [1.1e-16], [1.1e-16]], np.arange(10.0, 30.0)[:, None]])
        got = dense_knn_mean(stored, np.zeros((1, 1)), 3)
        assert got[0] == (1.1e-16 + 1.1e-16 + 1.0) / 3 != (1.0 + 1.1e-16 + 1.1e-16) / 3
        self.check(stored, np.zeros((1, 1)), 3)

    def test_block_boundary(self, rng, monkeypatch):
        # Shrink the block and the chunk so 1030 queries span many blocks, each cut into chunks
        # that do not divide it, and a partial last one.
        monkeypatch.setattr(_kernels, "_BLOCK_ELEMENTS", 256)
        monkeypatch.setattr(_kernels, "_CHUNK_ELEMENTS", 120)
        stored = rng.normal(size=(40, 4))
        self.check(stored, rng.normal(size=(1030, 4)), 2)

    def test_windows_over_rows_equal_their_dense_matrix(self, rng):
        # Overlapping windows over pose rows score as the dense matrix of their flattened windows.
        rows, index = pose_windows(rng, 30, length=4, stride=2)
        q_rows, q_index = pose_windows(rng, 9, length=4, stride=3)
        queries = _kernels.knn_queries(q_rows, q_index)
        got = _kernels.knn_k_smallest(rows, index, queries, 3)
        want = k_smallest_reference(rows[index].reshape(30, -1), q_rows[q_index].reshape(9, -1), 3)
        assert got.tobytes() == want.tobytes()

    @settings(deadline=None, max_examples=60)
    @given(
        n=st.integers(1, 60),
        d=st.integers(1, 24),
        m=st.integers(1, 20),
        k_frac=st.floats(0.0, 1.0),
        scale=st.sampled_from([1e-160, 1e-6, 1e-2, 1.0, 1e3, 1e8, 1e155]),
        offset=st.sampled_from([0.0, 1.0, 1e4, 1e6]),
        grid=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_exact_property(self, n, d, m, k_frac, scale, offset, grid, seed):
        rng = np.random.default_rng(seed)
        stored = offset + scale * rng.normal(size=(n, d))
        queries = offset + scale * rng.normal(size=(m, d))
        if grid:
            stored, queries = np.round(stored), np.round(queries)
        # 1e-160 underflows the squares; 1e155 overflows them and the expansion turns NaN.
        with np.errstate(over="ignore", invalid="ignore"):
            self.check(stored, queries, 1 + int(k_frac * (n - 1)))


def merged_scan(stored, queries, k, cuts):
    """knn_k_smallest over ``stored`` cut into pieces at ``cuts``, each piece merged with the last result."""
    rows, index = dense_windows(stored)
    queries = _kernels.knn_queries(*dense_windows(queries))
    kd = None
    bounds = [0, *sorted(cuts), len(stored)]
    for lo, hi in zip(bounds, bounds[1:]):
        kd = _kernels.knn_k_smallest(rows, index[lo:hi], queries, k, kd)
    return kd


def k_smallest_reference(stored, queries, k):
    return np.stack([np.sort(((stored - q) ** 2).sum(axis=1))[:k] for q in queries])


class TestKnnPrior:
    def check(self, stored, queries, k, cuts):
        got = merged_scan(stored, queries, k, cuts)
        assert got.tobytes() == dense_k_smallest(stored, queries, k).tobytes()
        assert got.tobytes() == k_smallest_reference(stored, queries, k).tobytes()

    def test_matches_fresh_scan(self, rng):
        stored = rng.normal(size=(90, 12))
        queries = rng.normal(size=(25, 12))
        for k in (1, 3, 7):
            self.check(stored, queries, k, [30, 60])
            self.check(stored, queries, k, [k, k, 40, 41, 42])  # an empty piece and pieces under k rows

    def test_no_new_rows_returns_the_prior(self, rng):
        stored, queries = rng.normal(size=(20, 4)), rng.normal(size=(6, 4))
        prior = dense_k_smallest(stored, queries, 3)
        got = dense_k_smallest(stored[:0], queries, 3, prior)
        assert got.tobytes() == prior.tobytes() and got is not prior

    def test_prior_under_k_rows(self, rng):
        # A prior over 2 rows is widened by later pieces until it holds k distances.
        stored, queries = rng.normal(size=(9, 5)), rng.normal(size=(8, 5))
        assert dense_k_smallest(stored[:2], queries, 4).shape == (8, 2)
        self.check(stored, queries, 4, [2, 3])

    def test_duplicate_rows(self, rng):
        base = rng.normal(size=(20, 6))
        stored = np.concatenate([base, base[:7], base, base[3:5]])
        queries = np.concatenate([base[:6], rng.normal(size=(6, 6))])
        for k in (1, 4, 7):
            self.check(stored, queries, k, [20, 27, 47])

    def test_large_common_offset_merges_few_pairs(self, rng, rescored):
        # Centred, a common 1e6 offset no longer defeats the filter: merging 30 new rows
        # into the prior rescores a few pairs per query, and none falls back.
        stored = 1e6 + 1e-3 * rng.normal(size=(60, 16))
        queries = 1e6 + 1e-3 * rng.normal(size=(7, 16))
        rows, index = dense_windows(stored)
        q = _kernels.knn_queries(*dense_windows(queries))
        prior = _kernels.knn_k_smallest(rows, index[:30], q, 3)
        rescored.clear()
        got = _kernels.knn_k_smallest(rows, index[30:], q, 3, prior)
        assert got.tobytes() == k_smallest_reference(stored, queries, 3).tobytes()
        assert full_scans(rescored) == 0
        assert pairs_rescored(rescored) < 0.25 * 7 * 30

    def test_offsets_on_both_sides_fall_back(self, rng, rescored):
        # With queries at +1e6 and -1e6 the carried k-th distance is far below the float32
        # margins, so no new pair can be left out and each is rescored.
        stored = 1e6 + 1e-3 * rng.normal(size=(60, 16))
        queries = np.concatenate([1e6 + 1e-3 * rng.normal(size=(4, 16)), -1e6 + 1e-3 * rng.normal(size=(3, 16))])
        rows, index = dense_windows(stored)
        q = _kernels.knn_queries(*dense_windows(queries))
        prior = _kernels.knn_k_smallest(rows, index[:30], q, 3)
        rescored.clear()
        got = _kernels.knn_k_smallest(rows, index[30:], q, 3, prior)
        assert full_scans(rescored) == 7
        assert got.tobytes() == k_smallest_reference(stored, queries, 3).tobytes()

    def test_working_set_at_continual_knn_shape(self, rng):
        # Test windows, a step's new windows and the windows before them, as perfbench's continual-knn
        # scores them: length 24 at stride 6 over pose rows, as the knn scorer holds them. The bound is the
        # docstring's: the float32 table of the rows the call uses and its gather, the float32 expansion
        # block, one chunk's partition copy and mask, both rescoring gathers, and 0.5 MB for the pair
        # indices, the merge rows and the result. The caller holds the queries.
        k = 5
        rows, index = pose_windows(rng, 714)
        queries = _kernels.knn_queries(*pose_windows(rng, 267))
        prior = _kernels.knn_k_smallest(rows, index[:194], queries, k)
        for windows, prior_kd in ((index[194:246], prior), (index, None)):
            pairs, table = len(queries.index) * len(windows), windows.max() + 1 - windows.min()
            chunk = min(_kernels._CHUNK_ELEMENTS, pairs)
            floats = pairs + windows.size * 34 + table * 34 + chunk
            bound = (4 * floats + chunk + 2 * 8 * _kernels._RESCORE_ELEMENTS) / 2**20 + 0.5
            peak = working_set_mb(lambda: _kernels.knn_k_smallest(rows, windows, queries, k, prior_kd))
            assert peak < bound, (len(windows), peak, bound)

    @settings(deadline=None, max_examples=60)
    @given(
        n=st.integers(1, 40),
        d=st.integers(1, 12),
        m=st.integers(1, 10),
        k=st.integers(1, 7),
        cuts=st.lists(st.integers(0, 40), max_size=4),
        scale=st.sampled_from([1e-160, 1e-3, 1.0, 1e8, 1e155]),
        offset=st.sampled_from([0.0, 1e4, 1e6]),
        grid=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_merge_property(self, n, d, m, k, cuts, scale, offset, grid, seed):
        rng = np.random.default_rng(seed)
        stored = offset + scale * rng.normal(size=(n, d))
        queries = offset + scale * rng.normal(size=(m, d))
        if grid:
            stored, queries = np.round(stored), np.round(queries)
        with np.errstate(over="ignore", invalid="ignore"):
            self.check(stored, queries, k, [c for c in cuts if c <= n])

    @settings(deadline=None, max_examples=100)
    @given(
        n=st.integers(1, 50),
        d=st.integers(1, 20),
        m=st.integers(1, 12),
        k_frac=st.floats(0.0, 1.0),
        cut_frac=st.floats(0.0, 1.0),
        scale=st.sampled_from([1e-310, 1e-42, 1e-39, 1e-30, 1e-12, 1e-3, 1.0, 1e6, 1e12, 1e18, 1e19, 1e37, 3e38]),
        offset=st.sampled_from([0.0, 1.0, 1e6]),
        ratio=st.sampled_from([0.0, 1e-5, 1e-3, 1e-1]),
        form=st.sampled_from(["normal", "duplicates", "ties"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_certificate_property(self, n, d, m, k_frac, cut_frac, scale, offset, ratio, form, seed):
        # Both margins of the certificate, where float32 rounds hardest: scales from float64's subnormals
        # (1e-310) and float32's (1e-42, 1e-39) through 1e18, squared norms that overflow float32 (1e19)
        # and rows at and past its range (1e37, 3e38); duplicate rows and queries equal to stored rows;
        # and ties on a {-1, 0, 1} grid, where many windows share the k-th distance. With a ratio, each
        # row sits at +-scale / ratio, so the centre falls between two clusters and the float32 rounding
        # of the centred rows is about the gaps between neighbours: without its margins the filter
        # would leave a nearest window out.
        rng = np.random.default_rng(seed)
        if form == "ties":
            stored, queries = rng.integers(-1, 2, size=(n, d)), rng.integers(-1, 2, size=(m, d))
        else:
            stored, queries = rng.normal(size=(n, d)), rng.normal(size=(m, d))
        if form == "duplicates":
            stored = np.concatenate([stored, stored[: n // 2]])
            queries = np.concatenate([queries, stored[:3]])
        if ratio:
            stored = stored + rng.choice([-1.0, 1.0], size=(len(stored), 1)) / ratio
            queries = queries + rng.choice([-1.0, 1.0], size=(len(queries), 1)) / ratio
        stored, queries = offset + scale * stored, offset + scale * queries
        k = 1 + int(k_frac * (len(stored) - 1))
        with np.errstate(over="ignore", invalid="ignore", under="ignore"):
            self.check(stored, queries, k, [int(cut_frac * len(stored))])


class TestIouKernel:
    def brute(self, boxes, offsets):
        out = np.zeros(len(offsets) - 1)
        for g in range(len(offsets) - 1):
            lo, hi = offsets[g], offsets[g + 1]
            best = 0.0
            for i in range(lo, hi):
                for j in range(i + 1, hi):
                    ax1, ay1, ax2, ay2 = boxes[i]
                    bx1, by1, bx2, by2 = boxes[j]
                    iw = min(ax2, bx2) - max(ax1, bx1)
                    ih = min(ay2, by2) - max(ay1, by1)
                    if iw <= 0 or ih <= 0:
                        continue
                    inter = iw * ih
                    union = (ax2 - ax1) * (ay2 - ay1) + (bx2 - bx1) * (by2 - by1) - inter
                    best = max(best, inter / union)
            out[g] = best
        return out

    def test_matches_brute_force(self, rng):
        n_groups = 25
        counts = rng.integers(0, 6, size=n_groups)
        offsets = np.zeros(n_groups + 1, dtype=np.int64)
        offsets[1:] = np.cumsum(counts)
        total = int(offsets[-1])
        x1 = rng.uniform(0, 100, size=total)
        y1 = rng.uniform(0, 100, size=total)
        boxes = np.column_stack([x1, y1, x1 + rng.uniform(1, 30, total), y1 + rng.uniform(1, 30, total)])
        got = stats.max_iou_per_group(boxes, offsets)
        np.testing.assert_allclose(got, self.brute(boxes, offsets), atol=1e-12)


class TestEnvFlag:
    def test_active_path_reports(self):
        # No environment setting selects a kernel path: there is only one.
        assert _kernels.active_path() == "numpy"
