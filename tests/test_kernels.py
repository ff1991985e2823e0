"""Each kernel against a two-pass or brute-force reference."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posebench import _kernels, stats


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


@pytest.fixture
def fallbacks(monkeypatch):
    """Count the rows whose certificate failed and that were scanned in full."""
    rows = []
    exact_row = _kernels._exact_row

    def counted(stored, query, k):
        rows.append(query)
        return exact_row(stored, query, k)

    monkeypatch.setattr(_kernels, "_exact_row", counted)
    return rows


class TestKnnKernel:
    def check(self, stored, queries, k):
        got = _kernels.knn_mean_distance(stored, queries, k)
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

    def test_every_row_a_candidate(self, rng, fallbacks):
        # k == n, and n <= k + slack, leave no row out of the rescoring.
        queries = rng.normal(size=(9, 5))
        stored = rng.normal(size=(6, 5))
        self.check(stored, queries, 6)
        self.check(stored, queries, 2)
        stored = rng.normal(size=(3 + _kernels._SLACK, 5))
        self.check(stored, queries, 3)
        assert not fallbacks

    def test_large_offset_falls_back(self, rng, fallbacks):
        # A common 1e6 offset cancels nearly every digit of the expansion, so
        # no row can be certified and each is scanned exactly.
        stored = 1e6 + 1e-3 * rng.normal(size=(60, 16))
        queries = 1e6 + 1e-3 * rng.normal(size=(7, 16))
        self.check(stored, queries, 3)
        assert len(fallbacks) == 7

    def test_offset_near_cancellation(self):
        # Offsets where the expansion's error is about the gap between
        # neighbours: only the stated bound keeps a misranked row out.
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

    def test_overflowed_expansion_falls_back(self, rng, fallbacks):
        # The norms overflow (the expansion is inf - inf = NaN) while the
        # differences stay finite, so only the full scan finds the nearest row.
        stored = 2e154 + 1e150 * rng.permutation(np.arange(30.0))[:, None]
        with np.errstate(over="ignore", invalid="ignore"):
            self.check(stored, np.full((1, 1), 2e154), 1)
        assert len(fallbacks) == 1

    def test_integer_grid_ties(self, rng):
        stored = rng.integers(-3, 4, size=(200, 3)).astype(np.float64)
        queries = rng.integers(-3, 4, size=(40, 3)).astype(np.float64)
        for k in (1, 5, 20):
            self.check(stored, queries, k)

    def test_sums_in_ascending_order(self):
        # Summed largest first, 1 + 1.1e-16 + 1.1e-16 rounds to 1; smallest first it does not.
        stored = np.concatenate([[[1.0], [1.1e-16], [1.1e-16]], np.arange(10.0, 30.0)[:, None]])
        got = _kernels.knn_mean_distance(stored, np.zeros((1, 1)), 3)
        assert got[0] == (1.1e-16 + 1.1e-16 + 1.0) / 3 != (1.0 + 1.1e-16 + 1.1e-16) / 3
        self.check(stored, np.zeros((1, 1)), 3)

    def test_block_boundary(self, rng, monkeypatch):
        # Shrink the block so 1030 queries span many blocks and a partial last one.
        monkeypatch.setattr(_kernels, "_BLOCK_ELEMENTS", 256)
        stored = rng.normal(size=(40, 4))
        self.check(stored, rng.normal(size=(1030, 4)), 2)

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
