"""Each kernel against a two-pass or brute-force reference."""

import numpy as np

from posebench import _kernels


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


class TestKnnKernel:
    def brute(self, stored, queries, k):
        out = np.empty(len(queries))
        for i, q in enumerate(queries):
            d = np.sqrt(((stored - q) ** 2).sum(axis=1))
            out[i] = np.sort(d)[:k].mean()
        return out

    def test_matches_brute_force(self, rng):
        stored = rng.normal(size=(120, 10))
        queries = rng.normal(size=(17, 10))
        for k in (1, 3, 7):
            got = _kernels.knn_mean_distance(stored, queries, k)
            np.testing.assert_allclose(got, self.brute(stored, queries, k), atol=1e-9)

    def test_chunking_boundary(self, rng):
        # More queries than the chunk size to cover the chunk loop.
        stored = rng.normal(size=(40, 4))
        queries = rng.normal(size=(1030, 4))
        got = _kernels.knn_mean_distance(stored, queries, 2)
        np.testing.assert_allclose(got, self.brute(stored, queries, 2), atol=1e-9)


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
        got = _kernels.max_iou_per_group(boxes, offsets)
        np.testing.assert_allclose(got, self.brute(boxes, offsets), atol=1e-12)


class TestEnvFlag:
    def test_active_path_reports(self):
        # No environment setting selects a kernel path: there is only one.
        assert _kernels.active_path() == "numpy"
