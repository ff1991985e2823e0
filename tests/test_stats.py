import numpy as np
import pytest

from posebench.errors import ValidationError
from posebench.stats import (
    STATS_CSV_COLUMNS,
    stats_from_frames,
)
from conftest import make_frame, make_obs, table
import _oracles
from _oracles import frame_max_iou, iou


def bb(x1, y1, x2, y2):
    return (float(x1), float(y1), float(x2), float(y2))


class TestIou:
    def test_disjoint(self):
        assert iou(bb(0, 0, 1, 1), bb(5, 5, 6, 6)) == 0.0

    def test_identical(self):
        assert iou(bb(2, 3, 7, 9), bb(2, 3, 7, 9)) == pytest.approx(1.0)

    def test_known_overlap(self):
        # 1x1 overlap of two 2x2 boxes: 1 / (4 + 4 - 1)
        assert iou(bb(0, 0, 2, 2), bb(1, 1, 3, 3)) == pytest.approx(1.0 / 7.0)

    def test_touching_edges_count_zero(self):
        assert iou(bb(0, 0, 2, 2), bb(2, 0, 4, 2)) == 0.0

    def test_matches_grid_oracle(self, rng):
        for _ in range(40):
            a = np.sort(rng.uniform(0, 30, size=2))
            b = np.sort(rng.uniform(0, 30, size=2))
            box_a = bb(a[0], b[0], a[1] + 1.0, b[1] + 1.0)
            c = np.sort(rng.uniform(0, 30, size=2))
            d = np.sort(rng.uniform(0, 30, size=2))
            box_b = bb(c[0], d[0], c[1] + 1.0, d[1] + 1.0)
            got = iou(box_a, box_b)
            want = _oracles.iou_grid(box_a, box_b, cell=0.05)
            assert got == pytest.approx(want, abs=0.02)


class TestFrameMaxIou:
    def test_fewer_than_two_people(self):
        assert frame_max_iou(make_frame(0)) == 0.0
        assert frame_max_iou(make_frame(0, persons=(make_obs(),))) == 0.0

    def test_pairwise_maximum(self):
        a = make_obs(track_id=0, origin=(10, 10))
        b = make_obs(track_id=1, origin=(11, 10))
        c = make_obs(track_id=2, origin=(200, 200))
        frame = make_frame(0, persons=(a, b, c))
        want = max(iou(a["bbox"], b["bbox"]), iou(a["bbox"], c["bbox"]), iou(b["bbox"], c["bbox"]))
        assert frame_max_iou(frame) == pytest.approx(want)


class TestDatasetStats:
    def frames(self):
        return (
            make_frame(0, persons=(make_obs(track_id=0),)),
            make_frame(1, persons=(make_obs(track_id=0), make_obs(track_id=1, origin=(52, 60)))),
            make_frame(2, label="anomalous", persons=(make_obs(track_id=1),)),
            make_frame(3),
        )

    def stats(self):
        return stats_from_frames(table(self.frames()))

    def test_counts(self):
        st = self.stats()
        assert st.frame_count == 4
        assert st.pose_count == 4
        assert st.anomaly_frame_count == 1
        assert st.anomaly_fraction == pytest.approx(0.25)

    def test_density_histogram(self):
        st = self.stats()
        assert st.density_histogram == {0: 1, 1: 2, 2: 1}
        assert st.density_encoded() == "0:1;1:2;2:1"

    def test_max_iou_per_frame(self):
        st = self.stats()
        assert st.max_iou_per_frame.shape == (4,)
        assert st.max_iou_per_frame[0] == 0.0
        assert st.max_iou_per_frame[1] > 0.0  # overlapping neighbors
        want = frame_max_iou(self.frames()[1])
        assert st.max_iou_per_frame[1] == pytest.approx(want)

    def test_csv_row_layout(self):
        st = self.stats()
        row = st.csv_row()
        assert list(row) == list(STATS_CSV_COLUMNS)
        assert row["camera_id"] == "cam0"
        assert row["frame_count"] == "4"
        assert row["anomaly_fraction"] == "0.250000"

    def test_empty_rejected(self):
        with pytest.raises(ValidationError, match="cannot compute statistics of an empty dataset"):
            stats_from_frames(table([]))

    def test_kernel_against_python_scan(self, rng):
        # Random crowds, compare the grouped kernel against frame_max_iou.
        frames = []
        for i in range(30):
            n = int(rng.integers(0, 5))
            persons = tuple(
                make_obs(track_id=j, origin=(float(rng.uniform(20, 90)), float(rng.uniform(20, 90))))
                for j in range(n)
            )
            frames.append(make_frame(i, persons=persons))
        st = stats_from_frames(table(frames))
        for frame, got in zip(frames, st.max_iou_per_frame):
            assert got == pytest.approx(frame_max_iou(frame), abs=1e-12)
