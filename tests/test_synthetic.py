import numpy as np
import pytest

from posebench.errors import ValidationError
from posebench.synthetic import (
    ANOMALY_KINDS,
    ANOMALY_TRACK_BASE,
    generate_normals,
    generate_split,
)


class TestGenerateNormals:
    def test_counts_and_labels(self):
        ds = generate_normals(50, seed=0)
        assert len(ds.frames) == 50
        assert all(f.label == "normal" for f in ds.frames.records())
        assert all(len(f.persons) == 2 for f in ds.frames.records())

    def test_deterministic(self):
        a = generate_normals(40, seed=3)
        b = generate_normals(40, seed=3)
        assert a == b

    def test_seed_changes_output(self):
        a = generate_normals(40, seed=3)
        b = generate_normals(40, seed=4)
        assert a != b

    def test_keypoints_inside_canvas(self):
        ds = generate_normals(200, seed=1, step_sigma=25.0)
        for frame in ds.frames.records():
            for obs in frame.persons:
                x, y = obs.keypoints[:, 0], obs.keypoints[:, 1]
                assert ((0.0 <= x) & (x <= 1280.0)).all()
                assert ((0.0 <= y) & (y <= 720.0)).all()

    def test_wide_variant_changes_geometry(self):
        a = generate_normals(30, seed=5)
        b = generate_normals(30, seed=5, pose_variant="wide")
        assert a != b

    def test_start_index_offsets_frames(self):
        ds = generate_normals(10, seed=0, start_index=100)
        assert ds.frames.frame_index.tolist() == list(range(100, 110))


class TestGenerateSplit:
    def test_shape(self):
        split = generate_split(300, 200, 60, seed=0)
        assert len(split.train.frames) == 300
        assert len(split.test.frames) == 260
        assert split.test.frames.anomalous.sum() == 60
        assert not split.train.frames.anomalous.any()

    def test_anomalous_frames_have_regions_and_extra_track(self):
        split = generate_split(300, 200, 60, seed=0)
        for frame in split.test.frames.records():
            if frame.is_anomalous:
                assert frame.anomaly_regions
                assert any(o.track_id >= ANOMALY_TRACK_BASE for o in frame.persons)
            else:
                assert all(o.track_id < ANOMALY_TRACK_BASE for o in frame.persons)

    def test_each_kind_generates(self):
        for kind in ANOMALY_KINDS:
            split = generate_split(200, 120, 40, seed=2, anomaly_kinds=(kind,))
            assert split.test.frames.anomalous.sum() == 40

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValidationError):
            generate_split(100, 60, 20, seed=0, anomaly_kinds=("teleport",))

    def test_bad_counts_rejected(self):
        with pytest.raises(ValidationError):
            generate_split(0, 60, 20, seed=0)
        with pytest.raises(ValidationError):
            generate_split(100, 60, 0, seed=0)

    def test_deterministic(self):
        a = generate_split(150, 90, 30, seed=9)
        b = generate_split(150, 90, 30, seed=9)
        assert a.train == b.train
        assert a.test == b.test

    def test_velocity_anomaly_moves_fast(self):
        split = generate_split(200, 150, 50, seed=0, anomaly_kinds=("velocity",))
        anom_pos = {}
        for frame in split.test.frames.records():
            for obs in frame.persons:
                if obs.track_id >= ANOMALY_TRACK_BASE:
                    anom_pos.setdefault(obs.track_id, []).append(obs.keypoints[:, :2])
        steps = []
        for seq in anom_pos.values():
            for a, b in zip(seq, seq[1:]):
                steps.append(np.linalg.norm(b - a, axis=1).mean())
        # Normal walkers step ~3 px; the anomalous track must be well clear.
        assert np.median(steps) > 10.0

    def test_frozen_anomaly_is_static(self):
        split = generate_split(200, 150, 50, seed=0, anomaly_kinds=("frozen",))
        by_track = {}
        for frame in split.test.frames.records():
            for obs in frame.persons:
                if obs.track_id >= ANOMALY_TRACK_BASE:
                    by_track.setdefault(obs.track_id, []).append(obs.keypoints[:, :2])
        for seq in by_track.values():
            for a, b in zip(seq, seq[1:]):
                np.testing.assert_allclose(a, b, atol=1e-9)

    def test_train_and_test_frame_ranges_disjoint(self):
        split = generate_split(120, 80, 20, seed=0)
        train_idx = set(split.train.frames.frame_index.tolist())
        test_idx = set(split.test.frames.frame_index.tolist())
        assert not (train_idx & test_idx)
