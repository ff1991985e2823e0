import numpy as np
import pytest

from posebench.errors import ValidationError
from posebench.model import tracks_from_frames
from posebench.synthetic import (
    ANOMALY_KINDS,
    ANOMALY_TRACK_BASE,
    generate_normals,
    generate_split,
)


def anomaly_tracks(split):
    """The test set's anomaly tracks, each with its keypoints in frame order."""
    tracks = tracks_from_frames(split.test.frames)
    return [t for t in tracks if t.track_id >= ANOMALY_TRACK_BASE]


class TestGenerateNormals:
    def test_counts_and_labels(self):
        ds = generate_normals(50, seed=0)
        assert len(ds.frames) == 50
        assert not ds.frames.anomalous.any()
        assert np.bincount(ds.frames.frame_row, minlength=50).tolist() == [2] * 50

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
        x, y = ds.frames.keypoints[:, :, 0], ds.frames.keypoints[:, :, 1]
        assert ((0.0 <= x) & (x <= 1280.0)).all()
        assert ((0.0 <= y) & (y <= 720.0)).all()

    def test_wide_variant_changes_geometry(self):
        a = generate_normals(30, seed=5)
        b = generate_normals(30, seed=5, pose_variant="wide")
        assert a != b

    def test_start_index_offsets_frames(self):
        ds = generate_normals(10, seed=0, start_index=100)
        assert ds.frames.frame_index.tolist() == list(range(100, 110))

    def test_frame_indices_must_fit_int64(self):
        assert generate_normals(5, seed=0, start_index=2**63 - 5).frames.frame_index[-1] == 2**63 - 1
        for start, bad in ((-1, -1), (2**63 - 3, 2**63), (2**63 + 7, 2**63 + 7)):
            message = f"frame_index must be a non-negative 64-bit integer, got {bad}$"
            with pytest.raises(ValidationError, match=message):
                generate_normals(5, seed=0, start_index=start)


class TestGenerateSplit:
    def test_shape(self):
        split = generate_split(300, 200, 60, seed=0)
        assert len(split.train.frames) == 300
        assert len(split.test.frames) == 260
        assert split.test.frames.anomalous.sum() == 60
        assert not split.train.frames.anomalous.any()

    def test_anomalous_frames_have_regions_and_extra_track(self):
        frames = generate_split(300, 200, 60, seed=0).test.frames
        has_region = np.zeros(len(frames), dtype=bool)
        has_region[frames.region_frame] = True
        has_anomaly_track = np.zeros(len(frames), dtype=bool)
        has_anomaly_track[frames.frame_row[frames.track_id >= ANOMALY_TRACK_BASE]] = True
        assert has_region.tolist() == frames.anomalous.tolist()
        assert has_anomaly_track.tolist() == frames.anomalous.tolist()

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
        steps = []
        for track in anomaly_tracks(split):
            seq = track.keypoints
            steps += np.linalg.norm(seq[1:] - seq[:-1], axis=2).mean(axis=1).tolist()
        # Normal walkers step ~3 px; the anomalous track must be well clear.
        assert np.median(steps) > 10.0

    def test_frozen_anomaly_is_static(self):
        split = generate_split(200, 150, 50, seed=0, anomaly_kinds=("frozen",))
        for track in anomaly_tracks(split):
            for a, b in zip(track.keypoints, track.keypoints[1:]):
                np.testing.assert_allclose(a, b, atol=1e-9)

    def test_train_and_test_frame_ranges_disjoint(self):
        split = generate_split(120, 80, 20, seed=0)
        train_idx = set(split.train.frames.frame_index.tolist())
        test_idx = set(split.test.frames.frame_index.tolist())
        assert not (train_idx & test_idx)
