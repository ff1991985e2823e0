import numpy as np
import pytest

from posebench.errors import ValidationError
from posebench.model import Track
from posebench.preprocess import (
    WindowBatch,
    extract_windows,
    interpolate_track,
    normalize_pose,
    smooth_track,
    window_track,
)
from conftest import make_frame, make_obs, make_track, table, walking_dataset
import _oracles


class TestInterpolation:
    def test_no_gap_is_identity(self):
        track = make_track([3, 4, 5])
        filled = interpolate_track(track)
        assert filled is not track
        assert filled.frames.tolist() == [3, 4, 5]

    def test_midpoint(self):
        track = make_track([0, 2], origins=[(10.0, 20.0), (14.0, 28.0)])
        filled = interpolate_track(track)
        assert filled.frames.tolist() == [0, 1, 2]
        assert filled.interpolated.tolist() == [False, True, False]
        first, mid, last = filled.keypoints
        np.testing.assert_allclose(mid, (first + last) / 2)

    def test_matches_linear_oracle(self, rng):
        for _ in range(50):
            idx = np.unique(rng.integers(0, 60, size=rng.integers(2, 12)))
            if len(idx) < 2:
                continue
            origins = [(float(x), float(y)) for x, y in rng.uniform(20, 200, size=(len(idx), 2))]
            track = make_track(list(idx), origins=origins)
            filled = interpolate_track(track, max_gap=100)
            full = np.arange(idx[0], idx[-1] + 1)
            assert filled.frames.tolist() == [int(i) for i in full]
            want = _oracles.interp_positions(idx, track.keypoints, full)
            np.testing.assert_allclose(filled.keypoints, want, atol=1e-9)

    def test_gap_above_limit_left_open(self):
        track = make_track([0, 20])
        filled = interpolate_track(track, max_gap=14)
        assert filled.frames.tolist() == [0, 20]

    def test_gap_at_limit_filled(self):
        track = make_track([0, 15])
        filled = interpolate_track(track, max_gap=14)
        assert filled.frames.tolist() == list(range(16))
        assert filled.interpolated[1:-1].all()

    def test_interpolated_bbox_is_lerped(self):
        track = make_track([0, 2], origins=[(10.0, 20.0), (30.0, 40.0)])
        filled = interpolate_track(track)
        b0, b1 = track.bbox
        mid = filled.bbox[1]
        assert mid[0] == pytest.approx((b0[0] + b1[0]) / 2)
        assert mid[3] == pytest.approx((b0[3] + b1[3]) / 2)

    def test_originals_pass_through_unchanged(self):
        # Original rows are bit-equal after filling, open gaps included.
        track = make_track([0, 3, 4, 30])
        filled = interpolate_track(track, max_gap=14)
        kept = np.isin(filled.frames, track.frames)
        assert filled.frames[kept].tolist() == [0, 3, 4, 30]
        assert not filled.interpolated[kept].any()
        assert filled.keypoints[kept].tobytes() == track.keypoints.tobytes()
        assert filled.bbox[kept].tobytes() == track.bbox.tobytes()


class TestSmoothing:
    def test_window_must_be_odd(self):
        with pytest.raises(ValidationError):
            smooth_track(make_track([0, 1, 2]), window=4)

    def test_window_one_is_identity(self):
        track = make_track([0, 1, 2])
        out = smooth_track(track, window=1)
        np.testing.assert_allclose(out.keypoints, track.keypoints)

    def test_impulse_response_center(self):
        # A lone spike in a constant run spreads to spike/window at the
        # center once the full window fits.
        n, window = 61, 15
        origins = [(100.0, 100.0)] * n
        origins[30] = (100.0 + 15.0, 100.0)
        track = make_track(list(range(n)), origins=origins)
        out = smooth_track(track, window=window)
        center = out.keypoints[30] - track.keypoints[0]
        np.testing.assert_allclose(center[:, 0], 15.0 / window, atol=1e-9)
        np.testing.assert_allclose(center[:, 1], 0.0, atol=1e-9)

    def test_matches_scan_oracle_with_edge_shrink(self, rng):
        for _ in range(25):
            n = int(rng.integers(1, 40))
            xs = rng.uniform(50, 150, size=n)
            origins = [(float(x), 80.0) for x in xs]
            track = make_track(list(range(n)), origins=origins)
            out = smooth_track(track, window=15)
            want = _oracles.moving_average_scan(track.keypoints[:, 0, 0].tolist(), 15)
            np.testing.assert_allclose(out.keypoints[:, 0, 0], want, atol=1e-9)

    def test_runs_are_smoothed_independently(self):
        # Two runs separated by a hole: values from one run must not bleed
        # into the other.
        origins = [(10.0, 50.0), (10.0, 50.0), (1000.0, 50.0), (1000.0, 50.0)]
        track = make_track([0, 1, 10, 11], origins=origins)
        out = smooth_track(track, window=3)
        xs = out.keypoints[:, 0, 0]
        assert xs[0] == pytest.approx(10.0)
        assert xs[1] == pytest.approx(10.0)
        assert xs[2] == pytest.approx(1000.0)
        assert xs[3] == pytest.approx(1000.0)

    def test_flags_and_bbox_pass_through(self):
        track = interpolate_track(make_track([0, 2]))
        out = smooth_track(track, window=3)
        assert out.interpolated.tolist() == [False, True, False]
        assert out.bbox.tobytes() == track.bbox.tobytes()


class TestNormalize:
    def test_reference_values(self):
        kps = np.zeros((1, 17, 2))
        kps[0, 16] = (3.0, 4.0)
        out = normalize_pose(kps, np.array([[0.0, 0.0, 3.0, 4.0]]))
        np.testing.assert_allclose(out[0, 16], (0.3, 0.4))
        np.testing.assert_allclose(out[0, 0], (-0.3, -0.4))

    def test_translation_and_scale_invariance(self, rng):
        pts = rng.uniform(10, 50, size=(17, 2))

        def build(scale, shift):
            kps = pts * scale + shift
            bbox = np.concatenate([kps.min(axis=0), kps.max(axis=0)])
            return normalize_pose(kps[None], bbox[None])

        np.testing.assert_allclose(build(1.0, 0.0), build(3.0, 200.0), atol=1e-12)

    def test_degenerate_box_rejected_upstream(self):
        # The frame table itself refuses zero-extent boxes; normalize_pose
        # refuses them too rather than dividing by zero.
        with pytest.raises(ValidationError, match="bounding box must have positive extent"):
            table([make_frame(0, persons=({**make_obs(), "bbox": [5.0, 5.0, 5.0, 5.0]},))])
        with pytest.raises(ValidationError):
            normalize_pose(np.zeros((1, 17, 2)), np.array([[5.0, 5.0, 5.0, 5.0]]))


class TestWindowing:
    def test_count_formula_across_random_triples(self, rng):
        # Each track is the first n rows of one 199-frame track: what make_track(range(n)) builds.
        whole = make_track(list(range(199)))
        checked = 0
        for _ in range(1000):
            n = int(rng.integers(1, 200))
            length = int(rng.integers(2, 40))
            stride = int(rng.integers(1, 12))
            want = _oracles.window_count(n, length, stride)
            track = Track(0, whole.frames[:n], whole.keypoints[:n], whole.bbox[:n], whole.interpolated[:n])
            wins = window_track(track, length=length, stride=stride)
            assert len(wins) == want, (n, length, stride)
            checked += 1
        assert checked == 1000

    def test_window_fields(self):
        track = make_track(list(range(30)), track_id=4)
        batch = window_track(track, length=24, stride=6)
        assert len(batch) == 2 and batch.length == 24
        assert batch.rows.tolist() == [0, 6] and batch.track_id.tolist() == [4, 4]
        assert batch.start_frame.tolist() == [0, 6]
        assert batch.covered_frames()[1].tolist() == list(range(6, 30))
        want = normalize_pose(track.keypoints, track.bbox)
        assert batch.poses.tobytes() == want.tobytes()
        assert not batch.poses.flags.writeable
        with pytest.raises(TypeError):
            iter(batch)

    def test_windows_respect_runs(self):
        # 30 frames split into two runs of 15: too short for length 24.
        track = make_track(list(range(15)) + list(range(100, 115)))
        empty = window_track(track, length=24, stride=6)
        assert len(empty) == 0 and empty.poses.shape == (30, 17, 2)
        batch = window_track(track, length=10, stride=5)
        assert batch.start_frame.tolist() == [0, 5, 100, 105]
        assert batch.rows.tolist() == [0, 5, 15, 20]

    def test_non_finite_poses_are_rejected(self):
        poses = np.zeros((4, 17, 2))
        poses[2, 3, 1] = np.inf
        with pytest.raises(ValidationError, match="normalized poses must be finite"):
            WindowBatch(poses, np.array([0]), np.array([0]), np.array([0]), 4)


class TestPipeline:
    def test_extract_windows_end_to_end(self):
        ds = walking_dataset(40)
        batch = extract_windows(
            ds.frames, length=24, stride=6, max_gap=14, smoothing_window=15
        )
        assert batch.start_frame.tolist() == [0, 6, 12]
        assert batch.poses.shape == (40, 17, 2) and np.isfinite(batch.poses).all()

    def test_tracks_share_one_row_table_in_track_order(self):
        # Frames 0-29 hold track 7, then track 2 from frame 5 on; frames 30-44 hold track 2 only.
        persons = {}
        for track_id, start, count in ((7, 0, 30), (2, 5, 40)):
            for i in range(count):
                obs = make_obs(track_id=track_id, origin=(40.0 + 1.5 * i, 30.0 + 0.5 * i))
                persons.setdefault(start + i, []).append(obs)
        frames = table([make_frame(fi, persons=obs) for fi, obs in persons.items()])
        batch = extract_windows(frames, length=24, stride=6, max_gap=14, smoothing_window=15)
        # Track 2 (40 rows from frame 5) comes first, then track 7 (30 rows from frame 0).
        assert batch.poses.shape == (70, 17, 2)
        assert batch.track_id.tolist() == [2, 2, 2, 7, 7]
        assert batch.rows.tolist() == [0, 6, 12, 40, 46]
        assert batch.start_frame.tolist() == [5, 11, 17, 0, 6]
    def test_extract_windows_fills_gaps(self):
        all_frames = walking_dataset(40).frames
        frames = all_frames.take(np.flatnonzero(all_frames.frame_index != 20))
        wins = extract_windows(
            frames, length=24, stride=6, max_gap=14, smoothing_window=15
        )
        # The gap is interpolated, so coverage is as if nothing was missing.
        assert wins.start_frame.tolist() == [0, 6, 12]
