import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posebench.errors import ValidationError
from posebench.preprocess import WindowBatch, extract_windows, normalize_pose
from posebench.synthetic import generate_normals
from conftest import (
    BOX,
    every_row,
    make_frame,
    make_keypoints,
    make_obs,
    person,
    pixels,
    staircase,
    table,
    track_table,
    walking_dataset,
    working_set_mb,
)
import _oracles


class TestInterpolation:
    def test_no_gap_is_identity(self):
        frames = track_table([3, 4, 5])
        got, poses = every_row(frames)
        assert got.tolist() == [3, 4, 5]
        assert poses.tobytes() == normalize_pose(frames.keypoints[:, :, :2], frames.bbox).tobytes()

    def test_midpoint(self):
        frames = track_table([0, 2], origins=[(10.0, 20.0), (14.0, 28.0)], bbox=BOX)
        got, poses = every_row(frames)
        assert got.tolist() == [0, 1, 2]
        first, mid, last = pixels(poses)
        np.testing.assert_allclose(mid, (first + last) / 2, atol=1e-9)

    def test_matches_linear_oracle(self, rng):
        for _ in range(50):
            idx = np.unique(rng.integers(0, 60, size=rng.integers(2, 12)))
            if len(idx) < 2:
                continue
            origins = [(float(x), float(y)) for x, y in rng.uniform(20, 200, size=(len(idx), 2))]
            frames = track_table(list(idx), origins=origins, bbox=BOX)
            got, poses = every_row(frames, max_gap=100)
            full = np.arange(idx[0], idx[-1] + 1)
            assert got.tolist() == [int(i) for i in full]
            want = _oracles.interp_positions(idx, frames.keypoints[:, :, :2], full)
            np.testing.assert_allclose(pixels(poses), want, atol=1e-9)

    def test_gap_above_limit_left_open(self):
        got, _ = every_row(track_table([0, 20]), max_gap=14)
        assert got.tolist() == [0, 20]

    def test_gap_at_limit_filled(self):
        got, _ = every_row(track_table([0, 15]), max_gap=14)
        assert got.tolist() == list(range(16))

    def test_interpolated_bbox_is_lerped(self):
        # Each box surrounds its own pose, so a box copied from either end would move the normalized midpoint.
        frames = track_table([0, 2], origins=[(10.0, 20.0), (30.0, 40.0)])
        _, poses = every_row(frames)
        kp, bbox = frames.keypoints[:, :, :2], frames.bbox
        want = normalize_pose(kp.mean(axis=0)[None], bbox.mean(axis=0)[None])
        np.testing.assert_allclose(poses[1], want[0], atol=1e-12)

    def test_originals_pass_through_unchanged(self):
        # Original rows are bit-equal after filling, open gaps included.
        frames = track_table([0, 3, 4, 30])
        got, poses = every_row(frames, max_gap=14)
        kept = np.isin(got, [0, 3, 4, 30])
        assert got.tolist() == list(range(5)) + [30]
        assert poses[kept].tobytes() == normalize_pose(frames.keypoints[:, :, :2], frames.bbox).tobytes()


class TestSmoothing:
    def test_window_must_be_odd(self):
        with pytest.raises(ValidationError, match="smoothing window must be a positive odd integer, got 4"):
            every_row(track_table([0, 1, 2]), smoothing_window=4)

    def test_impulse_response_center(self):
        # A lone spike in a constant run spreads to spike/window at the
        # center once the full window fits.
        n, window = 61, 15
        origins = [(100.0, 100.0)] * n
        origins[30] = (100.0 + 15.0, 100.0)
        _, poses = every_row(track_table(list(range(n)), origins=origins, bbox=BOX), smoothing_window=window)
        center = pixels(poses)[30] - pixels(poses)[0]
        np.testing.assert_allclose(center[:, 0], 15.0 / window, atol=1e-9)
        np.testing.assert_allclose(center[:, 1], 0.0, atol=1e-9)

    def test_matches_scan_oracle_with_edge_shrink(self, rng):
        for _ in range(25):
            n = int(rng.integers(1, 40))
            origins = [(float(x), 80.0) for x in rng.uniform(50, 150, size=n)]
            frames = track_table(list(range(n)), origins=origins, bbox=BOX)
            _, poses = every_row(frames, smoothing_window=15)
            want = _oracles.moving_average_scan(frames.keypoints[:, 0, 0].tolist(), 15)
            np.testing.assert_allclose(pixels(poses)[:, 0, 0], want, atol=1e-9)

    def test_runs_are_smoothed_independently(self):
        # Two runs separated by a gap left open: values from one run must not
        # bleed into the other.
        origins = [(10.0, 50.0), (10.0, 50.0), (1000.0, 50.0), (1000.0, 50.0)]
        frames = track_table([0, 1, 10, 11], origins=origins, bbox=BOX)
        _, poses = every_row(frames, max_gap=1, smoothing_window=3)
        np.testing.assert_allclose(pixels(poses)[:, 0, 0], [10.0, 10.0, 1000.0, 1000.0])

    def test_boxes_are_not_smoothed(self):
        # Each box surrounds its own pose; only the keypoints are averaged.
        origins = [(10.0, 20.0), (30.0, 25.0), (35.0, 60.0), (90.0, 61.0), (91.0, 99.0)]
        frames = track_table(list(range(5)), origins=origins)
        _, poses = every_row(frames, smoothing_window=3)
        flat = frames.keypoints[:, :, :2].reshape(5, -1)
        smoothed = np.stack([_oracles.moving_average_scan(col, 3) for col in flat.T], axis=1)
        np.testing.assert_allclose(poses, normalize_pose(smoothed.reshape(5, 17, 2), frames.bbox), atol=1e-12)


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

    def test_out_takes_the_result_with_the_same_bits(self, rng):
        kps = rng.uniform(0.0, 500.0, size=(30, 17, 2))
        bbox = np.concatenate([kps.min(axis=1), kps.max(axis=1) + 1.0], axis=1)
        want = normalize_pose(kps, bbox)
        assert want is not kps and not np.shares_memory(want, kps)
        out = kps.copy()
        assert normalize_pose(out, bbox, out=out) is out  # in place, as extract_windows does
        assert out.tobytes() == want.tobytes()
        other = np.empty_like(kps)
        assert normalize_pose(kps, bbox, out=other) is other and other.tobytes() == want.tobytes()

    def test_read_only_view_gets_a_new_array(self):
        frames = track_table([0, 1, 2])
        view = frames.keypoints[:, :, :2]
        before = view.tobytes()
        got = normalize_pose(view, frames.bbox)
        assert got.flags.writeable and not np.shares_memory(got, frames.keypoints)
        assert view.tobytes() == before

    def test_degenerate_box_rejected_upstream(self):
        # The frame table itself refuses zero-extent boxes; normalize_pose
        # refuses them too rather than dividing by zero.
        with pytest.raises(ValidationError, match="bounding box must have positive extent"):
            table([make_frame(0, persons=({**make_obs(), "bbox": [5.0, 5.0, 5.0, 5.0]},))])
        with pytest.raises(ValidationError):
            normalize_pose(np.zeros((1, 17, 2)), np.array([[5.0, 5.0, 5.0, 5.0]]))


class TestWindowing:
    def test_count_formula_across_random_triples(self, rng):
        # Track n of the staircase holds n consecutive rows, so one call checks the formula for n = 1..199.
        frames = staircase(199)
        for _ in range(30):
            length = int(rng.integers(2, 40))
            stride = int(rng.integers(1, 12))
            batch = extract_windows(frames, length=length, stride=stride, smoothing_window=1)
            want = [_oracles.window_count(n, length, stride) for n in range(1, 200)]
            assert np.bincount(batch.track_id, minlength=200)[1:].tolist() == want, (length, stride)

    def test_window_fields(self):
        frames = track_table(list(range(30)), track_id=4)
        batch = extract_windows(frames, length=24, stride=6, smoothing_window=1)
        assert len(batch) == 2 and batch.length == 24
        assert batch.rows.tolist() == [0, 6] and batch.track_id.tolist() == [4, 4]
        assert batch.start_frame.tolist() == [0, 6]
        assert batch.covered_frames()[1].tolist() == list(range(6, 30))
        want = normalize_pose(frames.keypoints[:, :, :2], frames.bbox)
        assert batch.poses.tobytes() == want.tobytes()
        assert not batch.poses.flags.writeable
        with pytest.raises(TypeError):
            iter(batch)

    def test_windows_respect_runs(self):
        # 30 frames split into two runs of 15 by an 85-frame gap: too short for length 24.
        frames = track_table(list(range(15)) + list(range(100, 115)))
        empty = extract_windows(frames, length=24, stride=6)
        assert len(empty) == 0 and empty.poses.shape == (30, 17, 2)
        batch = extract_windows(frames, length=10, stride=5)
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
            ds, length=24, stride=6, max_gap=14, smoothing_window=15
        )
        assert batch.start_frame.tolist() == [0, 6, 12]
        assert batch.poses.shape == (40, 17, 2) and np.isfinite(batch.poses).all()

    def test_working_set_is_under_2_6_poses(self):
        # The smoothed rows are normalized in place, so the gathered rows and their smoothed copy are the only
        # table-sized arrays; normalizing into a new array peaks near 3.5 times the bytes of the poses.
        frames = generate_normals(2000, seed=0)
        poses_mb = extract_windows(frames).poses.nbytes / 2**20
        assert working_set_mb(lambda: extract_windows(frames)) < 2.6 * poses_mb

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

    def test_rows_sorted_by_track_then_frame(self):
        # Frame 1 is read first; every row lands in (track_id, frame_index) order with its own values.
        a0 = make_obs(track_id=0, origin=(10, 10))
        a1 = make_obs(track_id=0, origin=(12, 10))
        b0 = make_obs(track_id=1, origin=(90, 90), interpolated=True)
        frames = table([make_frame(1, persons=(a1,)), make_frame(0, persons=(b0, a0))])
        batch = extract_windows(frames, length=1, stride=1, smoothing_window=1)
        assert batch.track_id.tolist() == [0, 0, 1] and batch.start_frame.tolist() == [0, 1, 0]
        kps = np.array([[kp[:2] for kp in obs["keypoints"]] for obs in (a0, a1, b0)])
        want = normalize_pose(kps, np.array([obs["bbox"] for obs in (a0, a1, b0)]))
        assert batch.poses.tobytes() == want.tobytes()

    def test_extract_windows_fills_gaps(self):
        all_frames = walking_dataset(40)
        frames = all_frames.take(np.flatnonzero(all_frames.frame_index != 20))
        wins = extract_windows(
            frames, length=24, stride=6, max_gap=14, smoothing_window=15
        )
        # The gap is interpolated, so coverage is as if nothing was missing.
        assert wins.start_frame.tolist() == [0, 6, 12]

    def test_duplicate_track_frame_pair_rejected(self):
        # A table may repeat a frame_index, though read_frames refuses a file that does.
        frames = table([make_frame(3, persons=(make_obs(),))]).take([0, 0])
        with pytest.raises(ValidationError, match="duplicate observation for track 0 at frame 3"):
            extract_windows(frames)

    @pytest.mark.parametrize(
        "params, message",
        [
            ({"max_gap": 0}, "max_gap must be >= 1, got 0"),
            ({"smoothing_window": 4}, "smoothing window must be a positive odd integer, got 4"),
            ({"smoothing_window": 0}, "smoothing window must be a positive odd integer, got 0"),
            ({"length": 0}, "window length must be >= 1, got 0"),
            ({"stride": 0}, "window stride must be >= 1, got 0"),
        ],
    )
    @pytest.mark.parametrize("persons", [0, 1], ids=["no persons", "one person"])
    def test_parameters_checked_with_or_without_persons(self, params, message, persons):
        frames = table([make_frame(0, persons=(make_obs(),) * persons), make_frame(1)])
        with pytest.raises(ValidationError, match=message):
            extract_windows(frames, **params)


@st.composite
def _tables_and_params(draw):
    """Frame objects of interleaved tracks, in shuffled order, and extract_windows parameters.

    Each track takes steps of 1 frame or gaps below, at and above ``max_gap``,
    and may start on the frame after the previous track (by id) ends; a track
    may hold one row, frames may hold no persons and a table may hold no
    persons at all. Window lengths run past every run.
    """
    max_gap = draw(st.integers(1, 4))
    params = {
        "max_gap": max_gap,
        "smoothing_window": draw(st.sampled_from([1, 3, 15])),
        "length": draw(st.integers(1, 40) | st.just(400)),
        "stride": draw(st.integers(1, 6)),
    }
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    persons, last = {}, 0
    for track_id in sorted(draw(st.lists(st.integers(0, 9), unique=True, max_size=4))):
        fi = draw(st.integers(0, 30) | st.just(last + 1))  # a track may start on the frame after the last one ends
        for _ in range(draw(st.integers(1, 30))):
            kps = make_keypoints(rng.uniform(10.0, 500.0, size=(17, 2)))
            persons.setdefault(fi, []).append(person(kps, track_id=track_id))
            last, fi = fi, fi + 1 + draw(st.sampled_from([0, 0, 0, max_gap - 1, max_gap, max_gap + 1]))
    empty = set(draw(st.lists(st.integers(0, 200), max_size=4))) - set(persons)
    frames = [make_frame(fi, persons=tuple(obs[i] for i in rng.permutation(len(obs)))) for fi, obs in persons.items()]
    frames += [make_frame(fi) for fi in empty]
    return [frames[i] for i in rng.permutation(len(frames))], params


@settings(deadline=None, max_examples=60)
@given(_tables_and_params())
def test_matches_per_track_pipeline(case):
    objects, params = case
    frames = table(objects)
    got = extract_windows(frames, **params)
    want = _oracles.windows_per_track(frames, **params)
    for name, theirs in want.items():
        mine = getattr(got, name)
        assert (mine.dtype, mine.shape) == (theirs.dtype, theirs.shape), name
        assert mine.tobytes() == theirs.tobytes(), name
