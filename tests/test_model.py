import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _oracles
from posebench.errors import ValidationError
from posebench.io import load_dataset, write_frames
from posebench.model import (
    BoundingBox,
    FrameRecord,
    FrameTable,
    JOINT_NAMES,
    PersonObservation,
    RowError,
    SplitSet,
    tracks_from_frames,
)
from conftest import box_around, dataset, make_frame, make_keypoints, make_obs, make_track


def test_joint_layout():
    assert len(JOINT_NAMES) == 17
    assert JOINT_NAMES[0] == "nose"
    assert JOINT_NAMES[-1] == "right_ankle"


def obs_with_joint(row):
    """A valid observation whose first joint is replaced by ``row`` = (x, y, visibility)."""
    kps = make_keypoints([(10, 10)])
    box = box_around(kps)
    kps[0] = row
    return PersonObservation(track_id=0, keypoints=kps, bbox=box)


class TestKeypoint:
    """Per-joint rules of the (17, 3) keypoint array."""

    def test_valid(self):
        kps = obs_with_joint((1.0, 2.0, 0.5)).keypoints
        assert kps.dtype == np.float64 and kps.shape == (17, 3)
        assert kps[0].tolist() == [1.0, 2.0, 0.5]
        assert not kps.flags.writeable

    def test_visibility_may_be_absent(self):
        assert np.isnan(obs_with_joint((0.0, 0.0, None)).keypoints[0, 2])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValidationError, match="coordinates must be finite"):
            obs_with_joint((bad, 0.0, 0.5))
        with pytest.raises(ValidationError, match="coordinates must be finite"):
            obs_with_joint((0.0, bad, 0.5))

    @pytest.mark.parametrize("bad", [-0.1, 1.1, 2.0])
    def test_rejects_out_of_range_visibility(self, bad):
        with pytest.raises(ValidationError, match="visibility must be in"):
            obs_with_joint((0.0, 0.0, bad))


class TestBoundingBox:
    def test_geometry(self):
        b = BoundingBox(0.0, 0.0, 3.0, 4.0)
        assert b.area() == 12.0

    def test_rejects_inverted(self):
        with pytest.raises(ValidationError):
            BoundingBox(3.0, 0.0, 1.0, 4.0)
        with pytest.raises(ValidationError):
            BoundingBox(0.0, 4.0, 3.0, 4.0)

    def test_rejects_negative(self):
        with pytest.raises(ValidationError):
            BoundingBox(-1.0, 0.0, 3.0, 4.0)


class TestPersonObservation:
    def test_requires_17_keypoints(self):
        kps = make_keypoints([(10, 10)])[:16]
        with pytest.raises(ValidationError):
            PersonObservation(track_id=0, keypoints=kps, bbox=BoundingBox(0, 0, 20, 20))

    def test_interpolated_must_have_absent_visibility(self):
        kps = make_keypoints([(10, 10)], visibility=0.9)
        with pytest.raises(ValidationError):
            PersonObservation(
                track_id=0, keypoints=kps, bbox=box_around(kps), interpolated=True
            )

    def test_absent_visibility_requires_interpolated_flag(self):
        kps = make_keypoints([(10, 10)], visibility=None)
        with pytest.raises(ValidationError):
            PersonObservation(track_id=0, keypoints=kps, bbox=box_around(kps))

    def test_interpolated_roundtrip(self):
        obs = make_obs(interpolated=True)
        assert obs.interpolated
        assert np.isnan(obs.keypoints[:, 2]).all()

    def test_ids_must_fit_int64(self):
        kps = make_keypoints([(10, 10)])
        PersonObservation(track_id=2**63 - 1, keypoints=kps, bbox=box_around(kps))
        for bad in (2**63, -1, True, 1.0):
            with pytest.raises(ValidationError, match="track_id must be"):
                PersonObservation(track_id=bad, keypoints=kps, bbox=box_around(kps))
            with pytest.raises(ValidationError, match="frame_index must be"):
                FrameRecord(camera_id="cam0", frame_index=bad, label="normal")

    def test_equality_is_bitwise_on_keypoints(self):
        # NaN visibilities compare equal; one changed bit in one joint does not.
        assert make_obs(interpolated=True) == make_obs(interpolated=True)
        kps = make_keypoints([(10, 10)])
        box = box_around(kps)
        nudged = kps.copy()
        nudged[16, 1] = np.nextafter(nudged[16, 1], np.inf)
        obs = PersonObservation(track_id=0, keypoints=kps.copy(), bbox=box)
        assert obs == PersonObservation(track_id=0, keypoints=kps, bbox=box)
        assert obs != PersonObservation(track_id=0, keypoints=nudged, bbox=box)
        assert obs != PersonObservation(track_id=1, keypoints=kps, bbox=box)


class TestFrameRecord:
    def test_normal_frame_rejects_anomaly_regions(self):
        obs = make_obs()
        with pytest.raises(ValidationError):
            FrameRecord(
                camera_id="cam0",
                frame_index=0,
                label="normal",
                persons=(obs,),
                anomaly_regions=(obs.bbox,),
            )

    def test_is_anomalous(self):
        assert make_frame(0, label="anomalous", persons=(make_obs(),)).is_anomalous
        assert not make_frame(0).is_anomalous

    def test_bad_label(self):
        with pytest.raises(ValidationError):
            FrameRecord(camera_id="cam0", frame_index=0, label="odd")
        with pytest.raises(ValidationError):
            FrameRecord(camera_id="cam0", frame_index=0, label=7)
        with pytest.raises(ValidationError, match="camera_id must be a non-empty string"):
            FrameRecord(camera_id=7, frame_index=0, label="normal")


class TestCameraDataset:
    def test_requires_increasing_frame_indices(self):
        frames = (make_frame(2), make_frame(1))
        with pytest.raises(ValidationError, match="in strictly increasing frame_index"):
            dataset(frames)

    def test_requires_matching_camera(self):
        frames = (make_frame(0), make_frame(1, camera_id="other"))
        with pytest.raises(ValidationError, match="dataset 'cam0' must hold only its frames"):
            dataset(frames)

    def test_duplicate_index_rejected(self):
        frames = (make_frame(1), make_frame(1))
        with pytest.raises(ValidationError):
            dataset(frames)


class TestSplitSet:
    def test_train_must_be_normal(self):
        train = dataset([make_frame(0, label="anomalous", persons=(make_obs(),))])
        test = dataset([make_frame(5)])
        with pytest.raises(ValidationError, match="train frame 0 is not labeled normal"):
            SplitSet(train=train, test=test)

    def test_disjoint_frame_indices(self):
        train = dataset([make_frame(0)])
        test = dataset([make_frame(0)])
        with pytest.raises(ValidationError, match=r"share frame indices \(e.g. 0\)"):
            SplitSet(train=train, test=test)

    def test_camera_id_property(self):
        train = dataset([make_frame(0)])
        test = dataset([make_frame(1)])
        assert SplitSet(train=train, test=test).camera_id == "cam0"


class TestTracks:
    def test_track_orders_and_matches(self):
        good = make_track([1, 5])
        with pytest.raises(ValidationError):
            replace(good, frames=np.array([5, 5]))
        with pytest.raises(ValidationError):
            replace(good, frames=np.array([5, 1]))
        with pytest.raises(ValidationError):
            replace(good, bbox=good.bbox[:1])
        with pytest.raises(ValidationError):
            replace(good, keypoints=good.keypoints[:, :16])

    def test_tracks_from_frames_buckets_by_id(self):
        a0 = make_obs(track_id=0, origin=(10, 10))
        a1 = make_obs(track_id=0, origin=(12, 10))
        b0 = make_obs(track_id=1, origin=(90, 90), interpolated=True)
        frames = [
            make_frame(1, persons=(a1,)),
            make_frame(0, persons=(a0, b0)),
        ]
        tracks = tracks_from_frames(FrameTable.from_records(frames), "cam0")
        assert [t.track_id for t in tracks] == [0, 1]
        assert tracks[0].frames.tolist() == [0, 1]
        assert tracks[1].frames.tolist() == [0]
        # Every column follows the frame order, not the input order.
        for row, obs in enumerate((a0, a1)):
            assert tracks[0].keypoints[row].tolist() == obs.keypoints[:, :2].tolist()
            assert tuple(tracks[0].bbox[row]) == obs.bbox.as_tuple()
        assert tracks[0].interpolated.tolist() == [False, False]
        assert tracks[1].interpolated.tolist() == [True]

    def test_duplicate_track_frame_pair_rejected(self):
        a = make_obs(track_id=0)
        frames = [make_frame(0, persons=(a, a))]
        with pytest.raises(ValidationError, match="duplicate observation for track 0 at frame 0"):
            tracks_from_frames(FrameTable.from_records(frames), "cam0")


@st.composite
def _shuffled_frames(draw):
    """Frame records in random order, with gaps, several tracks, and repeats when ``unique`` is false."""
    unique = draw(st.booleans())
    indices = draw(st.lists(st.integers(0, 60), min_size=1, max_size=20, unique=unique))
    coord = st.floats(min_value=10.0, max_value=500.0)
    frames = []
    for fi in indices:
        tracks = draw(st.lists(st.integers(0, 3), max_size=4, unique=unique))
        persons = tuple(
            make_obs(track_id=t, origin=(draw(coord), draw(coord)), interpolated=draw(st.booleans()))
            for t in tracks
        )
        frames.append(make_frame(fi, persons=persons))
    return draw(st.permutations(frames))


@settings(deadline=None)
@given(_shuffled_frames())
def test_track_assembly_matches_bucketing_oracle(frames):
    table = FrameTable.from_records(frames)
    try:
        want = _oracles.tracks_by_bucketing(frames)
    except ValueError:
        with pytest.raises(ValidationError, match="duplicate observation"):
            tracks_from_frames(table, "cam0")
        return
    got = tracks_from_frames(table, "cam0")
    assert [t.track_id for t in got] == [tid for tid, *_ in want]
    for track, (_, *columns) in zip(got, want):
        mine = (track.frames, track.keypoints, track.bbox, track.interpolated)
        for a, b in zip(mine, columns):
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    fis = [fr.frame_index for fr in frames]
    if len(set(fis)) == len(fis):
        # The file round trip gives the dataset built straight from the records.
        direct = dataset(sorted(frames, key=lambda fr: fr.frame_index))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp, "frames.jsonl")
            write_frames(table, path)
            assert load_dataset(path) == direct


class TestFrameTable:
    def frames(self):
        return [
            make_frame(5, persons=(make_obs(track_id=0), make_obs(track_id=1, origin=(90, 90)))),
            make_frame(2),
            make_frame(7, label="anomalous", persons=(make_obs(track_id=1, interpolated=True),)),
        ]

    def test_records_round_trip(self):
        frames = self.frames()
        table = FrameTable.from_records(frames)
        assert table.records() == frames
        assert table.frame_row.tolist() == [0, 0, 2]
        assert table.region_frame.tolist() == [2]
        assert table.line.tolist() == [1, 2, 3]

    def test_take_regroups_persons_and_regions(self):
        frames = self.frames()
        table = FrameTable.from_records(frames)
        taken = table.take([2, 0, 2])
        assert taken.records() == [frames[2], frames[0], frames[2]]
        assert taken.line.tolist() == [3, 1, 3]
        assert taken.frame_row.tolist() == [0, 1, 1, 2]
        assert table.take([]).records() == []

    def test_concat_and_equality_ignore_lines(self):
        frames = self.frames()
        table = FrameTable.from_records(frames)
        joined = FrameTable.concat(table.take([0]), table.take([1, 2]))
        assert joined == table
        assert joined.records() == frames
        assert table.take([1, 0, 2]) != table
        assert replace(table, line=np.array([4, 5, 6])) == table

    @pytest.mark.parametrize(
        "column,value,row,message",
        [
            ("bbox", [[0.0, 0.0, 0.0, 5.0]], 0, "bounding box must have positive extent"),
            ("track_id", [-1], 0, "track_id must be a non-negative 64-bit integer, got -1"),
            ("interpolated", [True], 0, "interpolated observation must have no keypoint visibility"),
            ("frame_index", [3, -2], 1, "frame_index must be a non-negative 64-bit integer, got -2"),
            ("camera_id", ["cam0", ""], 1, "camera_id must be a non-empty string"),
            ("anomalous", [False, False], 1, r"normal frame must not carry anomaly regions \(frame 4\)"),
        ],
    )
    def test_value_rules_name_the_row(self, column, value, row, message):
        frames = [
            make_frame(3, persons=(make_obs(track_id=0),)),
            make_frame(4, label="anomalous", persons=(make_obs(track_id=1),)),
        ]
        table = FrameTable.from_records(frames)
        old = getattr(table, column)
        if column == "camera_id":
            new = np.array(value, dtype=object)
        else:
            new = old.copy()
            new[: len(value)] = value
        with pytest.raises(RowError, match=message) as info:
            replace(table, **{column: new})
        assert info.value.row == row

    def test_first_broken_rule_in_row_order(self):
        table = FrameTable.from_records([make_frame(3, persons=(make_obs(),)), make_frame(4)])
        frame_index = np.array([3, -4])
        kps = table.keypoints.copy()
        kps[0, 2, 0] = np.inf
        with pytest.raises(RowError, match=r"right_eye coordinates must be finite, got \[ *inf") as info:
            replace(table, frame_index=frame_index, keypoints=kps)
        assert info.value.row == 0

    def test_columns_must_agree(self):
        table = FrameTable.from_records(self.frames())
        with pytest.raises(ValidationError, match="columns disagree"):
            replace(table, anomalous=table.anomalous[:2])
        with pytest.raises(ValidationError, match="grouped by frame row"):
            replace(table, frame_row=table.frame_row[::-1].copy())
