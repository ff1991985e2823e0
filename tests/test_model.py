from dataclasses import replace

import numpy as np
import pytest

from posebench.errors import ValidationError
from posebench.model import (
    BoundingBox,
    CameraDataset,
    FrameRecord,
    JOINT_NAMES,
    PersonObservation,
    SplitSet,
    tracks_from_frames,
)
from conftest import make_frame, make_keypoints, make_obs, make_track, box_around


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
        with pytest.raises(ValidationError):
            CameraDataset(camera_id="cam0", frames=frames)

    def test_requires_matching_camera(self):
        frames = (make_frame(0), make_frame(1, camera_id="other"))
        with pytest.raises(ValidationError):
            CameraDataset(camera_id="cam0", frames=frames)

    def test_duplicate_index_rejected(self):
        frames = (make_frame(1), make_frame(1))
        with pytest.raises(ValidationError):
            CameraDataset(camera_id="cam0", frames=frames)


class TestSplitSet:
    def test_train_must_be_normal(self):
        train = CameraDataset(
            camera_id="cam0",
            frames=(make_frame(0, label="anomalous", persons=(make_obs(),)),),
        )
        test = CameraDataset(camera_id="cam0", frames=(make_frame(5),))
        with pytest.raises(ValidationError):
            SplitSet(train=train, test=test)

    def test_disjoint_frame_indices(self):
        train = CameraDataset(camera_id="cam0", frames=(make_frame(0),))
        test = CameraDataset(camera_id="cam0", frames=(make_frame(0),))
        with pytest.raises(ValidationError):
            SplitSet(train=train, test=test)

    def test_camera_id_property(self):
        train = CameraDataset(camera_id="cam0", frames=(make_frame(0),))
        test = CameraDataset(camera_id="cam0", frames=(make_frame(1),))
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
        tracks = tracks_from_frames(frames, "cam0")
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
        with pytest.raises(ValidationError):
            tracks_from_frames(frames, "cam0")
