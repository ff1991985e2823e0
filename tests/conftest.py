"""Shared builders for hand-sized fixtures."""

from __future__ import annotations

import numpy as np
import pytest

from posebench.model import (
    BoundingBox,
    CameraDataset,
    FrameRecord,
    FrameTable,
    PersonObservation,
    tracks_from_frames,
)


def make_keypoints(points, visibility=0.9):
    """(17, 3) keypoint array from an iterable of (x, y); shorter input is cycled.

    ``visibility=None`` gives NaN visibilities, the form of a JSONL ``null``.
    """
    pts = list(points)
    vis = np.nan if visibility is None else visibility
    rows = []
    for i in range(17):
        x, y = pts[i % len(pts)]
        rows.append((float(x) + 0.01 * i, float(y) + 0.02 * i, vis))
    return np.array(rows)


def box_around(keypoints, pad=2.0):
    xs, ys = keypoints[:, 0], keypoints[:, 1]
    return BoundingBox(
        float(xs.min()) - pad, float(ys.min()) - pad, float(xs.max()) + pad, float(ys.max()) + pad
    )


def make_obs(track_id=0, origin=(50.0, 60.0), interpolated=False, visibility=0.9):
    if interpolated:
        visibility = None
    kps = make_keypoints([origin], visibility)
    return PersonObservation(
        track_id=track_id,
        keypoints=kps,
        bbox=box_around(kps),
        interpolated=interpolated,
    )


def make_frame(frame_index, label="normal", persons=(), camera_id="cam0"):
    regions = (persons[0].bbox,) if label == "anomalous" and persons else ()
    return FrameRecord(
        camera_id=camera_id,
        frame_index=frame_index,
        label=label,
        persons=tuple(persons),
        anomaly_regions=regions,
    )


def make_track(frame_indices, origins=None, track_id=0, camera_id="cam0"):
    """A track with one observation per frame index."""
    if origins is None:
        origins = [(50.0 + 2.0 * i, 60.0 + i) for i in range(len(frame_indices))]
    frames = [
        make_frame(int(fi), persons=(make_obs(track_id=track_id, origin=o),), camera_id=camera_id)
        for fi, o in zip(frame_indices, origins)
    ]
    (track,) = tracks_from_frames(FrameTable.from_records(frames), camera_id)
    return track


def dataset(frames, camera_id="cam0"):
    """A CameraDataset of FrameRecords, which must already be in frame order."""
    return CameraDataset(camera_id=camera_id, frames=FrameTable.from_records(frames))


def walking_dataset(n_frames, camera_id="cam0", track_id=0, start=0, label="normal"):
    """Single person walking diagonally, one frame record per index."""
    frames = []
    for i in range(n_frames):
        obs = make_obs(track_id=track_id, origin=(40.0 + 1.5 * i, 30.0 + 0.5 * i))
        frames.append(make_frame(start + i, label=label, persons=(obs,), camera_id=camera_id))
    return dataset(frames, camera_id)


@pytest.fixture
def rng():
    return np.random.default_rng(0)
