"""Shared builders for hand-sized fixtures."""

from __future__ import annotations

import dataclasses
import json
import os
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from posebench import _kernels
from posebench.io import read_frames
from posebench.model import FrameTable
from posebench.preprocess import WindowBatch, extract_windows

# A box of diagonal 500 centered on (150, 200): against it a pose normalizes to (keypoints - (150, 200)) / 500.
BOX = [0.0, 0.0, 300.0, 400.0]


def pixels(poses):
    """Keypoints of poses normalized against BOX, back in pixels."""
    return poses * 500.0 + (150.0, 200.0)


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
    """[x1, y1, x2, y2] around a (17, 3) keypoint array."""
    xs, ys = keypoints[:, 0], keypoints[:, 1]
    return [float(xs.min()) - pad, float(ys.min()) - pad, float(xs.max()) + pad, float(ys.max()) + pad]


def person(keypoints, track_id=0, bbox=None, interpolated=False):
    """A person object of the JSONL schema; NaN visibilities become null."""
    keypoints = np.asarray(keypoints, dtype=np.float64)
    rows = [[x, y, None if np.isnan(v) else v] for x, y, v in keypoints.tolist()]
    bbox = box_around(keypoints) if bbox is None else bbox
    return {"track_id": track_id, "bbox": bbox, "interpolated": interpolated, "keypoints": rows}


def make_obs(track_id=0, origin=(50.0, 60.0), interpolated=False, visibility=0.9):
    if interpolated:
        visibility = None
    return person(make_keypoints([origin], visibility), track_id=track_id, interpolated=interpolated)


def make_frame(frame_index, label="normal", persons=(), camera_id="cam0"):
    """A frame object of the JSONL schema; an anomalous frame's region is its first person's box."""
    regions = [list(persons[0]["bbox"])] if label == "anomalous" and persons else []
    return {
        "camera_id": camera_id,
        "frame_index": frame_index,
        "label": label,
        "anomaly_regions": regions,
        "persons": list(persons),
    }


def table(frames):
    """The FrameTable that read_frames gives for a file holding one JSON line per frame object; read_frames refuses
    an empty file, so no objects give the empty table of camera cam0."""
    if not frames:
        return table([make_frame(0)]).take([])
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "frames.jsonl")
        path.write_text("".join(json.dumps(fr) + "\n" for fr in frames))
        return read_frames(path)


def track_table(frame_indices, origins=None, track_id=0, bbox=None):
    """A table of one track with one observation per frame index, in that order.

    Each observation's box is ``bbox``, or a box around its keypoints when None.
    """
    if origins is None:
        origins = [(50.0 + 2.0 * i, 60.0 + i) for i in range(len(frame_indices))]
    frames = [
        make_frame(int(fi), persons=(person(make_keypoints([o]), track_id=track_id, bbox=bbox),))
        for fi, o in zip(frame_indices, origins)
    ]
    return table(frames)


def every_row(frames, max_gap=14, smoothing_window=1):
    """(frame, normalized pose) of every row that extract_windows builds: with length 1 and stride 1 each row is a
    window."""
    batch = extract_windows(frames, length=1, stride=1, max_gap=max_gap, smoothing_window=smoothing_window)
    return batch.start_frame, batch.poses


def staircase(n_max):
    """A table of tracks 1..n_max built from columns: track n is on frames 0..n-1, every box is BOX."""
    persons = n_max - np.arange(n_max)  # frame f holds tracks f+1..n_max
    m = int(persons.sum())
    return FrameTable(
        camera_id="cam0",
        frame_index=np.arange(n_max),
        anomalous=np.zeros(n_max, dtype=bool),
        region_frame=np.empty(0, dtype=np.int64),
        regions=np.empty((0, 4)),
        frame_row=np.repeat(np.arange(n_max), persons),
        track_id=np.concatenate([np.arange(f + 1, n_max + 1) for f in range(n_max)]),
        keypoints=np.tile(make_keypoints([(150.0, 200.0)]), (m, 1, 1)),
        bbox=np.tile(BOX, (m, 1)),
    )


def walking_dataset(n_frames, camera_id="cam0", track_id=0, start=0, label="normal"):
    """Single person walking diagonally, one frame per index."""
    frames = []
    for i in range(n_frames):
        obs = make_obs(track_id=track_id, origin=(40.0 + 1.5 * i, 30.0 + 0.5 * i))
        frames.append(make_frame(start + i, label=label, persons=(obs,), camera_id=camera_id))
    return table(frames)


def window_batch(features, start_frame=0):
    """A WindowBatch with each (length, 17, 2) array of ``features`` as one window over rows of its own."""
    features = np.asarray(features, dtype=np.float64)
    n, length = features.shape[:2]
    return WindowBatch(
        poses=features.reshape(-1, 17, 2).copy(),
        rows=np.arange(n, dtype=np.int64) * length,
        track_id=np.zeros(n, dtype=np.int64),
        start_frame=np.arange(n, dtype=np.int64) * length + start_frame,
        length=length,
    )


def dense_windows(matrix):
    """A dense (n, d) ``matrix`` as n windows of length 1 over its own rows: the kNN kernel's (rows, index) pair."""
    return matrix, np.arange(len(matrix))[:, None]


def dense_knn_mean(stored, queries, k):
    """Mean distance from each dense query row to its k nearest dense ``stored`` rows, by a fresh kNN kernel scan."""
    kd = _kernels.knn_k_smallest(*dense_windows(stored), _kernels.knn_queries(*dense_windows(queries)), k)
    return np.sqrt(kd).mean(axis=1)


# The checks of rearrange.verify that a rearrangement which rearrange returns never fails.
INVARIANTS = ("slice count", "empty slice", "stream anomaly fraction", "both test labels", "test imbalance")


def break_invariant(cs, invariant):
    """Damage the ContinualSplit ``cs`` so that the first check of ``verify`` it fails is ``invariant``; its stream
    must hold an injected anomaly. Returns a pattern of the message after ``invariant violated: ``."""
    if invariant == "slice count":
        cs.slices.pop()
        return rf"expected {cs.plan.k} slices, found {cs.plan.k - 1}"
    if invariant == "empty slice":
        cs.slices[-1] = cs.slices[-1][:0]
        return "empty slice"
    if invariant == "stream anomaly fraction":
        cs.plan = dataclasses.replace(cs.plan, target_train_anomaly_ratio=1e-6)
        return r"train anomaly fraction 0\.\d{6} >= target 1e-06"
    anomalous = cs.split.test.anomalous[cs.test_rows]
    if invariant == "both test labels":
        cs.test_rows = cs.test_rows[~anomalous]
        return "test set must keep both labels"
    assert invariant == "test imbalance"
    cs.test_rows = np.delete(cs.test_rows, np.flatnonzero(anomalous)[0])
    return rf"test imbalance 0\.\d{{6}} exceeds tolerance {cs.plan.balance_tolerance}"


def working_set_mb(fn):
    """Peak traced allocation of one call, in MB above what was live before it."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail a test that leaves a child process unreaped, running or exited."""
    yield
    try:
        pid, status = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:  # no child at all
        return
    left = f"child {pid} exited unreaped (wait status {status})" if pid else "a child process is still running"
    pytest.fail(f"the test left {left}")


@pytest.fixture
def rng():
    return np.random.default_rng(0)
