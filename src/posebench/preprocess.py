"""Track preprocessing: gap interpolation, smoothing, normalization, windowing.

The pipeline order is interpolate -> smooth -> window. Interpolation fills
internal gaps only (no extrapolation past track ends); smoothing and
windowing both operate per maximal run of consecutive frames, so an
unfilled gap splits a track into independent runs. ``extract_windows``
returns one ``WindowBatch``: the normalized rows of all tracks in one
read-only array, and per window its first row, track id and start frame.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ValidationError
from .model import KEYPOINT_COUNT, FrameTable, Track, tracks_from_frames


@dataclass(frozen=True, eq=False)
class WindowBatch:
    """Fixed-length windows over one read-only table of normalized pose rows.

    ``poses`` (R, 17, 2) holds every normalized row of every track once,
    tracks in track_id order. Window ``i`` is ``poses[rows[i] : rows[i] +
    length]``, the observations of track ``track_id[i]`` at the consecutive
    frames ``start_frame[i] + arange(length)``. The batch is not iterable:
    scorers and the runner read its arrays, never one window object at a time.
    """

    poses: np.ndarray
    rows: np.ndarray
    track_id: np.ndarray
    start_frame: np.ndarray
    length: int

    def __post_init__(self):
        self.poses.flags.writeable = False
        if not np.isfinite(self.poses).all():
            raise ValidationError("normalized poses must be finite")

    def __len__(self) -> int:
        return self.rows.size

    def covered_frames(self) -> np.ndarray:
        """(n, length) frame indices of each window."""
        return self.start_frame[:, None] + np.arange(self.length)


def _runs(frames: np.ndarray) -> list[tuple[int, int]]:
    """(start, stop) row ranges of the maximal runs of consecutive frames."""
    edges = [0, *(np.flatnonzero(np.diff(frames) != 1) + 1).tolist(), len(frames)]
    return list(zip(edges, edges[1:]))


def interpolate_track(track: Track, max_gap: int = 14) -> Track:
    """Fill internal gaps of up to max_gap frames by per-keypoint linear interpolation.

    Inserted rows are marked interpolated and get a linearly interpolated
    bounding box: ``a + t * (b - a)`` with ``t = (f - f0) / (f1 - f0)``.
    Original rows are kept bit for bit. Gaps longer than max_gap are left
    open; leading/trailing absence is never extrapolated.
    """
    if max_gap < 1:
        raise ValidationError(f"max_gap must be >= 1, got {max_gap}")
    if len(track) < 2:
        return track
    gaps = np.diff(track.frames) - 1
    fill = np.where((gaps >= 1) & (gaps <= max_gap), gaps, 0)
    left = np.repeat(np.arange(fill.size), fill)
    # Offset f - f0 of every inserted row from its gap's left frame: 1..gap.
    step = np.arange(left.size) - np.repeat(np.cumsum(fill) - fill, fill) + 1
    f0 = track.frames[left]
    t = step / (track.frames[left + 1] - f0)
    kp0, kp1 = track.keypoints[left], track.keypoints[left + 1]
    b0, b1 = track.bbox[left], track.bbox[left + 1]
    frames = np.concatenate([track.frames, f0 + step])
    order = np.argsort(frames, kind="stable")
    return Track(
        track_id=track.track_id,
        frames=frames[order],
        keypoints=np.concatenate([track.keypoints, kp0 + t[:, None, None] * (kp1 - kp0)])[order],
        bbox=np.concatenate([track.bbox, b0 + t[:, None] * (b1 - b0)])[order],
        interpolated=np.concatenate([track.interpolated, np.ones(left.size, dtype=bool)])[order],
    )


def _centered_moving_average(flat: np.ndarray, window: int) -> np.ndarray:
    n = flat.shape[0]
    h = window // 2
    out = np.empty((n, flat.shape[1]), dtype=np.float64)
    if n >= window:
        sw = np.lib.stride_tricks.sliding_window_view(flat, window, axis=0)
        out[h : n - h] = sw.mean(axis=-1)
        boundary = list(range(h)) + list(range(n - h, n))
    else:
        boundary = list(range(n))
    for i in boundary:
        hw = min(i, n - 1 - i, h)
        out[i] = flat[i - hw : i + hw + 1].mean(axis=0)
    return out


def smooth_track(track: Track, window: int = 15) -> Track:
    """Replace keypoint coordinates by a centered moving average per run.

    The window shrinks symmetrically near run boundaries. Window must be a
    positive odd integer; window 1 is the identity. Bounding boxes and
    interpolated flags pass through unchanged.
    """
    if window < 1 or window % 2 == 0:
        raise ValidationError(f"smoothing window must be a positive odd integer, got {window}")
    if window == 1 or len(track) == 0:
        return track
    keypoints = np.empty_like(track.keypoints)
    for start, stop in _runs(track.frames):
        flat = track.keypoints[start:stop].reshape(stop - start, -1)
        keypoints[start:stop] = _centered_moving_average(flat, window).reshape(-1, KEYPOINT_COUNT, 2)
    return replace(track, keypoints=keypoints)


def normalize_pose(keypoints: np.ndarray, bbox: np.ndarray) -> np.ndarray:
    """Translate each row's keypoints so its bbox center is the origin, scale by the bbox diagonal.

    ``keypoints`` is (n, 17, 2) and ``bbox`` (n, 4); returns (n, 17, 2). The
    result is invariant to translating the person and box together and to
    uniform scaling about the box center. The diagonal is ``math.hypot`` per
    row, because ``np.hypot`` can differ from it in the last bit.
    """
    extent = bbox[:, 2:] - bbox[:, :2]
    diag = np.array([math.hypot(w, h) for w, h in extent.tolist()], dtype=np.float64)
    if not np.all(np.isfinite(diag) & (diag > 0.0)):
        raise ValidationError("cannot normalize pose against a degenerate bounding box")
    center = (bbox[:, :2] + bbox[:, 2:]) / 2.0
    return (keypoints - center[:, None, :]) / diag[:, None, None]


def window_track(track: Track, length: int = 24, stride: int = 6) -> WindowBatch:
    """Cut a track into fixed-length windows over its normalized rows.

    Windows start every ``stride`` observations within each maximal run of
    consecutive frames; a run of n observations yields
    max(0, (n - length) // stride + 1) windows. Windows never span an
    unfilled gap. Every row of the track is normalized once, windowed or not.
    """
    if length < 1:
        raise ValidationError(f"window length must be >= 1, got {length}")
    if stride < 1:
        raise ValidationError(f"window stride must be >= 1, got {stride}")
    starts = [s for start, stop in _runs(track.frames) for s in range(start, stop - length + 1, stride)]
    rows = np.array(starts, dtype=np.int64)
    return WindowBatch(
        poses=normalize_pose(track.keypoints, track.bbox),
        rows=rows,
        track_id=np.full(rows.size, track.track_id, dtype=np.int64),
        start_frame=track.frames[rows],
        length=length,
    )


def extract_windows(
    frames: FrameTable,
    *,
    length: int = 24,
    stride: int = 6,
    max_gap: int = 14,
    smoothing_window: int = 15,
) -> WindowBatch:
    """Full preprocessing pipeline from a frame table to one window batch.

    Deterministic: tracks are processed in track_id order, their rows are
    stacked in that order, and windows follow in scan order within each track.
    """
    batches = []
    for track in tracks_from_frames(frames):
        track = smooth_track(interpolate_track(track, max_gap=max_gap), window=smoothing_window)
        batches.append(window_track(track, length=length, stride=stride))
    offsets = np.cumsum([0] + [len(b.poses) for b in batches])
    return WindowBatch(
        poses=np.concatenate([np.empty((0, KEYPOINT_COUNT, 2)), *(b.poses for b in batches)]),
        rows=np.concatenate([np.empty(0, np.int64), *(b.rows + o for b, o in zip(batches, offsets))]),
        track_id=np.concatenate([np.empty(0, np.int64), *(b.track_id for b in batches)]),
        start_frame=np.concatenate([np.empty(0, np.int64), *(b.start_frame for b in batches)]),
        length=length,
    )
