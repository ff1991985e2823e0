"""Preprocessing: gap interpolation, smoothing, normalization, windowing.

``extract_windows`` works on one row set, the table's person rows sorted by
(track_id, frame_index). Interpolation fills internal gaps of a track only
(no extrapolation past its ends), each filled row in its place in that
order. A run is a maximal stretch of consecutive frames of one track;
smoothing and windowing both operate per run, so an unfilled gap splits a
track into independent runs. The result is one ``WindowBatch``: the
normalized rows in one read-only array, and per window its first row, track
id and start frame.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .model import KEYPOINT_COUNT, FrameTable


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


def _centered_moving_average(flat: np.ndarray, edges: np.ndarray, window: int) -> np.ndarray:
    """Each run ``flat[edges[j] : edges[j + 1]]`` averaged over ``window`` rows centred on each row.

    Near a run's ends the window shrinks symmetrically to half-width
    ``min(i, n - 1 - i)`` for row ``i`` of ``n``. A row whose full window lies
    in its run takes its mean from one sliding-window reduction over all rows
    (whose windows across run ends are overwritten); the rows of each smaller
    half-width, across all runs, take theirs from one gathered reduction: one
    per half-width some row has, below ``window // 2``, so past twice the
    longest run the cost stops growing with ``window``. Either way each mean adds the window's rows in
    order and divides once, as ``mean(axis=0)`` of the window alone does, so
    the bits do not depend on the grouping.
    """
    n, h = len(flat), window // 2
    out = np.empty_like(flat)
    if n >= window:
        np.lib.stride_tricks.sliding_window_view(flat, window, axis=0).mean(axis=-1, out=out[h : n - h])
    lengths = np.diff(edges)
    pos = np.arange(n) - np.repeat(edges[:-1], lengths)
    half = np.minimum(pos, np.repeat(lengths, lengths) - 1 - pos)
    for width in range(min(h, int(half.max()) + 1) if n else 0):
        rows = np.flatnonzero(half == width)
        out[rows] = flat[rows[:, None] + np.arange(-width, width + 1)].mean(axis=1)
    return out


def normalize_pose(keypoints: np.ndarray, bbox: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Translate each row's keypoints so its bbox center is the origin, scale by the bbox diagonal.

    ``keypoints`` is (n, 17, 2) and ``bbox`` (n, 4); returns (n, 17, 2), in ``out`` if given (it may be
    ``keypoints``: subtracting the center, then dividing by the diagonal, reads each value once before writing it). The
    result is invariant to translating the person and box together and to uniform scaling about the box center. The
    diagonal is ``math.hypot`` per row, because ``np.hypot`` can differ from it in the last bit.
    """
    extent = bbox[:, 2:] - bbox[:, :2]
    diag = np.array([math.hypot(w, h) for w, h in extent.tolist()], dtype=np.float64)
    if not np.all(np.isfinite(diag) & (diag > 0.0)):
        raise ValidationError("cannot normalize pose against a degenerate bounding box")
    center = (bbox[:, :2] + bbox[:, 2:]) / 2.0
    return np.divide(np.subtract(keypoints, center[:, None, :], out=out), diag[:, None, None], out=out)


def extract_windows(
    frames: FrameTable,
    *,
    length: int = 24,
    stride: int = 6,
    max_gap: int = 14,
    smoothing_window: int = 15,
) -> WindowBatch:
    """Full preprocessing pipeline from a frame table to one window batch.

    The parameters are checked first. The table's person rows are sorted by (track_id, frame_index), and a repeated
    pair raises. Each gap of 1..``max_gap`` frames between rows of one track is filled by linear interpolation of
    keypoints and box, ``a + t * (b - a)`` with ``t = (f - f0) / (f1 - f0)``; longer gaps stay open, nothing is
    extrapolated past a track's ends, and the rows read are kept bit for bit. Keypoints are then replaced by a centered
    moving average over ``smoothing_window`` (a positive odd integer) rows of their run, the window shrinking
    symmetrically near run ends; boxes are not smoothed. Every row is normalized, and windows start every ``stride``
    rows of each run: a run of n rows yields max(0, (n - length) // stride + 1) windows. The smoothed rows are
    normalized in place, so the traced peak allocation stays under 2.6 times the bytes of ``poses`` (2.45 on the
    6000-frame train table of ``standard-gaussian-large``).
    """
    if max_gap < 1:
        raise ValidationError(f"max_gap must be >= 1, got {max_gap}")
    if smoothing_window < 1 or smoothing_window % 2 == 0:
        raise ValidationError(f"smoothing window must be a positive odd integer, got {smoothing_window}")
    if length < 1:
        raise ValidationError(f"window length must be >= 1, got {length}")
    if stride < 1:
        raise ValidationError(f"window stride must be >= 1, got {stride}")
    frame_index = frames.frame_index[frames.frame_row]
    order = np.lexsort((frame_index, frames.track_id))
    track_id, frame_index = frames.track_id[order], frame_index[order]
    same_track, gap = track_id[1:] == track_id[:-1], np.diff(frame_index) - 1
    dup = np.flatnonzero(same_track & (gap == -1))
    if dup.size:
        raise ValidationError(f"duplicate observation for track {track_id[dup[0]]} at frame {frame_index[dup[0]]}")
    # Sorted row i is followed by fill[i] inserted rows; at[i] is where it lands.
    fill = np.zeros(order.size, dtype=np.int64)
    fill[:-1] = np.where(same_track & (gap >= 1) & (gap <= max_gap), gap, 0)
    at = np.arange(order.size) + np.cumsum(fill) - fill
    src = np.repeat(np.arange(order.size), fill + 1)  # the sorted row each row is, or follows
    offset = np.arange(src.size) - at[src]  # frames past that row: 0 for a sorted row
    track_id, frame_index = track_id[src], frame_index[src] + offset
    keypoints = frames.keypoints[order[src], :, :2].reshape(src.size, 2 * KEYPOINT_COUNT)
    bbox = frames.bbox[order[src]]
    # An inserted row starts as a copy of the row before its gap, a, and moves to a + t * (b - a).
    new = np.flatnonzero(offset)
    t = (offset[new] / (gap[src[new]] + 1))[:, None]
    right = at[src[new] + 1]
    keypoints[new] += t * (keypoints[right] - keypoints[new])
    bbox[new] += t * (bbox[right] - bbox[new])
    run_breaks = (np.diff(frame_index) != 1) | (track_id[1:] != track_id[:-1])
    edges = [0, *(np.flatnonzero(run_breaks) + 1).tolist(), src.size]
    keypoints = _centered_moving_average(keypoints, np.array(edges), smoothing_window).reshape(-1, KEYPOINT_COUNT, 2)
    starts = []
    for a, b in zip(edges, edges[1:]):
        starts += range(a, b - length + 1, stride)
    starts = np.array(starts, dtype=np.int64)
    return WindowBatch(
        poses=normalize_pose(keypoints, bbox, out=keypoints),
        rows=starts,
        track_id=track_id[starts],
        start_frame=frame_index[starts],
        length=length,
    )
