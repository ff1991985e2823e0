"""Pin the exact bits of the preprocessing pipeline.

A seeded split loses whole frames at random, one long block of frames and
single observations, so interpolated gaps, gaps left open past ``max_gap``,
several tracks and runs split by a gap all occur. The sha256 over every
window's features, track id and covered frames must not move: any change in
the float expressions of interpolation, smoothing or normalization (for
example ``np.hypot`` in place of ``math.hypot`` for the box diagonal) shows
up here as a different digest.
"""

import dataclasses
import hashlib

import numpy as np

from posebench.preprocess import extract_windows
from posebench.synthetic import generate_split

PINNED_SHA256 = "d8b342583a30bae2234ad18fd88262727e0b29a781bf14f7332260d04893f50c"


def _holed_frames():
    split = generate_split(160, 300, 120, seed=11, persons=3)
    rng = np.random.default_rng(7)
    frames = split.test
    offset = frames.frame_index - frames.frame_index[0]
    first_person = np.searchsorted(frames.frame_row, np.arange(len(frames)))
    persons = np.bincount(frames.frame_row, minlength=len(frames))
    kept_frames, kept_persons = [], np.ones(len(frames.frame_row), dtype=bool)
    for row in range(len(frames)):
        if 200 <= offset[row] < 230 or rng.random() < 0.08:
            continue
        kept_frames.append(row)
        if persons[row] > 1 and rng.random() < 0.05:
            kept_persons[first_person[row]] = False
    columns = ("frame_row", "track_id", "keypoints", "bbox")
    frames = dataclasses.replace(frames, **{name: getattr(frames, name)[kept_persons] for name in columns})
    return frames.take(kept_frames)


def _digest(batch):
    h = hashlib.sha256()
    for track_id, row, covered in zip(batch.track_id.tolist(), batch.rows.tolist(), batch.covered_frames()):
        h.update(np.int64(track_id).tobytes())
        h.update(covered.astype(np.int64).tobytes())
        h.update(batch.poses[row : row + batch.length].tobytes())
    return h.hexdigest()


def test_window_digest_is_pinned():
    batch = extract_windows(_holed_frames(), length=24, stride=6, max_gap=14, smoothing_window=15)
    assert len(set(batch.track_id.tolist())) >= 4
    assert _digest(batch) == PINNED_SHA256
