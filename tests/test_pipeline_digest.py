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

from posebench.model import FrameTable
from posebench.preprocess import extract_windows
from posebench.synthetic import generate_split

PINNED_SHA256 = "d8b342583a30bae2234ad18fd88262727e0b29a781bf14f7332260d04893f50c"


def _holed_frames():
    split = generate_split(160, 300, 120, seed=11, persons=3)
    rng = np.random.default_rng(7)
    first = int(split.test.frames.frame_index[0])
    out = []
    for fr in split.test.frames.records():
        if 200 <= fr.frame_index - first < 230 or rng.random() < 0.08:
            continue
        persons = fr.persons
        if len(persons) > 1 and rng.random() < 0.05:
            persons = persons[1:]
        out.append(dataclasses.replace(fr, persons=persons))
    return FrameTable.from_records(out), split.test.camera_id


def _digest(batch):
    h = hashlib.sha256()
    for track_id, row, covered in zip(batch.track_id.tolist(), batch.rows.tolist(), batch.covered_frames()):
        h.update(np.int64(track_id).tobytes())
        h.update(covered.astype(np.int64).tobytes())
        h.update(batch.poses[row : row + batch.length].tobytes())
    return h.hexdigest()


def test_window_digest_is_pinned():
    frames, camera_id = _holed_frames()
    batch = extract_windows(frames, camera_id, length=24, stride=6, max_gap=14, smoothing_window=15)
    assert len(set(batch.track_id.tolist())) >= 4
    assert _digest(batch) == PINNED_SHA256
