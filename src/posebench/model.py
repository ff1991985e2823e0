"""Core data model: frame tables and splits.

A ``FrameTable`` holds frames and their person observations as numpy
columns; it is the one in-memory form of frames, which the reader and the
synthetic generator build and splits, the rearrangement and preprocessing
work on. A table holds the frames of one camera, so its ``camera_id`` is one
string. A track is not an object: preprocessing sorts a table's person rows
by (track_id, frame_index). All types are immutable after construction and
validate their own invariants, so downstream code can assume well-formed
data. Track and frame ids fit int64. Frame indices are unique within a
camera and act as the frame identity everywhere; ``check_frame_order``
refuses a table not in strictly increasing frame_index where code searches it.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, fields

import numpy as np

from .errors import InputError, ValidationError

KEYPOINT_COUNT = 17

# COCO-17 joint order, kept for reference and readable diagnostics.
JOINT_NAMES = (
    "nose",
    "left_eye",
    "right_eye",
    "left_ear",
    "right_ear",
    "left_shoulder",
    "right_shoulder",
    "left_elbow",
    "right_elbow",
    "left_wrist",
    "right_wrist",
    "left_hip",
    "right_hip",
    "left_knee",
    "right_knee",
    "left_ankle",
    "right_ankle",
)

LABEL_NORMAL = "normal"
LABEL_ANOMALOUS = "anomalous"
LABELS = (LABEL_NORMAL, LABEL_ANOMALOUS)


# Characters that would break a camera_id written as it is into a report.csv cell or a report.md heading.
_CAMERA_ID_BREAKS = re.compile(r'[,"\x00-\x1f\x7f]')


def camera_id_error(camera_id):
    """The rule ``camera_id`` breaks, worded to follow the words "camera_id", or None if it breaks none.

    A camera_id is a non-empty string without a comma, a double quote or a
    control character (U+0000-U+001F, U+007F), so reports write it as it is.
    """
    if not isinstance(camera_id, str) or not camera_id:
        return f"must be a non-empty string, got {camera_id!r}"
    if _CAMERA_ID_BREAKS.search(camera_id):
        return f"must not hold a comma, a double quote or a control character, got {camera_id!r}"
    return None


class RowError(ValidationError):
    """A FrameTable value rule broken in frame row ``row``; the message names the rule."""

    def __init__(self, row: int, message: str):
        super().__init__(message)
        self.row = row


def _bad_boxes(boxes: np.ndarray) -> np.ndarray:
    """Rows of an (n, 4) box array that are not finite, >= 0 and of positive extent."""
    ok = (np.isfinite(boxes) & (boxes >= 0.0)).all(axis=1)
    return ~(ok & (boxes[:, 0] < boxes[:, 2]) & (boxes[:, 1] < boxes[:, 3]))


def _box_errors(box: np.ndarray):
    """Messages of the rules one (x1, y1, x2, y2) box breaks, in the order they are checked."""
    coords = box.tolist()
    for name, v in zip(("x1", "y1", "x2", "y2"), coords):
        if not (math.isfinite(v) and v >= 0):
            yield f"bounding box {name} must be finite and >= 0, got {v}"
    x1, y1, x2, y2 = coords
    if not (x1 < x2 and y1 < y2):
        yield f"bounding box must have positive extent, got ({x1}, {y1}, {x2}, {y2})"


def _gather(tables, groups: str, rows: np.ndarray):
    """Item indices of frame rows ``rows`` in column ``groups`` of ``tables`` laid end to end, and their rows."""
    offsets = np.cumsum([0] + [len(t) for t in tables])  # shifted by these, the sorted columns join sorted
    column = np.concatenate([getattr(t, groups) + o for t, o in zip(tables, offsets)])
    start, stop = np.searchsorted(column, [rows, rows + 1])
    owner = np.repeat(np.arange(rows.size), stop - start)
    return np.arange(owner.size) + (stop - np.cumsum(stop - start))[owner], owner


def _sources(counts, items: np.ndarray):
    """The longest of columns of ``counts`` items laid end to end, each of ``items`` as an index into it (clipped into
    it by ``take``), and (column, positions, indices) of the items that each other column holds."""
    starts, base = [sum(counts[:t]) for t in range(len(counts))], counts.index(max(counts))
    others = [t for t, n in enumerate(counts) if n and t != base]
    held = [(t, np.flatnonzero((items >= starts[t]) & (items < starts[t] + counts[t]))) for t in others]
    return base, items - starts[base], [(t, at, items[at] - starts[t]) for t, at in held if at.size]


@dataclass(frozen=True, eq=False)
class FrameTable:
    """Frames of one camera and their person observations as columns.

    ``camera_id`` is the camera of every frame. Per frame row:
    ``frame_index`` and ``anomalous``. Per anomaly region: ``region_frame``
    and ``regions`` (r, 4). Per person row: ``frame_row``, ``track_id``,
    ``keypoints`` (m, 17, 3) with NaN for an absent visibility, ``bbox``
    (m, 4). ``io`` checks and derives the file's flag for a person with no
    visibility; no column holds it. Region and person rows are grouped by
    frame row in frame order. A ``camera_id`` that breaks its rule raises
    ``RowError`` for row 0. Each value rule runs as one array predicate; the
    first frame row breaking one raises ``RowError`` with the message of the
    first rule it breaks (see ``_row_errors``).
    """

    camera_id: str
    frame_index: np.ndarray
    anomalous: np.ndarray
    region_frame: np.ndarray
    regions: np.ndarray
    frame_row: np.ndarray
    track_id: np.ndarray
    keypoints: np.ndarray
    bbox: np.ndarray

    def __post_init__(self):
        f, r, m = len(self.frame_index), len(self.region_frame), len(self.frame_row)
        shapes = tuple(column.shape for column in self._columns())
        if shapes != ((f,),) * 2 + ((r,), (r, 4), (m,), (m,), (m, KEYPOINT_COUNT, 3), (m, 4)):
            raise ValidationError(f"frame table columns disagree: {shapes}")
        for rows in (self.region_frame, self.frame_row):
            if rows.size and (rows[0] < 0 or rows[-1] >= f or np.any(np.diff(rows) < 0)):
                raise ValidationError("frame table rows must be grouped by frame row in frame order")
        problem = camera_id_error(self.camera_id)
        if problem:
            raise RowError(0, f"camera_id {problem}")
        vis = self.keypoints[:, :, 2]
        person_bad = (
            _bad_boxes(self.bbox)
            | (self.track_id < 0)
            | ~np.isfinite(self.keypoints[:, :, :2]).all(axis=(1, 2))
            | ((vis < 0.0) | (vis > 1.0)).any(axis=1)
        )
        bad = self.frame_index < 0
        bad[self.frame_row[person_bad]] = True
        bad[self.region_frame[_bad_boxes(self.regions) | ~self.anomalous[self.region_frame]]] = True
        if bad.any():
            row = int(np.argmax(bad))
            raise RowError(row, next(self._row_errors(row)))
        for column in self._columns():  # a validated table stays valid
            column.flags.writeable = False

    def _columns(self):
        """Every field but camera_id: the array columns."""
        return [getattr(self, col.name) for col in fields(self)[1:]]

    def _row_errors(self, row: int):
        """Messages of the value rules frame row ``row`` breaks, in the order they are checked.

        Each person in turn (box, track_id, coordinates, visibility), then the
        region boxes, then the frame's own values.
        """
        p0, p1 = np.searchsorted(self.frame_row, [row, row + 1])
        r0, r1 = np.searchsorted(self.region_frame, [row, row + 1])
        for p in range(p0, p1):
            yield from _box_errors(self.bbox[p])
            track_id, kps = int(self.track_id[p]), self.keypoints[p]
            if track_id < 0:
                yield f"track_id must be a non-negative 64-bit integer, got {track_id!r}"
            track = f"(track {track_id})"
            finite = np.isfinite(kps[:, :2]).all(axis=1)
            if not finite.all():
                j = int(np.argmin(finite))
                yield f"{JOINT_NAMES[j]} coordinates must be finite, got {kps[j, :2]} {track}"
            vis = kps[:, 2]
            out_of_range = (vis < 0.0) | (vis > 1.0)
            if out_of_range.any():
                j = int(np.argmax(out_of_range))
                yield f"{JOINT_NAMES[j]} visibility must be in [0, 1], got {vis[j]} {track}"
        for box in self.regions[r0:r1]:
            yield from _box_errors(box)
        frame_index = int(self.frame_index[row])
        if frame_index < 0:
            yield f"frame_index must be a non-negative 64-bit integer, got {frame_index!r}"
        if r1 > r0 and not self.anomalous[row]:
            yield f"normal frame must not carry anomaly regions (frame {frame_index})"

    def __len__(self) -> int:
        return len(self.frame_index)

    def __eq__(self, other):
        if not isinstance(other, FrameTable):
            return NotImplemented
        if self.camera_id != other.camera_id:
            return False
        for a, b in zip(self._columns(), other._columns()):
            if (a.dtype, a.shape) != (b.dtype, b.shape) or a.tobytes() != b.tobytes():
                return False
        return True

    def take(self, rows, *more: "FrameTable") -> "FrameTable":
        """The frames at ``rows`` of this table and ``more`` laid end to end, in that order, with their regions and
        persons. ``more`` must hold frames of this camera. Each column is filled once, and the result validated
        once; every row in order, with no ``more``, is this table itself, whose columns are read-only."""
        rows = np.asarray(rows, dtype=np.int64).reshape(-1)
        if not more and np.array_equal(rows, np.arange(len(self))):
            return self
        for other in more:
            if other.camera_id != self.camera_id:
                raise ValidationError(f"cannot take frames of camera {other.camera_id!r} with {self.camera_id!r}")
        tables = (self, *more)
        regions, region_frame = _gather(tables, "region_frame", rows)
        persons, frame_row = _gather(tables, "frame_row", rows)
        cols = {"camera_id": self.camera_id, "region_frame": region_frame, "frame_row": frame_row}
        for items, names in (
            (rows, ("frame_index", "anomalous")),
            (regions, ("regions",)),
            (persons, ("track_id", "keypoints", "bbox")),
        ):
            base, indices, rest = _sources([len(getattr(t, names[0])) for t in tables], items)
            for name in names:  # the longest column is empty only if all are
                cols[name] = getattr(tables[base], name).take(indices, axis=0, mode="clip")
                for t, at, index in rest:
                    cols[name][at] = getattr(tables[t], name)[index]
        return FrameTable(**cols)


def check_frame_order(table: FrameTable):
    """Refuse ``table`` unless its frame_index is strictly increasing, as a ``searchsorted`` on it assumes."""
    fi = table.frame_index
    if np.any(fi[1:] <= fi[:-1]):
        raise ValidationError(f"dataset {table.camera_id!r} must hold frames in strictly increasing frame_index")


def check_disjoint(table: FrameTable, test: FrameTable, role: str):
    """Refuse ``table``, the input ``role``, if it holds a frame of ``test`` (one of its camera and frame_index).
    ``test`` must be in strictly increasing frame_index."""
    fi, test_fi = table.frame_index, test.frame_index
    shared = fi[np.searchsorted(test_fi, fi, "right") > np.searchsorted(test_fi, fi)]
    if shared.size and table.camera_id == test.camera_id:
        raise InputError(f"{role} and test share frame indices (e.g. {shared[0]})", role, "test")


@dataclass(frozen=True)
class SplitSet:
    """A standard-protocol split: all-normal train frames plus a mixed test set."""

    train: FrameTable
    test: FrameTable

    def __post_init__(self):
        check_frame_order(self.train)
        check_frame_order(self.test)
        if self.train.camera_id != self.test.camera_id:
            raise InputError(
                f"train and test camera_id differ: {self.train.camera_id!r} vs {self.test.camera_id!r}", "train", "test"
            )
        if self.train.anomalous.any():
            first = self.train.frame_index[self.train.anomalous][0]
            raise InputError(f"train frame {first} is not labeled normal", "train")
        check_disjoint(self.train, self.test, "train")

    @property
    def camera_id(self) -> str:
        return self.train.camera_id
