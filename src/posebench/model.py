"""Core data model: frame tables, datasets, tracks, and the per-frame records.

A ``FrameTable`` holds frames and their person observations as numpy
columns; it is what the reader returns and what datasets, the rearrangement
and preprocessing work on. ``FrameRecord``, ``PersonObservation`` and
``BoundingBox`` describe one frame at a time, for building frames by hand
(synthetic data, tests) and reading them back out of a table. All types are
immutable after construction and validate their own invariants, with the
same messages, so downstream code can assume well-formed data. Track and
frame ids fit int64. Frame indices are unique within a camera and act as
the frame identity everywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import ValidationError

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


def _finite(value) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value)


def _check_id(name: str, value) -> None:
    # Ids become int64 array entries, so they must fit one.
    if type(value) is not int or not 0 <= value < 2**63:
        raise ValidationError(f"{name} must be a non-negative 64-bit integer, got {value!r}")


@dataclass(frozen=True, slots=True)
class BoundingBox:
    """Axis-aligned box in pixel coordinates, x1 < x2 and y1 < y2."""

    x1: float
    y1: float
    x2: float
    y2: float

    def __post_init__(self):
        for name in ("x1", "y1", "x2", "y2"):
            v = getattr(self, name)
            if not _finite(v) or v < 0:
                raise ValidationError(f"bounding box {name} must be finite and >= 0, got {v}")
        if not (self.x1 < self.x2 and self.y1 < self.y2):
            raise ValidationError(
                f"bounding box must have positive extent, got ({self.x1}, {self.y1}, {self.x2}, {self.y2})"
            )

    def area(self) -> float:
        return (self.x2 - self.x1) * (self.y2 - self.y1)

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.x1, self.y1, self.x2, self.y2)


@dataclass(frozen=True, slots=True, eq=False)
class PersonObservation:
    """One tracked person in one frame: box, 17 keypoints, provenance flag.

    ``keypoints`` is a (17, 3) float64 array of x, y and visibility in
    ``JOINT_NAMES`` order, NaN where visibility is absent; it is made read-only
    in place. ``interpolated`` is true exactly when every visibility is absent,
    which is how gap-filled observations are marked. Equality is bit equality.
    """

    track_id: int
    bbox: BoundingBox
    keypoints: np.ndarray
    interpolated: bool = False

    def __post_init__(self):
        _check_id("track_id", self.track_id)
        track = f"(track {self.track_id})"
        kps = np.asarray(self.keypoints, dtype=np.float64)
        if kps.shape != (KEYPOINT_COUNT, 3):
            raise ValidationError(f"expected ({KEYPOINT_COUNT}, 3) keypoints, got shape {kps.shape} {track}")
        finite = np.isfinite(kps[:, :2]).all(axis=1)
        if not finite.all():
            j = int(np.argmin(finite))
            raise ValidationError(f"{JOINT_NAMES[j]} coordinates must be finite, got {kps[j, :2]} {track}")
        vis = kps[:, 2]
        lo, hi = np.fmin.reduce(vis), np.fmax.reduce(vis)  # skip NaN; NaN only when all are absent
        if lo < 0.0 or hi > 1.0:
            j = int(np.argmax((vis < 0.0) | (vis > 1.0)))
            raise ValidationError(f"{JOINT_NAMES[j]} visibility must be in [0, 1], got {vis[j]} {track}")
        if not isinstance(self.interpolated, bool):
            raise ValidationError(f"interpolated must be a boolean, got {self.interpolated!r} {track}")
        if self.interpolated != math.isnan(hi):
            rule = "have no" if self.interpolated else "carry at least one"
            kind = "interpolated" if self.interpolated else "non-interpolated"
            raise ValidationError(f"{kind} observation must {rule} keypoint visibility {track}")
        kps.flags.writeable = False
        object.__setattr__(self, "keypoints", kps)

    def __eq__(self, other):
        if not isinstance(other, PersonObservation):
            return NotImplemented
        mine = (self.track_id, self.bbox, self.interpolated, self.keypoints.tobytes())
        return mine == (other.track_id, other.bbox, other.interpolated, other.keypoints.tobytes())


@dataclass(frozen=True, slots=True)
class FrameRecord:
    """One video frame: label, person observations, optional anomaly boxes."""

    camera_id: str
    frame_index: int
    label: str
    persons: tuple[PersonObservation, ...] = ()
    anomaly_regions: tuple[BoundingBox, ...] = ()

    def __post_init__(self):
        if not isinstance(self.camera_id, str) or not self.camera_id:
            raise ValidationError(f"camera_id must be a non-empty string, got {self.camera_id!r}")
        _check_id("frame_index", self.frame_index)
        if self.label not in LABELS:
            raise ValidationError(
                f"label must be one of {LABELS}, got {self.label!r} (frame {self.frame_index})"
            )
        if self.label == LABEL_NORMAL and self.anomaly_regions:
            raise ValidationError(
                f"normal frame must not carry anomaly regions (frame {self.frame_index})"
            )

    @property
    def is_anomalous(self) -> bool:
        return self.label == LABEL_ANOMALOUS


class RowError(ValidationError):
    """A FrameTable value rule broken in frame row ``row``; the message names the rule."""

    def __init__(self, row: int, message: str):
        super().__init__(message)
        self.row = row


def _bad_boxes(boxes: np.ndarray) -> np.ndarray:
    """Rows of an (n, 4) box array that BoundingBox rejects."""
    ok = (np.isfinite(boxes) & (boxes >= 0.0)).all(axis=1)
    return ~(ok & (boxes[:, 0] < boxes[:, 2]) & (boxes[:, 1] < boxes[:, 3]))


def _gather(groups: np.ndarray, n: int, rows: np.ndarray):
    """Item indices of frame rows ``rows`` in a grouped column, and the position in ``rows`` of each."""
    starts = np.searchsorted(groups, np.arange(n + 1))
    lens = starts[rows + 1] - starts[rows]
    owner = np.repeat(np.arange(rows.size), lens)
    return starts[rows][owner] + np.arange(owner.size) - (np.cumsum(lens) - lens)[owner], owner


@dataclass(frozen=True, eq=False)
class FrameTable:
    """Frames and their person observations as columns.

    Per frame row: ``camera_id`` (object array of str), ``frame_index``,
    ``anomalous`` and ``line``, the 1-based JSONL line it was read from (its
    write position, for a table of records). Per anomaly region:
    ``region_frame`` and ``regions`` (r, 4). Per person row: ``frame_row``,
    ``track_id``, ``keypoints`` (m, 17, 3) with NaN for an absent visibility,
    ``bbox`` (m, 4) and ``interpolated``. Region and person rows are grouped
    by frame row in frame order. Each record value rule runs as one array
    predicate; the first frame row breaking one is rebuilt as a FrameRecord,
    whose own error is raised as ``RowError``. Equality ignores ``line``.
    """

    camera_id: np.ndarray
    frame_index: np.ndarray
    anomalous: np.ndarray
    line: np.ndarray
    region_frame: np.ndarray
    regions: np.ndarray
    frame_row: np.ndarray
    track_id: np.ndarray
    keypoints: np.ndarray
    bbox: np.ndarray
    interpolated: np.ndarray

    def __post_init__(self):
        f, r, m = len(self.frame_index), len(self.region_frame), len(self.frame_row)
        shapes = tuple(getattr(self, col.name).shape for col in fields(self))
        if shapes != ((f,),) * 4 + ((r,), (r, 4), (m,), (m,), (m, KEYPOINT_COUNT, 3), (m, 4), (m,)):
            raise ValidationError(f"frame table columns disagree: {shapes}")
        for rows in (self.region_frame, self.frame_row):
            if rows.size and (rows[0] < 0 or rows[-1] >= f or np.any(np.diff(rows) < 0)):
                raise ValidationError("frame table rows must be grouped by frame row in frame order")
        vis = self.keypoints[:, :, 2]
        person_bad = (
            _bad_boxes(self.bbox)
            | (self.track_id < 0)
            | ~np.isfinite(self.keypoints[:, :, :2]).all(axis=(1, 2))
            | ((vis < 0.0) | (vis > 1.0)).any(axis=1)
            | (self.interpolated != np.isnan(vis).all(axis=1))
        )
        bad = np.fromiter((not isinstance(c, str) or not c for c in self.camera_id), bool, f)
        bad |= self.frame_index < 0
        bad[self.frame_row[person_bad]] = True
        bad[self.region_frame[_bad_boxes(self.regions) | ~self.anomalous[self.region_frame]]] = True
        if bad.any():
            row = int(np.argmax(bad))
            try:
                self._record(row)
            except ValidationError as exc:
                raise RowError(row, str(exc)) from None

    def __len__(self) -> int:
        return len(self.frame_index)

    def __eq__(self, other):
        if not isinstance(other, FrameTable):
            return NotImplemented
        if self.camera_id.tolist() != other.camera_id.tolist():
            return False
        for name in (col.name for col in fields(self) if col.name not in ("camera_id", "line")):
            a, b = getattr(self, name), getattr(other, name)
            if (a.dtype, a.shape) != (b.dtype, b.shape) or a.tobytes() != b.tobytes():
                return False
        return True

    def take(self, rows) -> "FrameTable":
        """The frames at ``rows``, in that order, with their regions and persons."""
        rows = np.asarray(rows, dtype=np.int64).reshape(-1)
        regions, region_frame = _gather(self.region_frame, len(self), rows)
        persons, frame_row = _gather(self.frame_row, len(self), rows)
        cols = {name: getattr(self, name)[rows] for name in ("camera_id", "frame_index", "anomalous", "line")}
        for name in ("track_id", "keypoints", "bbox", "interpolated"):
            cols[name] = getattr(self, name)[persons]
        cols.update(region_frame=region_frame, regions=self.regions[regions], frame_row=frame_row)
        return FrameTable(**cols)

    @classmethod
    def concat(cls, *tables: "FrameTable") -> "FrameTable":
        """The frames of every table in turn."""
        cols = {col.name: np.concatenate([getattr(t, col.name) for t in tables]) for col in fields(cls)}
        starts = np.cumsum([0] + [len(t) for t in tables[:-1]])
        for name in ("region_frame", "frame_row"):
            cols[name] = np.concatenate([getattr(t, name) + s for t, s in zip(tables, starts)])
        return cls(**cols)

    @classmethod
    def from_records(cls, frames) -> "FrameTable":
        """The table of FrameRecords in the given order; ``line`` counts from 1."""
        frames = tuple(frames)
        persons = [(row, obs) for row, fr in enumerate(frames) for obs in fr.persons]
        regions = [(row, box.as_tuple()) for row, fr in enumerate(frames) for box in fr.anomaly_regions]
        camera_id = np.empty(len(frames), dtype=object)
        camera_id[:] = [fr.camera_id for fr in frames]
        return cls(
            camera_id=camera_id,
            frame_index=np.array([fr.frame_index for fr in frames], dtype=np.int64),
            anomalous=np.array([fr.is_anomalous for fr in frames], dtype=bool),
            line=np.arange(1, len(frames) + 1),
            region_frame=np.array([row for row, _ in regions], dtype=np.int64),
            regions=np.array([box for _, box in regions], dtype=np.float64).reshape(-1, 4),
            frame_row=np.array([row for row, _ in persons], dtype=np.int64),
            track_id=np.array([obs.track_id for _, obs in persons], dtype=np.int64),
            keypoints=np.array([obs.keypoints for _, obs in persons]).reshape(-1, KEYPOINT_COUNT, 3),
            bbox=np.array([obs.bbox.as_tuple() for _, obs in persons], dtype=np.float64).reshape(-1, 4),
            interpolated=np.array([obs.interpolated for _, obs in persons], dtype=bool),
        )

    def _record(self, row: int) -> FrameRecord:
        p0, p1 = np.searchsorted(self.frame_row, [row, row + 1])
        r0, r1 = np.searchsorted(self.region_frame, [row, row + 1])
        boxes, interpolated = self.bbox[p0:p1].tolist(), self.interpolated[p0:p1].tolist()
        persons = zip(self.track_id[p0:p1].tolist(), boxes, self.keypoints[p0:p1], interpolated)
        return FrameRecord(
            camera_id=self.camera_id[row],
            frame_index=int(self.frame_index[row]),
            label=LABELS[int(self.anomalous[row])],
            persons=tuple(PersonObservation(tid, BoundingBox(*box), kps, i) for tid, box, kps, i in persons),
            anomaly_regions=tuple(BoundingBox(*box) for box in self.regions[r0:r1].tolist()),
        )

    def records(self) -> list[FrameRecord]:
        """One FrameRecord per frame row, in row order."""
        return [self._record(row) for row in range(len(self))]


@dataclass(frozen=True)
class CameraDataset:
    """Frames of a single camera as a FrameTable, sorted by strictly increasing frame_index."""

    camera_id: str
    frames: FrameTable

    def __post_init__(self):
        if not self.camera_id:
            raise ValidationError("camera_id must be a non-empty string")
        fi = self.frames.frame_index
        if np.any(self.frames.camera_id != self.camera_id) or np.any(fi[1:] <= fi[:-1]):
            raise ValidationError(
                f"dataset {self.camera_id!r} must hold only its frames, in strictly increasing frame_index"
            )

    def __len__(self) -> int:
        return len(self.frames)


@dataclass(frozen=True)
class SplitSet:
    """A standard-protocol split: all-normal train frames plus a mixed test set."""

    train: CameraDataset
    test: CameraDataset

    def __post_init__(self):
        if self.train.camera_id != self.test.camera_id:
            raise ValidationError(
                f"train and test camera_id differ: {self.train.camera_id!r} vs {self.test.camera_id!r}"
            )
        train = self.train.frames
        if train.anomalous.any():
            first = train.frame_index[train.anomalous][0]
            raise ValidationError(f"train frame {first} is not labeled normal")
        overlap = np.intersect1d(train.frame_index, self.test.frames.frame_index)
        if overlap.size:
            raise ValidationError(f"train and test share frame indices (e.g. {overlap[0]})")

    @property
    def camera_id(self) -> str:
        return self.train.camera_id


@dataclass(frozen=True, eq=False)
class Track:
    """All observations of one track id as columns, in strictly increasing frame order.

    ``frames`` is (n,) int64, ``keypoints`` (n, 17, 2) float64 pixel
    coordinates, ``bbox`` (n, 4) float64 as (x1, y1, x2, y2) and
    ``interpolated`` (n,) bool.
    """

    track_id: int
    camera_id: str
    frames: np.ndarray
    keypoints: np.ndarray
    bbox: np.ndarray
    interpolated: np.ndarray

    def __post_init__(self):
        n = len(self.frames)
        shapes = (self.keypoints.shape, self.bbox.shape, self.interpolated.shape)
        if shapes != ((n, KEYPOINT_COUNT, 2), (n, 4), (n,)):
            raise ValidationError(f"track {self.track_id} columns disagree with {n} frames: {shapes}")
        if np.any(np.diff(self.frames) <= 0):
            raise ValidationError(
                f"track {self.track_id} observations must be strictly increasing in frame_index"
            )

    def __len__(self) -> int:
        return len(self.frames)


def tracks_from_frames(frames: FrameTable, camera_id: str) -> list[Track]:
    """Split a table's person rows into tracks with one lexsort by (track_id, frame_index).

    Tracks are ordered by track_id, observations by frame_index. Raises on a
    duplicate (track_id, frame_index) pair.
    """
    frame_index = frames.frame_index[frames.frame_row]
    order = np.lexsort((frame_index, frames.track_id))
    tids, fis = frames.track_id[order], frame_index[order]
    same_track = tids[1:] == tids[:-1]
    dup = np.flatnonzero(same_track & (fis[1:] == fis[:-1]))
    if dup.size:
        raise ValidationError(f"duplicate observation for track {tids[dup[0]]} at frame {fis[dup[0]]}")
    keypoints = frames.keypoints[order, :, :2]
    bbox, interpolated = frames.bbox[order], frames.interpolated[order]
    edges = [0, *(np.flatnonzero(~same_track) + 1).tolist(), len(order)]
    return [
        Track(
            track_id=int(tids[a]),
            camera_id=camera_id,
            frames=fis[a:b],
            keypoints=keypoints[a:b],
            bbox=bbox[a:b],
            interpolated=interpolated[a:b],
        )
        for a, b in zip(edges, edges[1:])
        if a < b
    ]
