"""Core data model: person observations, frames, datasets, tracks.

All types are immutable after construction and validate their own invariants,
so downstream code can assume well-formed data. Track and frame ids fit
int64. Frame indices are unique within a camera and act as the frame
identity everywhere. A track holds its observations as numpy columns, which
is the form preprocessing works on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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


@dataclass(frozen=True)
class CameraDataset:
    """Frames of a single camera, sorted by strictly increasing frame_index."""

    camera_id: str
    frames: tuple[FrameRecord, ...]

    def __post_init__(self):
        if not self.camera_id:
            raise ValidationError("camera_id must be a non-empty string")
        prev = None
        for fr in self.frames:
            if fr.camera_id != self.camera_id:
                raise ValidationError(
                    f"frame {fr.frame_index} has camera_id {fr.camera_id!r}, expected {self.camera_id!r}"
                )
            if prev is not None and fr.frame_index <= prev:
                raise ValidationError(
                    f"frame_index must be strictly increasing, got {fr.frame_index} after {prev}"
                )
            prev = fr.frame_index

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
        for fr in self.train.frames:
            if fr.label != LABEL_NORMAL:
                raise ValidationError(f"train frame {fr.frame_index} is not labeled normal")
        train_idx = {fr.frame_index for fr in self.train.frames}
        test_idx = {fr.frame_index for fr in self.test.frames}
        overlap = train_idx & test_idx
        if overlap:
            raise ValidationError(
                f"train and test share frame indices (e.g. {min(overlap)})"
            )

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


def tracks_from_frames(frames, camera_id: str) -> list[Track]:
    """Group person observations from an iterable of frames into tracks.

    Tracks are ordered by track_id, observations by frame_index. Raises on a
    duplicate (track_id, frame_index) pair.
    """
    buckets: dict[int, list] = {}
    for fr in frames:
        for obs in fr.persons:
            buckets.setdefault(obs.track_id, []).append((fr.frame_index, obs))
    tracks = []
    for tid in sorted(buckets):
        rows = sorted(buckets[tid], key=lambda row: row[0])
        track_frames = np.array([fi for fi, _ in rows], dtype=np.int64)
        dup = np.flatnonzero(np.diff(track_frames) == 0)
        if dup.size:
            raise ValidationError(
                f"duplicate observation for track {tid} at frame {track_frames[dup[0]]}"
            )
        tracks.append(
            Track(
                track_id=tid,
                camera_id=camera_id,
                frames=track_frames,
                keypoints=np.stack([obs.keypoints[:, :2] for _, obs in rows]),
                bbox=np.array([obs.bbox.as_tuple() for _, obs in rows], dtype=np.float64),
                interpolated=np.array([obs.interpolated for _, obs in rows], dtype=bool),
            )
        )
    return tracks
