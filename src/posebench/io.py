"""JSONL annotation interchange: one frame object per line.

Line schema::

    {"camera_id": str, "frame_index": int, "label": "normal"|"anomalous",
     "anomaly_regions": [[x1, y1, x2, y2], ...],
     "persons": [{"track_id": int, "bbox": [x1, y1, x2, y2],
                  "interpolated": bool,
                  "keypoints": [[x, y, visibility-or-null], ... 17 entries]}]}

A person's keypoints are read into one (17, 3) float64 array, ``null`` as
NaN. Values must be JSON numbers that fit a float (never a NaN literal), ids
integers, ``interpolated`` a boolean and ``camera_id`` and ``label`` strings;
the model types check the rest. Every error names the file and the line.

Unknown keys are accepted and ignored on read; they are not preserved on
write (records are rebuilt from the typed model). Floats round-trip exactly
through the default JSON encoder.
"""

from __future__ import annotations

import json
import os
from itertools import chain

import numpy as np

from .errors import ValidationError
from .model import BoundingBox, CameraDataset, FrameRecord, PersonObservation

_NUMBER = frozenset((int, float))  # JSON numbers; bool is excluded on purpose
_KEYPOINT_VALUE = _NUMBER | {type(None)}
_LIST = frozenset((list, tuple))


def _integer(value, name: str) -> int:
    if type(value) is int:
        return value
    if type(value) is float and value.is_integer():
        return int(value)
    raise ValidationError(f"{name} must be an integer, got {value!r}")


def _list(value, name: str):
    if type(value) not in _LIST:
        raise ValidationError(f"{name} must be a list, got {value!r}")
    return value


def _bbox_from_list(raw) -> BoundingBox:
    if type(raw) not in _LIST or len(raw) != 4 or not _NUMBER.issuperset(map(type, raw)):
        raise ValidationError(f"bbox must be a list of 4 numbers, got {raw!r}")
    return BoundingBox(*map(float, raw))


def _keypoints_from_list(raw) -> np.ndarray:
    """``[[x, y, visibility-or-null], ...]`` as an (n, 3) float64 array, null as NaN."""
    if not _LIST.issuperset(map(type, _list(raw, "keypoints"))) or set(map(len, raw)) - {3}:
        raise ValidationError("each keypoint must be a list [x, y, visibility-or-null]")
    flat = list(chain.from_iterable(raw))
    if not _KEYPOINT_VALUE.issuperset(map(type, flat)):
        raise ValidationError("keypoint values must be numbers, with null only as visibility")
    kps = np.array(flat, dtype=np.float64).reshape(-1, 3)
    # Each null became NaN, so more NaNs than nulls means a NaN literal.
    if np.count_nonzero(np.isnan(kps)) != flat.count(None):
        raise ValidationError("keypoint values must not be NaN; write null for an absent visibility")
    return kps


def _person_from_dict(raw) -> PersonObservation:
    if not isinstance(raw, dict):
        raise ValidationError(f"person entry must be an object, got {type(raw).__name__}")
    return PersonObservation(
        track_id=_integer(raw["track_id"], "track_id"),
        bbox=_bbox_from_list(raw["bbox"]),
        keypoints=_keypoints_from_list(raw["keypoints"]),
        interpolated=raw.get("interpolated", False),
    )


def frame_from_dict(raw: dict, where: str = "frame") -> FrameRecord:
    """Build a FrameRecord from a parsed JSONL object, ignoring unknown keys.

    Every ``ValidationError`` names ``where`` and, once it is read, the frame index.
    """
    ctx = where
    try:
        if not isinstance(raw, dict):
            raise ValidationError(f"expected a JSON object, got {type(raw).__name__}")
        frame_index = _integer(raw["frame_index"], "frame_index")
        ctx = f"{where} (frame_index {frame_index})"
        persons = _list(raw.get("persons", []), "persons")
        regions = _list(raw.get("anomaly_regions", []), "anomaly_regions")
        return FrameRecord(
            camera_id=raw["camera_id"],
            frame_index=frame_index,
            label=raw["label"],
            persons=tuple(map(_person_from_dict, persons)),
            anomaly_regions=tuple(map(_bbox_from_list, regions)),
        )
    except ValidationError as exc:
        raise ValidationError(f"{ctx}: {exc}") from None
    except KeyError as exc:
        raise ValidationError(f"{ctx}: missing field {exc.args[0]!r}") from None
    except OverflowError:  # float() of an integer literal past the float range
        raise ValidationError(f"{ctx}: number too large for a float") from None


def _keypoints_to_list(kps) -> list:
    rows = kps.tolist()
    for j in np.flatnonzero(np.isnan(kps[:, 2])):
        rows[j][2] = None
    return rows


def frame_to_dict(frame: FrameRecord) -> dict:
    return {
        "camera_id": frame.camera_id,
        "frame_index": frame.frame_index,
        "label": frame.label,
        "anomaly_regions": [list(r.as_tuple()) for r in frame.anomaly_regions],
        "persons": [
            {
                "track_id": obs.track_id,
                "bbox": list(obs.bbox.as_tuple()),
                "interpolated": obs.interpolated,
                "keypoints": _keypoints_to_list(obs.keypoints),
            }
            for obs in frame.persons
        ],
    }


def read_frames(path) -> list[FrameRecord]:
    """Read raw frame records from a JSONL file, keeping file order."""
    frames = []
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise ValidationError(
                    f"{os.fspath(path)}: line {lineno}: not UTF-8 text ({exc.reason} at byte {exc.start})"
                ) from None
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except ValueError as exc:  # JSONDecodeError, or an integer literal past the digit limit
                detail = getattr(exc, "msg", exc)
                raise ValidationError(f"{os.fspath(path)}: line {lineno}: malformed JSON: {detail}") from None
            try:
                frames.append(frame_from_dict(obj, where=f"line {lineno}"))
            except ValidationError as exc:
                raise ValidationError(f"{os.fspath(path)}: {exc}") from None
    return frames


def load_dataset(path) -> CameraDataset:
    """Load a single-camera JSONL file into a CameraDataset sorted by frame_index.

    A second camera_id or a repeated frame_index is reported with its line
    and the earlier line it conflicts with.
    """
    frames = read_frames(path)
    if not frames:
        raise ValidationError(f"{os.fspath(path)}: dataset contains no frames")
    camera_id = frames[0].camera_id
    first = {}  # frame_index -> position of its first frame
    for pos, fr in enumerate(frames):
        if fr.camera_id != camera_id:
            raise _conflict(path, pos, 0, f"camera_id {fr.camera_id!r} differs from {camera_id!r} on")
        if first.setdefault(fr.frame_index, pos) != pos:
            raise _conflict(path, pos, first[fr.frame_index], f"frame_index {fr.frame_index} repeats")
    frames.sort(key=lambda fr: fr.frame_index)
    return CameraDataset(camera_id=camera_id, frames=tuple(frames))


def _conflict(path, pos, earlier, what) -> ValidationError:
    """An error naming the lines of frames ``pos`` and ``earlier`` in read_frames order."""
    with open(path, "rb") as fh:
        lines = [n for n, raw in enumerate(fh, start=1) if raw.decode("utf-8").strip()]
    return ValidationError(f"{os.fspath(path)}: line {lines[pos]}: {what} line {lines[earlier]}")


def write_frames(frames, path) -> int:
    """Write frame records as JSONL in the given order; returns the line count."""
    n = 0
    with open(path, "w", encoding="utf-8") as fh:
        for fr in frames:
            fh.write(json.dumps(frame_to_dict(fr), separators=(",", ":")))
            fh.write("\n")
            n += 1
    return n


def write_dataset(dataset: CameraDataset, path) -> int:
    """Write a CameraDataset as JSONL, one frame per line in frame order."""
    return write_frames(dataset.frames, path)
