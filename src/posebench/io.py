"""JSONL annotation interchange: one frame object per line.

Line schema::

    {"camera_id": str, "frame_index": int, "label": "normal"|"anomalous",
     "anomaly_regions": [[x1, y1, x2, y2], ...],
     "persons": [{"track_id": int, "bbox": [x1, y1, x2, y2],
                  "interpolated": bool,
                  "keypoints": [[x, y, visibility-or-null], ... 17 entries]}]}

Unknown keys are accepted and ignored on read; they are not preserved on
write (records are rebuilt from the typed model). Floats round-trip exactly
through the default JSON encoder.
"""

from __future__ import annotations

import json
import os

from .errors import ValidationError
from .model import (
    BoundingBox,
    CameraDataset,
    FrameRecord,
    Keypoint,
    PersonObservation,
)


_NUMBER = frozenset((int, float))  # JSON numbers; bool is excluded on purpose


def _integer(value, name: str, where: str) -> int:
    if type(value) is int:
        return value
    if type(value) is float and value.is_integer():
        return int(value)
    raise ValidationError(f"{where}: {name} must be an integer, got {value!r}")


def _list(value, name: str, where: str):
    if not isinstance(value, (list, tuple)):
        raise ValidationError(f"{where}: {name} must be a list, got {value!r}")
    return value


def _bbox_from_list(raw, where: str) -> BoundingBox:
    if not isinstance(raw, (list, tuple)) or len(raw) != 4 or not _NUMBER.issuperset(map(type, raw)):
        raise ValidationError(f"{where}: bbox must be a list of 4 numbers, got {raw!r}")
    return BoundingBox(float(raw[0]), float(raw[1]), float(raw[2]), float(raw[3]))


def _keypoint_from_list(raw, where: str) -> Keypoint:
    if not isinstance(raw, (list, tuple)) or len(raw) != 3:
        raise ValidationError(f"{where}: keypoint must be [x, y, visibility-or-null], got {raw!r}")
    x, y, vis = raw
    if type(x) not in _NUMBER or type(y) not in _NUMBER or (vis is not None and type(vis) not in _NUMBER):
        raise ValidationError(f"{where}: keypoint values must be numbers, got {raw!r}")
    return Keypoint(float(x), float(y), None if vis is None else float(vis))


def _person_from_dict(raw, where: str) -> PersonObservation:
    if not isinstance(raw, dict):
        raise ValidationError(f"{where}: person entry must be an object, got {type(raw).__name__}")
    try:
        track_id = raw["track_id"]
        bbox = raw["bbox"]
        keypoints = raw["keypoints"]
    except KeyError as exc:
        raise ValidationError(f"{where}: person entry missing field {exc.args[0]!r}") from None
    kps = tuple(_keypoint_from_list(kp, where) for kp in _list(keypoints, "keypoints", where))
    return PersonObservation(
        track_id=_integer(track_id, "track_id", where),
        bbox=_bbox_from_list(bbox, where),
        keypoints=kps,
        interpolated=bool(raw.get("interpolated", False)),
    )


def frame_from_dict(raw: dict, where: str = "frame") -> FrameRecord:
    """Build a FrameRecord from a parsed JSONL object, ignoring unknown keys."""
    if not isinstance(raw, dict):
        raise ValidationError(f"{where}: expected a JSON object, got {type(raw).__name__}")
    for key in ("camera_id", "frame_index", "label"):
        if key not in raw:
            raise ValidationError(f"{where}: missing field {key!r}")
    frame_index = _integer(raw["frame_index"], "frame_index", where)
    ctx = f"{where} (frame_index {frame_index})"
    persons = tuple(_person_from_dict(p, ctx) for p in _list(raw.get("persons", []), "persons", ctx))
    regions = tuple(
        _bbox_from_list(r, ctx) for r in _list(raw.get("anomaly_regions", []), "anomaly_regions", ctx)
    )
    return FrameRecord(
        camera_id=str(raw["camera_id"]),
        frame_index=frame_index,
        label=str(raw["label"]),
        persons=persons,
        anomaly_regions=regions,
    )


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
                "keypoints": [[kp.x, kp.y, kp.visibility] for kp in obs.keypoints],
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
            except json.JSONDecodeError as exc:
                raise ValidationError(f"{os.fspath(path)}: line {lineno}: malformed JSON: {exc.msg}") from None
            try:
                frames.append(frame_from_dict(obj, where=f"line {lineno}"))
            except ValidationError as exc:
                raise ValidationError(f"{os.fspath(path)}: {exc}") from None
    return frames


def load_dataset(path) -> CameraDataset:
    """Load a single-camera JSONL file into a CameraDataset sorted by frame_index."""
    frames = read_frames(path)
    if not frames:
        raise ValidationError(f"{os.fspath(path)}: dataset contains no frames")
    frames.sort(key=lambda fr: fr.frame_index)
    camera_id = frames[0].camera_id
    try:
        return CameraDataset(camera_id=camera_id, frames=tuple(frames))
    except ValidationError as exc:
        raise ValidationError(f"{os.fspath(path)}: {exc}") from None


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
