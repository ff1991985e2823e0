"""JSONL annotation interchange: one frame object per line.

Line schema::

    {"camera_id": str, "frame_index": int, "label": "normal"|"anomalous",
     "anomaly_regions": [[x1, y1, x2, y2], ...],
     "persons": [{"track_id": int, "bbox": [x1, y1, x2, y2],
                  "interpolated": bool,
                  "keypoints": [[x, y, visibility-or-null], ... 17 entries]}]}

``read_frames`` parses a file into one ``FrameTable``. Each line's values are
type-checked as it is read: numbers must be JSON numbers that fit a float
(never a NaN literal), ids integers, ``interpolated`` a boolean. The line's
boxes and keypoints then become one float64 array, ``null`` as NaN, so the
reader never holds a file of Python floats. The table's value rules run
once per file as array predicates. Every error names the file and the line.

Unknown keys are accepted and ignored on read; they are not preserved on
write (lines are rebuilt from the table). Floats round-trip exactly through
the default JSON encoder.
"""

from __future__ import annotations

import json
import os
from itertools import chain

import numpy as np

from .errors import ValidationError
from .model import (
    KEYPOINT_COUNT,
    LABEL_ANOMALOUS,
    LABELS,
    CameraDataset,
    FrameRecord,
    FrameTable,
    RowError,
    _check_id,
)

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


def _box(raw):
    if type(raw) not in _LIST or len(raw) != 4 or not _NUMBER.issuperset(map(type, raw)):
        raise ValidationError(f"bbox must be a list of 4 numbers, got {raw!r}")
    return raw


class _Reader:
    """The lines read so far as rows; ``table()`` builds the FrameTable, which checks the values."""

    def __init__(self, path):
        self.path = os.fspath(path)
        self.frames = []  # (camera_id, frame_index, label, line)
        self.persons = []  # (frame row, track_id, interpolated, keypoint count)
        self.region_frame = []
        self.values, self.segments = [np.empty(0)], [0, 0, 0]  # per line: box, region and keypoint values

    def add(self, obj, lineno: int, nan_text: bool):
        """Append one parsed line; ``nan_text`` says whether the line's text holds ``NaN``."""
        row, frame_index, persons = len(self.frames), None, []
        try:
            if type(obj) is not dict:
                raise ValidationError(f"expected a JSON object, got {type(obj).__name__}")
            frame_index = _integer(obj["frame_index"], "frame_index")
            people = _list(obj.get("persons", []), "persons")
            regions = _list(obj.get("anomaly_regions", []), "anomaly_regions")
            camera_id, label = obj["camera_id"], obj["label"]
            if not 0 <= frame_index < 2**63 or label not in LABELS:  # the int64 and flag columns need these
                FrameRecord(camera_id=camera_id, frame_index=frame_index, label=label)  # raises with the rule
            numbers, rows = [], []  # box values then keypoint values; keypoint rows
            for p in people:
                if type(p) is not dict:
                    raise ValidationError(f"person entry must be an object, got {type(p).__name__}")
                track_id = _integer(p["track_id"], "track_id")
                _check_id("track_id", track_id)
                numbers += _box(p["bbox"])
                interpolated = p.get("interpolated", False)
                if type(interpolated) is not bool:
                    raise ValidationError(
                        f"interpolated must be a boolean, got {interpolated!r} (track {track_id})"
                    )
                keypoints = _list(p["keypoints"], "keypoints")
                persons.append((row, track_id, interpolated, len(keypoints)))
                rows += keypoints
            for box in regions:
                numbers += _box(box)
            n_boxes = len(numbers)
            if not _LIST.issuperset(map(type, rows)) or set(map(len, rows)) - {3}:
                raise ValidationError("each keypoint must be a list [x, y, visibility-or-null]")
            numbers += chain.from_iterable(rows)
            if not _KEYPOINT_VALUE.issuperset(map(type, numbers)):  # box values are numbers already
                raise ValidationError("keypoint values must be numbers, with null only as visibility")
            values = np.array(numbers, dtype=np.float64)
            # Each null became NaN, so more NaNs than nulls means a NaN literal,
            # which the line's text then holds.
            if nan_text and np.count_nonzero(np.isnan(values[n_boxes:])) != numbers.count(None):
                raise ValidationError("keypoint values must not be NaN; write null for an absent visibility")
        except (ValidationError, KeyError, OverflowError) as exc:
            if isinstance(exc, KeyError):
                exc = f"missing field {exc.args[0]!r}"
            elif isinstance(exc, OverflowError):  # float() of an integer literal past the float range
                exc = "number too large for a float"
            ctx = f"line {lineno}" if frame_index is None else f"line {lineno} (frame_index {frame_index})"
            raise ValidationError(f"{self.path}: {ctx}: {exc}") from None
        self.frames.append((camera_id, frame_index, label, lineno))
        self.persons += persons
        self.region_frame += [row] * len(regions)
        self.values.append(values)
        self.segments += (4 * len(persons), 4 * len(regions), len(numbers) - n_boxes)

    def error(self, row, message) -> ValidationError:
        _, frame_index, _, line = self.frames[row]
        return ValidationError(f"{self.path}: line {line} (frame_index {frame_index}): {message}")

    def table(self) -> FrameTable:
        camera_id, frame_index, label, line = zip(*self.frames) if self.frames else ((),) * 4
        frame_row, track_id, interpolated, counts = zip(*self.persons) if self.persons else ((),) * 4
        for i, count in enumerate(counts):
            if count != KEYPOINT_COUNT:
                shape = f"got shape {(count, 3)} (track {track_id[i]})"
                raise self.error(frame_row[i], f"expected ({KEYPOINT_COUNT}, 3) keypoints, {shape}")
        values = np.concatenate(self.values)
        part = np.repeat(np.tile(np.arange(3, dtype=np.int8), len(self.frames) + 1), self.segments)
        try:
            return FrameTable(
                camera_id=np.fromiter(camera_id, dtype=object, count=len(camera_id)),
                frame_index=np.array(frame_index, dtype=np.int64),
                anomalous=np.array(label, dtype=object) == LABEL_ANOMALOUS,
                line=np.array(line, dtype=np.int64),
                region_frame=np.array(self.region_frame, dtype=np.int64),
                regions=values[part == 1].reshape(-1, 4),
                frame_row=np.array(frame_row, dtype=np.int64),
                track_id=np.array(track_id, dtype=np.int64),
                keypoints=values[part == 2].reshape(-1, KEYPOINT_COUNT, 3),
                bbox=values[part == 0].reshape(-1, 4),
                interpolated=np.array(interpolated, dtype=bool),
            )
        except RowError as exc:
            raise self.error(exc.row, exc) from None


def read_frames(path) -> FrameTable:
    """Parse a JSONL file into one FrameTable, keeping file order."""
    reader = _Reader(path)
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise ValidationError(
                    f"{reader.path}: line {lineno}: not UTF-8 text ({exc.reason} at byte {exc.start})"
                ) from None
            if line.isspace():
                continue
            try:
                obj = json.loads(line)
            except ValueError as exc:  # JSONDecodeError, or an integer literal past the digit limit
                detail = getattr(exc, "msg", exc)
                raise ValidationError(f"{reader.path}: line {lineno}: malformed JSON: {detail}") from None
            reader.add(obj, lineno, "NaN" in line)
    return reader.table()


def load_dataset(path) -> CameraDataset:
    """Load a single-camera JSONL file into a CameraDataset sorted by frame_index.

    A second camera_id or a repeated frame_index is reported with its line
    and the earlier line it conflicts with, whichever comes first in the file.
    """
    frames = read_frames(path)
    if not len(frames):
        raise ValidationError(f"{os.fspath(path)}: dataset contains no frames")
    cameras, fi = frames.camera_id, frames.frame_index
    order = np.argsort(fi, kind="stable")
    repeats = order[1:][fi[order][1:] == fi[order][:-1]]  # rows whose frame_index an earlier row holds
    other = np.flatnonzero(cameras != cameras[0])
    conflicts = []  # (row, earlier row, what): the first conflict of each kind
    if other.size:
        conflicts.append((other[0], 0, f"camera_id {cameras[other[0]]!r} differs from {cameras[0]!r} on"))
    if repeats.size:
        row = repeats.min()
        conflicts.append((row, np.argmax(fi == fi[row]), f"frame_index {fi[row]} repeats"))
    if conflicts:
        row, earlier, what = min(conflicts, key=lambda c: c[0])
        lines = frames.line[row], frames.line[earlier]
        raise ValidationError(f"{os.fspath(path)}: line {lines[0]}: {what} line {lines[1]}")
    return CameraDataset(camera_id=cameras[0], frames=frames.take(order))


def _frame_dicts(frames: FrameTable):
    """Each frame of the table as the object its JSONL line holds."""
    persons = np.searchsorted(frames.frame_row, np.arange(len(frames) + 1)).tolist()
    regions = np.searchsorted(frames.region_frame, np.arange(len(frames) + 1)).tolist()
    track_id, flags = frames.track_id.tolist(), frames.interpolated.tolist()
    bbox, region_boxes = frames.bbox.tolist(), frames.regions.tolist()
    absent = np.isnan(frames.keypoints[:, :, 2])
    columns = (frames.camera_id.tolist(), frames.frame_index.tolist(), frames.anomalous.tolist())
    for row, (camera_id, frame_index, anomalous) in enumerate(zip(*columns)):
        a, b = persons[row], persons[row + 1]
        keypoints = frames.keypoints[a:b].astype(object)
        keypoints[:, :, 2][absent[a:b]] = None
        yield {
            "camera_id": camera_id,
            "frame_index": frame_index,
            "label": LABELS[anomalous],
            "anomaly_regions": region_boxes[regions[row] : regions[row + 1]],
            "persons": [
                {"track_id": t, "bbox": box, "interpolated": interp, "keypoints": kps}
                for t, box, interp, kps in zip(track_id[a:b], bbox[a:b], flags[a:b], keypoints.tolist())
            ],
        }


def frame_to_dict(frame: FrameRecord) -> dict:
    """One FrameRecord as the object its JSONL line holds."""
    return next(_frame_dicts(FrameTable.from_records([frame])))


def write_frames(frames: FrameTable, path) -> int:
    """Write a FrameTable as JSONL, one line per frame row in row order; returns the line count."""
    n = 0
    with open(path, "w", encoding="utf-8") as fh:
        for obj in _frame_dicts(frames):
            fh.write(json.dumps(obj, separators=(",", ":")))
            fh.write("\n")
            n += 1
    return n


def write_dataset(dataset: CameraDataset, path) -> int:
    """Write a CameraDataset as JSONL, one frame per line in frame order."""
    return write_frames(dataset.frames, path)
