"""JSONL annotation interchange: one frame object per line.

Line schema::

    {"camera_id": str, "frame_index": int, "label": "normal"|"anomalous",
     "anomaly_regions": [[x1, y1, x2, y2], ...],
     "persons": [{"track_id": int, "bbox": [x1, y1, x2, y2],
                  "interpolated": bool,
                  "keypoints": [[x, y, visibility-or-null], ... 17 entries]}]}

``read_frames`` parses a file into one ``FrameTable``. orjson parses each
line, and ``json.loads`` re-reads any line that orjson refuses or whose
values fail a check, so tables and error messages are those of
``json.loads``. Each line's values are type-checked as it is read: numbers
must be JSON numbers that fit a float (never a NaN literal), ids integers
(no track_id twice in a frame), ``interpolated`` a boolean. The line's boxes
and keypoints then become one float64 array, ``null`` as NaN, and its
frame's and persons' integers flat Python ints; within 512 lines these join
the box, region and keypoint columns and the frame and person integer
columns, so the reader never holds a Python row per frame or person, nor a
value twice. A file holds one camera, each frame_index once: the first line
that names another camera, or a frame_index an earlier line holds, is
refused with both lines. Then, once per file and as array predicates: each
person's keypoint count, its ``interpolated`` flag (true exactly when every
visibility is ``null``), and the table's rules (the camera_id's rule, then
the value rules). The flag is not kept; ``write_frames`` writes it from the
visibilities. Every error names the file and the line. ``load_datasets``
reads a command's files in parallel (forked children), and takes each file's
table or error where a serial read would.

Unknown keys are accepted and ignored on read; they are not preserved on
write (lines are rebuilt from the table). ``write_frames`` writes each line
with orjson, and with ``json.dumps`` any line that orjson would format
differently (a float that ``json.dumps`` writes in exponent notation, a
``camera_id`` that it escapes), so every line has the bytes of
``json.dumps`` and floats round-trip exactly. ``read_json`` reads a file
that holds one JSON document, a config or a results file.
"""

from __future__ import annotations

import json
import os
import pickle
import signal
import sys
from itertools import chain

import numpy as np
import orjson

from .errors import PosebenchError, ValidationError, json_error
from .model import KEYPOINT_COUNT, LABEL_ANOMALOUS, LABELS, FrameTable, RowError, camera_id_error

_NUMBER = frozenset((int, float))  # JSON numbers; bool is excluded on purpose
_KEYPOINT_VALUE = _NUMBER | {type(None)}
_LIST = frozenset((list, tuple))


def _integer(value, name: str) -> int:
    if type(value) is int:
        return value
    if type(value) is float and value.is_integer():
        return int(value)
    raise ValidationError(f"{name} must be an integer, got {value!r}")


def _check_id(name: str, value: int) -> None:
    # Ids become int64 array entries, so they must fit one.
    if not 0 <= value < 2**63:
        raise ValidationError(f"{name} must be a non-negative 64-bit integer, got {value!r}")


def _list(value, name: str):
    if type(value) not in _LIST:
        raise ValidationError(f"{name} must be a list, got {value!r}")
    return value


def _box(raw):
    if type(raw) not in _LIST or len(raw) != 4 or not _NUMBER.issuperset(map(type, raw)):
        raise ValidationError(f"bbox must be a list of 4 numbers, got {raw!r}")
    return raw


class _Reader:
    """The lines read so far, joined into columns every 512 lines; ``table()`` builds the checked FrameTable."""

    def __init__(self, path):
        self.path = os.fspath(path)
        self.camera_id = None  # the first frame's
        self.lines = {}  # frame_index: line
        # Per line not yet joined: its values; its frame's (frame_index, anomalous, persons, regions, keypoint rows)
        # and each person's (track_id, interpolated, keypoint count), as flat integers.
        self.values, self.frame_ints, self.person_ints = [], [], []
        # The joined lines' frame and person integers, and box, region and keypoint values.
        self.columns = [np.empty(0, dtype) for dtype in (np.int64, np.int64, float, float, float)]

    def add(self, obj, lineno: int, nan_text: bool):
        """Append one parsed line; ``nan_text`` says whether the line's text holds ``NaN``."""
        row, frame_index = len(self.lines), None
        try:
            if type(obj) is not dict:
                raise ValidationError(f"expected a JSON object, got {type(obj).__name__}")
            frame_index = _integer(obj["frame_index"], "frame_index")
            people = _list(obj.get("persons", []), "persons")
            regions = _list(obj.get("anomaly_regions", []), "anomaly_regions")
            camera_id, label = obj["camera_id"], obj["label"]
            _check_id("frame_index", frame_index)  # the int64 and flag columns need these two
            if label not in LABELS:
                raise ValidationError(f"label must be one of {LABELS}, got {label!r} (frame {frame_index})")
            numbers, rows, track_ids, persons = [], [], set(), []  # box values then keypoint values; keypoint rows
            for p in people:
                if type(p) is not dict:
                    raise ValidationError(f"person entry must be an object, got {type(p).__name__}")
                track_id = _integer(p["track_id"], "track_id")
                _check_id("track_id", track_id)
                if track_id in track_ids:
                    raise ValidationError(f"track_id {track_id} appears twice in the frame")
                track_ids.add(track_id)
                numbers += _box(p["bbox"])
                interpolated = p.get("interpolated", False)
                if type(interpolated) is not bool:
                    raise ValidationError(
                        f"interpolated must be a boolean, got {interpolated!r} (track {track_id})"
                    )
                keypoints = _list(p["keypoints"], "keypoints")
                persons += (track_id, interpolated, len(keypoints))
                rows += keypoints
            for box in regions:
                numbers += _box(box)
            n_boxes = len(numbers)
            if not _LIST.issuperset(map(type, rows)) or set(map(len, rows)) - {3}:
                raise ValidationError("each keypoint must be a list [x, y, visibility-or-null]")
            numbers += chain.from_iterable(rows)
            if not _KEYPOINT_VALUE.issuperset(map(type, numbers)):  # box values are numbers already
                raise ValidationError("keypoint values must be numbers, with null only as visibility")
            values = np.fromiter(numbers, np.float64, len(numbers))
            # Each null became NaN, so more NaNs than nulls means a NaN literal,
            # which the line's text then holds.
            if nan_text and np.count_nonzero(np.isnan(values[n_boxes:])) != numbers.count(None):
                raise ValidationError("keypoint values must not be NaN; write null for an absent visibility")
            # A first camera that breaks the rule is the table's to report, on the first line.
            other = row and camera_id != self.camera_id and not camera_id_error(self.camera_id)
            problem = other and camera_id_error(camera_id)
            if problem:
                raise ValidationError(f"camera_id {problem}")
        except (ValidationError, KeyError, OverflowError) as exc:
            if isinstance(exc, KeyError):
                exc = f"missing field {exc.args[0]!r}"
            elif isinstance(exc, OverflowError):  # float() of an integer literal past the float range
                exc = "number too large for a float"
            ctx = f"line {lineno}" if frame_index is None else f"line {lineno} (frame_index {frame_index})"
            raise ValidationError(f"{self.path}: {ctx}: {exc}") from None
        if other:
            first = next(iter(self.lines.values()))
            raise ValidationError(
                f"{self.path}: line {lineno}: camera_id {camera_id!r} differs from {self.camera_id!r} on line {first}"
            )
        if frame_index in self.lines:
            earlier = self.lines[frame_index]
            raise ValidationError(f"{self.path}: line {lineno}: frame_index {frame_index} repeats line {earlier}")
        if not row:
            self.camera_id = camera_id
        self.lines[frame_index] = lineno
        self.frame_ints += (frame_index, label == LABEL_ANOMALOUS, len(people), len(regions), len(rows))
        self.person_ints += persons
        self.values.append(values)
        if len(self.values) == 512:
            self.join()

    def join(self):
        """Append the lines not yet joined to the columns, and free their values and integers."""
        frames = np.array(self.frame_ints, np.int64)
        sizes = frames.reshape(-1, 5)[:, 2:] * (4, 4, 3)  # each line's box, region and keypoint value counts
        values = np.concatenate(self.values or [np.empty(0)])
        part = np.repeat(np.tile(np.arange(3, dtype=np.int8), len(sizes)), sizes.ravel())
        joined = (frames, np.array(self.person_ints, np.int64), *(values[part == p] for p in range(3)))
        for column, new in zip(self.columns, joined):
            column.resize(column.size + new.size, refcheck=False)  # a realloc, in place where the heap allows
            column[column.size - new.size :] = new
        self.values, self.frame_ints, self.person_ints = [], [], []

    def error(self, row, message) -> ValidationError:
        frame_index = int(self.columns[0][5 * row])
        return ValidationError(f"{self.path}: line {self.lines[frame_index]} (frame_index {frame_index}): {message}")

    def table(self) -> FrameTable:
        if not self.lines:
            raise ValidationError(f"{self.path}: dataset contains no frames")
        self.join()
        frame_index, anomalous, persons, regions, _ = self.columns[0].reshape(-1, 5).T
        track_id, interpolated, counts = self.columns[1].reshape(-1, 3).T
        frame_row = np.repeat(np.arange(len(frame_index)), persons)
        for i in np.flatnonzero(counts != KEYPOINT_COUNT)[:1]:
            shape = f"got shape {(int(counts[i]), 3)} (track {track_id[i]})"
            raise self.error(frame_row[i], f"expected ({KEYPOINT_COUNT}, 3) keypoints, {shape}")
        keypoints = self.columns[4].reshape(-1, KEYPOINT_COUNT, 3)
        for i in np.flatnonzero(interpolated != np.isnan(keypoints[:, :, 2]).all(axis=1))[:1]:
            kind, rule = ("interpolated", "have no") if interpolated[i] else ("non-interpolated", "carry at least one")
            raise self.error(frame_row[i], f"{kind} observation must {rule} keypoint visibility (track {track_id[i]})")
        try:
            return FrameTable(
                camera_id=self.camera_id,
                frame_index=frame_index.copy(),
                anomalous=anomalous == 1,
                region_frame=np.repeat(np.arange(len(frame_index)), regions),
                regions=self.columns[3].reshape(-1, 4),
                frame_row=frame_row,
                track_id=track_id.copy(),
                keypoints=keypoints,
                bbox=self.columns[2].reshape(-1, 4),
            )
        except RowError as exc:
            raise self.error(exc.row, exc) from None


def read_frames(path) -> FrameTable:
    """Parse a JSONL file into one FrameTable, keeping file order, with a traced peak under 2x its columns' bytes."""
    reader = _Reader(path)
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:  # orjson never yields NaN: it refuses the literal and anything past the float range
                obj = orjson.loads(raw)
                # orjson reads an integer past 64 bits as a float; only a camera_id keeps it unchecked
                if type(obj) is dict and type(obj.get("camera_id")) is str:
                    reader.add(obj, lineno, False)
                    continue
            except (orjson.JSONDecodeError, ValidationError):
                pass  # json.loads re-reads the line, so its table or message is the reference one
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
            except (ValueError, RecursionError) as exc:  # also an integer literal past the digit limit
                raise ValidationError(f"{reader.path}: line {lineno}: malformed JSON: {json_error(exc)}") from None
            reader.add(obj, lineno, "NaN" in line)
    return reader.table()


def read_json(path, what: str = ""):
    """The JSON value of file ``path``; an error names ``what`` (say ``"config "``), the file and any non-UTF-8 line."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
        return json.loads(data.decode("utf-8"))
    except OSError as exc:
        raise ValidationError(f"cannot read {what}{path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ValidationError(f"{what}{path}: line {line}: not UTF-8 text ({exc.reason})") from None
    except (ValueError, RecursionError) as exc:  # also an integer literal past the digit limit
        raise ValidationError(f"{what}{path}: malformed JSON: {json_error(exc)}") from None


def load_dataset(path) -> FrameTable:
    """A single-camera JSONL file as a FrameTable in strictly increasing frame_index; an unreadable file is refused."""
    try:
        frames = read_frames(path)
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc.strerror or exc}") from None
    return frames.take(np.argsort(frames.frame_index))


def _reader(paths):
    """Fork a child that pickles the table fields of each of ``paths``, or its error, to a pipe; pid and read end."""
    for stream in (sys.stdout, sys.stderr):
        stream.flush()
    try:
        read, write = os.pipe()
        pid = os.fork()
    except OSError as exc:  # a process or file limit: a runtime failure, not a write
        raise PosebenchError(f"cannot start a process to read {', '.join(map(str, paths))}: {exc.strerror}") from None
    if pid:
        os.close(write)
        return pid, os.fdopen(read, "rb")
    try:  # the child, which never returns; the caller kills it once it stops reading
        with os.fdopen(write, "wb") as out:
            for path in paths:
                try:
                    result = vars(load_dataset(path))
                except Exception as exc:  # noqa: BLE001 - the caller raises it when it takes this file
                    result = exc
                pickle.dump(result, out, protocol=5)
    finally:
        os._exit(0)


def load_datasets(*paths):
    """Yield ``load_dataset`` of each path in path order. One forked child per spare core (none without
    ``os.sched_getaffinity``, so none without ``os.fork``) reads its share of the later files in path order and
    sends each table's fields (rebuilt here) or error (raised when taken). Closing this kills and reaps them all."""
    n = min(len(os.sched_getaffinity(0)) - 1, len(paths) - 1) if hasattr(os, "sched_getaffinity") else 0
    readers = []  # pid, pipe, share
    try:
        for c in range(n):
            readers.append((*_reader(paths[1 + c :: n]), paths[1 + c :: n]))
        for i, path in enumerate(paths):
            if not i or not n:
                yield load_dataset(path)
                continue
            _, pipe, share = readers[(i - 1) % n]
            try:
                result = pickle.load(pipe)
            except (EOFError, pickle.UnpicklingError):
                files = ", ".join(map(str, share[(i - 1) // n :]))
                raise PosebenchError(f"the process reading {files} ended without a result") from None
            if isinstance(result, Exception):
                raise result
            yield FrameTable(**result)
    finally:
        for pid, pipe, _ in readers:
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _same_in_orjson(text) -> bool:
    try:  # orjson refuses a lone surrogate
        return orjson.dumps(text) == json.dumps(text).encode()
    except orjson.JSONEncodeError:
        return False


def _json_rows(frames: FrameTable) -> np.ndarray:
    """The frame rows whose line orjson would write unlike ``json.dumps``.

    Both print the shortest digits that round-trip, but ``json.dumps`` turns to
    exponent notation for a finite nonzero |v| < 1e-4 or >= 1e16 (``1e-05``,
    ``1e+16``), where orjson writes ``0.00001`` and ``1e16``. orjson also
    formats a column that is not float64 by its own dtype, leaves non-ASCII
    unescaped and refuses a lone surrogate, so a row with such a column or
    ``camera_id`` is marked too. NaN, ``null`` to both, is not.
    """

    def marked(values, axes):
        mag = np.abs(values)
        return (((mag < 1e-4) & (mag != 0)) | (mag >= 1e16) | (values.dtype != np.float64)).any(axis=axes)

    rows = np.zeros(len(frames), dtype=bool)
    rows[frames.frame_row[marked(frames.bbox, 1) | marked(frames.keypoints, (1, 2))]] = True
    rows[frames.region_frame[marked(frames.regions, 1)]] = True
    return rows | (not _same_in_orjson(frames.camera_id))


def _nested_lists(values: np.ndarray):
    """``json.dumps`` hook: an array as nested lists, NaN as ``None``."""
    out = values.astype(object)
    out[np.isnan(values)] = None
    return out.tolist()


_ORJSON_OPTIONS = orjson.OPT_SERIALIZE_NUMPY | orjson.OPT_APPEND_NEWLINE


def write_frames(frames: FrameTable, path) -> int:
    """Write a FrameTable as JSONL, one line per frame row in row order; returns the line count.

    orjson writes each line from array slices (NaN as ``null``), except the
    rows ``_json_rows`` marks, which ``json.dumps`` writes from the same
    object; so every line has the bytes ``json.dumps`` gives.
    """
    persons = np.searchsorted(frames.frame_row, np.arange(len(frames) + 1)).tolist()
    regions = np.searchsorted(frames.region_frame, np.arange(len(frames) + 1)).tolist()
    track_id, flags = frames.track_id.tolist(), np.isnan(frames.keypoints[:, :, 2]).all(axis=1).tolist()
    # orjson refuses arrays that are not C-contiguous
    bbox, keypoints, boxes = map(np.ascontiguousarray, (frames.bbox, frames.keypoints, frames.regions))
    columns = (frames.frame_index, frames.anomalous, _json_rows(frames))
    with open(path, "wb") as fh:
        for row, (frame_index, anomalous, json_only) in enumerate(zip(*(c.tolist() for c in columns))):
            obj = {
                "camera_id": frames.camera_id,
                "frame_index": frame_index,
                "label": LABELS[anomalous],
                "anomaly_regions": boxes[regions[row] : regions[row + 1]],
                "persons": [
                    {"track_id": track_id[p], "bbox": bbox[p], "interpolated": flags[p], "keypoints": keypoints[p]}
                    for p in range(persons[row], persons[row + 1])
                ],
            }
            if json_only:
                fh.write(json.dumps(obj, separators=(",", ":"), default=_nested_lists).encode() + b"\n")
            else:
                fh.write(orjson.dumps(obj, option=_ORJSON_OPTIONS))
    return len(frames)
