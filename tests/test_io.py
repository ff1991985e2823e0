import dataclasses
import functools
import hashlib
import json
import operator
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from posebench import io
from posebench.errors import ValidationError
from posebench.io import _Reader, _json_rows, load_dataset, read_frames, write_frames
from posebench.model import LABELS, FrameTable
from posebench.synthetic import generate_normals, generate_split
from conftest import make_frame, make_obs, table, working_set_mb
import _oracles


def sample_frames():
    return [
        make_frame(0, persons=(make_obs(track_id=0),)),
        make_frame(1, persons=(make_obs(track_id=0), make_obs(track_id=1, origin=(90, 90)))),
        make_frame(2, label="anomalous", persons=(make_obs(track_id=1, origin=(91, 91)),)),
    ]


def read_objects(tmp_path, *objects):
    """read_frames of a file holding one JSON line per object."""
    path = tmp_path / "objects.jsonl"
    path.write_text("".join(json.dumps(obj) + "\n" for obj in objects))
    return read_frames(path)


def test_roundtrip_preserves_everything(tmp_path):
    path = tmp_path / "frames.jsonl"
    frames = sample_frames()
    n = write_frames(table(frames), path)
    assert n == 3
    assert [json.loads(line) for line in path.read_text().splitlines()] == frames
    back = read_frames(path)
    assert back == table(frames)
    assert back.camera_id == "cam0"


def test_dataset_roundtrip_sorts(tmp_path):
    path = tmp_path / "ds.jsonl"
    frames = sample_frames()
    write_frames(table([frames[2], frames[0], frames[1]]), path)
    ds = load_dataset(path)
    assert ds.frame_index.tolist() == [0, 1, 2]
    assert ds.camera_id == "cam0"
    out = tmp_path / "copy.jsonl"
    write_frames(ds, out)
    assert load_dataset(out) == ds


def test_sorted_file_loads_as_read(tmp_path, monkeypatch):
    # A file in frame order, as write_frames leaves it, needs no sorted copy: load_dataset returns the table read.
    path = tmp_path / "ds.jsonl"
    write_frames(table(sample_frames()), path)
    read = []
    monkeypatch.setattr(io, "read_frames", lambda p: read.append(read_frames(p)) or read[-1])
    assert load_dataset(path) is read[0]


@pytest.mark.parametrize("n", [511, 512, 513, 1100])
def test_reads_whole_across_joins(tmp_path, n):
    # The reader appends each 512 lines' values to its box, region and keypoint columns; a file of any length reads
    # back as written, with frames of no person and anomaly regions on both sides of each join.
    frames = generate_split(100, 800, 400, seed=4).test.take(np.arange(n))
    keep = frames.frame_row % 7 != 0
    persons = {name: getattr(frames, name)[keep] for name in ("frame_row", "track_id", "keypoints", "bbox")}
    frames = dataclasses.replace(frames, **persons)
    assert frames.region_frame.size and not keep.all()
    path = tmp_path / "frames.jsonl"
    write_frames(frames, path)
    assert read_frames(path) == frames


def test_read_working_set_is_under_two_tables(tmp_path):
    # Every 512 lines, the lines' values and integers are appended to the columns and freed, so the reader holds no
    # Python row per frame or person and no value twice: 1.93 tables here. A reader that keeps a tuple per frame and
    # person until the table is built peaks at 2.06 to 2.21, and one that joins every line's array at the end near 3.9.
    frames = generate_normals(2000, seed=0)
    path = tmp_path / "frames.jsonl"
    write_frames(frames, path)
    table_mb = sum(getattr(frames, f.name).nbytes for f in dataclasses.fields(frames)[1:]) / 2**20
    assert working_set_mb(lambda: read_frames(path)) < 2.0 * table_mb


def test_interpolated_visibility_roundtrip(tmp_path):
    frame = make_frame(4, persons=(make_obs(interpolated=True),))
    path = tmp_path / "frames.jsonl"
    write_frames(read_objects(tmp_path, frame), path)
    written = json.loads(path.read_text())
    # Interpolated keypoints serialize a null visibility.
    assert written["persons"][0]["keypoints"][0][2] is None
    assert written == frame


def test_unknown_keys_are_ignored(tmp_path):
    d = make_frame(0, persons=(make_obs(),))
    d["extra"] = {"anything": 1}
    d["persons"][0]["score"] = 0.7
    parsed = read_objects(tmp_path, d)
    assert parsed.frame_index.tolist() == [0]


def test_missing_field_is_an_error(tmp_path):
    d = make_frame(0)
    del d["label"]
    with pytest.raises(ValidationError, match=r"line 1 \(frame_index 0\): missing field 'label'"):
        read_objects(tmp_path, d)


def test_malformed_json_reports_line_number(tmp_path):
    path = tmp_path / "bad.jsonl"
    good = json.dumps(make_frame(0))
    path.write_text(good + "\n{oops\n")
    with pytest.raises(ValidationError, match="line 2"):
        read_frames(path)


@pytest.mark.parametrize(
    "field,value,message",
    [
        (("persons",), 5, "persons must be a list"),
        (("persons", 0, "keypoints"), 5, "keypoints must be a list"),
        (("persons", 0, "keypoints", 0), ["a", 1, 0.5], "keypoint values must be numbers"),
        (("persons", 0, "track_id"), 1.5, "track_id must be an integer"),
        (("frame_index",), "x", "frame_index must be an integer"),
        (("persons", 0, "keypoints"), [[1.0, 2.0, 0.5]] * 16, r"keypoints, got shape \(16, 3\)"),
        (("persons", 0, "bbox"), [5, 5, 5, 9], "bounding box must have positive extent"),
        (("persons", 0, "keypoints", 0, 2), 1.5, r"visibility must be in \[0, 1\]"),
        (("persons", 0, "keypoints", 0, 2), float("nan"), "must not be NaN; write null for an absent"),
        (("persons", 0, "keypoints", 0, 0), None, "nose coordinates must be finite"),
        (("label",), "odd", "label must be one of"),
        (("label",), 7, "label must be one of"),
        (("anomaly_regions",), [[1, 1, 5, 5]], "normal frame must not carry anomaly regions"),
        (("persons", 0, "interpolated"), True, "interpolated observation must have no keypoint visibility"),
        (("persons", 0, "interpolated"), "no", "interpolated must be a boolean"),
        (("camera_id",), 7, "camera_id must be a non-empty string"),
        (("persons", 0, "keypoints", 0, 0), 10**400, "number too large for a float"),
        (("persons", 0, "bbox", 2), 10**400, "number too large for a float"),
        (("frame_index",), 2**63, "frame_index must be a non-negative 64-bit integer"),
        (("persons", 0, "track_id"), 2**63, "track_id must be a non-negative 64-bit integer"),
        (("persons", 0, "track_id"), -1, "track_id must be a non-negative 64-bit integer"),
    ],
    ids=[
        "persons", "keypoints", "coordinate", "track_id", "frame_index",
        "keypoint-count", "zero-area-bbox", "visibility-range", "visibility-nan", "null-coordinate",
        "label", "label-type", "normal-with-region", "interpolated-mismatch", "interpolated-type",
        "camera_id-type", "huge-keypoint", "huge-bbox", "huge-frame_index", "huge-track_id",
        "negative-track_id",
    ],
)
def test_wrong_type_reports_line_number(tmp_path, field, value, message):
    d = make_frame(1, persons=(make_obs(),))
    *parents, leaf = field
    target = d
    for key in parents:
        target = target[key]
    target[leaf] = value
    path = tmp_path / "bad.jsonl"
    path.write_text(json.dumps(make_frame(0)) + "\n" + json.dumps(d) + "\n")
    with pytest.raises(ValidationError, match=f"bad.jsonl: line 2.*{message}"):
        read_frames(path)


@pytest.mark.parametrize(
    "fault,message",
    [
        ({"keypoints": [[1.0, 2.0, 0.5]] * 16}, r"expected \(17, 3\) keypoints, got shape \(16, 3\) \(track 0\)"),
        ({"interpolated": True}, r"interpolated observation must have no keypoint visibility \(track 0\)"),
    ],
    ids=["keypoint-count", "interpolated-mismatch"],
)
def test_person_schema_checks_run_before_value_rules(tmp_path, fault, message):
    # Per file, the keypoint counts and then the interpolated flags are checked before the table's value
    # rules, so a later line that breaks one is reported ahead of an earlier line with a bad box.
    bad_box = make_frame(1, persons=({**make_obs(), "bbox": [5, 5, 5, 9]},))
    faulty = make_frame(2, persons=({**make_obs(), **fault},))
    with pytest.raises(ValidationError, match=rf"objects.jsonl: line 3 \(frame_index 2\): {message}$"):
        read_objects(tmp_path, make_frame(0), bad_box, faulty)


@pytest.mark.parametrize(
    "frames,message",
    [
        ([make_frame(2), make_frame(3), make_frame(3)], "line 4: frame_index 3 repeats line 3"),
        ([make_frame(3), make_frame(1), make_frame(3)], "line 4: frame_index 3 repeats line 1"),
        (
            [make_frame(4), make_frame(5, camera_id="cam9"), make_frame(6)],
            "line 3: camera_id 'cam9' differs from 'cam0' on line 1",
        ),
    ],
    ids=["repeat-adjacent", "repeat-out-of-order", "second-camera"],
)
@pytest.mark.parametrize("read", [read_frames, load_dataset])
def test_cross_line_conflict_reports_both_lines(tmp_path, frames, message, read):
    lines = [json.dumps(fr) for fr in frames]
    path = tmp_path / "bad.jsonl"
    path.write_text(lines[0] + "\n \n" + "\n".join(lines[1:]) + "\n")  # line 2 is blank
    with pytest.raises(ValidationError, match=f"^{re.escape(str(path))}: {re.escape(message)}$"):
        read(path)


@pytest.mark.parametrize(
    "conflict,message",
    [
        ({"camera_id": "cam9"}, "line 3: camera_id 'cam9' differs from 'cam0' on line 1"),
        ({"frame_index": 0}, "line 3: frame_index 0 repeats line 1"),
    ],
    ids=["second-camera", "repeat"],
)
def test_cross_line_conflict_is_reported_before_value_rules(tmp_path, conflict, message):
    # The reader finds a conflict at the line that makes it, so it is reported ahead of an earlier line with a bad
    # box, which the table's value rules find once the file is read.
    bad_box = make_frame(1, persons=({**make_obs(), "bbox": [5, 5, 5, 9]},))
    with pytest.raises(ValidationError, match=rf"objects.jsonl: {message}$"):
        read_objects(tmp_path, make_frame(0), bad_box, {**make_frame(2), **conflict})


@pytest.mark.parametrize(
    "first,later,rule",
    [
        ("cam,0", "cam,0", "must not hold a comma, a double quote or a control character, got 'cam,0'"),
        ("cam,0", "cam0", "must not hold a comma, a double quote or a control character, got 'cam,0'"),
        (float("nan"), float("nan"), "must be a non-empty string, got nan"),
    ],
    ids=["same", "another", "nan"],
)
def test_first_camera_breaking_its_rule_is_named_on_the_first_line(tmp_path, first, later, rule):
    # Whatever camera_id the later lines hold, the rule the first one breaks is reported on the first line.
    frames = [make_frame(0, camera_id=first), make_frame(1, camera_id=later)]
    with pytest.raises(ValidationError, match=rf"objects.jsonl: line 1 \(frame_index 0\): camera_id {rule}$"):
        read_objects(tmp_path, *frames)


def test_bad_keypoint_arity(tmp_path):
    d = make_frame(0, persons=(make_obs(),))
    d["persons"][0]["keypoints"][3] = [1.0, 2.0]
    with pytest.raises(ValidationError, match="each keypoint must be a list"):
        read_objects(tmp_path, d)


@pytest.mark.parametrize("text", ["", "\n  \n"], ids=["empty", "blank-lines"])
@pytest.mark.parametrize("read", [read_frames, load_dataset])
def test_file_without_frames_is_refused(tmp_path, text, read):
    path = tmp_path / "empty.jsonl"
    path.write_text(text)
    with pytest.raises(ValidationError, match=f"^{re.escape(str(path))}: dataset contains no frames$"):
        read(path)


def test_blank_lines_are_skipped(tmp_path):
    path = tmp_path / "gap.jsonl"
    line = json.dumps(make_frame(0))
    path.write_text(line + "\n\n" + json.dumps(make_frame(1)) + "\n")
    assert read_frames(path).frame_index.tolist() == [0, 1]


def test_output_is_one_compact_object_per_line(tmp_path):
    path = tmp_path / "frames.jsonl"
    write_frames(table(sample_frames()), path)
    lines = path.read_text().splitlines()
    assert len(lines) == 3
    for line in lines:
        assert json.loads(line)["camera_id"] == "cam0"
        assert ": " not in line and ", " not in line


# sha256 of the bytes below, recorded with the writer that built one Keypoint
# object per joint; the array writer must reproduce them exactly.
WRITER_SHA256 = "32561c930b8c3a83b36cd17dcd2337e6f2c8d9f66bf9505e5ea4ee9852401c4e"


def test_writer_bytes_are_pinned(tmp_path):
    split = generate_split(
        40, 30, 12, seed=7, segment_length=6, anomaly_kinds=("velocity", "frozen", "limb_collapse")
    )
    origin = generate_normals(15, seed=8, persons=3, start_index=100)
    extra = make_frame(200, persons=(make_obs(track_id=5, interpolated=True), make_obs(track_id=6)))
    # A file holds one camera: each camera's frames go to a file of their own, and the files are hashed in turn.
    written = b"".join(
        _written(frames) for frames in (_joined(split.train, split.test), origin, table([extra]))
    )
    assert hashlib.sha256(written).hexdigest() == WRITER_SHA256


_coord = st.floats(allow_nan=False, allow_infinity=False)
_box_edges = st.lists(
    st.floats(min_value=0.0, max_value=1e12, allow_nan=False), min_size=2, max_size=2, unique=True
).map(sorted)


@st.composite
def _boxes(draw):
    (x1, x2), (y1, y2) = draw(_box_edges), draw(_box_edges)
    return [x1, y1, x2, y2]


@st.composite
def _observations(draw):
    interpolated = draw(st.booleans())
    vis = st.none() if interpolated else st.one_of(st.none(), st.floats(min_value=0.0, max_value=1.0))
    rows = draw(st.lists(st.tuples(_coord, _coord, vis), min_size=17, max_size=17))
    if not interpolated and all(v is None for _, _, v in rows):
        rows[0] = (rows[0][0], rows[0][1], 0.5)
    return {
        "track_id": draw(st.integers(0, 2**63 - 1)),
        "bbox": draw(_boxes()),
        "interpolated": interpolated,
        "keypoints": [list(row) for row in rows],
    }


# A camera_id holds no comma, double quote or C0 control character, nor U+007F.
_CAMERA_BREAKS = ',"' + "".join(map(chr, range(32))) + "\x7f"
_camera_ids = st.text(st.characters(exclude_characters=_CAMERA_BREAKS), min_size=1, max_size=4)


@st.composite
def _frames(draw, camera_ids):
    label = draw(st.sampled_from(LABELS))
    regions = draw(st.lists(_boxes(), max_size=2)) if label == "anomalous" else []
    return {
        "camera_id": draw(camera_ids),
        "frame_index": draw(st.integers(0, 2**63 - 1)),
        "label": label,
        "anomaly_regions": regions,
        "persons": draw(st.lists(_observations(), max_size=3, unique_by=lambda obs: obs["track_id"])),
    }


@st.composite
def _files(draw):
    """One to four frame objects of one camera, each frame_index once: the objects of a file read_frames accepts."""
    frames = _frames(st.just(draw(_camera_ids)))
    return draw(st.lists(frames, min_size=1, max_size=4, unique_by=lambda frame: frame["frame_index"]))


@settings(deadline=None)
@given(_files())
def test_jsonl_roundtrip_property(frames):
    # The writer gives back, byte for byte, the compact JSON of the objects the reader was given.
    text = "".join(json.dumps(fr, separators=(",", ":")) + "\n" for fr in frames)
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp, "a.jsonl"), Path(tmp, "b.jsonl")
        first.write_text(text)
        back = read_frames(first)
        assert len(back) == len(frames)
        write_frames(back, second)
        assert second.read_text() == text


# Literals on which orjson and json.loads part ways: orjson refuses NaN, the infinities, floats past
# the range and lone surrogates, and reads integers outside [-2**63, 2**64) as floats.
_LITERALS = (
    "NaN", "Infinity", "-Infinity", "1e400", "-1e400", "1" + "0" * 400, str(2**64), str(2**64 + 1),
    str(2**64 - 1), str(2**63), str(-(2**63) - 1), str(-(2**65)), "-0", "1E2", "0.1", "5e-324",
    '"\\ud800"', '"a\\udc00"', "null", "true",
)
_SLOTS = (
    ("frame_index",), ("camera_id",), ("label",), ("persons", 0, "track_id"), ("persons", 0, "bbox", 2),
    ("persons", 0, "keypoints", 3, 0), ("persons", 1, "keypoints", 16, 2), ("anomaly_regions", 0, 3),
    ("persons", 0, "interpolated"),
)
_DUPLICATES = ('"frame_index":7', '"label":"normal"', '"persons":[]', '"camera_id":"x"', '"frame_index":NaN')
_PLACEHOLDER = "@literal@"  # longer than any drawn camera_id, so it cannot occur by chance


def _rare(values):
    """Mostly ``None``, else one of ``values``: most drawn lines stay valid."""
    return st.one_of(st.none(), st.none(), st.none(), st.sampled_from(values))


@st.composite
def _jsonl_line(draw, camera_ids):
    obj = draw(_frames(camera_ids))
    literal = draw(_rare(_LITERALS))
    *parents, leaf = draw(st.sampled_from(_SLOTS))
    if literal is not None:
        try:
            functools.reduce(operator.getitem, parents, obj)[leaf] = _PLACEHOLDER
        except IndexError:  # the frame has no such person or region
            pass
    line = json.dumps(obj, separators=(",", ":"), ensure_ascii=draw(st.booleans()))
    if literal is not None:
        line = line.replace(json.dumps(_PLACEHOLDER), literal)
    duplicate = draw(_rare(_DUPLICATES))
    if duplicate is not None:  # before the key it repeats, or after it (the last one counts)
        line = f"{{{duplicate},{line[1:]}" if draw(st.booleans()) else f"{line[:-1]},{duplicate}}}"
    return (draw(_rare(("\ufeff", " "))) or "") + line + draw(st.sampled_from(("\n", "\r\n")))


@st.composite
def _jsonl_lines(draw):
    """Up to five lines, blank or of the JSONL schema; a line's camera is mostly the file's, and now and then
    another."""
    camera = draw(_camera_ids)
    line = _jsonl_line(st.one_of(st.just(camera), st.just(camera), st.just(camera), _camera_ids))
    return draw(st.lists(st.one_of(line, st.sampled_from(("\n", "  \n", "\t\r\n", "\u2028\n"))), max_size=5))


# A line whose one person has "interpolated": false; the draws above rarely put a literal in that slot.
_FLAGGED = json.dumps(make_frame(0, persons=(make_obs(),)), separators=(",", ":")) + "\n"


@settings(deadline=None)
@given(_jsonl_lines())
@example([_FLAGGED.replace("false", "true")])
@example([_FLAGGED.replace("false", "null")])
@example([_FLAGGED.replace("false", "NaN")])
def test_reader_matches_json_loads_reference(lines):
    # orjson parses each line; every table and error message must be the one json.loads gives.
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "frames.jsonl")
        path.write_bytes("".join(lines).encode("utf-8"))
        outcomes = []
        for read in (read_frames, lambda p: _oracles.read_frames_json(_Reader(p), ValidationError)):
            try:
                outcomes.append(read(path))
            except ValidationError as exc:
                outcomes.append(str(exc))
    assert outcomes[0] == outcomes[1]


@pytest.mark.parametrize(
    "frame,message",
    [
        (make_frame(2**64 + 1), r"\(frame_index 18446744073709551617\): .* integer, got 18446744073709551617$"),
        (make_frame(3, camera_id=2**64), r"\(frame_index 3\): .* string, got 18446744073709551616$"),
    ],
    ids=["frame_index", "camera_id"],
)
def test_integer_past_uint64_is_echoed_exactly(tmp_path, frame, message):
    # orjson reads an integer past 64 bits as a float; the message still quotes the literal's integer.
    path = tmp_path / "big.jsonl"
    path.write_text(json.dumps(frame) + "\n")
    with pytest.raises(ValidationError, match="line 1 " + message):
        read_frames(path)


# Values next to the bounds where json.dumps turns to exponent notation (|v| < 1e-4 or >= 1e16) and
# orjson does not, or that print the same in both; subnormals and -0.0 included.
_EDGES = (
    1e-5, 3e-5, float(np.nextafter(1e-4, 0)), 1e-4, float(np.nextafter(1e-4, 1)), 5e-324, 2.2250738585072014e-308,
    float(np.nextafter(1e16, 0)), 1e16, float(np.nextafter(1e16, 2e16)), 2.5e17, 1.7976931348623157e308,
    0.0, -0.0, 0.5, 1.0, 123.456, 1 / 3,
)
# json.dumps escapes some of these and orjson not, or refuses them (a lone surrogate).
_camera_char = st.one_of(
    st.characters(exclude_characters=_CAMERA_BREAKS), st.sampled_from(("\\", "\x80", "é", " ", "\ud800", "\udc00"))
)


def _near(edge):
    """Strategies of signed values, visibilities and boxes that mix ``edge`` with plain values."""
    magnitude = st.one_of(st.just(edge), st.floats(1e-4, 4096.0))
    pair = st.lists(magnitude, min_size=2, max_size=2, unique=True).map(sorted)
    return (
        st.builds(operator.mul, st.sampled_from((1.0, -1.0)), magnitude),
        st.one_of(st.none(), st.just(min(edge, 1.0)), st.floats(1e-4, 1.0)),
        st.builds(lambda x, y: [x[0], y[0], x[1], y[1]], pair, pair),
    )


@st.composite
def _edge_tables(draw):
    """A FrameTable of one camera in which each person and region box mixes one edge value with plain values,
    next to frames with no persons and anomalous frames with regions."""
    camera_id = draw(st.one_of(st.just("cam0"), st.text(_camera_char, min_size=1, max_size=3)))
    frames, regions, persons = [], [], []
    for row in range(draw(st.integers(0, 4))):
        anomalous = draw(st.booleans())
        frames.append((draw(st.integers(0, 2**63 - 1)), anomalous))
        for _ in range(draw(st.integers(0, 2 if anomalous else 0))):
            regions.append((row, draw(_near(draw(st.sampled_from(_EDGES)))[2])))
        for _ in range(draw(st.integers(0, 2))):
            signed, visibility, box = _near(draw(st.sampled_from(_EDGES)))
            interpolated = draw(st.booleans())
            vis = [None] * 17 if interpolated else draw(st.lists(visibility, min_size=17, max_size=17))
            if not interpolated and all(v is None for v in vis):
                vis[0] = 1.0
            xy = draw(st.lists(signed, min_size=34, max_size=34))
            kps = [[xy[2 * j], xy[2 * j + 1], np.nan if v is None else v] for j, v in enumerate(vis)]
            persons.append((row, draw(st.integers(0, 2**63 - 1)), kps, draw(box)))
    frame_index, anomalous = zip(*frames) if frames else ((),) * 2
    region_frame, boxes = zip(*regions) if regions else ((), ())
    frame_row, track_id, keypoints, bbox = zip(*persons) if persons else ((),) * 4
    return FrameTable(
        camera_id=camera_id,
        frame_index=np.array(frame_index, dtype=np.int64),
        anomalous=np.array(anomalous, dtype=bool),
        region_frame=np.array(region_frame, dtype=np.int64),
        regions=np.array(boxes, dtype=np.float64).reshape(-1, 4),
        frame_row=np.array(frame_row, dtype=np.int64),
        track_id=np.array(track_id, dtype=np.int64),
        keypoints=np.array(keypoints, dtype=np.float64).reshape(-1, 17, 3),
        bbox=np.array(bbox, dtype=np.float64).reshape(-1, 4),
    )


def _joined(*tables):
    """Every frame of ``tables`` in turn, as one table."""
    return tables[0].take(np.arange(sum(len(t) for t in tables)), *tables[1:])


def _written(frames, write=write_frames) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "frames.jsonl")
        write(frames, path)
        return path.read_bytes()


@settings(deadline=None)
@given(_edge_tables())
def test_writer_matches_json_dumps_reference(frames):
    # orjson writes the lines; every byte must be the one json.dumps gives.
    assert _written(frames) == _written(frames, _oracles.write_frames_json)


def _two_frames(camera_id="cam0"):
    """A frame with no persons, then an anomalous one with a person, an interpolated person and a region."""
    persons = (make_obs(track_id=1), make_obs(track_id=2, interpolated=True))
    return table([make_frame(0, camera_id=camera_id), make_frame(1, "anomalous", persons, camera_id)])


def _edited(name, index, value):
    """``_two_frames()`` with one value of column ``name`` set; every such value sits in frame row 1."""
    frames = _two_frames()
    column = getattr(frames, name).copy()
    column[index] = value
    return dataclasses.replace(frames, **{name: column})


@pytest.mark.parametrize(
    "frames,text,rows",
    [
        (_edited("keypoints", (0, 3, 2), 3e-5), b"3e-05", [False, True]),
        (_edited("keypoints", (0, 5, 2), 5e-324), b"5e-324", [False, True]),
        (_edited("keypoints", (0, 0, 0), -2.5e17), b"-2.5e+17", [False, True]),
        (_edited("bbox", (0, 2), 1e16), b"1e+16", [False, True]),
        (_edited("regions", (0, 1), 1e-5), b"1e-05", [False, True]),
        (_two_frames(camera_id="caf\u00e9"), b'"caf\\u00e9"', [True, True]),
        (_two_frames(camera_id="\x80"), b'"\\u0080"', [True, True]),
        (_two_frames(camera_id="a\ud800"), b'"a\\ud800"', [True, True]),
        (
            dataclasses.replace(_two_frames(), keypoints=_two_frames().keypoints.astype(np.float32)),
            b"0.8999999761581421",
            [False, True],
        ),
    ],
    ids=[
        "small-visibility", "subnormal-visibility", "large-x", "bbox-1e16", "region-1e-5",
        "camera-non-ascii", "camera-c1-control", "camera-lone-surrogate", "float32-keypoints",
    ],
)
def test_json_dumps_writes_the_lines_orjson_would_not(frames, text, rows):
    assert _json_rows(frames).tolist() == rows
    written = _written(frames)
    assert text in written
    assert written == _written(frames, _oracles.write_frames_json)


def test_orjson_writes_synth_and_null_visibility_rows():
    # No line of a synth table, nor of a frame with interpolated (NaN) visibilities, needs json.dumps.
    split = generate_split(60, 40, 12, seed=3)
    frames = _joined(split.train, split.test, _two_frames(camera_id="synthcam"))
    assert not _json_rows(frames).any()


def test_non_contiguous_columns_write_the_same_bytes():
    frames = _joined(generate_split(30, 20, 10, seed=5).test, _two_frames(camera_id="synthcam"))
    views = dataclasses.replace(
        frames,
        keypoints=np.asfortranarray(frames.keypoints),
        bbox=frames.bbox.T.copy().T,
        regions=frames.regions.T.copy().T,
    )
    assert not views.bbox.flags.c_contiguous and not views.keypoints.flags.c_contiguous
    assert not _json_rows(views).any()
    assert _written(views) == _written(frames) == _written(frames, _oracles.write_frames_json)
