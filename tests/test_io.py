import hashlib
import json
import math
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posebench.errors import ValidationError
from posebench.io import (
    frame_to_dict,
    load_dataset,
    read_frames,
    write_dataset,
    write_frames,
)
from posebench.model import LABELS, BoundingBox, FrameRecord, FrameTable, PersonObservation
from posebench.synthetic import generate_normals, generate_split
from conftest import make_frame, make_obs


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
    n = write_frames(FrameTable.from_records(frames), path)
    assert n == 3
    back = read_frames(path)
    assert back.records() == frames
    assert back.line.tolist() == [1, 2, 3]


def test_dataset_roundtrip_sorts(tmp_path):
    path = tmp_path / "ds.jsonl"
    frames = sample_frames()
    write_frames(FrameTable.from_records([frames[2], frames[0], frames[1]]), path)
    ds = load_dataset(path)
    assert ds.frames.frame_index.tolist() == [0, 1, 2]
    assert ds.frames.line.tolist() == [2, 3, 1]
    out = tmp_path / "copy.jsonl"
    write_dataset(ds, out)
    assert load_dataset(out) == ds


def test_interpolated_visibility_roundtrip(tmp_path):
    frame = make_frame(4, persons=(make_obs(interpolated=True),))
    d = frame_to_dict(frame)
    # Interpolated keypoints serialize a null visibility.
    assert d["persons"][0]["keypoints"][0][2] is None
    assert read_objects(tmp_path, d).records() == [frame]


def test_unknown_keys_are_ignored(tmp_path):
    d = frame_to_dict(make_frame(0, persons=(make_obs(),)))
    d["extra"] = {"anything": 1}
    d["persons"][0]["score"] = 0.7
    parsed = read_objects(tmp_path, d)
    assert parsed.frame_index.tolist() == [0]


def test_missing_field_is_an_error(tmp_path):
    d = frame_to_dict(make_frame(0))
    del d["label"]
    with pytest.raises(ValidationError, match=r"line 1 \(frame_index 0\): missing field 'label'"):
        read_objects(tmp_path, d)


def test_malformed_json_reports_line_number(tmp_path):
    path = tmp_path / "bad.jsonl"
    good = json.dumps(frame_to_dict(make_frame(0)))
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
    d = frame_to_dict(make_frame(1, persons=(make_obs(),)))
    *parents, leaf = field
    target = d
    for key in parents:
        target = target[key]
    target[leaf] = value
    path = tmp_path / "bad.jsonl"
    path.write_text(json.dumps(frame_to_dict(make_frame(0))) + "\n" + json.dumps(d) + "\n")
    with pytest.raises(ValidationError, match=f"bad.jsonl: line 2.*{message}"):
        read_frames(path)


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
def test_cross_line_conflict_reports_both_lines(tmp_path, frames, message):
    lines = [json.dumps(frame_to_dict(fr)) for fr in frames]
    path = tmp_path / "bad.jsonl"
    path.write_text(lines[0] + "\n \n" + "\n".join(lines[1:]) + "\n")  # line 2 is blank
    with pytest.raises(ValidationError, match=f"^{re.escape(str(path))}: {re.escape(message)}$"):
        load_dataset(path)


def test_bad_keypoint_arity(tmp_path):
    d = frame_to_dict(make_frame(0, persons=(make_obs(),)))
    d["persons"][0]["keypoints"][3] = [1.0, 2.0]
    with pytest.raises(ValidationError, match="each keypoint must be a list"):
        read_objects(tmp_path, d)


def test_empty_file_rejected_as_dataset(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    with pytest.raises(ValidationError):
        load_dataset(path)


def test_blank_lines_are_skipped(tmp_path):
    path = tmp_path / "gap.jsonl"
    line = json.dumps(frame_to_dict(make_frame(0)))
    path.write_text(line + "\n\n" + json.dumps(frame_to_dict(make_frame(1))) + "\n")
    assert read_frames(path).frame_index.tolist() == [0, 1]


def test_output_is_one_compact_object_per_line(tmp_path):
    path = tmp_path / "frames.jsonl"
    write_frames(FrameTable.from_records(sample_frames()), path)
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
    path = tmp_path / "pinned.jsonl"
    extra = FrameTable.from_records([extra])
    write_frames(FrameTable.concat(split.train.frames, split.test.frames, origin.frames, extra), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == WRITER_SHA256


_coord = st.floats(allow_nan=False, allow_infinity=False)
_box_edges = st.lists(
    st.floats(min_value=0.0, max_value=1e12, allow_nan=False), min_size=2, max_size=2, unique=True
).map(sorted)


@st.composite
def _boxes(draw):
    (x1, x2), (y1, y2) = draw(_box_edges), draw(_box_edges)
    return BoundingBox(x1, y1, x2, y2)


@st.composite
def _observations(draw):
    interpolated = draw(st.booleans())
    vis = st.none() if interpolated else st.one_of(st.none(), st.floats(min_value=0.0, max_value=1.0))
    rows = draw(st.lists(st.tuples(_coord, _coord, vis), min_size=17, max_size=17))
    if not interpolated and all(v is None for _, _, v in rows):
        rows[0] = (rows[0][0], rows[0][1], 0.5)
    keypoints = [[x, y, math.nan if v is None else v] for x, y, v in rows]
    return PersonObservation(
        track_id=draw(st.integers(0, 2**63 - 1)),
        bbox=draw(_boxes()),
        keypoints=keypoints,
        interpolated=interpolated,
    )


@st.composite
def _frames(draw):
    label = draw(st.sampled_from(LABELS))
    regions = draw(st.lists(_boxes(), max_size=2)) if label == "anomalous" else []
    return FrameRecord(
        camera_id=draw(st.text(min_size=1, max_size=4)),
        frame_index=draw(st.integers(0, 2**63 - 1)),
        label=label,
        persons=tuple(draw(st.lists(_observations(), max_size=3))),
        anomaly_regions=tuple(regions),
    )


@settings(deadline=None)
@given(st.lists(_frames(), max_size=4))
def test_jsonl_roundtrip_property(frames):
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp, "a.jsonl"), Path(tmp, "b.jsonl")
        write_frames(FrameTable.from_records(frames), first)
        back = read_frames(first)
        assert back.records() == frames
        write_frames(back, second)
        assert second.read_bytes() == first.read_bytes()
