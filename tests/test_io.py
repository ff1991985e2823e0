import json

import pytest

from posebench.errors import ValidationError
from posebench.io import (
    frame_from_dict,
    frame_to_dict,
    load_dataset,
    read_frames,
    write_dataset,
    write_frames,
)
from conftest import make_frame, make_obs


def sample_frames():
    return [
        make_frame(0, persons=(make_obs(track_id=0),)),
        make_frame(1, persons=(make_obs(track_id=0), make_obs(track_id=1, origin=(90, 90)))),
        make_frame(2, label="anomalous", persons=(make_obs(track_id=1, origin=(91, 91)),)),
    ]


def test_roundtrip_preserves_everything(tmp_path):
    path = tmp_path / "frames.jsonl"
    frames = sample_frames()
    n = write_frames(frames, path)
    assert n == 3
    back = read_frames(path)
    assert back == frames


def test_dataset_roundtrip_sorts(tmp_path):
    path = tmp_path / "ds.jsonl"
    frames = sample_frames()
    write_frames([frames[2], frames[0], frames[1]], path)
    ds = load_dataset(path)
    assert [f.frame_index for f in ds.frames] == [0, 1, 2]
    out = tmp_path / "copy.jsonl"
    write_dataset(ds, out)
    assert load_dataset(out) == ds


def test_interpolated_visibility_roundtrip(tmp_path):
    frame = make_frame(4, persons=(make_obs(interpolated=True),))
    d = frame_to_dict(frame)
    # Interpolated keypoints serialize a null visibility.
    assert d["persons"][0]["keypoints"][0][2] is None
    assert frame_from_dict(d) == frame


def test_unknown_keys_are_ignored():
    d = frame_to_dict(make_frame(0, persons=(make_obs(),)))
    d["extra"] = {"anything": 1}
    d["persons"][0]["score"] = 0.7
    parsed = frame_from_dict(d)
    assert parsed.frame_index == 0


def test_missing_field_is_an_error():
    d = frame_to_dict(make_frame(0))
    del d["label"]
    with pytest.raises(ValidationError):
        frame_from_dict(d)


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
    ],
    ids=["persons", "keypoints", "coordinate", "track_id", "frame_index"],
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


def test_bad_keypoint_arity(tmp_path):
    d = frame_to_dict(make_frame(0, persons=(make_obs(),)))
    d["persons"][0]["keypoints"][3] = [1.0, 2.0]
    with pytest.raises(ValidationError):
        frame_from_dict(d)


def test_empty_file_rejected_as_dataset(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    with pytest.raises(ValidationError):
        load_dataset(path)


def test_blank_lines_are_skipped(tmp_path):
    path = tmp_path / "gap.jsonl"
    line = json.dumps(frame_to_dict(make_frame(0)))
    path.write_text(line + "\n\n" + json.dumps(frame_to_dict(make_frame(1))) + "\n")
    assert [f.frame_index for f in read_frames(path)] == [0, 1]


def test_output_is_one_compact_object_per_line(tmp_path):
    path = tmp_path / "frames.jsonl"
    write_frames(sample_frames(), path)
    lines = path.read_text().splitlines()
    assert len(lines) == 3
    for line in lines:
        assert json.loads(line)["camera_id"] == "cam0"
        assert ": " not in line and ", " not in line
