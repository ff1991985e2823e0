import json
import tempfile
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _oracles
from posebench.errors import ValidationError
from posebench.io import load_dataset, write_frames
from posebench.model import (
    FrameTable,
    JOINT_NAMES,
    RowError,
    SplitSet,
)
from posebench.preprocess import extract_windows, normalize_pose
from posebench.synthetic import generate_normals
from conftest import (
    make_frame,
    make_keypoints,
    make_obs,
    person,
    table,
)


def test_joint_layout():
    assert len(JOINT_NAMES) == 17
    assert JOINT_NAMES[0] == "nose"
    assert JOINT_NAMES[-1] == "right_ankle"


def one_person(**fields):
    """A one-frame table read from a file whose person takes ``fields`` over a valid observation."""
    return table([make_frame(0, persons=({**make_obs(origin=(10, 10)), **fields},))])


def with_joint(row):
    """A valid one-person table whose first joint is then set to ``row`` = (x, y, visibility)."""
    good = one_person()
    kps = good.keypoints.copy()
    kps[0, 0] = row
    return replace(good, keypoints=kps)


def objects(frames):
    """The frame objects of a table's JSONL lines, in row order."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "frames.jsonl")
        write_frames(frames, path)
        return [json.loads(line) for line in path.read_text().splitlines()]


class TestKeypoint:
    """Per-joint rules of the (17, 3) keypoint rows."""

    def test_valid(self):
        kps = with_joint((1.0, 2.0, 0.5)).keypoints[0]
        assert kps.dtype == np.float64 and kps.shape == (17, 3)
        assert kps[0].tolist() == [1.0, 2.0, 0.5]

    def test_visibility_may_be_absent(self):
        assert np.isnan(with_joint((0.0, 0.0, None)).keypoints[0, 0, 2])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValidationError, match="coordinates must be finite"):
            with_joint((bad, 0.0, 0.5))
        with pytest.raises(ValidationError, match="coordinates must be finite"):
            with_joint((0.0, bad, 0.5))

    @pytest.mark.parametrize("bad", [-0.1, 1.1, 2.0])
    def test_rejects_out_of_range_visibility(self, bad):
        with pytest.raises(ValidationError, match="visibility must be in"):
            with_joint((0.0, 0.0, bad))


class TestBoundingBox:
    def test_geometry(self):
        box = one_person(bbox=[0.0, 0.0, 3.0, 4.0]).bbox[0]
        assert box.tolist() == [0.0, 0.0, 3.0, 4.0]
        assert _oracles.box_area(box) == 12.0

    def test_rejects_inverted(self):
        extent = "bounding box must have positive extent"
        with pytest.raises(ValidationError, match=extent + r", got \(3.0, 0.0, 1.0, 4.0\)"):
            one_person(bbox=[3.0, 0.0, 1.0, 4.0])
        with pytest.raises(ValidationError, match=extent):
            one_person(bbox=[0.0, 4.0, 3.0, 4.0])

    def test_rejects_negative(self):
        with pytest.raises(ValidationError, match="bounding box x1 must be finite and >= 0, got -1.0"):
            one_person(bbox=[-1.0, 0.0, 3.0, 4.0])


class TestPersonObservation:
    def test_requires_17_keypoints(self):
        kps = make_keypoints([(10, 10)])[:16]
        with pytest.raises(ValidationError, match=r"expected \(17, 3\) keypoints, got shape \(16, 3\)"):
            one_person(keypoints=person(kps)["keypoints"], bbox=[0, 0, 20, 20])

    def test_interpolated_must_have_absent_visibility(self):
        with pytest.raises(ValidationError, match="interpolated observation must have no keypoint visibility"):
            one_person(interpolated=True)

    def test_absent_visibility_requires_interpolated_flag(self):
        kps = make_keypoints([(10, 10)], visibility=None)
        rule = "non-interpolated observation must carry at least one keypoint visibility"
        with pytest.raises(ValidationError, match=rule):
            one_person(keypoints=person(kps)["keypoints"])

    def test_interpolated_roundtrip(self):
        frame = make_frame(0, persons=(make_obs(interpolated=True),))
        frames = table([frame])
        assert np.isnan(frames.keypoints[0, :, 2]).all()
        # The table holds no flag; the writer derives it from the null visibilities.
        assert objects(frames) == [frame]

    def test_ids_must_fit_int64(self):
        assert one_person(track_id=2**63 - 1).track_id.tolist() == [2**63 - 1]
        for bad in (2**63, -1, True):
            with pytest.raises(ValidationError, match="track_id must be"):
                one_person(track_id=bad)
            with pytest.raises(ValidationError, match="frame_index must be"):
                table([make_frame(bad)])
        # JSON has one number type, so the reader takes an integral float as an id.
        assert one_person(track_id=1.0).track_id.tolist() == [1]
        assert table([make_frame(1.0)]).frame_index.tolist() == [1]

    def test_equality_is_bitwise_on_keypoints(self):
        # NaN visibilities compare equal; one changed bit in one joint does not.
        interpolated = make_frame(0, persons=(make_obs(interpolated=True),))
        assert table([interpolated]) == table([interpolated])
        frames = one_person()
        nudged = frames.keypoints.copy()
        nudged[0, 16, 1] = np.nextafter(nudged[0, 16, 1], np.inf)
        assert frames == replace(frames, keypoints=frames.keypoints.copy())
        assert frames != replace(frames, keypoints=nudged)
        assert frames != replace(frames, track_id=np.array([1]))


class TestFrameRecord:
    def test_normal_frame_rejects_anomaly_regions(self):
        frame = make_frame(0, persons=(make_obs(),))
        frame["anomaly_regions"] = [frame["persons"][0]["bbox"]]
        with pytest.raises(ValidationError, match=r"normal frame must not carry anomaly regions \(frame 0\)"):
            table([frame])

    def test_is_anomalous(self):
        assert table([make_frame(0, label="anomalous", persons=(make_obs(),))]).anomalous.tolist() == [True]
        assert table([make_frame(0)]).anomalous.tolist() == [False]

    def test_bad_label(self):
        for label in ("odd", 7):
            with pytest.raises(ValidationError, match="label must be one of"):
                table([{**make_frame(0), "label": label}])
        with pytest.raises(ValidationError, match="camera_id must be a non-empty string"):
            table([make_frame(0, camera_id=7)])


class TestSplitSet:
    @pytest.mark.parametrize("side", ["train", "test"])
    def test_requires_increasing_frame_indices(self, side):
        sides = {"train": table([make_frame(0)]), "test": table([make_frame(5)])}
        sides[side] = table([make_frame(2), make_frame(1)])
        with pytest.raises(ValidationError, match="in strictly increasing frame_index"):
            SplitSet(**sides)

    def test_duplicate_index_rejected(self):
        test = table([make_frame(1)]).take([0, 0])
        with pytest.raises(ValidationError, match="dataset 'cam0' must hold frames in strictly increasing"):
            SplitSet(train=table([make_frame(0)]), test=test)

    def test_train_must_be_normal(self):
        train = table([make_frame(0, label="anomalous", persons=(make_obs(),))])
        test = table([make_frame(5)])
        with pytest.raises(ValidationError, match="train frame 0 is not labeled normal"):
            SplitSet(train=train, test=test)

    def test_disjoint_frame_indices(self):
        train = table([make_frame(0)])
        test = table([make_frame(0)])
        with pytest.raises(ValidationError, match=r"share frame indices \(e.g. 0\)"):
            SplitSet(train=train, test=test)

    def test_first_shared_index_past_the_first_row(self):
        # Train frames 0-5, 7 and 9, test frames 6, 7 and 9: 7 and 9 are shared, and 7 is neither set's first row.
        train = table([make_frame(i) for i in (0, 1, 2, 3, 4, 5, 7, 9)])
        test = table([make_frame(i) for i in (6, 7, 9)])
        with pytest.raises(ValidationError, match=r"share frame indices \(e.g. 7\)"):
            SplitSet(train=train, test=test)

    def test_empty_test_set_shares_nothing(self):
        assert len(SplitSet(train=table([make_frame(0), make_frame(1)]), test=table([])).test) == 0

    def test_camera_id_property(self):
        train = table([make_frame(0)])
        test = table([make_frame(1)])
        assert SplitSet(train=train, test=test).camera_id == "cam0"


@st.composite
def _tables_and_rows(draw):
    """One to three tables, any of them empty, and rows into them laid end to end, repeated and in any order.

    Frames may hold no persons; an anomalous frame carries a region, and a
    person has NaN visibilities: all of them when it is interpolated, some of
    them otherwise.
    """
    coord = st.floats(min_value=10.0, max_value=500.0)
    tables = []
    for _ in range(draw(st.integers(1, 3))):
        frames = []
        for fi in range(draw(st.integers(0, 4))):
            persons = []
            for track_id in range(draw(st.integers(0, 3))):
                interpolated = draw(st.booleans())
                kps = make_keypoints([(draw(coord), draw(coord))], None if interpolated else 0.9)
                kps[draw(st.lists(st.integers(0, 16), max_size=16, unique=True)), 2] = np.nan
                persons.append(person(kps, track_id=track_id, interpolated=interpolated))
            label = draw(st.sampled_from(["normal", "anomalous"])) if persons else "normal"
            frames.append(make_frame(fi, label, tuple(persons)))
        tables.append(table(frames))
    total = sum(len(t) for t in tables)
    rows = draw(st.lists(st.integers(0, total - 1), max_size=12)) if total else []
    return tables, rows


@settings(deadline=None, max_examples=80)
@given(_tables_and_rows())
def test_take_across_tables_matches_concat_then_take(case):
    tables, rows = case
    got = tables[0].take(rows, *tables[1:])
    want = _oracles.concat_then_take(tables, rows)
    assert got.camera_id == want["camera_id"]
    for col in fields(got)[1:]:
        mine, theirs = getattr(got, col.name), want[col.name]
        assert (mine.dtype, mine.shape) == (theirs.dtype, theirs.shape)
        assert mine.tobytes() == theirs.tobytes()
        assert not mine.flags.writeable


@st.composite
def _shuffled_frames(draw):
    """Frame objects in random order, with gaps, several tracks, and repeats when ``unique`` is false."""
    unique = draw(st.booleans())
    indices = draw(st.lists(st.integers(0, 60), min_size=1, max_size=20, unique=unique))
    coord = st.floats(min_value=10.0, max_value=500.0)
    frames = []
    for fi in indices:
        tracks = draw(st.lists(st.integers(0, 3), max_size=4, unique=unique))
        persons = tuple(
            make_obs(track_id=t, origin=(draw(coord), draw(coord)), interpolated=draw(st.booleans()))
            for t in tracks
        )
        frames.append(make_frame(fi, persons=persons))
    return draw(st.permutations(frames))


def joined(frames):
    """The table of frame objects that may repeat a frame_index, which a file may not: each read alone, then joined."""
    tables = [table([frame]) for frame in frames]
    return tables[0].take(np.arange(len(tables)), *tables[1:])


@settings(deadline=None)
@given(_shuffled_frames())
def test_track_assembly_matches_bucketing_oracle(frames):
    try:
        want = _oracles.tracks_by_bucketing(frames)
    except ValueError:
        with pytest.raises(ValidationError, match="appears twice in the frame|duplicate observation"):
            extract_windows(joined(frames))
        return
    frames_table = joined(frames)
    # With one window per row, every observation is the row at its (track, frame), the rows in that order.
    batch = extract_windows(frames_table, length=1, stride=1, max_gap=1, smoothing_window=1)
    at = {pair: row for row, pair in enumerate(zip(batch.track_id.tolist(), batch.start_frame.tolist()))}
    rows = [[at[tid, fi] for fi in track_frames.tolist()] for tid, track_frames, *_ in want]
    assert sum(rows, []) == sorted(sum(rows, []))
    for track_rows, (_, _, keypoints, bbox) in zip(rows, want):
        assert batch.poses[track_rows].tobytes() == normalize_pose(keypoints, bbox).tobytes()
    fis = [fr["frame_index"] for fr in frames]
    if len(set(fis)) == len(fis):
        # The file round trip gives the dataset built straight from the sorted objects.
        direct = table(sorted(frames, key=lambda fr: fr["frame_index"]))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp, "frames.jsonl")
            write_frames(frames_table, path)
            assert load_dataset(path) == direct


class TestFrameTable:
    def frames(self):
        return [
            make_frame(5, persons=(make_obs(track_id=0), make_obs(track_id=1, origin=(90, 90)))),
            make_frame(2),
            make_frame(7, label="anomalous", persons=(make_obs(track_id=1, interpolated=True),)),
        ]

    def test_objects_round_trip(self):
        frames = self.frames()
        read = table(frames)
        assert objects(read) == frames
        assert read.frame_row.tolist() == [0, 0, 2]
        assert read.region_frame.tolist() == [2]
        assert read.camera_id == "cam0"

    def test_take_regroups_persons_and_regions(self):
        frames = self.frames()
        read = table(frames)
        taken = read.take([2, 0, 2])
        assert objects(taken) == [frames[2], frames[0], frames[2]]
        assert taken.frame_index.tolist() == [7, 5, 7]
        assert taken.frame_row.tolist() == [0, 1, 1, 2]
        assert objects(read.take([])) == []

    def test_take_across_tables_and_equality(self):
        frames = self.frames()
        read = table(frames)
        joined = read.take([0]).take([0, 1, 2], read.take([1, 2]))
        assert joined == read
        assert objects(joined) == frames
        assert read.take([1, 0, 2]) != read
        assert replace(read, camera_id="cam1") != read

    def test_take_of_every_row_in_order_is_the_table(self, monkeypatch):
        # A table is frozen, so every row in order needs no copy and no second validation; any other take builds a
        # new table and validates it once.
        read = table(self.frames())
        checks = []
        check = FrameTable.__post_init__
        monkeypatch.setattr(FrameTable, "__post_init__", lambda t: checks.append(t) or check(t))
        assert read.take(np.arange(3)) is read and read.take([0, 1, 2]) is read
        assert checks == []
        for rows, more in (([2, 0, 1], ()), ([0, 1], ()), ([0, 1, 2, 2], ()), ([0, 1, 2], (read.take([]),))):
            checks.clear()
            taken = read.take(rows, *more)
            assert taken is not read and len(checks) == 1 and checks[0] is taken
            assert objects(taken) == [self.frames()[i] for i in rows]
        empty = read.take([])
        assert empty.take([]) is empty

    def test_take_refuses_another_camera(self):
        read = table(self.frames())
        other = replace(read, camera_id="cam9")
        with pytest.raises(ValidationError, match="cannot take frames of camera 'cam9' with 'cam0'"):
            read.take([0, 3], other)
        assert read.take([0, 3], read) == read.take([0, 0])

    def test_columns_are_read_only(self):
        # A validated table cannot be broken in place; before, the bad box surfaced only at the next take.
        frames = generate_normals(3, seed=0)
        with pytest.raises(ValueError, match="read-only"):
            frames.bbox[0] = (5, 5, 5, 5)
        for read in (frames, table(self.frames()), frames.take([2, 0])):
            assert not any(getattr(read, col.name).flags.writeable for col in fields(read)[1:])

    @pytest.mark.parametrize(
        "column,value,row,message",
        [
            ("bbox", [[0.0, 0.0, 0.0, 5.0]], 0, "bounding box must have positive extent"),
            ("track_id", [-1], 0, "track_id must be a non-negative 64-bit integer, got -1"),
            ("frame_index", [3, -2], 1, "frame_index must be a non-negative 64-bit integer, got -2"),
            ("anomalous", [False, False], 1, r"normal frame must not carry anomaly regions \(frame 4\)"),
        ],
    )
    def test_value_rules_name_the_row(self, column, value, row, message):
        frames = [
            make_frame(3, persons=(make_obs(track_id=0),)),
            make_frame(4, label="anomalous", persons=(make_obs(track_id=1),)),
        ]
        good = table(frames)
        new = getattr(good, column).copy()
        new[: len(value)] = value
        with pytest.raises(RowError, match=message) as info:
            replace(good, **{column: new})
        assert info.value.row == row

    @pytest.mark.parametrize(
        "camera_id,message",
        [
            ("", "camera_id must be a non-empty string, got ''"),
            (7, "camera_id must be a non-empty string, got 7"),
            ("cam,0", "camera_id must not hold a comma, a double quote or a control character, got 'cam,0'"),
        ],
        ids=["empty", "not-a-string", "comma"],
    )
    def test_camera_rule_holds_for_the_table(self, camera_id, message):
        # The table's one camera_id breaks its rule for every frame: the first row is named, before any value rule.
        good = table([make_frame(3, persons=(make_obs(),)), make_frame(4)])
        bbox = np.array([[5.0, 5.0, 5.0, 9.0]])
        for frames in (good, good.take([])):
            with pytest.raises(RowError, match=f"^{message}$") as info:
                replace(frames, camera_id=camera_id)
            assert info.value.row == 0
        with pytest.raises(RowError, match=f"^{message}$"):
            replace(good, camera_id=camera_id, bbox=bbox)

    def test_first_broken_rule_in_row_order(self):
        good = table([make_frame(3, persons=(make_obs(),)), make_frame(4)])
        frame_index = np.array([3, -4])
        kps = good.keypoints.copy()
        kps[0, 2, 0] = np.inf
        with pytest.raises(RowError, match=r"right_eye coordinates must be finite, got \[ *inf") as info:
            replace(good, frame_index=frame_index, keypoints=kps)
        assert info.value.row == 0

    def test_columns_must_agree(self):
        good = table(self.frames())
        with pytest.raises(ValidationError, match="columns disagree"):
            replace(good, anomalous=good.anomalous[:2])
        with pytest.raises(ValidationError, match="grouped by frame row"):
            replace(good, frame_row=good.frame_row[::-1].copy())
