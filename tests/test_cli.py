import contextlib
import dataclasses
import errno
import hashlib
import json
import os
import re
import shlex
import signal
import subprocess
import sys
import zipfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import posebench
from posebench import cli, io, runner
from posebench.cli import main
from posebench.errors import ValidationError
from posebench.io import load_dataset
from posebench.metrics import AGGREGATORS
from posebench.model import SplitSet
from posebench.rearrange import RearrangePlan, rearrange
from posebench.report import write_step_csv
from posebench.runner import RunConfig, derive_seed, evaluate_windows, result_to_dict
from posebench.scorers import SCORER_KINDS, SCORERS, GaussianScorer

import _oracles
from _golden import golden_results
from conftest import INVARIANTS, break_invariant, make_frame, make_obs


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("synth")
    code = main(
        [
            "synth",
            "--train-normal", "400",
            "--test-normal", "260",
            "--test-anomaly", "80",
            "--seed", "0",
            "--out", str(out),
        ]
    )
    assert code == 0
    return out


def _output_digests(out):
    """sha256 of every file under ``out`` but the manifest, and of each member of each checkpoint, by path.

    A zip stamps each archive member with the time it was written, so a checkpoint is hashed member by member.
    """
    digests = {}
    for path in sorted(p for p in out.rglob("*") if p.is_file() and p.name != "manifest.json"):
        rel = path.relative_to(out).as_posix()
        if path.suffix == ".ckpt":
            with zipfile.ZipFile(path) as zf:
                digests.update({f"{rel}:{m}": hashlib.sha256(zf.read(m)).hexdigest() for m in zf.namelist()})
        else:
            digests[rel] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


def _metric(field, key, value):
    """Set one value of one metric report of a results dict."""
    return lambda raw: {**raw, field: {**raw[field], key: value}}


_RESULT = result_to_dict(golden_results()[0])
_SYNTH = ["synth", "--train-normal", "60", "--test-normal", "40", "--test-anomaly", "10"]
_STANDARD = ["run-standard", "--train", "{d}/train.jsonl", "--test", "{d}/test.jsonl"]
_CONFIG = ["run-standard", "--config", "{d}/c.json"]


class TestExitCodes:
    def test_no_subcommand_is_usage_error(self, capsys):
        assert main([]) == 1
        capsys.readouterr()

    def test_unknown_flag_is_usage_error(self, capsys):
        assert main(["stats", "--frobnicate"]) == 1
        capsys.readouterr()

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        capsys.readouterr()

    def test_missing_input_is_data_error(self, tmp_path, capsys):
        assert main(["stats", str(tmp_path / "nope.jsonl")]) == 2
        assert "error" in capsys.readouterr().err
        assert main(["report", "--results", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o")]) == 2
        assert "error" in capsys.readouterr().err

    def test_corrupt_input_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("{not json\n")
        assert main(["stats", str(bad)]) == 2
        capsys.readouterr()
        # A UTF-16 byte-order mark is not UTF-8: exit 2 with file and line.
        utf16 = tmp_path / "utf16.jsonl"
        utf16.write_bytes(b"\n\xff\xfe{}\n")
        assert main(["stats", str(utf16)]) == 2
        assert f"{utf16}: line 2: not UTF-8" in capsys.readouterr().err
        assert main(["report", "--results", str(utf16), "--out", str(tmp_path / "o")]) == 2
        assert f"{utf16}: line 2: not UTF-8" in capsys.readouterr().err
        assert main(["run-standard", "--config", str(utf16), "--out", str(tmp_path / "o")]) == 2
        assert f"config {utf16}: line 2: not UTF-8" in capsys.readouterr().err
        # An integer literal past Python's digit limit is malformed JSON, not a crash.
        huge = tmp_path / "huge.json"
        huge.write_text('{"seed": 1' + "0" * 5000 + "}")
        assert main(["run-standard", "--config", str(huge), "--out", str(tmp_path / "o")]) == 2
        assert f"config {huge}: malformed JSON" in capsys.readouterr().err
        assert main(["report", "--results", str(huge), "--out", str(tmp_path / "o")]) == 2
        assert f"{huge}: malformed JSON" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, files, message",
        [
            (_CONFIG, {"c.json": "[1]"}, "config {d}/c.json must hold a JSON object"),
            (["run-standard", "--config", "{d}/none.json"], {},
             "cannot read config {d}/none.json: No such file or directory"),
            (_CONFIG, {"c.json": '{"scorer": "svm"}'},
             "scorer must be one of ('gaussian', 'knn'), got 'svm'"),
            (_CONFIG, {"c.json": '{"smoothing_window": 14}'}, "smoothing_window must be odd, got 14"),
            (_CONFIG, {"c.json": '{"aggregator": "median"}'},
             "aggregator must be one of ('max', 'mean'), got 'median'"),
            (_STANDARD, {"train.jsonl": "[1]\n"}, "{d}/train.jsonl: line 1: expected a JSON object, got list"),
            (_STANDARD, {"train.jsonl": json.dumps(make_frame(0, persons=(1,))) + "\n"},
             "{d}/train.jsonl: line 1 (frame_index 0): person entry must be an object, got int"),
            (_STANDARD, {"train.jsonl": json.dumps(make_frame(0)),
                         "test.jsonl": json.dumps(make_frame(1, camera_id="c9"))},
             "{d}/train.jsonl, {d}/test.jsonl: train and test camera_id differ: 'cam0' vs 'c9'"),
            (["report", "--results", "{d}/r.json"], {"r.json": json.dumps({**_RESULT, "version": 2})},
             "{d}/r.json: unsupported result version 2"),
            (["report", "--results", "{d}/r.json"], {"r.json": json.dumps({**_RESULT, "per_step": [], "k": 0})},
             "{d}/r.json: continual result needs at least one step report"),
            (_SYNTH + ["--origin-normal", "-5"], {}, "origin dataset: n_frames must be >= 1, got -5"),
            (_SYNTH + ["--persons", "0"], {}, "persons must be >= 1, got 0"),
            (_SYNTH + ["--segment-length", "0"], {}, "segment_length must be >= 1, got 0"),
        ],
        ids=[
            "config-not-an-object", "config-unreadable", "config-scorer", "config-even-smoothing", "config-aggregator",
            "line-not-an-object", "person-not-an-object", "cameras-differ", "result-version", "result-without-steps",
            "synth-origin-normal", "synth-persons", "synth-segment-length",
        ],
    )
    def test_data_error_message(self, tmp_path, capsys, argv, files, message):
        for name, text in files.items():
            (tmp_path / name).write_text(text)
        argv = [arg.format(d=tmp_path) for arg in argv]
        assert main([*argv, "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr() == ("", f"error: {message.format(d=tmp_path)}\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("subcommand", ["rearrange", "run-standard", "run-continual", "synth", "report", "stats"])
    def test_output_path_under_a_file_is_data_error(self, synth_dir, tmp_path, capsys, subcommand):
        blocker = tmp_path / "file"
        blocker.write_text("")
        out = str(blocker / "out")
        data = ["--train", str(synth_dir / "train.jsonl"), "--test", str(synth_dir / "test.jsonl")]
        results = tmp_path / "results.json"
        results.write_text(json.dumps(result_to_dict(golden_results()[0])))
        argv = {
            "rearrange": ["rearrange", *data, "--k", "2", "--out", out],
            "run-standard": ["run-standard", *data, "--out", out],
            "run-continual": ["run-continual", *data, "--origin", str(synth_dir / "train.jsonl"), "--out", out],
            "synth": ["synth", "--train-normal", "40", "--test-normal", "30", "--test-anomaly", "10", "--out", out],
            "report": ["report", "--results", str(results), "--out", out],
            "stats": ["stats", str(synth_dir / "train.jsonl"), "--iou-out", out],
        }[subcommand]
        assert main(argv) == 2
        assert f"error: cannot write {out}: Not a directory" in capsys.readouterr().err

    @pytest.fixture
    def deep(self, tmp_path):
        """A file whose second line opens 100,000 nested arrays: past json.loads' recursion limit."""
        path = tmp_path / "deep.json"
        path.write_text("\n" + "[" * 100_000 + "\n")
        return path

    def test_deep_nesting_in_frames_is_data_error(self, deep, tmp_path, capsys):
        argv = ["run-standard", "--train", str(deep), "--test", str(deep), "--out", str(tmp_path / "o")]
        assert main(argv) == 2
        assert f"{deep}: line 2: malformed JSON: nesting too deep" in capsys.readouterr().err

    def test_deep_nesting_in_config_is_data_error(self, deep, tmp_path, capsys):
        assert main(["run-standard", "--config", str(deep), "--out", str(tmp_path / "o")]) == 2
        assert f"config {deep}: malformed JSON: nesting too deep" in capsys.readouterr().err

    def test_deep_nesting_in_results_is_data_error(self, deep, tmp_path, capsys):
        assert main(["report", "--results", str(deep), "--out", str(tmp_path / "o")]) == 2
        assert f"{deep}: malformed JSON: nesting too deep" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "damage,message",
        [
            (lambda raw: {**raw, "camera_id": 7}, "field 'camera_id' must be a non-empty string, got 7"),
            (lambda raw: {**raw, "camera_id": ["cam0"]}, "field 'camera_id' must be a non-empty string, got ['c"),
            (lambda raw: {**raw, "camera_id": ""}, "field 'camera_id' must be a non-empty string, got ''"),
            (lambda raw: {**raw, "camera_id": "cam,0\nx"},
             "field 'camera_id' must not hold a comma, a double quote or a control character, got 'cam,0\\nx'"),
            (lambda raw: {**raw, "camera_id": 'cam"0'}, "field 'camera_id' must not hold a comma, a double quote"),
            (lambda raw: {**raw, "camera_id": "cam\x7f"}, "field 'camera_id' must not hold a comma, a double quote"),
            (_metric("baseline", "auc_roc", True), "field 'baseline': auc_roc must be a finite number, got True"),
            (_metric("baseline", "auc_roc", "0.5"), "field 'baseline': auc_roc must be a finite number, got '0.5'"),
            (_metric("step_best", "eer", float("nan")), "field 'step_best': eer must be a finite number, got nan"),
            (_metric("step_best", "ten_er", float("inf")), "field 'step_best': ten_er must be a finite number"),
            (_metric("step_average", "auc_pr", 10**400), "field 'step_average': auc_pr must be a finite number"),
            (_metric("batch_training", "n_pos", 2.7), "field 'batch_training': n_pos must be an integer >= 0"),
            (_metric("baseline", "n_neg", -1), "field 'baseline': n_neg must be an integer >= 0, got -1"),
            (_metric("baseline", "n_neg", True), "field 'baseline': n_neg must be an integer >= 0, got True"),
            (lambda raw: {**raw, "per_step": [raw["baseline"], {**raw["baseline"], "n_pos": "1"}]},
             "field 'per_step[1]': n_pos must be an integer >= 0, got '1'"),
            (lambda raw: {**raw, "baseline": {"auc_roc": 0.5, "n_pos": 1}},
             "field 'baseline' is not a metric report: it lacks ['auc_pr', 'eer', 'ten_er', 'n_neg']"),
            (lambda raw: {**raw, "baseline": [0.5]}, "field 'baseline' is not a metric report: got list"),
            (lambda raw: {key: v for key, v in raw.items() if key != "k"}, "missing field 'k'"),
            (lambda raw: {**raw, "k": 5}, "field 'k' must be the number of per_step reports, 3, got 5"),
            (lambda raw: {**raw, "k": "x"}, "field 'k' must be the number of per_step reports, 3, got 'x'"),
            (lambda raw: {**raw, "k": 3.0}, "field 'k' must be the number of per_step reports, 3, got 3.0"),
            (lambda raw: {**raw, "per_step": raw["per_step"][:1], "k": True},
             "field 'k' must be the number of per_step reports, 1, got True"),
        ],
    )
    def test_bad_result_value_is_data_error(self, tmp_path, capsys, damage, message):
        results = tmp_path / "results.json"
        results.write_text(json.dumps(damage(result_to_dict(golden_results()[0]))))
        assert main(["report", "--results", str(results), "--out", str(tmp_path / "o")]) == 2
        assert f"{results}: {message}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "old,new",
        [
            ('"frame_index":1,', f'"frame_index":{2**63},'),
            ('"keypoints":[[50.0,', '"keypoints":[[1e400,'),
            ('"keypoints":[[50.0,', '"keypoints":[[1' + "0" * 400 + ","),
            ('"frame_index":1,', '"frame_index":1' + "0" * 5000 + ","),
            ('"interpolated":false', '"interpolated":"no"'),
            ('"interpolated":false', '"interpolated":true'),
            ('"frame_index":1,', '"frame_index":0,'),
            ('"camera_id":"cam0"', '"camera_id":"cam9"'),
        ],
        ids=[
            "frame_index-past-int64", "infinite-float", "huge-int", "digit-limit", "interpolated-string",
            "interpolated-mismatch", "repeated-frame_index", "second-camera",
        ],
    )
    def test_hostile_value_is_data_error_with_line(self, tmp_path, capsys, old, new):
        lines = [
            json.dumps(make_frame(i, persons=(make_obs(),)), separators=(",", ":"))
            for i in (0, 1)
        ]
        assert old in lines[1]
        lines[1] = lines[1].replace(old, new, 1)
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join(lines) + "\n")
        out = str(tmp_path / "o")
        run = ["run-standard", "--train", str(bad), "--test", str(bad), "--out", out]
        for argv in (["stats", str(bad)], run):
            assert main(argv) == 2
            assert f"{bad}: line 2" in capsys.readouterr().err


    def test_track_listed_twice_in_a_frame_is_data_error_with_line(self, tmp_path, capsys):
        # Refused as the file is read, before run-standard writes anything.
        frames = [make_frame(i, persons=(make_obs(),) * (2 if i == 4 else 1)) for i in range(6)]
        bad = tmp_path / "train.jsonl"
        bad.write_text("".join(json.dumps(fr) + "\n" for fr in frames))
        out = tmp_path / "o"
        run = ["run-standard", "--train", str(bad), "--test", str(bad), "--out", str(out)]
        for argv in (["stats", str(bad)], run):
            assert main(argv) == 2
            message = f"{bad}: line 5 (frame_index 4): track_id 0 appears twice in the frame"
            assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("camera_id", ["cam,0\nx", 'cam"0', "cam\x00", "cam\x1f", "cam\x7f"])
    def test_camera_id_that_breaks_a_report_is_data_error(self, synth_dir, tmp_path, capsys, camera_id):
        # Written as it is, "cam,0\nx" would end a report.csv row after "cam" and start one at "x".
        paths = {}
        for name in ("train", "test"):
            text = (synth_dir / f"{name}.jsonl").read_text()
            paths[name] = tmp_path / f"{name}.jsonl"
            paths[name].write_text(text.replace('"camera_id":"synthcam"', f'"camera_id":{json.dumps(camera_id)}'))
        out = tmp_path / "o"
        argv = ["run-standard", "--train", str(paths["train"]), "--test", str(paths["test"]), "--out", str(out)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"{paths['train']}: line 1 (frame_index 0): camera_id must not hold a comma" in err
        assert not (out / "report.csv").exists()


class TestSynth:
    def test_writes_datasets_and_manifest(self, synth_dir):
        train = load_dataset(synth_dir / "train.jsonl")
        test = load_dataset(synth_dir / "test.jsonl")
        assert len(train) == 400
        assert len(test) == 340
        manifest = json.loads((synth_dir / "manifest.json").read_text())
        assert manifest["subcommand"] == "synth"
        assert manifest["seed"] == 0
        assert manifest["tool_version"]

    def test_origin_written_on_request(self, tmp_path):
        out = tmp_path / "o"
        code = main(
            [
                "synth",
                "--train-normal", "60",
                "--test-normal", "40",
                "--test-anomaly", "10",
                "--origin-normal", "50",
                "--origin-step-sigma", "16",
                "--origin-jitter-sigma", "8",
                "--out", str(out),
            ]
        )
        assert code == 0
        origin = load_dataset(out / "origin.jsonl")
        assert len(origin) == 50

    @pytest.mark.parametrize(
        "flags,message",
        [
            (["--origin-normal", "10", "--origin-step-sigma", "-1"], "origin dataset: step_sigma must be"),
            (["--origin-normal", "10", "--origin-jitter-sigma", "-1"], "origin dataset: jitter_sigma must be"),
            (["--origin-normal", "10", "--origin-jitter-sigma", "inf"], "origin dataset: jitter_sigma must be"),
            (["--boost", "nan"], "anomaly_boost must be a positive finite number, got nan"),
            (["--boost", "inf"], "anomaly_boost must be a positive finite number, got inf"),
            (["--boost", "0"], "anomaly_boost must be a positive finite number, got 0.0"),
            (["--boost", "1e308"], "anomaly_boost * (step_sigma + jitter_sigma) must be at most 12800"),
            (["--origin-normal", "10", "--origin-step-sigma", "1e308"], "origin dataset: step_sigma must be at most"),
            (["--origin-normal", "10", "--origin-jitter-sigma", "1e308"], "origin dataset: jitter_sigma must be at"),
            (["--seed", "-1"], "seed must be an integer >= 0, got -1"),
        ],
    )
    def test_bad_generator_parameter_is_data_error(self, tmp_path, capsys, flags, message):
        out = tmp_path / "o"
        argv = ["synth", "--train-normal", "60", "--test-normal", "40", "--test-anomaly", "10", "--out", str(out)]
        assert main(argv + flags) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()  # nothing is written before every dataset is generated

    @pytest.mark.parametrize(
        "flags,config_hash",
        [
            (
                ["--train-normal", "3000", "--test-normal", "2000", "--test-anomaly", "500"],
                "bb4f8e6633a5047d4d8e27db5a53b3799b41a96665d79e01957a8178941e63d0",
            ),
            (
                ["--train-normal", "2400", "--test-normal", "1200", "--test-anomaly", "400", "--boost", "2.5",
                 "--origin-normal", "1200", "--origin-step-sigma", "16", "--origin-jitter-sigma", "8"],
                "acff03a8cd622d522ffe65b8981701e32931bb0432898bd74964e629bccfc6fa",
            ),
        ],
        ids=["standard", "continual"],
    )
    def test_readme_config_hashes_are_pinned(self, tmp_path, capsys, flags, config_hash):
        # The README quick-starts' synth commands; the hash covers every flag but --seed and --out.
        assert main(["synth", *flags, "--seed", "0", "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        assert json.loads((tmp_path / "manifest.json").read_text())["config_hash"] == config_hash


class TestStats:
    def test_csv_on_stdout(self, synth_dir, capsys):
        assert main(["stats", str(synth_dir / "train.jsonl")]) == 0
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert lines[0].startswith("camera_id,")
        assert lines[1].startswith("synthcam,")

    def test_camera_filter_mismatch_errors(self, synth_dir, capsys):
        assert main(["stats", "--camera", "nope", str(synth_dir / "train.jsonl")]) == 2
        assert capsys.readouterr() == ("", "error: no dataset matched camera 'nope'\n")

    def test_iou_samples_written(self, synth_dir, tmp_path, capsys):
        iou_path = tmp_path / "iou.csv"
        assert main(["stats", "--iou-out", str(iou_path), str(synth_dir / "train.jsonl")]) == 0
        capsys.readouterr()
        lines = iou_path.read_text().strip().splitlines()
        assert lines[0] == "camera_id,max_iou"
        assert len(lines) == 401

    def test_idempotent(self, synth_dir, capsys):
        assert main(["stats", str(synth_dir / "train.jsonl")]) == 0
        first = capsys.readouterr().out
        assert main(["stats", str(synth_dir / "train.jsonl")]) == 0
        second = capsys.readouterr().out
        assert first == second


class TestRearrangeCommand:
    def test_outputs(self, synth_dir, tmp_path, capsys):
        out = tmp_path / "rearranged"
        code = main(
            [
                "rearrange",
                "--train", str(synth_dir / "train.jsonl"),
                "--test", str(synth_dir / "test.jsonl"),
                "--seed", "0",
                "--k", "4",
                "--inject-count", "3",
                "--out", str(out),
            ]
        )
        capsys.readouterr()
        assert code == 0
        slices = sorted(p.name for p in out.glob("slice_*.jsonl"))
        assert slices == ["slice_01.jsonl", "slice_02.jsonl", "slice_03.jsonl", "slice_04.jsonl"]
        assert (out / "test.jsonl").exists()
        prov = (out / "provenance.csv").read_text().strip().splitlines()
        assert prov[0] == "frame_index,origin,slice"
        total = sum(len(load_dataset(out / s)) for s in slices)
        test_frames = load_dataset(out / "test.jsonl")
        assert total + len(test_frames) == 740
        # Stream rows slice by slice, then test rows; every row names its tag.
        rows = [line.split(",") for line in prov[1:]]
        stream = [(int(fi), tag, int(i)) for fi, tag, i in rows[:total]]
        for i, name in enumerate(slices, start=1):
            got = sorted(fi for fi, _, at in stream if at == i)
            assert got == load_dataset(out / name).frame_index.tolist()
        assert [i for _, _, i in stream] == sorted(i for _, _, i in stream)
        assert {tag for _, tag, _ in stream} == {"orig_train_normal", "moved_test_normal", "injected_anomaly"}
        assert sum(tag == "injected_anomaly" for _, tag, _ in stream) == 3
        test_rows = rows[total:]
        assert [fi for fi, _, _ in test_rows] == [str(fi) for fi in test_frames.frame_index.tolist()]
        assert [tag for _, tag, _ in test_rows] == [
            "test_anomaly" if a else "test_normal" for a in test_frames.anomalous.tolist()
        ]
        assert {i for _, _, i in test_rows} == {""}
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["subcommand"] == "rearrange"

    def test_deterministic_outputs(self, synth_dir, tmp_path, capsys):
        args = [
            "rearrange",
            "--train", str(synth_dir / "train.jsonl"),
            "--test", str(synth_dir / "test.jsonl"),
            "--seed", "7",
            "--inject-count", "3",
        ]
        a = tmp_path / "a"
        b = tmp_path / "b"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        capsys.readouterr()
        for name in ["slice_01.jsonl", "test.jsonl", "provenance.csv"]:
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_output_bytes_are_pinned(self, synth_dir, tmp_path, capsys):
        # Any drift in a derived tag, in stream order or in the test set changes a digest.
        out = tmp_path / "r"
        train, test = str(synth_dir / "train.jsonl"), str(synth_dir / "test.jsonl")
        args = ["rearrange", "--train", train, "--test", test, "--seed", "0", "--k", "4", "--inject-count", "3"]
        assert main(args + ["--out", str(out)]) == 0
        capsys.readouterr()
        pinned = {
            "slice_01.jsonl": "cbeee65dc218ec72dc1894cbe74ff9a136307d8bc9fd45fb32b8b0bc12cc3d56",
            "slice_02.jsonl": "fb5854d02ae6fa442f55570e353e938e71ffd3470df9d469fe4555c59b0d588a",
            "slice_03.jsonl": "2cb38b0e6b78d74387a55a1cdf12e5e4c03f7798bc0cc5dd50a453580e144a79",
            "slice_04.jsonl": "861cba07fa9392d0df0fd2c7b9cf3c37592794059239b197f7b0a07515eba8c2",
            "test.jsonl": "616f321bf2c1b76e2b188234155f91c22594d21c057a91d72973ef56cb88bb70",
            "provenance.csv": "87c34a92b7d8e64241d85390df5c7c8baef61790afce719e3f9ce7070568c695",
        }
        assert {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in pinned} == pinned

    def test_default_plan_flags_keep_the_config_hash(self, synth_dir, tmp_path, capsys):
        # Without plan flags the plan takes RearrangePlan's defaults, and the manifest hashes
        # the same plan as when those defaults are given as flags.
        train, test = str(synth_dir / "train.jsonl"), str(synth_dir / "test.jsonl")
        args = ["rearrange", "--train", train, "--test", test]
        defaults = ["--k", "9", "--target-ratio", "0.01", "--balance-tolerance", "0.002"]
        assert main(args + ["--out", str(tmp_path / "bare")]) == 0
        assert main(args + defaults + ["--out", str(tmp_path / "explicit")]) == 0
        capsys.readouterr()
        plan = {
            "seed": derive_seed(0, "rearrange"),
            "inject_count": None,
            "target_train_anomaly_ratio": 0.01,
            "k": 9,
            "balance_tolerance": 0.002,
        }
        blob = json.dumps({"plan": plan}, sort_keys=True, separators=(",", ":"))
        want = hashlib.sha256(blob.encode("utf-8")).hexdigest()
        for out in ("bare", "explicit"):
            assert json.loads((tmp_path / out / "manifest.json").read_text())["config_hash"] == want


    def test_config_hash_does_not_depend_on_the_input_paths(self, synth_dir, tmp_path, capsys):
        # One rearrangement, and one report, of byte-identical inputs kept in two directories.
        results = json.dumps(result_to_dict(golden_results()[0]))
        hashes = {"rearrange": [], "report": []}
        for copy in (tmp_path / "a", tmp_path / "b"):
            copy.mkdir()
            for name in ("train.jsonl", "test.jsonl"):
                (copy / name).write_bytes((synth_dir / name).read_bytes())
            (copy / "results.json").write_text(results)
            for argv in (
                ["rearrange", "--train", str(copy / "train.jsonl"), "--test", str(copy / "test.jsonl"), "--k", "4"],
                ["report", "--results", str(copy / "results.json")],
            ):
                out = copy / argv[0]
                assert main(argv + ["--out", str(out)]) == 0
                hashes[argv[0]].append(json.loads((out / "manifest.json").read_text())["config_hash"])
        capsys.readouterr()
        assert all(a == b for a, b in hashes.values()), hashes


class TestConfigValues:
    """A mistyped --config value exits 2 and names its key, before any data is read."""

    @pytest.mark.parametrize(
        "subcommand,config,message",
        [
            ("run-standard", '{"scorer_params": 5}', "scorer_params must be a JSON object"),
            ("run-standard", '{"scorer_params": [1]}', "scorer_params must be a JSON object"),
            ("run-standard", '{"scorer_params": {"bogus": 1}}', "scorer_params keys: ['bogus']"),
            ("run-standard", '{"scorer": "knn", "scorer_params": {"bogus": 1}}', "keys: ['bogus']"),
            (
                "run-standard",
                '{"scorer": "knn", "scorer_params": {"variance_floor": 1e-8}}',
                "scorer_params keys: ['variance_floor']",
            ),
            ("run-standard", '{"scorer": "knn", "scorer_params": {"seed": 3}}', "unknown knn scorer_params keys: ['seed']"),
            ("run-standard", '{"scorer": "knn", "scorer_params": {"k_nn": "5"}}', "k_nn must be an integer"),
            ("run-standard", '{"scorer": "knn", "scorer_params": {"k_nn": 2.5}}', "k_nn must be an integer"),
            ("run-standard", '{"scorer": "knn", "scorer_params": {"capacity": 1e400}}', "capacity must be"),
            ("run-standard", '{"scorer_params": {"variance_floor": "x"}}', "variance_floor must be a"),
            ("run-standard", '{"scorer_params": {"variance_floor": null}}', "variance_floor must be a"),
            ("run-standard", '{"window_length": "24"}', "window_length must be an integer"),
            ("run-standard", '{"window_length": 2.5}', "window_length must be an integer"),
            ("run-standard", '{"window_stride": true}', "window_stride must be an integer"),
            ("run-standard", '{"smoothing_window": 15.0}', "smoothing_window must be an integer"),
            ("run-standard", '{"max_gap": "3"}', "max_gap must be an integer"),
            ("run-standard", '{"fnr_target": "x"}', "fnr_target must be a number"),
            ("run-standard", '{"fnr_target": null}', "fnr_target must be a number"),
            ("run-continual", '{"seed": "x"}', "seed must be an integer"),
            ("run-continual", '{"plan": [1]}', "plan must be a JSON object"),
            ("run-continual", '{"plan": {"k": "3"}}', "k must be an integer"),
            ("run-continual", '{"plan": {"k": 2.5}}', "k must be an integer"),
            ("run-continual", '{"plan": {"target_train_anomaly_ratio": "x"}}', "anomaly_ratio must be"),
            ("run-continual", '{"plan": {"balance_tolerance": null}}', "balance_tolerance must be a number"),
            ("run-continual", '{"plan": {"inject_count": true}}', "inject_count must be an integer"),
            ("run-standard", '{"train": 5}', "train must be a non-empty string (a dataset path), got 5"),
            ("run-standard", '{"test": null}', "test must be a non-empty string (a dataset path), got None"),
            ("run-standard", '{"test": ""}', "test must be a non-empty string (a dataset path), got ''"),
            ("run-continual", '{"origin": true}', "origin must be a non-empty string (a dataset path), got True"),
            ("run-continual", '{"train": ["a.jsonl"]}', "train must be a non-empty string (a dataset path)"),
        ],
    )
    def test_mistyped_value_is_data_error_naming_the_key(
        self, synth_dir, tmp_path, capsys, subcommand, config, message
    ):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(config)
        data = ["--train", str(synth_dir / "train.jsonl"), "--test", str(synth_dir / "test.jsonl")]
        if subcommand == "run-continual":
            data += ["--origin", str(synth_dir / "train.jsonl")]
        code = main([subcommand, "--config", str(cfg), *data, "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2, err
        assert message in err

    @pytest.mark.parametrize(
        "plan", ["{}", '{"inject_count": null, "k": 9, "target_train_anomaly_ratio": 0.01, "balance_tolerance": 0.002}']
    )
    def test_plan_is_refused_by_run_standard_before_reading(self, tmp_path, capsys, plan):
        # The README config lists every key; a standard run has no rearrangement, so its plan is refused.
        # The datasets do not exist: the refusal comes before any is read.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(f'{{"mode": "standard", "plan": {plan}, "train": "no.jsonl", "test": "no.jsonl"}}')
        code = main(["run-standard", "--config", str(cfg), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2, err
        assert "plan is read only by run-continual" in err
        assert not (tmp_path / "out").exists()

    def test_origin_is_refused_by_run_standard_before_reading(self, tmp_path, capsys):
        # run-standard reads only train and test, so an origin in its config is an unknown key, not a path to ignore.
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"origin": "no.jsonl", "train": "no.jsonl", "test": "no.jsonl"}')
        assert main(["run-standard", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr() == ("", "error: unknown config keys: ['origin']\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("plan", ["[]", "0", '""', "null", "[1]"])
    def test_plan_that_is_not_an_object_is_refused_before_reading(self, tmp_path, capsys, plan):
        # A falsy plan is refused too, not taken for the default plan. The datasets do not exist.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(f'{{"plan": {plan}, "train": "no.jsonl", "test": "no.jsonl", "origin": "no.jsonl"}}')
        assert main(["run-continual", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr() == ("", f"error: plan must be a JSON object, got {json.loads(plan)!r}\n")
        assert not (tmp_path / "out").exists()

    def test_plan_without_seed_and_plan_in_standard_mode_are_data_errors(self):
        with pytest.raises(ValidationError, match="plan lacks its seed"):
            RunConfig.from_dict({"mode": "continual", "plan": {"k": 3}})
        with pytest.raises(ValidationError, match="standard mode takes no rearrange plan"):
            RunConfig.from_dict({"mode": "standard", "plan": {"seed": 0}})
        with pytest.raises(ValidationError, match="standard mode takes no rearrange plan"):
            RunConfig(mode="standard", plan=RearrangePlan(seed=0))

    @pytest.mark.parametrize("value", ["5", "null", "true", "[]"])
    def test_dataset_path_only_in_the_config_is_checked_before_reading(self, synth_dir, tmp_path, capsys, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(f'{{"train": {json.dumps(str(synth_dir / "train.jsonl"))}, "test": {value}}}')
        code = main(["run-standard", "--config", str(cfg), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2, err
        assert f"test must be a non-empty string (a dataset path), got {json.loads(value)!r}" in err
        assert not (tmp_path / "out").exists()


class TestRunFlags:
    @pytest.mark.parametrize("subcommand", ["run-standard", "run-continual"])
    def test_choices_are_the_scorer_and_aggregator_tables(self, tmp_path, capsys, subcommand):
        out = str(tmp_path / "o")
        for flag, table in (("--scorer", SCORER_KINDS), ("--aggregator", AGGREGATORS)):
            for value in table:
                args = cli.build_parser().parse_args([subcommand, flag, value, "--out", out])
                assert getattr(args, flag[2:]) == value
            assert main([subcommand, flag, "mystery", "--out", out]) == 1
            assert "invalid choice: 'mystery'" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_every_run_flag_is_a_config_field(self):
        fields = {f.name for f in dataclasses.fields(RunConfig)}
        assert [key for key, _ in cli._RUN_FLAGS if key not in fields] == []


class TestRunStandardCommand:
    def test_end_to_end(self, synth_dir, tmp_path, capsys):
        out = tmp_path / "std"
        code = main(
            [
                "run-standard",
                "--train", str(synth_dir / "train.jsonl"),
                "--test", str(synth_dir / "test.jsonl"),
                "--seed", "0",
                "--out", str(out),
            ]
        )
        capsys.readouterr()
        assert code == 0
        report = (out / "report.csv").read_text().strip().splitlines()
        assert len(report) == 2
        assert report[1].split(",")[1] == "standard"
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["subcommand"] == "run-standard"
        assert len(manifest["config_hash"]) == 64
        # Where it ran: what numpy and its BLAS are, the OpenBLAS settings in effect and the cores the reader saw.
        assert manifest["numpy"] == np.__version__
        assert isinstance(manifest["blas"], str) and manifest["blas"]
        assert manifest["blas_env"] == {
            name: os.environ.get(name) for name in ("OPENBLAS_NUM_THREADS", "OPENBLAS_THREAD_TIMEOUT")
        }
        assert manifest["blas_env"]["OPENBLAS_THREAD_TIMEOUT"] is not None  # importing posebench sets it
        assert manifest["cores"] == (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None)

    def test_config_file_with_flag_override(self, synth_dir, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(
            json.dumps(
                {
                    "train": str(synth_dir / "train.jsonl"),
                    "test": str(synth_dir / "test.jsonl"),
                    "aggregator": "mean",
                    "seed": 3,
                }
            )
        )
        out = tmp_path / "cfgrun"
        code = main(
            ["run-standard", "--config", str(cfg_path), "--aggregator", "max", "--out", str(out)]
        )
        capsys.readouterr()
        assert code == 0
        assert (out / "report.csv").exists()

    def test_smoothing_window_past_every_run_finishes(self, synth_dir, tmp_path, capsys):
        # A window of at least twice the longest run (400 train frames) plus one smooths every run whole,
        # so any larger one gives the same report, in a time that does not grow with the window.
        inputs = [f"--{name}={synth_dir / name}.jsonl" for name in ("train", "test")]
        assert main(["run-standard", *inputs, "--smoothing-window", "801", "--out", str(tmp_path / "801")]) == 0
        capsys.readouterr()
        argv = [sys.executable, "-m", "posebench.cli", "run-standard", *inputs, "--smoothing-window", "1000000001"]
        env = {**os.environ, "PYTHONPATH": str(Path(posebench.__file__).parents[1])}
        subprocess.run([*argv, "--out", str(tmp_path / "huge")], env=env, check=True, timeout=60, capture_output=True)
        assert (tmp_path / "huge" / "report.csv").read_bytes() == (tmp_path / "801" / "report.csv").read_bytes()

    def test_config_mode_conflict(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"mode": "continual"}))
        code = main(["run-standard", "--config", str(cfg_path), "--out", str(tmp_path / "x")])
        capsys.readouterr()
        assert code == 2

    def test_missing_dataset_flag(self, tmp_path, capsys):
        assert main(["run-standard", "--out", str(tmp_path / "x")]) == 2
        capsys.readouterr()


class TestRunContinualCommand:
    def test_end_to_end_and_report_reemission(self, tmp_path, capsys):
        synth = tmp_path / "synth"
        code = main(
            [
                "synth",
                "--train-normal", "600",
                "--test-normal", "360",
                "--test-anomaly", "120",
                "--boost", "2.5",
                "--origin-normal", "400",
                "--origin-step-sigma", "16",
                "--origin-jitter-sigma", "8",
                "--seed", "0",
                "--out", str(synth),
            ]
        )
        assert code == 0
        out = tmp_path / "run"
        code = main(
            [
                "run-continual",
                "--train", str(synth / "train.jsonl"),
                "--test", str(synth / "test.jsonl"),
                "--origin", str(synth / "origin.jsonl"),
                "--seed", "0",
                "--k", "4",
                "--out", str(out),
            ]
        )
        capsys.readouterr()
        assert code == 0
        csv_lines = (out / "report.csv").read_text().strip().splitlines()
        # header + baseline + 4 steps + batch + average + best
        assert len(csv_lines) == 1 + 1 + 4 + 3
        for i in range(1, 5):  # each step's row, rendered into its own file during the run and into the report
            assert (out / "steps" / f"step_{i}.csv").read_text().splitlines() == [csv_lines[0], csv_lines[1 + i]]
        assert (out / "results.json").exists()

        re_out = tmp_path / "reemit"
        code = main(
            ["report", "--results", str(out / "results.json"), "--out", str(re_out)]
        )
        capsys.readouterr()
        assert code == 0
        assert (re_out / "report.csv").read_bytes() == (out / "report.csv").read_bytes()
        assert (re_out / "report.md").read_bytes() == (out / "report.md").read_bytes()

    PINNED = {
        "gaussian": {
            "checkpoints/step_1.ckpt:meta.npy": "9319b1106410c2999e937d32ca07b8c5f8a37d77f1ffce6c66b89b156615e13d",
            "checkpoints/step_1.ckpt:mean.npy": "4415c23fcfaa9d9b6567c76ba24269023022b60aa9d3fd67d2fe6b6600b0d66b",
            "checkpoints/step_1.ckpt:m2.npy": "1720d5cee5af70880bdcc71b1a8b049d5265761ec3e66c465b72ac83be5002d5",
            "checkpoints/step_2.ckpt:meta.npy": "5c7d80a9ce5563757ccf8318a8a5fdec1e64ba9898ecb2c2cdec7df2e032ff9c",
            "checkpoints/step_2.ckpt:mean.npy": "cac1f7361912a2181e279817232acdebcbac99ba31edf07da0710b3173472c13",
            "checkpoints/step_2.ckpt:m2.npy": "7177d801cd50aafb35cdc8cc996d86a3f4bed5344856047d053726e8998c3e3b",
            "checkpoints/step_3.ckpt:meta.npy": "56fbea22882a24abef7c57fd0c4be2bb3fbf22b371c3e91a5a4de04513e44e59",
            "checkpoints/step_3.ckpt:mean.npy": "a5b7e33f07d09cdca19c30737dbf6b36b6563b184e6452c9be0b813a5f027de4",
            "checkpoints/step_3.ckpt:m2.npy": "9fa338ffc6afead205a7776423bc596924f2ee93992b0f757b37566774775c80",
            "report.csv": "4c358e7f174882487f67a23dd4b577f6cc98877f1f9ce2de4b20886b01f906eb",
            "report.md": "73746eb75ddc10b5d091b7b4a1cd280a9826ac2050b00d95ba5b70eff3e0c1bf",
            "results.json": "be8dd49fdecc116c03b4516b179932a71782f191e3362b8ed5faf2507583a929",
            "steps/step_1.csv": "263159f3becc3ade9fbd9595747e3c96eb71e23f504667580ced574cd604d00b",
            "steps/step_2.csv": "67a9791c770bfe324cd4bb231ad8c9a92d1d408e16c2423a34d872607c7a8b1c",
            "steps/step_3.csv": "d2579efb99e177549071a3c926ee081a1c7b98342eb90ea2211b7bc5c07e8f06",
        },
        "knn": {
            "checkpoints/step_1.ckpt:meta.npy": "fee27b96fd0ec29482b92dd788a40ce3abfa5381c12bbb2110fa337653d34e00",
            "checkpoints/step_1.ckpt:rows.npy": "1e1cb04858146f34ce203936b705f0f98ef0967bc3faf5836ea931ddee08a796",
            "checkpoints/step_1.ckpt:index.npy": "c9d52da278ef27c43c424591b435920b599e2b7182cf5e645927cafbe84cdfc1",
            "checkpoints/step_2.ckpt:meta.npy": "aaa8f296200243b3f226d39731b353e79ab6b1da5d9463598e16d45d926021d3",
            "checkpoints/step_2.ckpt:rows.npy": "b364715337655f3805e57aa863c0ad118c9a017506bb30c9451199f4fd2b159d",
            "checkpoints/step_2.ckpt:index.npy": "1e60731ea3167b7b3bc41eece247ec3065242a8373faa4ba28afbd6c8569b426",
            "checkpoints/step_3.ckpt:meta.npy": "79605f6547ee64cae732f28bc052274708121c5597a25bd576e0bda094441f45",
            "checkpoints/step_3.ckpt:rows.npy": "8cda00871d1dd04342ac0e43c5d1b3c0b04d5992488e66f199254f1bf8f56d23",
            "checkpoints/step_3.ckpt:index.npy": "366f36f1c1d5e5518e6eca3962c0a7683a69faa513b185ef15f34ec822623872",
            "report.csv": "b0f93a3f648723a870e6cae90191a8e2309c29257ec39dde0cf1542da0463b1d",
            "report.md": "4b6ba34aa19208f3d12bbc8504c8ebe90815b9c5b115854137e77b32272b3442",
            "results.json": "78ee313006ba323a9b27b48ddb2dc3e265c35dd7749a890cb55e6b2e00dbcc02",
            "steps/step_1.csv": "6e79188248f409edc9fd16e9c2fb23e71764517b1e13fd8069fcbbff42aa84cb",
            "steps/step_2.csv": "ea48025f446a3bcd0de729776645ee136966479e48793626f4462adca1467fae",
            "steps/step_3.csv": "109f80b6914197f369153fbd8ba5e6a9a9accd201a6bf8c04bcd6e5c8c23d810",
        },
    }

    @staticmethod
    def _pinned_run(scorer, tmp_path):
        """synth and run-continual (seed 0, k 3) of the pinned config; returns the synth and run directories."""
        synth = tmp_path / "synth"
        shape = ["--boost", "2.5", "--origin-step-sigma", "16", "--origin-jitter-sigma", "8"]
        counts = ["--train-normal", "300", "--test-normal", "180", "--test-anomaly", "60", "--origin-normal", "200"]
        assert main(["synth", *counts, *shape, "--seed", "0", "--out", str(synth)]) == 0
        out = tmp_path / "run"
        inputs = [f"--{name}={synth / name}.jsonl" for name in ("train", "test", "origin")]
        assert main(["run-continual", *inputs, "--scorer", scorer, "--seed", "0", "--k", "3", "--out", str(out)]) == 0
        return synth, out

    @pytest.mark.parametrize("scorer", sorted(PINNED))
    def test_output_bytes_are_pinned(self, scorer, tmp_path, capsys):
        # Any drift in the stream, the test set, a fit or a score changes a digest.
        _, out = self._pinned_run(scorer, tmp_path)
        capsys.readouterr()
        assert _output_digests(out) == self.PINNED[scorer]

    @pytest.mark.parametrize("scorer", SCORER_KINDS)
    def test_each_step_checkpoint_reproduces_its_step_csv(self, scorer, tmp_path, capsys):
        # A knn step after the first holds only the rows it added and names the step before as its base.
        # A scorer given the state the oracle reads from a step scores the run's test windows to its step
        # CSV, byte for byte.
        synth, out = self._pinned_run(scorer, tmp_path)
        capsys.readouterr()
        plan = RearrangePlan(seed=derive_seed(0, "rearrange"), k=3)
        cfg = RunConfig(mode="continual", scorer=scorer, seed=0, plan=plan)
        split = SplitSet(train=load_dataset(synth / "train.jsonl"), test=load_dataset(synth / "test.jsonl"))
        test = split.test.take(rearrange(split, plan).test_rows)
        test_windows = runner._windows(test, cfg)
        for i in (1, 2, 3):
            step = out / "checkpoints" / f"step_{i}.ckpt"
            meta, arrays = _oracles.read_checkpoint(step)
            assert meta.get("base", {}).get("name") == (f"step_{i - 1}.ckpt" if scorer == "knn" and i > 1 else None)
            restored = SCORERS[meta["kind"]](**meta["params"])
            if scorer == "knn":
                restored._poses, restored._index = arrays["rows"], arrays["index"].astype(np.int64)
            else:
                restored._count, restored._mean, restored._m2 = meta["count"], arrays["mean"], arrays["m2"]
            report = evaluate_windows(restored, test_windows, test, cfg)
            again = write_step_csv(tmp_path / "again", i, split.camera_id, report)
            assert Path(again).read_bytes() == (out / "steps" / f"step_{i}.csv").read_bytes()

    def test_outputs_do_not_depend_on_blas_threads(self, tmp_path, capsys):
        """The README continual quick-start with ``--scorer knn`` writes the same bytes at
        ``OPENBLAS_NUM_THREADS=1`` and ``2``, and at ``2`` with ``OPENBLAS_THREAD_TIMEOUT=28``
        (OpenBLAS's own spin, which posebench's default of 4 replaces): report.csv, report.md,
        results.json, steps/ and each checkpoint member.

        The kNN candidate filter is a BLAS matrix product, whose rounding can depend on how the
        work is split across threads; the exact rescoring must hide that. Each run is its own
        process, because OpenBLAS reads both variables once, at load. On a 1-core host, or with a
        BLAS other than OpenBLAS, every run uses one thread and the test proves nothing.
        """
        data = tmp_path / "data"
        shape = ["--boost", "2.5", "--origin-step-sigma", "16", "--origin-jitter-sigma", "8"]
        counts = ["--train-normal", "2400", "--test-normal", "1200", "--test-anomaly", "400", "--origin-normal", "1200"]
        assert main(["synth", *counts, *shape, "--seed", "0", "--out", str(data)]) == 0
        capsys.readouterr()
        inputs = [f"--{name}={data / name}.jsonl" for name in ("train", "test", "origin")]
        src = str(Path(posebench.__file__).parents[1])
        digests = []
        for threads, timeout in (("1", "4"), ("2", "4"), ("2", "28")):
            out = tmp_path / f"threads-{threads}-timeout-{timeout}"
            argv = [sys.executable, "-m", "posebench.cli", "run-continual", *inputs, "--scorer", "knn"]
            env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads, "OPENBLAS_THREAD_TIMEOUT": timeout}
            subprocess.run([*argv, "--seed", "0", "--k", "9", "--out", str(out)], env=env, check=True, timeout=300)
            digests.append(_output_digests(out))
        assert len(digests[0]) == 3 + 9 + 9 * 3  # reports, step CSVs and three members per checkpoint
        assert digests[0] == digests[1] == digests[2]


# Run in a fresh interpreter: records OPENBLAS_THREAD_TIMEOUT as it is when numpy is first imported.
_TIMEOUT_AT_NUMPY_IMPORT = """
import json, os, sys
seen = []

class Spy:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy":
            seen.append(os.environ.get("OPENBLAS_THREAD_TIMEOUT"))

sys.meta_path.insert(0, Spy())
import posebench
print(json.dumps(seen[:1]))
"""


@pytest.mark.parametrize("preset, want", [(None, "4"), ("20", "20")])
def test_importing_posebench_sets_the_blas_thread_timeout_before_numpy_loads(preset, want):
    # OpenBLAS reads the timeout once, when numpy loads it: posebench must set it first, and keep a user's own.
    env = {key: value for key, value in os.environ.items() if key != "OPENBLAS_THREAD_TIMEOUT"}
    if preset is not None:
        env["OPENBLAS_THREAD_TIMEOUT"] = preset
    env["PYTHONPATH"] = str(Path(posebench.__file__).parents[1])
    run = subprocess.run([sys.executable, "-c", _TIMEOUT_AT_NUMPY_IMPORT], env=env, check=True, timeout=60,
                         capture_output=True, text=True)
    assert json.loads(run.stdout) == [want]


@pytest.mark.parametrize("exc", [TypeError, KeyError])
def test_blas_is_unknown_where_numpy_cannot_say(monkeypatch, exc):
    # numpy before 1.26 has no show_config(mode=...): TypeError; a build without a blas entry: KeyError.
    def show_config(mode=None):
        raise exc(mode)

    monkeypatch.setattr(np, "show_config", show_config)
    assert cli._blas() == "unknown"


@pytest.fixture(scope="module")
def continual_dir(tmp_path_factory):
    """A small continual synth (train, test, origin) plus ``bad_<name>.jsonl``: each file with a malformed last line."""
    out = tmp_path_factory.mktemp("continual")
    shape = ["--boost", "2.5", "--origin-step-sigma", "16", "--origin-jitter-sigma", "8"]
    counts = ["--train-normal", "300", "--test-normal", "180", "--test-anomaly", "60", "--origin-normal", "200"]
    assert main(["synth", *counts, *shape, "--seed", "0", "--out", str(out)]) == 0
    for name in ("train", "test", "origin"):
        (out / f"bad_{name}.jsonl").write_bytes((out / f"{name}.jsonl").read_bytes() + b"{not json\n")
    return out


def _cores(monkeypatch, n):
    """Make the loader see ``n`` usable cores: n - 1 forked readers at most."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


class TestParallelLoad:
    """Input files are read by forked children, but each error is the one a serial read reports first."""

    @pytest.mark.parametrize("cores", [1, 2, 3])
    @pytest.mark.parametrize(
        "subcommand, files, reported",
        [
            ("run-standard", ("bad_train", "bad_test"), "bad_train.jsonl: line 301: malformed JSON"),
            # test.jsonl holds anomalous frames, so as train it fails SplitSet; the test file's error comes first.
            ("run-standard", ("test", "bad_test"), "bad_test.jsonl: line 241: malformed JSON"),
            ("rearrange", ("test", "bad_test"), "bad_test.jsonl: line 241: malformed JSON"),
            ("run-continual", ("test", "test", "bad_origin"), "is not labeled normal"),
            ("run-continual", ("train", "test", "bad_origin"), "bad_origin.jsonl: line 201: malformed JSON"),
            ("stats", ("train", "bad_test", "bad_origin"), "bad_test.jsonl: line 241: malformed JSON"),
        ],
    )
    def test_errors_come_in_serial_order(self, continual_dir, tmp_path, capsys, monkeypatch, cores, subcommand,
                                         files, reported):
        _cores(monkeypatch, cores)
        paths = [str(continual_dir / f"{name}.jsonl") for name in files]
        if subcommand == "stats":
            argv = ["stats", *paths]
        else:
            argv = [subcommand, *(f"--{key}={path}" for key, path in zip(("train", "test", "origin"), paths))]
            argv += ["--out", str(tmp_path / "out")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and reported in err

    def test_missing_test_file(self, continual_dir, tmp_path, capsys, monkeypatch):
        _cores(monkeypatch, 2)
        missing = tmp_path / "nope.jsonl"
        argv = ["run-standard", "--train", str(continual_dir / "train.jsonl"), "--test", str(missing)]
        assert main([*argv, "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"error: cannot read {missing}: No such file or directory\n"

    @pytest.fixture
    def failing_read(self, continual_dir, monkeypatch):
        """Make reading test.jsonl in a forked reader run ``fail``; the calling process reads as before."""
        parent, read_frames = os.getpid(), io.read_frames

        def install(fail):
            def read(path):
                if os.getpid() != parent and Path(path).name == "test.jsonl":
                    fail()
                return read_frames(path)

            _cores(monkeypatch, 2)
            monkeypatch.setattr(io, "read_frames", read)

        return install

    def test_runtime_error_in_a_reader_is_an_internal_error(self, continual_dir, tmp_path, capsys, failing_read):
        def fail():
            raise RuntimeError(f"boom in process {os.getpid()}")

        failing_read(fail)
        inputs = [f"--{name}={continual_dir / name}.jsonl" for name in ("train", "test")]
        assert main(["run-standard", *inputs, "--out", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("internal error: RuntimeError: boom in process ") and str(os.getpid()) not in err

    def test_killed_reader_names_its_files(self, continual_dir, tmp_path, capsys, failing_read):
        failing_read(lambda: os.kill(os.getpid(), signal.SIGKILL))
        inputs = [f"--{name}={continual_dir / name}.jsonl" for name in ("train", "test", "origin")]
        assert main(["run-continual", *inputs, "--out", str(tmp_path / "out")]) == 3
        files = f"{continual_dir / 'test.jsonl'}, {continual_dir / 'origin.jsonl'}"
        assert capsys.readouterr().err == f"error: the process reading {files} ended without a result\n"

    def test_failed_fork_is_a_runtime_error_and_leaves_no_child(self, continual_dir, tmp_path, capsys, monkeypatch):
        # Two readers: the first starts, the second cannot; the first is killed and reaped.
        _cores(monkeypatch, 3)
        fork, calls = os.fork, []

        def second_fails():
            calls.append(1)
            if len(calls) == 2:
                raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))
            return fork()

        monkeypatch.setattr(os, "fork", second_fails)
        inputs = [f"--{name}={continual_dir / name}.jsonl" for name in ("train", "test", "origin")]
        assert main(["run-continual", *inputs, "--out", str(tmp_path / "out")]) == 3
        want = f"error: cannot start a process to read {continual_dir / 'origin.jsonl'}: {os.strerror(errno.EAGAIN)}\n"
        assert capsys.readouterr().err == want

    def test_loaded_columns_are_read_only(self, continual_dir, monkeypatch):
        _cores(monkeypatch, 3)
        paths = [continual_dir / f"{name}.jsonl" for name in ("train", "test", "origin")]
        with contextlib.closing(io.load_datasets(*paths)) as datasets:
            for path, ds in zip(paths, datasets):
                assert ds == load_dataset(path)
                assert not any(column.flags.writeable for column in ds._columns())

    def test_outputs_do_not_depend_on_the_core_count(self, continual_dir, tmp_path, capsys, monkeypatch):
        paths = [str(continual_dir / f"{name}.jsonl") for name in ("train", "test", "origin")]
        inputs = [f"--{key}={path}" for key, path in zip(("train", "test", "origin"), paths)]
        digests = []
        for cores in (1, 2, 3):
            _cores(monkeypatch, cores)
            out = tmp_path / f"cores-{cores}"
            argv = ["run-continual", *inputs, "--scorer", "knn", "--seed", "0", "--k", "3"]
            assert main([*argv, "--out", str(out)]) == 0
            assert main(["stats", *paths]) == 0
            digests.append((_output_digests(out), capsys.readouterr().out))
        assert len(digests[0][0]) == 3 + 3 + 3 * 3 and digests[0] == digests[1] == digests[2]


class TestRunCommands:
    """What both run subcommands share: their inputs, in read order, and a summary line on stderr."""

    @pytest.mark.parametrize(
        "subcommand, given, missing",
        [
            ("run-standard", ("test",), "train"),
            ("run-standard", ("train",), "test"),
            ("run-continual", ("test", "origin"), "train"),
            ("run-continual", ("train", "origin"), "test"),
            ("run-continual", ("train", "test"), "origin"),
        ],
    )
    def test_missing_input_names_its_role(self, continual_dir, tmp_path, capsys, subcommand, given, missing):
        out = tmp_path / "out"
        argv = [subcommand, *(f"--{role}={continual_dir / role}.jsonl" for role in given), "--out", str(out)]
        assert main(argv) == 2
        message = f"error: {subcommand} requires a {missing} dataset (flag --{missing} or config)\n"
        assert capsys.readouterr() == ("", message)
        assert not out.exists()

    @pytest.mark.parametrize(
        "subcommand, roles, wrote",
        [
            ("run-standard", ("train", "test"), "report.csv and report.md"),
            ("run-continual", ("train", "test", "origin"), "report, steps and checkpoints"),
        ],
    )
    def test_summary_line(self, continual_dir, tmp_path, capsys, subcommand, roles, wrote):
        out = tmp_path / "out"
        argv = [subcommand, *(f"--{role}={continual_dir / role}.jsonl" for role in roles), "--out", str(out)]
        assert main(argv) == 0
        assert capsys.readouterr() == ("", f"wrote {wrote} to {out}\n")
        assert json.loads((out / "manifest.json").read_text())["subcommand"] == subcommand


class TestReportCommand:
    def test_unknown_format(self, tmp_path, capsys):
        results = tmp_path / "results.json"
        results.write_text(json.dumps(result_to_dict(golden_results()[0])))
        code = main(
            ["report", "--results", str(results), "--formats", "pdf", "--out", str(tmp_path / "o")]
        )
        assert code == 2
        assert capsys.readouterr().err == "error: unknown report format 'pdf'\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "damage,message",
        [
            (lambda raw: {k: v for k, v in raw.items() if k != "baseline"}, "missing field 'baseline'"),
            (lambda raw: {**raw, "per_step": 5}, "field 'per_step' must be a list"),
            (lambda raw: {**raw, "step_best": {**raw["step_best"], "eer": "x"}}, "field 'step_best'"),
            (lambda raw: [raw], "not a continual result file"),
        ],
        ids=["missing-baseline", "per-step-not-a-list", "bad-metric-value", "not-an-object"],
    )
    def test_damaged_results_is_data_error(self, tmp_path, capsys, damage, message):
        results = tmp_path / "results.json"
        results.write_text(json.dumps(damage(result_to_dict(golden_results()[0]))))
        code = main(["report", "--results", str(results), "--out", str(tmp_path / "o")])
        assert code == 2
        assert f"{results}: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("metric", ["auc_roc", "auc_pr", "eer", "ten_er"])
    @pytest.mark.parametrize("name", ["step_average", "step_best"])
    def test_summary_that_differs_from_per_step_is_data_error(self, tmp_path, capsys, name, metric):
        # The summaries are written from per_step; a file whose summary says otherwise is refused, not rendered.
        raw = result_to_dict(golden_results()[0])
        raw[name][metric] += 0.001
        results = tmp_path / "results.json"
        results.write_text(json.dumps(raw))
        assert main(["report", "--results", str(results), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == f"error: {results}: field {name!r} differs from the summary of per_step\n"
        assert not (tmp_path / "o").exists()


@pytest.fixture(scope="module")
def hostile_dir(tmp_path_factory):
    """A small continual synth (train, test and origin of 100 frames each) and the results.json of a run on it."""
    out = tmp_path_factory.mktemp("hostile")
    counts = ["--train-normal", "100", "--test-normal", "60", "--test-anomaly", "40", "--origin-normal", "100"]
    shape = ["--segment-length", "20", "--boost", "2.5", "--origin-step-sigma", "16", "--origin-jitter-sigma", "8"]
    assert main(["synth", *counts, *shape, "--out", str(out)]) == 0
    inputs = [f"--{name}={out / name}.jsonl" for name in ("train", "test", "origin")]
    assert main(["run-continual", *inputs, "--k", "2", "--out", str(out)]) == 0
    return out


def _lines(path, keep=None, count=None):
    """The first ``count`` lines of ``path`` (all by default) that ``keep`` accepts (all by default), as bytes."""
    return b"".join([line for line in Path(path).read_bytes().splitlines(True) if not keep or keep(line)][:count])


def _label(label):
    return lambda line: json.loads(line)["label"] == label


def _run_replacing(hostile_dir, tmp_path, subcommand, replaced):
    """Run ``subcommand`` with ``--out tmp_path/out`` on the hostile inputs, each of ``replaced`` (role: (source
    role, *``_lines`` arguments)) written to ``tmp_path`` first; asserts exit 2 and returns the paths by role."""
    paths = {name: str(hostile_dir / f"{name}.jsonl") for name in ("train", "test", "origin")}
    for name, (source, *keep) in replaced.items():
        paths[name] = str(tmp_path / f"{name}.jsonl")
        Path(paths[name]).write_bytes(_lines(hostile_dir / f"{source}.jsonl", *keep))
    argv = [subcommand, "--train", paths["train"], "--test", paths["test"], "--out", str(tmp_path / "out")]
    if subcommand != "run-standard":
        argv += ["--k", "2"]
    if subcommand == "run-continual":
        argv += ["--origin", paths["origin"]]
    assert main(argv) == 2
    return paths


class TestInputErrorsNameTheirFiles:
    """An error about a whole input file names that file, as the reader's errors do; a stream error names train and
    test."""

    @pytest.mark.parametrize(
        "subcommand, replaced, message",
        [
            ("run-standard", {"test": ("test", _label("normal"))}, "test: auc_roc requires both labels present"),
            ("rearrange", {"test": ("test", _label("normal"))}, "test: test set has no anomalous frames to rearrange"),
            ("run-continual", {"test": ("test", _label("normal"))}, "test: test set has no anomalous frames"),
            ("run-continual", {"test": ("test", _label("anomalous"))}, "test: test set has no normal frames"),
            ("run-standard", {"train": ("train", None, 10)}, "train: training data produced zero pose windows"),
            ("run-continual", {"origin": ("origin", None, 10)}, "origin: origin dataset produced zero pretraining"),
            ("run-continual", {"origin": ("test", _label("anomalous"))}, "origin: origin dataset has no normal frames"),
            ("run-continual", {"origin": ("test", _label("normal"))}, "origin, test: origin and test share frame"),
            # 5 train frames, and a test set that balances by moving 6 of its 46 normal frames: an 11-frame stream.
            (
                "run-continual",
                {"train": ("train", None, 5), "test": ("test", None, 86)},
                "train, test: training stream produced zero pose windows",
            ),
        ],
    )
    def test_error_names_the_file(self, hostile_dir, tmp_path, capsys, subcommand, replaced, message):
        paths = _run_replacing(hostile_dir, tmp_path, subcommand, replaced)
        names, text = message.split(": ", 1)
        files = ", ".join(paths[name] for name in names.split(", "))
        assert capsys.readouterr().err.startswith(f"error: {files}: {text}")

    @pytest.mark.parametrize(
        "subcommand, replaced",
        [
            ("run-standard", {"test": ("test", _label("normal"))}),  # a one-label test set
            ("run-continual", {"origin": ("test", _label("anomalous"))}),  # an origin with no normal frame
            ("run-continual", {"origin": ("test", _label("normal"))}),  # an origin that shares test frames
        ],
    )
    def test_refused_run_leaves_no_output(self, hostile_dir, tmp_path, capsys, subcommand, replaced):
        # The manifest is written after the run, so a run refused after the read leaves no --out behind.
        _run_replacing(hostile_dir, tmp_path, subcommand, replaced)
        assert not (tmp_path / "out").exists()

    def test_windowing_error_names_the_file(self, hostile_dir, tmp_path, capsys):
        # The box passes the reader's checks, but its diagonal overflows, so windowing cannot normalize its pose.
        train = tmp_path / "train.jsonl"
        data = (hostile_dir / "train.jsonl").read_bytes()
        train.write_bytes(re.sub(rb'"bbox":\[[^]]*\]', b'"bbox":[0,0,1.5e308,1.5e308]', data, count=1))
        argv = ["run-standard", "--train", str(train), "--test", str(hostile_dir / "test.jsonl")]
        assert main([*argv, "--out", str(tmp_path / "out")]) == 2
        want = f"error: {train}: cannot normalize pose against a degenerate bounding box\n"
        assert capsys.readouterr().err == want

    def test_test_leakage_is_a_program_fault_and_names_no_file(self, hostile_dir, tmp_path, capsys, monkeypatch):
        # A rearrangement that puts a test row into the stream is a fault of the program, not of any input file.
        rearrange = runner.rearrange

        def leaky(split, plan):
            cs = rearrange(split, plan)
            cs.slices[-1] = np.append(cs.slices[-1], len(cs.split.train) + cs.test_rows[0])
            return cs

        monkeypatch.setattr(runner, "rearrange", leaky)
        monkeypatch.setattr(runner, "verify", lambda cs: None)
        paths = [str(hostile_dir / f"{name}.jsonl") for name in ("train", "test", "origin")]
        inputs = [f"--{key}={path}" for key, path in zip(("train", "test", "origin"), paths)]
        assert main(["run-continual", *inputs, "--k", "2", "--out", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        want = r"error: test leakage: frame \d+ \(tag 'test_(normal|anomaly)'\) must not be trained on\n"
        assert re.fullmatch(want, err) and not any(path in err for path in paths)


    @pytest.mark.parametrize("invariant", [*INVARIANTS, "ingestion accounting"])
    def test_broken_invariant_is_a_program_fault_and_names_no_file(
        self, hostile_dir, tmp_path, capsys, monkeypatch, invariant
    ):
        message = []  # its pattern
        if invariant == "ingestion accounting":  # a scorer that under-reports the windows it ingests
            monkeypatch.setattr(GaussianScorer, "windows_seen", property(lambda self: 0))
            message.append(r"ingestion accounting broken at step 1: scorer saw 0, expected [1-9]\d*")
        else:
            rearrange = runner.rearrange

            def damaged(split, plan):
                cs = rearrange(split, plan)
                message.append("invariant violated: " + break_invariant(cs, invariant))
                return cs

            monkeypatch.setattr(runner, "rearrange", damaged)
        paths = [str(hostile_dir / f"{name}.jsonl") for name in ("train", "test", "origin")]
        inputs = [f"--{key}={path}" for key, path in zip(("train", "test", "origin"), paths)]
        assert main(["run-continual", *inputs, "--k", "2", "--inject-count", "1", "--out", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert re.fullmatch(f"error: {message[0]}\n", err), err
        assert not any(path in err for path in paths)


_TOKENS = (b"1e400", b"NaN", b"Infinity", b"null", b"\x00", b"\xff", b"-1", b"[]", b"{}", b'"')
_NUMBER = re.compile(rb"-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?")


def _mutate(data: bytes, mutations) -> bytes:
    """``data`` after each (kind, place, size, token) mutation in turn; ``place`` is a byte offset modulo the length."""
    data = bytearray(data)
    for kind, place, size, token in mutations:
        at = place % (len(data) + 1)
        start = data.rfind(b"\n", 0, at) + 1  # of the line ``at`` falls in
        if kind == "flip" and data:
            data[min(at, len(data) - 1)] ^= 1 << size % 8
        elif kind == "cut":
            del data[at : at + size]
        elif kind == "truncate":
            del data[at:]
        elif kind == "lines":  # a shorter file of whole lines
            del data[start:]
        elif kind == "insert":
            data[at:at] = token
        elif kind == "number":  # number ``size`` of the line (1 is its frame_index) becomes the token
            numbers = list(_NUMBER.finditer(bytes(data[start:]).split(b"\n", 1)[0]))
            if len(numbers) >= size:
                a, b = numbers[size - 1].span()
                data[start + a : start + b] = token
    return bytes(data)


_MUTATION = st.tuples(
    st.sampled_from(["flip", "cut", "truncate", "lines", "insert", "number"]),
    st.integers(0, 2**20),
    st.integers(1, 8),
    st.sampled_from(_TOKENS),
)
# (mutated input, a subcommand that reads it)
_READS = [(role, cmd) for role in ("train", "test") for cmd in ("stats", "run-standard", "rearrange", "run-continual")]
_READS += [("origin", "stats"), ("origin", "run-continual"), ("results", "report")]


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    read=st.sampled_from(_READS),
    mutations=st.lists(_MUTATION, min_size=1, max_size=4),
    cores=st.integers(1, 3),
    scorer=st.sampled_from(SCORER_KINDS),
)
def test_hostile_input_exits_0_or_2_and_names_the_file(hostile_dir, tmp_path, capsys, monkeypatch, read, mutations,
                                                       cores, scorer):
    # With 2 or 3 cores, a file after the first goes through a forked reader.
    role, subcommand = read
    name = "results.json" if role == "results" else f"{role}.jsonl"
    mutated = tmp_path / f"mutated_{name}"
    mutated.write_bytes(_mutate((hostile_dir / name).read_bytes(), mutations))
    paths = {key: str(hostile_dir / f"{key}.jsonl") for key in ("train", "test", "origin")}
    paths[role] = str(mutated)
    split, out = ["--train", paths["train"], "--test", paths["test"]], ["--out", str(tmp_path / "out")]
    argv = {
        "stats": ["stats", *paths.values()],
        "run-standard": ["run-standard", *split, "--scorer", scorer, *out],
        "rearrange": ["rearrange", *split, "--k", "2", *out],
        "run-continual": ["run-continual", *split, "--origin", paths["origin"], "--k", "2", "--scorer", scorer, *out],
        "report": ["report", "--results", str(mutated), *out],
    }[subcommand]
    _cores(monkeypatch, cores)
    code = main(argv)
    err = capsys.readouterr().err
    assert code in (0, 2) and "Traceback" not in err, err
    assert code == 0 or (err.startswith("error: ") and str(mutated) in err), err


def _readme_commands():
    """Every ``posebench …`` command in README.md's ``sh`` blocks, continuation lines joined, as argv lists."""
    text = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```sh\n(.*?)^```", text, flags=re.MULTILINE | re.DOTALL)
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    return [shlex.split(line, comments=True)[1:] for line in lines if line.startswith("posebench ")]


def test_readme_commands_parse():
    commands = _readme_commands()
    assert {argv[0] for argv in commands} >= {"synth", "stats", "run-standard", "run-continual", "report"}
    parser = cli.build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README command does not parse: posebench {shlex.join(argv)}")


def test_readme_config_block_is_the_schema():
    # README "Configuration" lists every key with its default, so a renamed key or a changed default fails here.
    text = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = json.loads(re.search(r"^## Configuration\n.*?^```json\n(.*?)^```", text, re.MULTILINE | re.DOTALL)[1])
    roles = cli._RUNS["continual"][0]
    assert set(block) == {f.name for f in dataclasses.fields(RunConfig)} | set(roles)
    plan = {f.name: f.default for f in dataclasses.fields(RearrangePlan) if f.name != "seed"}
    assert block.pop("plan") == plan
    assert all(isinstance(block.pop(role), str) for role in roles)
    assert block == RunConfig(mode=block["mode"]).to_dict()  # mode has no default; the block's must be valid
