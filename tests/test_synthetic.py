import hashlib
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _oracles
from posebench.cli import main
from posebench.errors import ValidationError
from posebench.synthetic import (
    ANOMALY_KINDS,
    ANOMALY_TRACK_BASE,
    POSE_VARIANTS,
    _template,
    generate_normals,
    generate_split,
)

SIGMAS = st.sampled_from([0.0, 0.5, 1.5, 3.0, 8.0, 16.0, 200.0])


def anomaly_tracks(split):
    """The (n, 17, 2) keypoints of each of the test set's anomaly tracks, in frame order."""
    frames = split.test  # its person rows are in frame order
    ids = np.unique(frames.track_id[frames.track_id >= ANOMALY_TRACK_BASE])
    return [frames.keypoints[frames.track_id == track_id, :, :2] for track_id in ids]


class TestGenerateNormals:
    def test_counts_and_labels(self):
        ds = generate_normals(50, seed=0)
        assert len(ds) == 50
        assert not ds.anomalous.any()
        assert np.bincount(ds.frame_row, minlength=50).tolist() == [2] * 50

    def test_deterministic(self):
        a = generate_normals(40, seed=3)
        b = generate_normals(40, seed=3)
        assert a == b

    def test_seed_changes_output(self):
        a = generate_normals(40, seed=3)
        b = generate_normals(40, seed=4)
        assert a != b

    def test_keypoints_inside_canvas(self):
        ds = generate_normals(200, seed=1, step_sigma=25.0)
        x, y = ds.keypoints[:, :, 0], ds.keypoints[:, :, 1]
        assert ((0.0 <= x) & (x <= 1280.0)).all()
        assert ((0.0 <= y) & (y <= 720.0)).all()

    def test_wide_variant_changes_geometry(self):
        a = generate_normals(30, seed=5)
        b = generate_normals(30, seed=5, pose_variant="wide")
        assert a != b

    def test_start_index_offsets_frames(self):
        ds = generate_normals(10, seed=0, start_index=100)
        assert ds.frame_index.tolist() == list(range(100, 110))

    def test_frame_indices_must_fit_int64(self):
        assert generate_normals(5, seed=0, start_index=2**63 - 5).frame_index[-1] == 2**63 - 1
        for start, bad in ((-1, -1), (2**63 - 3, 2**63), (2**63 + 7, 2**63 + 7)):
            message = f"frame_index must be a non-negative 64-bit integer, got {bad}$"
            with pytest.raises(ValidationError, match=message):
                generate_normals(5, seed=0, start_index=start)


class TestGenerateSplit:
    def test_shape(self):
        split = generate_split(300, 200, 60, seed=0)
        assert len(split.train) == 300
        assert len(split.test) == 260
        assert split.test.anomalous.sum() == 60
        assert not split.train.anomalous.any()

    def test_anomalous_frames_have_regions_and_extra_track(self):
        frames = generate_split(300, 200, 60, seed=0).test
        has_region = np.zeros(len(frames), dtype=bool)
        has_region[frames.region_frame] = True
        has_anomaly_track = np.zeros(len(frames), dtype=bool)
        has_anomaly_track[frames.frame_row[frames.track_id >= ANOMALY_TRACK_BASE]] = True
        assert has_region.tolist() == frames.anomalous.tolist()
        assert has_anomaly_track.tolist() == frames.anomalous.tolist()

    def test_each_kind_generates(self):
        for kind in ANOMALY_KINDS:
            split = generate_split(200, 120, 40, seed=2, anomaly_kinds=(kind,))
            assert split.test.anomalous.sum() == 40

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValidationError):
            generate_split(100, 60, 20, seed=0, anomaly_kinds=("teleport",))

    def test_bad_counts_rejected(self):
        with pytest.raises(ValidationError):
            generate_split(0, 60, 20, seed=0)
        with pytest.raises(ValidationError):
            generate_split(100, 60, 0, seed=0)

    def test_deterministic(self):
        a = generate_split(150, 90, 30, seed=9)
        b = generate_split(150, 90, 30, seed=9)
        assert a.train == b.train
        assert a.test == b.test

    def test_velocity_anomaly_moves_fast(self):
        split = generate_split(200, 150, 50, seed=0, anomaly_kinds=("velocity",))
        steps = []
        for seq in anomaly_tracks(split):
            steps += np.linalg.norm(seq[1:] - seq[:-1], axis=2).mean(axis=1).tolist()
        # Normal walkers step ~3 px; the anomalous track must be well clear.
        assert np.median(steps) > 10.0

    def test_frozen_anomaly_is_static(self):
        split = generate_split(200, 150, 50, seed=0, anomaly_kinds=("frozen",))
        for keypoints in anomaly_tracks(split):
            for a, b in zip(keypoints, keypoints[1:]):
                np.testing.assert_allclose(a, b, atol=1e-9)

    def test_train_and_test_frame_ranges_disjoint(self):
        split = generate_split(120, 80, 20, seed=0)
        train_idx = set(split.train.frame_index.tolist())
        test_idx = set(split.test.frame_index.tolist())
        assert not (train_idx & test_idx)


class TestMatchesPerStepOracle:
    """The generator draws, in order, what the per-step reference in ``_oracles`` draws: same bytes."""

    @settings(deadline=None, max_examples=60)
    @given(
        seed=st.integers(0, 2**32 - 1),
        persons=st.integers(1, 4),
        kinds=st.lists(st.sampled_from(ANOMALY_KINDS), min_size=1, max_size=4),
        train=st.integers(1, 30),
        anomaly=st.integers(1, 40),
        extra_normal=st.integers(0, 30),
        segment_length=st.integers(1, 20),
        boost=st.sampled_from([0.25, 1.0, 2.5, 6.0]),
        variant=st.sampled_from(POSE_VARIANTS),
        step_sigma=SIGMAS,
        jitter_sigma=SIGMAS,
    )
    def test_split(
        self, seed, persons, kinds, train, anomaly, extra_normal, segment_length, boost, variant, step_sigma,
        jitter_sigma,
    ):
        normal = anomaly + extra_normal  # at least one normal frame per segment, so the segments fit
        split = generate_split(
            train, normal, anomaly, seed=seed, persons=persons, anomaly_kinds=kinds, segment_length=segment_length,
            step_sigma=step_sigma, jitter_sigma=jitter_sigma, anomaly_boost=boost, pose_variant=variant,
        )
        want_train, want_test, anomalous = _oracles.synth_split(
            train, normal, anomaly, seed, persons, kinds, segment_length, _template(variant), step_sigma,
            jitter_sigma, boost,
        )
        assert split.train.keypoints.tobytes() == want_train.tobytes()
        assert split.test.keypoints.tobytes() == want_test.tobytes()
        assert split.test.anomalous.tolist() == anomalous.tolist()

    @settings(deadline=None, max_examples=40)
    @given(
        seed=st.integers(0, 2**32 - 1),
        persons=st.integers(1, 4),
        n_frames=st.integers(1, 60),
        variant=st.sampled_from(POSE_VARIANTS),
        step_sigma=SIGMAS,
        jitter_sigma=SIGMAS,
    )
    def test_normals(self, seed, persons, n_frames, variant, step_sigma, jitter_sigma):
        ds = generate_normals(
            n_frames, seed=seed, persons=persons, step_sigma=step_sigma, jitter_sigma=jitter_sigma,
            pose_variant=variant,
        )
        want = _oracles.synth_normals(n_frames, seed, persons, _template(variant), step_sigma, jitter_sigma)
        assert ds.keypoints.tobytes() == want.tobytes()


def test_synth_files_are_pinned(tmp_path, capsys):
    # A small continual config with every anomaly kind; the hashes are those of the per-step generator.
    argv = [
        "synth", "--train-normal", "240", "--test-normal", "120", "--test-anomaly", "40", "--boost", "2.5",
        "--kinds", "velocity,frozen,limb_collapse", "--segment-length", "20", "--origin-normal", "120",
        "--origin-step-sigma", "16", "--origin-jitter-sigma", "8", "--seed", "0", "--out", str(tmp_path),
    ]
    assert main(argv) == 0
    capsys.readouterr()
    digests = {name: hashlib.sha256((tmp_path / f"{name}.jsonl").read_bytes()).hexdigest() for name in
               ("train", "test", "origin")}
    assert digests == {
        "train": "15aa81246410525deaa92ffa400a5b72329c2579df11f47afa453cb762b4f4ce",
        "test": "ca61d15034951df9a94261c2fa082d2146d207b1e223c129a13ed62259974cdc",
        "origin": "f1c2b5e2b531742e67b0e6219345207bd73a12bb4fa741b9ebd9662efe961fe6",
    }


class TestParameterRules:
    @pytest.mark.parametrize("name", ["step_sigma", "jitter_sigma"])
    @pytest.mark.parametrize("value", [-1.0, -math.inf, math.inf, math.nan])
    def test_sigma_must_be_finite_and_non_negative(self, name, value):
        message = f"{name} must be a finite number >= 0, got {value}$"
        with pytest.raises(ValidationError, match=message):
            generate_normals(5, seed=0, **{name: value})
        with pytest.raises(ValidationError, match=message):
            generate_split(20, 20, 5, seed=0, **{name: value})

    @pytest.mark.parametrize("seed", [-1, 1.0, True, "0", None])
    def test_seed_must_be_a_non_negative_integer(self, seed):
        message = f"seed must be an integer >= 0, got {re.escape(repr(seed))}$"
        with pytest.raises(ValidationError, match=message):
            generate_normals(5, seed=seed)
        with pytest.raises(ValidationError, match=message):
            generate_split(20, 20, 5, seed=seed)

    @pytest.mark.parametrize("value", [0.0, -1.0, math.inf, math.nan])
    def test_boost_must_be_positive_and_finite(self, value):
        with pytest.raises(ValidationError, match=f"anomaly_boost must be a positive finite number, got {value}$"):
            generate_split(20, 20, 5, seed=0, anomaly_boost=value)

    @pytest.mark.parametrize("name", ["step_sigma", "jitter_sigma"])
    def test_sigma_must_stay_within_ten_canvases(self, name):
        # A larger sigma lets the velocity recurrence overflow to inf and then NaN.
        message = f"{name} must be at most 12800 canvas units, got 1e\\+308$"
        with pytest.raises(ValidationError, match=message):
            generate_normals(5, seed=0, **{name: 1e308})
        with pytest.raises(ValidationError, match=message):
            generate_split(20, 20, 5, seed=0, **{name: 1e308})
        generate_normals(5, seed=0, **{name: 12800.0})

    def test_boost_spike_must_stay_within_ten_canvases(self):
        with pytest.raises(ValidationError, match=r"anomaly_boost \* \(step_sigma \+ jitter_sigma\) must be at most"):
            generate_split(20, 20, 5, seed=0, anomaly_boost=1e308)
        with pytest.raises(ValidationError, match=r"got 3000\.0 \* \(3\.0 \+ 1\.5\)$"):
            generate_split(20, 20, 5, seed=0, anomaly_boost=3000.0)
        generate_split(20, 20, 5, seed=0, anomaly_boost=12800 / 4.5)

    def test_zero_sigmas_are_allowed(self):
        ds = generate_normals(5, seed=0, step_sigma=0.0, jitter_sigma=0.0)
        assert (ds.keypoints[::2, :, :2] == ds.keypoints[0, :, :2]).all()
