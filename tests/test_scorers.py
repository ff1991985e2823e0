import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posebench.errors import ValidationError
from posebench.preprocess import PoseWindow
from posebench.scorers import (
    GaussianScorer,
    KnnScorer,
    flat_features,
    kinematic_features,
    load_checkpoint,
    make_scorer,
    scorer_from_snapshot,
)


def make_window(rng, length=24, start=0):
    features = rng.normal(0.0, 0.1, size=(length, 17, 2))
    return PoseWindow(
        track_id=0,
        camera_id="cam0",
        start_frame=start,
        length=length,
        features=features,
        covered_frames=tuple(range(start, start + length)),
    )


def windows(rng, n, length=24):
    return [make_window(rng, length=length, start=6 * i) for i in range(n)]


class TestFeatures:
    def test_dimension(self, rng):
        w = make_window(rng)
        assert kinematic_features(w).shape == (51,)
        assert flat_features(w).shape == (24 * 34,)

    def test_static_window_has_zero_displacement(self):
        features = np.tile(np.linspace(0, 1, 34).reshape(17, 2), (24, 1, 1))
        w = PoseWindow(
            track_id=0,
            camera_id="cam0",
            start_frame=0,
            length=24,
            features=features,
            covered_frames=tuple(range(24)),
        )
        vec = kinematic_features(w)
        np.testing.assert_allclose(vec[:17], 0.0, atol=1e-12)
        np.testing.assert_allclose(vec[17:], features[0].reshape(-1))

    def test_known_displacement(self):
        # Every joint moves 3 px in x each frame: mean step magnitude is 3.
        base = np.zeros((17, 2))
        features = np.stack([base + [3.0 * t, 0.0] for t in range(24)])
        w = PoseWindow(
            track_id=0,
            camera_id="cam0",
            start_frame=0,
            length=24,
            features=features,
            covered_frames=tuple(range(24)),
        )
        np.testing.assert_allclose(kinematic_features(w)[:17], 3.0, atol=1e-12)


class TestGaussianScorer:
    def test_fit_then_score(self, rng):
        sc = GaussianScorer()
        sc.fit(windows(rng, 30))
        scores = sc.score_batch(windows(rng, 5))
        assert scores.shape == (5,)
        assert np.isfinite(scores).all()

    def test_outlier_scores_higher(self, rng):
        sc = GaussianScorer()
        sc.fit(windows(rng, 60))
        normal = make_window(rng)
        shifted = PoseWindow(
            track_id=0,
            camera_id="cam0",
            start_frame=0,
            length=24,
            features=normal.features + 5.0,
            covered_frames=normal.covered_frames,
        )
        s_norm, s_out = sc.score_batch([normal, shifted])
        assert s_out > s_norm

    def test_partial_fit_matches_fit(self, rng):
        # Random split points must leave the accumulated moments identical.
        for trial in range(100):
            trial_rng = np.random.default_rng(1000 + trial)
            ws = windows(trial_rng, int(trial_rng.integers(4, 40)))
            whole = GaussianScorer()
            whole.fit(ws)
            split = GaussianScorer()
            split.reset()
            i = 0
            while i < len(ws):
                j = i + int(trial_rng.integers(1, 6))
                split.partial_fit(ws[i:j])
                i = j
            np.testing.assert_allclose(split.mean, whole.mean, atol=1e-9)
            np.testing.assert_allclose(split.variance, whole.variance, rtol=1e-6, atol=1e-12)

    def test_scores_identical_after_split_fit(self, rng):
        ws = windows(rng, 25)
        probe = windows(rng, 6)
        whole = GaussianScorer()
        whole.fit(ws)
        split = GaussianScorer()
        split.reset()
        split.partial_fit(ws[:7])
        split.partial_fit(ws[7:])
        np.testing.assert_allclose(split.score_batch(probe), whole.score_batch(probe), atol=1e-9)

    def test_too_few_windows_error(self, rng):
        sc = GaussianScorer()
        sc.fit(windows(rng, 1))
        with pytest.raises(ValidationError):
            sc.score_batch(windows(rng, 2))

    def test_variance_floor(self, rng):
        # Identical windows have zero variance; the floor keeps scores finite.
        w = make_window(rng)
        sc = GaussianScorer()
        sc.fit([w, w, w])
        assert np.isfinite(sc.score(w))

    def test_snapshot_restore(self, rng):
        sc = GaussianScorer()
        sc.fit(windows(rng, 20))
        state = sc.snapshot()
        clone = scorer_from_snapshot(state)
        probe = windows(rng, 4)
        np.testing.assert_array_equal(clone.score_batch(probe), sc.score_batch(probe))


class TestKnnScorer:
    def test_scores_outliers_higher(self, rng):
        sc = KnnScorer(k_nn=3, seed=5)
        sc.fit(windows(rng, 50))
        normal = make_window(rng)
        weird = PoseWindow(
            track_id=0,
            camera_id="cam0",
            start_frame=0,
            length=24,
            features=normal.features + 4.0,
            covered_frames=normal.covered_frames,
        )
        s_a, s_b = sc.score_batch([normal, weird])
        assert s_b > s_a

    def test_needs_k_samples(self, rng):
        sc = KnnScorer(k_nn=4, seed=0)
        sc.fit(windows(rng, 3))
        with pytest.raises(ValidationError):
            sc.score(make_window(rng))

    def test_reservoir_caps_storage(self, rng):
        sc = KnnScorer(k_nn=1, capacity=16, seed=0)
        sc.fit(windows(rng, 100))
        assert sc.stored_count == 16
        assert sc.windows_seen == 100

    def test_reservoir_keeps_uniform_share(self):
        # Feed two phases; with a fair reservoir roughly half the kept
        # samples come from each phase.
        rng = np.random.default_rng(3)
        sc = KnnScorer(k_nn=1, capacity=200, seed=9)
        phase_a = windows(rng, 300, length=4)
        phase_b = windows(rng, 300, length=4)
        for w in phase_b:
            w.features[0, 0, 0] = 1e6  # marker value
        sc.partial_fit(phase_a)
        sc.partial_fit(phase_b)
        stored = sc._store[: sc.stored_count]
        share_b = float(np.mean(stored[:, 0] > 1e5))
        assert 0.3 < share_b < 0.7

    def test_deterministic_given_seed(self, rng):
        ws = windows(rng, 80)
        probe = windows(rng, 5)
        a = KnnScorer(k_nn=2, capacity=32, seed=7)
        b = KnnScorer(k_nn=2, capacity=32, seed=7)
        a.fit(ws)
        b.fit(ws)
        np.testing.assert_array_equal(a.score_batch(probe), b.score_batch(probe))

    def test_snapshot_restores_rng_state(self, rng):
        ws = windows(rng, 60)
        sc = KnnScorer(k_nn=2, capacity=24, seed=1)
        sc.partial_fit(ws[:30])
        state = sc.snapshot()
        clone = scorer_from_snapshot(state)
        sc.partial_fit(ws[30:])
        clone.partial_fit(ws[30:])
        probe = windows(rng, 4)
        np.testing.assert_array_equal(clone.score_batch(probe), sc.score_batch(probe))

    def test_store_grows_with_the_windows_held(self, rng):
        sc = KnnScorer(k_nn=1, capacity=50_000, seed=0)
        sc.partial_fit(windows(rng, 3, length=4))
        assert sc._store.shape == (64, 4 * 34)
        sc.partial_fit(windows(rng, 100, length=4))
        assert sc._store.shape == (128, 4 * 34)
        capped = KnnScorer(k_nn=1, capacity=100, seed=0)
        capped.fit(windows(rng, 300, length=4))
        assert capped._store.shape == (100, 4 * 34)
        restored = scorer_from_snapshot(sc.snapshot())
        assert restored._store.shape == (103, 4 * 34)


def _snapshot_arrays(sc):
    state = sc.snapshot()
    if state["kind"] == "knn":
        return state["store"], state["rng_state"], state["seen"]
    return state["mean"], state["m2"], state["count"]


class TestSplitInvariance:
    @settings(deadline=None, max_examples=40)
    @given(
        kind=st.sampled_from(["gaussian", "knn"]),
        n=st.integers(2, 150),
        cuts=st.lists(st.integers(0, 150), max_size=5),
        capacity=st.sampled_from([9, 100]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_fit_equals_any_split_of_partial_fits(self, kind, n, cuts, capacity, seed):
        # Capacity 100 takes the knn store through a doubling (64 -> 100) and replacements.
        rng = np.random.default_rng(seed)
        ws = windows(rng, n, length=4)
        probe = windows(rng, 3, length=4)
        params = {"k_nn": 2, "capacity": capacity} if kind == "knn" else {}
        whole = make_scorer(kind, seed=seed, params=params)
        whole.fit(ws)
        split = make_scorer(kind, seed=seed, params=params)
        bounds = [0, *sorted(c for c in cuts if c <= n), n]
        for lo, hi in zip(bounds, bounds[1:]):
            split.partial_fit(ws[lo:hi])
        for a, b in zip(_snapshot_arrays(whole), _snapshot_arrays(split)):
            if isinstance(a, np.ndarray):
                assert a.tobytes() == b.tobytes()
            else:
                assert a == b
        np.testing.assert_array_equal(whole.score_batch(probe), split.score_batch(probe))


class TestCheckpoints:
    def test_gaussian_roundtrip(self, rng, tmp_path):
        sc = GaussianScorer()
        sc.fit(windows(rng, 20))
        path = tmp_path / "gauss.ckpt"
        sc.save_checkpoint(path)
        back = load_checkpoint(path)
        probe = windows(rng, 4)
        np.testing.assert_array_equal(back.score_batch(probe), sc.score_batch(probe))

    def test_knn_roundtrip_continues_identically(self, rng, tmp_path):
        ws = windows(rng, 50)
        sc = KnnScorer(k_nn=2, capacity=24, seed=3)
        sc.partial_fit(ws[:25])
        path = tmp_path / "knn.ckpt"
        sc.save_checkpoint(path)
        back = load_checkpoint(path)
        sc.partial_fit(ws[25:])
        back.partial_fit(ws[25:])
        probe = windows(rng, 3)
        np.testing.assert_array_equal(back.score_batch(probe), sc.score_batch(probe))

    def test_rejects_garbage(self, rng, tmp_path):
        sc = GaussianScorer()
        sc.fit(windows(rng, 20))
        real = tmp_path / "real.ckpt"
        sc.save_checkpoint(real)
        truncated = real.read_bytes()[:300]
        path = tmp_path / "junk.ckpt"
        for junk in (b"not a checkpoint", b"", truncated):
            path.write_bytes(junk)
            with pytest.raises(ValidationError):
                load_checkpoint(path)
        # Well-formed containers whose meta lacks a field or mistypes one.
        base = {"format": "posebench-checkpoint", "version": 1}
        for meta, field in (
            ({**base, "kind": "gaussian", "count": 0}, "params"),
            ({**base, "kind": "knn", "params": {}, "seen": 0}, "rng_state"),
            ({**base, "kind": "gaussian", "params": [1], "count": 0}, "params"),
        ):
            with open(path, "wb") as fh:
                np.savez(fh, meta=np.array(json.dumps(meta)))
            with pytest.raises(ValidationError, match=f"{re.escape(str(path))}.*'{field}'"):
                load_checkpoint(path)
        # A knn store that is not 2-D or holds more rows than the capacity.
        meta = {**base, "kind": "knn", "params": {"k_nn": 1, "capacity": 3, "seed": 0}, "seen": 4,
                "rng_state": np.random.default_rng(0).bit_generator.state}
        for store in (np.zeros(4), np.zeros((4, 2))):
            with open(path, "wb") as fh:
                np.savez(fh, meta=np.array(json.dumps(meta)), store=store)
            with pytest.raises(ValidationError, match=f"{re.escape(str(path))}.*knn store must be 2-D"):
                load_checkpoint(path)
        # State that loads into a scorer that cannot score, or scores garbage.
        gaussian = {**base, "kind": "gaussian", "params": {"variance_floor": 1e-8}, "count": 5}
        knn = {**meta, "params": {"k_nn": 1, "capacity": 8, "seed": 0}}
        for meta_fields, arrays, message in (
            (gaussian, {"mean": np.zeros(51), "m2": np.zeros(3)}, "m2 \\(3,\\) must have mean's shape"),
            ({**gaussian, "count": -1}, {"mean": np.zeros(51), "m2": np.zeros(51)}, "count must be >= 0"),
            (gaussian, {"mean": np.full(51, np.nan), "m2": np.zeros(51)}, "mean and m2 must be finite"),
            (gaussian, {"mean": np.zeros(51), "m2": np.full(51, np.inf)}, "mean and m2 must be finite"),
            (gaussian, {}, "mean and m2 exactly when"),
            (knn, {"store": np.array([[0.0, np.inf]])}, "knn store must be finite"),
            ({**knn, "seen": -1}, {}, "knn seen -1 must count at least the 0 stored"),
            ({**knn, "seen": 1}, {"store": np.zeros((2, 2))}, "seen 1 must count at least the 2 stored rows"),
        ):
            with open(path, "wb") as fh:
                np.savez(fh, meta=np.array(json.dumps(meta_fields)), **arrays)
            with pytest.raises(ValidationError, match=f"{re.escape(str(path))}.*{message}"):
                load_checkpoint(path)


class TestFactory:
    def test_make_scorer_kinds(self):
        assert isinstance(make_scorer("gaussian"), GaussianScorer)
        assert isinstance(make_scorer("knn"), KnnScorer)
        with pytest.raises(ValidationError):
            make_scorer("mystery")

    def test_params_forwarded(self):
        sc = make_scorer("knn", seed=4, params={"k_nn": 7, "capacity": 99})
        assert sc.k_nn == 7
        assert sc.capacity == 99
