import dataclasses
import json
import tempfile
import zipfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import _oracles
from conftest import dense_knn_mean, make_frame, person, table, window_batch, working_set_mb
from posebench import _kernels, scorers
from posebench.errors import ValidationError
from posebench.preprocess import WindowBatch, extract_windows
from posebench.rearrange import RearrangePlan, rearrange
from posebench.runner import derive_seed
from posebench.scorers import (
    SCORER_KINDS,
    GaussianScorer,
    KnnScorer,
    kinematic_features,
    make_scorer,
)
from posebench.synthetic import generate_normals, generate_split


def feats(rng, n, length=24):
    """n random windows of normalized poses, shape (n, length, 17, 2)."""
    return rng.normal(0.0, 0.1, size=(n, length, 17, 2))


def windows(rng, n, length=24):
    return window_batch(feats(rng, n, length))


class TestFeatures:
    def test_dimension(self, rng):
        assert kinematic_features(windows(rng, 3)).shape == (3, 51)

    def test_static_window_has_zero_displacement(self):
        features = np.tile(np.linspace(0, 1, 34).reshape(17, 2), (24, 1, 1))
        vec = kinematic_features(window_batch([features]))[0]
        np.testing.assert_allclose(vec[:17], 0.0, atol=1e-12)
        np.testing.assert_allclose(vec[17:], features[0].reshape(-1))

    def test_known_displacement(self):
        # Every joint moves 3 px in x each frame: mean step magnitude is 3.
        base = np.zeros((17, 2))
        features = np.stack([base + [3.0 * t, 0.0] for t in range(24)])
        np.testing.assert_allclose(kinematic_features(window_batch([features]))[0, :17], 3.0, atol=1e-12)

    def test_length_one_is_rejected(self, rng):
        with pytest.raises(ValidationError, match="length >= 2"):
            kinematic_features(windows(rng, 2, length=1))


def oracle_features(batch):
    """The per-window reference formula applied to each window's row slice."""
    per_window = [_oracles.kinematic_features(batch.poses[r : r + batch.length]) for r in batch.rows.tolist()]
    return np.array(per_window, dtype=np.float64).reshape(len(batch), 51)


@st.composite
def windowed_tracks(draw):
    """Up to three random-walk tracks cut into runs by gaps, some longer than max_gap, windowed."""
    length, stride = draw(st.integers(2, 30)), draw(st.integers(1, 8))
    max_gap, smoothing = draw(st.integers(1, 8)), draw(st.sampled_from([1, 3, 7]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    persons = {}
    for track_id in range(draw(st.integers(1, 3))):
        frame = draw(st.integers(0, 20))
        # (run length, missing frames after the run): short runs and open and filled gaps.
        runs = draw(st.lists(st.tuples(st.integers(1, 40), st.integers(1, 12)), min_size=1, max_size=4))
        for run, gap in runs:
            for fi in range(frame, frame + run):
                xy = rng.uniform(10.0, 190.0, size=(17, 2))
                kps = np.column_stack([xy, np.full(17, 0.9)])
                box = [*(xy.min(axis=0) - 3.0).tolist(), *(xy.max(axis=0) + 3.0).tolist()]
                persons.setdefault(fi, []).append(person(kps, track_id=track_id, bbox=box))
            frame += run + gap
    frames = table([make_frame(fi, persons=persons[fi]) for fi in sorted(persons)])
    return extract_windows(frames, length=length, stride=stride, max_gap=max_gap, smoothing_window=smoothing)


class TestBatchedFeatures:
    @settings(deadline=None, max_examples=60)
    @given(batch=windowed_tracks())
    def test_batched_equals_per_window_formula(self, batch):
        assert kinematic_features(batch).tobytes() == oracle_features(batch).tobytes()

    def test_readme_continual_test_windows(self):
        # The test set of the README continual quick-start, as run-continual builds it.
        split = generate_split(2400, 1200, 400, seed=0, anomaly_boost=2.5)
        cs = rearrange(split, RearrangePlan(seed=derive_seed(0, "rearrange"), k=9))
        batch = extract_windows(split.test.take(cs.test_rows))
        assert len(batch) == 544
        assert kinematic_features(batch).tobytes() == oracle_features(batch).tobytes()


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
        normal = feats(rng, 1)[0]
        s_norm, s_out = sc.score_batch(window_batch([normal, normal + 5.0]))
        assert s_out > s_norm

    def test_partial_fit_matches_fit(self, rng):
        # Random split points must leave the accumulated moments identical.
        for trial in range(100):
            trial_rng = np.random.default_rng(1000 + trial)
            ws = feats(trial_rng, int(trial_rng.integers(4, 40)))
            whole = GaussianScorer()
            whole.fit(window_batch(ws))
            split = GaussianScorer()
            split.reset()
            i = 0
            while i < len(ws):
                j = i + int(trial_rng.integers(1, 6))
                split.partial_fit(window_batch(ws[i:j]))
                i = j
            assert split.windows_seen == whole.windows_seen == len(ws)
            np.testing.assert_allclose(split._mean, whole._mean, atol=1e-9)
            split_var, whole_var = (np.maximum(s._m2 / (len(ws) - 1), s.variance_floor) for s in (split, whole))
            np.testing.assert_allclose(split_var, whole_var, rtol=1e-6, atol=1e-12)

    def test_scores_identical_after_split_fit(self, rng):
        ws = feats(rng, 25)
        probe = windows(rng, 6)
        whole = GaussianScorer()
        whole.fit(window_batch(ws))
        split = GaussianScorer()
        split.reset()
        split.partial_fit(window_batch(ws[:7]))
        split.partial_fit(window_batch(ws[7:]))
        np.testing.assert_allclose(split.score_batch(probe), whole.score_batch(probe), atol=1e-9)

    def test_too_few_windows_error(self, rng):
        sc = GaussianScorer()
        sc.fit(windows(rng, 1))
        with pytest.raises(ValidationError):
            sc.score_batch(windows(rng, 2))

    def test_variance_floor(self, rng):
        # Identical windows have zero variance; the floor keeps scores finite.
        w = feats(rng, 1)[0]
        sc = GaussianScorer()
        sc.fit(window_batch([w, w, w]))
        assert np.isfinite(sc.score_batch(window_batch([w]))).all()


class TestKnnScorer:
    def test_scores_outliers_higher(self, rng):
        sc = KnnScorer(k_nn=3, seed=5)
        sc.fit(windows(rng, 50))
        normal = feats(rng, 1)[0]
        s_a, s_b = sc.score_batch(window_batch([normal, normal + 4.0]))
        assert s_b > s_a

    def test_needs_k_samples(self, rng):
        sc = KnnScorer(k_nn=4, seed=0)
        sc.fit(windows(rng, 3))
        with pytest.raises(ValidationError):
            sc.score_batch(windows(rng, 1))

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
        phase_a = feats(rng, 300, length=4)
        phase_b = feats(rng, 300, length=4)
        phase_b[:, 0, 0, 0] = 1e6  # marker value
        sc.partial_fit(window_batch(phase_a))
        sc.partial_fit(window_batch(phase_b))
        stored = _stored(sc)
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

    def test_overlapping_windows_read_their_row_slices(self, rng):
        # Windows of one track share rows; each stored and query vector is its own row slice.
        batch = window_batch(feats(rng, 1, length=12))
        batch = dataclasses.replace(batch, rows=np.array([0, 2, 4, 8]), length=4)
        want = np.stack([batch.poses[r : r + 4].reshape(-1) for r in (0, 2, 4, 8)])
        sc = KnnScorer(k_nn=2, seed=0)
        sc.fit(batch)
        assert _stored(sc).tobytes() == want.tobytes()
        assert sc._poses.tobytes() == batch.poses.tobytes()  # rows 0..11, each once
        assert sc.score_batch(batch).tobytes() == dense_knn_mean(want, want, 2).tobytes()


def _stored(sc):
    """The windows a knn scorer holds, one flattened window per row."""
    return sc._poses[sc._index].reshape(sc.stored_count, -1)


def _state(sc):
    """A scorer's live state: what its checkpoint writes."""
    if sc.kind == "knn":
        return None if sc._index is None else _stored(sc), sc._rng.bit_generator.state, sc.windows_seen
    return sc._mean, sc._m2, sc.windows_seen


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
        # Capacity 9, and 100 for n above it, take the knn store through replacements.
        rng = np.random.default_rng(seed)
        ws = feats(rng, n, length=4)
        probe = windows(rng, 3, length=4)
        params = {"k_nn": 2, "capacity": capacity} if kind == "knn" else {}
        whole = make_scorer(kind, seed=seed, params=params)
        whole.fit(window_batch(ws))
        split = make_scorer(kind, seed=seed, params=params)
        bounds = [0, *sorted(c for c in cuts if c <= n), n]
        for lo, hi in zip(bounds, bounds[1:]):
            split.partial_fit(window_batch(ws[lo:hi]))
        for a, b in zip(_state(whole), _state(split)):
            if isinstance(a, np.ndarray):
                assert a.tobytes() == b.tobytes()
            else:
                assert a == b
        np.testing.assert_array_equal(whole.score_batch(probe), split.score_batch(probe))


def _queries(batch):
    """A batch's windows, one flattened window per row."""
    return np.stack([batch.poses[r : r + batch.length].reshape(-1) for r in batch.rows])


def _scan_spy(monkeypatch):
    """A list that records (stored windows, whether a prior was merged) for each knn kernel call."""
    scanned = []
    k_smallest = _kernels.knn_k_smallest

    def spy(rows, index, queries, k, prior=None):
        scanned.append((len(index), prior is not None))
        return k_smallest(rows, index, queries, k, prior)

    monkeypatch.setattr(_kernels, "knn_k_smallest", spy)
    return scanned


class TestRepeatedScoring:
    @settings(deadline=None, max_examples=60)
    @given(
        k=st.integers(1, 7),
        extra=st.integers(0, 12),
        pieces=st.lists(st.integers(0, 12), min_size=1, max_size=8),
        offset=st.sampled_from([0.0, 1e6]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_incremental_equals_fresh_scan(self, k, extra, pieces, offset, seed):
        # Pieces of 0 and of fewer than k windows; a capacity of k + extra replaces stored rows
        # once the pieces outgrow it, and offset 1e6 makes every new pair a candidate.
        rng = np.random.default_rng(seed)
        sc = KnnScorer(k_nn=k, capacity=k + extra, seed=seed)
        probe = window_batch(offset + feats(rng, 6, length=3))
        queries = _queries(probe)
        for size in pieces:
            sc.partial_fit(window_batch(offset + feats(rng, size, length=3)))
            if sc.stored_count < k:
                continue
            got = sc.score_batch(probe)
            assert got.tobytes() == dense_knn_mean(_stored(sc), queries, k).tobytes()

    def test_steps_scan_only_new_rows(self, rng, monkeypatch):
        scanned = _scan_spy(monkeypatch)
        sc = KnnScorer(k_nn=3, capacity=100, seed=0)
        sc.fit(windows(rng, 10, length=3))
        probe = windows(rng, 4, length=3)
        sc.score_batch(probe)
        for n in (5, 0, 2):
            sc.partial_fit(windows(rng, n, length=3))
            sc.score_batch(probe)
        assert scanned == [(10, False), (5, True), (0, True), (2, True)]

    def test_blocked_gather_equals_one_scan(self, rng, monkeypatch):
        # Windows are gathered for the kernel a block at a time; blocks of 3 windows merge to the same bits.
        # The blocked scan scores an equal batch built apart, since the same object would reuse the first scan.
        sc = KnnScorer(k_nn=4, capacity=40, seed=0)
        sc.fit(windows(rng, 50, length=3))
        values = feats(rng, 7, length=3)
        want = sc.score_batch(window_batch(values))
        monkeypatch.setattr(scorers, "_GATHER_ELEMENTS", 3 * 3 * 34)
        scanned = _scan_spy(monkeypatch)
        probe = window_batch(values)
        assert sc.score_batch(probe).tobytes() == want.tobytes()
        assert scanned == [(3, False)] + [(3, True)] * 12 + [(1, True)]  # 40 stored windows
        assert want.tobytes() == dense_knn_mean(_stored(sc), _queries(probe), 4).tobytes()

    def test_refit_to_the_same_count_rescans(self, rng, monkeypatch):
        # A cache keyed on the row count alone would keep the first fit's distances.
        sc = KnnScorer(k_nn=2, seed=0)
        probe = windows(rng, 5, length=3)
        sc.fit(windows(rng, 12, length=3))
        first = sc.score_batch(probe)
        sc.fit(windows(rng, 12, length=3))
        scanned = _scan_spy(monkeypatch)
        again = sc.score_batch(probe)
        assert scanned == [(12, False)]
        assert again.tobytes() == dense_knn_mean(_stored(sc), _queries(probe), 2).tobytes()
        assert again.tobytes() != first.tobytes()

    def test_replacement_rescans(self, rng, monkeypatch):
        sc = KnnScorer(k_nn=2, capacity=8, seed=0)
        sc.fit(windows(rng, 8, length=3))
        probe = windows(rng, 5, length=3)
        sc.score_batch(probe)
        sc.partial_fit(windows(rng, 20, length=3))  # the store stays at 8 rows, some replaced
        scanned = _scan_spy(monkeypatch)
        got = sc.score_batch(probe)
        assert sc.stored_count == 8 and scanned == [(8, False)]
        assert got.tobytes() == dense_knn_mean(_stored(sc), _queries(probe), 2).tobytes()

    def test_replacement_past_the_covered_count_scans_incrementally(self, rng, monkeypatch):
        # The scoring covers 3 windows; the next batch fills slots 3..7, then its last window replaces slot 7
        # (seed 0's first draw), which that scoring never saw.
        sc = KnnScorer(k_nn=2, capacity=8, seed=0)
        sc.fit(windows(rng, 3, length=3))
        probe = windows(rng, 5, length=3)
        sc.score_batch(probe)
        batch = windows(rng, 6, length=3)
        sc.partial_fit(batch)
        assert sc.windows_seen == 9 and _stored(sc)[7].tobytes() == _queries(batch)[5].tobytes()
        scanned = _scan_spy(monkeypatch)
        got = sc.score_batch(probe)
        assert scanned == [(5, True)]
        assert got.tobytes() == dense_knn_mean(_stored(sc), _queries(probe), 2).tobytes()

    def test_another_batch_is_scanned_afresh(self, rng, monkeypatch):
        sc = KnnScorer(k_nn=2, seed=0)
        sc.fit(windows(rng, 12, length=3))
        a, b = windows(rng, 5, length=3), windows(rng, 5, length=3)
        want = [dense_knn_mean(_stored(sc), _queries(batch), 2).tobytes() for batch in (b, a)]
        sc.score_batch(a)
        scanned = _scan_spy(monkeypatch)
        assert [sc.score_batch(b).tobytes(), sc.score_batch(a).tobytes()] == want
        assert scanned == [(12, False), (12, False)]


def _overlapping_store(windows_held):
    """A knn scorer holding the first ``windows_held`` windows (length 24, stride 6) of one recording."""
    batch = extract_windows(generate_normals(3 * windows_held + 100, seed=0))
    n = windows_held
    sc = KnnScorer(capacity=n)
    sc.fit(WindowBatch(batch.poses, batch.rows[:n], batch.track_id[:n], batch.start_frame[:n], batch.length))
    assert sc.stored_count == n
    return sc


class TestScoringWorkingSet:
    def test_working_set_at_batch_training_shape(self):
        # continual-knn's batch-training scan: 267 test windows against a 597-window store, length 24 at
        # stride 6. The bound is the kernel docstring's: the queries' float32 matrix and the table of their
        # rows, the float32 table of the stored rows and its gather, the float32 expansion block, one chunk's
        # partition copy and mask, both rescoring gathers, and 0.5 MB for the rest. A float64 query matrix
        # and gather (7.8 MB at this shape) do not fit under it.
        sc = _overlapping_store(597)
        batch = extract_windows(generate_normals(3 * 267 + 100, seed=1))
        probe = WindowBatch(batch.poses, batch.rows[:267], batch.track_id[:267], batch.start_frame[:267], 24)
        m, n, d = len(probe), sc.stored_count, 24 * 34
        chunk = min(_kernels._CHUNK_ELEMENTS, m * n)
        floats = m * d + probe.poses.size + len(sc._poses) * 34 + n * d + m * n + chunk
        bound = (4 * floats + chunk + 2 * 8 * _kernels._RESCORE_ELEMENTS) / 2**20 + 0.5
        peak = working_set_mb(lambda: sc.score_batch(probe))
        assert peak < bound, (peak, bound)


def _chain(directory, seed=0, steps=3):
    """A knn scorer's step files step_1..step_<steps> in ``directory``, each saved on the one before."""
    rng = np.random.default_rng(seed)
    sc, base = KnnScorer(k_nn=1, capacity=100, seed=seed), None
    directory.mkdir(exist_ok=True)
    for i in range(1, steps + 1):
        sc.partial_fit(windows(rng, 5, length=3))
        path = directory / f"step_{i}.ckpt"
        sc.save_checkpoint(path, base=base)
        base = path
    return sc


class TestChainedCheckpoints:
    def test_only_the_last_save_in_the_same_directory_is_a_base(self, tmp_path):
        # A base the scorer did not save last, one in another directory, or the file being written is
        # ignored, and so is a base saved before a reset: each of these saves writes the full store.
        sc = _chain(tmp_path)
        (tmp_path / "other").mkdir()
        for path, base in (
            (tmp_path / "other" / "step_4.ckpt", tmp_path / "step_3.ckpt"),
            (tmp_path / "step_5.ckpt", tmp_path / "step_3.ckpt"),
            (tmp_path / "step_5.ckpt", tmp_path / "step_5.ckpt"),
        ):
            sc.save_checkpoint(path, base=base)
            with np.load(path) as data:
                assert "base" not in json.loads(str(data["meta"])) and len(data["index"]) == 15
        sc.fit(windows(np.random.default_rng(1), 5, length=3))
        sc.save_checkpoint(tmp_path / "step_6.ckpt", base=tmp_path / "step_5.ckpt")
        with np.load(tmp_path / "step_6.ckpt") as data:
            assert "base" not in json.loads(str(data["meta"])) and len(data["index"]) == 5

    def test_gaussian_never_chains(self, rng, tmp_path):
        sc = GaussianScorer()
        sc.fit(windows(rng, 20))
        sc.save_checkpoint(tmp_path / "step_1.ckpt")
        sc.partial_fit(windows(rng, 5))
        sc.save_checkpoint(tmp_path / "step_2.ckpt", base=tmp_path / "step_1.ckpt")
        with np.load(tmp_path / "step_2.ckpt") as data:
            assert sorted(data.files) == ["m2", "mean", "meta"] and "base" not in json.loads(str(data["meta"]))


def _restore(path):
    """A scorer given the state the oracle reads from the checkpoint at ``path``, its bases included."""
    meta, arrays = _oracles.read_checkpoint(path)
    sc = scorers.SCORERS[meta["kind"]](**meta["params"])
    if sc.kind == "knn":
        sc._seen, sc._rng.bit_generator.state = meta["seen"], meta["rng_state"]
        if arrays:
            sc._poses, sc._index = arrays["rows"], arrays["index"].astype(np.int64)
    else:
        sc._count = meta["count"]
        if arrays:
            sc._mean, sc._m2 = arrays["mean"], arrays["m2"]
    return sc


def _fitted(kind, n=20, seed=0):
    """A scorer of ``kind`` fitted to ``n`` random windows of length 4, or unfitted for n=0."""
    sc = make_scorer(kind, seed=seed, params={"k_nn": 2, "capacity": 40} if kind == "knn" else {})
    if n:
        sc.fit(window_batch(feats(np.random.default_rng(seed), n, length=4)))
    return sc


def _same_state(a, b):
    for x, y in zip(_state(a), _state(b), strict=True):
        if isinstance(x, np.ndarray):
            assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes())
        else:
            assert x == y


def _members(path):
    """A checkpoint's zip members by name, in archive order; the zip stamps the archive, not them, with the time."""
    with zipfile.ZipFile(path) as zf:
        return {name: zf.read(name) for name in zf.namelist()}


class TestCheckpointContents:
    # What a save writes, read back by the test-side reader: enough to rebuild the scorer it came from.
    def test_gaussian_checkpoint_scores_as_the_saved_scorer(self, rng, tmp_path):
        sc = GaussianScorer()
        sc.fit(windows(rng, 20))
        sc.save_checkpoint(tmp_path / "gauss.ckpt")
        back = _restore(tmp_path / "gauss.ckpt")
        probe = windows(rng, 4)
        _same_state(back, sc)
        assert back.score_batch(probe).tobytes() == sc.score_batch(probe).tobytes()

    def test_knn_checkpoint_continues_identically(self, rng, tmp_path):
        # Capacity 24 of 50 windows: the rest go through the reservoir, which draws from the saved generator.
        ws = feats(rng, 50)
        sc = KnnScorer(k_nn=2, capacity=24, seed=3)
        sc.partial_fit(window_batch(ws[:25]))
        sc.save_checkpoint(tmp_path / "knn.ckpt")
        back = _restore(tmp_path / "knn.ckpt")
        sc.partial_fit(window_batch(ws[25:]))
        back.partial_fit(window_batch(ws[25:]))
        probe = windows(rng, 3)
        _same_state(back, sc)
        assert back.score_batch(probe).tobytes() == sc.score_batch(probe).tobytes()

    @settings(deadline=None, max_examples=40)
    @given(
        kind=st.sampled_from(["gaussian", "knn"]),
        n=st.integers(2, 120),
        cuts=st.lists(st.integers(0, 120), min_size=1, max_size=4),
        capacity=st.sampled_from([5, 40]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_every_step_of_a_chain_continues_to_the_uninterrupted_scorer(self, kind, n, cuts, capacity, seed):
        # A save after every piece, each on the one before; capacity 5 forces reservoir replacement, 40
        # appends to the store after the cut. Each file, read with its bases and continued over the rest,
        # ends where fitting everything at once does.
        rng = np.random.default_rng(seed)
        ws = feats(rng, n, length=4)
        probe = windows(rng, 3, length=4)
        params = {"k_nn": 2, "capacity": capacity} if kind == "knn" else {}
        whole = make_scorer(kind, seed=seed, params=params)
        whole.fit(window_batch(ws))
        stepped = make_scorer(kind, seed=seed, params=params)
        bounds = [0, *sorted(c for c in cuts if c <= n), n]
        with tempfile.TemporaryDirectory() as tmp:
            for i, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
                stepped.partial_fit(window_batch(ws[lo:hi]))
                path = Path(tmp, f"step_{i}.ckpt")
                stepped.save_checkpoint(path, base=Path(tmp, f"step_{i - 1}.ckpt") if i else None)
                resumed = _restore(path)
                _same_state(resumed, stepped)
                resumed.partial_fit(window_batch(ws[hi:]))
                _same_state(resumed, whole)
                assert whole.score_batch(probe).tobytes() == resumed.score_batch(probe).tobytes()

    @pytest.mark.parametrize("kind", SCORER_KINDS)
    @pytest.mark.parametrize("n", [20, 0])
    def test_members_are_laid_out_as_np_savez_lays_them_out(self, kind, n, tmp_path):
        # meta first, then the arrays; np.load and any npz reader read the file. An unfitted scorer writes meta alone.
        sc = _fitted(kind, n)
        sc.save_checkpoint(tmp_path / "saved.ckpt")
        meta = _oracles.read_checkpoint(tmp_path / "saved.ckpt")[0]
        if not n:
            arrays = {}
        elif kind == "knn":
            arrays = {"rows": sc._poses, "index": sc._index.astype(np.int32)}
        else:
            arrays = {"mean": sc._mean, "m2": sc._m2}
        with open(tmp_path / "savez.npz", "wb") as fh:
            np.savez(fh, meta=np.array(json.dumps(meta)), **arrays)
        saved, savez = _members(tmp_path / "saved.ckpt"), _members(tmp_path / "savez.npz")
        assert list(saved) == list(savez) == [f"{name}.npy" for name in ("meta", *arrays)]
        assert saved == savez
        with zipfile.ZipFile(tmp_path / "saved.ckpt") as zf:
            assert {info.compress_type for info in zf.infolist()} == {zipfile.ZIP_STORED}

    @pytest.mark.parametrize("kind", SCORER_KINDS)
    def test_meta_names_format_version_kind_and_params(self, kind, tmp_path):
        sc = make_scorer(kind, seed=7, params={"k_nn": 3, "capacity": 11} if kind == "knn" else {"variance_floor": 0.5})
        sc.fit(window_batch(feats(np.random.default_rng(0), 12, length=4)))
        sc.save_checkpoint(tmp_path / "saved.ckpt")
        meta = _oracles.read_checkpoint(tmp_path / "saved.ckpt")[0]
        assert list(meta)[:4] == ["format", "version", "kind", "params"]
        assert (meta["format"], meta["version"], meta["kind"]) == ("posebench-checkpoint", 3, kind)
        assert meta["params"] == ({"k_nn": 3, "capacity": 11, "seed": 7} if kind == "knn" else {"variance_floor": 0.5})

    @pytest.mark.parametrize("kind", SCORER_KINDS)
    def test_unfitted_scorer_restores_to_a_fresh_one(self, kind, tmp_path):
        sc = _fitted(kind, 0)
        sc.save_checkpoint(tmp_path / "empty.ckpt")
        back = _restore(tmp_path / "empty.ckpt")
        assert back.windows_seen == 0
        if kind == "knn":
            assert back.stored_count == 0 and back._rng.bit_generator.state == sc._rng.bit_generator.state
        else:
            assert back._mean is None and back._m2 is None
        ws = window_batch(feats(np.random.default_rng(1), 30, length=4))
        sc.fit(ws)
        back.partial_fit(ws)
        _same_state(back, sc)

    @pytest.mark.parametrize("kind", SCORER_KINDS)
    def test_saving_leaves_the_scorer_as_it_was(self, kind, tmp_path):
        sc, twin = _fitted(kind), _fitted(kind)
        probe = window_batch(feats(np.random.default_rng(2), 5, length=4))
        before = sc.score_batch(probe)
        sc.save_checkpoint(tmp_path / "step_1.ckpt")
        sc.save_checkpoint(tmp_path / "step_2.ckpt", base=tmp_path / "step_1.ckpt")
        _same_state(sc, twin)
        assert sc.score_batch(probe).tobytes() == before.tobytes() == twin.score_batch(probe).tobytes()
        more = window_batch(feats(np.random.default_rng(3), 30, length=4))
        sc.partial_fit(more)
        twin.partial_fit(more)
        _same_state(sc, twin)

    @pytest.mark.parametrize("kind", SCORER_KINDS)
    def test_identical_states_write_identical_members(self, kind, tmp_path):
        # Two scorers fitted alike, saved into two directories: only the zip's time stamps may differ, so the
        # member digest a chained file records does not depend on when its base was written.
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        for where in ("a", "b"):
            _fitted(kind).save_checkpoint(tmp_path / where / "step_1.ckpt")
        a, b = tmp_path / "a" / "step_1.ckpt", tmp_path / "b" / "step_1.ckpt"
        assert _members(a) == _members(b) and _oracles.checkpoint_digest(a) == _oracles.checkpoint_digest(b)

    @pytest.mark.parametrize("saved, named", [("absolute", "relative"), ("relative", "absolute"), ("str", "relative")])
    def test_a_base_named_by_any_path_to_the_last_save_chains(self, saved, named, tmp_path, monkeypatch):
        # The base record names the file alone, so the chain reads from any directory it is copied to.
        monkeypatch.chdir(tmp_path)
        forms = {"absolute": tmp_path / "step_1.ckpt", "relative": Path("step_1.ckpt"), "str": "step_1.ckpt"}
        rng = np.random.default_rng(0)
        sc = KnnScorer(k_nn=1, capacity=100)
        sc.partial_fit(windows(rng, 5, length=3))
        sc.save_checkpoint(forms[saved])
        sc.partial_fit(windows(rng, 5, length=3))
        sc.save_checkpoint(tmp_path / "step_2.ckpt", base=forms[named])
        (tmp_path / "copy").mkdir()
        for name in ("step_1.ckpt", "step_2.ckpt"):
            (tmp_path / "copy" / name).write_bytes((tmp_path / name).read_bytes())
        meta, arrays = _oracles.read_checkpoint(tmp_path / "copy" / "step_2.ckpt")
        assert (meta["base"]["name"], meta["base"]["rows"], meta["base"]["slots"]) == ("step_1.ckpt", 15, 5)
        assert arrays["rows"].tobytes() == sc._poses.tobytes() and arrays["index"].tolist() == sc._index.tolist()

    def test_replacing_a_saved_slot_writes_the_full_store(self, tmp_path):
        # The save holds all 5 slots; of the next 20 windows, some replace one of them.
        rng = np.random.default_rng(0)
        sc = KnnScorer(k_nn=1, capacity=5, seed=0)
        sc.partial_fit(windows(rng, 5, length=2))
        saved = _stored(sc).copy()
        sc.save_checkpoint(tmp_path / "step_1.ckpt")
        sc.partial_fit(windows(rng, 20, length=2))
        assert (_stored(sc) != saved).any(axis=1).any()
        sc.save_checkpoint(tmp_path / "step_2.ckpt", base=tmp_path / "step_1.ckpt")
        meta, arrays = _oracles.read_checkpoint(tmp_path / "step_2.ckpt")
        assert "base" not in meta and meta["seen"] == 25
        assert arrays["rows"].tobytes() == sc._poses.tobytes() and arrays["index"].tolist() == sc._index.tolist()


def _continual_chain(directory):
    """continual-knn's nine steps, each saved on the one before; yields each step's path and save's working set.

    194 windows come before the first step, so the first file holds about a third of the store.
    """
    batch = extract_windows(generate_normals(3 * 714 + 100, seed=0))
    bounds = [0, *np.linspace(194, 714, 10).round().astype(int)]
    sc, base = KnnScorer(capacity=714), None
    for i, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
        columns = (batch.rows[lo:hi], batch.track_id[lo:hi], batch.start_frame[lo:hi])
        sc.partial_fit(WindowBatch(batch.poses, *columns, batch.length))
        if not i:
            continue
        path = directory / f"step_{i}.ckpt"
        peak = working_set_mb(lambda: sc.save_checkpoint(path, base=base))
        yield sc, path, peak
        base = path


class TestSaveCopies:
    def test_a_full_save_copies_at_most_its_members(self, tmp_path):
        # The writer streams each member into the zip. The int32 index is one copy and the rows go out
        # through one buffer; the bound leaves 0.25 of the members on top. Building a dense store
        # (about 4 times the rows at stride 6 of 24) or a second copy of the rows breaks it.
        sc = _overlapping_store(714)
        peak = working_set_mb(lambda: sc.save_checkpoint(tmp_path / "knn.ckpt"))
        with np.load(tmp_path / "knn.ckpt") as data:
            member_mb = (data["rows"].nbytes + data["index"].nbytes) / 2**20
        assert peak < 1.25 * member_mb, (peak, member_mb)

    def test_a_chained_save_copies_a_fraction_of_the_store(self, tmp_path):
        # Each link writes the rows and slots it added; its working set stays under a quarter of the
        # store's rows and index, where a save of the whole store would copy all of it.
        for sc, path, peak in _continual_chain(tmp_path):
            if path.name == "step_1.ckpt":  # the first save has no base
                continue
            store_mb = (sc._poses.nbytes + sc._index.nbytes) / 2**20
            assert peak < 0.25 * store_mb, (path.name, peak, store_mb)

    def test_continual_links_hold_what_each_step_added(self, tmp_path):
        held = (0, 0)
        for sc, path, _ in _continual_chain(tmp_path):
            with np.load(path) as data:
                meta, rows, index = json.loads(str(data["meta"])), data["rows"], data["index"]
            if held != (0, 0):
                assert meta["base"]["name"] == f"step_{int(path.stem[5:]) - 1}.ckpt"
                assert (meta["base"]["rows"], meta["base"]["slots"]) == held
            assert (held[0] + len(rows), held[1] + len(index)) == (len(sc._poses), sc.stored_count)
            arrays = _oracles.read_checkpoint(path)[1]
            assert arrays["rows"].tobytes() == sc._poses.tobytes() and arrays["index"].tolist() == sc._index.tolist()
            held = (len(sc._poses), sc.stored_count)


def _save_and_read(sc, path):
    """Save a knn scorer and read the file back with the oracle; returns the file's rows and index."""
    saved = _stored(sc)
    sc.save_checkpoint(path)
    arrays = _oracles.read_checkpoint(path)[1]
    rows, index = arrays["rows"], arrays["index"]
    # Every index entry points at a row with the bits it stands for, rows in first-occurrence order.
    assert (rows[index].reshape(saved.shape).view(np.uint64) == saved.view(np.uint64)).all()
    used, firsts = np.unique(index.reshape(-1), return_index=True)
    assert used.tolist() == list(range(len(rows))) and (np.diff(firsts) > 0).all()
    assert rows.tobytes() == sc._poses.tobytes() and index.tolist() == sc._index.tolist()
    return rows, index


class TestCheckpointLayout:
    @settings(deadline=None, max_examples=40)
    @given(
        steps=st.lists(st.tuples(st.integers(1, 12), st.integers(1, 8)), min_size=1, max_size=6),
        length=st.integers(2, 6),
        pool=st.integers(1, 40),
        capacity=st.sampled_from([3, 10, 1000]),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(steps=[(1, 1), (10, 1)], length=2, pool=1, capacity=10, seed=0)  # replaces slot 9, past the save
    def test_successive_saves_match_the_first_use_oracle(self, steps, length, pool, capacity, seed):
        # The continual pattern: each step ingests (windows, stride) of one recording and saves.
        # A stride below the length shares rows between windows, one above it skips rows. Poses
        # come from a small pool, so rows with equal bits come from different sources and stay
        # apart. Capacity 3 and 10 replace stored windows.
        rng = np.random.default_rng(seed)
        pool_poses = rng.normal(size=(pool, 17, 2))
        batches = []
        for n, stride in steps:
            starts = stride * np.arange(n)
            poses = pool_poses[rng.integers(0, pool, starts[-1] + length + 1)]
            batches.append(WindowBatch(poses, starts, np.zeros(n, np.int64), starts, length))
        sc = KnnScorer(k_nn=1, capacity=capacity, seed=seed)
        with tempfile.TemporaryDirectory() as tmp:
            held = ([], [], [])  # the previous step's slots, row ids and index
            for i, batch in enumerate(batches):
                sc.partial_fit(batch)
                path = Path(tmp, f"step_{i}.ckpt")
                sc.save_checkpoint(path, base=Path(tmp, f"step_{i - 1}.ckpt") if i else None)
                slots = _oracles.knn_reservoir(batches[: i + 1], capacity, seed)
                ids, index = _oracles.first_use(slots)
                source = np.concatenate([b.poses.reshape(-1, 34) for b in batches[: i + 1]])
                with np.load(path) as data:
                    rows, got = data["rows"], data["index"]
                meta, arrays = _oracles.read_checkpoint(path)
                # A step chains onto the one before exactly when the slots before are a prefix of its own: a
                # replacement of a slot past them keeps the chain. The file then holds the rows and slots added
                # since; the rows before must be a prefix of its own.
                if i and slots[: len(held[0])] == held[0]:
                    start = (len(held[1]), len(held[2]))
                    assert list(ids[: start[0]]) == list(held[1]) and index[: start[1]] == held[2]
                    assert meta["base"] == {"name": f"step_{i - 1}.ckpt", "rows": start[0], "slots": start[1],
                                            "sha256": _oracles.checkpoint_digest(Path(tmp, f"step_{i - 1}.ckpt"))}
                else:
                    assert "base" not in meta
                    start = (0, 0)
                assert (rows.shape, rows.tobytes()) == ((len(ids) - start[0], 34), source[ids[start[0] :]].tobytes())
                assert got.dtype == np.int32 and got.tolist() == index[start[1] :]
                # Read with its bases, the file holds the scorer's whole state: the oracle's store, its seen
                # count and its generator's state.
                assert meta["seen"] == sc.windows_seen and meta["rng_state"] == sc._rng.bit_generator.state
                assert arrays["rows"].tobytes() == source[ids].tobytes() == sc._poses.tobytes()
                assert arrays["index"].tolist() == index == sc._index.tolist()
                assert source[np.array(slots)].reshape(len(slots), -1).tobytes() == _stored(sc).tobytes()
                held = (slots, ids, index)

    def test_replacing_a_slot_added_after_the_save_still_chains(self, tmp_path):
        # The save holds 1 slot; the next batch fills slots 1..9, then its last window replaces slot 9 (seed 0's
        # first draw). Before, any replacement made the next save a full file.
        rng = np.random.default_rng(0)
        sc = KnnScorer(k_nn=1, capacity=10, seed=0)
        sc.partial_fit(windows(rng, 1, length=2))
        sc.save_checkpoint(tmp_path / "step_0.ckpt")
        batch = windows(rng, 10, length=2)
        sc.partial_fit(batch)
        assert sc.windows_seen == 11 and _stored(sc)[9].tobytes() == _queries(batch)[9].tobytes()
        sc.save_checkpoint(tmp_path / "step_1.ckpt", base=tmp_path / "step_0.ckpt")
        meta, arrays = _oracles.read_checkpoint(tmp_path / "step_1.ckpt")
        assert (meta["base"]["name"], meta["base"]["rows"], meta["base"]["slots"]) == ("step_0.ckpt", 2, 1)
        assert arrays["rows"].tobytes() == sc._poses.tobytes() and arrays["index"].tolist() == sc._index.tolist()

    def test_store_without_shared_rows_is_written_as_is(self, rng, tmp_path):
        sc = KnnScorer(k_nn=1, capacity=10)
        sc.partial_fit(windows(rng, 6))
        rows, index = _save_and_read(sc, tmp_path / "knn.ckpt")
        assert rows.tobytes() == _stored(sc).tobytes()
        assert index.dtype == np.int32 and index.reshape(-1).tolist() == list(range(6 * 24))


class TestFactory:
    def test_make_scorer_kinds(self):
        assert isinstance(make_scorer("gaussian"), GaussianScorer)
        assert isinstance(make_scorer("knn"), KnnScorer)
        with pytest.raises(ValidationError):
            make_scorer("mystery")

    def test_unknown_or_mistyped_params_name_the_key(self):
        for kind, params, key in (
            ("knn", {"variance_floor": 1.0}, "variance_floor"),
            ("gaussian", {"bogus": 1}, "bogus"),
            ("knn", {"k_nn": 2.5}, "k_nn"),
            ("knn", {"k_nn": True}, "k_nn"),
            ("knn", {"capacity": 1e400}, "capacity"),
            ("gaussian", {"variance_floor": None}, "variance_floor"),
            ("knn", {"seed": 3}, "seed"),  # the seed comes from the run, never from scorer_params
        ):
            with pytest.raises(ValidationError, match=key):
                make_scorer(kind, params=params)

    def test_params_forwarded(self):
        sc = make_scorer("knn", seed=4, params={"k_nn": 7, "capacity": 99})
        assert (sc.k_nn, sc.capacity, sc.seed) == (7, 99, 4)
