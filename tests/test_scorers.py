import dataclasses
import json
import re
import tempfile
import tracemalloc
import zipfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import _oracles
from conftest import make_frame, person, table, window_batch, working_set_mb
from posebench import _kernels, scorers
from posebench.errors import ValidationError
from posebench.preprocess import WindowBatch, extract_windows
from posebench.rearrange import RearrangePlan, rearrange
from posebench.runner import derive_seed
from posebench.scorers import (
    GaussianScorer,
    KnnScorer,
    kinematic_features,
    load_checkpoint,
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
        batch = extract_windows(split.test.frames.take(cs.test_rows))
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
        assert sc.score_batch(batch).tobytes() == _kernels.knn_mean_distance(want, want, 2).tobytes()


def _stored(sc):
    """The windows a knn scorer holds, one flattened window per row."""
    return sc._poses[sc._index].reshape(sc.stored_count, -1)


def _state(sc):
    """A scorer's live state: what its checkpoint writes."""
    if sc.kind == "knn":
        return _stored(sc), sc._rng.bit_generator.state, sc.windows_seen
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
            assert got.tobytes() == _kernels.knn_mean_distance(_stored(sc), queries, k).tobytes()

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
        assert want.tobytes() == _kernels.knn_mean_distance(_stored(sc), _queries(probe), 4).tobytes()

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
        assert again.tobytes() == _kernels.knn_mean_distance(_stored(sc), _queries(probe), 2).tobytes()
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
        assert got.tobytes() == _kernels.knn_mean_distance(_stored(sc), _queries(probe), 2).tobytes()

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
        assert got.tobytes() == _kernels.knn_mean_distance(_stored(sc), _queries(probe), 2).tobytes()

    def test_another_batch_is_scanned_afresh(self, rng, monkeypatch):
        sc = KnnScorer(k_nn=2, seed=0)
        sc.fit(windows(rng, 12, length=3))
        a, b = windows(rng, 5, length=3), windows(rng, 5, length=3)
        want = [_kernels.knn_mean_distance(_stored(sc), _queries(batch), 2).tobytes() for batch in (b, a)]
        sc.score_batch(a)
        scanned = _scan_spy(monkeypatch)
        assert [sc.score_batch(b).tobytes(), sc.score_batch(a).tobytes()] == want
        assert scanned == [(12, False), (12, False)]


def _overlapping_store(windows_held):
    """A knn scorer holding the first ``windows_held`` windows (length 24, stride 6) of one recording."""
    batch = extract_windows(generate_normals(3 * windows_held + 100, seed=0).frames)
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
        batch = extract_windows(generate_normals(3 * 267 + 100, seed=1).frames)
        probe = WindowBatch(batch.poses, batch.rows[:267], batch.track_id[:267], batch.start_frame[:267], 24)
        m, n, d = len(probe), sc.stored_count, 24 * 34
        chunk = min(_kernels._CHUNK_ELEMENTS, m * n)
        floats = m * d + probe.poses.size + len(sc._poses) * 34 + n * d + m * n + chunk
        bound = (4 * floats + chunk + 2 * 8 * _kernels._RESCORE_ELEMENTS) / 2**20 + 0.5
        peak = working_set_mb(lambda: sc.score_batch(probe))
        assert peak < bound, (peak, bound)


class TestRestoreCopies:
    def test_load_checkpoint_holds_rows_and_index_about_once(self, tmp_path):
        # Loading hands the file's rows and index to the scorer as they are; no dense store is built.
        # The rows (about a quarter of the store at stride 6 of 24) set the peak. The int64 copy of
        # the index and the first-use check over it add about 0.5 of the file arrays; the bound
        # leaves 0.25 on top. A dense store would add about 4 (its size over the rows), a second
        # copy of the rows 1.
        sc = _overlapping_store(714)
        path = tmp_path / "knn.ckpt"
        sc.save_checkpoint(path)
        with np.load(path) as data:
            file_mb = (data["rows"].nbytes + data["index"].nbytes) / 2**20
        tracemalloc.start()
        try:
            back = load_checkpoint(path)
            peak_mb = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()
        assert peak_mb < 1.75 * file_mb, (peak_mb, file_mb)
        assert _stored(back).tobytes() == _stored(sc).tobytes()

    def test_loading_a_chain_holds_rows_and_index_about_once(self, tmp_path):
        # continual-knn's nine steps, each saved on the one before: 194 windows before the first slice, so
        # the first file holds a third of the store. The loader sizes both arrays from the top file's counts
        # and reads each link's members into place, so the bound above holds for the chain. Reading each
        # link with np.load first and copying its arrays over peaks at about 1.9 times the arrays.
        batch = extract_windows(generate_normals(3 * 714 + 100, seed=0).frames)
        bounds = [0, *np.linspace(194, 714, 10).round().astype(int)]
        sc, base = KnnScorer(capacity=714), None
        for i, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
            columns = (batch.rows[lo:hi], batch.track_id[lo:hi], batch.start_frame[lo:hi])
            sc.partial_fit(WindowBatch(batch.poses, *columns, batch.length))
            if not i:
                continue
            path = tmp_path / f"step_{i}.ckpt"
            sc.save_checkpoint(path, base=base)
            base = path
        with np.load(path) as data:
            counts = json.loads(str(data["meta"]))["base"]
            rows, index = data["rows"], data["index"]
        assert counts["name"] == "step_8.ckpt"
        loaded = (counts["rows"] + len(rows)) * rows[0].nbytes + (counts["slots"] + len(index)) * index[0].nbytes
        loaded_mb = loaded / 2**20
        tracemalloc.start()
        try:
            back = load_checkpoint(path)
            peak_mb = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()
        assert peak_mb < 1.75 * loaded_mb, (peak_mb, loaded_mb)
        assert _stored(back).tobytes() == _stored(sc).tobytes()


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
        ws = feats(rng, 50)
        sc = KnnScorer(k_nn=2, capacity=24, seed=3)
        sc.partial_fit(window_batch(ws[:25]))
        path = tmp_path / "knn.ckpt"
        sc.save_checkpoint(path)
        back = load_checkpoint(path)
        sc.partial_fit(window_batch(ws[25:]))
        back.partial_fit(window_batch(ws[25:]))
        probe = windows(rng, 3)
        np.testing.assert_array_equal(back.score_batch(probe), sc.score_batch(probe))

    @settings(deadline=None, max_examples=40)
    @given(
        kind=st.sampled_from(["gaussian", "knn"]),
        n=st.integers(2, 120),
        cuts=st.lists(st.integers(0, 120), min_size=1, max_size=4),
        capacity=st.sampled_from([5, 40]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_save_load_continue_equals_uninterrupted(self, kind, n, cuts, capacity, seed):
        # A checkpoint after every piece; capacity 5 forces reservoir replacement, 40 appends
        # to the store after a reload.
        rng = np.random.default_rng(seed)
        ws = feats(rng, n, length=4)
        probe = windows(rng, 3, length=4)
        params = {"k_nn": 2, "capacity": capacity} if kind == "knn" else {}
        whole = make_scorer(kind, seed=seed, params=params)
        whole.fit(window_batch(ws))
        resumed = make_scorer(kind, seed=seed, params=params)
        bounds = [0, *sorted(c for c in cuts if c <= n), n]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp, "scorer.ckpt")
            for lo, hi in zip(bounds, bounds[1:]):
                resumed.partial_fit(window_batch(ws[lo:hi]))
                resumed.save_checkpoint(path)
                resumed = load_checkpoint(path)
        for a, b in zip(_state(whole), _state(resumed)):
            if isinstance(a, np.ndarray):
                assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())
            else:
                assert a == b
        assert whole.score_batch(probe).tobytes() == resumed.score_batch(probe).tobytes()

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
        base = {"format": "posebench-checkpoint", "version": 2}
        for meta, field in (
            ({**base, "kind": "gaussian", "count": 0}, "params"),
            ({**base, "kind": "knn", "params": {}, "seen": 0}, "rng_state"),
            ({**base, "kind": "gaussian", "params": [1], "count": 0}, "params"),
        ):
            with open(path, "wb") as fh:
                np.savez(fh, meta=np.array(json.dumps(meta)))
            with pytest.raises(ValidationError, match=f"{re.escape(str(path))}.*'{field}'"):
                load_checkpoint(path)
        # A kind outside SCORERS, also one that is not a string.
        for kind in ("mystery", ["knn"], {"knn": 1}, None):
            with open(path, "wb") as fh:
                np.savez(fh, meta=np.array(json.dumps({**base, "kind": kind})))
            with pytest.raises(ValidationError, match=f"unknown scorer kind {re.escape(repr(kind))} in checkpoint"):
                load_checkpoint(path)
        # State that loads into a scorer that cannot score, or scores garbage.
        gaussian = {**base, "kind": "gaussian", "params": {"variance_floor": 1e-8}, "count": 5}
        knn = {**base, "kind": "knn", "params": {"k_nn": 1, "capacity": 8, "seed": 0}, "seen": 4,
               "rng_state": np.random.default_rng(0).bit_generator.state}
        # A knn file holds pose rows plus the index of each stored window's rows.
        rows, one = np.zeros((2, 34)), np.zeros((1, 34))
        for meta_fields, arrays, message in (
            (gaussian, {"mean": np.zeros(51), "m2": np.zeros(3)}, "m2 \\(3,\\) must have mean's shape"),
            ({**gaussian, "count": -1}, {"mean": np.zeros(51), "m2": np.zeros(51)}, "count must be >= 0"),
            (gaussian, {"mean": np.full(51, np.nan), "m2": np.zeros(51)}, "mean and m2 must be finite"),
            (gaussian, {"mean": np.zeros(51), "m2": np.full(51, np.inf)}, "mean and m2 must be finite"),
            (gaussian, {}, "mean and m2 exactly when"),
            (knn, {"rows": one, "index": np.zeros(4, int)}, r"store must be 2-D with at most 8 rows, got shape \(4,\)"),
            (knn, {"rows": one, "index": np.zeros((9, 1), np.int32)}, "knn store must be 2-D with at most 8 rows"),
            (knn, {"rows": np.where(one == 0, np.inf, 0.0), "index": np.array([[0]])}, "knn store must be finite"),
            ({**knn, "seen": -1}, {}, "knn seen -1 must count at least the 0 stored"),
            (
                {**knn, "seen": 1},
                {"rows": rows, "index": np.zeros((2, 1), int)},
                "seen 1 must count at least the 2 stored rows",
            ),
            (knn, {"rows": rows, "index": np.array([[0], [2]])}, r"knn index must lie in \[0, 2\), got 0..2"),
            (knn, {"rows": rows, "index": np.array([[-1], [1]])}, r"knn index must lie in \[0, 2\), got -1..1"),
            (knn, {"rows": rows, "index": np.array([[0.0], [1.0]])}, "knn index must be 2-D integers, got float64"),
            (knn, {"rows": np.zeros(4), "index": np.array([[0]])}, r"knn rows must be 2-D, got shape \(4,\)"),
            (knn, {"rows": np.zeros((2, 2)), "index": np.array([[0, 1]])}, "knn rows must hold 34 values each, got 2"),
            (knn, {"rows": np.zeros((1, 68)), "index": np.zeros((1, 1), np.int32)}, "hold 34 values each, got 68"),
            (knn, {"rows": rows}, "knn rows and index must be stored together"),
            (knn, {"index": np.array([[0]])}, "knn rows and index must be stored together"),
            ({**knn, "version": 1}, {"store": np.zeros((2, 2))}, r"unsupported version 1 \(supported: 2, 3\)"),
            ({**knn, "version": 4}, {}, "unsupported version 4"),
            ({**knn, "version": True}, {}, "unsupported version True"),
            ({**knn, "version": 2.0}, {}, "unsupported version 2.0"),
            ({**knn, "version": 1.0}, {"store": np.zeros((2, 2))}, "unsupported version 1.0"),
        ):
            with open(path, "wb") as fh:
                np.savez(fh, meta=np.array(json.dumps(meta_fields)), **arrays)
            with pytest.raises(ValidationError, match=f"{re.escape(str(path))}.*{message}"):
                load_checkpoint(path)


def _rewrite(path, **meta):
    """Write ``path`` again with its meta fields updated and its arrays as they are."""
    with np.load(path) as data:
        fields = {**json.loads(str(data["meta"])), **meta}
        arrays = {k: data[k] for k in data.files if k != "meta"}
    with open(path, "wb") as fh:
        np.savez(fh, meta=np.array(json.dumps(fields)), **arrays)


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

    @pytest.mark.parametrize("missing", ["step_2.ckpt", "step_1.ckpt"])
    def test_missing_base(self, tmp_path, missing):
        _chain(tmp_path)
        (tmp_path / missing).unlink()
        with pytest.raises(ValidationError, match=re.escape(f"not a readable checkpoint file: {tmp_path / missing}")):
            load_checkpoint(tmp_path / "step_3.ckpt")

    def test_truncated_base(self, tmp_path):
        _chain(tmp_path)
        path = tmp_path / "step_2.ckpt"
        path.write_bytes(path.read_bytes()[:600])
        with pytest.raises(ValidationError, match=re.escape(f"not a readable checkpoint file: {path}")):
            load_checkpoint(tmp_path / "step_3.ckpt")

    def test_changed_or_swapped_base(self, tmp_path):
        _chain(tmp_path)
        _chain(tmp_path / "other", seed=1)
        original = (tmp_path / "step_1.ckpt").read_bytes()
        with np.load(tmp_path / "step_1.ckpt") as data:
            members = {k: data[k] for k in data.files}
        members["rows"][0, 0] += 1.0  # same shapes, one value changed
        with open(tmp_path / "step_1.ckpt", "wb") as fh:
            np.savez(fh, **members)
        with pytest.raises(ValidationError, match=re.escape(f"checkpoint {tmp_path / 'step_1.ckpt'}: its members")):
            load_checkpoint(tmp_path / "step_3.ckpt")
        (tmp_path / "step_1.ckpt").write_bytes(original)
        load_checkpoint(tmp_path / "step_3.ckpt")
        # The same step of another run, whose counts match.
        (tmp_path / "step_2.ckpt").write_bytes((tmp_path / "other" / "step_2.ckpt").read_bytes())
        with pytest.raises(ValidationError, match=re.escape(f"checkpoint {tmp_path / 'step_2.ckpt'}: its members")):
            load_checkpoint(tmp_path / "step_3.ckpt")

    def test_base_naming_itself_or_closing_a_cycle(self, tmp_path):
        _chain(tmp_path)
        _rewrite(tmp_path / "step_3.ckpt", base={"name": "step_3.ckpt", "rows": 0, "slots": 0, "sha256": ""})
        with pytest.raises(ValidationError, match=r"step_3.ckpt: base 'step_3.ckpt' closes a cycle"):
            load_checkpoint(tmp_path / "step_3.ckpt")
        # step_1 names step_2 back. step_2 and step_3 record the digests of the files as they now stand, so
        # the loader reaches step_1's record, and refuses it before opening step_2 again.
        _chain(tmp_path)
        records = {}
        for i in (2, 3):
            with np.load(tmp_path / f"step_{i}.ckpt") as data:
                records[i] = json.loads(str(data["meta"]))["base"]
        _rewrite(tmp_path / "step_1.ckpt", base={**records[2], "name": "step_2.ckpt"})
        _rewrite(tmp_path / "step_2.ckpt", base={**records[2], "sha256": scorers._digest(tmp_path / "step_1.ckpt")})
        _rewrite(tmp_path / "step_3.ckpt", base={**records[3], "sha256": scorers._digest(tmp_path / "step_2.ckpt")})
        with pytest.raises(ValidationError, match=r"step_1.ckpt: base 'step_2.ckpt' closes a cycle"):
            load_checkpoint(tmp_path / "step_3.ckpt")

    @pytest.mark.parametrize("name", ["../step_1.ckpt", "sub/step_1.ckpt", "ABS", "..", ".", "", 7])
    def test_base_outside_the_directory_is_refused_before_it_is_opened(self, tmp_path, monkeypatch, name):
        # A valid base sits where each name points, so following the name would load.
        run = tmp_path / "run"
        _chain(run)
        (run / "sub").mkdir()
        for where in (tmp_path, run / "sub"):
            where.joinpath("step_1.ckpt").write_bytes(run.joinpath("step_1.ckpt").read_bytes())
        name = str(tmp_path / "step_1.ckpt") if name == "ABS" else name
        step_1 = scorers._digest(run / "step_1.ckpt")
        _rewrite(run / "step_2.ckpt", base={"name": name, "rows": 15, "slots": 5, "sha256": step_1})
        step_2 = scorers._digest(run / "step_2.ckpt")
        _rewrite(run / "step_3.ckpt", base={"name": "step_2.ckpt", "rows": 30, "slots": 10, "sha256": step_2})
        opened, digest = [], scorers._digest
        monkeypatch.setattr(scorers, "_digest", lambda path: opened.append(str(path)) or digest(path))
        with pytest.raises(ValidationError, match=re.escape(f"step_2.ckpt: base {name!r} must be a bare file name")):
            load_checkpoint(run / "step_3.ckpt")
        assert opened == [str(run / "step_2.ckpt")]

    def test_counts_that_do_not_match_the_base(self, tmp_path):
        _chain(tmp_path)
        with np.load(tmp_path / "step_3.ckpt") as data:
            record = json.loads(str(data["meta"]))["base"]
        _rewrite(tmp_path / "step_3.ckpt", base={**record, "slots": record["slots"] - 1})
        message = "step_2.ckpt: index must be int32 (4, 3) to continue its chain, got int32 (5, 3)"
        with pytest.raises(ValidationError, match=re.escape(message)):
            load_checkpoint(tmp_path / "step_3.ckpt")
        _rewrite(tmp_path / "step_3.ckpt", base={**record, "rows": 10**30})  # past any array size
        with pytest.raises(ValidationError, match=f"step_3.ckpt: cannot allocate the {10**30 + 15} rows its base"):
            load_checkpoint(tmp_path / "step_3.ckpt")
        for bad, message in (
            ({**record, "rows": -1}, "base rows must be an integer >= 0, got -1"),
            ({**record, "slots": 2.0}, "base slots must be an integer >= 0, got 2.0"),
            ({**record, "sha256": None}, "base sha256 must be a string, got None"),
            ({**record, "extra": 1}, "meta field 'base' must hold name, rows, slots and sha256"),
            ([], "meta field 'base' must hold name, rows, slots and sha256"),
        ):
            _rewrite(tmp_path / "step_3.ckpt", base=bad)
            with pytest.raises(ValidationError, match=re.escape(f"step_3.ckpt: {message}")):
                load_checkpoint(tmp_path / "step_3.ckpt")

    def test_members_that_cannot_continue_a_chain(self, tmp_path):
        _chain(tmp_path)
        with np.load(tmp_path / "step_3.ckpt") as data:
            meta, record, index = data["meta"], json.loads(str(data["meta"]))["base"], data["index"]
        for rows, message in (
            (np.full((5, 34), None, dtype=object), "rows must be 2-D numbers, got object (5, 34)"),
            (np.zeros(34), "rows must be 2-D numbers, got float64 (34,)"),
        ):
            with open(tmp_path / "step_3.ckpt", "wb") as fh:
                np.savez(fh, meta=meta, rows=rows, index=index)
            with pytest.raises(ValidationError, match=re.escape(f"step_3.ckpt: {message}")):
                load_checkpoint(tmp_path / "step_3.ckpt")
        _chain(tmp_path)
        with np.load(tmp_path / "step_2.ckpt") as data:
            members = {k: data[k] for k in data.files}
        with open(tmp_path / "step_2.ckpt", "wb") as fh:
            np.savez(fh, **{**members, "rows": np.asfortranarray(members["rows"])})
        _rewrite(tmp_path / "step_3.ckpt", base={**record, "sha256": scorers._digest(tmp_path / "step_2.ckpt")})
        message = "step_2.ckpt: rows must be float64 (15, 34) to continue its chain, got float64 (15, 34) in Fortran"
        with pytest.raises(ValidationError, match=re.escape(message)):
            load_checkpoint(tmp_path / "step_3.ckpt")

    def test_only_knn_rows_and_index_chain(self, rng, tmp_path):
        _chain(tmp_path)
        with np.load(tmp_path / "step_3.ckpt") as data:
            record = json.loads(str(data["meta"]))["base"]
        sc = GaussianScorer()
        sc.fit(windows(rng, 20))
        sc.save_checkpoint(tmp_path / "gaussian.ckpt")
        _rewrite(tmp_path / "gaussian.ckpt", base=record)
        members = "['index.npy', 'meta.npy', 'rows.npy'], got ['m2.npy', 'mean.npy', 'meta.npy']"
        with pytest.raises(ValidationError, match=re.escape(f"gaussian.ckpt: a chained file holds {members}")):
            load_checkpoint(tmp_path / "gaussian.ckpt")
        _rewrite(tmp_path / "step_3.ckpt", kind="gaussian", params={}, count=0)
        with pytest.raises(ValidationError, match="step_2.ckpt: kind 'knn' cannot be the base of a gaussian file"):
            load_checkpoint(tmp_path / "step_3.ckpt")


def _store_id(store):
    return store.dtype, store.shape, store.tobytes()


def _save_and_load(sc, path):
    """Round-trip a knn scorer through a checkpoint; returns the file's rows and index."""
    saved = _stored(sc)
    sc.save_checkpoint(path)
    with np.load(path) as data:
        rows, index = data["rows"], data["index"]
    # Every index entry points at a row with the bits it stands for, rows in first-occurrence order.
    assert (rows[index].reshape(saved.shape).view(np.uint64) == saved.view(np.uint64)).all()
    used, firsts = np.unique(index.reshape(-1), return_index=True)
    assert used.tolist() == list(range(len(rows))) and (np.diff(firsts) > 0).all()
    assert _store_id(_stored(load_checkpoint(path))) == _store_id(saved)
    return rows, index


def _members(path):
    """A checkpoint's zip members by name; the zip stamps the archive, not the members, with the time."""
    with zipfile.ZipFile(path) as zf:
        return {name: zf.read(name) for name in zf.namelist()}


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
                    meta, rows, got = json.loads(str(data["meta"])), data["rows"], data["index"]
                # A step chains onto the one before exactly when the slots before are a prefix of its own: a
                # replacement of a slot past them keeps the chain. The file then holds the rows and slots added
                # since; the rows before must be a prefix of its own.
                if i and slots[: len(held[0])] == held[0]:
                    start = (len(held[1]), len(held[2]))
                    assert list(ids[: start[0]]) == list(held[1]) and index[: start[1]] == held[2]
                    assert meta["base"] == {"name": f"step_{i - 1}.ckpt", "rows": start[0], "slots": start[1],
                                            "sha256": scorers._digest(Path(tmp, f"step_{i - 1}.ckpt"))}
                else:
                    assert "base" not in meta
                    start = (0, 0)
                assert (rows.shape, rows.tobytes()) == ((len(ids) - start[0], 34), source[ids[start[0] :]].tobytes())
                assert got.dtype == np.int32 and got.tolist() == index[start[1] :]
                dense = source[np.array(slots)].reshape(len(slots), -1)
                back = load_checkpoint(path)
                assert back._poses.tobytes() == source[ids].tobytes() and back._index.tolist() == index
                assert _stored(back).tobytes() == dense.tobytes() == _stored(sc).tobytes()
                # A loaded scorer has saved nothing, so it writes its whole store: the oracle's.
                back.save_checkpoint(Path(tmp, "again.ckpt"), base=path)
                with np.load(Path(tmp, "again.ckpt")) as data:
                    full = json.loads(str(data["meta"])), data["rows"].tobytes(), data["index"].tolist()
                assert full == ({k: v for k, v in meta.items() if k != "base"}, source[ids].tobytes(), index)
                held = (slots, ids, index)
            # Loading any step and continuing equals the uninterrupted run.
            final = _members(Path(tmp, "again.ckpt"))
            for i in range(len(batches)):
                resumed = load_checkpoint(Path(tmp, f"step_{i}.ckpt"))
                for batch in batches[i + 1 :]:
                    resumed.partial_fit(batch)
                resumed.save_checkpoint(Path(tmp, "resumed.ckpt"))
                assert _members(Path(tmp, "resumed.ckpt")) == final

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
        with np.load(tmp_path / "step_1.ckpt") as data:
            base = json.loads(str(data["meta"]))["base"]
        assert (base["name"], base["rows"], base["slots"]) == ("step_0.ckpt", 2, 1)
        back = load_checkpoint(tmp_path / "step_1.ckpt")
        assert back._poses.tobytes() == sc._poses.tobytes() and back._index.tolist() == sc._index.tolist()

    def test_load_keeps_only_the_referenced_rows_in_first_use_order(self, tmp_path):
        # A file written elsewhere may hold rows no window uses, or rows out of first-use order.
        meta = {"format": "posebench-checkpoint", "version": 2, "kind": "knn", "seen": 2,
                "params": {"k_nn": 1, "capacity": 2, "seed": 0},
                "rng_state": np.random.default_rng(0).bit_generator.state}
        path = tmp_path / "knn.ckpt"
        for count, index, kept, relabelled in (
            (4, [[3], [1]], [3, 1], [[0], [1]]),  # rows 0 and 2 unused
            (2, [[1, 0], [0, 1]], [1, 0], [[0, 1], [1, 0]]),  # every row used, out of order
        ):
            rows = np.arange(count * 34, dtype=np.float64).reshape(count, 34)
            with open(path, "wb") as fh:
                np.savez(fh, meta=np.array(json.dumps(meta)), rows=rows, index=np.array(index))
            sc = load_checkpoint(path)
            assert sc._poses.tobytes() == rows[kept].tobytes() and sc._index.tolist() == relabelled
            assert _stored(sc).tobytes() == rows[np.array(index)].tobytes()

    def test_store_without_shared_rows_is_written_as_is(self, rng, tmp_path):
        sc = KnnScorer(k_nn=1, capacity=10)
        sc.partial_fit(windows(rng, 6))
        rows, index = _save_and_load(sc, tmp_path / "knn.ckpt")
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
