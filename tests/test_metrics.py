import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posebench.errors import ValidationError
from posebench.metrics import (
    MetricReport,
    aggregate_frame_scores,
    compute_all,
)
from posebench.preprocess import WindowBatch
from conftest import make_frame, make_obs, table, walking_dataset
import _oracles


class TestInputChecks:
    def test_requires_equal_lengths(self):
        with pytest.raises(ValidationError, match="^series arrays must have equal length$"):
            compute_all([0.1, 0.2, 0.3], [False, True])

    def test_requires_finite_scores(self):
        with pytest.raises(ValidationError, match="^scores must be finite$"):
            compute_all([float("nan"), 0.2], [False, True])

    def test_counts(self):
        rep = compute_all([0.1, 0.2, 0.3], [0, 1, 1])
        assert (rep.n_pos, rep.n_neg) == (2, 1)


class TestFourPointFixture:
    # (0.9, anomalous), (0.8, normal), (0.7, anomalous), (0.6, normal)
    def fixture(self):
        return [0.9, 0.8, 0.7, 0.6], [1, 0, 1, 0]

    def test_auc_roc(self):
        assert compute_all(*self.fixture()).auc_roc == pytest.approx(0.75, abs=1e-12)

    def test_auc_pr(self):
        assert compute_all(*self.fixture()).auc_pr == pytest.approx(0.8333, abs=1e-4)

    def test_eer(self):
        assert compute_all(*self.fixture()).eer == pytest.approx(0.5, abs=1e-12)

    def test_ten_er(self):
        assert compute_all(*self.fixture(), 0.10).ten_er == pytest.approx(0.5, abs=1e-12)


class TestAgainstOracles:
    def test_roc_matches_both_oracles(self, rng):
        for _ in range(300):
            scores, labels = _oracles.random_series(rng)
            got = compute_all(scores, labels).auc_roc
            assert got == _oracles.roc_auc_pairwise(scores, labels)  # one exact count, divided once
            assert got == pytest.approx(_oracles.roc_auc_trapezoid(scores, labels), abs=1e-9)

    def test_pr_matches_oracle(self, rng):
        for _ in range(300):
            scores, labels = _oracles.random_series(rng)
            got = compute_all(scores, labels).auc_pr
            assert got == pytest.approx(_oracles.average_precision(scores, labels), abs=1e-6)

    def test_eer_matches_scan(self, rng):
        for _ in range(300):
            scores, labels = _oracles.random_series(rng)
            got = compute_all(scores, labels).eer
            assert got == pytest.approx(_oracles.eer_scan(scores, labels), abs=1e-9)

    def test_ten_er_matches_scan(self, rng):
        for _ in range(300):
            scores, labels = _oracles.random_series(rng)
            got = compute_all(scores, labels, 0.10).ten_er
            assert got == pytest.approx(_oracles.fpr_at_fnr_scan(scores, labels, 0.10), abs=1e-9)


@st.composite
def tied_series(draw):
    """Scores drawn from at most four distinct values, so ties are dense, and labels of both classes."""
    values = draw(st.lists(st.floats(-10, 10, allow_nan=False), min_size=1, max_size=4, unique=True))
    n = draw(st.integers(2, 40))
    scores = draw(st.lists(st.sampled_from(values), min_size=n, max_size=n))
    labels = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n).filter(lambda ys: 0 < sum(ys) < n))
    return scores, labels


class TestMetricsProperty:
    @settings(deadline=None, max_examples=200)
    @given(case=tied_series())
    def test_compute_all_matches_oracles(self, case):
        scores, labels = case
        rep = compute_all(scores, labels)
        assert (rep.n_pos, rep.n_neg) == (sum(labels), len(labels) - sum(labels))
        assert rep.auc_roc == _oracles.roc_auc_pairwise(scores, labels)  # bit for bit: both divide exact counts once
        assert rep.auc_roc == pytest.approx(_oracles.roc_auc_trapezoid(scores, labels), abs=1e-9)
        assert rep.auc_pr == pytest.approx(_oracles.average_precision(scores, labels), abs=1e-9)
        assert rep.eer == pytest.approx(_oracles.eer_scan(scores, labels), abs=1e-9)
        assert rep.ten_er == pytest.approx(_oracles.fpr_at_fnr_scan(scores, labels, 0.10), abs=1e-9)


class TestEdgeBehavior:
    def test_perfect_separation(self):
        rep = compute_all([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0], 0.10)
        assert (rep.auc_roc, rep.auc_pr, rep.eer, rep.ten_er) == (1.0, 1.0, 0.0, 0.0)

    def test_inverted_separation(self):
        assert compute_all([0.9, 0.8, 0.2, 0.1], [0, 0, 1, 1]).auc_roc == 0.0

    def test_all_tied_scores(self):
        assert compute_all([0.5, 0.5, 0.5, 0.5], [1, 0, 1, 0]).auc_roc == pytest.approx(0.5)
        assert _oracles.roc_auc_pairwise([0.5] * 4, [1, 0, 1, 0]) == 0.5

    def test_single_class_errors(self):
        for labels, counts in (([1, 1], "2 anomalous / 0 normal"), ([0, 0], "0 anomalous / 2 normal")):
            with pytest.raises(ValidationError, match=f"^auc_roc requires both labels present, got {counts}$"):
                compute_all([0.1, 0.2], labels, 0.10)

    def test_labels_are_checked_before_the_target(self):
        with pytest.raises(ValidationError, match="^auc_roc requires both labels present"):
            compute_all([0.1, 0.2], [1, 1], 1.5)
        for target in (-0.1, 1.0):
            with pytest.raises(ValidationError, match=rf"^target FNR must be in \[0, 1\), got {target}$"):
                compute_all([0.1, 0.2], [1, 0], target)

    def test_compute_all_report(self):
        rep = compute_all([0.9, 0.8, 0.7, 0.6], [1, 0, 1, 0])
        assert isinstance(rep, MetricReport)
        assert rep.n_pos == 2 and rep.n_neg == 2
        d = rep.as_dict()
        assert set(d) == {"auc_roc", "auc_pr", "eer", "ten_er", "n_pos", "n_neg"}


def batch_of(starts, length):
    """A WindowBatch of windows covering ``start + arange(length)`` for each start; its poses are never read."""
    zeros = np.zeros(len(starts), dtype=np.int64)
    return WindowBatch(np.zeros((length, 17, 2)), zeros, zeros, np.array(starts, dtype=np.int64), length)


def fold(window_scores, ds, aggregator):
    """aggregate_frame_scores of (covered frames, score) pairs: runs of consecutive frames, all of one length."""
    length = len(window_scores[0][0]) if window_scores else 1
    assert all(covered == tuple(range(covered[0], covered[0] + length)) for covered, _ in window_scores)
    batch = batch_of([covered[0] for covered, _ in window_scores], length)
    return aggregate_frame_scores(batch, np.array([score for _, score in window_scores]), ds, aggregator)


class TestAggregation:
    def make_dataset(self, n=12):
        return walking_dataset(n)

    def test_max_and_mean_reference(self):
        ds = self.make_dataset(6)
        window_scores = [((0, 1, 2), 0.2), ((1, 2, 3), 0.9)]
        s_max = fold(window_scores, ds, "max")
        s_mean = fold(window_scores, ds, "mean")
        by_frame_max = dict(zip(ds.frame_index.tolist(), s_max.tolist()))
        by_frame_mean = dict(zip(ds.frame_index.tolist(), s_mean.tolist()))
        assert by_frame_max[1] == pytest.approx(0.9)
        assert by_frame_mean[1] == pytest.approx(0.55)
        assert by_frame_max[0] == pytest.approx(0.2)
        # Frames 4 and 5 are uncovered: they take the minimum observed score.
        assert by_frame_max[4] == pytest.approx(0.2)
        assert by_frame_mean[5] == pytest.approx(0.2)

    def test_single_window_same_under_both(self):
        ds = self.make_dataset(4)
        for agg in ("max", "mean"):
            s = fold([((1, 2), 0.7)], ds, agg)
            by_frame = dict(zip(ds.frame_index.tolist(), s.tolist()))
            assert by_frame[1] == pytest.approx(0.7)

    def test_matches_scan_oracle(self, rng):
        ds = self.make_dataset(20)
        idx = ds.frame_index.tolist()
        for _ in range(50):
            n_windows = int(rng.integers(0, 8))
            length = int(rng.integers(1, 21))  # one length per batch, as extract_windows gives
            window_scores = []
            for _ in range(n_windows):
                a = int(rng.integers(0, 21 - length))
                window_scores.append((tuple(range(a, a + length)), float(rng.uniform(0, 1))))
            for agg in ("max", "mean"):
                got = fold(window_scores, ds, agg)
                want = _oracles.frame_scores_scan(window_scores, idx, agg)
                for fi, sc in zip(idx, got.tolist()):
                    assert sc == pytest.approx(want[fi], abs=1e-12), (agg, fi)

    def test_empty_scores_give_zeros(self):
        ds = self.make_dataset(3)
        s = fold([], ds, "max")
        assert s.tolist() == [0.0, 0.0, 0.0]

    def test_frames_the_dataset_lacks_are_dropped(self):
        # Frames 0-2: frame 3 of the first window is dropped, the second window covers no frame of
        # the dataset, and its score still sets the fill of the uncovered frames 0 and 1.
        ds = self.make_dataset(3)
        for agg in ("max", "mean"):
            assert fold([((2, 3), 0.5), ((3, 4), 0.2)], ds, agg).tolist() == [0.2, 0.2, 0.5]

    @pytest.mark.parametrize("rows", [[1, 0], [0, 0]], ids=["unsorted", "repeated"])
    def test_refuses_a_table_out_of_frame_order(self, rows):
        # The fold finds each covered frame by a binary search over frame_index.
        ds = self.make_dataset(2).take(rows)
        with pytest.raises(ValidationError, match="dataset 'cam0' must hold frames in strictly increasing"):
            fold([((0, 1), 0.4)], ds, "max")


@st.composite
def folding_case(draw):
    """A dataset with holes and a window batch; most windows touch one of its frames, some none."""
    present = draw(st.lists(st.integers(0, 40), min_size=1, max_size=30, unique=True).map(sorted))
    labels = draw(st.lists(st.booleans(), min_size=len(present), max_size=len(present)))
    frames = [
        make_frame(fi, label="anomalous" if y else "normal", persons=(make_obs(),))
        for fi, y in zip(present, labels)
    ]
    length = draw(st.integers(1, 8))
    n = draw(st.integers(0, 12))
    # A window covering a frame of the dataset, or one that may cover only frames it lacks.
    touching = st.tuples(st.sampled_from(present), st.integers(0, length - 1)).map(lambda a: a[0] - a[1])
    starts = draw(st.lists(st.one_of(touching, st.integers(-length, 44)), min_size=n, max_size=n))
    # Scores on a coarse grid, so windows often tie.
    scores = draw(st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0, 3.0]), min_size=n, max_size=n))
    return table(frames), batch_of(starts, length), np.array(scores, dtype=np.float64)


class TestFoldProperty:
    def test_uncovered_frames_take_minimum_of_every_window(self):
        # Frame 10 is uncovered; the 0.1 window covers only frames 2-4, which the dataset lacks.
        ds = table([make_frame(0), make_frame(10)])
        batch = batch_of([2, 0], 3)
        for aggregator in ("max", "mean"):
            got = aggregate_frame_scores(batch, np.array([0.1, 0.5]), ds, aggregator)
            assert got.tolist() == [0.5, 0.1]

    @settings(deadline=None, max_examples=80)
    @given(case=folding_case(), aggregator=st.sampled_from(["max", "mean"]))
    def test_fold_equals_scan_oracle(self, case, aggregator):
        # Windows may cover frames the dataset lacks; frames no window covers take the fill score.
        ds, batch, scores = case
        got = aggregate_frame_scores(batch, scores, ds, aggregator)
        covered = [tuple(row) for row in batch.covered_frames().tolist()]
        idx = ds.frame_index.tolist()
        want = _oracles.frame_scores_scan(list(zip(covered, scores.tolist())), idx, aggregator)
        assert got.dtype == np.float64
        assert got.tobytes() == np.array([want[fi] for fi in idx], dtype=np.float64).tobytes()
