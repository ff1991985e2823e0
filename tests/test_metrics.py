import numpy as np
import pytest

from posebench.errors import ValidationError
from posebench.metrics import (
    MetricReport,
    ScoreSeries,
    aggregate_frame_scores,
    auc_pr,
    auc_roc,
    compute_all,
    eer,
    fpr_at_fnr,
)
from conftest import dataset, make_frame, make_obs, walking_dataset
import _oracles


def series(scores, labels):
    return ScoreSeries.from_entries(
        [(i, float(s), "anomalous" if y else "normal") for i, (s, y) in enumerate(zip(scores, labels))]
    )


class TestScoreSeries:
    def test_requires_unique_frames(self):
        with pytest.raises(ValidationError):
            ScoreSeries.from_entries([(0, 0.1, "normal"), (0, 0.2, "anomalous")])

    def test_requires_finite_scores(self):
        with pytest.raises(ValidationError):
            ScoreSeries.from_entries([(0, float("nan"), "normal")])

    def test_counts(self):
        s = series([0.1, 0.2, 0.3], [0, 1, 1])
        assert (s.n_pos, s.n_neg) == (2, 1)


class TestFourPointFixture:
    # (0.9, anomalous), (0.8, normal), (0.7, anomalous), (0.6, normal)
    def fixture(self):
        return series([0.9, 0.8, 0.7, 0.6], [1, 0, 1, 0])

    def test_auc_roc(self):
        assert auc_roc(self.fixture()) == pytest.approx(0.75, abs=1e-12)

    def test_auc_pr(self):
        assert auc_pr(self.fixture()) == pytest.approx(0.8333, abs=1e-4)

    def test_eer(self):
        assert eer(self.fixture()) == pytest.approx(0.5, abs=1e-12)

    def test_ten_er(self):
        assert fpr_at_fnr(self.fixture(), 0.10) == pytest.approx(0.5, abs=1e-12)


class TestAgainstOracles:
    def test_roc_matches_both_oracles(self, rng):
        for _ in range(300):
            scores, labels = _oracles.random_series(rng)
            s = series(scores, labels)
            got = auc_roc(s)
            assert got == pytest.approx(_oracles.roc_auc_pairwise(scores, labels), abs=1e-9)
            assert got == pytest.approx(_oracles.roc_auc_trapezoid(scores, labels), abs=1e-9)

    def test_pr_matches_oracle(self, rng):
        for _ in range(300):
            scores, labels = _oracles.random_series(rng)
            got = auc_pr(series(scores, labels))
            assert got == pytest.approx(_oracles.average_precision(scores, labels), abs=1e-6)

    def test_eer_matches_scan(self, rng):
        for _ in range(300):
            scores, labels = _oracles.random_series(rng)
            got = eer(series(scores, labels))
            assert got == pytest.approx(_oracles.eer_scan(scores, labels), abs=1e-9)

    def test_ten_er_matches_scan(self, rng):
        for _ in range(300):
            scores, labels = _oracles.random_series(rng)
            got = fpr_at_fnr(series(scores, labels), 0.10)
            assert got == pytest.approx(_oracles.fpr_at_fnr_scan(scores, labels, 0.10), abs=1e-9)


class TestEdgeBehavior:
    def test_perfect_separation(self):
        s = series([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0])
        assert auc_roc(s) == 1.0
        assert auc_pr(s) == 1.0
        assert eer(s) == 0.0
        assert fpr_at_fnr(s, 0.10) == 0.0

    def test_inverted_separation(self):
        s = series([0.9, 0.8, 0.2, 0.1], [0, 0, 1, 1])
        assert auc_roc(s) == 0.0

    def test_all_tied_scores(self):
        s = series([0.5, 0.5, 0.5, 0.5], [1, 0, 1, 0])
        assert auc_roc(s) == pytest.approx(0.5)
        assert _oracles.roc_auc_pairwise([0.5] * 4, [1, 0, 1, 0]) == 0.5

    def test_single_class_errors(self):
        s = series([0.1, 0.2], [1, 1])
        for fn in (auc_roc, eer):
            with pytest.raises(ValidationError):
                fn(s)
        with pytest.raises(ValidationError):
            fpr_at_fnr(s, 0.10)

    def test_compute_all_report(self):
        rep = compute_all(series([0.9, 0.8, 0.7, 0.6], [1, 0, 1, 0]))
        assert isinstance(rep, MetricReport)
        assert rep.n_pos == 2 and rep.n_neg == 2
        d = rep.as_dict()
        assert set(d) == {"auc_roc", "auc_pr", "eer", "ten_er", "n_pos", "n_neg"}


def fold(window_scores, ds, aggregator):
    """aggregate_frame_scores of (covered frames, score) pairs, one entry per covered frame."""
    frames = [fi for covered, _ in window_scores for fi in covered]
    scores = [score for covered, score in window_scores for _ in covered]
    return aggregate_frame_scores(frames, scores, ds, aggregator)


class TestAggregation:
    def make_dataset(self, n=12):
        return walking_dataset(n)

    def test_max_and_mean_reference(self):
        ds = self.make_dataset(6)
        window_scores = [((0, 1, 2), 0.2), ((1, 2, 3), 0.9)]
        s_max = fold(window_scores, ds, "max")
        s_mean = fold(window_scores, ds, "mean")
        by_frame_max = dict(zip(s_max.frame_index.tolist(), s_max.scores.tolist()))
        by_frame_mean = dict(zip(s_mean.frame_index.tolist(), s_mean.scores.tolist()))
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
            by_frame = dict(zip(s.frame_index.tolist(), s.scores.tolist()))
            assert by_frame[1] == pytest.approx(0.7)

    def test_matches_scan_oracle(self, rng):
        ds = self.make_dataset(20)
        idx = ds.frames.frame_index.tolist()
        for _ in range(50):
            n_windows = int(rng.integers(0, 8))
            window_scores = []
            for _ in range(n_windows):
                a = int(rng.integers(0, 18))
                b = int(rng.integers(a + 1, 21))
                window_scores.append((tuple(range(a, b)), float(rng.uniform(0, 1))))
            for agg in ("max", "mean"):
                got = fold(window_scores, ds, agg)
                want = _oracles.frame_scores_scan(window_scores, idx, agg)
                for fi, sc in zip(got.frame_index.tolist(), got.scores.tolist()):
                    assert sc == pytest.approx(want[fi], abs=1e-12), (agg, fi)

    def test_empty_scores_give_zeros(self):
        ds = self.make_dataset(3)
        s = fold([], ds, "max")
        assert s.scores.tolist() == [0.0, 0.0, 0.0]

    def test_unknown_frame_rejected(self):
        ds = self.make_dataset(3)
        with pytest.raises(ValidationError):
            fold([((2, 3), 0.5)], ds, "max")

    def test_labels_copied_from_dataset(self):
        frames = (
            make_frame(0),
            make_frame(1, label="anomalous", persons=(make_obs(),)),
        )
        ds = dataset(frames)
        s = fold([((0, 1), 0.4)], ds, "max")
        assert s.anomalous.tolist() == [False, True]
