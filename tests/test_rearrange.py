from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posebench.errors import PosebenchError, ValidationError
from posebench.model import SplitSet
from posebench.rearrange import (
    RearrangePlan,
    STREAM_TAGS,
    TAG_INJECTED,
    TAG_MOVED_NORMAL,
    TAG_TEST_ANOMALY,
    TAG_TEST_NORMAL,
    TAG_TRAIN_NORMAL,
    TAGS,
    TEST_TAGS,
    rearrange,
    slice_stream,
    verify,
)
from conftest import INVARIANTS, break_invariant, make_frame, make_obs, table


def build_split(n_train=400, n_test_normal=120, n_test_anomaly=80):
    train = table([make_frame(i) for i in range(n_train)])
    test_frames = [make_frame(n_train + i) for i in range(n_test_normal)]
    test_frames += [
        make_frame(n_train + n_test_normal + i, label="anomalous", persons=(make_obs(),))
        for i in range(n_test_anomaly)
    ]
    test = table(test_frames)
    return SplitSet(train=train, test=test)


def frame_keys(frames):
    return list(zip(frames.frame_index.tolist(), frames.anomalous.tolist()))


def stream_frames(cs):
    return cs.training_frames(cs.train_stream)


def balanced_test(cs):
    """The balanced test set, as run-continual and posebench rearrange build it."""
    return cs.split.test.take(cs.test_rows)


def stream_index(cs):
    return stream_frames(cs).frame_index.tolist()


def split_column(cs, name):
    """Column ``name`` of every row of the split: the train frames, then the test frames."""
    return np.concatenate([getattr(cs.split.train, name), getattr(cs.split.test, name)])


def tag_names(cs, rows=None):
    """The tag of each row of the split, or of ``rows``, by name."""
    names = cs.tags(np.arange(len(cs.split.train) + len(cs.split.test)) if rows is None else rows).tolist()
    assert set(names) <= set(TAGS)
    return names


class TestPlan:
    def test_defaults(self):
        plan = RearrangePlan(seed=0)
        assert plan.k == 9
        assert plan.target_train_anomaly_ratio == pytest.approx(0.01)
        assert plan.balance_tolerance == pytest.approx(0.002)

    def test_validation(self):
        with pytest.raises(ValidationError):
            RearrangePlan(seed=0, k=0)
        with pytest.raises(ValidationError):
            RearrangePlan(seed=0, target_train_anomaly_ratio=0.0)
        with pytest.raises(ValidationError):
            RearrangePlan(seed=0, inject_count=-1)
        with pytest.raises(ValidationError):
            RearrangePlan(seed=0, balance_tolerance=1.0)


class TestSliceStream:
    def test_remainder_goes_to_early_slices(self):
        slices = slice_stream(list(range(10)), 3)
        assert [len(s) for s in slices] == [4, 3, 3]

    def test_partition_preserves_order(self):
        items = list(range(23))
        slices = slice_stream(items, 5)
        flat = [x for s in slices for x in s]
        assert flat == items

    def test_too_few_items(self):
        with pytest.raises(ValidationError):
            slice_stream([1, 2], 3)


class TestRearrange:
    def test_explicit_inject_count(self):
        split = build_split()
        cs = rearrange(split, RearrangePlan(seed=1, inject_count=3))
        assert int(stream_frames(cs).anomalous.sum()) == 3
        # 400 original + 3 injected + 43 normals moved out of the test set
        # by balancing (120 normals vs 77 remaining anomalies).
        assert len(cs.train_stream) == 446
        n_anom_test = int(balanced_test(cs).anomalous.sum())
        assert n_anom_test == 77

    def test_anomaly_ratio_under_target(self):
        split = build_split()
        cs = rearrange(split, RearrangePlan(seed=1, inject_count=3))
        ratio = 3 / len(cs.train_stream)
        assert ratio < 0.01

    def test_inject_count_must_leave_test_anomalies(self):
        split = build_split(n_test_anomaly=5)
        with pytest.raises(ValidationError):
            rearrange(split, RearrangePlan(seed=0, inject_count=5))

    def test_auto_inject_picks_largest_feasible(self):
        split = build_split(n_train=4000, n_test_normal=600, n_test_anomaly=500)
        cs = rearrange(split, RearrangePlan(seed=2))
        n_inject = int(stream_frames(cs).anomalous.sum())
        ratio = n_inject / len(cs.train_stream)
        assert ratio < 0.01
        # One more injected frame would cross the target ratio or break
        # feasibility; check the chosen count is maximal.
        next_ratio = (n_inject + 1) / (len(cs.train_stream) + 1)
        kept = int((~balanced_test(cs).anomalous).sum())
        remaining = 500 - (n_inject + 1)
        assert next_ratio >= 0.01 or remaining <= 0 or kept == 0

    def test_conservation_multiset(self):
        split = build_split()
        cs = rearrange(split, RearrangePlan(seed=3, inject_count=3))
        before = Counter(frame_keys(split.train) + frame_keys(split.test))
        after = Counter(frame_keys(stream_frames(cs)) + frame_keys(balanced_test(cs)))
        # Frames move between train and test but none appear or vanish.
        assert before == after

    def test_provenance_tags(self):
        split = build_split()
        cs = rearrange(split, RearrangePlan(seed=4, inject_count=3))
        tags = Counter(tag_names(cs))
        assert tags[TAG_INJECTED] == 3
        assert tags[TAG_TRAIN_NORMAL] == 400
        assert tags[TAG_TEST_ANOMALY] == 77
        assert tags[TAG_TEST_NORMAL] + tags[TAG_MOVED_NORMAL] == 120

    def test_determinism(self):
        split = build_split()
        plan = RearrangePlan(seed=5, inject_count=3)
        a = rearrange(split, plan)
        b = rearrange(split, plan)
        assert stream_index(a) == stream_index(b)
        assert balanced_test(a).frame_index.tolist() == balanced_test(b).frame_index.tolist()
        assert tag_names(a) == tag_names(b)

    def test_different_seeds_differ(self):
        split = build_split()
        a = rearrange(split, RearrangePlan(seed=6, inject_count=3))
        b = rearrange(split, RearrangePlan(seed=7, inject_count=3))
        assert stream_index(a) != stream_index(b)

    def test_needs_both_test_labels(self):
        train = table([make_frame(0)])
        test = table([make_frame(1)])
        with pytest.raises(ValidationError):
            rearrange(SplitSet(train=train, test=test), RearrangePlan(seed=0, inject_count=0))


class TestBalanceRule:
    def test_within_tolerance_keeps_all_normals(self):
        # 120 normals vs 77 remaining anomalies is way out of tolerance, so
        # normals get sampled down to exactly 77.
        split = build_split()
        cs = rearrange(split, RearrangePlan(seed=1, inject_count=3))
        kept = int((~balanced_test(cs).anomalous).sum())
        assert kept == 77

    def test_balanced_input_untouched(self):
        split = build_split(n_test_normal=100, n_test_anomaly=103)
        cs = rearrange(split, RearrangePlan(seed=1, inject_count=3))
        test = balanced_test(cs)
        kept = int((~test.anomalous).sum())
        anoms = int(test.anomalous.sum())
        assert kept == 100
        assert anoms == 100
        assert abs(kept - anoms) / (kept + anoms) <= 0.002


class TestVerify:
    def test_accepts_valid_split(self):
        split = build_split()
        cs = rearrange(split, RearrangePlan(seed=8, inject_count=3))
        verify(cs)

    def test_rejects_tampered_slices(self):
        split = build_split()
        cs = rearrange(split, RearrangePlan(seed=9, inject_count=3))
        cs.slices[0] = np.append(cs.slices[0], cs.slices[1][0])
        with pytest.raises(PosebenchError, match="invariant violated") as excinfo:
            verify(cs)
        assert excinfo.type is PosebenchError  # a program fault, not a data error

    def test_rejects_test_row_dropped_from_test_rows(self):
        # A tolerance of 0.01 keeps 76 normals against 77 anomalies balanced, so only the placement count sees it.
        cs = rearrange(build_split(), RearrangePlan(seed=12, inject_count=3, balance_tolerance=0.01))
        cs.test_rows = np.delete(cs.test_rows, 4)
        n = len(cs.split.train) + len(cs.split.test)
        message = f"invariant violated: stream and test set place {n - 1} of {n} rows"
        with pytest.raises(PosebenchError, match=message) as excinfo:
            verify(cs)
        assert excinfo.type is PosebenchError  # a program fault, not a data error

    def test_rejects_stream_row_that_is_also_a_test_row(self):
        cs = rearrange(build_split(), RearrangePlan(seed=14, inject_count=3, balance_tolerance=0.01))
        stream, n_train = cs.train_stream, len(cs.split.train)
        row = stream[(stream >= n_train) & ~split_column(cs, "anomalous")[stream]][0]  # a moved normal
        cs.test_rows = np.sort(np.append(cs.test_rows, row - n_train))
        fi = split_column(cs, "frame_index")[row]
        message = f"invariant violated: frame {fi} is placed more than once, in the training stream and test set"
        with pytest.raises(PosebenchError, match=message) as excinfo:
            verify(cs)
        assert excinfo.type is PosebenchError  # a program fault, not a data error

    def test_rejects_stream_missing_a_row(self):
        # Dropping one normal from the largest slice keeps the slice sizes within one and the
        # anomaly fraction under target, so only the row count sees the row placed nowhere.
        cs = rearrange(build_split(), RearrangePlan(seed=15, inject_count=3))
        largest = max(range(len(cs.slices)), key=lambda i: len(cs.slices[i]))
        normal = np.flatnonzero(~split_column(cs, "anomalous")[cs.slices[largest]])[0]
        cs.slices[largest] = np.delete(cs.slices[largest], normal)
        n = len(cs.split.train) + len(cs.split.test)
        message = f"invariant violated: stream and test set place {n - 1} of {n} rows"
        with pytest.raises(PosebenchError, match=message) as excinfo:
            verify(cs)
        assert excinfo.type is PosebenchError  # a program fault, not a data error


    @pytest.mark.parametrize("invariant", INVARIANTS)
    def test_rejects_a_broken_invariant(self, invariant):
        cs = rearrange(build_split(), RearrangePlan(seed=17, inject_count=3))
        message = break_invariant(cs, invariant)
        with pytest.raises(PosebenchError, match=rf"^invariant violated: {message}$") as excinfo:
            verify(cs)
        assert excinfo.type is PosebenchError  # a program fault, not a data error


class TestTrainingFrames:
    def test_returns_the_frames_of_stream_rows(self):
        cs = rearrange(build_split(), RearrangePlan(seed=15, inject_count=3))
        keys = frame_keys(cs.split.train) + frame_keys(cs.split.test)
        for rows in (cs.slices[0], cs.train_stream):
            got = cs.training_frames(rows)
            assert frame_keys(got) == [keys[r] for r in rows]

    @pytest.mark.parametrize("anomalous,tag", [(False, "test_normal"), (True, "test_anomaly")])
    def test_refuses_a_test_row(self, anomalous, tag):
        cs = rearrange(build_split(), RearrangePlan(seed=16, inject_count=3))
        test_rows, test = cs.test_rows, cs.split.test
        row = test_rows[test.anomalous[test_rows] == anomalous][0]
        rows = np.concatenate([cs.slices[0][:10], [row + len(cs.split.train)], cs.slices[0][10:]])
        message = rf"^test leakage: frame {test.frame_index[row]} \(tag '{tag}'\) must not be trained on$"
        with pytest.raises(PosebenchError, match=message) as excinfo:
            cs.training_frames(rows)
        assert excinfo.type is PosebenchError  # a program fault, not a data error


class TestRearrangeProperty:
    @settings(deadline=None, max_examples=150)
    @given(
        n_train=st.integers(0, 300),
        n_test_normal=st.integers(0, 150),
        n_test_anomaly=st.integers(0, 60),
        k=st.integers(1, 40),
        inject_count=st.one_of(st.none(), st.integers(-1, 6), st.integers(0, 65)),
        ratio=st.sampled_from([0.01, 0.05, 0.3]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_verifies_or_rejects(self, n_train, n_test_normal, n_test_anomaly, k, inject_count, ratio, seed):
        # Every shape either gives a split that verify accepts, with the frames partitioned
        # and tagged, or fails with ValidationError; no other exception.
        split = build_split(n_train, n_test_normal, n_test_anomaly)
        try:
            plan = RearrangePlan(seed=seed, inject_count=inject_count, target_train_anomaly_ratio=ratio, k=k)
            cs = rearrange(split, plan)
        except ValidationError:
            return
        verify(cs)
        stream, test = stream_frames(cs), balanced_test(cs)
        assert Counter(frame_keys(stream) + frame_keys(test)) == Counter(
            frame_keys(split.train) + frame_keys(split.test)
        )
        assert np.array_equal(np.concatenate(cs.slices), cs.train_stream)
        sizes = [len(s) for s in cs.slices]
        assert max(sizes) - min(sizes) <= 1
        assert set(tag_names(cs, cs.train_stream)) <= set(STREAM_TAGS)
        assert set(tag_names(cs, cs.test_rows + len(cs.split.train))) <= set(TEST_TAGS)
        assert np.all(np.diff(cs.test_rows) > 0)
        assert len(tag_names(cs)) == n_train + n_test_normal + n_test_anomaly
        injected = int(stream.anomalous.sum())
        assert Counter(tag_names(cs))[TAG_INJECTED] == injected
        if inject_count is not None:
            assert injected == inject_count
