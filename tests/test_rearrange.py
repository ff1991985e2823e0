from collections import Counter

import pytest

from posebench.errors import ValidationError
from posebench.model import CameraDataset, SplitSet
from posebench.rearrange import (
    RearrangePlan,
    TAG_INJECTED,
    TAG_MOVED_NORMAL,
    TAG_TEST_ANOMALY,
    TAG_TEST_NORMAL,
    TAG_TRAIN_NORMAL,
    rearrange,
    slice_stream,
    verify,
)
from conftest import make_frame, make_obs


def build_split(n_train=400, n_test_normal=120, n_test_anomaly=80, camera_id="cam0"):
    train = CameraDataset(
        camera_id=camera_id,
        frames=tuple(make_frame(i, camera_id=camera_id) for i in range(n_train)),
    )
    test_frames = [
        make_frame(n_train + i, camera_id=camera_id) for i in range(n_test_normal)
    ]
    test_frames += [
        make_frame(
            n_train + n_test_normal + i,
            label="anomalous",
            persons=(make_obs(),),
            camera_id=camera_id,
        )
        for i in range(n_test_anomaly)
    ]
    test = CameraDataset(camera_id=camera_id, frames=tuple(test_frames))
    return SplitSet(train=train, test=test)


def frame_key(frame):
    return (frame.frame_index, frame.label)


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
        stream_anoms = [f for f in cs.train_stream if f.is_anomalous]
        assert len(stream_anoms) == 3
        # 400 original + 3 injected + 43 normals moved out of the test set
        # by balancing (120 normals vs 77 remaining anomalies).
        assert len(cs.train_stream) == 446
        n_anom_test = sum(f.is_anomalous for f in cs.test.frames)
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
        n_inject = sum(f.is_anomalous for f in cs.train_stream)
        ratio = n_inject / len(cs.train_stream)
        assert ratio < 0.01
        # One more injected frame would cross the target ratio or break
        # feasibility; check the chosen count is maximal.
        next_ratio = (n_inject + 1) / (len(cs.train_stream) + 1)
        kept = sum(not f.is_anomalous for f in cs.test.frames)
        remaining = 500 - (n_inject + 1)
        assert next_ratio >= 0.01 or remaining <= 0 or kept == 0

    def test_conservation_multiset(self):
        split = build_split()
        cs = rearrange(split, RearrangePlan(seed=3, inject_count=3))
        before = Counter(map(frame_key, list(split.train.frames) + list(split.test.frames)))
        after = Counter(
            map(frame_key, list(cs.train_stream) + list(cs.test.frames))
        )
        # Frames move between train and test but none appear or vanish.
        assert before == after

    def test_provenance_tags(self):
        split = build_split()
        cs = rearrange(split, RearrangePlan(seed=4, inject_count=3))
        tags = Counter(cs.provenance.values())
        assert tags[TAG_INJECTED] == 3
        assert tags[TAG_TRAIN_NORMAL] == 400
        assert tags[TAG_TEST_ANOMALY] == 77
        assert tags[TAG_TEST_NORMAL] + tags[TAG_MOVED_NORMAL] == 120

    def test_determinism(self):
        split = build_split()
        plan = RearrangePlan(seed=5, inject_count=3)
        a = rearrange(split, plan)
        b = rearrange(split, plan)
        assert [f.frame_index for f in a.train_stream] == [f.frame_index for f in b.train_stream]
        assert [f.frame_index for f in a.test.frames] == [f.frame_index for f in b.test.frames]
        assert a.provenance == b.provenance

    def test_different_seeds_differ(self):
        split = build_split()
        a = rearrange(split, RearrangePlan(seed=6, inject_count=3))
        b = rearrange(split, RearrangePlan(seed=7, inject_count=3))
        assert [f.frame_index for f in a.train_stream] != [f.frame_index for f in b.train_stream]

    def test_needs_both_test_labels(self):
        train = CameraDataset(camera_id="cam0", frames=(make_frame(0),))
        test = CameraDataset(camera_id="cam0", frames=(make_frame(1),))
        with pytest.raises(ValidationError):
            rearrange(SplitSet(train=train, test=test), RearrangePlan(seed=0, inject_count=0))


class TestBalanceRule:
    def test_within_tolerance_keeps_all_normals(self):
        # 120 normals vs 77 remaining anomalies is way out of tolerance, so
        # normals get sampled down to exactly 77.
        split = build_split()
        cs = rearrange(split, RearrangePlan(seed=1, inject_count=3))
        kept = sum(not f.is_anomalous for f in cs.test.frames)
        assert kept == 77

    def test_balanced_input_untouched(self):
        split = build_split(n_test_normal=100, n_test_anomaly=103)
        cs = rearrange(split, RearrangePlan(seed=1, inject_count=3))
        kept = sum(not f.is_anomalous for f in cs.test.frames)
        anoms = sum(f.is_anomalous for f in cs.test.frames)
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
        cs.slices[0].append(cs.slices[1][0])
        with pytest.raises(ValidationError, match="invariant violated"):
            verify(cs)

    def test_rejects_label_flip(self):
        split = build_split()
        cs = rearrange(split, RearrangePlan(seed=10, inject_count=3))
        victim = cs.train_stream[0]
        flipped = make_frame(victim.frame_index, label="anomalous", persons=(make_obs(),))
        cs.train_stream[0] = flipped
        with pytest.raises(ValidationError, match="invariant violated"):
            verify(cs)
