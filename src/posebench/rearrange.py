"""Continual-protocol data rearrangement.

Starting from a standard split (all-normal train set, mixed test set), the
rearrangement builds an unlabeled training stream and a balanced test set:

1. A seeded sample of ``inject_count`` test anomalies moves into the
   training stream ("injected"), keeping the stream's anomaly fraction
   strictly below the target ratio.
2. The remaining test anomalies stay in the test set. If the test set's
   normal/anomalous imbalance is already within ``balance_tolerance``, all
   test normals stay put; otherwise a seeded sample of exactly as many
   normals as remaining anomalies stays and the excess normals move into
   the training stream ("moved").
3. The stream is the original train normals followed by the moved normals,
   each in temporal order, with the injected anomalies placed at seeded
   uniform positions. It is then cut into k contiguous slices whose sizes
   differ by at most one, earlier slices taking the remainder.

When ``inject_count`` is omitted, the largest count that keeps the stream
anomaly fraction below target while leaving the test set balanceable is
chosen. The split stores only this partition, as rows of the standard split's
train and test tables, and frames are read from those tables where used. A
row's provenance tag follows from where it came from and where it went
(``ContinualSplit.tags``), and ``ContinualSplit.training_frames`` refuses to
hand a test-tagged row to training. All sampling uses numpy's default_rng
(PCG64) seeded from the plan, so results are reproducible byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, PosebenchError, ValidationError, check_int, is_number
from .model import FrameTable, SplitSet

TAG_TRAIN_NORMAL = "orig_train_normal"
TAG_MOVED_NORMAL = "moved_test_normal"
TAG_INJECTED = "injected_anomaly"
TAG_TEST_NORMAL = "test_normal"
TAG_TEST_ANOMALY = "test_anomaly"

STREAM_TAGS = (TAG_TRAIN_NORMAL, TAG_MOVED_NORMAL, TAG_INJECTED)
TEST_TAGS = (TAG_TEST_NORMAL, TAG_TEST_ANOMALY)
TAGS = STREAM_TAGS + TEST_TAGS


@dataclass(frozen=True)
class RearrangePlan:
    """Parameters controlling the rearrangement."""

    seed: int
    inject_count: int | None = None
    target_train_anomaly_ratio: float = 0.01
    k: int = 9
    balance_tolerance: float = 0.002

    def __post_init__(self):
        check_int("plan seed", self.seed)
        if self.inject_count is not None:
            check_int("inject_count", self.inject_count)
        ratio, tolerance = self.target_train_anomaly_ratio, self.balance_tolerance
        if not (is_number(ratio) and 0.0 < ratio < 1.0):
            raise ValidationError(f"target_train_anomaly_ratio must be a number in (0, 1), got {ratio!r}")
        check_int("k", self.k, 1)
        if not (is_number(tolerance) and 0.0 <= tolerance < 1.0):
            raise ValidationError(f"balance_tolerance must be a number in [0, 1), got {tolerance!r}")


@dataclass
class ContinualSplit:
    """Result of the rearrangement: the rows of ``split`` partitioned into stream slices and a balanced test set.

    ``slices`` are the k contiguous pieces of the training stream, as rows in
    stream order: row ``r < len(split.train)`` is a train row, any other is
    test row ``r - len(split.train)``. ``test_rows`` are the rows of
    ``split.test`` in the balanced test set, in increasing order. Frames are
    read from the split's two tables where used; ``tags`` derives each tag.
    """

    split: SplitSet
    slices: list[np.ndarray]
    test_rows: np.ndarray
    plan: RearrangePlan

    @property
    def train_stream(self) -> np.ndarray:
        """The training stream as rows: the slices in turn."""
        return np.concatenate(self.slices)

    def frame_index(self, rows: np.ndarray) -> np.ndarray:
        """The frame index of each of ``rows``: row ``r < len(split.train)`` is train row ``r``, any other is test
        row ``r - len(split.train)``."""
        return np.concatenate([self.split.train.frame_index, self.split.test.frame_index])[rows]

    def tags(self, rows: np.ndarray) -> np.ndarray:
        """The provenance tag of each of ``rows``, by name.

        A train row is ``orig_train_normal``. A test row is ``test_normal`` or
        ``test_anomaly`` by its label if it stayed in the test set, and
        ``moved_test_normal`` or ``injected_anomaly`` if it went to the stream.
        """
        n_train = len(self.split.train)
        test = np.maximum(rows - n_train, 0)  # a train row reads test row 0, and its code is not used
        stayed = np.searchsorted(self.test_rows, test, "right") > np.searchsorted(self.test_rows, test)
        code = np.where(stayed, TAGS.index(TAG_TEST_NORMAL), TAGS.index(TAG_MOVED_NORMAL))
        code += self.split.test.anomalous[test]
        return np.array(TAGS)[np.where(rows < n_train, TAGS.index(TAG_TRAIN_NORMAL), code)]

    def training_frames(self, rows: np.ndarray) -> FrameTable:
        """The frames at ``rows``, raising ``PosebenchError`` (a program fault) on the first row with a test tag."""
        tags = self.tags(rows)
        leaked = np.flatnonzero((tags == TAG_TEST_NORMAL) | (tags == TAG_TEST_ANOMALY))
        if leaked.size:
            fi = self.frame_index(rows[leaked[0]])
            raise PosebenchError(f"test leakage: frame {fi} (tag {str(tags[leaked[0]])!r}) must not be trained on")
        return self.split.train.take(rows, self.split.test)


def _imbalance(n_normal: int, n_anomalous: int) -> float:
    return abs(n_normal - n_anomalous) / (n_normal + n_anomalous)


def _kept_normals(n_test_normal: int, n_remaining_anoms: int, tolerance: float):
    """How many test normals stay, or None when balancing is impossible."""
    if _imbalance(n_test_normal, n_remaining_anoms) <= tolerance:
        return n_test_normal
    if n_test_normal > n_remaining_anoms:
        return n_remaining_anoms
    return None


def _auto_inject_count(n_train_normal: int, n_test_normal: int, n_test_anoms: int, plan: RearrangePlan) -> int:
    """Largest inject count below the anomaly-ratio target with a balanceable test set."""
    for inject in range(n_test_anoms - 1, -1, -1):
        remaining = n_test_anoms - inject
        kept = _kept_normals(n_test_normal, remaining, plan.balance_tolerance)
        if kept is None:
            continue
        moved = n_test_normal - kept
        total = n_train_normal + moved + inject
        if total > 0 and inject / total < plan.target_train_anomaly_ratio:
            return inject
    raise InputError(
        "no injection count keeps the train anomaly fraction below "
        f"{plan.target_train_anomaly_ratio} with a balanceable test set",
        "train",
        "test",
    )


def slice_stream(stream, k: int) -> list:
    """Cut a stream into k contiguous non-empty slices, sizes differing by at most 1.

    Earlier slices take the remainder: 10 frames at k=3 give sizes 4, 3, 3.
    """
    n = len(stream)
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    if n < k:
        raise InputError(f"cannot cut {n} frames into {k} non-empty slices", "train", "test")
    base, rem = divmod(n, k)
    ends = np.cumsum([0] + [base + 1] * rem + [base] * (k - rem)).tolist()
    return [stream[a:b] for a, b in zip(ends, ends[1:])]


def rearrange(split: SplitSet, plan: RearrangePlan) -> ContinualSplit:
    """Rearrange a standard split into a continual training stream and balanced test set."""
    n_train = len(split.train)
    anoms = np.flatnonzero(split.test.anomalous)
    norms = np.flatnonzero(~split.test.anomalous)
    if not anoms.size:
        raise InputError("test set has no anomalous frames to rearrange", "test")
    if not norms.size:
        raise InputError("test set has no normal frames", "test")

    if plan.inject_count is not None:
        inject = plan.inject_count
        if inject >= len(anoms):
            raise InputError(f"inject_count {inject} must leave at least one of {len(anoms)} test anomalies", "test")
    else:
        inject = _auto_inject_count(n_train, len(norms), len(anoms), plan)

    rng = np.random.default_rng(plan.seed)

    inj_idx = rng.choice(len(anoms), size=inject, replace=False) if inject else np.empty(0, dtype=np.int64)
    injected = anoms[inj_idx] + n_train
    kept_anoms = np.delete(anoms, inj_idx)

    kept_target = _kept_normals(len(norms), len(kept_anoms), plan.balance_tolerance)
    if kept_target is None:
        raise InputError(
            f"test set cannot be balanced within tolerance {plan.balance_tolerance}: "
            f"{len(norms)} normals vs {len(kept_anoms)} anomalies",
            "test",
        )
    keep = np.ones(len(norms), dtype=bool)
    if kept_target != len(norms):
        keep[:] = False
        keep[rng.choice(len(norms), size=kept_target, replace=False)] = True
    kept_norms, moved = norms[keep], norms[~keep]

    test_rows = np.sort(np.concatenate([kept_norms, kept_anoms]))

    stream = np.concatenate([np.arange(n_train), moved + n_train])
    total = len(stream) + len(injected)
    if total == 0:
        raise InputError("training stream would be empty", "train", "test")
    if len(injected):
        slots = rng.choice(total, size=len(injected), replace=False)
        base, stream = stream, np.empty(total, dtype=np.int64)
        stream[slots] = injected
        stream[np.delete(np.arange(total), slots)] = base

    fraction = len(injected) / len(stream)
    if fraction >= plan.target_train_anomaly_ratio:
        raise InputError(
            f"train anomaly fraction {fraction:.6f} is not below the target {plan.target_train_anomaly_ratio}",
            "train",
            "test",
        )

    return ContinualSplit(split, slice_stream(stream, plan.k), test_rows, plan)


def verify(cs: ContinualSplit) -> None:
    """Recompute counts and assert every rearrangement invariant.

    Raises ``PosebenchError`` (a program fault, not bad data) naming the first violated invariant.
    """
    plan = cs.plan
    if len(cs.slices) != plan.k:
        raise PosebenchError(f"invariant violated: expected {plan.k} slices, found {len(cs.slices)}")
    sizes = [len(sl) for sl in cs.slices]
    if min(sizes) == 0:
        raise PosebenchError("invariant violated: empty slice")
    if max(sizes) - min(sizes) > 1:
        raise PosebenchError(f"invariant violated: slice sizes differ by more than 1 ({sizes})")

    # Train frames are normal (SplitSet), so the stream's anomalies are its test rows' anomalies.
    n_train, test, stream = len(cs.split.train), cs.split.test, cs.train_stream
    fraction = int(test.anomalous[stream[stream >= n_train] - n_train].sum()) / len(stream)
    if fraction >= plan.target_train_anomaly_ratio:
        raise PosebenchError(
            f"invariant violated: train anomaly fraction {fraction:.6f} >= target "
            f"{plan.target_train_anomaly_ratio}"
        )

    n_test_anom = int(test.anomalous[cs.test_rows].sum())
    n_test_norm = len(cs.test_rows) - n_test_anom
    if n_test_anom == 0 or n_test_norm == 0:
        raise PosebenchError("invariant violated: test set must keep both labels")
    if _imbalance(n_test_norm, n_test_anom) > plan.balance_tolerance:
        raise PosebenchError(
            f"invariant violated: test imbalance {_imbalance(n_test_norm, n_test_anom):.6f} "
            f"exceeds tolerance {plan.balance_tolerance}"
        )

    # Stream and test set partition the split's rows when they place each row exactly once.
    n = n_train + len(test)
    placed = np.bincount(np.concatenate([stream, cs.test_rows + n_train]), minlength=n)
    twice = np.flatnonzero(placed > 1)
    if twice.size:
        # test_rows are strictly increasing, so a row placed twice is in the stream.
        where = "training stream and test set" if np.count_nonzero(stream == twice[0]) == 1 else "training stream"
        fi = cs.frame_index(twice[0])
        raise PosebenchError(f"invariant violated: frame {fi} is placed more than once, in the {where}")
    if not placed.all():
        raise PosebenchError(f"invariant violated: stream and test set place {np.count_nonzero(placed)} of {n} rows")
