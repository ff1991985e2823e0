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
chosen. Every frame gets a provenance tag so downstream code can prove no
test frame is ever trained on. All sampling uses numpy's default_rng
(PCG64) seeded from the plan, so results are reproducible byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .model import CameraDataset, FrameRecord, SplitSet

TAG_TRAIN_NORMAL = "orig_train_normal"
TAG_MOVED_NORMAL = "moved_test_normal"
TAG_INJECTED = "injected_anomaly"
TAG_TEST_NORMAL = "test_normal"
TAG_TEST_ANOMALY = "test_anomaly"

STREAM_TAGS = (TAG_TRAIN_NORMAL, TAG_MOVED_NORMAL, TAG_INJECTED)
TEST_TAGS = (TAG_TEST_NORMAL, TAG_TEST_ANOMALY)


@dataclass(frozen=True)
class RearrangePlan:
    """Parameters controlling the rearrangement."""

    seed: int
    inject_count: int | None = None
    target_train_anomaly_ratio: float = 0.01
    k: int = 9
    balance_tolerance: float = 0.002

    def __post_init__(self):
        if not isinstance(self.seed, int):
            raise ValidationError(f"plan seed must be an integer, got {self.seed!r}")
        if self.inject_count is not None and (
            not isinstance(self.inject_count, int) or self.inject_count < 0
        ):
            raise ValidationError(f"inject_count must be a non-negative integer, got {self.inject_count!r}")
        if not 0.0 < self.target_train_anomaly_ratio < 1.0:
            raise ValidationError(
                f"target_train_anomaly_ratio must be in (0, 1), got {self.target_train_anomaly_ratio}"
            )
        if self.k < 1:
            raise ValidationError(f"k must be >= 1, got {self.k}")
        if not 0.0 <= self.balance_tolerance < 1.0:
            raise ValidationError(f"balance_tolerance must be in [0, 1), got {self.balance_tolerance}")


@dataclass
class ContinualSplit:
    """Result of the rearrangement: slices, balanced test set, provenance."""

    camera_id: str
    train_stream: list[FrameRecord]
    slices: list[list[FrameRecord]]
    test: CameraDataset
    provenance: dict[int, str] = field(default_factory=dict)
    plan: RearrangePlan | None = None


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
    raise ValidationError(
        "no injection count keeps the train anomaly fraction below "
        f"{plan.target_train_anomaly_ratio} with a balanceable test set"
    )


def slice_stream(stream, k: int) -> list[list[FrameRecord]]:
    """Cut a stream into k contiguous non-empty slices, sizes differing by at most 1.

    Earlier slices take the remainder: 10 frames at k=3 give sizes 4, 3, 3.
    """
    n = len(stream)
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    if n < k:
        raise ValidationError(f"cannot cut {n} frames into {k} non-empty slices")
    base, rem = divmod(n, k)
    sizes = [base + 1] * rem + [base] * (k - rem)
    out = []
    start = 0
    for size in sizes:
        out.append(list(stream[start : start + size]))
        start += size
    return out


def rearrange(split: SplitSet, plan: RearrangePlan) -> ContinualSplit:
    """Rearrange a standard split into a continual training stream and balanced test set."""
    camera = split.camera_id
    train_frames = list(split.train.frames)
    anoms = [fr for fr in split.test.frames if fr.is_anomalous]
    norms = [fr for fr in split.test.frames if not fr.is_anomalous]
    if not anoms:
        raise ValidationError("test set has no anomalous frames to rearrange")
    if not norms:
        raise ValidationError("test set has no normal frames")

    if plan.inject_count is not None:
        inject = plan.inject_count
        if inject >= len(anoms):
            raise ValidationError(
                f"inject_count {inject} must leave at least one of {len(anoms)} test anomalies"
            )
    else:
        inject = _auto_inject_count(len(train_frames), len(norms), len(anoms), plan)

    rng = np.random.default_rng(plan.seed)

    if inject:
        inj_idx = rng.choice(len(anoms), size=inject, replace=False)
    else:
        inj_idx = np.empty(0, dtype=np.int64)
    inj_set = {int(i) for i in inj_idx}
    injected = [anoms[int(i)] for i in inj_idx]
    kept_anoms = [fr for i, fr in enumerate(anoms) if i not in inj_set]

    kept_target = _kept_normals(len(norms), len(kept_anoms), plan.balance_tolerance)
    if kept_target is None:
        raise ValidationError(
            f"test set cannot be balanced within tolerance {plan.balance_tolerance}: "
            f"{len(norms)} normals vs {len(kept_anoms)} anomalies"
        )
    if kept_target == len(norms):
        kept_norms = norms
        moved = []
    else:
        keep_idx = rng.choice(len(norms), size=kept_target, replace=False)
        keep_set = {int(i) for i in keep_idx}
        kept_norms = [fr for i, fr in enumerate(norms) if i in keep_set]
        moved = [fr for i, fr in enumerate(norms) if i not in keep_set]

    test_frames = sorted(kept_norms + kept_anoms, key=lambda fr: fr.frame_index)
    test = CameraDataset(camera_id=camera, frames=tuple(test_frames))

    base = train_frames + moved
    total = len(base) + len(injected)
    if total == 0:
        raise ValidationError("training stream would be empty")
    if injected:
        slots = rng.choice(total, size=len(injected), replace=False)
        slot_map = {int(pos): fr for pos, fr in zip(slots, injected)}
        stream = []
        base_iter = iter(base)
        for pos in range(total):
            hit = slot_map.get(pos)
            stream.append(hit if hit is not None else next(base_iter))
    else:
        stream = list(base)

    fraction = len(injected) / len(stream)
    if fraction >= plan.target_train_anomaly_ratio:
        raise ValidationError(
            f"train anomaly fraction {fraction:.6f} is not below the target "
            f"{plan.target_train_anomaly_ratio}"
        )

    slices = slice_stream(stream, plan.k)

    provenance: dict[int, str] = {}
    for fr in train_frames:
        provenance[fr.frame_index] = TAG_TRAIN_NORMAL
    for fr in moved:
        provenance[fr.frame_index] = TAG_MOVED_NORMAL
    for fr in injected:
        provenance[fr.frame_index] = TAG_INJECTED
    for fr in kept_norms:
        provenance[fr.frame_index] = TAG_TEST_NORMAL
    for fr in kept_anoms:
        provenance[fr.frame_index] = TAG_TEST_ANOMALY

    return ContinualSplit(
        camera_id=camera,
        train_stream=stream,
        slices=slices,
        test=test,
        provenance=provenance,
        plan=plan,
    )


def verify(cs: ContinualSplit) -> None:
    """Recompute counts and assert every rearrangement invariant.

    Raises ValidationError naming the first violated invariant.
    """
    plan = cs.plan
    if plan is None:
        raise ValidationError("invariant violated: split carries no plan")

    if len(cs.slices) != plan.k:
        raise ValidationError(f"invariant violated: expected {plan.k} slices, found {len(cs.slices)}")
    concat = [fr for sl in cs.slices for fr in sl]
    if len(concat) != len(cs.train_stream) or any(
        a is not b for a, b in zip(concat, cs.train_stream)
    ):
        raise ValidationError("invariant violated: slices do not partition the training stream in order")
    sizes = [len(sl) for sl in cs.slices]
    if min(sizes) == 0:
        raise ValidationError("invariant violated: empty slice")
    if max(sizes) - min(sizes) > 1:
        raise ValidationError(f"invariant violated: slice sizes differ by more than 1 ({sizes})")

    n_inj = sum(1 for fr in cs.train_stream if fr.is_anomalous)
    fraction = n_inj / len(cs.train_stream)
    if fraction >= plan.target_train_anomaly_ratio:
        raise ValidationError(
            f"invariant violated: train anomaly fraction {fraction:.6f} >= target "
            f"{plan.target_train_anomaly_ratio}"
        )

    n_test_anom = sum(1 for fr in cs.test.frames if fr.is_anomalous)
    n_test_norm = len(cs.test.frames) - n_test_anom
    if n_test_anom == 0 or n_test_norm == 0:
        raise ValidationError("invariant violated: test set must keep both labels")
    if _imbalance(n_test_norm, n_test_anom) > plan.balance_tolerance:
        raise ValidationError(
            f"invariant violated: test imbalance {_imbalance(n_test_norm, n_test_anom):.6f} "
            f"exceeds tolerance {plan.balance_tolerance}"
        )

    stream_idx = {fr.frame_index for fr in cs.train_stream}
    test_idx = {fr.frame_index for fr in cs.test.frames}
    if len(stream_idx) != len(cs.train_stream):
        raise ValidationError("invariant violated: duplicate frame in training stream")
    if stream_idx & test_idx:
        raise ValidationError("invariant violated: training stream and test set share frames")

    for fr in cs.train_stream:
        tag = cs.provenance.get(fr.frame_index)
        if tag not in STREAM_TAGS:
            raise ValidationError(
                f"invariant violated: stream frame {fr.frame_index} carries tag {tag!r}"
            )
        if fr.is_anomalous != (tag == TAG_INJECTED):
            raise ValidationError(
                f"invariant violated: stream frame {fr.frame_index} label does not match tag {tag!r}"
            )
    for fr in cs.test.frames:
        tag = cs.provenance.get(fr.frame_index)
        if tag not in TEST_TAGS:
            raise ValidationError(
                f"invariant violated: test frame {fr.frame_index} carries tag {tag!r}"
            )
        if fr.is_anomalous != (tag == TAG_TEST_ANOMALY):
            raise ValidationError(
                f"invariant violated: test frame {fr.frame_index} label does not match tag {tag!r}"
            )
