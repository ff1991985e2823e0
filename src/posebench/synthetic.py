"""Synthetic pose-stream generator for end-to-end checks.

Normal motion is a momentum random walk of a template skeleton with small
per-joint jitter. Anomalies live on dedicated tracks that exist only during
their segment, so anomalous windows never cover normal frames:

- "velocity": boosted per-frame pose jumps (center and joints),
- "frozen": the pose repeats identically for the whole segment,
- "limb_collapse": limbs fold onto the spine axis (aspect change that
  survives bbox normalization).

Anomalous frame counts are exact, labels carry the offending track's box,
and everything is drawn from one seeded PCG64 generator, so equal seeds
give byte-identical datasets.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError
from .model import (
    LABEL_ANOMALOUS,
    LABEL_NORMAL,
    BoundingBox,
    CameraDataset,
    FrameRecord,
    PersonObservation,
    SplitSet,
)

ANOMALY_KINDS = ("velocity", "frozen", "limb_collapse")
ANOMALY_TRACK_BASE = 1000

CANVAS = (1280.0, 720.0)
_MARGIN = 170.0
_PAD = 4.0
_HEIGHT = 170.0

# COCO-17 offsets in person units (x right, y down), scaled by _HEIGHT / 2.
_TEMPLATE = np.array(
    [
        (0.00, -0.92),
        (-0.06, -0.97),
        (0.06, -0.97),
        (-0.12, -0.94),
        (0.12, -0.94),
        (-0.22, -0.55),
        (0.22, -0.55),
        (-0.30, -0.25),
        (0.30, -0.25),
        (-0.34, 0.05),
        (0.34, 0.05),
        (-0.14, 0.00),
        (0.14, 0.00),
        (-0.15, 0.45),
        (0.15, 0.45),
        (-0.16, 0.92),
        (0.16, 0.92),
    ],
    dtype=np.float64,
)

POSE_VARIANTS = ("default", "wide")


def _template(variant: str) -> np.ndarray:
    if variant == "default":
        t = _TEMPLATE.copy()
    elif variant == "wide":
        t = _TEMPLATE.copy()
        t[:, 0] *= 1.6
    else:
        raise ValidationError(f"unknown pose variant {variant!r}, expected one of {POSE_VARIANTS}")
    return t * (_HEIGHT / 2.0)


def _clamp_pos(pos: np.ndarray) -> np.ndarray:
    pos[0] = min(max(pos[0], _MARGIN), CANVAS[0] - _MARGIN)
    pos[1] = min(max(pos[1], _MARGIN), CANVAS[1] - _MARGIN)
    return pos


def _obs_from_points(rng, track_id: int, pts: np.ndarray) -> PersonObservation:
    x = np.clip(pts[:, 0], 0.5, CANVAS[0] - 0.5)
    y = np.clip(pts[:, 1], 0.5, CANVAS[1] - 0.5)
    vis = rng.uniform(0.3, 1.0, size=pts.shape[0])
    bbox = BoundingBox(
        max(float(x.min()) - _PAD, 0.0),
        max(float(y.min()) - _PAD, 0.0),
        float(x.max()) + _PAD,
        float(y.max()) + _PAD,
    )
    return PersonObservation(track_id=track_id, bbox=bbox, keypoints=np.column_stack((x, y, vis)))


class _Walker:
    """A background person: momentum random walk with jittered template pose."""

    def __init__(self, rng, track_id, template, step_sigma, jitter_sigma):
        self.track_id = track_id
        self.template = template
        self.step_sigma = step_sigma
        self.jitter_sigma = jitter_sigma
        self.pos = np.array(
            [
                rng.uniform(_MARGIN, CANVAS[0] - _MARGIN),
                rng.uniform(_MARGIN, CANVAS[1] - _MARGIN),
            ]
        )
        self.vel = rng.normal(0.0, step_sigma, size=2)

    def step(self, rng) -> PersonObservation:
        pts = self.pos[None, :] + self.template + rng.normal(0.0, self.jitter_sigma, size=self.template.shape)
        obs = _obs_from_points(rng, self.track_id, pts)
        self.vel = 0.85 * self.vel + rng.normal(0.0, self.step_sigma, size=2)
        self.pos = _clamp_pos(self.pos + self.vel)
        return obs


def _anomaly_segment_lengths(total: int, nominal: int) -> list[int]:
    n_seg = max(1, total // nominal)
    base, rem = divmod(total, n_seg)
    return [base + 1] * rem + [base] * (n_seg - rem)


def _anomaly_observations(rng, track_id, kind, length, template, step_sigma, jitter_sigma, boost):
    """Per-frame observations of one anomaly track over its segment."""
    center = np.array(
        [
            rng.uniform(_MARGIN, CANVAS[0] - _MARGIN),
            rng.uniform(_MARGIN, CANVAS[1] - _MARGIN),
        ]
    )
    out = []
    if kind == "velocity":
        spike = boost * (step_sigma + jitter_sigma)
        for _ in range(length):
            pts = center[None, :] + template + rng.normal(0.0, spike, size=template.shape)
            out.append(_obs_from_points(rng, track_id, pts))
            center = _clamp_pos(center + rng.normal(0.0, spike, size=2))
    elif kind == "frozen":
        pts = center[None, :] + template + rng.normal(0.0, jitter_sigma, size=template.shape)
        for _ in range(length):
            out.append(_obs_from_points(rng, track_id, pts))
    elif kind == "limb_collapse":
        folded = template.copy()
        folded[:, 0] *= 0.05
        walker_vel = rng.normal(0.0, step_sigma, size=2)
        for _ in range(length):
            pts = center[None, :] + folded + rng.normal(0.0, jitter_sigma, size=folded.shape)
            out.append(_obs_from_points(rng, track_id, pts))
            walker_vel = 0.85 * walker_vel + rng.normal(0.0, step_sigma, size=2)
            center = _clamp_pos(center + walker_vel)
    else:
        raise ValidationError(f"unknown anomaly kind {kind!r}, expected one of {ANOMALY_KINDS}")
    return out


def _normal_timeline(rng, camera_id, start, count, persons, track_base, template, step_sigma, jitter_sigma):
    walkers = [
        _Walker(rng, track_base + p, template, step_sigma, jitter_sigma) for p in range(persons)
    ]
    frames = []
    for t in range(count):
        obs = tuple(w.step(rng) for w in walkers)
        frames.append(
            FrameRecord(
                camera_id=camera_id,
                frame_index=start + t,
                label=LABEL_NORMAL,
                persons=obs,
            )
        )
    return frames


def generate_normals(
    n_frames: int,
    *,
    seed: int,
    camera_id: str = "origincam",
    persons: int = 2,
    step_sigma: float = 3.0,
    jitter_sigma: float = 1.5,
    pose_variant: str = "default",
    start_index: int = 0,
) -> CameraDataset:
    """Generate an all-normal dataset (for pretraining or plain fixtures)."""
    if n_frames < 1:
        raise ValidationError(f"n_frames must be >= 1, got {n_frames}")
    if persons < 1:
        raise ValidationError(f"persons must be >= 1, got {persons}")
    rng = np.random.default_rng(seed)
    template = _template(pose_variant)
    frames = _normal_timeline(
        rng, camera_id, start_index, n_frames, persons, 0, template, step_sigma, jitter_sigma
    )
    return CameraDataset(camera_id=camera_id, frames=tuple(frames))


def generate_split(
    train_normal: int,
    test_normal: int,
    test_anomaly: int,
    *,
    seed: int,
    camera_id: str = "synthcam",
    persons: int = 2,
    anomaly_kinds=("velocity",),
    segment_length: int = 60,
    step_sigma: float = 3.0,
    jitter_sigma: float = 1.5,
    anomaly_boost: float = 6.0,
    pose_variant: str = "default",
) -> SplitSet:
    """Generate a standard split with exactly the requested label counts.

    The test timeline holds ``test_normal + test_anomaly`` frames; anomalous
    frames form contiguous segments (roughly ``segment_length`` long, sizes
    equalized) placed at seeded offsets, one dedicated anomaly track per
    segment cycling through ``anomaly_kinds``.
    """
    if train_normal < 1 or test_normal < 1:
        raise ValidationError("train_normal and test_normal must both be >= 1")
    if test_anomaly < 1:
        raise ValidationError(f"test_anomaly must be >= 1, got {test_anomaly}")
    if persons < 1:
        raise ValidationError(f"persons must be >= 1, got {persons}")
    if segment_length < 1:
        raise ValidationError(f"segment_length must be >= 1, got {segment_length}")
    if anomaly_boost <= 0:
        raise ValidationError(f"anomaly_boost must be positive, got {anomaly_boost}")
    kinds = tuple(anomaly_kinds)
    if not kinds:
        raise ValidationError("anomaly_kinds must not be empty")
    for kind in kinds:
        if kind not in ANOMALY_KINDS:
            raise ValidationError(f"unknown anomaly kind {kind!r}, expected one of {ANOMALY_KINDS}")

    rng = np.random.default_rng(seed)
    template = _template(pose_variant)

    train_frames = _normal_timeline(
        rng, camera_id, 0, train_normal, persons, 0, template, step_sigma, jitter_sigma
    )

    test_total = test_normal + test_anomaly
    seg_lengths = _anomaly_segment_lengths(test_anomaly, segment_length)
    n_seg = len(seg_lengths)
    chunk = test_total // n_seg
    if chunk < max(seg_lengths):
        raise ValidationError(
            f"test timeline of {test_total} frames cannot host {n_seg} anomaly "
            f"segments of up to {max(seg_lengths)} frames"
        )

    # Choose each segment's absolute position inside its own chunk.
    segments = []
    for s, seg_len in enumerate(seg_lengths):
        lo = s * chunk
        offset = int(rng.integers(0, chunk - seg_len + 1))
        segments.append((lo + offset, seg_len))

    anomaly_obs: dict[int, PersonObservation] = {}
    for s, (seg_start, seg_len) in enumerate(segments):
        kind = kinds[s % len(kinds)]
        obs_list = _anomaly_observations(
            rng,
            ANOMALY_TRACK_BASE + s,
            kind,
            seg_len,
            template,
            step_sigma,
            jitter_sigma,
            anomaly_boost,
        )
        for off, obs in enumerate(obs_list):
            anomaly_obs[seg_start + off] = obs

    walkers = [
        _Walker(rng, persons + p, template, step_sigma, jitter_sigma) for p in range(persons)
    ]
    test_frames = []
    for t in range(test_total):
        obs = [w.step(rng) for w in walkers]
        extra = (anomaly_obs[t],) if t in anomaly_obs else ()
        test_frames.append(
            FrameRecord(
                camera_id=camera_id,
                frame_index=train_normal + t,
                label=LABEL_ANOMALOUS if extra else LABEL_NORMAL,
                persons=(*obs, *extra),
                anomaly_regions=tuple(o.bbox for o in extra),
            )
        )

    train = CameraDataset(camera_id=camera_id, frames=tuple(train_frames))
    test = CameraDataset(camera_id=camera_id, frames=tuple(test_frames))
    return SplitSet(train=train, test=test)
