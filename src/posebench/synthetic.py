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
give byte-identical tables, each in strictly increasing frame_index.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ValidationError, check_int
from .model import KEYPOINT_COUNT, FrameTable, SplitSet

ANOMALY_KINDS = ("velocity", "frozen", "limb_collapse")
ANOMALY_TRACK_BASE = 1000

CANVAS = (1280.0, 720.0)
_MARGIN = 170.0
_PAD = 4.0
_HEIGHT = 170.0
_MAX_SCALE = 10 * max(CANVAS)  # bound on a sigma, in canvas units, so the velocity recurrence stays finite

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


def _keypoints(centers, template, noise, vis) -> np.ndarray:
    """(..., 17, 3) keypoints: template points at ``centers`` plus ``noise``, clipped to the canvas, then ``vis``."""
    out = np.empty(vis.shape + (3,))
    np.clip(centers[..., None, :] + template + noise, 0.5, (CANVAS[0] - 0.5, CANVAS[1] - 0.5), out=out[..., :2])
    out[..., 2] = vis
    return out


def _move(rng, count, tracks, template, step_sigma, jitter_sigma, decay=0.85) -> np.ndarray:
    """(count, tracks, 17, 3) keypoints of ``tracks`` people stepped together for ``count`` frames.

    Each starts at a uniform canvas point with a drawn velocity (at rest, with no draw, when
    ``decay`` is 0). Each frame, track by track, draws the joint jitter, the visibilities and the
    velocity noise, sets velocity = decay * velocity + noise and moves the center by it, clamped
    to the margins. Only these draws and the recurrence on Python floats run per frame.
    """
    x_hi, y_hi = CANVAS[0] - _MARGIN, CANVAS[1] - _MARGIN
    state = []
    for _ in range(tracks):
        x, y = rng.uniform(_MARGIN, x_hi), rng.uniform(_MARGIN, y_hi)
        vx, vy = rng.normal(0.0, step_sigma, 2).tolist() if decay else (0.0, 0.0)
        state.append([x, y, vx, vy])
    centers, noise, vis = [], [], []
    for _ in range(count):
        for s in state:
            noise.append(rng.normal(0.0, jitter_sigma, template.shape))
            vis.append(rng.uniform(0.3, 1.0, KEYPOINT_COUNT))
            nx, ny = rng.normal(0.0, step_sigma, 2).tolist()
            x, y, vx, vy = s
            centers.append((x, y))
            vx, vy = decay * vx + nx, decay * vy + ny
            s[:] = min(max(x + vx, _MARGIN), x_hi), min(max(y + vy, _MARGIN), y_hi), vx, vy
    return _keypoints(np.array(centers), template, np.array(noise), np.array(vis)).reshape(count, tracks, -1, 3)


def _check_sigmas(**sigmas):
    for name, value in sigmas.items():
        if not 0 <= value < math.inf:
            raise ValidationError(f"{name} must be a finite number >= 0, got {value}")
        if value > _MAX_SCALE:
            raise ValidationError(f"{name} must be at most {_MAX_SCALE:g} canvas units, got {value}")


def _anomaly_segment_lengths(total: int, nominal: int) -> list[int]:
    n_seg = max(1, total // nominal)
    base, rem = divmod(total, n_seg)
    return [base + 1] * rem + [base] * (n_seg - rem)


def _anomaly_keypoints(rng, kind, length, template, step_sigma, jitter_sigma, boost) -> np.ndarray:
    """(length, 17, 3) keypoints of one anomaly track over its segment."""
    if kind == "velocity":  # no momentum: each frame's step is fresh noise
        spike = boost * (step_sigma + jitter_sigma)
        return _move(rng, length, 1, template, spike, spike, decay=0.0)[:, 0]
    if kind == "limb_collapse":
        return _move(rng, length, 1, template * (0.05, 1.0), step_sigma, jitter_sigma)[:, 0]
    center = np.array([rng.uniform(_MARGIN, CANVAS[0] - _MARGIN), rng.uniform(_MARGIN, CANVAS[1] - _MARGIN)])
    noise = rng.normal(0.0, jitter_sigma, size=template.shape)  # frozen: one pose for the whole segment
    return _keypoints(center, template, noise, rng.uniform(0.3, 1.0, size=(length, KEYPOINT_COUNT)))


def _timeline(camera_id, start, walked, track_base, anomalies=((), (), ())) -> FrameTable:
    """Frames ``start, start + 1, ...``: walker ``p`` as track ``track_base + p`` in each frame.

    ``anomalies`` = (frame offsets, track ids, (n, 17, 3) keypoint arrays), in frame order, adds
    one person after the walkers of its frame, which it labels anomalous with
    the person's box as the anomaly region. Boxes pad the keypoints by _PAD,
    floored at 0.
    """
    count, persons = walked.shape[:2]
    offsets, tracks, extra = anomalies
    walker_rows = np.repeat(np.arange(count), persons)
    frame_row = np.concatenate([walker_rows, np.array(offsets, dtype=np.int64)])
    track_id = np.concatenate([np.tile(track_base + np.arange(persons), count), np.array(tracks, np.int64)])
    keypoints = np.concatenate([walked.reshape(-1, KEYPOINT_COUNT, 3), *extra])
    lo, hi = keypoints[:, :, :2].min(axis=1), keypoints[:, :, :2].max(axis=1)
    bbox = np.concatenate([np.maximum(lo - _PAD, 0.0), hi + _PAD], axis=1)
    anomalous = np.zeros(count, dtype=bool)
    anomalous[frame_row[walker_rows.size :]] = True
    order = np.argsort(frame_row, kind="stable")  # each frame's walkers, then its anomaly person
    return FrameTable(
        camera_id=camera_id,
        frame_index=start + np.arange(count, dtype=np.int64),
        anomalous=anomalous,
        region_frame=frame_row[walker_rows.size :],
        regions=bbox[walker_rows.size :],
        frame_row=frame_row[order],
        track_id=track_id[order],
        keypoints=keypoints[order],
        bbox=bbox[order],
    )


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
) -> FrameTable:
    """Generate an all-normal frame table (for pretraining or plain fixtures)."""
    check_int("seed", seed)
    if n_frames < 1:
        raise ValidationError(f"n_frames must be >= 1, got {n_frames}")
    if persons < 1:
        raise ValidationError(f"persons must be >= 1, got {persons}")
    if start_index < 0 or start_index + n_frames > 2**63:  # frame indices are int64
        bad = start_index if start_index < 0 else max(start_index, 2**63)
        raise ValidationError(f"frame_index must be a non-negative 64-bit integer, got {bad}")
    _check_sigmas(step_sigma=step_sigma, jitter_sigma=jitter_sigma)
    rng = np.random.default_rng(seed)
    template = _template(pose_variant)
    walked = _move(rng, n_frames, persons, template, step_sigma, jitter_sigma)
    return _timeline(camera_id, start_index, walked, 0)


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
    check_int("seed", seed)
    if train_normal < 1 or test_normal < 1:
        raise ValidationError("train_normal and test_normal must both be >= 1")
    if test_anomaly < 1:
        raise ValidationError(f"test_anomaly must be >= 1, got {test_anomaly}")
    if persons < 1:
        raise ValidationError(f"persons must be >= 1, got {persons}")
    if segment_length < 1:
        raise ValidationError(f"segment_length must be >= 1, got {segment_length}")
    if not 0 < anomaly_boost < math.inf:
        raise ValidationError(f"anomaly_boost must be a positive finite number, got {anomaly_boost}")
    _check_sigmas(step_sigma=step_sigma, jitter_sigma=jitter_sigma)
    if anomaly_boost * (step_sigma + jitter_sigma) > _MAX_SCALE:  # the velocity anomaly's sigmas
        spike = f"anomaly_boost * (step_sigma + jitter_sigma) must be at most {_MAX_SCALE:g} canvas units"
        raise ValidationError(f"{spike}, got {anomaly_boost} * ({step_sigma} + {jitter_sigma})")
    kinds = tuple(anomaly_kinds)
    if not kinds:
        raise ValidationError("anomaly_kinds must not be empty")
    for kind in kinds:
        if kind not in ANOMALY_KINDS:
            raise ValidationError(f"unknown anomaly kind {kind!r}, expected one of {ANOMALY_KINDS}")

    rng = np.random.default_rng(seed)
    template = _template(pose_variant)

    train = _timeline(camera_id, 0, _move(rng, train_normal, persons, template, step_sigma, jitter_sigma), 0)

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

    offsets, tracks, keypoints = [], [], []
    for s, (seg_start, seg_len) in enumerate(segments):
        kind = kinds[s % len(kinds)]
        keypoints.append(_anomaly_keypoints(rng, kind, seg_len, template, step_sigma, jitter_sigma, anomaly_boost))
        offsets += range(seg_start, seg_start + seg_len)
        tracks += [ANOMALY_TRACK_BASE + s] * seg_len

    walked = _move(rng, test_total, persons, template, step_sigma, jitter_sigma)
    test = _timeline(camera_id, train_normal, walked, persons, (offsets, tracks, keypoints))
    return SplitSet(train=train, test=test)
