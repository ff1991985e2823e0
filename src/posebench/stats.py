"""Dataset statistics of a frame table: box overlap, crowd density, label balance.

``stats_from_frames`` gives a camera's row of the ``stats`` CSV and the per-frame max IoU that ``--iou-out`` writes.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError
from .model import FrameTable


STATS_CSV_COLUMNS = (
    "camera_id",
    "frame_count",
    "pose_count",
    "anomaly_frame_count",
    "anomaly_fraction",
    "mean_max_iou",
    "density_histogram",
)


def max_iou_per_group(boxes, offsets):
    """Per-group max pairwise IoU; groups with fewer than 2 boxes give 0."""
    n_groups = offsets.shape[0] - 1
    out = np.zeros(n_groups, dtype=np.float64)
    for g in range(n_groups):
        bb = boxes[offsets[g] : offsets[g + 1]]
        n = bb.shape[0]
        if n < 2:
            continue
        x1 = np.maximum(bb[:, None, 0], bb[None, :, 0])
        y1 = np.maximum(bb[:, None, 1], bb[None, :, 1])
        x2 = np.minimum(bb[:, None, 2], bb[None, :, 2])
        y2 = np.minimum(bb[:, None, 3], bb[None, :, 3])
        inter = np.clip(x2 - x1, 0.0, None) * np.clip(y2 - y1, 0.0, None)
        area = (bb[:, 2] - bb[:, 0]) * (bb[:, 3] - bb[:, 1])
        union = area[:, None] + area[None, :] - inter
        iou = np.where(union > 0.0, inter / np.where(union > 0.0, union, 1.0), 0.0)
        np.fill_diagonal(iou, 0.0)
        out[g] = iou.max()
    return out


def stats_from_frames(frames: FrameTable) -> tuple[dict[str, str], np.ndarray]:
    """The CSV cells of a frame table, keyed in ``STATS_CSV_COLUMNS`` order, and its max IoU per frame in row order.

    The density histogram reads as 'persons:frames' pairs, e.g. '0:12;2:88', persons ascending.
    """
    if not len(frames):
        raise ValidationError("cannot compute statistics of an empty dataset")
    per_frame = np.bincount(frames.frame_row, minlength=len(frames))
    sizes, counts = np.unique(per_frame, return_counts=True)  # sizes ascending
    anomaly_frames = int(frames.anomalous.sum())
    max_iou = max_iou_per_group(frames.bbox, np.concatenate([[0], np.cumsum(per_frame)]))
    row = {
        "camera_id": frames.camera_id,
        "frame_count": str(len(frames)),
        "pose_count": str(len(frames.frame_row)),
        "anomaly_frame_count": str(anomaly_frames),
        "anomaly_fraction": f"{anomaly_frames / len(frames):.6f}",
        "mean_max_iou": f"{float(max_iou.mean()):.6f}",
        "density_histogram": ";".join(f"{k}:{v}" for k, v in zip(sizes.tolist(), counts.tolist())),
    }
    return row, max_iou
