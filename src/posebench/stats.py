"""Dataset statistics of a frame table: box overlap, crowd density, label balance."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .model import FrameTable


@dataclass(frozen=True)
class DatasetStats:
    """Summary counts and overlap statistics for one camera's frames."""

    camera_id: str
    frame_count: int
    pose_count: int
    anomaly_frame_count: int
    anomaly_fraction: float
    density_histogram: dict[int, int]
    max_iou_per_frame: np.ndarray

    def density_encoded(self) -> str:
        """Histogram as 'persons:frames' pairs, e.g. '0:12;2:88', keys ascending."""
        return ";".join(f"{k}:{self.density_histogram[k]}" for k in sorted(self.density_histogram))

    def csv_row(self) -> dict[str, str]:
        return {
            "camera_id": self.camera_id,
            "frame_count": str(self.frame_count),
            "pose_count": str(self.pose_count),
            "anomaly_frame_count": str(self.anomaly_frame_count),
            "anomaly_fraction": f"{self.anomaly_fraction:.6f}",
            "mean_max_iou": f"{float(self.max_iou_per_frame.mean()):.6f}",
            "density_histogram": self.density_encoded(),
        }


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


def stats_from_frames(frames: FrameTable) -> DatasetStats:
    """Compute DatasetStats over a frame table, per frame in row order."""
    if not len(frames):
        raise ValidationError("cannot compute statistics of an empty dataset")
    per_frame = np.bincount(frames.frame_row, minlength=len(frames))
    sizes, counts = np.unique(per_frame, return_counts=True)
    anomaly_frames = int(frames.anomalous.sum())
    return DatasetStats(
        camera_id=frames.camera_id,
        frame_count=len(frames),
        pose_count=len(frames.frame_row),
        anomaly_frame_count=anomaly_frames,
        anomaly_fraction=anomaly_frames / len(frames),
        density_histogram=dict(zip(sizes.tolist(), counts.tolist())),
        max_iou_per_frame=max_iou_per_group(frames.bbox, np.concatenate([[0], np.cumsum(per_frame)])),
    )
