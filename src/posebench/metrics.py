"""Frame-level anomaly metrics.

Score polarity is "higher means more anomalous" throughout. All threshold
metrics sweep the distinct observed scores, predicting anomalous when
score >= threshold, so ties are handled as a group:

- auc_roc: probability a random anomalous frame outranks a random normal
  one, ties counted half. Equals trapezoidal integration of the ROC curve
  over grouped thresholds.
- auc_pr: average precision, sum of precision * recall-increment over
  descending thresholds.
- eer: at the threshold minimizing |FPR - FNR|, return (FPR + FNR) / 2;
  ties in the minimizer resolve to the lower returned value.
- fpr_at_fnr: lowest FPR among operating points with FNR <= target
  (default 0.10, reported as ten_er).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .model import CameraDataset, LABEL_ANOMALOUS, LABELS

AGGREGATORS = ("max", "mean")


@dataclass(frozen=True)
class ScoreSeries:
    """Per-frame anomaly scores with ground-truth labels.

    ``anomalous`` is a boolean array aligned with ``frame_index`` and
    ``scores``; frame indices must be unique and scores finite.
    """

    frame_index: np.ndarray
    scores: np.ndarray
    anomalous: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "frame_index", np.asarray(self.frame_index, dtype=np.int64))
        object.__setattr__(self, "scores", np.asarray(self.scores, dtype=np.float64))
        object.__setattr__(self, "anomalous", np.asarray(self.anomalous, dtype=bool))
        n = self.frame_index.size
        if self.scores.size != n or self.anomalous.size != n:
            raise ValidationError("series arrays must have equal length")
        if n and not np.all(np.isfinite(self.scores)):
            raise ValidationError("scores must be finite")
        if np.unique(self.frame_index).size != n:
            raise ValidationError("frame indices in a series must be unique")

    @classmethod
    def from_entries(cls, entries) -> "ScoreSeries":
        """Build from (frame_index, score, label) triples."""
        idx, scores, anom = [], [], []
        for frame_index, score, label in entries:
            if label not in LABELS:
                raise ValidationError(f"unknown label {label!r} at frame {frame_index}")
            idx.append(frame_index)
            scores.append(score)
            anom.append(label == LABEL_ANOMALOUS)
        return cls(np.array(idx, dtype=np.int64), np.array(scores), np.array(anom, dtype=bool))

    def __len__(self) -> int:
        return self.frame_index.size

    @property
    def n_pos(self) -> int:
        return int(self.anomalous.sum())

    @property
    def n_neg(self) -> int:
        return int(len(self) - self.n_pos)


@dataclass(frozen=True)
class MetricReport:
    """The four headline metrics plus class counts for one evaluation."""

    auc_roc: float
    auc_pr: float
    eer: float
    ten_er: float
    n_pos: int
    n_neg: int

    def as_dict(self) -> dict:
        return {
            "auc_roc": self.auc_roc,
            "auc_pr": self.auc_pr,
            "eer": self.eer,
            "ten_er": self.ten_er,
            "n_pos": self.n_pos,
            "n_neg": self.n_neg,
        }


def _require_both_classes(series: ScoreSeries, op: str):
    if series.n_pos == 0 or series.n_neg == 0:
        raise ValidationError(
            f"{op} requires both labels present, got {series.n_pos} anomalous / {series.n_neg} normal"
        )


def _operating_points(series: ScoreSeries):
    """Cumulative TP/FP at each distinct threshold, descending by score."""
    order = np.argsort(-series.scores, kind="stable")
    s = series.scores[order]
    y = series.anomalous[order]
    tp_cum = np.cumsum(y)
    fp_cum = np.cumsum(~y)
    if s.size == 0:
        raise ValidationError("cannot compute operating points of an empty series")
    last_of_group = np.flatnonzero(np.r_[s[1:] != s[:-1], True])
    return s[last_of_group], tp_cum[last_of_group], fp_cum[last_of_group]


def _average_ranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks with ties sharing their group's average rank."""
    order = np.argsort(x, kind="stable")
    sx = x[order]
    group_start = np.r_[True, sx[1:] != sx[:-1]]
    group_id = np.cumsum(group_start) - 1
    first_idx = np.flatnonzero(group_start)
    counts = np.diff(np.r_[first_idx, sx.size])
    avg = first_idx + (counts - 1) / 2.0 + 1.0
    ranks = np.empty(x.size, dtype=np.float64)
    ranks[order] = avg[group_id]
    return ranks


def auc_roc(series: ScoreSeries) -> float:
    """Area under the ROC curve (rank statistic, ties credited one half)."""
    _require_both_classes(series, "auc_roc")
    ranks = _average_ranks(series.scores)
    n_pos, n_neg = series.n_pos, series.n_neg
    u = ranks[series.anomalous].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


def auc_pr(series: ScoreSeries) -> float:
    """Average precision over descending distinct thresholds."""
    if series.n_pos == 0:
        raise ValidationError("auc_pr requires at least one anomalous entry")
    _, tp, fp = _operating_points(series)
    recall = tp / series.n_pos
    precision = tp / (tp + fp)
    prev = np.r_[0.0, recall[:-1]]
    return float(((recall - prev) * precision).sum())


def eer(series: ScoreSeries) -> float:
    """Equal error rate: (FPR + FNR) / 2 where |FPR - FNR| is smallest.

    FPR - FNR = (fp * n_pos - fn * n_neg) / (n_pos * n_neg), so the argmin
    and its tie-break (smaller midpoint wins) are decided on integers; float
    rounding cannot split genuinely tied thresholds.
    """
    _require_both_classes(series, "eer")
    _, tp, fp = _operating_points(series)
    fn = series.n_pos - tp
    gap = np.abs(fp * series.n_pos - fn * series.n_neg)
    candidates = np.flatnonzero(gap == gap.min())
    mid_numerator = (fp * series.n_pos + fn * series.n_neg)[candidates]
    return float(mid_numerator.min()) / (2.0 * series.n_pos * series.n_neg)


def fpr_at_fnr(series: ScoreSeries, target: float = 0.10) -> float:
    """Lowest FPR over operating points that keep FNR at or below target."""
    if not 0.0 <= target < 1.0:
        raise ValidationError(f"target FNR must be in [0, 1), got {target}")
    _require_both_classes(series, "fpr_at_fnr")
    _, tp, fp = _operating_points(series)
    fpr = fp / series.n_neg
    fnr = 1.0 - tp / series.n_pos
    feasible = fnr <= target
    # Always non-empty: the lowest threshold flags every frame, giving FNR 0.
    return float(fpr[feasible].min())


def compute_all(series: ScoreSeries, fnr_target: float = 0.10) -> MetricReport:
    """All four metrics plus counts; equal to calling each metric directly."""
    return MetricReport(
        auc_roc=auc_roc(series),
        auc_pr=auc_pr(series),
        eer=eer(series),
        ten_er=fpr_at_fnr(series, fnr_target),
        n_pos=series.n_pos,
        n_neg=series.n_neg,
    )


def aggregate_frame_scores(frames, scores, dataset: CameraDataset, aggregator: str = "max") -> ScoreSeries:
    """Fold window scores onto frames, producing one labeled score per frame.

    ``frames`` and ``scores`` are aligned 1-D arrays with one entry per
    (window, covered frame) pair: the frame index and the window's score.
    Each frame aggregates the scores of its entries with ``max`` or ``mean``
    (summed in entry order); frames with no entry receive the minimum
    observed score (least anomalous). With no entries at all, every frame
    scores 0.0. Labels come from the dataset's frame table.
    """
    if aggregator not in AGGREGATORS:
        raise ValidationError(f"aggregator must be one of {AGGREGATORS}, got {aggregator!r}")
    table = dataset.frames
    n = len(table)
    if not n:
        raise ValidationError("cannot aggregate scores over an empty dataset")
    frames = np.asarray(frames, dtype=np.int64)
    score_arr = np.asarray(scores, dtype=np.float64)
    pos_arr = np.searchsorted(table.frame_index, frames)
    missing = np.flatnonzero(table.frame_index[np.minimum(pos_arr, n - 1)] != frames)
    if missing.size:
        raise ValidationError(f"window covers frame {frames[missing[0]]} which is not in the dataset")

    if not score_arr.size:
        return ScoreSeries(table.frame_index, np.zeros(n), table.anomalous)

    if not np.all(np.isfinite(score_arr)):
        raise ValidationError("window scores must be finite")
    fill = float(score_arr.min())
    covered_mask = np.zeros(n, dtype=bool)
    covered_mask[pos_arr] = True

    if aggregator == "max":
        agg = np.full(n, -np.inf)
        np.maximum.at(agg, pos_arr, score_arr)
        agg[~covered_mask] = fill
    else:
        total = np.zeros(n)
        count = np.zeros(n)
        np.add.at(total, pos_arr, score_arr)
        np.add.at(count, pos_arr, 1.0)
        agg = np.full(n, fill)
        agg[covered_mask] = total[covered_mask] / count[covered_mask]

    return ScoreSeries(table.frame_index, agg, table.anomalous)
