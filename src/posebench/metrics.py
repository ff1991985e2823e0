"""Frame-level anomaly metrics.

Score polarity is "higher means more anomalous" throughout. All threshold
metrics sweep the distinct observed scores, predicting anomalous when
score >= threshold, so ties are handled as a group:

- auc_roc: trapezoidal area under the ROC curve over grouped thresholds,
  summed on integer counts and divided once, so it equals bit for bit the
  probability that a random anomalous frame outranks a random normal one,
  ties counted half.
- auc_pr: average precision, sum of precision * recall-increment over
  descending thresholds.
- eer: at the threshold minimizing |FPR - FNR|, return (FPR + FNR) / 2;
  ties in the minimizer resolve to the lower returned value.
- ten_er: lowest FPR among operating points with FNR <= target
  (default 0.10).

``compute_all`` gives all four from one sort of the per-frame scores, read
with the frame table's ``anomalous`` labels.

The per-frame scores come from one fold, ``aggregate_frame_scores``: each
window's score goes to the frames it covers that the frame table holds, each
frame takes the max or mean of its windows, and uncovered frames take the
minimum window score. It returns one score per row of the table.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .errors import ValidationError
from .model import FrameTable, check_frame_order
from .preprocess import WindowBatch

AGGREGATORS = ("max", "mean")

# The four headline metrics of a MetricReport, each with whether a higher value is better.
HIGHER_IS_BETTER = {"auc_roc": True, "auc_pr": True, "eer": False, "ten_er": False}


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
        return asdict(self)


def compute_all(scores, anomalous, fnr_target: float = 0.10) -> MetricReport:
    """All four metrics plus counts, from one sweep over the distinct scores in descending order.

    ``scores`` holds one finite score per frame and ``anomalous`` the frame's label, in the same order.

    Each distinct score is a threshold; tp and fp count the frames at or above it. Twice the ROC area in counts, the
    sum of fp steps times (tp + tp before), is an integer, divided once by 2 * n_pos * n_neg. The rank statistic is
    the same rational, so the two round to the same float. FPR - FNR = (fp * n_pos - fn * n_neg) / (n_pos * n_neg),
    so the EER's argmin and its tie-break (smaller midpoint wins) are decided on integers; float rounding cannot
    split genuinely tied thresholds.
    """
    scores, anomalous = np.asarray(scores, dtype=np.float64), np.asarray(anomalous, dtype=bool)
    if scores.size != anomalous.size:
        raise ValidationError("series arrays must have equal length")
    if not np.isfinite(scores).all():
        raise ValidationError("scores must be finite")
    n_pos = int(anomalous.sum())
    n_neg = anomalous.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValidationError(f"auc_roc requires both labels present, got {n_pos} anomalous / {n_neg} normal")
    if not 0.0 <= fnr_target < 1.0:
        raise ValidationError(f"target FNR must be in [0, 1), got {fnr_target}")
    order = np.argsort(-scores, kind="stable")
    s, y = scores[order], anomalous[order]
    last_of_group = np.flatnonzero(np.r_[s[1:] != s[:-1], True])
    tp, fp = np.cumsum(y)[last_of_group], np.cumsum(~y)[last_of_group]
    fn = n_pos - tp
    twice = int((np.diff(fp, prepend=0) * (tp + np.r_[0, tp[:-1]])).sum())
    recall = tp / n_pos
    gap = np.abs(fp * n_pos - fn * n_neg)
    mid_numerator = (fp * n_pos + fn * n_neg)[gap == gap.min()]
    feasible = 1.0 - recall <= fnr_target  # never empty: the lowest threshold flags every frame, giving FNR 0
    return MetricReport(
        auc_roc=twice / (2 * n_pos * n_neg),
        auc_pr=float(((recall - np.r_[0.0, recall[:-1]]) * (tp / (tp + fp))).sum()),
        eer=float(mid_numerator.min()) / (2.0 * n_pos * n_neg),
        ten_er=float((fp / n_neg)[feasible].min()),
        n_pos=n_pos,
        n_neg=n_neg,
    )


def aggregate_frame_scores(batch: WindowBatch, scores, table: FrameTable, aggregator: str) -> np.ndarray:
    """Fold one score per window onto the frames it covers, producing one score per frame of ``table``, in row order.

    Interpolation may synthesize observations at frame indices missing from
    the evaluation set, so covered frames the table lacks are dropped. Each
    frame takes the ``max`` or the ``mean`` (summed in window order) of its
    windows' scores; a frame no window covers takes the minimum score of
    every window, also of one whose frames were all dropped, or 0.0 with no
    windows at all. Labels come from ``table``, which must be in strictly increasing frame_index.
    """
    if aggregator not in AGGREGATORS:
        raise ValidationError(f"aggregator must be one of {AGGREGATORS}, got {aggregator!r}")
    n = len(table)
    if not n:
        raise ValidationError("cannot aggregate scores over an empty dataset")
    check_frame_order(table)
    scores = np.asarray(scores, dtype=np.float64)
    if not np.isfinite(scores).all():
        raise ValidationError("window scores must be finite")
    frames = batch.covered_frames().ravel()
    pos = np.searchsorted(table.frame_index, frames)
    present = table.frame_index[np.minimum(pos, n - 1)] == frames
    pos, entries = pos[present], np.repeat(scores, batch.length)[present]
    counts = np.bincount(pos, minlength=n)
    if aggregator == "max":
        agg = np.full(n, -np.inf)
        np.maximum.at(agg, pos, entries)
    else:
        agg = np.zeros(n)
        np.add.at(agg, pos, entries)
        agg /= np.maximum(counts, 1)
    agg[counts == 0] = scores.min() if scores.size else 0.0
    return agg
