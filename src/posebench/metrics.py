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
- fpr_at_fnr: lowest FPR among operating points with FNR <= target
  (default 0.10, reported as ten_er).

The per-frame series comes from one fold, ``aggregate_frame_scores``: each
window's score goes to the frames it covers that the frame table holds, each
frame takes the max or mean of its windows, and uncovered frames take the
minimum window score.
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
        if (np.diff(np.sort(self.frame_index)) == 0).any():
            raise ValidationError("frame indices in a series must be unique")

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
        return asdict(self)


def _require_both_classes(series: ScoreSeries, op: str):
    if series.n_pos == 0 or series.n_neg == 0:
        raise ValidationError(
            f"{op} requires both labels present, got {series.n_pos} anomalous / {series.n_neg} normal"
        )


def _operating_points(series: ScoreSeries):
    """Cumulative TP and FP counts at each distinct threshold, descending by score."""
    if not len(series):
        raise ValidationError("cannot compute operating points of an empty series")
    order = np.argsort(-series.scores, kind="stable")
    s, y = series.scores[order], series.anomalous[order]
    last_of_group = np.flatnonzero(np.r_[s[1:] != s[:-1], True])
    return np.cumsum(y)[last_of_group], np.cumsum(~y)[last_of_group]


def auc_roc(series: ScoreSeries) -> float:
    """Area under the ROC curve: the trapezoid over grouped thresholds, ties credited one half.

    Twice the area in counts, the sum of fp steps times (tp + tp before), is an integer, divided once by
    2 * n_pos * n_neg. The rank statistic is the same rational, so the two round to the same float.
    """
    _require_both_classes(series, "auc_roc")
    tp, fp = _operating_points(series)
    twice = int((np.diff(fp, prepend=0) * (tp + np.r_[0, tp[:-1]])).sum())
    return twice / (2 * series.n_pos * series.n_neg)


def auc_pr(series: ScoreSeries) -> float:
    """Average precision over descending distinct thresholds."""
    if series.n_pos == 0:
        raise ValidationError("auc_pr requires at least one anomalous entry")
    tp, fp = _operating_points(series)
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
    tp, fp = _operating_points(series)
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
    tp, fp = _operating_points(series)
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


def aggregate_frame_scores(batch: WindowBatch, scores, table: FrameTable, aggregator: str) -> ScoreSeries:
    """Fold one score per window onto the frames it covers, producing one labeled score per frame.

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
    return ScoreSeries(table.frame_index, agg, table.anomalous)
