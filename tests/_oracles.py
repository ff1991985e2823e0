"""Independent reference implementations used to check the fast library code.

Everything here is written for clarity over speed: exhaustive threshold
enumeration, pairwise counting and per-index scans. None of it imports from
posebench, so an error in the library cannot leak into its own oracle.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np


def confusion_at(scores, labels, threshold):
    """(tpr, fpr, fnr) when flagging score >= threshold as anomalous."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels, dtype=int)
    pred = scores >= threshold
    pos = labels == 1
    neg = ~pos
    tp = int(np.sum(pred & pos))
    fp = int(np.sum(pred & neg))
    fn = int(np.sum(~pred & pos))
    n_pos = int(pos.sum())
    n_neg = int(neg.sum())
    tpr = tp / n_pos if n_pos else 0.0
    fpr = fp / n_neg if n_neg else 0.0
    fnr = fn / n_pos if n_pos else 0.0
    return tpr, fpr, fnr


def sweep(scores, labels):
    """All distinct thresholds, highest first, with their (tpr, fpr, fnr)."""
    out = []
    for t in sorted(set(float(s) for s in scores), reverse=True):
        out.append((t,) + confusion_at(scores, labels, t))
    return out


def roc_auc_pairwise(scores, labels):
    """Probability a random anomalous score outranks a random normal one."""
    pos = [float(s) for s, y in zip(scores, labels) if y == 1]
    neg = [float(s) for s, y in zip(scores, labels) if y == 0]
    total = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                total += 1.0
            elif p == n:
                total += 0.5
    return total / (len(pos) * len(neg))


def roc_auc_trapezoid(scores, labels):
    points = [(0.0, 0.0)]
    for _, tpr, fpr, _ in sweep(scores, labels):
        points.append((fpr, tpr))
    points.append((1.0, 1.0))
    points.sort()
    area = 0.0
    for (x0, y0), (x1, y1) in zip(points, points[1:]):
        area += (x1 - x0) * (y0 + y1) / 2.0
    return area


def average_precision(scores, labels):
    """Sum of (recall step) * precision over descending distinct thresholds."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels, dtype=int)
    area = 0.0
    prev_recall = 0.0
    for t in sorted(set(scores.tolist()), reverse=True):
        pred = scores >= t
        tp = int(np.sum(pred & (labels == 1)))
        fp = int(np.sum(pred & (labels == 0)))
        recall = tp / int((labels == 1).sum())
        precision = tp / (tp + fp)
        area += (recall - prev_recall) * precision
        prev_recall = recall
    return area


def eer_scan(scores, labels):
    """Midpoint (fpr+fnr)/2 at the threshold where the two rates are closest.

    Ties on the gap prefer the smaller midpoint. Rates are rationals, so the
    comparison runs on exact fractions.
    """
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels, dtype=int)
    n_pos = int((labels == 1).sum())
    n_neg = int((labels == 0).sum())
    best = None
    for t in sorted(set(scores.tolist()), reverse=True):
        pred = scores >= t
        fp = int(np.sum(pred & (labels == 0)))
        fn = int(np.sum(~pred & (labels == 1)))
        fpr = Fraction(fp, n_neg)
        fnr = Fraction(fn, n_pos)
        key = (abs(fpr - fnr), (fpr + fnr) / 2)
        if best is None or key < best:
            best = key
    return float(best[1])


def fpr_at_fnr_scan(scores, labels, target=0.10):
    """Smallest fpr among thresholds keeping fnr at or below target."""
    candidates = [fpr for _, _, fpr, fnr in sweep(scores, labels) if fnr <= target]
    return min(candidates)


def frame_scores_scan(window_scores, frame_indices, aggregator):
    """Per-frame aggregation by direct scan over every window per frame."""
    out = {}
    for fi in frame_indices:
        hits = [s for covered, s in window_scores if fi in covered]
        if hits:
            out[fi] = max(hits) if aggregator == "max" else sum(hits) / len(hits)
    observed = [s for _, s in window_scores]
    fill = min(observed) if observed else 0.0
    return {fi: out.get(fi, fill) for fi in frame_indices}


def iou(a, b):
    """Intersection over union of two boxes with x1, y1, x2, y2 and area(); 0.0 when they do not overlap."""
    ix1 = max(a.x1, b.x1)
    iy1 = max(a.y1, b.y1)
    ix2 = min(a.x2, b.x2)
    iy2 = min(a.y2, b.y2)
    iw = ix2 - ix1
    ih = iy2 - iy1
    if iw <= 0.0 or ih <= 0.0:
        return 0.0
    inter = iw * ih
    union = a.area() + b.area() - inter
    if union <= 0.0:
        return 0.0
    return inter / union


def frame_max_iou(frame):
    """Max pairwise IoU over a frame record's person boxes; 0.0 with fewer than 2 persons."""
    n = len(frame.persons)
    best = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            best = max(best, iou(frame.persons[i].bbox, frame.persons[j].bbox))
    return best


def tracks_by_bucketing(frames):
    """Track assembly one observation at a time from frame records.

    Buckets each person by track id, sorts a bucket by frame index and
    stacks it. Returns ``(track_id, frames, keypoints (n, 17, 2), bbox
    (n, 4), interpolated)`` per track in id order; raises ValueError on a
    repeated (track_id, frame_index) pair.
    """
    buckets = {}
    for fr in frames:
        for obs in fr.persons:
            buckets.setdefault(obs.track_id, []).append((fr.frame_index, obs))
    tracks = []
    for tid in sorted(buckets):
        rows = sorted(buckets[tid], key=lambda row: row[0])
        track_frames = np.array([fi for fi, _ in rows], dtype=np.int64)
        if np.any(np.diff(track_frames) == 0):
            raise ValueError(f"duplicate observation for track {tid}")
        tracks.append(
            (
                tid,
                track_frames,
                np.stack([obs.keypoints[:, :2] for _, obs in rows]),
                np.array([obs.bbox.as_tuple() for _, obs in rows], dtype=np.float64),
                np.array([obs.interpolated for _, obs in rows], dtype=bool),
            )
        )
    return tracks


def iou_grid(box_a, box_b, cell=0.25):
    """IoU by counting occupancy on a regular grid of cell centers."""
    x_lo = min(box_a[0], box_b[0])
    y_lo = min(box_a[1], box_b[1])
    x_hi = max(box_a[2], box_b[2])
    y_hi = max(box_a[3], box_b[3])
    xs = np.arange(x_lo + cell / 2, x_hi, cell)
    ys = np.arange(y_lo + cell / 2, y_hi, cell)
    gx, gy = np.meshgrid(xs, ys)

    def inside(box):
        return (gx >= box[0]) & (gx < box[2]) & (gy >= box[1]) & (gy < box[3])

    in_a = inside(box_a)
    in_b = inside(box_b)
    union = int(np.sum(in_a | in_b))
    if union == 0:
        return 0.0
    return float(np.sum(in_a & in_b)) / union


def moving_average_scan(values, window):
    """Centered moving average with the half-width shrunk near the edges."""
    values = np.asarray(values, dtype=float)
    n = len(values)
    h = window // 2
    out = np.empty(n)
    for i in range(n):
        hw = min(i, n - 1 - i, h)
        out[i] = values[i - hw : i + hw + 1].mean()
    return out


def window_count(n, length, stride):
    return max(0, (n - length) // stride + 1)


def interp_positions(frame_indices, values, query_indices):
    """Per-coordinate linear interpolation via np.interp."""
    frame_indices = np.asarray(frame_indices, dtype=float)
    values = np.asarray(values, dtype=float)
    flat = values.reshape(len(frame_indices), -1)
    cols = [np.interp(query_indices, frame_indices, flat[:, j]) for j in range(flat.shape[1])]
    stacked = np.stack(cols, axis=1)
    return stacked.reshape((len(query_indices),) + values.shape[1:])


def random_series(rng, n_max=50):
    """A random score series with deliberate ties and both labels present."""
    n = int(rng.integers(4, n_max + 1))
    # Draw from a small grid so ties happen often.
    scores = rng.integers(0, max(3, n // 2), size=n).astype(float) / 4.0
    labels = rng.integers(0, 2, size=n)
    if labels.sum() == 0:
        labels[int(rng.integers(0, n))] = 1
    if labels.sum() == n:
        labels[int(rng.integers(0, n))] = 0
    return scores, labels
