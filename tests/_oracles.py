"""Independent reference implementations used to check the fast library code.

Everything here is written for clarity over speed: exhaustive threshold
enumeration, pairwise counting, per-index scans, a per-step synthetic
generator and a checkpoint reader. None of it imports from posebench, so an
error in the library cannot leak into its own oracle.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import zipfile
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
    """Probability a random anomalous score outranks a random normal one: exact counts of halves, divided once."""
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


def kinematic_features(window):
    """51 features of one (length, 17, 2) window: mean per-joint step magnitude, then the mean pose."""
    disp = np.sqrt(((window[1:] - window[:-1]) ** 2).sum(axis=2)).mean(axis=0)
    return np.concatenate([disp, window.mean(axis=0).reshape(-1)])


def box_area(box):
    """Area of an (x1, y1, x2, y2) box."""
    return (box[2] - box[0]) * (box[3] - box[1])


def iou(a, b):
    """Intersection over union of two (x1, y1, x2, y2) boxes; 0.0 when they do not overlap."""
    ix1 = max(a[0], b[0])
    iy1 = max(a[1], b[1])
    ix2 = min(a[2], b[2])
    iy2 = min(a[3], b[3])
    iw = ix2 - ix1
    ih = iy2 - iy1
    if iw <= 0.0 or ih <= 0.0:
        return 0.0
    inter = iw * ih
    union = box_area(a) + box_area(b) - inter
    if union <= 0.0:
        return 0.0
    return inter / union


def frame_max_iou(frame):
    """Max pairwise IoU over a frame object's person boxes; 0.0 with fewer than 2 persons."""
    boxes = [obs["bbox"] for obs in frame["persons"]]
    best = 0.0
    for i in range(len(boxes)):
        for j in range(i + 1, len(boxes)):
            best = max(best, iou(boxes[i], boxes[j]))
    return best


def tracks_by_bucketing(frames):
    """Track assembly one observation at a time from frame objects of the JSONL schema.

    Buckets each person by track id, sorts a bucket by frame index and
    stacks it. Returns ``(track_id, frames, keypoints (n, 17, 2), bbox
    (n, 4))`` per track in id order; raises ValueError on a repeated
    (track_id, frame_index) pair.
    """
    buckets = {}
    for fr in frames:
        for obs in fr["persons"]:
            buckets.setdefault(obs["track_id"], []).append((fr["frame_index"], obs))
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
                np.array([[kp[:2] for kp in obs["keypoints"]] for _, obs in rows], dtype=np.float64),
                np.array([obs["bbox"] for _, obs in rows], dtype=np.float64),
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


# The synthetic generator written per step: one walker object per person, and the
# draws, the clip and the (17, 3) stack once per person and frame. Only the pose
# template comes from the caller.
SYNTH_CANVAS = (1280.0, 720.0)
SYNTH_MARGIN = 170.0


def _synth_start(rng):
    return np.array(
        [
            rng.uniform(SYNTH_MARGIN, SYNTH_CANVAS[0] - SYNTH_MARGIN),
            rng.uniform(SYNTH_MARGIN, SYNTH_CANVAS[1] - SYNTH_MARGIN),
        ]
    )


def _synth_clamp(pos):
    pos[0] = min(max(pos[0], SYNTH_MARGIN), SYNTH_CANVAS[0] - SYNTH_MARGIN)
    pos[1] = min(max(pos[1], SYNTH_MARGIN), SYNTH_CANVAS[1] - SYNTH_MARGIN)
    return pos


def _synth_keypoints(rng, pts):
    x = np.clip(pts[:, 0], 0.5, SYNTH_CANVAS[0] - 0.5)
    y = np.clip(pts[:, 1], 0.5, SYNTH_CANVAS[1] - 0.5)
    vis = rng.uniform(0.3, 1.0, size=pts.shape[0])
    return np.column_stack((x, y, vis))


class _SynthWalker:
    def __init__(self, rng, template, step_sigma, jitter_sigma):
        self.template = template
        self.step_sigma = step_sigma
        self.jitter_sigma = jitter_sigma
        self.pos = _synth_start(rng)
        self.vel = rng.normal(0.0, step_sigma, size=2)

    def step(self, rng):
        pts = self.pos[None, :] + self.template + rng.normal(0.0, self.jitter_sigma, size=self.template.shape)
        kps = _synth_keypoints(rng, pts)
        self.vel = 0.85 * self.vel + rng.normal(0.0, self.step_sigma, size=2)
        self.pos = _synth_clamp(self.pos + self.vel)
        return kps


def _synth_anomaly(rng, kind, length, template, step_sigma, jitter_sigma, boost):
    center = _synth_start(rng)
    out = []
    if kind == "velocity":
        spike = boost * (step_sigma + jitter_sigma)
        for _ in range(length):
            pts = center[None, :] + template + rng.normal(0.0, spike, size=template.shape)
            out.append(_synth_keypoints(rng, pts))
            center = _synth_clamp(center + rng.normal(0.0, spike, size=2))
    elif kind == "frozen":
        pts = center[None, :] + template + rng.normal(0.0, jitter_sigma, size=template.shape)
        for _ in range(length):
            out.append(_synth_keypoints(rng, pts))
    else:  # limb_collapse
        folded = template.copy()
        folded[:, 0] *= 0.05
        vel = rng.normal(0.0, step_sigma, size=2)
        for _ in range(length):
            pts = center[None, :] + folded + rng.normal(0.0, jitter_sigma, size=folded.shape)
            out.append(_synth_keypoints(rng, pts))
            vel = 0.85 * vel + rng.normal(0.0, step_sigma, size=2)
            center = _synth_clamp(center + vel)
    return out


def _synth_walk(rng, count, persons, template, step_sigma, jitter_sigma):
    walkers = [_SynthWalker(rng, template, step_sigma, jitter_sigma) for _ in range(persons)]
    return [[w.step(rng) for w in walkers] for _ in range(count)]


def synth_normals(n_frames, seed, persons, template, step_sigma, jitter_sigma):
    """(n_frames * persons, 17, 3) keypoints of generate_normals, frame by frame, walkers in order."""
    walked = _synth_walk(np.random.default_rng(seed), n_frames, persons, template, step_sigma, jitter_sigma)
    return np.array(walked).reshape(-1, 17, 3)


def synth_split(
    train_normal, test_normal, test_anomaly, seed, persons, kinds, segment_length, template, step_sigma, jitter_sigma,
    boost,
):
    """(train keypoints, test keypoints, test anomalous mask) of generate_split.

    Keypoints are in table row order: each frame's walkers, then its anomaly person if any.
    """
    rng = np.random.default_rng(seed)
    train = _synth_walk(rng, train_normal, persons, template, step_sigma, jitter_sigma)
    total = test_normal + test_anomaly
    n_seg = max(1, test_anomaly // segment_length)
    base, rem = divmod(test_anomaly, n_seg)
    lengths = [base + 1] * rem + [base] * (n_seg - rem)
    chunk = total // n_seg
    starts = [s * chunk + int(rng.integers(0, chunk - n + 1)) for s, n in enumerate(lengths)]
    extra = {}
    for s, (start, n) in enumerate(zip(starts, lengths)):
        kps = _synth_anomaly(rng, kinds[s % len(kinds)], n, template, step_sigma, jitter_sigma, boost)
        extra.update(zip(range(start, start + n), kps))
    test = _synth_walk(rng, total, persons, template, step_sigma, jitter_sigma)
    rows = [kps for t, frame in enumerate(test) for kps in frame + ([extra[t]] if t in extra else [])]
    anomalous = np.array([t in extra for t in range(total)])
    return np.array(train).reshape(-1, 17, 3), np.array(rows), anomalous


def knn_reservoir(batches, capacity, seed):
    """Per slot, the source row ids of the window a knn reservoir holds after ingesting ``batches``.

    A batch's pose rows get the ids after those of the batches before it. Windows are taken one at a
    time: the first ``capacity`` fill the slots, and each later one draws ``j = integers(0, seen)``
    from ``default_rng(seed)`` and replaces slot ``j`` when ``j < capacity`` (algorithm R).
    """
    rng = np.random.default_rng(seed)
    slots, seen, base = [], 0, 0
    for batch in batches:
        for r in batch.rows.tolist():
            ids = list(range(base + r, base + r + batch.length))
            seen += 1
            if len(slots) < capacity:
                slots.append(ids)
            else:
                j = int(rng.integers(0, seen))
                if j < capacity:
                    slots[j] = ids
        base += len(batch.poses)
    return slots


def first_use(slots):
    """The ids that ``slots`` reference, each once, in first-use order (slot by slot, then offset by
    offset), and each slot's ids as positions in that list."""
    position = {}
    for ids in slots:
        for i in ids:
            position.setdefault(i, len(position))
    return list(position), [[position[i] for i in ids] for ids in slots]


def checkpoint_digest(path):
    """sha256 over one ``"<member name> <sha256 of its bytes>\\n"`` line per member of a checkpoint, in name order."""
    with zipfile.ZipFile(path) as zf:
        lines = [f"{name} {hashlib.sha256(zf.read(name)).hexdigest()}\n" for name in sorted(zf.namelist())]
    return hashlib.sha256("".join(lines).encode()).hexdigest()


def read_checkpoint(path):
    """A checkpoint's meta and its arrays by name, read with ``np.load``.

    A file with a ``base`` record continues the file it names in the same directory, whose members must
    match the recorded sha256; its ``rows`` and ``index`` follow the base's own, read the same way. The
    file is trusted otherwise.
    """
    with np.load(path) as data:
        meta = json.loads(str(data["meta"]))
        arrays = {name: data[name] for name in data.files if name != "meta"}
    if "base" in meta:
        base = os.path.join(os.path.dirname(path), meta["base"]["name"])
        assert checkpoint_digest(base) == meta["base"]["sha256"], f"{base} does not match the sha256 {path} records"
        head = read_checkpoint(base)[1]
        arrays = {name: np.concatenate([head[name], arrays[name]]) for name in ("rows", "index")}
    return meta, arrays


def read_frames_json(reader, error):
    """``io.read_frames`` with ``json.loads`` as its only parser, for the file at ``reader.path``.

    Each decoded, non-blank line goes through ``json.loads`` and then ``reader.add`` (``reader`` is
    an ``io._Reader``); a line that is not UTF-8 or not JSON raises ``error``. Returns
    ``reader.table()``.
    """
    with open(reader.path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            where = f"{reader.path}: line {lineno}"
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise error(f"{where}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
            if line.isspace():
                continue
            try:
                obj = json.loads(line)
            except RecursionError:
                raise error(f"{where}: malformed JSON: nesting too deep") from None
            except ValueError as exc:
                raise error(f"{where}: malformed JSON: {getattr(exc, 'msg', exc)}") from None
            reader.add(obj, lineno, "NaN" in line)
    return reader.table()


def write_frames_json(columns, path):
    """``io.write_frames`` with ``json.dumps`` as its only writer, for a table's ``columns``.

    ``columns`` has the ``FrameTable`` attributes. Each frame row becomes a dict built from Python
    lists, ``None`` for a NaN visibility and ``interpolated`` true when every visibility is ``None``,
    and one compact ``json.dumps`` line.
    """
    labels = ("normal", "anomalous")
    with open(path, "w", encoding="utf-8") as fh:
        for row in range(len(columns.frame_index)):
            persons = []
            for p in np.flatnonzero(columns.frame_row == row):
                keypoints = [[x, y, None if v != v else v] for x, y, v in columns.keypoints[p].tolist()]
                persons.append({
                    "track_id": columns.track_id[p].item(),
                    "bbox": columns.bbox[p].tolist(),
                    "interpolated": all(v is None for _, _, v in keypoints),
                    "keypoints": keypoints,
                })
            obj = {
                "camera_id": columns.camera_id,
                "frame_index": columns.frame_index[row].item(),
                "label": labels[columns.anomalous[row].item()],
                "anomaly_regions": columns.regions[columns.region_frame == row].tolist(),
                "persons": persons,
            }
            fh.write(json.dumps(obj, separators=(",", ":")) + "\n")


FRAME_TABLE_COLUMNS = (  # every field but camera_id
    "frame_index", "anomalous", "region_frame", "regions", "frame_row", "track_id", "keypoints", "bbox",
)


def concat_then_take(tables, rows):
    """The columns of the frames at ``rows`` of ``tables`` laid end to end, as a dict by name, and their one camera_id.

    Every column is concatenated first, the region and person rows shifted
    onto the joined frame rows; then each output frame is copied in turn with
    its regions and persons. ``tables`` are objects with FrameTable's columns
    and one ``camera_id``.
    """
    (camera_id,) = {t.camera_id for t in tables}
    joined = {name: np.concatenate([getattr(t, name) for t in tables]) for name in FRAME_TABLE_COLUMNS}
    starts = np.cumsum([0] + [len(t.frame_index) for t in tables[:-1]])
    for name in ("region_frame", "frame_row"):
        joined[name] = np.concatenate([getattr(t, name) + s for t, s in zip(tables, starts)])
    out = {name: [] for name in FRAME_TABLE_COLUMNS}
    for i, row in enumerate(rows):
        for name in ("frame_index", "anomalous"):
            out[name].append(joined[name][row])
        persons = ("track_id", "keypoints", "bbox")
        for group, names in (("region_frame", ("regions",)), ("frame_row", persons)):
            for item in np.flatnonzero(joined[group] == row):
                out[group].append(i)
                for name in names:
                    out[name].append(joined[name][item])
    return {"camera_id": camera_id} | {
        name: np.array(values, dtype=joined[name].dtype).reshape((len(values),) + joined[name].shape[1:])
        for name, values in out.items()
    }


def _runs(frames):
    """(start, stop) row ranges of the maximal runs of consecutive frames."""
    edges = [0, *(np.flatnonzero(np.diff(frames) != 1) + 1).tolist(), len(frames)]
    return list(zip(edges, edges[1:]))


def _interpolate_track(frames, keypoints, bbox, max_gap):
    """Fill internal gaps of up to max_gap frames: per inserted row, a + t * (b - a) with t = (f - f0) / (f1 - f0)."""
    if len(frames) < 2:
        return frames, keypoints, bbox
    gaps = np.diff(frames) - 1
    fill = np.where((gaps >= 1) & (gaps <= max_gap), gaps, 0)
    left = np.repeat(np.arange(fill.size), fill)
    step = np.arange(left.size) - np.repeat(np.cumsum(fill) - fill, fill) + 1
    f0 = frames[left]
    t = step / (frames[left + 1] - f0)
    kp0, kp1 = keypoints[left], keypoints[left + 1]
    b0, b1 = bbox[left], bbox[left + 1]
    all_frames = np.concatenate([frames, f0 + step])
    order = np.argsort(all_frames, kind="stable")
    return (
        all_frames[order],
        np.concatenate([keypoints, kp0 + t[:, None, None] * (kp1 - kp0)])[order],
        np.concatenate([bbox, b0 + t[:, None] * (b1 - b0)])[order],
    )


def _centered_moving_average(flat, window):
    n = flat.shape[0]
    h = window // 2
    out = np.empty((n, flat.shape[1]), dtype=np.float64)
    if n >= window:
        sw = np.lib.stride_tricks.sliding_window_view(flat, window, axis=0)
        out[h : n - h] = sw.mean(axis=-1)
        boundary = list(range(h)) + list(range(n - h, n))
    else:
        boundary = list(range(n))
    for i in boundary:
        hw = min(i, n - 1 - i, h)
        out[i] = flat[i - hw : i + hw + 1].mean(axis=0)
    return out


def _smooth_track(frames, keypoints, window):
    if window == 1 or len(frames) == 0:
        return keypoints
    out = np.empty_like(keypoints)
    for start, stop in _runs(frames):
        flat = keypoints[start:stop].reshape(stop - start, -1)
        out[start:stop] = _centered_moving_average(flat, window).reshape(-1, 17, 2)
    return out


def _normalize(keypoints, bbox):
    extent = bbox[:, 2:] - bbox[:, :2]
    diag = np.array([math.hypot(w, h) for w, h in extent.tolist()], dtype=np.float64)
    center = (bbox[:, :2] + bbox[:, 2:]) / 2.0
    return (keypoints - center[:, None, :]) / diag[:, None, None]


def windows_per_track(frames, length, stride, max_gap, smoothing_window):
    """The window batch of a table's person rows, built one track at a time, as a dict of arrays.

    Person rows are split into tracks by one lexsort on (track_id,
    frame_index); each track is interpolated, smoothed per run, normalized
    and cut into windows every ``stride`` rows of each run. Tracks follow in
    id order, and ``rows`` index the tracks' rows stacked in that order.
    ``frames`` is an object with FrameTable's columns. Raises ValueError on a
    repeated (track_id, frame_index) pair.
    """
    frame_index = frames.frame_index[frames.frame_row]
    order = np.lexsort((frame_index, frames.track_id))
    tids, fis = frames.track_id[order], frame_index[order]
    if np.any((tids[1:] == tids[:-1]) & (fis[1:] == fis[:-1])):
        raise ValueError("duplicate observation")
    keypoints, bbox = frames.keypoints[order, :, :2], frames.bbox[order]
    out = {"poses": [np.empty((0, 17, 2))], "rows": [np.empty(0, np.int64)], "track_id": [np.empty(0, np.int64)],
           "start_frame": [np.empty(0, np.int64)]}
    base = 0
    for tid in np.unique(tids):
        at = tids == tid
        f, kp, box = _interpolate_track(fis[at], keypoints[at], bbox[at], max_gap)
        kp = _smooth_track(f, kp, smoothing_window)
        starts = np.array([s for a, b in _runs(f) for s in range(a, b - length + 1, stride)], dtype=np.int64)
        out["poses"].append(_normalize(kp, box))
        out["rows"].append(starts + base)
        out["track_id"].append(np.full(starts.size, tid, dtype=np.int64))
        out["start_frame"].append(f[starts])
        base += len(f)
    return {name: np.concatenate(parts) for name, parts in out.items()}
