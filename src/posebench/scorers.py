"""Window scorers: higher score means more anomalous.

Both scorers train on normalized pose windows only (no labels), support
incremental ingestion, and are fully deterministic given their seed and the
order of ingested windows. Every call takes one ``WindowBatch`` and reads
its arrays: the gaussian scorer featurizes the whole batch at once, the knn
scorer gathers each window's rows of ``poses``. A scorer's state is written
only as a versioned .ckpt file (an npz container); a knn file holds the
scorer's pose rows and window index as they are in memory.
A caller may score one batch again and again (the continual runner's test
set, after every slice): the knn scorer keeps what its last scoring computed
and then scans only the windows stored since.
"""

from __future__ import annotations

import hashlib
import json
import os
import zipfile

import numpy as np

from . import _kernels
from .errors import ValidationError, check_int, is_number
from .model import KEYPOINT_COUNT
from .preprocess import WindowBatch

CHECKPOINT_VERSION = 3
_POSE = 2 * KEYPOINT_COUNT  # values per pose row
_GATHER_ELEMENTS = 1 << 20  # most values of stored windows one kernel call gathers (4 MB of float32)


def kinematic_features(batch: WindowBatch) -> np.ndarray:
    """(n, 51) features per window: 17 mean per-joint step magnitudes + 34 mean pose values.

    A step magnitude is the Euclidean frame-to-frame move of one normalized
    joint; the mean pose is the per-coordinate average of the normalized
    keypoints. Steps are computed once per row of ``batch.poses``. Both
    means add the window's rows offset by offset, in order, and divide
    once, the operations ``np.mean(axis=0)`` performs on one window, so every
    row equals the per-window formula bit for bit without an
    (n, length, 17, 2) copy. Requires window length >= 2.
    """
    length, rows = batch.length, batch.rows
    if length < 2:
        raise ValidationError("kinematic features require window length >= 2")
    poses = batch.poses.reshape(-1, 2 * KEYPOINT_COUNT)
    steps = np.sqrt(((batch.poses[1:] - batch.poses[:-1]) ** 2).sum(axis=2))
    disp, pose = steps[rows], poses[rows]
    for j in range(1, length):
        if j < length - 1:
            disp += steps[rows + j]
        pose += poses[rows + j]
    return np.concatenate([disp / (length - 1), pose / length], axis=1)


def _check_dimension(got: int, held: int, what: str):
    if got != held:
        raise ValidationError(f"feature dimension {got} does not match {what} dimension {held}")


class AnomalyScorer:
    """What every scorer shares: ``fit`` and checkpoint writing.

    Each kind also has reset, partial_fit, score_batch (one score per window of a
    WindowBatch) and windows_seen, plus ``_checkpoint`` for its file. It declares
    ``params``, the constructor arguments a config's ``scorer_params`` may set, and
    ``seeded``, whether it takes the run's scorer seed.
    """

    kind = "base"
    seeded = False

    def fit(self, batch: WindowBatch):
        """Discard state and ingest the batch's windows."""
        self.reset()
        self.partial_fit(batch)

    def save_checkpoint(self, path, *, base=None):
        """Write a versioned .ckpt file: an npz container of a JSON ``meta`` member and the arrays.

        Each kind's ``_checkpoint(path, base)`` gives its meta fields after format, version and kind,
        and its arrays. ``base`` is the file this scorer last saved, in the same directory: a knn scorer
        whose saved slots are unchanged since then writes what it added and a ``base`` record, and every
        other save the full state. The members are laid out as np.savez lays them out, ``meta`` first,
        and hashed as they are written.
        """
        fields, arrays = self._checkpoint(path, base)
        meta = {"format": "posebench-checkpoint", "version": CHECKPOINT_VERSION, "kind": self.kind, **fields}
        hashes = {}
        with zipfile.ZipFile(path, "w", compression=zipfile.ZIP_STORED, allowZip64=True) as zf:
            for name, array in {"meta": np.array(json.dumps(meta)), **arrays}.items():
                with zf.open(f"{name}.npy", "w", force_zip64=True) as fh:
                    out = _Hashing(fh)
                    np.lib.format.write_array(out, np.asanyarray(array), allow_pickle=False)
                hashes[f"{name}.npy"] = out.sha256.hexdigest()
        self._saved(path, _combine(hashes))

    def _saved(self, path, digest: str):
        """``path`` now holds this scorer's state, its members hashing to ``digest``; a chaining kind notes it."""


class GaussianScorer(AnomalyScorer):
    """Running diagonal Gaussian over kinematic features, scored by Mahalanobis distance.

    Mean and variance accumulate with Welford updates; fit and any split of
    the same windows into partial_fit calls produce identical state because
    both run the same sequential update. Variances are floored before
    scoring so constant features cannot divide by zero.
    """

    kind = "gaussian"
    params = ("variance_floor",)

    def __init__(self, variance_floor: float = 1e-8):
        if not (is_number(variance_floor) and variance_floor > 0):
            raise ValidationError(f"variance_floor must be a positive number, got {variance_floor!r}")
        self.variance_floor = float(variance_floor)
        self.reset()

    def reset(self):
        self._count = 0
        self._mean = None
        self._m2 = None

    def partial_fit(self, batch: WindowBatch):
        if not len(batch):
            return
        x = kinematic_features(batch)
        if self._mean is None:
            self._mean = np.zeros(x.shape[1])
            self._m2 = np.zeros(x.shape[1])
        _check_dimension(x.shape[1], self._mean.size, "fitted")
        self._count = int(_kernels.welford_update(self._count, self._mean, self._m2, x))

    def score_batch(self, batch: WindowBatch) -> np.ndarray:
        if self._count < 2:
            raise ValidationError(
                f"gaussian scorer needs at least 2 ingested windows to score, has {self._count}"
            )
        if not len(batch):
            return np.empty(0, dtype=np.float64)
        x = kinematic_features(batch)
        _check_dimension(x.shape[1], self._mean.size, "fitted")
        var = np.maximum(self._m2 / (self._count - 1), self.variance_floor)
        z = x - self._mean
        return np.sqrt((z * z / var).sum(axis=1))

    @property
    def windows_seen(self) -> int:
        return self._count

    def _checkpoint(self, path, base):
        # Never chained: the state is 2 x 51 floats.
        arrays = {} if self._mean is None else {"mean": self._mean, "m2": self._m2}
        return {"params": {"variance_floor": self.variance_floor}, "count": self._count}, arrays


class KnnScorer(AnomalyScorer):
    """Seeded reservoir of pose windows, scored by mean distance to the k nearest.

    The reservoir keeps a uniform sample of all ingested windows once
    capacity is exceeded (algorithm R); replacement draws come from a PCG64
    generator seeded at construction, so ingestion is reproducible byte for
    byte given the same window order. The store is the checkpoint's pair:
    ``_poses`` (P, 34) pose rows and ``_index`` (stored, length), slot ``i``
    being the window ``_poses[_index[i]]``. ``_poses`` holds exactly the
    source rows the index references, each once, in first-use order, so a
    save writes both as they are. Until a reset or a replacement of a slot
    the last save or scoring holds, both change only past those slots, so a
    save chained on the last one writes just the rows and slots added since.
    Scoring hands the kernel ``_poses`` and the slots it scans, which it
    gathers as centred float32 windows. The scorer keeps what its last
    ``score_batch`` computed: the batch; its ``KnnQueries``, namely the
    centre (the mean of the pose rows the batch's windows use) and the
    centred float32 query matrix, neither ever written to a checkpoint; each
    query's k smallest squared distances (ascending); the stored windows
    they cover; and the store generation. Scoring the same batch
    object again in that generation scans only the windows stored since, and
    the merged distances equal a fresh scan bit for bit; any other batch or
    generation is scanned afresh.
    """

    kind = "knn"
    params = ("k_nn", "capacity")
    seeded = True

    def __init__(self, k_nn: int = 5, capacity: int = 50_000, seed: int = 0):
        check_int("k_nn", k_nn, 1)
        check_int("capacity", capacity, k_nn)
        check_int("seed", seed)
        self.k_nn = k_nn
        self.capacity = capacity
        self.seed = seed
        self.reset()

    def reset(self):
        self._rng = np.random.default_rng(self.seed)
        self._poses = self._index = None
        self._seen = 0
        self._generation = object()  # a new token whenever a slot the last save or scoring holds changes
        self._last_save = None  # (absolute path, generation, pose rows, slots, member sha256) of the last save
        self._scored = None  # (batch, KnnQueries, k smallest squared distances, windows covered, generation)

    def partial_fit(self, batch: WindowBatch):
        if not len(batch):
            return
        length = batch.length
        if self._index is None:
            self._poses, self._index = np.empty((0, _POSE)), np.empty((0, length), dtype=np.int64)
        _check_dimension(length * _POSE, self._index.shape[1] * _POSE, "stored")
        # Each window's index row into _poses followed by the batch's rows.
        slots = len(self._poses) + batch.rows[:, None] + np.arange(length)
        fill = min(len(batch), self.capacity - len(self._index))
        index = np.concatenate([self._index, slots[:fill]])
        self._seen += fill
        held = max(self._last_save[3] if self._last_save else 0, self._scored[3] if self._scored else 0)
        for i in range(fill, len(batch)):
            self._seen += 1
            j = int(self._rng.integers(0, self._seen))
            if j < self.capacity:
                index[j] = slots[i]
                if j < held:
                    self._generation = object()
        poses = np.concatenate([self._poses, batch.poses.reshape(-1, _POSE)])
        self._poses, self._index = _first_use(poses, index)

    def score_batch(self, batch: WindowBatch) -> np.ndarray:
        if self.stored_count < self.k_nn:
            raise ValidationError(
                f"knn scorer has {self.stored_count} stored windows, needs at least k_nn={self.k_nn}"
            )
        if not len(batch):
            return np.empty(0, dtype=np.float64)
        last = self._scored
        if last is not None and last[0] is batch and last[4] is self._generation:
            _, queries, kd, start, _ = last
        else:
            index = batch.rows[:, None] + np.arange(batch.length)
            queries = _kernels.knn_queries(batch.poses.reshape(-1, _POSE), index)
            kd, start = None, 0
        _check_dimension(queries.matrix.shape[1], self._index.shape[1] * _POSE, "stored")
        # The kernel gathers the windows a block at a time, and each block merges into the distances so far.
        step = max(1, _GATHER_ELEMENTS // queries.matrix.shape[1])
        for stop in [*range(start + step, self.stored_count, step), self.stored_count]:
            kd = _kernels.knn_k_smallest(self._poses, self._index[start:stop], queries, self.k_nn, kd)
            start = stop
        self._scored = (batch, queries, kd, self.stored_count, self._generation)
        return np.sqrt(kd).mean(axis=1)

    @property
    def windows_seen(self) -> int:
        return self._seen

    @property
    def stored_count(self) -> int:
        return 0 if self._index is None else len(self._index)

    def _checkpoint(self, path, base):
        fields = {"params": {"k_nn": self.k_nn, "capacity": self.capacity, "seed": self.seed}, "seen": self._seen}
        fields["rng_state"] = self._rng.bit_generator.state
        if self._index is None:
            return fields, {}
        last, target = self._last_save, os.path.abspath(path)
        rows = slots = 0  # a full save
        # Only changes past the last save's slots keep its rows and slots a prefix of the store's.
        if (
            base is not None
            and last is not None
            and last[1] is self._generation
            and last[0] == os.path.abspath(base) != target
            and os.path.dirname(last[0]) == os.path.dirname(target)
        ):
            _, _, rows, slots, sha256 = last
            fields["base"] = {"name": os.path.basename(last[0]), "rows": rows, "slots": slots, "sha256": sha256}
        index = self._index[slots:].astype(np.int32 if len(self._poses) < 2**31 else np.int64)
        return fields, {"rows": self._poses[rows:], "index": index}

    def _saved(self, path, digest: str):
        if self._index is not None:
            self._last_save = (os.path.abspath(path), self._generation, len(self._poses), self.stored_count, digest)


def _first_use(poses: np.ndarray, index: np.ndarray):
    """The rows of ``poses`` that ``index`` references, in first-use order, and ``index`` relabelled to them.

    First use runs slot by slot, then offset by offset. Arrays already in that form come back as they are.
    """
    used, first = np.unique(index, return_index=True)
    keep = used[np.argsort(first)]
    if len(keep) == len(poses) and (keep == np.arange(len(poses))).all():
        return poses, index
    label = np.empty(len(poses), dtype=np.int64)
    label[keep] = np.arange(len(keep))
    return poses[keep], label[index]


SCORERS = {cls.kind: cls for cls in (GaussianScorer, KnnScorer)}
SCORER_KINDS = tuple(SCORERS)


def make_scorer(kind: str, seed: int = 0, params: dict | None = None) -> AnomalyScorer:
    """Build a scorer by kind name; the seed only reaches a ``seeded`` kind.

    ``params`` may hold only the constructor arguments that kind's ``params`` names.
    """
    if kind not in SCORERS:
        raise ValidationError(f"unknown scorer kind {kind!r}, expected one of {SCORER_KINDS}")
    cls, params = SCORERS[kind], dict(params or {})
    unknown = sorted(set(params) - set(cls.params))
    if unknown:
        raise ValidationError(f"unknown {kind} scorer_params keys: {unknown}")
    return cls(seed=seed, **params) if cls.seeded else cls(**params)


class _Hashing:
    """A writable file that passes each write on to ``fh`` and feeds its bytes to a sha256."""

    def __init__(self, fh):
        self.fh, self.sha256 = fh, hashlib.sha256()

    def write(self, data):
        self.sha256.update(data)
        return self.fh.write(data)


def _combine(hashes: dict) -> str:
    """A checkpoint's digest: sha256 over each member name and the sha256 of its bytes (``hashes``), in name order.

    The zip stamps each member with the time it was written, so the archive bytes differ between identical
    saves; the members do not.
    """
    total = hashlib.sha256()
    for name in sorted(hashes):
        total.update(f"{name} {hashes[name]}\n".encode())
    return total.hexdigest()
