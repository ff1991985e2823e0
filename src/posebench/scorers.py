"""Window scorers: higher score means more anomalous.

Both scorers train on normalized pose windows only (no labels), support
incremental ingestion, and are fully deterministic given their seed and the
order of ingested windows. Every call takes one ``WindowBatch`` and reads
its arrays: the gaussian scorer featurizes the whole batch at once, the knn
scorer gathers each window's rows of ``poses``. A scorer's state is written
and read only as a versioned .ckpt file (an npz container); a knn file holds
the scorer's pose rows and window index as they are in memory.
A caller may score one batch again and again (the continual runner's test
set, after every slice): the knn scorer keeps what its last scoring computed
and then scans only the windows stored since.
"""

from __future__ import annotations

import contextlib
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
_READ_VERSIONS = (2, 3)  # a version-2 file is a version-3 file without a base record
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
    WindowBatch) and windows_seen, plus ``_checkpoint`` and ``_load`` for its file.
    It declares ``params``, the constructor arguments a config's ``scorer_params`` may
    set; ``seeded``, whether it takes the run's scorer seed; and ``meta_fields``, the
    fields its checkpoint meta carries with their decoded JSON types.
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
        and its arrays; its ``_load(meta, arrays)`` takes them back. ``base`` is the file this scorer
        last saved, in the same directory: a knn scorer whose saved slots are unchanged since then
        writes what it added and a ``base`` record, and every other save the full state. The members are
        laid out as np.savez lays them out, ``meta`` first, and hashed as they are written.
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
    meta_fields = (("params", dict), ("count", int))

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

    def _load(self, meta: dict, arrays: dict):
        """Take the state of a checkpoint's meta fields and arrays, as ``_checkpoint`` gave them."""
        self._count = int(meta["count"])
        mean, m2 = arrays.get("mean"), arrays.get("m2")
        self._mean = None if mean is None else np.asarray(mean, dtype=np.float64)
        self._m2 = None if mean is None or m2 is None else np.asarray(m2, dtype=np.float64)
        if self._count < 0:
            raise ValidationError(f"gaussian count must be >= 0, got {self._count}")
        if (self._mean is None, self._m2 is None) != (self._count == 0,) * 2:
            raise ValidationError("gaussian state must hold mean and m2 exactly when its count is positive")
        if self._mean is not None and (self._mean.ndim != 1 or self._m2.shape != self._mean.shape):
            raise ValidationError(f"gaussian m2 {self._m2.shape} must have mean's shape {self._mean.shape}")
        if self._mean is not None and not (np.isfinite(self._mean).all() and np.isfinite(self._m2).all()):
            raise ValidationError("gaussian mean and m2 must be finite")

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
    the merged distances equal a fresh scan bit for bit; any other batch,
    generation or a store smaller than the covered count is scanned afresh.
    """

    kind = "knn"
    params = ("k_nn", "capacity")
    seeded = True
    meta_fields = (("params", dict), ("seen", int), ("rng_state", dict))

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
        if last is not None and last[0] is batch and last[4] is self._generation and last[3] <= self.stored_count:
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

    def _load(self, meta: dict, arrays: dict):
        """Take the state of a checkpoint's meta fields and its ``rows`` and ``index`` arrays."""
        self._seen = int(meta["seen"])
        rows, index = arrays.get("rows"), arrays.get("index")
        if (rows is None) != (index is None):
            raise ValidationError("knn rows and index must be stored together")
        if rows is not None:
            rows = np.asarray(rows, dtype=np.float64)
            if rows.ndim != 2:
                raise ValidationError(f"knn rows must be 2-D, got shape {rows.shape}")
            if rows.shape[1] != _POSE:
                raise ValidationError(f"knn rows must hold {_POSE} values each, got {rows.shape[1]}")
            if index.dtype.kind not in "iu":
                raise ValidationError(f"knn index must be 2-D integers, got {index.dtype} {index.shape}")
            if index.ndim != 2 or len(index) > self.capacity:
                raise ValidationError(
                    f"knn store must be 2-D with at most {self.capacity} rows, got shape {index.shape}"
                )
            if index.size and (index.min() < 0 or index.max() >= len(rows)):
                raise ValidationError(f"knn index must lie in [0, {len(rows)}), got {index.min()}..{index.max()}")
            if not np.isfinite(rows).all():
                raise ValidationError("knn store must be finite")
            self._poses, self._index = _first_use(rows, index.astype(np.int64))
        if self._seen < self.stored_count:
            raise ValidationError(f"knn seen {self._seen} must count at least the {self.stored_count} stored rows")
        self._rng.bit_generator.state = meta["rng_state"]

    def _checkpoint(self, path, base):
        fields = {"params": {"k_nn": self.k_nn, "capacity": self.capacity, "seed": self.seed}, "seen": self._seen}
        fields["rng_state"] = self._rng.bit_generator.state
        if self._index is None:
            return fields, {}
        index = self._index.astype(np.int32 if len(self._poses) < 2**31 else np.int64)
        last, target = self._last_save, os.path.abspath(path)
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
            return fields, {"rows": self._poses[rows:], "index": index[slots:]}
        return fields, {"rows": self._poses, "index": index}

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


def load_checkpoint(path) -> AnomalyScorer:
    """Load a scorer from a .ckpt file written by save_checkpoint (format version 2 or 3).

    A chained file (one with a ``base`` record) is read with its bases, into
    arrays equal to the saving scorer's store bit for bit (see ``_unchain``).
    A damaged file, a ``meta`` record missing a field or holding one of the
    wrong type, a chain that does not hold together and state the scorer
    rejects all raise ValidationError naming the file.
    """
    meta = _read(path)
    kind = meta.get("kind")
    cls = SCORERS.get(kind) if isinstance(kind, str) else None  # a JSON list or object is no kind either
    if cls is None:
        raise ValidationError(f"unknown scorer kind {kind!r} in checkpoint {path}")
    for name, expected in cls.meta_fields:
        if name not in meta:
            raise ValidationError(f"checkpoint {path}: meta lacks field {name!r}")
        if not isinstance(meta[name], expected):
            raise ValidationError(
                f"checkpoint {path}: meta field {name!r} must be {expected.__name__}, got {meta[name]!r}"
            )
    if "base" in meta:
        arrays = _unchain(path, meta)
    else:
        with _reading(path), np.load(path, allow_pickle=False) as data:
            arrays = {k: data[k] for k in data.files if k != "meta"}  # each read into a fresh array
    try:
        scorer = cls(**meta["params"])
        scorer._load(meta, arrays)
        return scorer
    except (TypeError, ValueError, KeyError, ValidationError) as exc:
        raise ValidationError(f"checkpoint {path}: state rejected ({type(exc).__name__}: {exc})") from None


@contextlib.contextmanager
def _reading(path):
    """Turn what a damaged, truncated or missing file raises while read into a ValidationError naming it."""
    try:
        yield
    except (OSError, EOFError, ValueError, KeyError, zipfile.BadZipFile) as exc:
        raise ValidationError(f"not a readable checkpoint file: {path} ({exc})") from None


def _read(path) -> dict:
    """One checkpoint file's meta, its format and version checked; no other member is read."""
    with _reading(path), np.load(path, allow_pickle=False) as data:
        meta = json.loads(str(data["meta"]))
    if not isinstance(meta, dict) or meta.get("format") != "posebench-checkpoint":
        raise ValidationError(f"not a posebench checkpoint: {path}")
    version = meta.get("version")
    if type(version) is not int or version not in _READ_VERSIONS:  # not a bool, not 2.0
        supported = ", ".join(map(str, _READ_VERSIONS))
        raise ValidationError(f"checkpoint {path}: unsupported version {version!r} (supported: {supported})")
    return meta


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


def _digest(path) -> str:
    """The digest of the checkpoint file ``path`` (see ``_combine``), read member by member."""
    hashes = {}
    with zipfile.ZipFile(path) as zf:
        for name in zf.namelist():
            member = hashlib.sha256()
            with zf.open(name) as fh:
                while block := fh.read(1 << 16):
                    member.update(block)
            hashes[name] = member.hexdigest()
    return _combine(hashes)


_CHAINED = {"rows": "rows", "index": "slots"}  # each array a chained file continues, and its count in ``base``
_CHAIN_MEMBERS = ["index.npy", "meta.npy", "rows.npy"]


def _base(link, meta, seen: set):
    """The checked ``base`` record of ``link``'s meta, or None; ``seen`` holds the file names of the chain so far."""
    record = meta.get("base")
    if record is None:
        return None
    if not isinstance(record, dict) or sorted(record) != ["name", "rows", "sha256", "slots"]:
        fields = "name, rows, slots and sha256"
        raise ValidationError(f"checkpoint {link}: meta field 'base' must hold {fields}, got {record!r}")
    name = record["name"]
    if not isinstance(name, str) or name in ("", ".", "..") or any(c in name for c in (os.sep, os.altsep, "\0") if c):
        raise ValidationError(f"checkpoint {link}: base {name!r} must be a bare file name")
    if name in seen:
        raise ValidationError(f"checkpoint {link}: base {name!r} closes a cycle")
    for key in ("rows", "slots"):
        check_int(f"checkpoint {link}: base {key}", record[key], 0)
    if not isinstance(record["sha256"], str):
        raise ValidationError(f"checkpoint {link}: base sha256 must be a string, got {record['sha256']!r}")
    seen.add(name)
    return record


def _header(fh):
    """The (shape, fortran_order, dtype) of the npy member ``fh``, which is left at its data."""
    version = np.lib.format.read_magic(fh)
    if version != (1, 0):  # what np.savez writes for every header shorter than 64 kB
        raise ValueError(f"npy format version {version} in a chained file")
    return np.lib.format.read_array_header_1_0(fh)


def _read_into(fh, out: np.ndarray):
    """Fill the C-contiguous ``out`` with the next bytes of ``fh``, 64 kB at a time."""
    view, done = memoryview(out.reshape(-1).view(np.uint8)), 0
    while done < len(view):
        got = fh.readinto(view[done : done + (1 << 16)])
        if not got:
            raise EOFError(f"the member ends after {done} of {len(view)} data bytes")
        done += got


def _unchain(path, meta) -> dict:
    """The full arrays of the chained file ``path``: each link's rows and slots read into place, top file first.

    The arrays are sized from the top's members and the counts its ``base`` record gives. Each base is a
    bare name in the top's directory that no link of the chain names already, so the chain cannot leave the
    directory or loop; it is opened only then, and read only if its members match the sha256 its successor
    records. Each link holds meta, rows and index only; its rows and index must be 2-D, of the top's dtypes
    and widths, with exactly the rows that its own counts and its successor's leave to it.
    """
    kind, link, seen, full, ends = meta["kind"], path, {os.path.basename(os.fspath(path))}, {}, {}
    record = _base(link, meta, seen)
    while True:
        with _reading(link), zipfile.ZipFile(link) as zf:
            members = sorted(zf.namelist())
            if members != _CHAIN_MEMBERS:
                raise ValidationError(f"checkpoint {link}: a chained file holds {_CHAIN_MEMBERS}, got {members}")
            for name, count in _CHAINED.items():
                start = record[count] if record else 0
                with zf.open(f"{name}.npy") as fh:
                    shape, fortran, dtype = _header(fh)
                    if name not in full:  # the top file; an object array would take raw bytes as pointers
                        if len(shape) != 2 or dtype.hasobject:
                            raise ValidationError(f"checkpoint {link}: {name} must be 2-D numbers, got {dtype} {shape}")
                        full[name] = _allocate(link, start + shape[0], shape[1], dtype)
                        ends[name] = len(full[name])
                    array, want = full[name], (ends[name] - start, full[name].shape[1])
                    if fortran or dtype != array.dtype or shape != want:
                        got = f"{dtype} {shape}{' in Fortran order' if fortran else ''}"
                        raise ValidationError(
                            f"checkpoint {link}: {name} must be {array.dtype} {want} to continue its chain, got {got}"
                        )
                    _read_into(fh, array[start : ends[name]])
                ends[name] = start
        if record is None:
            return full
        base = os.path.join(os.path.dirname(link), record["name"])
        with _reading(base):
            digest = _digest(base)
        if digest != record["sha256"]:
            raise ValidationError(f"checkpoint {base}: its members do not match the sha256 that {link} records")
        meta = _read(base)
        if meta.get("kind") != kind:
            raise ValidationError(f"checkpoint {base}: kind {meta.get('kind')!r} cannot be the base of a {kind} file")
        link, record = base, _base(base, meta, seen)


def _allocate(path, rows: int, width: int, dtype) -> np.ndarray:
    """An empty (rows, width) array for the chain of ``path``, whose counts may be more than memory holds."""
    try:
        return np.empty((rows, width), dtype)
    except (MemoryError, ValueError):
        raise ValidationError(f"checkpoint {path}: cannot allocate the {rows} rows its base counts give") from None
