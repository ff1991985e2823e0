"""Window scorers: higher score means more anomalous.

Both scorers train on normalized pose windows only (no labels), support
incremental ingestion, and are fully deterministic given their seed and the
order of ingested windows. State round-trips through snapshot()/restore()
and through versioned .ckpt files (npz containers).
"""

from __future__ import annotations

import copy
import json
import zipfile

import numpy as np

from . import _kernels
from .errors import ValidationError
from .preprocess import PoseWindow

CHECKPOINT_VERSION = 1
SCORER_KINDS = ("gaussian", "knn")


def kinematic_features(window: PoseWindow) -> np.ndarray:
    """51-dim feature: 17 mean per-joint displacement magnitudes + 34 mean pose values.

    Displacements are frame-to-frame Euclidean steps of each normalized
    joint, averaged over the window; the mean pose is the per-coordinate
    average of the normalized keypoints. Requires window length >= 2.
    """
    f = window.features
    if f.shape[0] < 2:
        raise ValidationError("kinematic features require window length >= 2")
    disp = np.sqrt(((f[1:] - f[:-1]) ** 2).sum(axis=2)).mean(axis=0)
    mean_pose = f.mean(axis=0).reshape(-1)
    return np.concatenate([disp, mean_pose])


def flat_features(window: PoseWindow) -> np.ndarray:
    """The whole normalized window flattened to one vector."""
    return np.asarray(window.features, dtype=np.float64).reshape(-1)


class AnomalyScorer:
    """Contract shared by all scorers: fit / partial_fit / score / snapshot."""

    kind = "base"

    def reset(self):
        raise NotImplementedError

    def fit(self, windows):
        """Discard state and ingest the given windows."""
        self.reset()
        self.partial_fit(windows)

    def partial_fit(self, windows):
        raise NotImplementedError

    def score_batch(self, windows) -> np.ndarray:
        raise NotImplementedError

    def score(self, window: PoseWindow) -> float:
        return float(self.score_batch([window])[0])

    @property
    def windows_seen(self) -> int:
        raise NotImplementedError

    def snapshot(self) -> dict:
        raise NotImplementedError

    def restore(self, state: dict):
        raise NotImplementedError

    def save_checkpoint(self, path):
        _write_checkpoint(self.snapshot(), path)


class GaussianScorer(AnomalyScorer):
    """Running diagonal Gaussian over kinematic features, scored by Mahalanobis distance.

    Mean and variance accumulate with Welford updates; fit and any split of
    the same windows into partial_fit calls produce identical state because
    both run the same sequential update. Variances are floored before
    scoring so constant features cannot divide by zero.
    """

    kind = "gaussian"

    def __init__(self, variance_floor: float = 1e-8):
        if not variance_floor > 0:
            raise ValidationError(f"variance_floor must be positive, got {variance_floor}")
        self.variance_floor = float(variance_floor)
        self.reset()

    def reset(self):
        self._count = 0
        self._mean = None
        self._m2 = None

    def partial_fit(self, windows):
        windows = list(windows)
        if not windows:
            return
        x = np.stack([kinematic_features(w) for w in windows]).astype(np.float64)
        if self._mean is None:
            self._mean = np.zeros(x.shape[1])
            self._m2 = np.zeros(x.shape[1])
        elif x.shape[1] != self._mean.size:
            raise ValidationError(
                f"feature dimension {x.shape[1]} does not match fitted dimension {self._mean.size}"
            )
        self._count = int(_kernels.welford_update(self._count, self._mean, self._m2, x))

    def score_batch(self, windows) -> np.ndarray:
        if self._count < 2:
            raise ValidationError(
                f"gaussian scorer needs at least 2 ingested windows to score, has {self._count}"
            )
        windows = list(windows)
        if not windows:
            return np.empty(0, dtype=np.float64)
        x = np.stack([kinematic_features(w) for w in windows]).astype(np.float64)
        if x.shape[1] != self._mean.size:
            raise ValidationError(
                f"feature dimension {x.shape[1]} does not match fitted dimension {self._mean.size}"
            )
        var = np.maximum(self._m2 / (self._count - 1), self.variance_floor)
        z = x - self._mean
        return np.sqrt((z * z / var).sum(axis=1))

    @property
    def windows_seen(self) -> int:
        return self._count

    @property
    def mean(self):
        return None if self._mean is None else self._mean.copy()

    @property
    def variance(self):
        if self._count < 2:
            return None
        return np.maximum(self._m2 / (self._count - 1), self.variance_floor)

    def snapshot(self) -> dict:
        return {
            "kind": self.kind,
            "version": CHECKPOINT_VERSION,
            "params": {"variance_floor": self.variance_floor},
            "count": self._count,
            "mean": None if self._mean is None else self._mean.copy(),
            "m2": None if self._m2 is None else self._m2.copy(),
        }

    def restore(self, state: dict):
        if state.get("kind") != self.kind:
            raise ValidationError(f"cannot restore {state.get('kind')!r} state into a {self.kind} scorer")
        self.variance_floor = float(state["params"]["variance_floor"])
        self._count = int(state["count"])
        self._mean = None if state["mean"] is None else np.array(state["mean"], dtype=np.float64)
        self._m2 = None if state["m2"] is None else np.array(state["m2"], dtype=np.float64)
        if self._count < 0:
            raise ValidationError(f"gaussian count must be >= 0, got {self._count}")
        if (self._mean is None, self._m2 is None) != (self._count == 0,) * 2:
            raise ValidationError("gaussian state must hold mean and m2 exactly when its count is positive")
        if self._mean is not None and (self._mean.ndim != 1 or self._m2.shape != self._mean.shape):
            raise ValidationError(f"gaussian m2 {self._m2.shape} must have mean's shape {self._mean.shape}")
        if self._mean is not None and not (np.isfinite(self._mean).all() and np.isfinite(self._m2).all()):
            raise ValidationError("gaussian mean and m2 must be finite")


class KnnScorer(AnomalyScorer):
    """Seeded reservoir of flattened windows, scored by mean distance to the k nearest.

    The reservoir keeps a uniform sample of all ingested windows once
    capacity is exceeded (algorithm R); replacement draws come from a PCG64
    generator seeded at construction, so ingestion is reproducible byte for
    byte given the same window order. The store's rows grow by doubling up
    to capacity, so memory follows the windows held, not the capacity.
    """

    kind = "knn"

    def __init__(self, k_nn: int = 5, capacity: int = 50_000, seed: int = 0):
        if k_nn < 1:
            raise ValidationError(f"k_nn must be >= 1, got {k_nn}")
        if capacity < k_nn:
            raise ValidationError(f"capacity {capacity} must be >= k_nn {k_nn}")
        self.k_nn = int(k_nn)
        self.capacity = int(capacity)
        self.seed = int(seed)
        self.reset()

    def reset(self):
        self._rng = np.random.default_rng(self.seed)
        self._store = None
        self._stored = 0
        self._seen = 0

    def partial_fit(self, windows):
        for w in windows:
            vec = flat_features(w)
            if self._store is None:
                self._store = np.empty((0, vec.size), dtype=np.float64)
            elif vec.size != self._store.shape[1]:
                raise ValidationError(
                    f"feature dimension {vec.size} does not match stored dimension {self._store.shape[1]}"
                )
            self._seen += 1
            if self._stored < self.capacity:
                if self._stored == self._store.shape[0]:  # grow by doubling, up to capacity
                    grown = np.empty((min(self.capacity, max(64, 2 * self._stored)), vec.size))
                    grown[: self._stored] = self._store
                    self._store = grown
                self._store[self._stored] = vec
                self._stored += 1
            else:
                j = int(self._rng.integers(0, self._seen))
                if j < self.capacity:
                    self._store[j] = vec

    def score_batch(self, windows) -> np.ndarray:
        if self._stored < self.k_nn:
            raise ValidationError(
                f"knn scorer has {self._stored} stored windows, needs at least k_nn={self.k_nn}"
            )
        windows = list(windows)
        if not windows:
            return np.empty(0, dtype=np.float64)
        x = np.stack([flat_features(w) for w in windows])
        if x.shape[1] != self._store.shape[1]:
            raise ValidationError(
                f"feature dimension {x.shape[1]} does not match stored dimension {self._store.shape[1]}"
            )
        return _kernels.knn_mean_distance(self._store[: self._stored], x, self.k_nn)

    @property
    def windows_seen(self) -> int:
        return self._seen

    @property
    def stored_count(self) -> int:
        return self._stored

    def snapshot(self) -> dict:
        return {
            "kind": self.kind,
            "version": CHECKPOINT_VERSION,
            "params": {"k_nn": self.k_nn, "capacity": self.capacity, "seed": self.seed},
            "seen": self._seen,
            "store": None if self._store is None else self._store[: self._stored].copy(),
            "rng_state": copy.deepcopy(self._rng.bit_generator.state),
        }

    def restore(self, state: dict):
        if state.get("kind") != self.kind:
            raise ValidationError(f"cannot restore {state.get('kind')!r} state into a {self.kind} scorer")
        params = state["params"]
        self.k_nn = int(params["k_nn"])
        self.capacity = int(params["capacity"])
        self.seed = int(params["seed"])
        self._seen = int(state["seen"])
        if state["store"] is None:
            self._store = None
            self._stored = 0
        else:
            self._store = np.array(state["store"], dtype=np.float64)
            if self._store.ndim != 2 or self._store.shape[0] > self.capacity:
                raise ValidationError(
                    f"knn store must be 2-D with at most {self.capacity} rows, got shape {self._store.shape}"
                )
            if not np.isfinite(self._store).all():
                raise ValidationError("knn store must be finite")
            self._stored = self._store.shape[0]
        if self._seen < self._stored:
            raise ValidationError(f"knn seen {self._seen} must count at least the {self._stored} stored rows")
        self._rng = np.random.default_rng()
        self._rng.bit_generator.state = copy.deepcopy(state["rng_state"])


def make_scorer(kind: str, seed: int = 0, params: dict | None = None) -> AnomalyScorer:
    """Build a scorer by kind name; the seed only matters for stochastic scorers."""
    params = dict(params or {})
    if kind == "gaussian":
        return GaussianScorer(**params)
    if kind == "knn":
        params.setdefault("seed", seed)
        return KnnScorer(**params)
    raise ValidationError(f"unknown scorer kind {kind!r}, expected one of {SCORER_KINDS}")


def scorer_from_snapshot(state: dict) -> AnomalyScorer:
    """Construct a fresh scorer from a snapshot dict."""
    kind = state.get("kind")
    if kind == "gaussian":
        scorer = GaussianScorer(**state["params"])
    elif kind == "knn":
        scorer = KnnScorer(**state["params"])
    else:
        raise ValidationError(f"unknown scorer kind {kind!r} in snapshot")
    scorer.restore(state)
    return scorer


def _write_checkpoint(state: dict, path):
    meta = {
        "format": "posebench-checkpoint",
        "version": int(state["version"]),
        "kind": state["kind"],
        "params": state["params"],
    }
    arrays = {}
    if state["kind"] == "gaussian":
        meta["count"] = int(state["count"])
        if state["mean"] is not None:
            arrays["mean"] = state["mean"]
            arrays["m2"] = state["m2"]
    elif state["kind"] == "knn":
        meta["seen"] = int(state["seen"])
        meta["rng_state"] = state["rng_state"]
        if state["store"] is not None:
            arrays["store"] = state["store"]
    else:
        raise ValidationError(f"unknown scorer kind {state['kind']!r}")
    with open(path, "wb") as fh:
        np.savez(fh, meta=np.array(json.dumps(meta)), **arrays)


# Fields each kind's checkpoint meta must carry, with their decoded JSON types.
_META_FIELDS = {
    "gaussian": (("params", dict), ("count", int)),
    "knn": (("params", dict), ("seen", int), ("rng_state", dict)),
}


def load_checkpoint(path) -> AnomalyScorer:
    """Load a scorer from a .ckpt file written by save_checkpoint.

    A damaged file, a ``meta`` record missing a field or holding one of the
    wrong type, and state the scorer rejects all raise ValidationError
    naming the file.
    """
    try:
        with np.load(path, allow_pickle=False) as data:
            meta = json.loads(str(data["meta"]))
            arrays = {k: np.array(data[k]) for k in data.files if k != "meta"}
    except (OSError, EOFError, ValueError, KeyError, zipfile.BadZipFile) as exc:
        raise ValidationError(f"not a readable checkpoint file: {path} ({exc})") from None
    if not isinstance(meta, dict) or meta.get("format") != "posebench-checkpoint":
        raise ValidationError(f"not a posebench checkpoint: {path}")
    if meta.get("version") != CHECKPOINT_VERSION:
        raise ValidationError(
            f"unsupported checkpoint version {meta.get('version')!r} (supported: {CHECKPOINT_VERSION})"
        )
    kind = meta.get("kind")
    if kind not in _META_FIELDS:
        raise ValidationError(f"unknown scorer kind {kind!r} in checkpoint {path}")
    for name, expected in _META_FIELDS[kind]:
        if name not in meta:
            raise ValidationError(f"checkpoint {path}: meta lacks field {name!r}")
        if not isinstance(meta[name], expected):
            raise ValidationError(
                f"checkpoint {path}: meta field {name!r} must be {expected.__name__}, got {meta[name]!r}"
            )
    state = {"kind": kind, "version": meta["version"], "params": meta["params"]}
    if kind == "gaussian":
        state["count"] = meta["count"]
        state["mean"] = arrays.get("mean")
        state["m2"] = None if state["mean"] is None else arrays.get("m2")
    else:
        state["seen"] = meta["seen"]
        state["store"] = arrays.get("store")
        state["rng_state"] = meta["rng_state"]
    try:
        return scorer_from_snapshot(state)
    except (TypeError, ValueError, KeyError, ValidationError) as exc:
        raise ValidationError(f"checkpoint {path}: state rejected ({type(exc).__name__}: {exc})") from None
