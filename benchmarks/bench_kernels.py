"""Time the numeric kernels and JSONL ingest at fixed problem sizes.

Run directly:

    python benchmarks/bench_kernels.py [--repeat 5]

Prints one row per kernel and problem size, named as in the per-layer
metrics of perfbench (``kernels.knn_mean_distance``, ``io.read_frames``
and so on), with the best of ``--repeat`` timings.
"""

from __future__ import annotations

import argparse
import os
import tempfile
import time

import numpy as np

from posebench import _kernels, stats
from posebench.io import read_frames, write_dataset
from posebench.synthetic import generate_split


def _best_of(fn, repeat: int) -> float:
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def bench_welford(rng, repeat: int):
    rows = []
    for n, dim in ((2_000, 51), (20_000, 51)):
        batch = rng.normal(size=(n, dim))
        mean = np.zeros(dim)
        m2 = np.zeros(dim)

        def call():
            mean[:] = 0.0
            m2[:] = 0.0
            _kernels.welford_update(0, mean, m2, batch)

        rows.append(("kernels.welford_update", f"n={n}", _best_of(call, repeat)))
    return rows


def bench_knn(rng, repeat: int):
    rows = []
    # The first shape is the largest call of perfbench's continual-knn workload.
    for stored_n, query_n, dim, k in ((714, 267, 816, 5), (5_000, 500, 816, 3), (20_000, 500, 816, 3)):
        stored = rng.normal(size=(stored_n, dim))
        queries = rng.normal(size=(query_n, dim))
        seconds = _best_of(lambda: _kernels.knn_mean_distance(stored, queries, k), repeat)
        rows.append(("kernels.knn_mean_distance", f"{query_n}x{stored_n} k={k}", seconds))
    return rows


def bench_iou(rng, repeat: int):
    rows = []
    for n_frames, per_frame in ((2_000, 6), (10_000, 6)):
        total = n_frames * per_frame
        x1 = rng.uniform(0, 1000, size=total)
        y1 = rng.uniform(0, 600, size=total)
        boxes = np.column_stack([x1, y1, x1 + rng.uniform(5, 120, total), y1 + rng.uniform(5, 120, total)])
        offsets = np.arange(0, total + 1, per_frame, dtype=np.int64)
        seconds = _best_of(lambda: stats.max_iou_per_group(boxes, offsets), repeat)
        rows.append(("stats.max_iou_per_group", f"frames={n_frames}", seconds))
    return rows


def bench_read_frames(seed: int, repeat: int):
    # The train file of the README standard quick-start: 3000 frames, 2 persons each.
    split = generate_split(3000, 2000, 500, seed=seed)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "train.jsonl")
        write_dataset(split.train, path)
        seconds = _best_of(lambda: read_frames(path), repeat)
    return [("io.read_frames", "frames=3000", seconds)]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeat", type=int, default=5, help="timing repetitions, best is kept")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    rows = []
    rows += bench_welford(rng, args.repeat)
    rows += bench_knn(rng, args.repeat)
    rows += bench_iou(rng, args.repeat)
    rows += bench_read_frames(args.seed, args.repeat)

    print(f"{'kernel':<26} {'size':<14} {'best (ms)':>10}")
    for name, size, seconds in rows:
        print(f"{name:<26} {size:<14} {seconds * 1e3:>10.2f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
