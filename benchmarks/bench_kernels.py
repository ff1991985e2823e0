"""Time the numeric kernels and JSONL ingest at fixed problem sizes.

Run directly:

    python benchmarks/bench_kernels.py [--repeat 5]

Prints a header line with the BLAS numpy uses and its OpenBLAS thread count
and timeout, then one row per kernel and problem size, named as in the per-layer
metrics of perfbench (``kernels.knn_mean_distance``, ``io.read_frames``
and so on), with the best of ``--repeat`` timings. The
``scorers.kinematic_features`` row times one batched call on the test
windows of the README continual quick-start, and the
``rearrange.rearrange+verify`` row rearranges and verifies that quick-start's
split (2400/1200/400 frames, k=9). The ``kernels.knn_mean_distance`` rows
scan dense random rows, each row a window of length 1. The
``kernels.knn_k_smallest`` rows score 267 test windows (length 24, stride 6,
over their pose rows) at the shape of perfbench's ``continual-knn`` first
step: once incrementally (the 52 windows the step added, merged with the
distances over the 194 windows before it) and once as a fresh scan of all
246 windows, each with the peak MB its call allocates (``tracemalloc``); the
query batch is built once, outside the timing, as the knn scorer keeps it.
Every kNN kernel row also prints the candidate pairs its call rescored
exactly, per query. The ``scorers.score_batch`` row
takes that step through a knn scorer: it scores 267 test windows on a
194-window store, appends 52 windows and scores the same batch again; only
that second scoring is timed, which gathers the 52 new windows, runs the
kernel and merges (each repetition rebuilds the scorer and its first
scoring). The ``synthetic.generate_split`` and first ``io.write_frames`` rows
are the two layers of the ``setup_s`` of
perfbench's ``standard-gaussian-large``: building its split, and writing its
6000-frame train table as JSONL. The second ``io.write_frames`` row writes
that table with every visibility scaled by 1e-5, so that ``json.dumps`` writes
every line in place of orjson (values below 1e-4 take that path); the
``io.read_frames`` row after them reads the first file back, as that
workload's run does. Each ``io.read_frames`` and
``preprocess.extract_windows`` row also prints the peak MB of one call
(``tracemalloc``). The first ``scorers.save_checkpoint`` row writes a knn
checkpoint of the store that perfbench's ``continual-knn`` holds at its last
step (714 overlapping windows of length 24, stride 6) and prints the MB
written; the scorer is fitted once, and each repetition saves it with no
base, so each writes the ``rows`` and ``index`` arrays it holds in full, as
they are. The ``9 saves`` row
times the saves of ``continual-knn``'s steps, each after its slice of
windows joins the store and each naming the step before as its base, as
``run-continual`` does, and prints the MB the nine files hold. The
``preprocess.extract_windows`` rows window the test table of perfbench's
``standard-gaussian-large`` (18 tracks) and a
many-track table: the test table of ``generate_split(3000, 2000, 500,
seed=3, persons=6)`` with all three anomaly kinds in segments of 20 frames
(31 tracks), with 30% of its frames dropped at seed 1, so that gaps are both
filled and left open. posebench is imported before numpy, so the kNN rows
run with the idle-thread timeout that the CLI sets (see ``posebench/__init__``).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import os
import tempfile
import time
import tracemalloc

import posebench  # noqa: F401 - before numpy: it sets the OpenBLAS thread timeout that numpy reads at load
import numpy as np

from posebench import _kernels, stats
from posebench.cli import _blas
from posebench.io import read_frames, write_frames
from posebench.preprocess import WindowBatch, extract_windows
from posebench.rearrange import RearrangePlan, rearrange, verify
from posebench.runner import derive_seed
from posebench.scorers import KnnScorer, kinematic_features
from posebench.synthetic import ANOMALY_KINDS, generate_normals, generate_split


def _timed(fn, *args) -> float:
    t0 = time.perf_counter()
    fn(*args)
    return time.perf_counter() - t0


def _best_of(fn, repeat: int) -> float:
    return min(_timed(fn) for _ in range(repeat))


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

        def call(stored=stored, queries=queries, k=k):  # each dense row a window of length 1: a fresh scan
            q = _kernels.knn_queries(queries, np.arange(len(queries))[:, None])
            return np.sqrt(_kernels.knn_k_smallest(stored, np.arange(len(stored))[:, None], q, k)).mean(axis=1)

        size = f"{query_n}x{stored_n} k={k}"
        rows.append(("kernels.knn_mean_distance", size, _best_of(call, repeat), _rescored(call, query_n)))
    return rows


def _peak_mb(fn) -> str:
    tracemalloc.start()
    try:
        fn()
        return f"peak {tracemalloc.get_traced_memory()[1] / 2**20:.2f} MB"
    finally:
        tracemalloc.stop()


def _rescored(fn, queries: int) -> str:
    """The candidate pairs one call of ``fn`` rescores exactly, per query."""
    pairs, rescore = [], _kernels._rescore

    def counted(*args):
        pairs.append(len(args[3]))  # the query index of each pair
        return rescore(*args)

    _kernels._rescore = counted
    try:
        fn()
    finally:
        _kernels._rescore = rescore
    return f"{sum(pairs) / queries:.1f} rescored/query"


def bench_knn_step(seed: int, repeat: int):
    # continual-knn's first step: 267 test windows, 194 stored windows after pretraining, 52 added by the step.
    stored = extract_windows(generate_normals(2200, seed=seed))
    probe = extract_windows(generate_normals(1000, seed=seed + 1))
    rows, index = stored.poses.reshape(-1, 34), stored.rows[:246, None] + np.arange(stored.length)
    queries = _kernels.knn_queries(probe.poses.reshape(-1, 34), probe.rows[:267, None] + np.arange(probe.length))
    prior = _kernels.knn_k_smallest(rows, index[:194], queries, 5)
    steps = {"267x52+194 k=5": (rows, index[194:], queries, 5, prior), "267x246 k=5": (rows, index, queries, 5)}
    out = []
    for size, args in steps.items():
        call = functools.partial(_kernels.knn_k_smallest, *args)
        out.append(("kernels.knn_k_smallest", size, _best_of(call, repeat), _peak_mb(call), _rescored(call, 267)))
    return out


def bench_score_step(seed: int, repeat: int):
    # continual-knn's first step through the scorer: the same 267 test windows scored before and after
    # the step appends 52 windows to a 194-window store; the second scoring scans only those 52.
    stored = extract_windows(generate_normals(2200, seed=seed))
    probe = _windows(extract_windows(generate_normals(1000, seed=seed + 1)), 0, 267)

    def second_scoring():
        scorer = KnnScorer()
        scorer.fit(_windows(stored, 0, 194))
        scorer.score_batch(probe)
        scorer.partial_fit(_windows(stored, 194, 246))
        return _timed(scorer.score_batch, probe)

    seconds = min(second_scoring() for _ in range(repeat))
    return [("scorers.score_batch", "267x52+194 k=5", seconds)]


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
        write_frames(split.train, path)
        read = functools.partial(read_frames, path)
        return [("io.read_frames", "frames=3000", _best_of(read, repeat), _peak_mb(read))]


def bench_continual_split(seed: int, repeat: int):
    # The split of the README continual quick-start and its test windows, as run-continual builds them.
    split = generate_split(2400, 1200, 400, seed=seed, anomaly_boost=2.5)
    plan = RearrangePlan(seed=derive_seed(seed, "rearrange"), k=9)
    cs = rearrange(split, plan)
    batch = extract_windows(split.test.take(cs.test_rows))
    split_s = _best_of(lambda: verify(rearrange(split, plan)), repeat)
    features_s = _best_of(lambda: kinematic_features(batch), repeat)
    return [
        ("rearrange.rearrange+verify", "2400/1200/400", split_s),
        ("scorers.kinematic_features", f"windows={len(batch)}", features_s),
    ]


def bench_synth(seed: int, repeat: int):
    # The two layers of standard-gaussian-large's setup_s: generating the README standard quick-start
    # at 2x, and writing its 6000-frame train table as JSONL; then reading that file back. The same
    # table with every visibility scaled by 1e-5 writes each line through the json.dumps fallback.
    generate = functools.partial(generate_split, 6000, 4000, 1000, seed=seed)
    frames = generate().train
    keypoints = frames.keypoints * (1.0, 1.0, 1e-5)
    scaled = dataclasses.replace(frames, keypoints=keypoints)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "train.jsonl")
        write = functools.partial(write_frames, frames, path)
        write_scaled = functools.partial(write_frames, scaled, os.path.join(tmp, "scaled.jsonl"))
        read = functools.partial(read_frames, path)
        return [
            ("synthetic.generate_split", "6000/4000/1000", _best_of(generate, repeat)),
            ("io.write_frames", f"frames={len(frames)}", _best_of(write, repeat)),
            ("io.write_frames", f"{len(frames)} vis*1e-5", _best_of(write_scaled, repeat)),
            ("io.read_frames", f"frames={len(frames)}", _best_of(read, repeat), _peak_mb(read)),
        ]


def bench_extract_windows(seed: int, repeat: int):
    large = generate_split(6000, 4000, 1000, seed=seed).test
    many = generate_split(3000, 2000, 500, seed=3, persons=6, anomaly_kinds=ANOMALY_KINDS, segment_length=20)
    gappy = many.test.take(np.flatnonzero(np.random.default_rng(1).random(len(many.test)) >= 0.3))
    rows = []
    for frames in (large, gappy):
        call = functools.partial(extract_windows, frames)
        size = f"tracks={np.unique(frames.track_id).size}"
        rows.append(("preprocess.extract_windows", size, _best_of(call, repeat), _peak_mb(call)))
    return rows


def _windows(batch, lo: int, hi: int) -> WindowBatch:
    return WindowBatch(batch.poses, batch.rows[lo:hi], batch.track_id[lo:hi], batch.start_frame[lo:hi], batch.length)


def _nine_saves(batch, directory):
    # continual-knn's steps: 194 windows after pretraining, then nine slices, each followed by a save that
    # names the step before as its base, as run-continual does. Returns the seconds and bytes written.
    bounds = np.linspace(194, 714, 10).round().astype(int)
    scorer = KnnScorer()
    scorer.fit(_windows(batch, 0, bounds[0]))
    seconds, written, base = 0.0, 0, None
    for i, (lo, hi) in enumerate(zip(bounds, bounds[1:]), start=1):
        scorer.partial_fit(_windows(batch, lo, hi))
        path = os.path.join(directory, f"step_{i}.ckpt")
        seconds += _timed(functools.partial(scorer.save_checkpoint, path, base=base))
        written += os.path.getsize(path)
        base = path
    return seconds, written


def bench_checkpoint(seed: int, repeat: int):
    # The step-9 store of continual-knn: 714 windows of length 24 at stride 6, sharing rows by overlap.
    # Saved with no base, every repetition writes the whole store.
    batch = extract_windows(generate_normals(2200, seed=seed))
    n = 714
    scorer = KnnScorer()
    scorer.fit(_windows(batch, 0, n))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "step.ckpt")
        save = min(_timed(scorer.save_checkpoint, path) for _ in range(repeat))
        written = f"{os.path.getsize(path) / 1e6:.2f} MB"
        steps = [_nine_saves(batch, tmp) for _ in range(repeat)]
    return [
        ("scorers.save_checkpoint", f"windows={n}", save, written),
        ("scorers.save_checkpoint", f"9 saves to {n}", min(s for s, _ in steps), f"{steps[0][1] / 1e6:.2f} MB"),
    ]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeat", type=int, default=5, help="timing repetitions, best is kept")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    rows = []
    rows += bench_welford(rng, args.repeat)
    rows += bench_knn(rng, args.repeat)
    rows += bench_knn_step(args.seed, args.repeat)
    rows += bench_score_step(args.seed, args.repeat)
    rows += bench_iou(rng, args.repeat)
    rows += bench_read_frames(args.seed, args.repeat)
    rows += bench_continual_split(args.seed, args.repeat)
    rows += bench_synth(args.seed, args.repeat)
    rows += bench_extract_windows(args.seed, args.repeat)
    rows += bench_checkpoint(args.seed, args.repeat)

    threads, timeout = (os.environ.get(name, "unset") for name in ("OPENBLAS_NUM_THREADS", "OPENBLAS_THREAD_TIMEOUT"))
    print(f"# blas {_blas()}, OPENBLAS_NUM_THREADS={threads}, OPENBLAS_THREAD_TIMEOUT={timeout}")
    print(f"{'kernel':<26} {'size':<14} {'best (ms)':>10}")
    for name, size, seconds, *note in rows:
        print(f"{name:<26} {size:<14} {seconds * 1e3:>10.2f}", *note)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
