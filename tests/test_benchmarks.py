"""The kernel microbenchmark script still runs against the package, and the tracer's hooks still resolve."""

import importlib
import importlib.util
import re
from pathlib import Path

import numpy as np


def _load_script(*parts):
    path = Path(__file__).parent.parent.joinpath(*parts)
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _load_bench():
    return _load_script("benchmarks", "bench_kernels.py")


# The attributes perfbench/traced.py replaces that exist today. A renamed one is listed as absent, not an error,
# and the per-layer metric it times reads zero.
TRACED_HOOKS = (
    "posebench.io.read_frames",
    "posebench.runner.extract_windows",
    "posebench.scorers.AnomalyScorer.fit",
    "posebench.scorers.GaussianScorer.partial_fit",
    "posebench.scorers.KnnScorer.partial_fit",
    "posebench.scorers.GaussianScorer.score_batch",
    "posebench.scorers.KnnScorer.score_batch",
    "posebench.scorers.AnomalyScorer.save_checkpoint",
    "posebench._kernels.welford_update",
    "posebench.runner.aggregate_frame_scores",
    "posebench.runner.compute_all",
    "posebench.runner.rearrange",
    "posebench.runner.verify",
    "posebench.report.emit_report",
    "posebench.report.write_step_csv",
    "posebench.runner.save_results",
    "posebench.runner.evaluate_windows",
    "posebench.cli.run_standard",
    "posebench.cli.run_continual",
)


def test_tracer_hooks_resolve():
    # Resolved as Tracer.install does, without installing: a method on the class that defines it.
    resolved = set()
    for _, module_name, attr in _load_script("perfbench", "traced.py").SPANS:
        owner = importlib.import_module(module_name)
        class_name, _, leaf = attr.rpartition(".")
        if class_name:
            owner = getattr(owner, class_name, None)
        if owner is not None and callable(vars(owner).get(leaf)):
            resolved.add(f"{module_name}.{attr}")
    assert sorted(set(TRACED_HOOKS) - resolved) == []


def test_bench_checkpoint_runs():
    rows = _load_bench().bench_checkpoint(0, 1)
    names = ["scorers.save_checkpoint", "scorers.save_checkpoint"]
    assert [name for name, *_ in rows] == names
    assert all(seconds > 0 for _, _, seconds, *_ in rows)


def test_bench_score_step_runs():
    rows = _load_bench().bench_score_step(0, 1)
    assert [(name, size) for name, size, _ in rows] == [("scorers.score_batch", "267x52+194 k=5")]
    assert all(seconds > 0 for _, _, seconds in rows)


def test_bench_knn_runs():
    # The kernel rows follow the knn_k_smallest signature: each prints its candidates rescored per query,
    # and each knn_k_smallest row the peak MB of one call before that.
    bench = _load_bench()
    rows = bench.bench_knn(np.random.default_rng(0), 1) + bench.bench_knn_step(0, 1)
    assert [(name, size) for name, size, *_ in rows] == [
        ("kernels.knn_mean_distance", "267x714 k=5"),
        ("kernels.knn_mean_distance", "500x5000 k=3"),
        ("kernels.knn_mean_distance", "500x20000 k=3"),
        ("kernels.knn_k_smallest", "267x52+194 k=5"),
        ("kernels.knn_k_smallest", "267x246 k=5"),
    ]
    assert all(seconds > 0 for _, _, seconds, *_ in rows)
    assert all(_rescored(note) > 0 for *_, note in rows)
    assert all(_peak(note) > 0 for _, _, _, note, _ in rows[3:])
    assert all(len(row) == 4 for row in rows[:3])


def _rescored(note):
    """The pairs per query of a row's ``<n> rescored/query`` column."""
    match = re.fullmatch(r"(\d+\.\d) rescored/query", note)
    assert match, note
    return float(match.group(1))


def _peak(note):
    """The MB of a row's ``peak <MB> MB`` column."""
    match = re.fullmatch(r"peak (\d+\.\d\d) MB", note)
    assert match, note
    return float(match.group(1))


def test_bench_extract_windows_runs():
    rows = _load_bench().bench_extract_windows(0, 1)
    assert [(name, size) for name, size, *_ in rows] == [
        ("preprocess.extract_windows", "tracks=18"),
        ("preprocess.extract_windows", "tracks=31"),
    ]
    assert all(seconds > 0 and _peak(note) > 0 for _, _, seconds, note in rows)


def test_bench_table_io_runs():
    # These read, write, take and replace frame tables, so they follow the FrameTable API.
    bench = _load_bench()
    rows = bench.bench_read_frames(0, 1) + bench.bench_continual_split(0, 1) + bench.bench_synth(0, 1)
    assert [(name, size) for name, size, *_ in rows] == [
        ("io.read_frames", "frames=3000"),
        ("rearrange.rearrange+verify", "2400/1200/400"),
        ("scorers.kinematic_features", "windows=544"),
        ("synthetic.generate_split", "6000/4000/1000"),
        ("io.write_frames", "frames=6000"),
        ("io.write_frames", "6000 vis*1e-5"),
        ("io.read_frames", "frames=6000"),
    ]
    assert all(seconds > 0 for _, _, seconds, *_ in rows)
    # Each read row prints the peak MB of one call; no other row of these has a note.
    notes = {size: note[0] for _, size, _, *note in rows if note}
    assert list(notes) == ["frames=3000", "frames=6000"]
    assert all(_peak(note) > 0 for note in notes.values())
