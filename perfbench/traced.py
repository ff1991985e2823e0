"""Run the posebench CLI in this process with every layer boundary timed.

Usage: python3 perfbench/traced.py TRACE_JSON -- <posebench arguments>

The program is not edited. Each span wraps the module attribute that the
caller looks up at call time (``runner.extract_windows`` is what
``run_standard`` calls, ``_kernels.knn_mean_distance`` is what
``KnnScorer.score_batch`` calls, and so on), so replacing the attribute
times every call that the untraced program makes. Spans nest; a span's self
time is its duration minus the durations of the spans it directly contains.
Counters are read from the arguments and results at the same boundaries.

A wrapped name that no longer exists, or a counter whose inputs changed
shape, is listed under ``absent`` instead of failing the run. The CLI's exit
code is this script's exit code; the trace is written either way.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time

# (span name, module, attribute looked up by the caller). Methods are wrapped
# on the class that defines them; a subclass inherits the wrapper.
SPANS = (
    ("io.load_dataset", "posebench.cli", "load_dataset"),
    ("io.read_frames", "posebench.io", "read_frames"),
    ("model.tracks_from_frames", "posebench.preprocess", "tracks_from_frames"),
    ("preprocess.extract_windows", "posebench.runner", "extract_windows"),
    ("preprocess.interpolate_track", "posebench.preprocess", "interpolate_track"),
    ("preprocess.smooth_track", "posebench.preprocess", "smooth_track"),
    ("preprocess.window_track", "posebench.preprocess", "window_track"),
    ("scorers.fit", "posebench.scorers", "AnomalyScorer.fit"),
    ("scorers.partial_fit", "posebench.scorers", "GaussianScorer.partial_fit"),
    ("scorers.partial_fit", "posebench.scorers", "KnnScorer.partial_fit"),
    ("scorers.score_batch", "posebench.scorers", "GaussianScorer.score_batch"),
    ("scorers.score_batch", "posebench.scorers", "KnnScorer.score_batch"),
    ("scorers.save_checkpoint", "posebench.scorers", "AnomalyScorer.save_checkpoint"),
    ("kernels.knn_mean_distance", "posebench._kernels", "knn_mean_distance"),
    ("kernels.welford_update", "posebench._kernels", "welford_update"),
    ("kernels.max_iou_per_group", "posebench._kernels", "max_iou_per_group"),
    ("metrics.aggregate_frame_scores", "posebench.runner", "aggregate_frame_scores"),
    ("metrics.compute_all", "posebench.runner", "compute_all"),
    ("rearrange.rearrange", "posebench.runner", "rearrange"),
    ("rearrange.verify", "posebench.runner", "verify"),
    ("stats.stats_from_frames", "posebench.rearrange", "stats_from_frames"),
    ("report.emit_report", "posebench.report", "emit_report"),
    ("report.write_standard_report", "posebench.report", "write_standard_report"),
    ("report.write_step_csv", "posebench.report", "write_step_csv"),
    ("report.save_results", "posebench.runner", "save_results"),
    ("runner.evaluate_windows", "posebench.runner", "evaluate_windows"),
    ("runner.run_standard", "posebench.cli", "run_standard"),
    ("runner.run_continual", "posebench.cli", "run_continual"),
)


class Tracer:
    """Span stack plus per-name totals and counters, all kept in memory."""

    def __init__(self):
        self.totals = {}  # name -> [calls, seconds, self seconds]
        self.counters = {}
        self.absent = set()
        self.knn_shapes = []
        self.top_level_s = 0.0
        self._stack = []  # [name, child seconds]
        self._frame_ids = set()
        self._window_ids = set()
        self._knn_fill = {}  # id(scorer) -> (stored rows, allocated rows)

    def count(self, name, n):
        self.counters[name] = self.counters.get(name, 0) + n

    def inside(self, name):
        return any(entry[0] == name for entry in self._stack)

    def wrap(self, name, fn, hook):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._stack.append([name, 0.0])
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - t0
                _, child_s = self._stack.pop()
                tot = self.totals.setdefault(name, [0, 0.0, 0.0])
                tot[0] += 1
                tot[1] += dur
                tot[2] += dur - child_s
                if self._stack:
                    self._stack[-1][1] += dur
                else:
                    self.top_level_s += dur
            if hook is not None:
                try:
                    hook(self, args, result)
                except (AttributeError, TypeError, KeyError, IndexError, ValueError, OSError):
                    self.absent.add(f"counters of {name}")
            return result

        return traced

    def install(self):
        for name, module_name, attr in SPANS:
            owner = importlib.import_module(module_name)
            class_name, _, leaf = attr.rpartition(".")
            if class_name:
                owner = getattr(owner, class_name, None)
            fn = vars(owner).get(leaf) if owner is not None else None
            if not callable(fn):
                self.absent.add(f"{module_name}.{attr}")
                continue
            setattr(owner, leaf, self.wrap(name, fn, HOOKS.get(name)))

    def result(self):
        return {
            "top_level_s": self.top_level_s,
            "spans": {
                name: {"calls": c, "s": s, "self_s": self_s}
                for name, (c, s, self_s) in sorted(self.totals.items())
            },
            "counters": dict(self.counters),
            "distinct_frames": len(self._frame_ids),
            "distinct_windows_scored": len(self._window_ids),
            "knn_rows": [list(v) for v in self._knn_fill.values()],
            "knn_shapes": self.knn_shapes,
            "absent": sorted(self.absent),
        }


def _load_dataset(tr, args, ds):
    tr.count("io.frames", len(ds.frames))
    tr.count("io.observations", sum(len(fr.persons) for fr in ds.frames))
    tr.count("io.input_bytes", os.path.getsize(args[0]))


def _extract_windows(tr, args, windows):
    frames = list(args[0])
    tr.count("preprocess.frames_fed", len(frames))
    tr._frame_ids.update(id(fr) for fr in frames)
    tr.count("preprocess.windows", len(windows))


def _interpolate_track(tr, args, track):
    tr.count("preprocess.observations_interpolated", len(track.observations) - len(args[0].observations))


def _ingest(tr, args, _result):
    scorer, windows = args[0], args[1]
    # fit may delegate to partial_fit; count each window once, at the outer call.
    if not (tr.inside("scorers.fit") or tr.inside("scorers.partial_fit")):
        tr.count("scorers.windows_ingested", len(windows))
    if scorer.kind == "knn" and scorer._store is not None:
        tr._knn_fill[id(scorer)] = (int(scorer.stored_count), int(scorer._store.shape[0]))


def _score_batch(tr, args, _scores):
    windows = args[1]
    tr.count("scorers.windows_scored", len(windows))
    tr._window_ids.update(id(w) for w in windows)


def _save_checkpoint(tr, args, _result):
    tr.count("scorers.checkpoint_bytes", os.path.getsize(args[1]))


def _knn(tr, args, _out):
    stored, queries = args[0], args[1]
    q, n, d = queries.shape[0], stored.shape[0], stored.shape[1]
    tr.count("kernels.knn.pair_evals", q * n)
    tr.count("kernels.knn.flop", 3 * q * n * d)
    tr.knn_shapes.append([q, n, d])


def _welford(tr, args, _count):
    tr.count("kernels.welford.rows", int(args[3].shape[0]))


def _report_files(tr, args, written):
    tr.count("report.files", len(written) if isinstance(written, dict) else 1)


HOOKS = {
    "io.load_dataset": _load_dataset,
    "preprocess.extract_windows": _extract_windows,
    "preprocess.interpolate_track": _interpolate_track,
    "scorers.fit": _ingest,
    "scorers.partial_fit": _ingest,
    "scorers.score_batch": _score_batch,
    "scorers.save_checkpoint": _save_checkpoint,
    "kernels.knn_mean_distance": _knn,
    "kernels.welford_update": _welford,
    "report.emit_report": _report_files,
    "report.write_standard_report": _report_files,
    "report.write_step_csv": _report_files,
    "report.save_results": _report_files,
}


def main(argv):
    if len(argv) < 3 or argv[1] != "--":
        print("usage: traced.py TRACE_JSON -- <posebench arguments>", file=sys.stderr)
        return 1
    trace_path, cli_args = argv[0], argv[2:]
    from posebench import cli

    tracer = Tracer()
    tracer.install()
    code = cli.main(cli_args)
    with open(trace_path, "w", encoding="utf-8") as fh:
        json.dump(tracer.result(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
