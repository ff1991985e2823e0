"""Protocol runners: standard single-fit evaluation and continual stream training.

The standard protocol fits a scorer once on all-normal training data and
evaluates once on the mixed test set. The continual protocol pretrains on a
separate origin dataset, rearranges the target split into an unlabeled
training stream plus a balanced test set, then ingests the stream slice by
slice, evaluating after every slice. A fresh scorer fitted on the whole
stream at once ("batch training") provides the conventional reference.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import sys
import zlib
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import report as report_mod
from .errors import InputError, PosebenchError, ValidationError, check_int, is_number
from .io import read_json
from .metrics import AGGREGATORS, HIGHER_IS_BETTER, MetricReport, aggregate_frame_scores, compute_all
from .model import FrameTable, SplitSet, camera_id_error, check_disjoint
from .preprocess import extract_windows
from .rearrange import ContinualSplit, RearrangePlan, rearrange, verify
from .scorers import SCORER_KINDS, make_scorer

MODES = ("standard", "continual")

RESULT_FORMAT = "posebench-continual-result"
RESULT_VERSION = 1


def derive_seed(root: int, label: str) -> int:
    """Derive a per-module seed from the run seed and a stream label."""
    check_int("seed", root)
    ss = np.random.SeedSequence([root, zlib.crc32(label.encode("utf-8"))])
    return int(ss.generate_state(1, np.uint32)[0])


def hash_config(config: dict) -> str:
    """The sha256 of ``config`` as compact, key-sorted JSON: a manifest's ``config_hash``."""
    blob = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class RunConfig:
    """Everything a run needs besides the datasets themselves.

    Integer fields take JSON integers only: a bool or a float such as 24.0
    is rejected, as in ``RearrangePlan`` and the scorer parameters.
    """

    mode: str
    scorer: str = "gaussian"
    scorer_params: dict = field(default_factory=dict)
    window_length: int = 24
    window_stride: int = 6
    max_gap: int = 14
    smoothing_window: int = 15
    aggregator: str = "max"
    fnr_target: float = 0.10
    seed: int = 0
    plan: RearrangePlan | None = None

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValidationError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.scorer not in SCORER_KINDS:
            raise ValidationError(f"scorer must be one of {SCORER_KINDS}, got {self.scorer!r}")
        if not isinstance(self.scorer_params, dict):
            raise ValidationError(f"scorer_params must be a JSON object, got {self.scorer_params!r}")
        make_scorer(self.scorer, params=self.scorer_params)  # rejects unknown or mistyped parameters
        check_int("window_length", self.window_length, 2)
        check_int("window_stride", self.window_stride, 1)
        check_int("max_gap", self.max_gap, 1)
        check_int("smoothing_window", self.smoothing_window, 1)
        if self.smoothing_window % 2 == 0:
            raise ValidationError(f"smoothing_window must be odd, got {self.smoothing_window}")
        if self.aggregator not in AGGREGATORS:
            raise ValidationError(f"aggregator must be one of {AGGREGATORS}, got {self.aggregator!r}")
        if not (is_number(self.fnr_target) and 0.0 <= self.fnr_target < 1.0):
            raise ValidationError(f"fnr_target must be a number in [0, 1), got {self.fnr_target!r}")
        check_int("seed", self.seed)
        if self.plan is not None and not isinstance(self.plan, RearrangePlan):
            raise ValidationError("plan must be a RearrangePlan (use from_dict for raw dicts)")
        if (self.plan is None) == (self.mode == "continual"):  # a standard run has no rearrangement
            raise ValidationError(f"{self.mode} mode {'takes no' if self.plan else 'requires a'} rearrange plan")

    def to_dict(self) -> dict:
        d = asdict(self)
        if self.plan is None:
            del d["plan"]
        return d

    @classmethod
    def from_dict(cls, raw: dict) -> "RunConfig":
        unknown = set(raw) - {f.name for f in fields(cls)}
        if unknown:
            raise ValidationError(f"unknown config keys: {sorted(unknown)}")
        kwargs = dict(raw)
        plan_raw = kwargs.pop("plan", None)
        if plan_raw is not None:
            if not isinstance(plan_raw, dict):
                raise ValidationError(f"plan must be a JSON object, got {plan_raw!r}")
            plan_unknown = set(plan_raw) - {f.name for f in fields(RearrangePlan)}
            if plan_unknown:
                raise ValidationError(f"unknown plan keys: {sorted(plan_unknown)}")
            if "seed" not in plan_raw:
                raise ValidationError("plan lacks its seed")
            kwargs["plan"] = RearrangePlan(**plan_raw)
        return cls(**kwargs)

    def config_hash(self) -> str:
        return hash_config(self.to_dict())


@dataclass(frozen=True)
class ContinualResult:
    """Baseline, per-step and batch-training reports for one camera; the step summaries derive from ``per_step``."""

    camera_id: str
    baseline: MetricReport
    per_step: tuple[MetricReport, ...]
    batch_training: MetricReport

    def __post_init__(self):
        if not self.per_step:
            raise ValidationError("continual result needs at least one step report")

    @property
    def k(self) -> int:
        return len(self.per_step)

    @property
    def step_average(self) -> MetricReport:
        return summarize_steps(self.per_step)[0]

    @property
    def step_best(self) -> MetricReport:
        return summarize_steps(self.per_step)[1]


def summarize_steps(per_step) -> tuple[MetricReport, MetricReport]:
    """Per-metric mean and per-metric best (max AUCs, min error rates)."""
    per_step = list(per_step)
    if not per_step:
        raise ValidationError("cannot summarize zero steps")
    counts = {"n_pos": per_step[0].n_pos, "n_neg": per_step[0].n_neg}
    values = {name: np.array([getattr(r, name) for r in per_step]) for name in HIGHER_IS_BETTER}
    average = MetricReport(**{name: float(v.mean()) for name, v in values.items()}, **counts)
    best = {name: float(v.max() if HIGHER_IS_BETTER[name] else v.min()) for name, v in values.items()}
    return average, MetricReport(**best, **counts)


@contextlib.contextmanager
def _inputs(*roles: str):
    """Raise a data error of the block as an ``InputError`` about the inputs ``roles``, unless it names its own."""
    try:
        yield
    except ValidationError as exc:
        if isinstance(exc, InputError) or not roles:
            raise
        raise InputError(str(exc), *roles) from None


def _windows(frames, cfg: RunConfig, *roles: str):
    """The windows of ``frames``; a data error names the inputs ``roles``."""
    with _inputs(*roles):
        return extract_windows(
            frames,
            length=cfg.window_length,
            stride=cfg.window_stride,
            max_gap=cfg.max_gap,
            smoothing_window=cfg.smoothing_window,
        )


def _fitted(cfg: RunConfig, windows, empty: str, *roles: str):
    """A fresh scorer of the run's kind and seed, fitted on ``windows``; with none, an ``InputError(empty, *roles)``."""
    if not windows:
        raise InputError(empty, *roles)
    scorer = make_scorer(cfg.scorer, seed=derive_seed(cfg.seed, "scorer"), params=cfg.scorer_params)
    scorer.fit(windows)
    return scorer


def evaluate_windows(scorer, test_windows, test: FrameTable, cfg: RunConfig, *fitted: str) -> MetricReport:
    """Score test windows, fold them onto frames, compute metrics.

    The fold is ``metrics.aggregate_frame_scores``, the one place that maps windows to frame scores. A data error
    names the inputs ``fitted`` (the scorer's training data) when scoring, and the test set after.
    """
    with _inputs(*fitted):
        scores = scorer.score_batch(test_windows)
    with _inputs("test"):
        return compute_all(aggregate_frame_scores(test_windows, scores, test, cfg.aggregator), cfg.fnr_target)


def run_standard(cfg: RunConfig, split: SplitSet, out_dir=None) -> MetricReport:
    """Fit once on the split's normal train frames, evaluate once on its test set."""
    if cfg.mode != "standard":
        raise ValidationError(f"run_standard needs mode 'standard', got {cfg.mode!r}")
    if not len(split.train):
        raise InputError("standard run requires a non-empty train dataset", "train")
    if not len(split.test):
        raise InputError("standard run requires a non-empty test dataset", "test")
    scorer = _fitted(  # no name holds the train windows, so they are freed before the test windows are built
        cfg, _windows(split.train, cfg, "train"), "training data produced zero pose windows", "train"
    )
    test_windows = _windows(split.test, cfg, "test")
    result = evaluate_windows(scorer, test_windows, split.test, cfg, "train")
    if out_dir is not None:
        report_mod.emit_report([(split.camera_id, result)], out_dir)
    return result


def run_continual(
    cfg: RunConfig,
    split: SplitSet,
    origin: FrameTable,
    out_dir=None,
) -> tuple[ContinualResult, ContinualSplit]:
    """Pretrain on origin normals, then train slice by slice on the rearranged stream.

    Returns the result plus the rearranged split. An origin that holds a
    frame of the test set is refused, and ingested-window accounting is
    asserted after every slice. Every fit on the stream, batch training
    included, reads its frames through ``cs.training_frames``, which refuses
    any row tagged as test data.
    """
    if cfg.mode != "continual":
        raise ValidationError(f"run_continual needs mode 'continual', got {cfg.mode!r}")
    if not len(origin):
        raise InputError("continual run requires a non-empty origin dataset", "origin")
    if origin.anomalous.all():
        raise InputError("origin dataset has no normal frames to pretrain on", "origin")
    check_disjoint(origin, split.test, "origin")  # pretraining is training: no test frame may reach it

    cs = rearrange(split, cfg.plan)
    verify(cs)
    test = split.test.take(cs.test_rows)

    scorer = _fitted(  # no name holds the origin's normal frames or their windows, so pretraining frees both
        cfg, _windows(origin.take(np.flatnonzero(~origin.anomalous)), cfg, "origin"),
        "origin dataset produced zero pretraining windows", "origin",
    )
    test_windows = _windows(test, cfg, "test")  # one batch object: each step's scoring scans only what it added
    baseline = evaluate_windows(scorer, test_windows, test, cfg, "origin")

    per_step = []
    expected_seen = scorer.windows_seen
    saved = None  # the last step's checkpoint, which the next one names as its base
    for i, rows in enumerate(cs.slices, start=1):
        slice_windows = _windows(cs.training_frames(rows), cfg, "train", "test")
        scorer.partial_fit(slice_windows)
        expected_seen += len(slice_windows)
        if scorer.windows_seen != expected_seen:
            raise PosebenchError(
                f"ingestion accounting broken at step {i}: "
                f"scorer saw {scorer.windows_seen}, expected {expected_seen}"
            )
        del slice_windows  # ingested and counted: free them before the step's scoring and batch training
        step_report = evaluate_windows(scorer, test_windows, test, cfg)  # it holds more than at the baseline
        per_step.append(step_report)
        if out_dir is not None:
            ckpt_dir = os.path.join(out_dir, "checkpoints")
            os.makedirs(ckpt_dir, exist_ok=True)
            path = os.path.join(ckpt_dir, f"step_{i}.ckpt")
            scorer.save_checkpoint(path, base=saved)
            saved = path
            report_mod.write_step_csv(out_dir, i, split.camera_id, step_report)
    del scorer  # batch training starts afresh; free the step store before building its own

    batch_scorer = _fitted(  # no name holds the stream's windows, so they are freed before the scoring below
        cfg, _windows(cs.training_frames(cs.train_stream), cfg, "train", "test"),
        "training stream produced zero pose windows", "train", "test",
    )
    batch_report = evaluate_windows(batch_scorer, test_windows, test, cfg, "train", "test")
    result = ContinualResult(split.camera_id, baseline, tuple(per_step), batch_report)
    if out_dir is not None:
        report_mod.emit_report([result], out_dir)
        save_results(result, os.path.join(out_dir, "results.json"))
    return result, cs


def result_to_dict(result: ContinualResult) -> dict:
    return {
        "format": RESULT_FORMAT,
        "version": RESULT_VERSION,
        "camera_id": result.camera_id,
        "k": result.k,
        "baseline": result.baseline.as_dict(),
        "per_step": [r.as_dict() for r in result.per_step],
        "batch_training": result.batch_training.as_dict(),
        "step_average": result.step_average.as_dict(),
        "step_best": result.step_best.as_dict(),
    }


def result_from_dict(raw: dict) -> ContinualResult:
    if not isinstance(raw, dict) or raw.get("format") != RESULT_FORMAT:
        raise ValidationError("not a continual result file")
    if raw.get("version") != RESULT_VERSION:
        raise ValidationError(f"unsupported result version {raw.get('version')!r}")

    def field(name):
        if name not in raw:
            raise ValidationError(f"missing field {name!r}")
        return raw[name]

    def rep(name, d):
        if not isinstance(d, dict):
            raise ValidationError(f"field {name!r} is not a metric report: got {type(d).__name__}")
        missing = [key for key in (*HIGHER_IS_BETTER, "n_pos", "n_neg") if key not in d]
        if missing:
            raise ValidationError(f"field {name!r} is not a metric report: it lacks {missing}")
        for key in HIGHER_IS_BETTER:  # a finite JSON number; a bool, a string or NaN is not
            if not (is_number(d[key]) and abs(d[key]) <= sys.float_info.max):
                raise ValidationError(f"field {name!r}: {key} must be a finite number, got {d[key]!r}")
        for key in ("n_pos", "n_neg"):
            check_int(f"field {name!r}: {key}", d[key], 0)
        metrics = {key: float(d[key]) for key in HIGHER_IS_BETTER}
        return MetricReport(**metrics, n_pos=d["n_pos"], n_neg=d["n_neg"])

    camera_id = field("camera_id")
    problem = camera_id_error(camera_id)
    if problem:
        raise ValidationError(f"field 'camera_id' {problem}")
    steps = field("per_step")
    if not isinstance(steps, list):
        raise ValidationError(f"field 'per_step' must be a list, got {type(steps).__name__}")
    baseline = rep("baseline", field("baseline"))
    per_step = tuple(rep(f"per_step[{i}]", d) for i, d in enumerate(steps))
    k = field("k")
    if isinstance(k, bool) or not isinstance(k, int) or k != len(per_step):
        raise ValidationError(f"field 'k' must be the number of per_step reports, {len(per_step)}, got {k!r}")
    written = {name: rep(name, field(name)) for name in ("step_average", "step_best")}
    result = ContinualResult(camera_id, baseline, per_step, rep("batch_training", field("batch_training")))
    for name, summary in written.items():  # this program writes them from per_step; a file that differs is refused
        if summary != getattr(result, name):
            raise ValidationError(f"field {name!r} differs from the summary of per_step")
    return result


def save_results(result: ContinualResult, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result_to_dict(result), fh, indent=2)
        fh.write("\n")


def load_results(path) -> ContinualResult:
    raw = read_json(path)
    try:
        return result_from_dict(raw)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None
