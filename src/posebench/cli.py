"""Command line interface.

Subcommands: stats, rearrange, run-standard, run-continual, report, synth.
Exit codes: 0 success, 1 usage error, 2 data validation error, 3 runtime
failure. Results go to files (or stdout for stats); diagnostics go to
stderr. Every writing subcommand drops a manifest.json with the tool
version, a hash of the effective configuration (never of a path), the
seed, a timestamp, the subcommand name and where it ran: the numpy and
BLAS versions, the OpenBLAS thread settings and the usable core count.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import os
import sys
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .errors import InputError, PosebenchError, ValidationError
from .io import load_datasets, read_json, write_frames
from .metrics import AGGREGATORS
from .model import SplitSet
from .rearrange import RearrangePlan, rearrange, verify
from .report import emit_report
from .runner import RunConfig, derive_seed, hash_config, load_results, run_continual, run_standard
from .scorers import SCORER_KINDS
from .stats import STATS_CSV_COLUMNS, stats_from_frames
from .synthetic import POSE_VARIANTS, generate_normals, generate_split


@contextlib.contextmanager
def _naming(paths: dict):
    """Prefix an ``InputError`` with the files of the inputs it names, from ``paths`` (role: path)."""
    try:
        yield
    except InputError as exc:
        raise ValidationError(f"{', '.join(paths[role] for role in exc.roles)}: {exc}") from None


def _blas() -> str:
    """Name and version of the BLAS numpy was built with; "unknown" where numpy cannot say (before 1.26)."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        return "unknown"


def _write_manifest(out_dir, subcommand: str, seed: int, config: dict):
    os.makedirs(out_dir, exist_ok=True)
    payload = {
        "tool_version": __version__,
        "config_hash": hash_config(config),
        "seed": seed,
        "started_at": datetime.now(timezone.utc).isoformat(),
        "subcommand": subcommand,
        "numpy": np.__version__,
        "blas": _blas(),
        "blas_env": {name: os.environ.get(name) for name in ("OPENBLAS_NUM_THREADS", "OPENBLAS_THREAD_TIMEOUT")},
        "cores": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
    }
    with open(os.path.join(out_dir, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


_RUN_FLAGS = (  # (RunConfig key, argparse keyword arguments); the flag is the key with dashes
    ("scorer", {"choices": SCORER_KINDS}),
    ("window_length", {"type": int}),
    ("window_stride", {"type": int}),
    ("max_gap", {"type": int}),
    ("smoothing_window", {"type": int}),
    ("aggregator", {"choices": AGGREGATORS}),
    ("fnr_target", {"type": float}),
    ("seed", {"type": int}),
)

_PLAN_FLAG_KEYS = (  # (flag, RearrangePlan key, type)
    ("k", "k", int),
    ("inject_count", "inject_count", int),
    ("target_ratio", "target_train_anomaly_ratio", float),
    ("balance_tolerance", "balance_tolerance", float),
)


def _add_plan_flags(p: argparse.ArgumentParser):
    for flag, _, kind in _PLAN_FLAG_KEYS:
        p.add_argument("--" + flag.replace("_", "-"), dest=flag, type=kind)


def _plan(args, raw: dict, seed) -> dict:
    """``raw`` with the plan flags given on top and, unless it holds one, a seed derived from ``seed``."""
    plan = {**raw, **{key: getattr(args, flag) for flag, key, _ in _PLAN_FLAG_KEYS if getattr(args, flag) is not None}}
    plan.setdefault("seed", derive_seed(seed, "rearrange"))
    return plan


_RUNS = {  # mode: (its input roles in read order, what its summary line says it wrote)
    "standard": (("train", "test"), "report.csv and report.md"),
    "continual": (("train", "test", "origin"), "report, steps and checkpoints"),
}


def _build_run_config(args):
    """Merge defaults < config file < explicit flags into a RunConfig, plus the paths of the mode's roles in order."""
    mode, roles, paths = args.mode, _RUNS[args.mode][0], {}
    merged = read_json(args.config, "config ") if args.config else {}
    if not isinstance(merged, dict):
        raise ValidationError(f"config {args.config} must hold a JSON object")
    for role in roles:
        if role in merged:
            paths[role] = merged.pop(role)
            if not (isinstance(paths[role], str) and paths[role]):
                raise ValidationError(f"{role} must be a non-empty string (a dataset path), got {paths[role]!r}")
        if getattr(args, role) is not None:
            paths[role] = getattr(args, role)
    if "mode" in merged and merged["mode"] != mode:
        raise ValidationError(f"config mode {merged['mode']!r} does not match subcommand {mode!r}")
    merged["mode"] = mode
    merged.update({key: getattr(args, key) for key, _ in _RUN_FLAGS if getattr(args, key) is not None})
    if mode == "continual":
        plan = merged.get("plan", {})
        if not isinstance(plan, dict):
            raise ValidationError(f"plan must be a JSON object, got {plan!r}")
        merged["plan"] = _plan(args, plan, merged.get("seed", 0))
    elif "plan" in merged:
        raise ValidationError("plan is read only by run-continual: a standard run has no rearrangement")
    cfg = RunConfig.from_dict(merged)
    for role in roles:
        if role not in paths:
            raise ValidationError(f"run-{mode} requires a {role} dataset (flag --{role} or config)")
    return cfg, paths


def _read_split(train, test, *later):
    """The ``SplitSet`` of the files ``train`` and ``test``, then the table of each file of ``later``."""
    with contextlib.closing(load_datasets(train, test, *later)) as datasets:
        split = SplitSet(train=next(datasets), test=next(datasets))  # its checks come before a later file's errors
        return split, *datasets


def _cmd_stats(args) -> int:
    rows = []  # (CSV cells, max IoU per frame) of each matching dataset
    with contextlib.closing(load_datasets(*args.datasets)) as datasets:
        for ds in datasets:
            if args.camera is None or ds.camera_id == args.camera:
                rows.append(stats_from_frames(ds))
    if not rows:
        raise ValidationError(f"no dataset matched camera {args.camera!r}")
    print(",".join(STATS_CSV_COLUMNS))
    for row, _ in rows:
        print(",".join(row[c] for c in STATS_CSV_COLUMNS))
    if args.iou_out:
        with open(args.iou_out, "w", encoding="utf-8") as fh:
            fh.write("camera_id,max_iou\n")
            for row, max_iou in rows:
                for v in max_iou:
                    fh.write(f"{row['camera_id']},{v:.6f}\n")
    return 0


def _cmd_rearrange(args) -> int:
    with _naming({"train": args.train, "test": args.test}):
        [split] = _read_split(args.train, args.test)
        plan = RearrangePlan(**_plan(args, {}, args.seed))
        cs = rearrange(split, plan)
    verify(cs)
    os.makedirs(args.out, exist_ok=True)
    width = max(2, len(str(plan.k)))
    for i, rows in enumerate(cs.slices, start=1):
        write_frames(cs.training_frames(rows), os.path.join(args.out, f"slice_{i:0{width}d}.jsonl"))
    write_frames(split.test.take(cs.test_rows), os.path.join(args.out, "test.jsonl"))
    rows = np.concatenate([cs.train_stream, len(split.train) + cs.test_rows])
    slice_of = np.repeat(np.arange(1, plan.k + 1), [len(sl) for sl in cs.slices]).tolist() + [""] * len(cs.test_rows)
    with open(os.path.join(args.out, "provenance.csv"), "w", encoding="utf-8") as fh:
        fh.write("frame_index,origin,slice\n")
        for fi, tag, i in zip(cs.frame_index(rows).tolist(), cs.tags(rows).tolist(), slice_of):
            fh.write(f"{fi},{tag},{i}\n")
    _write_manifest(args.out, "rearrange", args.seed, {"plan": dataclasses.asdict(plan)})
    print(f"wrote {plan.k} slices, test.jsonl and provenance.csv to {args.out}", file=sys.stderr)
    return 0


def _cmd_run(args) -> int:
    cfg, paths = _build_run_config(args)
    with _naming(paths):
        split, *rest = _read_split(*paths.values())
        (run_standard if args.mode == "standard" else run_continual)(cfg, split, *rest, out_dir=args.out)
    _write_manifest(args.out, f"run-{args.mode}", cfg.seed, cfg.to_dict())
    print(f"wrote {_RUNS[args.mode][1]} to {args.out}", file=sys.stderr)
    return 0


def _cmd_report(args) -> int:
    result = load_results(args.results)
    formats = tuple(args.formats.split(","))
    emit_report([result], args.out, formats=formats)
    _write_manifest(args.out, "report", 0, {"formats": list(formats)})
    return 0


def _cmd_synth(args) -> int:
    kinds = tuple(args.kinds.split(","))
    split = generate_split(
        args.train_normal,
        args.test_normal,
        args.test_anomaly,
        seed=args.seed,
        camera_id=args.camera,
        persons=args.persons,
        anomaly_kinds=kinds,
        segment_length=args.segment_length,
        anomaly_boost=args.boost,
        pose_variant=args.pose_variant,
    )
    datasets = {"train": split.train, "test": split.test}
    if args.origin_normal:
        try:
            datasets["origin"] = generate_normals(
                args.origin_normal,
                seed=derive_seed(args.seed, "synth-origin"),
                camera_id=f"{args.camera}-origin",
                persons=args.persons,
                step_sigma=args.origin_step_sigma,
                jitter_sigma=args.origin_jitter_sigma,
                pose_variant=args.origin_variant,
            )
        except ValidationError as exc:
            raise ValidationError(f"origin dataset: {exc}") from None
    os.makedirs(args.out, exist_ok=True)
    for name, dataset in datasets.items():
        write_frames(dataset, os.path.join(args.out, f"{name}.jsonl"))
    params = {key: value for key, value in vars(args).items() if key not in ("out", "seed", "func", "subcommand")}
    _write_manifest(args.out, "synth", args.seed, {**params, "kinds": list(kinds)})
    print(f"wrote synthetic datasets to {args.out}", file=sys.stderr)
    return 0


def _add_run_flags(p: argparse.ArgumentParser):
    p.add_argument("--config", help="JSON config file; explicit flags override it")
    p.add_argument("--train", help="training dataset (JSONL)")
    p.add_argument("--test", help="test dataset (JSONL)")
    for key, kwargs in _RUN_FLAGS:
        p.add_argument("--" + key.replace("_", "-"), dest=key, **kwargs)
    p.add_argument("--out", required=True, help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="posebench", description=__doc__)
    parser.add_argument("--version", action="version", version=f"posebench {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("stats", help="dataset statistics as CSV on stdout")
    p.add_argument("datasets", nargs="+", help="JSONL dataset files")
    p.add_argument("--camera", help="only report this camera id")
    p.add_argument("--iou-out", dest="iou_out", help="write per-frame max-IoU samples to this CSV")
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("rearrange", help="build a continual training stream and balanced test set")
    p.add_argument("--train", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    _add_plan_flags(p)
    p.set_defaults(func=_cmd_rearrange)

    p = sub.add_parser("run-standard", help="fit on normal train data, evaluate once")
    _add_run_flags(p)
    p.set_defaults(func=_cmd_run, mode="standard")

    p = sub.add_parser("run-continual", help="pretrain, rearrange, train slice by slice")
    _add_run_flags(p)
    p.add_argument("--origin", help="origin dataset for pretraining (JSONL)")
    _add_plan_flags(p)
    p.set_defaults(func=_cmd_run, mode="continual")

    p = sub.add_parser("report", help="re-render reports from a results.json")
    p.add_argument("--results", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--formats", default="csv,markdown")
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("synth", help="generate synthetic datasets")
    p.add_argument("--train-normal", dest="train_normal", type=int, required=True)
    p.add_argument("--test-normal", dest="test_normal", type=int, required=True)
    p.add_argument("--test-anomaly", dest="test_anomaly", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--camera", default="synthcam")
    p.add_argument("--persons", type=int, default=2)
    p.add_argument("--kinds", default="velocity")
    p.add_argument("--segment-length", dest="segment_length", type=int, default=60)
    p.add_argument("--boost", type=float, default=6.0)
    p.add_argument("--pose-variant", dest="pose_variant", choices=POSE_VARIANTS, default="default")
    p.add_argument("--origin-normal", dest="origin_normal", type=int, default=0)
    p.add_argument("--origin-variant", dest="origin_variant", choices=POSE_VARIANTS, default="default")
    p.add_argument("--origin-step-sigma", dest="origin_step_sigma", type=float, default=3.0)
    p.add_argument("--origin-jitter-sigma", dest="origin_jitter_sigma", type=float, default=1.5)
    p.set_defaults(func=_cmd_synth)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except PosebenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ValidationError) else 3
    except OSError as exc:  # every read turns its OSError into a ValidationError, so this one is a write
        print(f"error: cannot write {exc.filename or 'output'}: {exc.strerror or exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - map any runtime failure to exit 3
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


def entry():
    raise SystemExit(main(sys.argv[1:]))


if __name__ == "__main__":
    entry()
