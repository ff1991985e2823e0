"""Benchmark harness for pose-based video anomaly detection.

The package covers the full loop: JSONL pose datasets, track preprocessing
(interpolation, smoothing, normalization, windowing), sequential anomaly
scorers, frame-level ranking metrics, dataset statistics, a continual
train-stream builder and the runner that ties everything into reports.
"""

__version__ = "0.1.0"

from ._kernels import active_path
from .errors import PosebenchError, ValidationError
from .model import (
    CameraDataset,
    FrameTable,
    SplitSet,
    Track,
    tracks_from_frames,
)
from .io import load_dataset, read_frames, write_frames
from .preprocess import (
    WindowBatch,
    extract_windows,
    interpolate_track,
    normalize_pose,
    smooth_track,
    window_track,
)
from .metrics import MetricReport, ScoreSeries, aggregate_frame_scores, compute_all
from .stats import DatasetStats, stats_from_frames
from .rearrange import ContinualSplit, RearrangePlan
from .scorers import GaussianScorer, KnnScorer, load_checkpoint, make_scorer
from .synthetic import generate_normals, generate_split
from .runner import (
    ContinualResult,
    RunConfig,
    derive_seed,
    load_results,
    run_continual,
    run_standard,
    save_results,
)
from .report import emit_report

