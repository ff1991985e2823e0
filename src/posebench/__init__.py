"""Benchmark harness for pose-based video anomaly detection.

The package covers the full loop: JSONL pose datasets, track preprocessing
(interpolation, smoothing, normalization, windowing), sequential anomaly
scorers, frame-level ranking metrics, dataset statistics, a continual
train-stream builder and the runner that ties everything into reports.
"""

__version__ = "0.1.0"

from ._kernels import active_path  # noqa: F401 - the benchmark records it as posebench.active_path()
