"""Benchmark harness for pose-based video anomaly detection.

The package covers the full loop: JSONL pose datasets, track preprocessing
(interpolation, smoothing, normalization, windowing), sequential anomaly
scorers, frame-level ranking metrics, dataset statistics, a continual
train-stream builder and the runner that ties everything into reports.
Importing it sets ``OPENBLAS_THREAD_TIMEOUT=4`` unless already set: idle
OpenBLAS threads then sleep between products; their count is left as it is.
"""

import os

# OpenBLAS reads this once, when numpy loads it, so it must be set before any numpy import. Its workers
# otherwise busy-wait 2**28 cycles after each call; 4 (the minimum, 2**4) puts them to sleep at once.
os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "4")

__version__ = "0.1.0"

from ._kernels import active_path  # noqa: E402, F401 - the benchmark records it as posebench.active_path()
