"""The kernel microbenchmark script still runs against the package."""

import importlib.util
from pathlib import Path


def _load_bench():
    path = Path(__file__).parent.parent / "benchmarks" / "bench_kernels.py"
    spec = importlib.util.spec_from_file_location("bench_kernels", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_checkpoint_runs():
    rows = _load_bench().bench_checkpoint(0, 1)
    names = ["scorers.save_checkpoint", "scorers.load_checkpoint", "scorers.save_checkpoint"]
    assert [name for name, *_ in rows] == names
    assert all(seconds > 0 for _, _, seconds, *_ in rows)


def test_bench_extract_windows_runs():
    rows = _load_bench().bench_extract_windows(0, 1)
    assert [(name, size) for name, size, _ in rows] == [
        ("preprocess.extract_windows", "tracks=18"),
        ("preprocess.extract_windows", "tracks=31"),
    ]
    assert all(seconds > 0 for _, _, seconds in rows)
