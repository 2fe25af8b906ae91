"""The benchmark harness in bench/ names library functions and constants by string."""

import importlib
import importlib.util
from pathlib import Path

import schurkit.sum_space

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", BENCH / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_every_traced_function_resolves():
    # a traced name that no longer exists crashes `run.py --trace 1` before it prints any JSON
    spans = _load_spans()
    missing = []
    for module, function, _ in spans.TRACED:
        if not callable(getattr(importlib.import_module(f"schurkit.{module}"), function, None)):
            missing.append(f"schurkit.{module}.{function}")
    assert not missing
    for module in spans.MODULES:
        importlib.import_module(f"schurkit.{module}")


def test_rectangle_cap_is_still_defined():
    # bench/worker.py counts pairing candidates against it; without it a
    # 64x64 input would count as 2^128 enumerated rectangles
    assert schurkit.sum_space.RECTANGLE_CAP == 65536
