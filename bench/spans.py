"""Span recorder that times calls into schurkit's public functions from outside.

`Tracer.install()` replaces each traced function with a timing wrapper in
every schurkit module namespace that binds it (the CLI imports names
directly, `coorbit` imports `norm_B`, `sum_space` calls `intersection_norm`
through its own globals), so every call path is seen. A stack gives each
span its parent; self time is a span's duration minus its children's.
Spans stay in memory as flat arrays and are written out by `dump`.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

# (module, function, group): a span's group names the layer metric it feeds.
TRACED = (
    ("cli", "run", "cli.run"),
    ("jsonio", "load_kernel", "jsonio.load"),
    ("jsonio", "load_grid_function", "jsonio.load"),
    ("jsonio", "load_weight_grid", "jsonio.load"),
    ("jsonio", "load_covering", "jsonio.load"),
    ("jsonio", "load_frame", "jsonio.load"),
    ("jsonio", "dump_kernel", "jsonio.emit"),
    ("jsonio", "dumps_json", "jsonio.emit"),
    ("operators", "schur_constants", "operators.schur_constants"),
    ("operators", "schur_bound", "operators.schur_bound"),
    ("operators", "corner_opnorm", "operators.corner_opnorm"),
    ("operators", "opnorm_lower_search", "operators.opnorm_lower_search"),
    ("kernel_algebra", "compose", "kernel_algebra.compose"),
    ("kernel_algebra", "norm_A", "kernel_algebra.norm_A"),
    ("kernel_algebra", "norm_B", "kernel_algebra.norm_B"),
    ("kernel_algebra", "submult_weight_constant", "kernel_algebra.submult_weight_constant"),
    ("kernel_algebra", "mv_weight", "kernel_algebra.mv_weight"),
    ("mixed_norm", "mixed_norm", "mixed_norm.mixed_norm"),
    ("sum_space", "rho_tensor", "sum_space.rho_tensor"),
    ("sum_space", "split_four", "sum_space.split_four"),
    ("sum_space", "intersection_norm", "sum_space.intersection_norm"),
    ("sum_space", "associate_pairing_sup", "sum_space.associate_pairing_sup"),
    ("oracles", "brute_sum_norm_upper", "oracles.brute_sum_norm_upper"),
    ("coverings", "validate_covering", "coverings.validate_covering"),
    ("coverings", "covering_weights", "coverings.covering_weights"),
    ("coverings", "maximal_kernel", "coverings.maximal_kernel"),
    ("coverings", "oscillation", "coverings.oscillation"),
    ("coorbit", "gabor_frame", "coorbit.gabor_frame"),
    ("coorbit", "reproducing_kernel", "coorbit.reproducing_kernel"),
    ("coorbit", "coorbit_report", "coorbit.coorbit_report"),
    ("coorbit", "counterexample_kernel", "coorbit.counterexample_kernel"),
)

MODULES = ("cli", "jsonio", "operators", "kernel_algebra", "mixed_norm", "sum_space", "oracles", "coverings", "coorbit")


class Tracer:
    """Records one span per traced call and aggregates time per group."""

    def __init__(self) -> None:
        self.groups = sorted({group for _, _, group in TRACED})
        n = len(self.groups)
        self.total = [0.0] * n  # inclusive seconds per group
        self.self_time = [0.0] * n
        self.calls = [0] * n
        # spans, one entry each: group index, parent span (-1 for a root), start, end
        self.span_group = array("i")
        self.span_parent = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list = []  # open spans as [span index, seconds spent in children]
        self._patched: list = []

    def _wrap(self, fn, gid: int):
        stack = self._stack
        clock = time.perf_counter
        total, self_time, calls = self.total, self.self_time, self.calls
        span_group, span_parent = self.span_group, self.span_parent
        span_start, span_end = self.span_start, self.span_end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(span_start)
            span_group.append(gid)
            span_parent.append(stack[-1][0] if stack else -1)
            span_end.append(0.0)
            frame = [index, 0.0]
            stack.append(frame)
            start = clock()
            span_start.append(start)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                span_end[index] = end
                duration = end - start
                total[gid] += duration
                self_time[gid] += duration - frame[1]
                calls[gid] += 1
                if stack:
                    stack[-1][1] += duration

        return traced

    def install(self) -> None:
        """Wrap every traced function wherever a schurkit module binds it."""
        bound = [m for name, m in sorted(sys.modules.items()) if name == "schurkit" or name.startswith("schurkit.")]
        for module, function, group in TRACED:
            original = getattr(sys.modules[f"schurkit.{module}"], function)
            wrapper = self._wrap(original, self.groups.index(group))
            for mod in bound:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def summary(self) -> dict:
        return {
            group: {"total_s": self.total[i], "self_s": self.self_time[i], "calls": self.calls[i]}
            for i, group in enumerate(self.groups)
        }

    def dump(self, path: str) -> None:
        """Write the spans as one .npz of flat arrays plus the group names."""
        np.savez(path, group=np.asarray(self.span_group), parent=np.asarray(self.span_parent),
                 start=np.asarray(self.span_start), end=np.asarray(self.span_end), names=np.asarray(self.groups))
