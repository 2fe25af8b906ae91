"""One benchmark process: set up, then issue certificates in a closed loop.

Started by run.py with schurkit's `src/` on PYTHONPATH and the BLAS thread
count pinned. Modes:

  setup    import schurkit, write the seeded inputs and the plan, warm up,
           and report the time since the parent started this process;
  measure  warm up, then issue the plan's certificates through
           `schurkit.cli.run` in-process, one at a time, in passes
           weighted by cost (see `_Loop.balanced`) until --seconds have
           elapsed, with the machine's speed probed during each one;
  trace    warm up, run whole passes for --seconds/3, then as long again
           with every public function traced (see spans.py).

Each certificate's first output is written to `<work>/out/`; later passes
are compared with it by digest. The result goes to `<work>/result.json`.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import ctypes.util
import gc
import glob
import hashlib
import io
import json
import os
import platform
import resource
import signal
import statistics
import sys
import time


def _blas_stamp(np) -> dict:
    """OpenBLAS version and live thread count, read from the loaded library."""
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    stamp = {"blas": f"{blas.get('name', '?')} {blas.get('version', '?')}", "blas_threads": None}
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for so in sorted(glob.glob(os.path.join(libdir, "*openblas*"))):
        lib = ctypes.CDLL(so)
        for name in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                     "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                stamp["blas_threads"] = int(fn())
                return stamp
    return stamp


def _issue(cli, argv: list) -> tuple:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.run(argv)
    return code, out.getvalue()


_LIBC = ctypes.CDLL(ctypes.util.find_library("c"))


class _Speed:
    """Samples the machine's speed while certificates run.

    `probe_s` times two fixed pieces of work, about 0.5 ms together, whose
    data is allocated once: interpreter work with small numpy calls, and
    parsing a JSON list of floats, which allocates like the CLI's loaders.
    While a certificate is timed, SIGALRM runs the probe every INTERVAL_S;
    the time spent in these probes is taken out of the certificate's
    latency. On a shared host the machine's speed drifts by 30-90% within
    seconds to minutes, and allocation-heavy code slows more than
    interpreter-bound code; run.py divides each latency by the geometric
    mean of the two probes' slowdowns during it.
    """

    INTERVAL_S = 0.02

    def __init__(self) -> None:
        import numpy as np

        self._small = np.linspace(0.0, 1.0, 64)
        self._block = np.linspace(0.0, 1.0, 16384)
        self._text = json.dumps(np.random.default_rng(0).random(400).tolist())
        self.inside: list = []

    def probe_s(self) -> tuple:
        """(interpreter seconds, parse seconds)."""
        clock = time.perf_counter
        t0 = clock()
        acc = 0
        for i in range(1500):
            acc += i * i
        for _ in range(30):
            self._small.max()
        for _ in range(5):
            self._block.sum()
        t1 = clock()
        json.loads(self._text)
        return t1 - t0, clock() - t1

    def _tick(self, signum, frame) -> None:
        self.inside.append(self.probe_s())

    def __enter__(self) -> "_Speed":
        self.inside = []
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def _release() -> None:
    """Free what the last certificate left behind, as a fresh CLI process would start.

    Without this the heap that one certificate fragments is charged to the
    peak RSS of whichever certificate comes next, so peak_rss_mb would hang
    on the seeded order rather than on the program.
    """
    gc.collect()
    trim = getattr(_LIBC, "malloc_trim", None)
    if trim is not None:
        trim(0)


class _Loop:
    """Closed loop with one client: the next certificate starts after the last returns."""

    def __init__(self, cli, plan: list, outdir: str, speed: _Speed):
        self.cli = cli
        self.plan = plan
        self.outdir = outdir
        # (item index, seconds, median interpreter and parse probe seconds during it) per timed certificate
        self.latencies: list = []
        self.first: dict = {}  # item index -> {"code", "sha", "bytes"}
        self.runs = [0] * len(plan)
        self.mismatches = [0] * len(plan)
        self.speed = speed
        self.sampling = True  # probe inside certificates; off while traced
        self.before = 0.0  # probe time just before the next certificate

    def record(self, index: int, code: int, text: str) -> None:
        data = text.encode("utf-8")
        digest = hashlib.sha256(data).hexdigest()
        first = self.first.get(index)
        if first is None:
            self.first[index] = {"code": code, "sha": digest, "bytes": len(data)}
            with open(os.path.join(self.outdir, f"{self.plan[index]['id']}.json"), "wb") as fh:
                fh.write(data)
        elif first["code"] != code or first["sha"] != digest:
            self.mismatches[index] += 1

    def _timed(self, index: int) -> float:
        """Issue one certificate and record it; returns its latency in seconds."""
        clock = time.perf_counter
        speed = self.speed
        speed.inside = []
        with speed if self.sampling else contextlib.nullcontext():
            t0 = clock()
            code, text = _issue(self.cli, self.plan[index]["argv"])
        elapsed = clock() - t0  # every probe inside ran before this
        inside = speed.inside
        self.runs[index] += 1
        self.record(index, code, text)
        del text
        _release()
        after = speed.probe_s()
        latency = elapsed - sum(a + b for a, b in inside)
        probes = [self.before, after, *inside]
        self.latencies.append((index, latency, statistics.median(a for a, _ in probes),
                               statistics.median(b for _, b in probes)))
        self.before = after
        return latency

    def passes(self, seconds: float, at_least: int = 1) -> int:
        """Whole passes, at least `at_least`, until `seconds` have elapsed.

        Returns the number of passes. Bookkeeping between certificates,
        and the probes inside them, are not timed.
        """
        start = time.perf_counter()
        self.before = self.speed.probe_s()
        count = 0
        while count < at_least or time.perf_counter() - start < seconds:
            for index in range(len(self.plan)):
                self._timed(index)
            count += 1
        return count

    def balanced(self, seconds: float, floor: int) -> int:
        """Passes in which each certificate runs as often as its cost allows.

        The first pass issues every certificate and prices it. A later pass
        issues a certificate while the time it has used is within the
        pass's allowance, the pass count times `quantum`: cheap
        certificates run every pass and dear ones every few passes, spread
        over the run. `quantum` is chosen so that the dearest certificate
        reaches `floor` runs as `seconds` run out; once they have, passes
        issue only the certificates still short of `floor`. Returns the
        number of passes.
        """
        n = len(self.plan)
        start = time.perf_counter()
        self.before = self.speed.probe_s()
        spent = [self._timed(index) for index in range(n)]
        quantum = _quantum(spent, floor, seconds - (time.perf_counter() - start))
        count = 1
        while True:
            if time.perf_counter() - start < seconds:
                due = [i for i in range(n) if spent[i] <= count * quantum]
            else:
                due = [i for i in range(n) if self.runs[i] < floor]
                if not due:
                    return count
            for index in due:
                spent[index] += self._timed(index)
            count += 1


def _quantum(costs: list, floor: int, seconds: float) -> float:
    """Smallest per-pass allowance with which `floor` runs of the dearest cost fit in `seconds`.

    With allowance q a pass costs about sum(min(t, q)), and the dearest
    certificate needs floor * max(t) / q passes (the first is already done).
    """
    dearest = max(costs)

    def total(q: float) -> float:
        return (floor * dearest / q - 1.0) * sum(min(t, q) for t in costs)

    lo, hi = min(costs), dearest
    if total(lo) <= seconds:
        return lo
    for _ in range(50):
        mid = 0.5 * (lo + hi)
        if total(mid) > seconds:
            lo = mid
        else:
            hi = mid
    return hi


def _best_pass_s(latencies: list) -> float:
    """Sum over certificates of each one's fastest time in `latencies`."""
    best: dict = {}
    for index, seconds, *_ in latencies:
        best[index] = min(seconds, best.get(index, seconds))
    return sum(best.values())


def _computed_counts(plan: list, first: dict) -> dict:
    """Exact per-pass counts derived from the inputs (and, for emitted bytes, the outputs)."""
    from schurkit import operators, sum_space

    vertex_cap = getattr(operators, "VERTEX_CAP", None)
    rect_cap = getattr(sum_space, "RECTANGLE_CAP", None)
    counts = dict.fromkeys(("operators.vertices", "operators.corner_skipped", "sum_space.candidates",
                            "sum_space.cap_fallbacks", "kernel_algebra.temp_bytes", "coorbit.dense_bytes",
                            "jsonio.load_bytes", "jsonio.emit_bytes"), 0)
    for index, item in enumerate(plan):
        counts["jsonio.load_bytes"] += item["load_bytes"]
        counts["jsonio.emit_bytes"] += first[index]["bytes"]
        if "corner_y" in item:
            a, b = item["corner_y"]
            if vertex_cap is not None and a**b > vertex_cap:
                counts["operators.corner_skipped"] += 1
            else:
                counts["operators.vertices"] += a**b
        if "shape" in item:
            n1, n2 = item["shape"]
            rects = (2**n1 - 1) * (2**n2 - 1)
            if rect_cap is not None and rects > rect_cap:
                counts["sum_space.cap_fallbacks"] += 1
                counts["sum_space.candidates"] += n1 * n2 + 2 + item["trials"]
            else:
                counts["sum_space.candidates"] += rects + 2 + item["trials"]
        if "ratio_entries" in item:
            counts["kernel_algebra.temp_bytes"] += 8 * item["ratio_entries"]
        if "M" in item:
            counts["coorbit.dense_bytes"] += 16 * item["M"] * (2 * item["N"] + 1) ** 3
    return counts


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--work", required=True, help="directory for inputs, outputs and the result")
    ap.add_argument("--t0", type=float, required=True, help="time.monotonic() when the parent started us")
    args = ap.parse_args()

    import numpy as np

    # Setup is probed like a certificate, so run.py can scale it to the
    # nominal machine speed.
    setup = args.mode == "setup"
    speed = _Speed()
    before = speed.probe_s()
    with speed if setup else contextlib.nullcontext():
        from schurkit import cli

        import inputs

        plan_path = os.path.join(args.work, "plan.json")
        if setup:
            plan = inputs.write_plan(args.workload, args.seed, os.path.join(args.work, "inputs"))
            with open(plan_path, "w", encoding="utf-8") as fh:
                json.dump(plan, fh)
        else:
            with open(plan_path, encoding="utf-8") as fh:
                plan = json.load(fh)
        warmup = inputs.warmup_items(plan)
        for item in warmup:
            _issue(cli, item["argv"])
        _release()
    if setup:
        elapsed = time.monotonic() - args.t0
        probes = [before, *speed.inside]
        taken = sum(a + b for a, b in probes)
        probes.append(speed.probe_s())
        print(json.dumps({"setup_s": elapsed - taken, "interp_s": statistics.median(a for a, _ in probes),
                          "parse_s": statistics.median(b for _, b in probes)}))
        return 0

    outdir = os.path.join(args.work, "out")
    os.makedirs(outdir, exist_ok=True)
    loop = _Loop(cli, plan, outdir, speed)
    result: dict = {}
    if args.mode == "measure":
        result["passes"] = loop.balanced(args.seconds, inputs.MIN_RUNS[args.workload])
    else:
        from spans import Tracer

        # two passes a phase at least, so each side has a best time to compare
        loop.sampling = False  # the tracer would time the probes too
        result["passes"] = loop.passes(args.seconds / 3, 2)
        plain = loop.latencies
        loop.latencies = []
        tracer = Tracer()
        tracer.install()
        try:
            traced_passes = loop.passes(args.seconds / 3, 2)
        finally:
            tracer.uninstall()
        tracer.dump(os.path.join(args.work, "spans.npz"))
        result["trace"] = {
            "passes": traced_passes,
            "overhead": _best_pass_s(loop.latencies) / _best_pass_s(plain),
            "groups": tracer.summary(),
            "counts": _computed_counts(plan, loop.first),
        }
        loop.latencies = plain

    # Rerun the cheapest certificate of each subcommand: its bytes must not change.
    index_of = {item["id"]: i for i, item in enumerate(plan)}
    reruns = []
    for item in warmup:
        code, text = _issue(cli, item["argv"])
        first = loop.first[index_of[item["id"]]]
        same = code == first["code"] and hashlib.sha256(text.encode("utf-8")).hexdigest() == first["sha"]
        reruns.append({"id": item["id"], "identical": same})

    result.update(
        latencies=loop.latencies,
        items=[{"id": item["id"], "runs": loop.runs[i], "mismatches": loop.mismatches[i], **loop.first[i]}
               for i, item in enumerate(plan)],
        reruns=reruns,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        env={"python": platform.python_version(), "numpy": np.__version__, **_blas_stamp(np),
             "nproc": len(os.sched_getaffinity(0)), "schurkit": os.path.dirname(cli.__file__)},
    )
    with open(os.path.join(args.work, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
