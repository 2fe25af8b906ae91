"""Certificate benchmark for the schurkit CLI.

    python3 bench/run.py --workload kernel_cert|sumnorm_cap|frames|all \
        --seed N --seconds S --trace 0|1

Runs from the root of a schurkit checkout and uses that checkout's `src/`.
For one workload it:

1. starts SETUP_SAMPLES fresh processes that each import schurkit, write
   the seeded inputs, and warm up; `setup_s` is the median time from
   process start to the point where the first timed certificate would start;
2. starts one process that issues the workload's certificates through
   `schurkit.cli.run` in a closed loop with one client for S seconds,
   each certificate at least the workload's MIN_RUNS times (with
   --trace 1: whole passes for S/3 seconds untraced, then S/3 seconds
   with every public function traced, two passes each at least);
3. checks every certificate against the correctness gate in verify.py;
   latencies and setup times are scaled to a nominal machine speed with
   the probes the worker took while they ran (see worker._Speed);
4. prints one line per metric, an environment stamp, and, as the last line,
   the JSON result.

BLAS and OpenMP threads are pinned to the CPUs this process may use.
Inputs, outputs and spans go to `.bench_work/` at the checkout root.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

import inputs
import spans
import verify

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORKLOADS = ("kernel_cert", "sumnorm_cap", "frames")
SETUP_SAMPLES = 3
CHILD_TIMEOUT_S = 170
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
# Typical times of the two parts of the worker's machine-speed probe
# (worker._Speed) on the 2-vCPU KVM guest the bounds were tuned on:
# interpreter work and JSON parsing. Latencies are reported at this speed.
NOMINAL_PROBE_MS = (0.2, 0.15)
# span groups reported as <group>.ms (inclusive time); see spans.TRACED
LAYER_GROUPS = (
    "jsonio.emit", "jsonio.load",
    "kernel_algebra.compose", "kernel_algebra.norm_B", "kernel_algebra.norm_A",
    "kernel_algebra.submult_weight_constant",
    "operators.corner_opnorm", "operators.opnorm_lower_search", "operators.schur_constants",
    "sum_space.associate_pairing_sup", "sum_space.rho_tensor", "sum_space.split_four",
    "sum_space.intersection_norm",
    "oracles.brute_sum_norm_upper",
    "coverings.maximal_kernel", "coverings.oscillation", "coverings.validate_covering",
    "coverings.covering_weights",
    "coorbit.counterexample_kernel", "coorbit.coorbit_report", "coorbit.reproducing_kernel",
    "coorbit.gabor_frame",
)


class BenchError(RuntimeError):
    pass


def _child_env() -> tuple:
    threads = len(os.sched_getaffinity(0))
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join([src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env, threads


def _worker(mode: str, workload: str, seed: int, seconds: float, work: str, env: dict) -> str:
    t0 = time.monotonic()
    argv = [sys.executable, os.path.join(BENCH, "worker.py"), "--mode", mode, "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--work", work, "--t0", repr(t0)]
    try:
        proc = subprocess.run(argv, env=env, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:  # run() kills the child and waits for it
        raise BenchError(f"{mode} worker for {workload} exceeded {CHILD_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{mode} worker for {workload} exited {proc.returncode}:\n{proc.stderr.strip()}")
    return proc.stdout


def _tail_percentile(samples: int) -> float:
    """Highest ladder percentile with at least ten of `samples` beyond it."""
    usable = [p for p in TAIL_LADDER if samples * (100.0 - p) / 100.0 >= 10]
    return usable[-1] if usable else TAIL_LADDER[0]


def _slowdown(interp_s: float, parse_s: float) -> float:
    """The machine's slowdown from the two probe parts' times, relative to NOMINAL_PROBE_MS."""
    nominal_interp, nominal_parse = NOMINAL_PROBE_MS
    return math.sqrt(1000.0 * interp_s / nominal_interp * 1000.0 * parse_s / nominal_parse)


def _latency_metrics(workload: str, result: dict) -> dict:
    """Throughput and latency percentiles at the nominal machine speed.

    Each timed certificate is divided by the machine's slowdown during it:
    the geometric mean of the two probe parts' median times over their
    NOMINAL_PROBE_MS (see worker._Speed). A certificate's latency is the
    median of its scaled runs. The tail percentile is fixed by the
    workload's floor of runs, so it does not shift with how many runs fit.
    """
    runs: dict = {}
    raw: dict = {}
    slowdowns = []
    for index, seconds, interp, parse in result["latencies"]:
        slowdown = _slowdown(interp, parse)
        slowdowns.append(slowdown)
        runs.setdefault(index, []).append(seconds / slowdown)
        raw.setdefault(index, []).append(seconds)
    scaled = [statistics.median(v) for v in runs.values()]
    floor = inputs.MIN_RUNS[workload]
    samples = sorted(t for t in scaled for _ in range(floor))
    pct = _tail_percentile(len(samples))
    return {
        "cert_per_s": len(scaled) / sum(scaled),
        "cert_p50_ms": 1000.0 * statistics.median(scaled),
        "cert_tail_ms": 1000.0 * samples[max(0, math.ceil(pct / 100.0 * len(samples)) - 1)],
        "pct": pct,
        "samples": len(samples),
        "raw_p50_ms": 1000.0 * statistics.median(statistics.median(v) for v in raw.values()),
        "slowdown": statistics.median(slowdowns),
    }


def _gate(plan: list, result: dict, work: str) -> tuple:
    """(attempted, failed, reasons by certificate id, bound ratios, one set per certificate).

    Bound ratios come from every certificate that reports a bound pair,
    whether or not it passes the gate.
    """
    attempted = failed = 0
    reasons: dict = {}
    ratios: list = []
    for item, rec in zip(plan, result["items"]):
        with open(os.path.join(work, "out", f"{item['id']}.json"), encoding="utf-8") as fh:
            text = fh.read()
        why = verify.check(item, rec["code"], text)
        attempted += rec["runs"]
        if why:
            failed += rec["runs"]
            reasons[item["id"]] = why
        else:
            failed += rec["mismatches"]
            if rec["mismatches"]:
                reasons[item["id"]] = [f"{rec['mismatches']} reruns in the loop changed the output"]
        ratios += verify.bound_ratios(text)
    for rerun in result["reruns"]:
        attempted += 1
        if not rerun["identical"]:
            failed += 1
            reasons.setdefault(rerun["id"], []).append("rerun after the loop is not byte-identical")
    return attempted, failed, reasons, ratios


def _layer_metrics(trace: dict) -> dict:
    passes = trace["passes"]
    groups = trace["groups"]

    def ms(names, key="total_s"):
        return 1000.0 * sum(groups[g][key] for g in names) / passes

    metrics = {f"{group}.ms": (ms([group]), "ms") for group in LAYER_GROUPS}
    for module in spans.MODULES:  # span groups are named <module>.<function>
        metrics[f"{module}.self_ms"] = (ms([g for g in groups if g.split(".")[0] == module], "self_s"), "ms")
    metrics["mixed_norm.mixed_norm.calls"] = (groups["mixed_norm.mixed_norm"]["calls"] // passes, "count")
    for name, value in trace["counts"].items():
        metrics[name] = (value, "bytes" if name.endswith("_bytes") else "count")
    metrics["trace.overhead"] = (trace["overhead"], "ratio")
    return metrics


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    work = os.path.join(ROOT, ".bench_work", workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    env, threads = _child_env()

    setups = []
    for _ in range(1 if trace else SETUP_SAMPLES):
        out = _worker("setup", workload, seed, seconds, work, env)
        setup = json.loads(out.strip().splitlines()[-1])
        setups.append(setup["setup_s"] / _slowdown(setup["interp_s"], setup["parse_s"]))
    os.sync()  # write back the inputs now, not while the certificates are timed
    _worker("trace" if trace else "measure", workload, seed, seconds, work, env)

    with open(os.path.join(work, "plan.json"), encoding="utf-8") as fh:
        plan = json.load(fh)
    with open(os.path.join(work, "result.json"), encoding="utf-8") as fh:
        result = json.load(fh)
    attempted, failed, reasons, ratios = _gate(plan, result, work)

    lines = []
    e = result["env"]
    lines.append(f"env workload={workload} seed={seed} python={e['python']} numpy={e['numpy']} blas={e['blas']!r} "
                 f"blas_threads={e['blas_threads']} pinned_threads={threads} nproc={e['nproc']} schurkit={e['schurkit']}")
    for cert_id, why in sorted(reasons.items()):
        lines.append(f"FAIL {cert_id}: {'; '.join(why)}")
    lines.append(f"{workload} fail_frac {failed / attempted:.6g} ratio ({failed} of {attempted} certificates)")

    if trace:
        metrics = _layer_metrics(result["trace"])
        note = dict.fromkeys(result["trace"]["counts"], " (computed)")
        for name, (value, unit) in metrics.items():
            lines.append(f"{workload} {name} {value if isinstance(value, int) else format(value, '.6g')} {unit}"
                         f"{note.get(name, '')}")
        lines.append(f"{workload} traced passes {result['trace']['passes']}, per-layer values are per pass")
    else:
        if not ratios:
            raise BenchError(f"no {workload} certificate reported a bound pair")
        lat = _latency_metrics(workload, result)
        metrics = {
            "cert_per_s": (lat["cert_per_s"], "1/s"),
            "cert_p50_ms": (lat["cert_p50_ms"], "ms"),
            "cert_tail_ms": (lat["cert_tail_ms"], "ms"),
            "peak_rss_mb": (result["peak_rss_mb"], "MB"),
            "setup_s": (statistics.median(setups), "s"),
            "bound_ratio": (math.exp(statistics.fmean(math.log(r) for r in ratios)), "ratio"),
        }
        for name, (value, unit) in metrics.items():
            lines.append(f"{workload} {name} {value:.6g} {unit}")
        lines.append(f"{workload} cert_tail_ms is p{lat['pct']:g} of {lat['samples']} samples; {result['passes']} "
                     f"passes of {len(plan)} certificates; setup samples {', '.join(f'{s:.3f}' for s in setups)} s; "
                     f"bound_ratio over {len(ratios)} bound pairs")
        lines.append(f"{workload} latencies above are scaled to nominal probe times {NOMINAL_PROBE_MS} ms; median "
                     f"slowdown {lat['slowdown']:.3f}; unscaled cert_p50_ms {lat['raw_p50_ms']:.6g} ms")
    return {"lines": lines, "attempted": attempted, "failed": failed, "metrics": metrics}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # SIGTERM becomes SystemExit, so subprocess.run kills and reaps the running worker.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not os.path.isfile(os.path.join(ROOT, "src", "schurkit", "cli.py")):
        print(f"error: no schurkit sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    reports = {}
    try:
        for workload in workloads:
            reports[workload] = report = run_workload(workload, args.seed, args.seconds, bool(args.trace))
            print("\n".join(report["lines"]), flush=True)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    def entry(value, unit):
        return {"value": value, "unit": unit}

    if len(workloads) == 1:
        metrics = {name: entry(*vu) for name, vu in reports[workloads[0]]["metrics"].items()}
    else:
        metrics = {f"{w}.{name}": entry(*vu) for w, r in reports.items() for name, vu in r["metrics"].items()}
    attempted = sum(r["attempted"] for r in reports.values())
    failed = sum(r["failed"] for r in reports.values())
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
