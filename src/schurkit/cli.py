"""Batch command-line front end.

Each subcommand loads JSON inputs, runs the corresponding library
operations, and prints a certificate: the command, digests of every input
file, the computed quantities, and a list of asserted inequalities with both
sides, the tolerance, and a pass flag. Exit status is 0 when every
assertion passes, 1 when one fails, and 2 when the input or the run fails
(malformed input, a missing file, or any other error). Identical inputs
and seeds produce byte-identical output.
"""

from __future__ import annotations

import argparse
import codecs
import functools
import hashlib
import os
import sys
from dataclasses import asdict

import numpy as np

from . import __version__
from .coorbit import coorbit_report, counterexample_kernel
from .coverings import covering_weights, maximal_kernel, oscillation, special_linfty_weight, validate_covering
from .jsonio import (
    _Owned,
    dump_kernel,
    dumps_json,
    load_covering,
    load_frame,
    load_grid_function,
    load_kernel,
    load_phase_grid,
    load_weight_grid,
    loads_json,
)
from .kernel_algebra import WeightGrid, compose, norm_A, norm_B, submult_weight_constant
from .mixed_norm import INF, GridFunction, check_exponent, mixed_norm
from .operators import corner_opnorm, schur_bound, schur_scan
from .oracles import brute_sum_norm_upper
from .sum_space import associate_pairing_sup, intersection_norm, split_four

__all__ = ["run", "main"]


def _exponent(text: str) -> float:
    if text.strip().lower() in ("inf", "infinity"):
        return INF
    return check_exponent(float(text))


def _tolerance(text: str) -> float:
    """A check tolerance: finite and >= 0, or the argument is refused (exit 2)."""
    tol = float(text)
    if not (np.isfinite(tol) and tol >= 0.0):
        raise argparse.ArgumentTypeError(f"tolerance must be finite and >= 0, got {text!r}")
    return tol


_READ_CHUNK = 1 << 20  # bytes of an input file read, hashed and decoded at a time
_UTF8 = codecs.getincrementaldecoder("utf-8")


def _read_json(path: str) -> tuple:
    """Parse a UTF-8 JSON file; returns (object, sha256 of its bytes).

    The file is read `_READ_CHUNK` bytes at a time, but never more than one
    byte past its end: a read allocates what it asks for before it shrinks
    it to what it got, 1 MiB for a file of 789 bytes. Each chunk is hashed
    and decoded, and `loads_json` scans the text as it arrives, so neither
    the file's bytes nor its text exist whole: inputs reach about 13 MB.
    Invalid UTF-8 raises `UnicodeDecodeError` with its position counted in
    the file. A parsed object comes back as a `jsonio._Owned`, which the
    loaders may take "re" and "im" out of.
    """
    digest = hashlib.sha256()
    decoder = _UTF8()
    offset = 0  # bytes read before the current chunk
    with open(path, "rb", buffering=0) as fh:  # unbuffered: the reads are large, and small files read faster
        end = os.fstat(fh.fileno()).st_size

        def chunk():  # the next chunk's text, None at the end; holds nothing between calls
            nonlocal offset
            data = fh.read(max(1, min(end - offset + 1, _READ_CHUNK)))
            digest.update(data)
            try:
                text = decoder.decode(data, final=not data)  # the final call raises if the file ends inside a character
            except UnicodeDecodeError as err:  # its positions count from the decoder's pending bytes
                start = offset - len(decoder.buffer)
                raise UnicodeDecodeError(
                    err.encoding, err.object[err.start : err.end], start + err.start, start + err.end, err.reason
                ) from None
            offset += len(data)
            return text if data else None

        obj = loads_json(iter(chunk, None))
    return (_Owned(obj) if type(obj) is dict else obj), digest.hexdigest()


class _Inputs:
    """Tracks input files and their digests for the certificate."""

    def __init__(self) -> None:
        self.digests: dict = {}

    def load(self, name: str, path: str, loader):
        obj, digest = _read_json(path)
        obj = loader(obj)
        self.digests[name] = digest
        return obj


def _check(kind: str, name: str, lhs: float, rhs: float, tol: float = 0.0) -> dict:
    """One asserted relation lhs <= rhs ("le"), lhs == rhs ("eq") or lhs < rhs ("lt").

    The tolerance is relative: each relation is loosened by tol * max(1, |rhs|).
    """
    lhs, rhs = float(lhs), float(rhs)
    slack = tol * max(1.0, abs(rhs))
    passed = {"le": lhs <= rhs + slack, "eq": abs(lhs - rhs) <= slack, "lt": lhs < rhs + slack}[kind]
    return {"name": name, "kind": kind, "lhs": lhs, "rhs": rhs, "tolerance": tol, "pass": passed}


def _certificate(command: str, args, inputs: _Inputs, quantities: dict, checks: list, extra: dict | None = None) -> dict:
    cert = {
        "command": command,
        "version": __version__,
        "tolerance": args.tolerance,
    }
    if hasattr(args, "seed"):
        cert["seed"] = args.seed
    cert["inputs"] = inputs.digests
    cert["quantities"] = quantities
    cert["checks"] = checks
    if extra:
        cert.update(extra)
    return cert


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------


def _cmd_norm(args):
    inputs = _Inputs()
    if (args.kernel is None) == (args.function is None):
        raise ValueError("norm needs exactly one of --kernel / --function")
    if args.function is not None and args.weight is not None:
        raise ValueError("--weight applies to --kernel only")
    quantities: dict = {}
    if args.function is not None:
        f = inputs.load("function", args.function, load_grid_function)
        p = _exponent(args.p)
        q = _exponent(args.q)
        quantities["p"] = p
        quantities["q"] = q
        quantities["mixed_norm"] = mixed_norm(f, p, q)
    else:
        K = inputs.load("kernel", args.kernel, load_kernel)
        m = inputs.load("weight", args.weight, load_weight_grid) if args.weight else None
        quantities["norm_A"] = norm_A(K, m)
        quantities["norm_B"] = norm_B(K, m)
    return _certificate("norm", args, inputs, quantities, [])


_CORNER_CONSTANT = {(1.0, 1.0): "c2", (INF, INF): "c1", (1.0, INF): "c3", (INF, 1.0): "c4"}


def _cmd_schur(args):
    inputs = _Inputs()
    K = inputs.load("kernel", args.kernel, load_kernel)
    p = _exponent(args.p)
    q = _exponent(args.q)
    c, lower = schur_scan(K, p, q, trials=args.trials, seed=args.seed)
    bound = schur_bound(c, p, q)
    quantities = {
        "c1": c.c1,
        "c2": c.c2,
        "c3": c.c3,
        "c4": c.c4,
        "p": p,
        "q": q,
        "schur_bound": bound,
        "opnorm_lower": lower,
    }
    checks = [_check("le", "opnorm_lower_le_schur_bound", lower, bound, args.tolerance)]
    corner = _CORNER_CONSTANT.get((p, q))
    if corner is not None and K.is_nonnegative:
        exact = corner_opnorm(K, p, q)
        quantities["corner_opnorm"] = exact
        checks.append(_check("eq", f"corner_opnorm_equals_{corner}", exact, quantities[corner], args.tolerance))
    return _certificate("schur", args, inputs, quantities, checks)


def _cmd_compose(args):
    inputs = _Inputs()
    K = inputs.load("left", args.left, load_kernel)
    L = inputs.load("right", args.right, load_kernel)
    weight_args = (args.weight_out, args.weight_left, args.weight_right)
    if sum(x is not None for x in weight_args) not in (0, 3):
        raise ValueError("compose weights: give all of --weight-out/--weight-left/--weight-right or none")
    product = compose(K, L)
    if args.weight_out is not None:
        tau = inputs.load("weight_out", args.weight_out, load_weight_grid)
        omega = inputs.load("weight_left", args.weight_left, load_weight_grid)
        sigma = inputs.load("weight_right", args.weight_right, load_weight_grid)
        factor = submult_weight_constant(tau, omega, sigma)
    else:
        tau = omega = sigma = None
        factor = 1.0
    nb_left = norm_B(K, omega)
    nb_right = norm_B(L, sigma)
    nb_product = norm_B(product, tau)
    quantities = {
        "norm_b_left": nb_left,
        "norm_b_right": nb_right,
        "norm_b_product": nb_product,
        "factor_constant": factor,
    }
    checks = [
        _check("le", "product_submultiplicative", nb_product, factor * nb_left * nb_right, args.tolerance)
    ]
    return _certificate("compose", args, inputs, quantities, checks, {"kernel": dump_kernel(product)})


def _cmd_sumnorm(args):
    inputs = _Inputs()
    F = inputs.load("function", args.function, load_grid_function)
    split = split_four(F)
    rt = split.alpha  # rho_tensor(|F|): the same slicewise profile and final rho
    part_norms = split.corner_norms()
    norm_sum = float(sum(part_norms))
    pairing = associate_pairing_sup(F)
    upper = brute_sum_norm_upper(F, trials=args.trials, seed=args.seed)
    checks = [
        _check("le", "rho_tensor_le_norm_sum", rt, norm_sum, args.tolerance),
        _check("le", "norm_sum_le_16_rho_tensor", norm_sum, 16.0 * rt, args.tolerance),
        _check("le", "pairing_ge_rho_tensor_over_16", rt / 16.0, pairing, args.tolerance),
        _check("le", "upper_estimate_le_norm_sum", upper, norm_sum, args.tolerance),
    ]
    for i, (norm, pq) in enumerate(zip(part_norms, ("1_1", "inf_inf", "1_inf", "inf_1")), start=1):
        checks.append(_check("le", f"part{i}_L{pq}_le_4_rho_tensor", norm, 4.0 * rt, args.tolerance))
    # the greedy partner attains rho_tensor; weak duality puts its pairing
    # below the norm sum of every decomposition, the oracle's included
    checks.append(_check("le", "rho_tensor_le_pairing_lower", rt, pairing, args.tolerance))
    checks.append(_check("le", "pairing_lower_le_sum_norm_upper", pairing, upper, args.tolerance))
    quantities = {
        "rho_tensor": rt,
        "intersection_norm": intersection_norm(F),
        "part_norms": list(part_norms),
        "norm_sum": norm_sum,
        "sum_norm_upper": upper,
        "pairing_lower": pairing,
        "sandwich_pass": bool(checks[0]["pass"] and checks[1]["pass"]),
    }
    return _certificate("sumnorm", args, inputs, quantities, checks)


def _cmd_covering(args):
    inputs = _Inputs()
    K = inputs.load("kernel", args.kernel, load_kernel)
    if K.X != K.Y:
        raise ValueError("covering analysis needs a square kernel")
    cov = inputs.load("covering", args.covering, lambda obj: load_covering(obj, K.X))
    u = inputs.load("u", args.u, load_grid_function) if args.u else None
    report = validate_covering(cov, u)
    quantities = {key: value for key, value in asdict(report).items() if value is not None}
    checks = [_check("eq", "covering_admissible", report.admissible, 1.0)]
    extra: dict = {}
    if report.admissible:
        weights, _, c0 = covering_weights(cov)
        maximal = maximal_kernel(K, cov)
        phase = None
        if args.phase:
            phase = inputs.load("phase", args.phase, lambda obj: load_phase_grid(obj, K.X, K.Y))
        osc = oscillation(K, cov, phase)
        quantities["patch_weights"] = [float(w) for w in weights]
        quantities["condition_constant"] = c0
        quantities["norm_b_maximal"] = norm_B(maximal)
        quantities["norm_b_oscillation"] = norm_B(osc)
        checks.append(
            _check("le", "kernel_le_maximal", (np.abs(K.values) - maximal.values).max(), 0.0, args.tolerance)
        )
        extra["maximal_kernel"] = dump_kernel(maximal)
        extra["oscillation_kernel"] = dump_kernel(osc)
    return _certificate("covering", args, inputs, quantities, checks, extra)


def _cmd_coorbit(args):
    inputs = _Inputs()
    frame = inputs.load("frame", args.frame, load_frame)
    space = frame.space
    cov = inputs.load("covering", args.covering, lambda obj: load_covering(obj, space))
    ones = np.ones(space.shape)
    u = inputs.load("u", args.u, load_grid_function) if args.u else GridFunction(space, ones)
    if args.v:
        v = inputs.load("v", args.v, load_grid_function)
    else:
        v = GridFunction(space, np.maximum(frame.vector_norms(), special_linfty_weight(cov, u).values))
    m0 = (
        inputs.load("m0", args.m0, load_weight_grid)
        if args.m0
        else WeightGrid(space, space, np.ones(space.shape + space.shape))
    )
    # without --majorant, coorbit_report takes the patch-maximal kernel it computes
    L = inputs.load("majorant", args.majorant, load_kernel) if args.majorant else None
    report = coorbit_report(frame, cov, u, v, m0, L)
    quantities = asdict(report) | {"margin_pass": report.margin_pass, "all_pass": report.all_pass}
    checks = [
        _check("eq", "hypotheses_pass", report.all_pass, 1.0),
        _check("lt", "margin_lt_one", report.margin, 1.0),
    ]
    return _certificate("coorbit", args, inputs, quantities, checks)


def _cmd_counterexample(args):
    inputs = _Inputs()
    _, diag = counterexample_kernel(args.N, args.M, trials=args.trials, seed=args.seed)
    checks = [
        _check("eq", "c1_matches_analytic", diag["c1"], diag["c1_analytic"], args.tolerance),
        _check("eq", "c3_matches_analytic", diag["c3"], diag["c3_analytic"], args.tolerance),
        _check("le", "sampled_lower_le_ell2_upper", diag["corner_1inf_lower"], diag["corner_1inf_upper"], args.tolerance),
    ]
    return _certificate("counterexample", args, inputs, dict(diag), checks)


# ---------------------------------------------------------------------------
# parser and dispatch
# ---------------------------------------------------------------------------


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parse_args leaves it unchanged."""
    parser = argparse.ArgumentParser(prog="schurkit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, seeded: bool = False):
        sp.add_argument("--tolerance", type=_tolerance, default=1e-9, help="relative tolerance for checks, finite and >= 0")
        if seeded:
            sp.add_argument("--seed", type=int, default=0)
            sp.add_argument("--trials", type=int, default=64)

    sp = sub.add_parser("norm", help="mixed norm of a function, or plain/structured norms of a kernel")
    sp.add_argument("--kernel")
    sp.add_argument("--function")
    sp.add_argument("--weight", help="weight grid JSON (kernel mode)")
    sp.add_argument("--p", default="2")
    sp.add_argument("--q", default="2")
    common(sp)
    sp.set_defaults(handler=_cmd_norm)

    sp = sub.add_parser("schur", help="Schur constants, norm bound, and sharpness data")
    sp.add_argument("--kernel", required=True)
    sp.add_argument("--p", default="2")
    sp.add_argument("--q", default="2")
    common(sp, seeded=True)
    sp.set_defaults(handler=_cmd_schur)

    sp = sub.add_parser("compose", help="mass-weighted composition with submultiplicativity check")
    sp.add_argument("--left", required=True)
    sp.add_argument("--right", required=True)
    sp.add_argument("--weight-out", dest="weight_out")
    sp.add_argument("--weight-left", dest="weight_left")
    sp.add_argument("--weight-right", dest="weight_right")
    common(sp)
    sp.set_defaults(handler=_cmd_compose)

    sp = sub.add_parser("sumnorm", help="iterated splitting cost, four-way split, sandwich certificate")
    sp.add_argument("--function", required=True)
    common(sp, seeded=True)
    sp.set_defaults(handler=_cmd_sumnorm)

    sp = sub.add_parser("covering", help="covering validation, weights, maximal and oscillation kernels")
    sp.add_argument("--kernel", required=True)
    sp.add_argument("--covering", required=True)
    sp.add_argument("--u", help="weight function JSON for moderateness")
    sp.add_argument("--phase", help="phase grid JSON for the oscillation kernel")
    common(sp)
    sp.set_defaults(handler=_cmd_covering)

    sp = sub.add_parser("coorbit", help="coorbit hypothesis report for a frame")
    sp.add_argument("--frame", required=True)
    sp.add_argument("--covering", required=True)
    sp.add_argument("--u")
    sp.add_argument("--v")
    sp.add_argument("--m0")
    sp.add_argument("--majorant", help="majorant kernel JSON (default: patch-maximal kernel)")
    common(sp)
    sp.set_defaults(handler=_cmd_coorbit)

    sp = sub.add_parser("counterexample", help="growing-Schur-constant diagnostics")
    sp.add_argument("--N", type=int, required=True)
    sp.add_argument("--M", type=int, default=64)
    common(sp, seeded=True)
    sp.set_defaults(handler=_cmd_counterexample)

    return parser


def run(argv) -> int:
    """Execute one subcommand; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse reports its own diagnostics
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        cert = args.handler(args)
        text = dumps_json(cert)
    except Exception as exc:  # exit 1 means a failed check, so any other failure is 2
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    print(text)
    return 0 if all(c["pass"] for c in cert["checks"]) else 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
