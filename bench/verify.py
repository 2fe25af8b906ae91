"""Correctness gate: independent numpy references for the certificates.

`check(item, code, text)` returns the reasons a certificate fails, or an
empty list. A certificate fails when its exit code is not the expected one,
when a required quantity is missing, or when a quantity misses its
reference at relative tolerance RTOL. The references are written here from
the definitions, not taken from schurkit: the Schur constants c1-c4, the
plain and structured kernel norms, the composed kernel as a reshape-matmul,
rho_tensor as the integral of the decreasing rearrangement over [0, 1]
(sorted cumulative masses), and the counterexample's analytic sums.
Quantities and checks that are not named here are ignored.
"""

from __future__ import annotations

import functools
import json
import math

import numpy as np

RTOL = 1e-9

REQUIRED = {
    "schur": ("c1", "c2", "c3", "c4", "schur_bound", "opnorm_lower"),
    "norm": ("norm_A", "norm_B"),
    "compose": ("norm_b_left", "norm_b_right", "norm_b_product", "factor_constant"),
    "sumnorm": ("rho_tensor", "intersection_norm", "part_norms", "norm_sum", "sum_norm_upper", "pairing_lower"),
    "covering": ("covers", "patch_weights", "norm_b_maximal", "norm_b_oscillation"),
    "coorbit": ("norm_b_kpsi", "norm_b_majorant", "all_pass", "margin"),
    "counterexample": ("c1", "c2", "c3", "c4", "corner_1inf_lower", "corner_1inf_upper"),
}

# (upper, lower) quantity pairs whose ratio feeds bound_ratio
BOUND_PAIRS = (("schur_bound", "opnorm_lower"), ("norm_sum", "pairing_lower"),
               ("corner_1inf_upper", "corner_1inf_lower"))


def _array(obj) -> np.ndarray:
    re = np.asarray(obj["re"], dtype=float)
    return re + 1j * np.asarray(obj["im"], dtype=float) if "im" in obj else re


def _masses(product: dict) -> tuple:
    return (np.asarray(product["factor1"]["masses"], dtype=float),
            np.asarray(product["factor2"]["masses"], dtype=float))


def _kernel_obj(obj: dict) -> tuple:
    """(values, target masses (mu1, mu2), source masses (nu1, nu2))."""
    return _array(obj), _masses(obj["X"]), _masses(obj["Y"])


@functools.lru_cache(maxsize=None)
def _load(path: str) -> tuple:
    with open(path, encoding="utf-8") as fh:
        obj = json.load(fh)
    return _kernel_obj(obj) if "X" in obj else (_array(obj), _masses(obj["space"]))


def schur_constants_ref(K, mx, my) -> tuple:
    A = np.abs(K)
    n1, n2, m1, m2 = A.shape
    M = A.reshape(n1 * n2, m1 * m2)
    c1 = (M @ np.outer(*my).ravel()).max()
    c2 = (np.outer(*mx).ravel() @ M).max()
    c3 = (np.tensordot(mx[0], A, axes=(0, 0)).max(axis=1) @ my[1]).max()  # (x2, y1, y2) -> sup y1 -> sum y2
    c4 = (mx[1] @ np.tensordot(A, my[0], axes=(2, 0)).max(axis=0)).max()  # (x1, x2, y2) -> sup x1 -> sum x2
    return c1, c2, c3, c4


def _plain_norm(M: np.ndarray, wx: np.ndarray, wy: np.ndarray) -> float:
    return max((M @ wy).max(), (wx @ M).max())


def norm_A_ref(K, mx, my, weight=None) -> float:
    A = np.abs(K) if weight is None else np.abs(K) * weight
    n1, n2, m1, m2 = A.shape
    return _plain_norm(A.reshape(n1 * n2, m1 * m2), np.outer(*mx).ravel(), np.outer(*my).ravel())


def norm_B_ref(K, mx, my, weight=None) -> float:
    A = np.abs(K) if weight is None else np.abs(K) * weight
    rows = np.tensordot(A, my[0], axes=(2, 0)).max(axis=0)  # (x2, y2): best row of each partial kernel
    cols = np.tensordot(mx[0], A, axes=(0, 0)).max(axis=1)  # (x2, y2): best column
    return _plain_norm(np.maximum(rows, cols), mx[1], my[1])


def compose_ref(K, L, my) -> np.ndarray:
    n1, n2, m1, m2 = K.shape
    p1, p2 = L.shape[2:]
    left = K.reshape(n1 * n2, m1 * m2) * np.outer(*my).ravel()
    return (left @ L.reshape(m1 * m2, p1 * p2)).reshape(n1, n2, p1, p2)


def rho_ref(values: np.ndarray, masses: np.ndarray) -> float:
    """Integral over [0, 1] of the decreasing rearrangement of `values`."""
    order = np.argsort(-values, kind="stable")
    v, m = values[order], masses[order]
    before = np.cumsum(m) - m
    return float((v * np.clip(1.0 - before, 0.0, m)).sum())


def rho_tensor_ref(F: np.ndarray, m1: np.ndarray, m2: np.ndarray) -> float:
    A = np.abs(F)
    profile = np.array([rho_ref(A[:, j], m1) for j in range(A.shape[1])])
    return rho_ref(profile, m2)


def _close(value, ref, what: str, reasons: list) -> None:
    if not isinstance(value, (int, float)) or not math.isclose(value, ref, rel_tol=RTOL, abs_tol=RTOL * 1e-6):
        reasons.append(f"{what}={value!r} misses reference {ref!r}")


def check(item: dict, code: int, text: str) -> list:
    """Reasons this certificate fails the gate (empty when it passes)."""
    if code != item["expect"]:
        return [f"exit code {code}, expected {item['expect']}"]
    try:
        cert = json.loads(text)
    except json.JSONDecodeError as exc:
        return [f"output is not JSON: {exc}"]
    q = cert.get("quantities", {})
    reasons = [f"missing quantity {name}" for name in REQUIRED[item["command"]] if name not in q]
    if reasons:
        return reasons
    checks = {c["name"]: c["pass"] for c in cert.get("checks", [])}
    handler = globals()[f"_check_{item['command']}"]
    handler(item, cert, q, checks, reasons)
    return reasons


def _check_schur(item, cert, q, checks, reasons):
    K, mx, my = _load(item["kernel"])
    for name, ref in zip(("c1", "c2", "c3", "c4"), schur_constants_ref(K, mx, my)):
        _close(q[name], ref, name, reasons)
    if item.get("corner") and "corner_opnorm" not in q:
        reasons.append("missing quantity corner_opnorm")


def _check_norm(item, cert, q, checks, reasons):
    K, mx, my = _load(item["kernel"])
    weight = _load(item["weight"])[0] if "weight" in item else None
    _close(q["norm_A"], norm_A_ref(K, mx, my, weight), "norm_A", reasons)
    _close(q["norm_B"], norm_B_ref(K, mx, my, weight), "norm_B", reasons)


def _check_compose(item, cert, q, checks, reasons):
    K, mx, my = _load(item["left"])
    L, _, mz = _load(item["right"])
    tau, omega, sigma = (_load(w)[0] for w in item["weights"]) if "weights" in item else (None, None, None)
    product = compose_ref(K, L, my)
    if "kernel" not in cert:
        reasons.append("missing composed kernel")
        return
    got = _array(cert["kernel"])
    scale = float(np.abs(product).max())
    if got.shape != product.shape or not np.allclose(got, product, rtol=RTOL, atol=RTOL * scale):
        reasons.append("composed kernel misses the reshape-matmul reference")
    _close(q["norm_b_left"], norm_B_ref(K, mx, my, omega), "norm_b_left", reasons)
    _close(q["norm_b_right"], norm_B_ref(L, my, mz, sigma), "norm_b_right", reasons)
    _close(q["norm_b_product"], norm_B_ref(product, mx, mz, tau), "norm_b_product", reasons)


def _check_sumnorm(item, cert, q, checks, reasons):
    F, (m1, m2) = _load(item["function"])
    _close(q["rho_tensor"], rho_tensor_ref(F, m1, m2), "rho_tensor", reasons)


def _check_covering(item, cert, q, checks, reasons):
    for quantity, kernel in (("norm_b_maximal", "maximal_kernel"), ("norm_b_oscillation", "oscillation_kernel")):
        if kernel not in cert:
            reasons.append(f"missing {kernel}")
            continue
        _close(q[quantity], norm_B_ref(*_kernel_obj(cert[kernel])), quantity, reasons)


def _check_coorbit(item, cert, q, checks, reasons):
    # The frame's own patch-maximal majorant dominates its idempotent kernel,
    # so the margin check fails by construction while every hypothesis holds.
    if checks.get("hypotheses_pass") is not True:
        reasons.append("hypotheses_pass is not true")
    if checks.get("margin_lt_one") is not False:
        reasons.append("margin_lt_one did not fail")
    others = [name for name, ok in checks.items() if name != "margin_lt_one" and not ok]
    if others:
        reasons.append(f"unexpected failing checks {others}")
    K, mx, my = _load(item["kernel"])
    _close(q["norm_b_kpsi"], norm_B_ref(K, mx, my), "norm_b_kpsi", reasons)


def _check_counterexample(item, cert, q, checks, reasons):
    k = np.arange(-item["N"], item["N"] + 1, dtype=float)
    _close(q["c1"], float((1.0 / (1.0 + k**2)).sum()), "c1", reasons)
    _close(q["c3"], float(((1.0 + np.abs(k)) ** (-2.0 / 3.0)).sum()), "c3", reasons)


def bound_ratios(text: str) -> list:
    """upper/lower for every bound pair the certificate reports."""
    try:
        q = json.loads(text).get("quantities", {})
    except json.JSONDecodeError:
        return []
    return [q[up] / q[lo] for up, lo in BOUND_PAIRS
            if isinstance(q.get(up), (int, float)) and isinstance(q.get(lo), (int, float)) and q[lo] > 0]
