"""Brute-force reference implementations.

Everything here recomputes quantities of the main modules by direct
enumeration, deliberately avoiding the code paths it cross-checks.
`brute_rho` and `brute_corner_opnorm` use plain Python loops;
`brute_sum_norm_upper` evaluates its single-part and random candidate
decompositions in batches with its own sums and maxima, but takes its
thresholding candidate from `split_four(F).corner_norms()`, which makes
four `mixed_norm` calls. Exponential
blow-up is accepted (and capped); these exist for trustworthiness, not
speed.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .mixed_norm import INF, GridFunction
from .operators import VERTEX_CAP, Kernel
from .sum_space import FactorFunction, split_four

__all__ = ["brute_rho", "brute_corner_opnorm", "brute_sum_norm_upper"]

_CHUNK_BYTES = 1 << 20  # largest block of random splits drawn and reduced at once


def brute_rho(f: FactorFunction, grid_step: float = 1e-4) -> float:
    """Grid minimization of ||min(f, lam)||_inf + ||(f - lam)_+||_1.

    Scans lam over 0, step, 2*step, ... up to max f. Overshoots the exact
    value by at most grid_step (the objective has slope in [0, 1] to the
    right of the optimum).
    """
    if grid_step <= 0:
        raise ValueError("grid_step must be positive")
    vals = [float(v) for v in f.values]
    masses = [float(m) for m in f.space.masses]
    if any(math.isinf(v) for v in vals):
        return math.inf
    top = max(vals)
    best = math.inf
    lam = 0.0
    while lam <= top + grid_step / 2:
        sup_part = max(min(v, lam) for v in vals)
        int_part = sum((v - lam) * m for v, m in zip(vals, masses) if v > lam)
        best = min(best, sup_part + int_part)
        lam += grid_step
    return best


def _plain_mixed_norm(out, m1, m2, p, q) -> float:
    # corner exponents only; plain loops on nested lists
    profile = []
    for j in range(len(m2)):
        col = [abs(out[i][j]) for i in range(len(m1))]
        if p == 1.0:
            profile.append(sum(c * m for c, m in zip(col, m1)))
        else:
            profile.append(max(col))
    if q == 1.0:
        return sum(v * m for v, m in zip(profile, m2))
    return max(profile)


def brute_corner_opnorm(K: Kernel, p, q) -> float:
    """Exhaustive operator norm over unit-ball vertices, for corner exponents.

    Point-mass profiles realize inner exponent 1, constant profiles inner
    exponent inf; the outer exponent decides whether one slice or all slices
    are active. Requires a nonnegative kernel and at most 10^6 vertices.
    """
    p = float(p)
    q = float(q)
    if p not in (1.0, INF) or q not in (1.0, INF):
        raise ValueError("corner exponents only")
    if not K.is_nonnegative:
        raise ValueError("nonnegative kernels only")
    Kv = K.values
    n1x, n2x = K.X.shape
    n1y, n2y = K.Y.shape
    mu1 = [float(v) for v in K.X.factor1.masses]
    mu2 = [float(v) for v in K.X.factor2.masses]
    nu1 = [float(v) for v in K.Y.factor1.masses]
    nu2 = [float(v) for v in K.Y.factor2.masses]

    def image(fvals) -> list:
        out = [[0.0] * n2x for _ in range(n1x)]
        for a in range(n1x):
            for b in range(n2x):
                acc = 0.0
                for c in range(n1y):
                    for d in range(n2y):
                        acc += float(Kv[a, b, c, d]) * fvals[c][d] * nu1[c] * nu2[d]
                out[a][b] = acc
        return out

    vertices = []
    if p == 1.0 and q == 1.0:
        if n1y * n2y > VERTEX_CAP:
            raise ValueError("vertex cap exceeded")
        for c in range(n1y):
            for d in range(n2y):
                f = [[0.0] * n2y for _ in range(n1y)]
                f[c][d] = 1.0 / (nu1[c] * nu2[d])
                vertices.append(f)
    elif p == INF and q == INF:
        vertices.append([[1.0] * n2y for _ in range(n1y)])
    elif p == 1.0 and q == INF:
        if n1y**n2y > VERTEX_CAP:
            raise ValueError("vertex cap exceeded")
        for sel in itertools.product(range(n1y), repeat=n2y):
            f = [[0.0] * n2y for _ in range(n1y)]
            for d, c in enumerate(sel):
                f[c][d] = 1.0 / nu1[c]
            vertices.append(f)
    else:  # (inf, 1): constant slabs on one outer point
        for d in range(n2y):
            f = [[0.0] * n2y for _ in range(n1y)]
            for c in range(n1y):
                f[c][d] = 1.0 / nu2[d]
            vertices.append(f)

    best = 0.0
    for f in vertices:
        best = max(best, _plain_mixed_norm(image(f), mu1, mu2, p, q))
    return best


def _part_norm_sums(weights: np.ndarray, absF: np.ndarray, m1: np.ndarray, m2: np.ndarray) -> np.ndarray:
    """Norm sums of the decompositions |F| * weights[c, :, :, k], k = 0..3.

    Part k is measured in its corner space (L1, Linf, L{1,inf}, L{inf,1}),
    inner stage over factor 1 first, then the outer stage over factor 2.
    weights has shape (c, n1, n2, 4); returns the c norm sums.
    """
    inner1 = (absF * weights[..., 0] * m1[:, None]).sum(axis=-2)
    inner3 = (absF * weights[..., 2] * m1[:, None]).sum(axis=-2)
    l1 = (inner1 * m2).sum(axis=-1)
    linf = (absF * weights[..., 1]).max(axis=(-2, -1))
    l1inf = inner3.max(axis=-1)
    linf1 = ((absF * weights[..., 3]).max(axis=-2) * m2).sum(axis=-1)
    return l1 + linf + l1inf + linf1


def brute_sum_norm_upper(F: GridFunction, trials: int = 32, seed: int = 0) -> float:
    """Upper estimate of the four-space sum norm by trying decompositions.

    Candidates: the thresholding split, the four single-part decompositions,
    and seeded random pointwise simplex splits. The reported minimum norm sum
    upper-bounds the true infimum and sits inside the 16x sandwich because
    the thresholding split always participates; for the same reason it is
    never above that split's norm sum, so the CLI check
    `upper_estimate_le_norm_sum` holds by construction.

    The single-part and random candidates are reduced in batches with this
    function's own sums and maxima. The thresholding split's norm sum is
    `split_four(F).corner_norms()`, four calls of `mixed_norm`, so that one
    candidate shares its code with the fast path. The random splits are
    drawn in chunks of at most `_CHUNK_BYTES`, which consumes the
    generator's stream exactly as one draw per trial would.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    n1, n2 = F.space.shape
    m1 = F.space.factor1.masses
    m2 = F.space.factor2.masses
    absF = np.abs(F.values)

    best = sum(split_four(F).corner_norms())
    single = np.broadcast_to(np.eye(4)[:, None, None, :], (4, n1, n2, 4))
    best = min(best, float(_part_norm_sums(single, absF, m1, m2).min()))

    rng = np.random.default_rng(seed)
    chunk = max(1, _CHUNK_BYTES // (4 * 8 * n1 * n2))
    for start in range(0, trials, chunk):
        weights = rng.dirichlet([1.0] * 4, size=(min(chunk, trials - start), n1, n2))
        best = min(best, float(_part_norm_sums(weights, absF, m1, m2).min()))
    return best
