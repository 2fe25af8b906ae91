"""Brute-force reference implementations.

Everything here recomputes quantities of the main modules by direct
enumeration, deliberately avoiding the code paths it cross-checks.
`brute_rho` and `brute_corner_opnorm` use plain Python loops;
`brute_sum_norm_upper` builds its own thresholding split (its splitting
costs are minima over breakpoints, from sorted prefix sums) and evaluates
it, the single-part and the random candidate decompositions in batches with
its own sums and maxima. It calls nothing of `sum_space` or `mixed_norm`.
Exponential blow-up is accepted (and capped); these exist for
trustworthiness, not speed.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .mixed_norm import INF, GridFunction
from .operators import VERTEX_CAP, Kernel
from .sum_space import FactorFunction

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


def _breakpoint_costs(vals: np.ndarray, masses: np.ndarray) -> np.ndarray:
    """min over lam in {0} and the values of lam + sum((vals - lam)_+ * masses), per row.

    With v_0 >= v_1 >= ... the values in descending order, and M_k and S_k
    the mass and the mass-weighted sum of v_0 .. v_(k-1), the cost at
    lam = v_k is v_k * (1 - M_k) + S_k, and at lam = 0 it is S_n. The cost
    is convex in lam with slope 1 - (mass above lam), so its minimum is at
    one of these breakpoints. Where M_k > 1 the factor 1 - M_k is clipped at 0: that
    breakpoint's cost is then S_k, still above the minimum. An S_k can only
    overflow there, and then gives inf. Rows of finite nonnegative values.
    """
    order = np.argsort(-vals, axis=-1, kind="stable")
    v = np.take_along_axis(vals, order, axis=-1)
    m = masses[order]
    zero = np.zeros(v.shape[:-1] + (1,))
    M = np.concatenate([zero, np.cumsum(m, axis=-1)], axis=-1)
    with np.errstate(over="ignore"):
        S = np.concatenate([zero, np.cumsum(v * m, axis=-1)], axis=-1)
    costs = v * np.maximum(1.0 - M[..., :-1], 0.0) + S[..., :-1]
    return np.minimum(costs.min(axis=-1), S[..., -1])


def _threshold_weights(absF: np.ndarray, m1: np.ndarray, m2: np.ndarray) -> np.ndarray:
    """The thresholding split of |F| as a (1, n1, n2, 4) block of 0/1 weights.

    With the slice costs G(y) = cost(|F(., y)|) and alpha = cost(G), the
    heavy slices are A = {G > 2 alpha} and the heavy points B = {|F| > 2 G};
    the parts are A & B (L1), ~A & ~B (Linf), ~A & B (L{1,inf}) and
    A & ~B (L{inf,1}).
    """
    G = _breakpoint_costs(np.ascontiguousarray(absF.T), m1)
    A = G > 2.0 * _breakpoint_costs(G, m2)
    B = absF > 2.0 * G
    return np.stack([A & B, ~A & ~B, ~A & B, A & ~B], axis=-1)[None].astype(float)


def brute_sum_norm_upper(F: GridFunction, trials: int = 32, seed: int = 0) -> float:
    """Upper estimate of the four-space sum norm by trying decompositions.

    Candidates: the thresholding split, the four single-part decompositions,
    and seeded random pointwise simplex splits. The reported minimum norm sum
    upper-bounds the true infimum and sits inside the 16x sandwich because
    the thresholding split always participates.

    All candidates are reduced with this function's own sums and maxima
    (`_part_norm_sums`): the thresholding split as one block, built by
    `_threshold_weights` with the thresholds of `split_four` but its own
    splitting costs, then the four single-part splits as one broadcast
    block, then the random splits. Those are drawn in chunks of at most
    `_CHUNK_BYTES`, which consumes the generator's stream exactly as one
    draw per trial would. The CLI check `upper_estimate_le_norm_sum` thus
    compares two independent routes to the same split's norm sum.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    n1, n2 = F.space.shape
    m1 = F.space.factor1.masses
    m2 = F.space.factor2.masses
    absF = np.abs(F.values)

    best = float(_part_norm_sums(_threshold_weights(absF, m1, m2), absF, m1, m2)[0])
    single = np.broadcast_to(np.eye(4)[:, None, None, :], (4, n1, n2, 4))
    best = min(best, float(_part_norm_sums(single, absF, m1, m2).min()))

    rng = np.random.default_rng(seed)
    chunk = max(1, _CHUNK_BYTES // (4 * 8 * n1 * n2))
    for start in range(0, trials, chunk):
        weights = rng.dirichlet([1.0] * 4, size=(min(chunk, trials - start), n1, n2))
        best = min(best, float(_part_norm_sums(weights, absF, m1, m2).min()))
    return best
