"""Integral operators on product spaces and their Schur-test machinery.

A kernel K maps functions on its source product space Y to functions on its
target X via (Phi_K f)(x) = sum_y K(x, y) f(y) nu({y}). The four Schur
constants bound the mixed-norm operator norms from above; at the four corner
exponent pairs the bounds are exact for nonnegative kernels, which
`corner_opnorm` verifies by applying the kernel to extremal unit-ball
vertices built in closed form. `VERTEX_CAP` bounds only the exhaustive
vertex enumeration of `oracles.brute_corner_opnorm`.

`schur_constants`, `apply_kernel` and `opnorm_lower_search` read a kernel
one slab at a time, a slab being a block of the second target axis x2 whose
values fit in `_SLAB_BYTES`. Every reduction over x1 finishes inside a slab;
only sums over x2 are carried across slabs. A dense `Kernel` yields views of
its array, a `SlabKernel` builds each slab when asked and is never held whole.
`schur_scan` computes the Schur constants and the seeded lower bound in one
pass: each slab is read once and its modulus taken once, and the
mass-weighted sums over it are matrix contractions (gemv and a batched
matmul) rather than broadcast products of the slab's full shape.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .measure import ProductSpace
from .mixed_norm import INF, GridFunction, check_exponent, mixed_norm_values

__all__ = [
    "Kernel",
    "SlabKernel",
    "SchurConstants",
    "apply_kernel",
    "schur_constants",
    "schur_scan",
    "schur_bound",
    "weighted_kernel",
    "corner_opnorm",
    "opnorm_lower_search",
    "VERTEX_CAP",
]

VERTEX_CAP = 10**6  # most unit-ball vertices the brute-force oracle enumerates
_SLAB_BYTES = 8 << 20  # largest block of kernel values reduced (or built) at once


def _slab_slices(X: ProductSpace, Y: ProductSpace, itemsize: int) -> list[slice]:
    """Blocks of the second target axis whose kernel values fit in `_SLAB_BYTES`.

    A single x2 column larger than the budget still makes one slab.
    """
    n2 = X.factor2.size
    width = max(1, _SLAB_BYTES // (X.factor1.size * Y.size * itemsize))
    return [slice(s, min(s + width, n2)) for s in range(0, n2, width)]


class Kernel:
    """A dense kernel between two product spaces.

    values[a, b, c, d] is K((x1_a, x2_b), (y1_c, y2_d)), where X = target
    (output) space and Y = source (input) space.
    """

    __slots__ = ("X", "Y", "values")

    def __init__(self, X: ProductSpace, Y: ProductSpace, values):
        if not isinstance(X, ProductSpace) or not isinstance(Y, ProductSpace):
            raise TypeError("Kernel endpoints must be ProductSpace instances")
        arr = np.asarray(values)
        arr = arr.astype(complex) if np.iscomplexobj(arr) else arr.astype(float)
        expected = X.shape + Y.shape
        if arr.shape != expected:
            raise ValueError(f"kernel shape {arr.shape} does not match spaces {expected}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("kernel values must be finite")
        arr.setflags(write=False)
        self.X = X
        self.Y = Y
        self.values = arr

    @property
    def is_real(self) -> bool:
        return not np.iscomplexobj(self.values)

    @property
    def is_nonnegative(self) -> bool:
        return self.is_real and bool(np.all(self.values >= 0))

    def abs(self) -> "Kernel":
        return Kernel(self.X, self.Y, np.abs(self.values))

    def slabs(self):
        """Yield (x2 slice, values[:, x2 slice]) views within the slab budget."""
        for sl in _slab_slices(self.X, self.Y, self.values.itemsize):
            yield sl, self.values[:, sl]

    def __repr__(self) -> str:
        return f"Kernel(X={self.X.shape}, Y={self.Y.shape}, dtype={self.values.dtype})"


class SlabKernel:
    """A kernel built one x2-slab at a time and never held whole.

    build_slab(sl) returns the values K[:, sl] of shape (|X1|, len(sl)) +
    Y.shape for a slice sl of the second target axis; each slab is built
    again whenever `slabs()` is iterated. `schur_constants`, `apply_kernel`,
    `opnorm_lower_search` and `kernel_algebra.norm_A` accept it like a dense
    `Kernel`.
    """

    __slots__ = ("X", "Y", "dtype", "_build_slab")

    def __init__(self, X: ProductSpace, Y: ProductSpace, dtype, build_slab):
        if not isinstance(X, ProductSpace) or not isinstance(Y, ProductSpace):
            raise TypeError("Kernel endpoints must be ProductSpace instances")
        self.X = X
        self.Y = Y
        self.dtype = np.dtype(complex if np.issubdtype(dtype, np.complexfloating) else float)
        self._build_slab = build_slab

    @property
    def is_real(self) -> bool:
        return self.dtype == np.float64

    def slabs(self):
        """Yield (x2 slice, values of that slab), each built on demand."""
        for sl in _slab_slices(self.X, self.Y, self.dtype.itemsize):
            vals = np.asarray(self._build_slab(sl))
            expected = (self.X.factor1.size, sl.stop - sl.start) + self.Y.shape
            if vals.shape != expected or vals.dtype != self.dtype:
                raise ValueError(f"slab {vals.dtype}{vals.shape} does not match {self.dtype}{expected}")
            if not np.all(np.isfinite(vals)):
                raise ValueError("kernel values must be finite")
            yield sl, vals

    def __repr__(self) -> str:
        return f"SlabKernel(X={self.X.shape}, Y={self.Y.shape}, dtype={self.dtype})"


class SchurConstants(NamedTuple):
    """The four mixed-norm Schur constants of a kernel."""

    c1: float
    c2: float
    c3: float
    c4: float


def _apply_slab(vals: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Images of mass-weighted source data g (|Y|, ...) on one slab: (x1, x2 in slab, ...)."""
    n1, w = vals.shape[:2]
    return (vals.reshape(n1 * w, -1) @ g).reshape((n1, w) + g.shape[1:])


def apply_kernel(K: Kernel, f: GridFunction) -> GridFunction:
    """Apply the integral operator of K to a function on its source space."""
    if f.space != K.Y:
        raise ValueError("function does not live on the kernel's source space")
    g = (f.values * K.Y.mass_grid).reshape(K.Y.size)
    out = np.concatenate([_apply_slab(vals, g) for _, vals in K.slabs()], axis=1)
    return GridFunction(K.X, out)


def _row_col_integrals(K, sl: slice, A: np.ndarray, col: np.ndarray) -> np.ndarray:
    """Row integrals of a nonnegative slab A = |K|[:, sl]; adds its column integrals to col.

    Both are contractions of the slab's |X| x |Y| view: the rows are A2 @ nu,
    the columns xmass @ A2.
    """
    A2 = A.reshape(-1, K.Y.size)
    col += K.X.mass_grid[:, sl].reshape(-1) @ A2
    return A2 @ K.Y.mass_grid.reshape(-1)


def _lead_norms(V: np.ndarray, m: np.ndarray, p: float) -> np.ndarray:
    """L^p(m) norms of nonnegative V along its leading axis, as a contraction for p < inf.

    The power sum is plain where it is finite and normal. Columns whose sum
    overflows, or underflows below the smallest normal float while the
    column is nonzero, are redone max-scaled, as in `mixed_norm._stage`.
    """
    V2 = V.reshape(len(m), -1)
    if p == INF:
        out = V2.max(axis=0)
    elif p == 1.0:
        out = m @ V2
    else:
        with np.errstate(over="ignore", under="ignore"):
            power_sum = m @ V2**p
        out = power_sum ** (1.0 / p)
        bad = np.isinf(power_sum) | (power_sum < np.finfo(float).tiny)
        if np.any(bad):
            top = V2[:, bad].max(axis=0)
            bad[bad] = top > 0.0  # all-zero columns are exact as they are
            top = top[top > 0.0]
            with np.errstate(under="ignore"):
                out[bad] = (m @ (V2[:, bad] / top) ** p) ** (1.0 / p) * top
    return out.reshape(V.shape[1:])


class _Trials(NamedTuple):
    """The seeded lower search's exponents and its constant-plus-random trial functions."""

    p: float
    q: float
    batch: np.ndarray  # (trial, y1, y2)
    weighted: np.ndarray  # (|Y|, trial): the trials times the source masses


def _draw_trials(K, p, q, trials: int, seed: int) -> _Trials:
    p = check_exponent(p)
    q = check_exponent(q)
    if trials < 1:
        raise ValueError("trials must be >= 1")
    n1y, n2y = K.Y.shape
    # the point masses come first in the trial set; constant and random tail follow
    n_rand = max(0, trials - (n1y * n2y + 1))
    rng = np.random.default_rng(seed)
    if K.is_real:
        rand = rng.random((n_rand, n1y, n2y))
    else:
        rand = rng.standard_normal((n_rand, n1y, n2y)) + 1j * rng.standard_normal((n_rand, n1y, n2y))
    ones = np.ones((1, n1y, n2y), dtype=rand.dtype)
    batch = np.concatenate([ones, rand], axis=0)
    weighted = (batch * K.Y.mass_grid).reshape(len(batch), K.Y.size).T
    return _Trials(p, q, batch, weighted)


def _scan(K, trials: _Trials | None) -> tuple[SchurConstants, float | None]:
    """The Schur constants, and the lower search over `trials` if given, from one read per slab.

    Each slab is read once and its modulus A = |K|[:, x2 slab] taken once.
    Everything summed over x1 or over the source finishes inside the slab,
    as contractions of A: rows A2 @ nu and columns xmass @ A2 on its
    |X| x |Y| view (C1, C2), mu1 @ A over x1 (C3, and the point masses at
    p = 1), and sum_{y1} nu1 A as a batched matmul (C4). Only per-x2 results
    are carried across slabs; the outer sums over x2 or y2 are gemv.

    The lower search takes the point masses in closed form: the image of a
    unit spike at (c, d) is the (c, d) column of K times nu(c, d), so its
    norm is nu(c, d) times the mixed norm of |K|[..., c, d]. The constant and
    random trials are applied to each slab as one matmul.
    """
    mu1 = K.X.factor1.masses
    mu2 = K.X.factor2.masses
    nu1 = K.Y.factor1.masses
    nu2 = K.Y.factor2.masses
    n1 = len(mu1)
    n1y, n2y = K.Y.shape

    c1 = 0.0
    col = np.zeros(K.Y.size)
    c3 = np.empty(len(mu2))
    max4 = np.empty((len(mu2), n2y))  # max over x1 of sum_{y1} nu1 |K|, per (x2, y2)
    if trials is not None:
        col_inner = np.empty((len(mu2), n1y, n2y))  # x1-norm of each point-mass column
        img_inner = np.empty((len(mu2), len(trials.batch)))  # x1-norm of each trial image
    for sl, vals in K.slabs():
        A = np.abs(vals)
        w = A.shape[1]
        c1 = max(c1, _row_col_integrals(K, sl, A, col).max())
        s1 = _lead_norms(A, mu1, 1.0)  # (x2, y1, y2): sum_{x1} mu1 |K|
        c3[sl] = s1.max(axis=1) @ nu2
        max4[sl] = (nu1 @ A.reshape(n1 * w, n1y, n2y)).reshape(n1, w, n2y).max(axis=0)
        if trials is not None:
            col_inner[sl] = s1 if trials.p == 1.0 else _lead_norms(A, mu1, trials.p)
            img_inner[sl] = _lead_norms(np.abs(_apply_slab(vals, trials.weighted)), mu1, trials.p)
    constants = SchurConstants(float(c1), float(col.max()), float(c3.max()), float((mu2 @ max4).max()))
    if trials is None:
        return constants, None

    p, q = trials.p, trials.q
    col_norms = _lead_norms(col_inner, mu2, q) * K.Y.mass_grid  # (y1, y2)
    pm_norms = np.multiply.outer(nu1 ** (1.0 / p), nu2 ** (1.0 / q))
    best = float((col_norms / pm_norms).max())
    nums = _lead_norms(img_inner, mu2, q)
    dens = mixed_norm_values(np.abs(trials.batch), nu1, nu2, p, q)
    ok = dens > 0
    if np.any(ok):
        best = max(best, float((nums[ok] / dens[ok]).max()))
    return constants, best


def schur_constants(K: Kernel) -> SchurConstants:
    """Evaluate the four Schur constants (integrals as mass-weighted sums).

    C1 integrates |K| over the source for each target point; C2 the reverse.
    C3 fixes the target's second coordinate, integrates over the source's
    first factor, takes the sup over the source's first coordinate, and
    integrates the result over the source's second factor; C4 is the mirror
    with the roles of the two sides exchanged.

    The kernel is read once, in x2-slabs, with one modulus A per slab, and
    the mass-weighted sums are contractions of A: row integrals A2 @ nu and
    column integrals xmass @ A2 on its |X| x |Y| view A2, C3's inner sum
    mu1 @ A over x1, and C4's sum over y1 as a batched matmul. C1 and C3
    finish inside a slab, C2's column integrals are summed across slabs,
    and C4's per-(x2, y2) maxima are gathered before the outer sum over x2.
    """
    return _scan(K, None)[0]


def schur_scan(K: Kernel, p, q, trials: int = 64, seed: int = 0) -> tuple[SchurConstants, float]:
    """The Schur constants and `opnorm_lower_search(K, p, q, trials, seed)` from one pass.

    Reads each x2-slab of the kernel once and takes its modulus once, where
    calling `schur_constants` and `opnorm_lower_search` in turn would read
    (and, for a `SlabKernel`, build) every slab twice. Both functions run
    this same per-slab code, so the values are theirs.
    """
    return _scan(K, _draw_trials(K, p, q, trials, seed))


def schur_bound(c: SchurConstants, p, q) -> float:
    """Upper bound for the (p, q) operator norm from the Schur constants.

    Three valid regimes: max{C1, C2, C3} for p < q, max{C1, C2, C4} for
    p > q, and the classical two-constant Schur bound max{C1, C2} at p = q
    (the third constant is not needed there and can be arbitrarily larger).
    """
    p = check_exponent(p)
    q = check_exponent(q)
    if p == q:
        return max(c.c1, c.c2)
    if p < q:
        return max(c.c1, c.c2, c.c3)
    return max(c.c1, c.c2, c.c4)


def weighted_kernel(K: Kernel, v, w) -> Kernel:
    """Conjugate the kernel by weights: K_{v,w}(x, y) = v(x)/w(y) * K(x, y).

    The identity v * (Phi_K f) = Phi_{K_{v,w}} (w * f) holds exactly, which is
    how weighted operator bounds reduce to unweighted ones.
    """
    from .mixed_norm import _weight_values

    vv = _weight_values(K.X, v)
    wv = _weight_values(K.Y, w)
    vals = K.values * vv[:, :, None, None] / wv[None, None, :, :]
    return Kernel(K.X, K.Y, vals)


# ---------------------------------------------------------------------------
# Exact corner operator norms (nonnegative kernels)
# ---------------------------------------------------------------------------


def _corner_exponents(p, q) -> tuple[float, float]:
    p = check_exponent(p)
    q = check_exponent(q)
    if p not in (1.0, INF) or q not in (1.0, INF):
        raise ValueError("corner norms are defined for exponents 1 and inf only")
    return p, q


def corner_opnorm(K: Kernel, p, q) -> float:
    """Exact operator norm of Phi_K on L^{p,q} for p, q in {1, inf}.

    Requires a nonnegative kernel. The (1,1) and (inf,inf) norms have closed
    forms (largest column/row mass sum). For (1,inf) the supremum over the
    unit ball is attained at a vertex function choosing one mass-normalized
    first-factor atom per second-factor point. The image's L^{1,inf} norm is
    a maximum over target points x2, and for a fixed x2 the best choice at
    each y2 is the atom maximizing sum_{x1} mu1 K, so the |X2| vertices so
    chosen suffice; no enumeration of the |Y1|^|Y2| vertices is needed. For
    (inf,1) the vertices are slabs concentrated on a single second-factor
    point.
    """
    p, q = _corner_exponents(p, q)
    if not K.is_nonnegative:
        raise ValueError("corner_opnorm requires a nonnegative real kernel")
    Kv = K.values
    mu1 = K.X.factor1.masses
    mu2 = K.X.factor2.masses
    nu1 = K.Y.factor1.masses
    nu2 = K.Y.factor2.masses

    if p == 1.0 and q == 1.0:
        # point masses extremize; the norm is the largest column mass sum
        return float((Kv * K.X.mass_grid[:, :, None, None]).sum(axis=(0, 1)).max())

    if p == INF and q == INF:
        # the constant function extremizes; largest row mass sum
        return float((Kv * K.Y.mass_grid).sum(axis=(2, 3)).max())

    if p == 1.0 and q == INF:
        # f_s has slice y2 = delta at s(y2), height 1/nu1(s(y2)); the nu1
        # factors cancel, leaving sums of K-columns scaled by nu2. Target x2
        # is extremized by s(y2) = argmax_{y1} sum_{x1} mu1 K(x1, x2, y1, y2).
        sel = (Kv * mu1[:, None, None, None]).sum(axis=0).argmax(axis=1)  # (x2, y2)
        B = np.moveaxis(Kv * nu2, (2, 3), (0, 1))  # (y1, y2, x1, x2)
        out = B[sel, np.arange(len(nu2))[None, :]].sum(axis=1)  # (x2 vertex, x1, x2)
        return float(mixed_norm_values(out, mu1, mu2, 1.0, INF).max())

    # (inf, 1): slab vertices f_j = 1_{Y1 x {j}} / nu2(j); the nu2 cancels.
    out = np.einsum("abcd,c->dab", Kv, nu1)  # (y2, x1, x2)
    norms = mixed_norm_values(out, mu1, mu2, INF, 1.0)
    return float(norms.max())


def opnorm_lower_search(K: Kernel, p, q, trials: int = 64, seed: int = 0) -> float:
    """Seeded lower bound for the (p, q) operator norm of Phi_K.

    Maximizes mixed_norm(Phi_K f) / mixed_norm(f) over a trial set that always
    starts with every point mass and the constant function (the corner
    extremizers), followed by seeded random draws — nonnegative for real
    kernels, complex Gaussian otherwise — up to `trials` functions in total.
    It runs in the single pass of `schur_scan`: each x2-slab is read once,
    the point masses come from its modulus in closed form, and all other
    trials are applied to it as one matmul.
    """
    return schur_scan(K, p, q, trials, seed)[1]
