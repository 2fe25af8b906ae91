"""Integral operators on product spaces and their Schur-test machinery.

A kernel K maps functions on its source product space Y to functions on its
target X via (Phi_K f)(x) = sum_y K(x, y) f(y) nu({y}). The four Schur
constants bound the mixed-norm operator norms from above; at the four corner
exponent pairs the bounds are exact for nonnegative kernels, which
`corner_opnorm` verifies by applying the kernel to extremal unit-ball
vertices built in closed form. `VERTEX_CAP` bounds only the exhaustive
vertex enumeration of `oracles.brute_corner_opnorm`.

`schur_constants`, `apply_kernel`, `opnorm_lower_search`, `norm_A` and
`norm_B` read a kernel one slab at a time, a slab being a block of the
second target axis x2 whose values fit in `_SLAB_BYTES` (1 MiB: a slab and
its modulus stay in one core's L2 cache; the slab's contractions are BLAS
calls, which a threaded BLAS can still stall on, see `_SLAB_BYTES`). Every
reduction over x1 finishes inside a slab; only sums, maxima and L^q norms
over x2 are carried across slabs.
A dense `Kernel` yields views of its array, a `SlabKernel` builds each slab
when asked and is never held whole. Every slab loop holds one slab and its
modulus at a time: `slabs()` keeps no reference to a slab it has yielded,
and each loop drops the slab, its modulus and its per-slab partials before
it asks for the next one. All but `apply_kernel` run one scan, `_scan`: each
slab is read once and its modulus taken once, and only two mass-weighted
contractions read that modulus, its sum over x1 and its sum over y1 (a gemv
and a batched matmul, not broadcast products of the slab's full shape);
every other integral is a small contraction of those two. Its L^p norms are
`mixed_norm.lp_norms`, under that module's one overflow policy.

A dense `Kernel` checks its values finite once, when it is built; a
`SlabKernel`'s `slabs()` checks each slab as it is built. Every slab loop
reads `slabs()`, so no reduction sees an unchecked slab.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .measure import ProductSpace
from .mixed_norm import INF, GridFunction, _weight_values, check_exponent, lp_norms, mixed_norm_values

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
]

VERTEX_CAP = 10**6  # most unit-ball vertices the brute-force oracle enumerates
# Largest block of kernel values reduced (or built) at once. At 1 MiB a slab
# and its modulus stay resident in a core's 2 MiB L2 cache. The budget does
# not keep a slab's contractions clear of threaded BLAS: with OpenBLAS at two
# threads on two vCPUs (numpy 2.4), the (144 x 144) complex gemv of a
# one-slab 12^4 kernel took 8.0 ms instead of 0.007 ms in 3 of 10 fresh
# processes.
_SLAB_BYTES = 1 << 20
# Most bytes of one dense build. The Gabor kernel at N = 64 and the copy its
# `Kernel` makes, 2 * 64^4 complex values or 512 MiB, fit; past the cap
# `gabor_frame`, `reproducing_kernel`, the kernel modulus `coorbit_report`
# reads, `mv_weight`, `weight_domination_constant`,
# `maximal_kernel`, `oscillation`, `counterexample_kernel` and the lower
# search's trial batch raise ValueError before they allocate, so the CLI
# exits 2 instead of running out of memory.
_DENSE_BYTES = 1 << 29


def _slab_slices(X: ProductSpace, Y: ProductSpace, itemsize: int) -> list[slice]:
    """Blocks of the second target axis whose kernel values fit in `_SLAB_BYTES`.

    A single x2 column larger than the budget still makes one slab.
    """
    n2 = X.factor2.size
    width = max(1, _SLAB_BYTES // (X.factor1.size * Y.size * itemsize))
    return [slice(s, min(s + width, n2)) for s in range(0, n2, width)]


def _require_finite(vals: np.ndarray) -> None:
    """Raise ValueError unless every entry of vals is finite.

    An inf or a nan always makes the sum non-finite, so a finite sum proves
    every entry finite; only a sum that overflows from finite entries is
    checked again entry by entry. The common case reads vals once and builds
    no boolean temporary.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        total = vals.sum()
    if not np.isfinite(total) and not np.isfinite(vals).all():
        raise ValueError("kernel values must be finite")


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
        _require_finite(arr)
        arr.setflags(write=False)
        self.X = X
        self.Y = Y
        self.values = arr

    @property
    def dtype(self) -> np.dtype:
        return self.values.dtype

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
    again whenever `slabs()` is iterated, which raises ValueError on a slab
    of the wrong shape or dtype or with a non-finite entry. `schur_constants`,
    `apply_kernel`, `opnorm_lower_search`, `kernel_algebra.norm_A` and
    `kernel_algebra.norm_B` accept it like a dense `Kernel` and read it
    through `slabs()`, so each slab is checked once, as it is built.
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
        """Yield (x2 slice, values of that slab), each built on demand and checked finite.

        The generator keeps no reference to a slab once it is yielded, so a
        caller that drops its own holds one slab while the next is built.
        """
        for sl in _slab_slices(self.X, self.Y, self.dtype.itemsize):
            vals = np.asarray(self._build_slab(sl))
            expected = (self.X.factor1.size, sl.stop - sl.start) + self.Y.shape
            if vals.shape != expected or vals.dtype != self.dtype:
                raise ValueError(f"slab {vals.dtype}{vals.shape} does not match {self.dtype}{expected}")
            _require_finite(vals)
            yield sl, vals
            del vals

    def __repr__(self) -> str:
        return f"SlabKernel(X={self.X.shape}, Y={self.Y.shape}, dtype={self.dtype})"


def _require_dense_bytes(what: str, count: int, itemsize: int = np.dtype(complex).itemsize) -> None:
    """Refuse, before allocating, a dense build of `count` values of `itemsize` bytes past `_DENSE_BYTES`."""
    nbytes = count * itemsize
    if nbytes > _DENSE_BYTES:
        raise ValueError(f"{what} needs {nbytes} bytes, over the {_DENSE_BYTES}-byte cap on dense builds")


def _require_dense(K, name: str) -> None:
    if not isinstance(K, Kernel):
        raise TypeError(f"{name} needs a dense Kernel, got {type(K).__name__}")


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
    out = np.empty(K.X.shape, dtype=np.result_type(K.dtype, g.dtype))
    for sl, vals in K.slabs():
        out[:, sl] = _apply_slab(vals, g)
        del vals  # one slab alive while the next is built
    return GridFunction(K.X, out)


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
    # every point mass (taken in closed form by `_scan`) and the constant always
    # run; random draws fill what is left of `trials`, if anything is
    n_rand = max(0, trials - (n1y * n2y + 1))
    # per trial function: its draw, batch row and weighted copy, and its
    # image on one slab, each with float temporaries; `schur_scan`'s traced
    # peaks stay under this on real and complex kernels from 4^2 x 8^2 to
    # 64^2 x 2^2, with 400 to 2000 trials
    itemsize = np.dtype(K.dtype).itemsize
    rows = K.X.factor1.size * _slab_slices(K.X, K.Y, itemsize)[0].stop
    per_trial = K.Y.size * (3 * itemsize + 16) + rows * (itemsize + 16)
    _require_dense_bytes(f"a lower search of {n_rand + 1} trial functions", (n_rand + 1) * per_trial, 1)
    rng = np.random.default_rng(seed)
    if K.is_real:
        rand = rng.random((n_rand, n1y, n2y))
    else:
        rand = rng.standard_normal((n_rand, n1y, n2y)) + 1j * rng.standard_normal((n_rand, n1y, n2y))
    ones = np.ones((1, n1y, n2y), dtype=rand.dtype)
    batch = np.concatenate([ones, rand], axis=0)
    weighted = (batch * K.Y.mass_grid).reshape(len(batch), K.Y.size).T
    return _Trials(p, q, batch, weighted)


class _Scan(NamedTuple):
    constants: SchurConstants
    best_row: np.ndarray  # (x2, y2): max over x1 of sum_{y1} nu1 |m*K|, per partial kernel
    best_col: np.ndarray  # (x2, y2): max over y1 of sum_{x1} mu1 |m*K|
    lower: float | None  # the lower search, when trials are given


def _merge_lq(total: np.ndarray | None, part: np.ndarray, q: float) -> np.ndarray:
    """The L^q norm of two disjoint pieces' L^q norms, under `lp_norms`'s overflow policy."""
    return part if total is None else lp_norms(np.stack([total, part]), np.ones(2), q, axis=0)


def _scan(K, trials: _Trials | None, m=None) -> _Scan:
    """The Schur constants, the partial-kernel grids and the lower search, from one read per slab.

    Each slab is read once and its modulus A = |K|[:, x2 slab] taken once,
    times m.values[:, x2 slab] if a weight grid m is given. Exactly two
    contractions read A: s1 = mu1 @ A over x1 (the best columns, C3, and the
    point masses at p = 1) and R = sum_{y1} nu1 A as a batched matmul (the
    best rows, C4). The rest derive from these: C1's row integrals are
    R @ nu2, and C2's column integrals accumulate mu2[slab] @ s1 across
    slabs. C1 and C3 are running maxima over the slabs; only C4's
    per-(x2, y2) maxima are gathered, for one gemv over x2 at the end.

    The slabs come from `slabs()`, which has checked each one finite; rows
    whose integrals overflow from finite entries are accepted, as when the
    kernel is built.

    The lower search takes the point masses in closed form: the image of a
    unit spike at (c, d) is the (c, d) column of K times nu(c, d), so its
    norm is nu(c, d) times the mixed norm of |K|[..., c, d]. The constant and
    random trials are applied to each slab as one matmul. Every L^p norm
    here is `lp_norms`. The columns' and images' x1-norms are reduced over
    the slab's x2 at once, and that L^q norm is merged into a running one by
    `_merge_lq`: norms a and b of two pieces give (a^q + b^q)^(1/q), again
    through `lp_norms`, so the merge cannot overflow. At q = inf a merge is a
    maximum, which is exact; at finite q each merge adds one power and one
    root to the rounding of every norm, so a kernel of S slabs carries S - 1
    of each more than one norm over all of x2 would.
    """
    mu1 = K.X.factor1.masses
    mu2 = K.X.factor2.masses
    nu1 = K.Y.factor1.masses
    nu2 = K.Y.factor2.masses
    n1 = len(mu1)
    n1y, n2y = K.Y.shape

    c1 = c3 = 0.0
    col = np.zeros(K.Y.size)
    best_row = np.empty((len(mu2), n2y))
    best_col = np.empty((len(mu2), n2y))
    col_norms = img_norms = None  # L^{p,q} norms of the point-mass columns and trial images, so far
    for sl, vals in K.slabs():
        A = np.abs(vals)
        if m is not None:
            A *= m.values[:, sl]
        w = A.shape[1]
        s1 = lp_norms(A, mu1, 1.0, axis=0)  # (x2, y1, y2): sum_{x1} mu1 |K|
        R = nu1 @ A.reshape(n1 * w, n1y, n2y)  # (x1 x2, y2): sum_{y1} nu1 |K|
        c1 = max(c1, (R @ nu2).max())
        col += mu2[sl] @ s1.reshape(w, -1)
        slab_cols = s1.max(axis=1)
        c3 = max(c3, (slab_cols @ nu2).max())
        best_col[sl] = slab_cols
        best_row[sl] = R.reshape(n1, w, n2y).max(axis=0)
        if trials is not None:
            cols = s1 if trials.p == 1.0 else lp_norms(A, mu1, trials.p, axis=0)
            imgs = lp_norms(np.abs(_apply_slab(vals, trials.weighted)), mu1, trials.p, axis=0)
            col_norms = _merge_lq(col_norms, lp_norms(cols, mu2[sl], trials.q, axis=0), trials.q)
            img_norms = _merge_lq(img_norms, lp_norms(imgs, mu2[sl], trials.q, axis=0), trials.q)
            del cols, imgs
        del vals, A, s1, R  # one slab and its modulus alive while the next is built
    constants = SchurConstants(float(c1), float(col.max()), float(c3), float((mu2 @ best_row).max()))
    if trials is None:
        return _Scan(constants, best_row, best_col, None)

    p, q = trials.p, trials.q
    pm_norms = np.multiply.outer(nu1 ** (1.0 / p), nu2 ** (1.0 / q))
    best = float((col_norms * K.Y.mass_grid / pm_norms).max())
    dens = mixed_norm_values(np.abs(trials.batch), nu1, nu2, p, q)
    ok = dens > 0
    if np.any(ok):
        best = max(best, float((img_norms[ok] / dens[ok]).max()))
    return _Scan(constants, best_row, best_col, best)


def schur_constants(K: Kernel) -> SchurConstants:
    """Evaluate the four Schur constants (integrals as mass-weighted sums).

    C1 integrates |K| over the source for each target point; C2 the reverse.
    C3 fixes the target's second coordinate, integrates over the source's
    first factor, takes the sup over the source's first coordinate, and
    integrates the result over the source's second factor; C4 is the mirror
    with the roles of the two sides exchanged.

    The kernel is read once, in x2-slabs, with one modulus A per slab, and
    two contractions of A carry every sum: mu1 @ A over x1 (C3's inner sum)
    and sum_{y1} nu1 A as a batched matmul (C4's inner sum). C1's row
    integrals are the latter summed against nu2, and C2's column integrals
    the former summed against mu2 across slabs. C1 and C3 finish inside a
    slab, and C4's per-(x2, y2) maxima are gathered before the outer sum over
    x2.
    """
    return _scan(K, None).constants


def schur_scan(K: Kernel, p, q, trials: int = 64, seed: int = 0) -> tuple[SchurConstants, float]:
    """The Schur constants and `opnorm_lower_search(K, p, q, trials, seed)` from one pass.

    Reads each x2-slab of the kernel once and takes its modulus once, where
    calling `schur_constants` and `opnorm_lower_search` in turn would read
    (and, for a `SlabKernel`, build) every slab twice. Both functions run
    this same per-slab code, so the values are theirs.
    """
    scan = _scan(K, _draw_trials(K, p, q, trials, seed))
    return scan.constants, scan.lower


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
    _require_dense(K, "weighted_kernel")
    vv = _weight_values(K.X, v, "v", "the kernel's target space")
    wv = _weight_values(K.Y, w, "w", "the kernel's source space")
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
    point. The images' norms are its own sums and maxima, not `lp_norms`, so
    the `corner_opnorm_equals_c*` checks compare two routes that share no
    reduction.
    """
    p, q = _corner_exponents(p, q)
    _require_dense(K, "corner_opnorm")
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
        # the image's L^{1,inf} norm: mu1-weighted sum over x1, then max over x2
        return float((out * mu1[:, None]).sum(axis=1).max())

    # (inf, 1): slab vertices f_j = 1_{Y1 x {j}} / nu2(j); the nu2 cancels.
    out = np.einsum("abcd,c->dab", Kv, nu1)  # (y2, x1, x2)
    # the image's L^{inf,1} norm: max over x1, then mu2-weighted sum over x2
    return float((out.max(axis=1) * mu2).sum(axis=1).max())


def opnorm_lower_search(K: Kernel, p, q, trials: int = 64, seed: int = 0) -> float:
    """Seeded lower bound for the (p, q) operator norm of Phi_K.

    Maximizes mixed_norm(Phi_K f) / mixed_norm(f) over a trial set that always
    holds every point mass and the constant function (the corner
    extremizers), and seeded random draws — nonnegative for real kernels,
    complex Gaussian otherwise — up to `trials` functions in total. So it has
    max(trials, |Y| + 1) functions: 577 at |Y1| = |Y2| = 24 with 64 trials.
    It runs in the single pass of `schur_scan`: each x2-slab is read once,
    the point masses come from its modulus in closed form, and all other
    trials are applied to it as one matmul.
    """
    return schur_scan(K, p, q, trials, seed)[1]
