"""Kernel norms and the kernel algebra.

Two norms drive everything here. The plain one treats a kernel as a matrix
over the flattened product spaces and takes the larger of its best row and
column integrals. The structured one applies that construction twice: first
to each partial kernel obtained by freezing the second coordinates on both
sides, then to the grid of partial norms. Composition is the mass-weighted
matrix product; weights enter multiplicatively.

Both norms read the kernel's slabs through the scan behind the Schur
constants, so both accept a `SlabKernel`.
"""

from __future__ import annotations

import numpy as np

from .measure import ProductSpace, Space, counting_space, singleton_space
from .mixed_norm import GridFunction, _weight_values
from .operators import Kernel, SlabKernel, _require_dense, _require_dense_bytes, _scan

__all__ = [
    "WeightGrid",
    "norm_A",
    "norm_B",
    "transpose",
    "compose",
    "identity_kernel",
    "tensor_kernel",
    "separable_kernel",
    "mv_weight",
    "lift_plain_kernel",
    "submult_weight_constant",
    "weight_domination_constant",
]


class WeightGrid(Kernel):
    """A strictly positive real kernel-shaped weight m(x, y)."""

    __slots__ = ()

    def __init__(self, X: ProductSpace, Y: ProductSpace, values):
        super().__init__(X, Y, values)
        if not self.is_real or not np.all(self.values > 0):
            raise ValueError("weight grid entries must be strictly positive reals")


def _check_weight(K: Kernel, m: WeightGrid | None) -> None:
    if m is None:
        return
    if not isinstance(m, WeightGrid):
        raise TypeError("weight must be a WeightGrid")
    if m.X != K.X or m.Y != K.Y:
        raise ValueError("weight grid does not match the kernel's spaces")


def _norms(K: Kernel, m: WeightGrid | None = None) -> tuple[float, float]:
    """(`norm_A(K, m)`, `norm_B(K, m)`) from one scan, so each slab is read once."""
    _check_weight(K, m)
    scan = _scan(K, None, m)
    c = scan.constants
    gamma = np.maximum(scan.best_row, scan.best_col)  # (x2, y2)
    norm_b = float(max((gamma @ K.Y.factor2.masses).max(), (K.X.factor2.masses @ gamma).max()))
    return max(c.c1, c.c2), norm_b


def norm_A(K: Kernel, m: WeightGrid | None = None) -> float:
    """Plain kernel norm: larger of the best row and column integrals of |m*K|.

    The product structure is ignored; rows are integrated against the source
    masses and columns against the target masses. These are the Schur
    constants C1 and C2 of |m*K|, from the same scan, so unweighted
    `norm_A(K) == max(c1, c2)` exactly.
    """
    return _norms(K, m)[0]


def norm_B(K: Kernel, m: WeightGrid | None = None) -> float:
    """Structured kernel norm, built in two stages.

    Stage one: for every pair (x2, y2) of second coordinates, take the plain
    norm of the partial kernel (x1, y1) -> |m*K|((x1,x2),(y1,y2)) over the
    first factors. Stage two: take the plain norm of that nonnegative grid
    over the second factors. With singleton second factors this collapses to
    `norm_A`; with m absent the weight is implicitly 1. Stage one's best rows
    and columns are the grids that C4 and C3 sum against mu2 and nu2.
    """
    return _norms(K, m)[1]


def transpose(K: Kernel) -> Kernel:
    """Swap source and target: K^T(y, x) = K(x, y). No conjugation."""
    _require_dense(K, "transpose")
    return type(K)(K.Y, K.X, K.values.transpose(2, 3, 0, 1))


def compose(K: Kernel, L: Kernel) -> Kernel:
    """Mass-weighted composition: (K . L)(x, z) = sum_y K(x,y) L(y,z) nu({y})."""
    _require_dense(K, "compose")
    _require_dense(L, "compose")
    if K.Y != L.X:
        raise ValueError("middle spaces do not match")
    vals = (K.values * K.Y.mass_grid).reshape(K.X.size, K.Y.size) @ L.values.reshape(L.X.size, L.Y.size)
    return Kernel(K.X, L.Y, vals.reshape(K.X.shape + L.Y.shape))


def identity_kernel(space: ProductSpace) -> Kernel:
    """Unit of the composition algebra: diagonal entries 1/mass."""
    n1, n2 = space.shape
    vals = np.zeros((n1, n2, n1, n2))
    i1 = np.arange(n1)[:, None]
    i2 = np.arange(n2)[None, :]
    vals[i1, i2, i1, i2] = 1.0 / space.mass_grid
    return Kernel(space, space, vals)


def tensor_kernel(f: GridFunction, g: GridFunction) -> Kernel:
    """Rank-one kernel (f (x) g)(x, y) = f(x) * g(y)."""
    vals = np.multiply.outer(f.values, g.values)
    return Kernel(f.space, g.space, vals)


def separable_kernel(a, b, X: ProductSpace, Y: ProductSpace) -> Kernel:
    """Kernel acting factorwise: K((x1,x2),(y1,y2)) = a[x1,y1] * b[x2,y2]."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != (X.factor1.size, Y.factor1.size):
        raise ValueError("first-factor matrix shape mismatch")
    if b.shape != (X.factor2.size, Y.factor2.size):
        raise ValueError("second-factor matrix shape mismatch")
    return Kernel(X, Y, np.einsum("ac,bd->abcd", a, b))


def mv_weight(v: GridFunction) -> WeightGrid:
    """Symmetric ratio weight m_v(x, y) = max{v(x)/v(y), v(y)/v(x)}.

    The ratio grid, its symmetric maximum and the `WeightGrid`'s copy are
    refused with ValueError, before anything is allocated, past the cap on
    dense builds; the first grid is freed before the copy is made.
    """
    vv = _weight_values(v.space, v, "v", "its own space")
    _require_dense_bytes(f"mv_weight over {v.space.size} points", 3 * v.space.size**2, 8)
    r = vv[:, :, None, None] / vv[None, None, :, :]
    r = np.maximum(r, r.transpose(2, 3, 0, 1))
    return WeightGrid(v.space, v.space, r)


def _mv_weighted(A: Kernel, vv: np.ndarray) -> SlabKernel:
    """m_v A for a kernel A that holds a modulus, built one slab at a time.

    m_v is the ratio weight of the weight values vv. Each slab is
    `mv_weight`'s ratios for that slab, from the same divisions and maximum,
    times A's slab, which is its own modulus (real, nonnegative, no -0.0),
    so `norm_A` of the result equals `norm_A(A, mv_weight(v))` bit for bit,
    and no dense m_v grid is built.
    """

    def build_slab(sl):
        vs = vv[:, sl, None, None]
        r = vs / vv
        np.maximum(r, vv / vs, out=r)
        r *= A.values[:, sl]
        return r

    return SlabKernel(A.X, A.Y, float, build_slab)


def lift_plain_kernel(a, X1: Space | None = None, Y1: Space | None = None) -> Kernel:
    """Wrap a plain matrix kernel as a product kernel.

    Attaches singleton mass-1 second factors, so the structured norm of the
    lift equals the plain norm of the matrix and the second-coordinate Schur
    constants collapse onto the first-coordinate ones.
    """
    a = np.asarray(a)
    if a.ndim != 2:
        raise ValueError("expected a 2-D matrix kernel")
    if X1 is None:
        X1 = counting_space(a.shape[0])
    if Y1 is None:
        Y1 = counting_space(a.shape[1])
    X = ProductSpace(X1, singleton_space())
    Y = ProductSpace(Y1, singleton_space())
    return Kernel(X, Y, a[:, None, :, None])


def submult_weight_constant(tau: WeightGrid, omega: WeightGrid, sigma: WeightGrid) -> float:
    """Smallest C with tau(x,z) <= C * omega(x,y) * sigma(y,z) for all x,y,z.

    Streamed one target point x at a time: the largest ratio over y is
    tau(x,z) / min_y omega(x,y) sigma(y,z), because rounded division by a
    positive number is monotone in the divisor, so no (X, Y, Z) array is built.
    """
    if omega.X != tau.X or sigma.Y != tau.Y or omega.Y != sigma.X:
        raise ValueError("weight grids do not chain")
    n_x, n_y, n_z = tau.X.size, sigma.X.size, tau.Y.size
    t = tau.values.reshape(n_x, n_z)
    o = omega.values.reshape(n_x, n_y)
    s = sigma.values.reshape(n_y, n_z)
    return float(max((t[x] / (o[x][:, None] * s).min(axis=0)).max() for x in range(n_x)))


def weight_domination_constant(v: GridFunction, w: GridFunction, m: WeightGrid) -> float:
    """Smallest C with v(x) <= C * w(y) * m(x,y) for all x, y.

    The ratio is divided into the grid w m in place. Counted at three such
    grids, a run past the cap on dense builds is refused with ValueError
    before anything is allocated.
    """
    vv = _weight_values(m.X, v, "v", "the grid's target space")
    wv = _weight_values(m.Y, w, "w", "the grid's source space")
    nx, ny = m.X.size, m.Y.size
    _require_dense_bytes(f"weight_domination_constant over {nx} x {ny} points", 3 * nx * ny, 8)
    ratio = wv[None, None, :, :] * m.values
    np.divide(vv[:, :, None, None], ratio, out=ratio)
    return float(ratio.max())
