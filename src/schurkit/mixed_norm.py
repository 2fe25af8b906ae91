"""Weighted mixed-norm Lebesgue norms on two-factor product spaces.

The norm runs inner-then-outer: an L^p norm over the first factor for each
fixed second-factor point, then an L^q norm of that profile over the second
factor. Infinite exponents take the maximum over points, which equals the
essential supremum because all masses are positive.

Every weighted L^p norm along one axis, here and in `operators`, is taken by
`lp_norms` under one overflow policy: a plain power sum m @ V**p, with the
slices whose sum overflows or falls below the smallest normal float redone
max-scaled, (sum m (v/M)^p)^(1/p) * M for the slice maximum M (Blue, ACM
TOMS 1978). A slice holding inf gives inf; an all-zero slice gives 0.
"""

from __future__ import annotations

import math

import numpy as np

from .measure import ProductSpace

__all__ = [
    "INF",
    "GridFunction",
    "check_exponent",
    "conjugate_exponent",
    "mixed_norm",
    "dual_extremizer",
    "dual_pairing_sup",
]

INF = math.inf


def check_exponent(p) -> float:
    """Validate an exponent in [1, inf] and return it as a float."""
    p = float(p)
    if math.isnan(p) or p < 1.0:
        raise ValueError(f"exponent must lie in [1, inf], got {p}")
    return p


def conjugate_exponent(p) -> float:
    """Hoelder conjugate, with the 1 <-> inf pairing handled symbolically."""
    p = check_exponent(p)
    if p == 1.0:
        return INF
    if p == INF:
        return 1.0
    return p / (p - 1.0)


class GridFunction:
    """A function on a ProductSpace stored as a dense values grid.

    values[i, j] is the value at (factor1 point i, factor2 point j). Entries
    must be finite; the dtype is float64 for real data and complex128
    otherwise.
    """

    __slots__ = ("space", "values")

    def __init__(self, space: ProductSpace, values):
        if not isinstance(space, ProductSpace):
            raise TypeError("GridFunction needs a ProductSpace")
        arr = np.asarray(values)
        if np.iscomplexobj(arr):
            arr = arr.astype(complex)
        else:
            arr = arr.astype(float)
        if arr.shape != space.shape:
            raise ValueError(f"values shape {arr.shape} does not match space shape {space.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("grid values must be finite")
        arr.setflags(write=False)
        self.space = space
        self.values = arr

    @property
    def is_real(self) -> bool:
        return not np.iscomplexobj(self.values)

    def abs(self) -> "GridFunction":
        return GridFunction(self.space, np.abs(self.values))

    def integral(self) -> complex | float:
        """Plain integral against the product measure."""
        total = (self.values * self.space.mass_grid).sum()
        return float(total.real) if self.is_real else complex(total)

    def __add__(self, other):
        if isinstance(other, GridFunction):
            if other.space != self.space:
                raise ValueError("cannot add grid functions on different spaces")
            return GridFunction(self.space, self.values + other.values)
        return NotImplemented

    def __sub__(self, other):
        if isinstance(other, GridFunction):
            if other.space != self.space:
                raise ValueError("cannot subtract grid functions on different spaces")
            return GridFunction(self.space, self.values - other.values)
        return NotImplemented

    def __mul__(self, scalar):
        if isinstance(scalar, (int, float, complex, np.number)):
            return GridFunction(self.space, self.values * scalar)
        if isinstance(scalar, GridFunction):
            if scalar.space != self.space:
                raise ValueError("cannot multiply grid functions on different spaces")
            return GridFunction(self.space, self.values * scalar.values)
        return NotImplemented

    __rmul__ = __mul__

    def __repr__(self) -> str:
        return f"GridFunction(shape={self.space.shape}, dtype={self.values.dtype})"


def lp_norms(V: np.ndarray, m: np.ndarray, p: float, axis: int) -> np.ndarray:
    """L^p(m) norms of nonnegative V along `axis`, m holding one mass per entry of it.

    The overflow policy is the module docstring's; p = inf takes the maximum.
    """
    if p == INF:
        return V.max(axis=axis)
    if axis % V.ndim:
        V = np.moveaxis(V, axis, 0)
    V2 = V.reshape(len(m), -1)
    if p == 1.0:
        out = m @ V2
    else:
        with np.errstate(over="ignore", under="ignore"):
            power_sum = m @ V2**p
        out = power_sum ** (1.0 / p)
        bad = np.isinf(power_sum) | (power_sum < np.finfo(float).tiny)
        if np.any(bad):
            top = V2[:, bad].max(axis=0)
            redo = (top > 0.0) & (top < INF)  # all-zero slices are exact, inf slices stay inf
            bad[bad] = redo
            top = top[redo]
            with np.errstate(under="ignore"):
                out[bad] = (m @ (V2[:, bad] / top) ** p) ** (1.0 / p) * top
    return out.reshape(V.shape[1:])


def mixed_norm_values(g: np.ndarray, m1: np.ndarray, m2: np.ndarray, p: float, q: float) -> np.ndarray:
    """Mixed (p, q) norm of nonnegative data over the trailing two axes.

    Accepts arbitrary leading batch axes; used directly by the operator-norm
    search so that many trial functions can be reduced in one shot.
    """
    return lp_norms(lp_norms(g, m1, p, axis=-2), m2, q, axis=-1)


def _weight_values(space: ProductSpace, w) -> np.ndarray:
    """Accept a GridFunction or array as a weight; validate positivity."""
    if isinstance(w, GridFunction):
        if w.space != space:
            raise ValueError("weight lives on a different space")
        wv = w.values
    else:
        wv = np.asarray(w, dtype=float)
        if wv.shape != space.shape:
            raise ValueError(f"weight shape {wv.shape} does not match space shape {space.shape}")
    if np.iscomplexobj(wv) or not np.all(np.isfinite(wv)) or np.any(wv <= 0):
        raise ValueError("weights must be strictly positive finite reals")
    return np.asarray(wv, dtype=float)


def mixed_norm(f: GridFunction, p, q, w=None) -> float:
    """The weighted mixed Lebesgue norm of f.

    Parameters
    ----------
    f : GridFunction
    p, q : exponents in [1, inf]
        Inner exponent over factor 1, outer exponent over factor 2.
    w : optional weight (GridFunction or array), strictly positive
        The norm of the pointwise product w*f is returned; defaults to 1.

    Returns
    -------
    float
    """
    p = check_exponent(p)
    q = check_exponent(q)
    g = np.abs(f.values)
    if w is not None:
        g = g * _weight_values(f.space, w)
    return float(mixed_norm_values(g, f.space.factor1.masses, f.space.factor2.masses, p, q))


# ---------------------------------------------------------------------------
# Duality: explicit extremizers
# ---------------------------------------------------------------------------


def _slice_extremizer(F: np.ndarray, norms: np.ndarray, masses: np.ndarray, p: float) -> np.ndarray:
    """Per-slice dual profile g0 with ||g0[:, j]||_{p'} <= 1 and
    sum_i F[i,j] g0[i,j] m_i = norms[j]. Columns with zero norm get 0."""
    n1, n2 = F.shape
    g0 = np.zeros((n1, n2))
    pos = norms > 0
    if p == 1.0:
        # conjugate is inf: the constant-1 profile pairs to the L^1 norm
        g0[:, pos] = 1.0
    elif p == INF:
        # conjugate is 1: a single normalized point mass at the maximum
        for j in np.nonzero(pos)[0]:
            i = int(np.argmax(F[:, j]))
            g0[i, j] = 1.0 / masses[i]
    else:
        g0[:, pos] = (F[:, pos] / norms[pos]) ** (p - 1.0)
    return g0


def dual_extremizer(f: GridFunction, p, q) -> GridFunction:
    """The nonnegative g with ||g||_{p',q'} <= 1 attaining the duality sup.

    Built slice by slice: a normalized |f|^(p-1) profile per second-factor
    point (a point mass at the maximum for p = inf), scaled across slices by
    the analogous q-profile of the inner norms.
    """
    p = check_exponent(p)
    q = check_exponent(q)
    F = np.abs(f.values)
    m1 = f.space.factor1.masses
    m2 = f.space.factor2.masses

    inner = lp_norms(F, m1, p, axis=0)  # per-slice L^p norms
    g0 = _slice_extremizer(F, inner, m1, p)

    total = lp_norms(inner, m2, q, axis=0)
    h = _slice_extremizer(inner[:, None], total.reshape(1), m2, q)[:, 0]
    return GridFunction(f.space, g0 * h[None, :])


def dual_pairing_sup(f: GridFunction, p, q) -> float:
    """sup of the pairing integral |f|*g over nonnegative g in the dual unit ball.

    Computed by constructing the explicit extremizer and integrating; agrees
    with mixed_norm(f, p, q) up to rounding.
    """
    g = dual_extremizer(f, p, q)
    pairing = (np.abs(f.values) * g.values * f.space.mass_grid).sum()
    return float(pairing)
