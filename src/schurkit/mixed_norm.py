"""Weighted mixed-norm Lebesgue norms on two-factor product spaces.

The norm runs inner-then-outer: an L^p norm over the first factor for each
fixed second-factor point, then an L^q norm of that profile over the second
factor. Infinite exponents take the maximum over points, which equals the
essential supremum because all masses are positive.
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


def _stage(vals: np.ndarray, masses: np.ndarray, p: float, axis: int) -> np.ndarray:
    # One norm stage along `axis` of a nonnegative array. `masses` must
    # already be broadcast-shaped for that axis. np.sum is pairwise.
    if p == INF:
        return vals.max(axis=axis)
    if p == 1.0:
        return (vals * masses).sum(axis=axis)
    # Max-scaled power sum (Blue, ACM TOMS 1978): (sum (v/M)^p m)^(1/p) * M,
    # so v^p neither overflows for large v or p nor underflows for small v.
    # M = 1 on all-zero slices; slices holding inf give inf.
    top = vals.max(axis=axis, keepdims=True)
    scale = np.where(top > 0.0, top, 1.0)
    with np.errstate(invalid="ignore"):  # inf / inf in slices that give inf anyway
        scaled = (((vals / scale) ** p) * masses).sum(axis=axis) ** (1.0 / p)
    scale = np.squeeze(scale, axis=axis)
    return np.where(np.isinf(scale), INF, scaled * scale)


def mixed_norm_values(g: np.ndarray, m1: np.ndarray, m2: np.ndarray, p: float, q: float) -> np.ndarray:
    """Mixed (p, q) norm of nonnegative data over the trailing two axes.

    Accepts arbitrary leading batch axes; used directly by the operator-norm
    search so that many trial functions can be reduced in one shot.
    """
    inner = _stage(g, m1[:, None], p, axis=-2)
    return _stage(inner, m2, q, axis=-1)


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

    inner = _stage(F, m1[:, None], p, axis=-2)  # per-slice L^p norms
    g0 = _slice_extremizer(F, inner, m1, p)

    total = _stage(inner, m2, q, axis=-1)
    h = np.zeros(len(m2))
    if total > 0:
        if q == 1.0:
            h[:] = 1.0
        elif q == INF:
            j = int(np.argmax(inner))
            h[j] = 1.0 / m2[j]
        else:
            h = (inner / total) ** (q - 1.0)
    return GridFunction(f.space, g0 * h[None, :])


def dual_pairing_sup(f: GridFunction, p, q) -> float:
    """sup of the pairing integral |f|*g over nonnegative g in the dual unit ball.

    Computed by constructing the explicit extremizer and integrating; agrees
    with mixed_norm(f, p, q) up to rounding.
    """
    g = dual_extremizer(f, p, q)
    pairing = (np.abs(f.values) * g.values * f.space.mass_grid).sum()
    return float(pairing)
