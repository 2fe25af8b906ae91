"""Rectangular coverings of product spaces and the bounds they induce.

A covering is a finite list of rectangles V_j x W_j. It carries a discrete
weight per patch (the min formula), a continuous version spread over the
space by first-containing-patch disjointification, a maximal kernel that
smears a kernel's first argument over patches, and an oscillation kernel
measuring phase-corrected variation in the second argument. The constants
assembled in `sup_bound_certificate` turn these into an explicit weighted
sup-norm bound for integral operators dominated on patches.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernel_algebra import WeightGrid, norm_B, weight_domination_constant
from .measure import ProductSpace
from .mixed_norm import GridFunction, mixed_norm
from .operators import Kernel
from .sum_space import split_four

__all__ = [
    "RectCovering",
    "PhaseGrid",
    "CoveringReport",
    "SupBoundCertificate",
    "validate_covering",
    "covering_weights",
    "maximal_kernel",
    "oscillation",
    "special_linfty_weight",
    "sup_bound_certificate",
]


class PhaseGrid(Kernel):
    """A unimodular complex grid over pairs of product points."""

    __slots__ = ()

    def __init__(self, X: ProductSpace, Y: ProductSpace, values):
        super().__init__(X, Y, np.asarray(values, dtype=complex))
        if not np.allclose(np.abs(self.values), 1.0, rtol=0.0, atol=1e-12):
            raise ValueError("phase grid entries must have modulus 1")


class RectCovering:
    """A finite list of rectangle patches V_j x W_j over a product space.

    Patches are kept in list order; empty or non-covering lists of patches
    are representable (validation reports on them) but an empty patch *list*
    is rejected outright.
    """

    __slots__ = ("space", "patches", "masks1", "masks2", "_product_masks")

    def __init__(self, space: ProductSpace, patches):
        if not isinstance(space, ProductSpace):
            raise TypeError("expected a ProductSpace")
        patches = [(tuple(V), tuple(W)) for V, W in patches]
        if not patches:
            raise ValueError("patch list is empty")
        P = len(patches)
        masks1 = np.zeros((P, space.factor1.size), dtype=bool)
        masks2 = np.zeros((P, space.factor2.size), dtype=bool)
        for j, (V, W) in enumerate(patches):
            for p in V:
                masks1[j, space.factor1.index_of(p)] = True
            for p in W:
                masks2[j, space.factor2.index_of(p)] = True
        masks1.setflags(write=False)
        masks2.setflags(write=False)
        self.space = space
        self.patches = patches
        self.masks1 = masks1
        self.masks2 = masks2
        self._product_masks = None

    def __len__(self) -> int:
        return len(self.patches)

    @property
    def product_masks(self) -> np.ndarray:
        """Boolean (P, n1, n2) membership grids, one per patch."""
        if self._product_masks is None:
            pm = self.masks1[:, :, None] & self.masks2[:, None, :]
            pm.setflags(write=False)
            self._product_masks = pm
        return self._product_masks

    def covers(self) -> bool:
        return bool(self.product_masks.any(axis=0).all())

    def patch_weights(self) -> np.ndarray:
        """Discrete weights min{1, mu1(V_j), mu2(W_j), mu(U_j)} per patch."""
        m1 = (self.masks1 * self.space.factor1.masses).sum(axis=1)
        m2 = (self.masks2 * self.space.factor2.masses).sum(axis=1)
        return np.minimum(1.0, np.minimum(np.minimum(m1, m2), m1 * m2))

    def __repr__(self) -> str:
        return f"RectCovering(patches={len(self.patches)}, space={self.space.shape})"


@dataclass(frozen=True)
class CoveringReport:
    """Validation summary for a rectangle covering."""

    covers: bool
    patch_positive: tuple[bool, ...]
    comparability: float
    intersection_number: int
    moderateness: float | None

    @property
    def admissible(self) -> bool:
        return self.covers and all(self.patch_positive)


def _memberships(cov: RectCovering) -> tuple[np.ndarray, np.ndarray]:
    """(patch, flat point) index pairs, one per point of each patch, patch-major."""
    return np.nonzero(cov.product_masks.reshape(len(cov), -1))


def validate_covering(cov: RectCovering, u: GridFunction | None = None) -> CoveringReport:
    """Check the covering axioms and measure the covering's constants.

    Reports whether the patches cover, whether each has positive product
    mass, the smallest C with w_i <= C * w_j over intersecting patch pairs
    (1 when no two patches intersect), the intersection number (each patch
    counts itself), and — when a positive weight u is supplied — the smallest
    C' with u(x) <= C' * u(y) for x, y in a common patch. Two rectangles
    meet exactly when both of their factor sides meet.
    """
    P = len(cov)
    weights = cov.patch_weights()
    meets = cov.masks1 @ cov.masks1.T  # (P, P)
    meets &= cov.masks2 @ cov.masks2.T
    sigma = int(meets.sum(axis=1).max())
    np.fill_diagonal(meets, False)
    meets[:, weights <= 0] = False
    # w_i over the least weight among i's partners is the largest w_i / w_k, rounding included
    least = np.minimum.reduce(np.broadcast_to(weights, meets.shape), axis=1, where=meets, initial=np.inf)
    del meets  # not held beside the (P, n1, n2) product masks
    comparability = float((weights / least).max(initial=1.0))
    positive = cov.product_masks.reshape(P, -1).any(axis=1)

    moderateness = None
    if u is not None:
        if u.space != cov.space:
            raise ValueError("weight u does not live on the covered space")
        if not u.is_real or np.any(u.values <= 0):
            raise ValueError("weight u must be strictly positive")
        j, x = _memberships(cov)
        ux = u.values.reshape(-1)[x]
        hi = np.zeros(P)
        lo = np.full(P, np.inf)
        np.maximum.at(hi, j, ux)
        np.minimum.at(lo, j, ux)
        moderateness = float((hi[positive] / lo[positive]).max(initial=1.0))

    return CoveringReport(cov.covers(), tuple(positive.tolist()), comparability, sigma, moderateness)


def covering_weights(cov: RectCovering) -> tuple[np.ndarray, GridFunction, float]:
    """Discrete patch weights, their continuous version, and the condition constant.

    The continuous weight is constant on the disjointified pieces
    Omega_n = U_n minus the earlier patches (list order), taking the value of
    the owning patch's discrete weight. The returned constant is the smallest
    C0 with w^c(x)/w_j + w_j/w^c(x) <= 2*C0 for every patch j and x in U_j.
    """
    if not cov.covers():
        raise ValueError("patches do not cover the space")
    weights = cov.patch_weights()
    if np.any(weights <= 0):
        raise ValueError("every patch must have positive product mass")
    wc = weights[cov.product_masks.argmax(axis=0)]  # the first patch holding each point
    j, x = _memberships(cov)
    ratio = wc.reshape(-1)[x] / weights[j]
    c0 = max(1.0, float((ratio + 1.0 / ratio).max() / 2.0))
    return weights, GridFunction(cov.space, wc), c0


def _require_square(K: Kernel, cov: RectCovering) -> None:
    if K.X != cov.space or K.Y != cov.space:
        raise ValueError("kernel must be square over the covered space")


def maximal_kernel(K: Kernel, cov: RectCovering) -> Kernel:
    """Patch-maximal kernel (M K)(x, y) = max over z in U(x) of |K(z, y)|.

    U(x) is the union of all patches containing x; since x belongs to it,
    M K >= |K| entrywise.
    """
    _require_square(K, cov)
    if not cov.covers():
        raise ValueError("patches do not cover the space")
    A = np.abs(K.values)
    out = np.zeros_like(A)
    for j in range(len(cov)):
        mask = cov.product_masks[j]
        if not mask.any():
            continue
        patch_max = A[mask].max(axis=0)  # (n1, n2) over the second argument
        out[mask] = np.maximum(out[mask], patch_max[None, :, :])
    return Kernel(K.X, K.Y, out)


def oscillation(K: Kernel, cov: RectCovering, phase: PhaseGrid | None = None) -> Kernel:
    """Phase-corrected variation osc(x, y) = max over z in U(y) of |K(x,y) - phase(y,z) K(x,z)|.

    The patches act on the *second* argument here. With the default phase 1
    and singleton patches the oscillation vanishes identically.
    """
    _require_square(K, cov)
    if not cov.covers():
        raise ValueError("patches do not cover the space")
    if phase is not None and (phase.X != cov.space or phase.Y != cov.space):
        raise ValueError("phase grid must be square over the covered space")
    Kv = K.values if phase is None else K.values.astype(complex)
    out = np.zeros(Kv.shape[:2] + cov.space.shape)
    for j in range(len(cov)):
        y1, y2 = np.nonzero(cov.product_masks[j])
        Ky = Kv[:, :, y1, y2]  # (n1, n2, t)
        patch_osc = out[:, :, y1, y2]
        # the max over z runs one patch point at a time: no (n1, n2, t, t) cube
        for z in range(y1.size):
            Kz = Ky[:, :, z, None]
            if phase is not None:
                Kz = phase.values[y1, y2, y1[z], y2[z]] * Kz
            np.maximum(patch_osc, np.abs(Ky - Kz), out=patch_osc)
        out[:, :, y1, y2] = patch_osc
    return Kernel(K.X, K.Y, out)


def special_linfty_weight(cov: RectCovering, u: GridFunction) -> GridFunction:
    """The target weight v = u / (continuous covering weight), pointwise."""
    if u.space != cov.space:
        raise ValueError("weight u does not live on the covered space")
    _, wc, _ = covering_weights(cov)
    return GridFunction(cov.space, u.values / wc.values)


@dataclass(frozen=True)
class SupBoundCertificate:
    """Constant chain certifying max_x |Phi_K f(x)| / v(x) <= c6 * mixed_norm(f, p, q, w).

    Valid for any kernel K whose patch-maximal kernel is dominated entrywise
    by the majorant L the certificate was built from.
    """

    c1: float  # weight-domination constant for w against m
    c2: float  # c1 times the structured norm of the majorant
    c3: float  # indicator embedding constant (sum-norm estimate / mixed norm)
    c4: float  # u-moderateness over patches
    c5: float  # continuous-vs-discrete weight spread over patches
    c6: float  # product of c2..c5
    v: GridFunction  # the weight u / w^c the sup is taken against


def sup_bound_certificate(
    L: Kernel,
    cov: RectCovering,
    u: GridFunction,
    m: WeightGrid,
    p,
    q,
    w: GridFunction | None = None,
) -> SupBoundCertificate:
    """Assemble the weighted sup-norm bound constants for a patch majorant L.

    The chain: c1 makes the mixed norm with weight w tolerate conjugation by
    m; c2 = c1 * norm_B(L, m) bounds the operator norm of Phi_L; c3 converts
    patch-indicator mixed norms into sum-space norms weighted by 1/u (using
    the four-way split's norm sum as a safe over-estimate); c4 is the
    moderateness of u; c5 accounts for the continuous weight exceeding the
    discrete one on overlaps. Their product c6 is the certified constant.
    """
    _require_square(L, cov)
    space = cov.space
    if w is None:
        w = GridFunction(space, np.ones(space.shape))
    weights, wc, _ = covering_weights(cov)
    report = validate_covering(cov, u)
    if not report.admissible:
        raise ValueError("covering must cover with positive patches")

    c1 = weight_domination_constant(w, w, m)
    c2 = c1 * norm_B(L, m)

    c3 = 0.0
    for j in range(len(cov)):
        mask = cov.product_masks[j].astype(float)
        indicator = GridFunction(space, mask)
        scaled = GridFunction(space, mask / u.values)
        estimate = sum(split_four(scaled).corner_norms())
        c3 = max(c3, estimate / mixed_norm(indicator, p, q, w))

    c4 = float(report.moderateness)

    j, x = _memberships(cov)
    c5 = max(1.0, float((wc.values.reshape(-1)[x] / weights[j]).max()))

    c6 = c2 * c3 * c4 * c5
    return SupBoundCertificate(c1, c2, c3, c4, c5, c6, special_linfty_weight(cov, u))
