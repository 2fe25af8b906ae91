"""Finite Parseval frames and the transform-side machinery built on them.

A frame here is a finite family of vectors indexed by a product space whose
mass-weighted rank-one sum is the identity. Its voice transform embeds
vectors as functions on the index space, the reproducing kernel is the
orthogonal projection onto the transform's range, and `coorbit_report`
evaluates every hypothesis needed for the associated function spaces to be
well defined and discretizable. `counterexample_kernel` builds the truncated
oscillating kernel showing the third Schur constant can blow up while the
operator norm stays bounded. That kernel is a `SlabKernel`: it is built and
reduced one block of its second target axis at a time, so its memory stays
bounded by the slab budget of `operators` however large N is, and each block
is built once for all of its diagnostics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coverings import RectCovering, maximal_kernel, special_linfty_weight, validate_covering
from .kernel_algebra import WeightGrid, mv_weight, norm_A, norm_B
from .measure import ProductSpace, Space, counting_space
from .mixed_norm import INF, GridFunction, mixed_norm
from .operators import Kernel, SlabKernel, schur_scan

__all__ = [
    "FiniteFrame",
    "CoorbitReport",
    "gabor_frame",
    "voice_transform",
    "reproducing_kernel",
    "coorbit_report",
    "discretization_margin",
    "sequence_norms",
    "counterexample_kernel",
]


class FiniteFrame:
    """A Parseval frame for C^d indexed by a finite product space.

    vectors[a, b, :] is the frame vector at index point (a, b). The
    mass-weighted frame operator must be the identity up to `tol`.
    """

    __slots__ = ("space", "vectors", "dim")

    def __init__(self, space: ProductSpace, vectors, tol: float = 1e-8):
        vecs = np.array(vectors, dtype=complex)  # a copy: freezing it leaves the caller's array writable
        if vecs.ndim != 3 or vecs.shape[:2] != space.shape:
            raise ValueError("vectors must have shape space.shape + (dim,)")
        if not np.isfinite(vecs).all():
            raise ValueError("frame vectors must be finite")
        vecs.setflags(write=False)
        self.space = space
        self.vectors = vecs
        self.dim = vecs.shape[2]
        defect = self.parseval_defect()
        if not defect <= tol:
            raise ValueError(f"frame operator deviates from identity by {defect:.3e}")

    def parseval_defect(self) -> float:
        S = np.einsum("ab,abi,abj->ij", self.space.mass_grid, self.vectors, self.vectors.conj())
        return float(np.abs(S - np.eye(self.dim)).max())

    def vector_norms(self) -> np.ndarray:
        """Euclidean norm of each frame vector, as a grid over the index space."""
        return np.sqrt((np.abs(self.vectors) ** 2).sum(axis=2))

    def __repr__(self) -> str:
        return f"FiniteFrame(index={self.space.shape}, dim={self.dim})"


def gabor_frame(N: int, window) -> FiniteFrame:
    """Time-frequency shift frame on Z_N x Z_N from a nonzero window.

    The window is unit-normalized; the frame vector at (a, b) is the window
    translated by a, modulated by frequency b, and scaled by 1/sqrt(N). The
    resulting family is a Parseval frame for C^N (each vector has norm
    1/sqrt(N)).
    """
    if N < 1:
        raise ValueError("N must be a positive integer")
    g = np.asarray(window, dtype=complex)
    if g.shape != (N,):
        raise ValueError(f"window must have length {N}")
    norm = np.linalg.norm(g)
    if norm == 0:
        raise ValueError("window must be nonzero")
    g = g / norm
    t = np.arange(N)
    shifts = np.stack([np.roll(g, a) for a in range(N)])  # (a, t)
    phases = np.exp(2j * np.pi * np.outer(t, t) / N)  # (b, t)
    vecs = shifts[:, None, :] * phases[None, :, :] / np.sqrt(N)
    space = ProductSpace(counting_space(N), counting_space(N))
    return FiniteFrame(space, vecs, tol=1e-10)


def voice_transform(frame: FiniteFrame, f) -> GridFunction:
    """V f(x) = <f, psi_x>, as a complex function on the index space."""
    f = np.asarray(f, dtype=complex)
    if f.shape != (frame.dim,):
        raise ValueError(f"vector must have length {frame.dim}")
    vals = np.einsum("t,abt->ab", f, frame.vectors.conj())
    return GridFunction(frame.space, vals)


def reproducing_kernel(frame: FiniteFrame) -> Kernel:
    """K(x, y) = <psi_y, psi_x>; idempotent under mass-weighted composition."""
    vals = np.einsum("cdt,abt->abcd", frame.vectors, frame.vectors.conj())
    return Kernel(frame.space, frame.space, vals)


def discretization_margin(kpsi_norm: float, l_norm: float) -> float:
    """delta * (2*kappa + delta) for kappa = kpsi_norm, delta = l_norm.

    The discretization machinery applies when this is below 1.
    """
    if kpsi_norm < 0 or l_norm < 0:
        raise ValueError("norms must be nonnegative")
    return l_norm * (2.0 * kpsi_norm + l_norm)


@dataclass(frozen=True)
class CoorbitReport:
    """Hypothesis evaluation for the coorbit construction over one frame.

    Stores the three kernel norms the theory runs on, one boolean per
    falsifiable hypothesis, the measured constants for the quantitative
    ones, and the discretization margin computed from the stored norms.
    """

    norm_a_mv: float  # plain norm of K weighted by the ratio weight of v
    norm_b_kpsi: float  # structured norm of K under m0
    norm_b_majorant: float  # structured norm of the majorant under m0
    covering_admissible: bool
    u_moderateness: float
    v_at_least_one: bool
    v_domination_constant: float  # smallest C with max{|psi_x|, u/w^c} <= C*v
    m0_symmetric: bool
    m0_pair_constant: float  # smallest C with m0(x,y) <= C*u(x)*u(y)
    kernel_dominated: bool  # patch-maximal kernel <= majorant entrywise
    margin: float

    @property
    def all_pass(self) -> bool:
        return (
            self.covering_admissible
            and self.v_at_least_one
            and self.m0_symmetric
            and self.kernel_dominated
        )

    @property
    def margin_pass(self) -> bool:
        return self.margin < 1.0


def coorbit_report(
    frame: FiniteFrame,
    cov: RectCovering,
    u: GridFunction,
    v: GridFunction,
    m0: WeightGrid,
    L: Kernel | None = None,
) -> CoorbitReport:
    """Evaluate every coorbit hypothesis for the frame's reproducing kernel.

    Nothing here raises on a failed hypothesis — failures land in the report
    as False flags or large constants. The margin is the discretization
    quantity computed from the stored structured norms of the kernel and the
    majorant L (both weighted by m0). L = None takes the patch-maximal
    kernel computed here as the majorant, which it dominates by definition.
    """
    space = frame.space
    if v.space != space:
        raise ValueError("weight v does not live on the frame's index space")
    report = validate_covering(cov, u)
    K = reproducing_kernel(frame)
    M = maximal_kernel(K, cov)
    if L is None:
        L = M

    norm_a_mv = norm_A(K, mv_weight(v))
    norm_b_kpsi = norm_B(K, m0)
    norm_b_majorant = norm_B(L, m0)

    target = np.maximum(frame.vector_norms(), special_linfty_weight(cov, u).values)
    v_dom = float((target / v.values).max())
    v_ok = bool(np.all(v.values >= 1.0 - 1e-12))

    m0_sym = bool(np.allclose(m0.values, m0.values.transpose(2, 3, 0, 1), rtol=1e-12, atol=0))
    m0_pair = float(
        (m0.values / (u.values[:, :, None, None] * u.values[None, None, :, :])).max()
    )

    if not L.is_nonnegative or L.X != space or L.Y != space:
        dominated = False
    else:
        dominated = bool(np.all(M.values <= L.values + 1e-12))

    return CoorbitReport(
        norm_a_mv=norm_a_mv,
        norm_b_kpsi=norm_b_kpsi,
        norm_b_majorant=norm_b_majorant,
        covering_admissible=report.admissible,
        u_moderateness=float(report.moderateness),
        v_at_least_one=v_ok,
        v_domination_constant=v_dom,
        m0_symmetric=m0_sym,
        m0_pair_constant=m0_pair,
        kernel_dominated=dominated,
        margin=discretization_margin(norm_b_kpsi, norm_b_majorant),
    )


def sequence_norms(coeffs, cov: RectCovering, p, q, w: GridFunction | None = None):
    """Mixed norms of the two patchwise spreadings of a coefficient sequence.

    flat spreads |lambda_j| over patch j as-is; sharp first divides by the
    patch's product mass. Overlapping patches accumulate.
    """
    lam = np.abs(np.asarray(coeffs, dtype=complex))
    if lam.shape != (len(cov),):
        raise ValueError("need exactly one coefficient per patch")
    masses = (cov.product_masks * cov.space.mass_grid).sum(axis=(1, 2))
    if np.any((masses == 0) & (lam > 0)):
        raise ValueError("nonzero coefficient on a mass-zero patch")
    scale = np.divide(lam, masses, out=np.zeros_like(lam), where=masses > 0)
    flat_vals = (lam[:, None, None] * cov.product_masks).sum(axis=0)
    sharp_vals = (scale[:, None, None] * cov.product_masks).sum(axis=0)
    flat = mixed_norm(GridFunction(cov.space, flat_vals), p, q, w)
    sharp = mixed_norm(GridFunction(cov.space, sharp_vals), p, q, w)
    return flat, sharp


# sqrt(2*zeta(4/3) - 1) = 2.49035650076805767..., rounded up to the next double
# so that it stays an upper bound; tests recompute it in mpmath
_CORNER_1INF_CAP = float.fromhex("0x1.3ec400771703fp+1")


def counterexample_kernel(N: int, M: int, trials: int = 32, seed: int = 0):
    """Truncated oscillating kernel with growing third Schur constant.

    Target space: an M-point uniform grid of [0, 1) (masses 1/M) times the
    integers {-N..N} with exponential masses. Source space: {-N..N} twice,
    first with masses beta_n = 1/((1+n^2) * sum_{|m|<=|n|} c_m) and then with
    counting measure, where c_m = (1+|m|)^{-2/3}. The kernel is
    c_m * exp(-2*pi*i*m*x) on the doubly-truncated index set |m| <= min(|n|, |k|).

    The kernel is returned as a `SlabKernel`: each block of target points k
    is built as phase(x, m) * (c_m 1{|m| <= |k|} 1{|m| <= |n|}) when a
    reduction asks for it, and the (M, 2N+1, 2N+1, 2N+1) array is never held.

    Diagnostics report the numerical Schur constants (reductions over the
    kernel entries), the two analytic sums they must match, a lower bound for
    the (1, inf) operator norm, and the square-summability upper bound
    sqrt(2*zeta(4/3) - 1) that caps it for every N (the grid resolves all
    frequencies once M > 2N). The lower bound is the best ratio over point
    masses and the constant function, followed by seeded random draws only
    when `trials` exceeds (2N+1)^2 + 1. The constants and the lower bound
    come from one `schur_scan` pass, so each slab is built once and its
    modulus taken once, and the mass-weighted sums over it are contractions.
    """
    if N < 1 or M < 2:
        raise ValueError("need N >= 1 and M >= 2")
    xs = np.arange(M) / M
    ks = np.arange(-N, N + 1)
    cm = (1.0 + np.abs(ks)) ** (-2.0 / 3.0)
    csum = np.cumsum(cm[N:])  # csum[r] = sum_{|m| <= r} c_m after symmetrizing
    sym_csum = 2.0 * csum - cm[N]  # partial sums over |m| <= r, r = 0..N
    beta = 1.0 / ((1.0 + ks.astype(float) ** 2) * sym_csum[np.abs(ks)])

    X = ProductSpace(
        Space(list(xs), np.full(M, 1.0 / M)),
        Space(list(ks), np.exp(-np.abs(ks)).astype(float)),
    )
    Y = ProductSpace(Space(list(ks), beta), counting_space(list(ks)))

    phase = np.exp(-2j * np.pi * np.outer(xs, ks))  # (x, m)
    gate = (np.abs(ks)[:, None] >= np.abs(ks)[None, :]).astype(float)  # (n or k, m)
    amp = cm * gate  # (n, m): c_m 1{|m| <= |n|}

    def build_slab(sl):
        # K[x, k, n, m] = phase[x, m] * c_m 1{|m| <= |k|} 1{|m| <= |n|} for k in sl
        return phase[:, None, None, :] * (gate[sl, None, :] * amp)[None]

    K = SlabKernel(X, Y, complex, build_slab)
    sc, lower = schur_scan(K, 1, INF, trials=trials, seed=seed)
    diagnostics = {
        "c1": sc.c1,
        "c2": sc.c2,
        "c3": sc.c3,
        "c4": sc.c4,
        "c1_analytic": float((1.0 / (1.0 + ks.astype(float) ** 2)).sum()),
        "c3_analytic": float(cm.sum()),
        "corner_1inf_lower": lower,
        "corner_1inf_upper": _CORNER_1INF_CAP,
    }
    return K, diagnostics
