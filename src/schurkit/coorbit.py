"""Finite Parseval frames and the transform-side machinery built on them.

A frame here is a finite family of vectors indexed by a product space whose
mass-weighted rank-one sum is the identity. Its voice transform embeds
vectors as functions on the index space, the reproducing kernel is the
orthogonal projection onto the transform's range, and `coorbit_report`
evaluates every hypothesis needed for the associated function spaces to be
well defined and discretizable. A Gabor frame's kernel is a phase times its
window's N x N ambiguity grid W, built with one inverse FFT and one gather;
any other frame's is the N^5 inner products of its vectors, the oracle for
the closed form. Every number `coorbit_report` takes from the kernel depends
on its modulus alone, and it reads only that: for a Gabor frame |W| copied
into the N^4 real grid, with no complex kernel built, and its m_v-weighted
norm is taken one slab at a time, with no dense m_v grid. Dense frame and
kernel builds, and the counterexample's factors, past
`operators._DENSE_BYTES` are refused before they allocate.
`counterexample_kernel` builds the truncated oscillating kernel showing the
third Schur constant can blow up while the operator norm stays bounded.
Its entries are a product of three small factors,
K[x1, x2, y1, y2] = phase[x1, y2] gate[x2, y2] amp[y1, y2], and its
diagnostics are contractions of those factors: O(M(2N+1)^2) work and
O(M(2N+1) + (2N+1)^2) memory, where the entries number M(2N+1)^3. The
kernel itself is returned as a `SlabKernel`, built one block of its second
target axis at a time when a reduction asks for it, and the slab scan of
`operators` on it is the independent check on the factored values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coverings import RectCovering, maximal_kernel, special_linfty_weight, validate_covering
from .kernel_algebra import WeightGrid, _mv_weighted, norm_A, norm_B
from .measure import ProductSpace, Space, counting_space
from .mixed_norm import INF, GridFunction, _weight_values, mixed_norm, mixed_norm_values
from .operators import Kernel, SchurConstants, SlabKernel, _draw_trials, _require_dense, _require_dense_bytes

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
        """Largest entry of |S - I| for the frame operator S = sum_x mu(x) psi_x psi_x^*.

        With psi = x + iy, S is read off the real Gram grid G of the
        interleaved (x, y) view of the vectors, one two-operand `einsum`
        (no BLAS call): Re S = G[x, x] + G[y, y] and Im S = G[y, x] - G[x, y].
        Unit masses weight nothing, so a frame over counting measures builds
        no copy of its vectors.
        """
        d = self.dim
        real = self.vectors.reshape(-1, d).view(float)  # (point, 2d): x_i, y_i interleaved
        mass = self.space.mass_grid.reshape(-1, 1)
        weighted = real if np.all(mass == 1.0) else real * mass
        G = np.einsum("ki,kj->ij", weighted, real).reshape(d, 2, d, 2)
        return float(np.hypot(G[:, 0, :, 0] + G[:, 1, :, 1] - np.eye(d), G[:, 1, :, 0] - G[:, 0, :, 1]).max())

    def vector_norms(self) -> np.ndarray:
        """Euclidean norm of each frame vector, as a grid over the index space."""
        return np.sqrt((np.abs(self.vectors) ** 2).sum(axis=2))

    def __repr__(self) -> str:
        return f"FiniteFrame(index={self.space.shape}, dim={self.dim})"


class _GaborFrame(FiniteFrame):
    """A Gabor frame that keeps its unit-normalized window, from which
    `reproducing_kernel` builds the kernel in closed form."""

    __slots__ = ("window",)

    def __init__(self, space: ProductSpace, vectors, window: np.ndarray, tol: float):
        super().__init__(space, vectors, tol)
        window.setflags(write=False)
        self.window = window


def gabor_frame(N: int, window) -> FiniteFrame:
    """Time-frequency shift frame on Z_N x Z_N from a nonzero window.

    The window is unit-normalized; the frame vector at (a, b) is the window
    translated by a, modulated by frequency b, and scaled by 1/sqrt(N). The
    resulting family is a Parseval frame for C^N (each vector has norm
    1/sqrt(N)). Its N^3 complex values and the frame's copy of them are
    refused with ValueError, before anything is allocated, past the cap on
    dense builds; the Parseval check reads the copy in place.
    """
    if N < 1:
        raise ValueError("N must be a positive integer")
    _require_dense_bytes(f"a Gabor frame of N = {N}", 2 * int(N) ** 3)
    g = np.asarray(window, dtype=complex)
    if g.shape != (N,):
        raise ValueError(f"window must have length {N}")
    norm = np.linalg.norm(g)
    if norm == 0:
        raise ValueError("window must be nonzero")
    g = g / norm
    t = np.arange(N)
    shifts = g[(t[None, :] - t[:, None]) % N]  # (a, t): g((t - a) mod N)
    phases = np.exp(2j * np.pi * np.outer(t, t) / N)  # (b, t)
    vecs = shifts[:, None, :] * phases[None, :, :] / np.sqrt(N)
    space = ProductSpace(counting_space(N), counting_space(N))
    return _GaborFrame(space, vecs, g, tol=1e-10)


def voice_transform(frame: FiniteFrame, f) -> GridFunction:
    """V f(x) = <f, psi_x>, as a complex function on the index space."""
    f = np.asarray(f, dtype=complex)
    if f.shape != (frame.dim,):
        raise ValueError(f"vector must have length {frame.dim}")
    vals = np.einsum("t,abt->ab", f, frame.vectors.conj())
    return GridFunction(frame.space, vals)


def _ambiguity(g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The lag grid diff[i, j] = (j - i) mod N and the ambiguity grid W of the unit window g.

    W[alpha, beta] = (1/N) sum_s g((s - alpha) mod N) conj g(s) exp(2 pi i beta s / N),
    an inverse FFT along s: O(N^2 log N) work and no BLAS call.
    """
    N = len(g)
    n = np.arange(N)
    diff = (n[None, :] - n[:, None]) % N
    return diff, np.fft.ifft(g[diff] * g.conj(), axis=1)  # (alpha, beta)


def _gabor_kernel(g: np.ndarray) -> np.ndarray:
    """<psi_(c,d), psi_(a,b)> of the Gabor frame of the unit window g, from g's ambiguity grid.

    With alpha = (c - a) mod N and beta = (d - b) mod N, substituting
    s = t - a in the inner product gives
    K[a, b, c, d] = exp(2 pi i a beta / N) W[alpha, beta], W from `_ambiguity`.
    That is one gather for the N^4 entries, against O(N^5) for the frame
    vectors' inner products, and no BLAS call.
    """
    N = len(g)
    n = np.arange(N)
    diff, W = _ambiguity(g)
    roots = np.exp(2j * np.pi * n / N)
    T = roots[(n[:, None] * n) % N][:, None, :] * W  # (a, alpha, beta)
    return T[n[:, None, None, None], diff[:, None, :, None], diff[None, :, None, :]]


def _gabor_modulus(g: np.ndarray) -> np.ndarray:
    """|K| of `_gabor_kernel(g)` with no complex N^4 array: |K[a, b, c, d]| = |W[(c - a) mod N, (d - b) mod N]|.

    The phase has modulus 1, so the modulus is |W| rolled by (a, b) for each
    target point (a, b). Tiled 2 x 2, |W| holds every roll as an N x N
    window: the window at (N - a, N - b) is the roll by (a, b), so the N^4
    entries are one strided copy of N^2 floats. Each is |W| rounded once,
    where |exp(i theta) W| also rounds the phase and the product.
    """
    N = len(g)
    tiled = np.tile(np.abs(_ambiguity(g)[1]), (2, 2))
    windows = np.lib.stride_tricks.sliding_window_view(tiled, (N, N))  # (N + 1, N + 1, N, N)
    return np.ascontiguousarray(windows[N:0:-1, N:0:-1])


def reproducing_kernel(frame: FiniteFrame) -> Kernel:
    """K(x, y) = <psi_y, psi_x>; idempotent under mass-weighted composition.

    A frame from `gabor_frame` gets the closed form of `_gabor_kernel`; any
    other frame takes the inner products of its vectors. The kernel's
    complex values and the `Kernel`'s copy of them are refused with
    ValueError, before anything is allocated, past the cap on dense builds.
    """
    n = frame.space.size
    _require_dense_bytes(f"a reproducing kernel over {n} index points", 2 * n * n)
    if isinstance(frame, _GaborFrame):
        vals = _gabor_kernel(frame.window)
    else:
        vals = np.einsum("cdt,abt->abcd", frame.vectors, frame.vectors.conj())
    return Kernel(frame.space, frame.space, vals)


def _modulus_kernel(frame: FiniteFrame) -> Kernel:
    """|K| for K = `reproducing_kernel(frame)`, as a real `Kernel`.

    A frame from `gabor_frame` gets `_gabor_modulus`: its n^2 floats and the
    `Kernel`'s copy of them are refused with ValueError, before anything is
    allocated, past the cap on dense builds. Any other frame takes the
    modulus of its vectors' inner products, bitwise that of
    `reproducing_kernel(frame)`, and is refused from 3 n^2 floats: the
    complex products and their modulus, then the modulus and its copy.
    """
    n = frame.space.size
    gabor = isinstance(frame, _GaborFrame)
    _require_dense_bytes(f"the modulus of a reproducing kernel over {n} index points", (2 if gabor else 3) * n * n, 8)
    if gabor:
        vals = _gabor_modulus(frame.window)
    else:
        vals = np.abs(np.einsum("cdt,abt->abcd", frame.vectors, frame.vectors.conj()))
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
    u_moderateness: float
    v_at_least_one: bool
    v_domination_constant: float  # smallest C with max{|psi_x|, u/w^c} <= C*v
    m0_symmetric: bool
    m0_pair_constant: float  # smallest C with m0(x,y) <= C*u(x)*u(y)
    kernel_dominated: bool  # patch-maximal kernel <= majorant entrywise
    margin: float

    @property
    def all_pass(self) -> bool:
        return self.v_at_least_one and self.m0_symmetric and self.kernel_dominated

    @property
    def margin_pass(self) -> bool:
        return self.margin < 1.0


def coorbit_report(
    frame: FiniteFrame,
    cov: RectCovering,
    u: GridFunction | None = None,
    v: GridFunction | None = None,
    m0: WeightGrid | None = None,
    L: Kernel | None = None,
) -> CoorbitReport:
    """Evaluate every coorbit hypothesis for the frame's reproducing kernel.

    The covering must cover the space with patches of positive product
    mass: w^c and the patch-maximal kernel are defined only then, so a
    covering that misses a point raises ValueError ("patches do not cover
    the space"), as does one with an empty patch ("every patch must have
    positive product mass"). So does a weight u or v that is off the frame's
    index space or not real, finite and strictly positive. No other
    hypothesis raises when it fails: those failures land in the report as
    False flags or large constants. The margin is the
    discretization quantity computed from the stored structured norms of the
    kernel and the majorant L (both weighted by m0).

    The kernel is read only through its modulus A = |K| (`_modulus_kernel`):
    norm_b_kpsi is `norm_B(A, m0)`, the default majorant
    `maximal_kernel(A, cov)`, and norm_a_mv `norm_A` of m_v A built one slab
    at a time, bitwise `norm_A(A, mv_weight(v))`. The defaults:

    - u = None takes u = 1;
    - v = None takes v = max(|psi_x|, u / w^c), the least v whose
      domination constant is 1;
    - m0 = None takes m0 = 1, without building it: the norms are taken
      unweighted (weighting by 1 is exact), m0 is symmetric, and its pair
      constant is 1 / (min u)^2, the largest 1 / (u(x) u(y)) since rounding
      is monotone;
    - L = None takes the patch-maximal kernel computed here as the majorant,
      which it dominates by definition, so no entry is compared. A given L
      must be a dense kernel over the frame's index space.
    """
    space = frame.space
    if L is not None:
        _require_dense(L, "coorbit_report")
        if L.X != space or L.Y != space:
            raise ValueError("majorant L must be square over the frame's index space")
    vv = None if v is None else _weight_values(space, v, "v", "the frame's index space")
    if u is None:
        u = GridFunction(space, np.ones(space.shape))
    report = validate_covering(cov, u)
    A = _modulus_kernel(frame)
    M = maximal_kernel(A, cov)
    target = np.maximum(frame.vector_norms(), special_linfty_weight(cov, u).values)
    if vv is None:
        vv = target

    norm_a_mv = norm_A(_mv_weighted(A, vv))
    norm_b_kpsi = norm_B(A, m0)
    norm_b_majorant = norm_B(M if L is None else L, m0)

    v_dom = float((target / vv).max())
    v_ok = bool(np.all(vv >= 1.0 - 1e-12))

    if m0 is None:
        umin = u.values.min()
        m0_sym, m0_pair = True, float(1.0 / (umin * umin))
    else:
        m0_sym = bool(np.allclose(m0.values, m0.values.transpose(2, 3, 0, 1), rtol=1e-12, atol=0))
        m0_pair = float((m0.values / (u.values[:, :, None, None] * u.values[None, None, :, :])).max())

    dominated = L is None or (L.is_nonnegative and bool(np.all(M.values <= L.values + 1e-12)))

    return CoorbitReport(
        norm_a_mv=norm_a_mv,
        norm_b_kpsi=norm_b_kpsi,
        norm_b_majorant=norm_b_majorant,
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


def _corner_1inf_upper(N: int, M: int, ks: np.ndarray, cm: np.ndarray) -> float:
    """An upper bound for the (1, inf) operator norm of the counterexample kernel, at every M.

    For ||f||_{1,inf} <= 1 the image at target point k is a trigonometric
    polynomial sum_{|m| <= |k|} c_m F(m) exp(-2 pi i m x) with |F(m)| <= 1.
    Its L^1 norm over the M-point grid (total mass 1) is at most its L^2
    norm, and by Parseval on Z_M that is sqrt(sum_r |b_r|^2), b_r summing
    c_m F(m) over the m = r mod M. So the aliased Parseval sum
    sqrt(sum_r (sum_{m = r mod M} c_m)^2) bounds the norm for every k.

    Once M >= 2N it is at most sqrt(2 zeta(4/3) - 1): only m = N and m = -N
    can share a residue, which adds 2 c_N^2 to sum_m c_m^2, and the tail
    sum_{j > N} c_j^2, at least the integral of x^(-4/3) from N + 2 on,
    3 (N + 2)^(-1/3), exceeds c_N^2 = (N + 1)^(-4/3).
    Computed in floating point, the sum carries fewer than 2N + M + 8
    roundings of relative size eps / 2 (in c_m, each residue sum, the
    squares, their sum and the root), so it is rounded up by (2N + M + 8) eps.
    """
    b = np.bincount(ks % M, weights=cm, minlength=M)
    return float(np.sqrt(b @ b) * (1.0 + (2 * N + M + 8) * np.finfo(float).eps))


def _factored_scan(K: SlabKernel, phase, gate, amp, trials: int, seed: int) -> tuple[SchurConstants, float]:
    """`schur_scan(K, 1, INF, trials, seed)` for K = phase[x1, y2] gate[x2, y2] amp[y1, y2].

    The slab scan's reductions of |K| = |phase| gate amp, regrouped so that
    no entry of K is formed. With a = mu1 @ |phase| and r = nu1 @ amp, both
    per y2, and g2 = mu2 @ gate:

    - C1's row integrals are (|phase| nu2 r) @ gate^T over (x1, x2);
    - C2's column integrals are amp g2 a over (y1, y2);
    - C3's best columns are gate a max_{y1} amp, summed against nu2;
    - C4's best rows are gate r max_{x1} |phase|, summed against mu2;
    - the point mass at (y1, y2) has image norm a max_{x2} gate amp nu2;
    - trial f has image phase @ (gate h)^T with h = sum_{y1} amp f nu, and
      its mixed (1, inf) norm is `mixed_norm_values`.

    The trial batch is `operators._draw_trials`', so the random draws are
    the slab scan's. The sums run in another order than the scan's, so the
    values agree with it to a few ulps, not bitwise. One more trial is the
    vertex f(N, .) = 1 / beta_N, zero elsewhere: it has unit (1, inf) norm
    and h = c_m, the last row of amp, so its image sums every c_m against
    the phases. Below M = 2N aliasing puts those in phase, and the vertex
    is the witness the other trials miss.
    """
    mu1, mu2 = K.X.factor1.masses, K.X.factor2.masses
    nu1, nu2 = K.Y.factor1.masses, K.Y.factor2.masses
    P = np.abs(phase)
    a = mu1 @ P
    r = nu1 @ amp
    g2 = mu2 @ gate
    constants = SchurConstants(
        float(((P * (nu2 * r)) @ gate.T).max()),
        float((amp * (g2 * a)).max()),
        float(((gate * (a * amp.max(axis=0))) @ nu2).max()),
        float((g2 * P.max(axis=0) * r).max()),
    )

    draws = _draw_trials(K, 1, INF, trials, seed)
    best = float((a * gate.max(axis=0) * amp * nu2).max())
    g = draws.weighted.T.reshape((-1,) + K.Y.shape)  # (trial, y1, y2): each trial times nu
    h = (g * amp).sum(axis=1)  # (trial, y2); a real factor times a complex one is not cast whole
    h = np.concatenate([h, amp[-1:]])  # the vertex at n = N
    images = phase @ (gate * h[:, None, :]).transpose(0, 2, 1)  # (trial, x1, x2)
    img_norms = mixed_norm_values(np.abs(images), mu1, mu2, 1.0, INF)
    dens = np.append(mixed_norm_values(np.abs(draws.batch), nu1, nu2, 1.0, INF), 1.0)
    ok = dens > 0  # never empty: the vertex has density 1
    best = max(best, float((img_norms[ok] / dens[ok]).max()))
    return constants, best


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
    This function builds no slab: the diagnostics are contractions of the
    three factors phase (M x 2N+1), gate = 1{|m| <= |k|} and
    amp = c_m 1{|m| <= |n|}, and they agree with
    `schur_scan(K, 1, INF, trials, seed)` on the returned kernel, the
    independent check, to a few ulps.

    Diagnostics report the numerical Schur constants, the two analytic sums
    they must match, a lower bound for the (1, inf) operator norm, and an
    upper bound for it at every M: the aliased Parseval sum
    sqrt(sum_r (sum_{m = r mod M} c_m)^2), rounded up by (2N + M + 8) eps,
    which is at most sqrt(2*zeta(4/3) - 1) once M >= 2N. The lower bound is
    the best ratio over point masses, the constant function and the vertex
    f(N, .) = 1 / beta_N, followed by seeded random draws only when `trials`
    exceeds (2N+1)^2 + 1. Past the cap on dense builds the run is refused
    with ValueError before anything is allocated.
    """
    if N < 1 or M < 2:
        raise ValueError("need N >= 1 and M >= 2")
    # the factors, the scan's temporaries and, per trial function, its sums
    # and images: traced peaks in a warm process for 17 <= 2N+1 <= 257 and
    # M <= 1024 stay under (6 + 3 b) w (w + M) complex values for b trials
    w = 2 * N + 1
    batch = max(0, trials - (w * w + 1)) + 1
    _require_dense_bytes(f"the counterexample of N = {N}, M = {M}", (6 + 3 * batch) * w * (w + M))
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
    sc, lower = _factored_scan(K, phase, gate, amp, trials, seed)
    diagnostics = {
        "c1": sc.c1,
        "c2": sc.c2,
        "c3": sc.c3,
        "c4": sc.c4,
        "c1_analytic": float((1.0 / (1.0 + ks.astype(float) ** 2)).sum()),
        "c3_analytic": float(cm.sum()),
        "corner_1inf_lower": lower,
        "corner_1inf_upper": _corner_1inf_upper(N, M, ks, cm),
    }
    return K, diagnostics
