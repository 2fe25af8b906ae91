"""Sum- and intersection-space machinery for functions on product spaces.

rho(f) is the exact two-part splitting cost min over lambda of
lambda + ||(f - lambda)_+||_1: the first summand pays for a bounded part of
height lambda, the second for the integrable excess. Iterating rho over the
two factors gives rho_tensor, the computable proxy for the four-space sum
norm; split_four realizes a concrete four-way decomposition whose norm sum
is within a factor 16 of it, and associate_pairing_sup certifies the
companion lower bound with one explicit pairing partner in the unit ball of
the intersection space: the two-stage greedy partner, which attains
rho_tensor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .measure import ProductSpace, Space
from .mixed_norm import INF, GridFunction, mixed_norm, mixed_norm_values

__all__ = [
    "FactorFunction",
    "FourSplit",
    "rho",
    "rho_split",
    "rho_tensor",
    "intersection_norm",
    "split_four",
    "rectangle_lower_bound",
    "associate_pairing_sup",
    "holder_upper_bound",
]

# Not read by the library. bench/worker.py reads it to count the candidates
# of the former rectangle search; without it that count would treat 64x64 as
# enumerated, (2^64 - 1)^2 rectangles, past int64.
RECTANGLE_CAP = 65536


class FactorFunction:
    """A nonnegative extended-real function on a single-factor space."""

    __slots__ = ("space", "values")

    def __init__(self, space: Space, values):
        if not isinstance(space, Space):
            raise TypeError("expected a single-factor Space")
        vals = np.array(values, dtype=float)  # a copy: freezing it leaves the caller's array writable
        if vals.shape != (space.size,):
            raise ValueError(f"values shape {vals.shape} does not match space size {space.size}")
        if np.any(np.isnan(vals)) or np.any(vals < 0):
            raise ValueError("values must be nonnegative (inf allowed, NaN not)")
        vals.setflags(write=False)
        self.space = space
        self.values = vals

    def __repr__(self) -> str:
        return f"FactorFunction(size={self.space.size})"


def _rho_rows(vals: np.ndarray, masses: np.ndarray) -> np.ndarray:
    """Exact rho of each nonnegative row of vals (along the last axis).

    min over lambda >= 0 of lambda + sum((vals - lambda)_+ * masses) is the
    integral of the decreasing rearrangement over [0, 1], i.e. the pay-off
    of the greedy budget: sum(v * clip(1 - mass before v, 0, m)) along
    descending values. One sort and one cumsum per row: O(n log n) time,
    O(n) memory per row. Rows holding inf give inf.
    """
    with np.errstate(invalid="ignore"):  # inf * 0 in rows that give inf anyway
        payoff = (vals * _greedy_budget(vals, masses) * masses).sum(axis=-1)
    return np.where(np.isinf(vals).any(axis=-1), math.inf, payoff)


def _rho_array(vals: np.ndarray, masses: np.ndarray) -> float:
    """Exact rho of a nonnegative vector against positive masses."""
    return float(_rho_rows(vals, masses))


def rho(f: FactorFunction) -> float:
    """Optimal bounded-plus-integrable splitting cost of f."""
    return _rho_array(f.values, f.space.masses)


def rho_split(f: FactorFunction) -> tuple[FactorFunction, FactorFunction]:
    """Split f at twice its rho value into (bounded, integrable) parts.

    With alpha = rho(f), the part f*1_{f <= 2 alpha} has sup at most 2 alpha
    and the excess part f*1_{f > 2 alpha} has integral at most 2 alpha.
    """
    alpha = rho(f)
    keep = f.values <= 2.0 * alpha
    bounded = np.where(keep, f.values, 0.0)
    integrable = np.where(keep, 0.0, f.values)
    return FactorFunction(f.space, bounded), FactorFunction(f.space, integrable)


def _check_nonneg(F: GridFunction) -> np.ndarray:
    if not F.is_real or np.any(F.values < 0):
        raise ValueError("expected a nonnegative real function")
    return F.values


def _slice_profile(vals: np.ndarray, m1: np.ndarray) -> np.ndarray:
    """rho of each second-coordinate slice: profile[j] = rho(vals[:, j]).

    One row-wise pass over the contiguous transpose, so each slice is
    reduced exactly as a 1-D vector would be.
    """
    return _rho_rows(np.ascontiguousarray(vals.T), m1)


def rho_tensor(F: GridFunction) -> float:
    """Iterated splitting cost: rho over factor2 of the slicewise rho over factor1."""
    vals = _check_nonneg(F)
    space = F.space
    profile = _slice_profile(vals, space.factor1.masses)
    return _rho_array(profile, space.factor2.masses)


def _corner_max(g: np.ndarray, space: ProductSpace) -> float:
    """Largest of the four corner mixed norms of the nonnegative grid g."""
    m1, m2 = space.factor1.masses, space.factor2.masses
    corners = ((1.0, 1.0), (INF, INF), (1.0, INF), (INF, 1.0))
    return max(float(mixed_norm_values(g, m1, m2, p, q)) for p, q in corners)


def intersection_norm(F: GridFunction) -> float:
    """Largest of the four corner mixed norms of F."""
    return _corner_max(np.abs(F.values), F.space)


@dataclass(frozen=True)
class FourSplit:
    """Four-way decomposition F = f1 + f2 + f3 + f4 targeting the corner spaces.

    f1 is the integrable part, f2 the bounded part, f3 bounded-in-the-outer
    sense (each slice integrable), f4 the reverse; alpha is the iterated
    splitting cost used for the thresholds and profile holds the slicewise
    inner costs.
    """

    f1: GridFunction
    f2: GridFunction
    f3: GridFunction
    f4: GridFunction
    alpha: float
    profile: FactorFunction

    @property
    def parts(self) -> tuple[GridFunction, GridFunction, GridFunction, GridFunction]:
        return (self.f1, self.f2, self.f3, self.f4)

    def corner_norms(self) -> tuple[float, float, float, float]:
        """The four norms matched to the parts: L1, Linf, L{1,inf}, L{inf,1}."""
        return (
            mixed_norm(self.f1, 1, 1),
            mixed_norm(self.f2, INF, INF),
            mixed_norm(self.f3, 1, INF),
            mixed_norm(self.f4, INF, 1),
        )


def split_four(F: GridFunction) -> FourSplit:
    """Decompose F by thresholding on the slicewise rho profile.

    With G(y) = rho(|F(., y)|) and alpha = rho(G), the heavy slices are
    A = {G > 2 alpha} and the heavy points within a slice are
    B = {|F| > 2 G}. Each resulting part's matching corner norm is at most
    4 * rho_tensor(|F|), so the norm sum is at most 16 times it.
    """
    space = F.space
    absF = np.abs(F.values)
    profile = _slice_profile(absF, space.factor1.masses)
    alpha = _rho_array(profile, space.factor2.masses)
    A = profile > 2.0 * alpha  # heavy slices, shape (n2,)
    B = absF > 2.0 * profile[None, :]  # heavy points, shape (n1, n2)

    def part(mask: np.ndarray) -> GridFunction:
        return GridFunction(space, np.where(mask, F.values, 0.0))

    return FourSplit(
        f1=part(A[None, :] & B),
        f2=part(~A[None, :] & ~B),
        f3=part(~A[None, :] & B),
        f4=part(A[None, :] & ~B),
        alpha=float(alpha),
        profile=FactorFunction(space.factor2, profile),
    )


def rectangle_lower_bound(space: ProductSpace, V, W) -> float:
    """min{1, mu1(V), mu2(W), mu(V x W)} — a floor for rho_tensor of the indicator."""
    mV = space.factor1.subset_mass(V)
    mW = space.factor2.subset_mass(W)
    return min(1.0, mV, mW, mV * mW)


def _greedy_budget(vals: np.ndarray, masses: np.ndarray) -> np.ndarray:
    """[0,1]-valued u with integral <= 1 maximizing sum(vals * u * masses).

    Works on each row of vals (along the last axis). Fills mass greedily
    along descending values, going fractional exactly at the point where the
    cumulative mass crosses 1; the attained pay-off is rho(vals) (the
    integral of the decreasing rearrangement over [0, 1]).
    """
    order = np.argsort(-vals, axis=-1, kind="stable")
    m_sorted = masses[order]
    remaining = 1.0 - (np.cumsum(m_sorted, axis=-1) - m_sorted)
    u_sorted = np.clip(remaining / m_sorted, 0.0, 1.0)
    u = np.empty_like(u_sorted)
    u[(*np.indices(order.shape, sparse=True)[:-1], order)] = u_sorted
    return u


def _greedy_pairing_partner(absF: np.ndarray, space: ProductSpace) -> np.ndarray:
    """Two-stage greedy partner with all four corner norms <= 1.

    Column j gets the inner greedy profile u_j for |F(., j)|; the outer stage
    computes h on the slicewise pay-offs. G = u_j[i] * h[j] then pairs with
    |F| to exactly rho_tensor(|F|).
    """
    m1 = space.factor1.masses
    m2 = space.factor2.masses
    U = _greedy_budget(np.ascontiguousarray(absF.T), m1).T
    payoff = (absF * U * m1[:, None]).sum(axis=0)
    h = _greedy_budget(payoff, m2)
    return U * h[None, :]


def associate_pairing_sup(F: GridFunction) -> float:
    """Certified lower bound for sup{ integral of |F*G| : intersection_norm(G) <= 1 }.

    The one partner is the two-stage greedy G = u_j[i] * h[j], which pairs
    with |F| to exactly rho_tensor(|F|); the bound is that pairing over G's
    intersection norm (at most 1). Rectangle indicators, point masses and
    the constant never beat it: a rectangle's intersection norm
    max(1, mu1(V), mu2(W), mu1(V) mu2(W)) equals max(1, mu1(V)) max(1, mu2(W)),
    so the normalized indicator is a product of unit-ball factors and pairs
    to at most rho_tensor(|F|).
    """
    space = F.space
    absF = np.abs(F.values)
    G = _greedy_pairing_partner(absF, space)
    pairing = float((absF * space.mass_grid * G).sum())
    return pairing / _corner_max(G, space)


def holder_upper_bound(split: FourSplit, G: GridFunction) -> float:
    """Pairing bound from a four-way decomposition of F and the dual norms of G.

    integral |F*G| <= ||f1||_1 ||G||_inf + ||f2||_inf ||G||_1
                      + ||f3||_{1,inf} ||G||_{inf,1} + ||f4||_{inf,1} ||G||_{1,inf}.
    """
    n1, n2, n3, n4 = split.corner_norms()
    return (
        n1 * mixed_norm(G, INF, INF)
        + n2 * mixed_norm(G, 1, 1)
        + n3 * mixed_norm(G, INF, 1)
        + n4 * mixed_norm(G, 1, INF)
    )
