"""Finite measure spaces with strictly positive point masses.

Everything else in the library reduces to these: integrals are mass-weighted
sums, essential suprema are plain maxima (no null sets can exist because
every point carries positive mass), and two-factor product spaces carry the
mixed norms.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "Space",
    "ProductSpace",
    "build_space",
    "counting_space",
    "singleton_space",
    "subset_mass",
]


class Space:
    """A finite measure space: hashable point labels plus positive masses.

    Parameters
    ----------
    points : iterable of hashable
        Point identifiers. Must be pairwise distinct.
    masses : iterable of float
        One strictly positive, finite mass per point.
    """

    __slots__ = ("points", "masses", "_index")

    def __init__(self, points, masses):
        pts = tuple(points)
        m = np.array(list(masses), dtype=float)
        if len(pts) == 0:
            raise ValueError("a measure space needs at least one point")
        if m.ndim != 1 or m.shape[0] != len(pts):
            raise ValueError(
                f"need exactly one mass per point, got {len(pts)} points "
                f"and {m.shape[0] if m.ndim == 1 else 'non-vector'} masses"
            )
        if not np.all(np.isfinite(m)):
            raise ValueError("masses must be finite")
        if np.any(m <= 0.0):
            raise ValueError("masses must be strictly positive")
        index = {}
        for i, p in enumerate(pts):
            if p in index:
                raise ValueError(f"duplicate point identifier {p!r}")
            index[p] = i
        m.setflags(write=False)
        self.points = pts
        self.masses = m
        self._index = index

    @property
    def size(self) -> int:
        return len(self.points)

    @property
    def total_mass(self) -> float:
        return float(self.masses.sum())

    def index_of(self, point) -> int:
        """Position of a point label, raising ValueError on unknown labels."""
        try:
            return self._index[point]
        except (KeyError, TypeError):
            raise ValueError(f"unknown point identifier {point!r}") from None

    def subset_mass(self, subset) -> float:
        """Total mass of a subset, given by point labels (duplicates ignored)."""
        return float(sum(self.masses[self.index_of(p)] for p in set(subset)))

    def __len__(self) -> int:
        return len(self.points)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Space):
            return NotImplemented
        return self.points == other.points and np.array_equal(self.masses, other.masses)

    def __hash__(self):
        return hash((self.points, self.masses.tobytes()))

    def __repr__(self) -> str:
        if self.size <= 4:
            return f"Space(points={self.points!r}, masses={self.masses.tolist()!r})"
        return f"Space(<{self.size} points, total mass {self.total_mass:g}>)"


class ProductSpace:
    """Ordered pair of factor spaces with the product measure.

    The mass of a point pair (p, q) is mass(p) * mass(q); `mass_grid` holds
    the full |factor1| x |factor2| table of these products, each of which
    must be positive and finite in float64: a product that underflows to 0
    or overflows to inf is refused.
    """

    __slots__ = ("factor1", "factor2", "_grid")

    def __init__(self, factor1: Space, factor2: Space):
        if not isinstance(factor1, Space) or not isinstance(factor2, Space):
            raise TypeError("ProductSpace factors must be Space instances")
        self.factor1 = factor1
        self.factor2 = factor2
        with np.errstate(over="ignore"):  # an overflow is refused below
            grid = np.multiply.outer(factor1.masses, factor2.masses)
        if not (grid.min() > 0.0 and grid.max() < np.inf):
            raise ValueError("product masses mass(p) * mass(q) must be positive and finite in float64")
        grid.setflags(write=False)
        self._grid = grid

    @property
    def shape(self) -> tuple[int, int]:
        return (self.factor1.size, self.factor2.size)

    @property
    def size(self) -> int:
        return self.factor1.size * self.factor2.size

    @property
    def mass_grid(self) -> np.ndarray:
        return self._grid

    @property
    def total_mass(self) -> float:
        return self.factor1.total_mass * self.factor2.total_mass

    def points(self):
        """All product points as (factor1 label, factor2 label) pairs, row-major."""
        return [(p, q) for p in self.factor1.points for q in self.factor2.points]

    def rectangle_mass(self, V, W) -> float:
        """Mass of the rectangle V x W; equals the product of subset masses."""
        return self.factor1.subset_mass(V) * self.factor2.subset_mass(W)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ProductSpace):
            return NotImplemented
        return self.factor1 == other.factor1 and self.factor2 == other.factor2

    def __hash__(self):
        return hash((self.factor1, self.factor2))

    def __repr__(self) -> str:
        return f"ProductSpace({self.factor1!r}, {self.factor2!r})"


def build_space(ids, masses) -> Space:
    """Validated construction of a finite measure space (alias of Space)."""
    return Space(ids, masses)


def counting_space(points) -> Space:
    """Counting measure on the given labels, or on range(n) for an integer n."""
    if isinstance(points, (int, np.integer)):
        points = range(int(points))
    pts = tuple(points)
    return Space(pts, np.ones(len(pts)))


def singleton_space(label="*", mass: float = 1.0) -> Space:
    """One-point space, the degenerate second factor used to lift plain kernels."""
    return Space((label,), (mass,))


def subset_mass(space: Space, subset) -> float:
    """Sum of masses over a subset of point labels (unknown labels error)."""
    return space.subset_mass(subset)
