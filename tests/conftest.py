"""Seeded random builders shared across the test modules."""

import hypothesis.strategies as st
import numpy as np

import schurkit as sk

EXPONENT_GRID = (1.0, 1.5, 2.0, 3.0, sk.INF)


def rand_space(rng, n=None, lo=0.2):
    if n is None:
        n = int(rng.integers(1, 4))
    return sk.Space(range(n), lo + rng.random(n))


def rand_product(rng, max_size=3):
    n1 = int(rng.integers(1, max_size + 1))
    n2 = int(rng.integers(1, max_size + 1))
    return sk.ProductSpace(rand_space(rng, n1), rand_space(rng, n2))


def rand_function(rng, space, complex_values=False, scale=1.0):
    shape = space.shape
    if complex_values:
        vals = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    else:
        vals = scale * rng.random(shape)
    return sk.GridFunction(space, vals)


def rand_positive(rng, space, lo=0.5, hi=2.0):
    return sk.GridFunction(space, lo + (hi - lo) * rng.random(space.shape))


def rand_kernel(rng, X=None, Y=None, complex_values=False):
    if X is None:
        X = rand_product(rng)
    if Y is None:
        Y = rand_product(rng)
    shape = X.shape + Y.shape
    if complex_values:
        vals = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    else:
        vals = rng.random(shape)
    return sk.Kernel(X, Y, vals)


def rand_weight_grid(rng, X, Y, lo=0.5, hi=1.5):
    return sk.WeightGrid(X, Y, lo + (hi - lo) * rng.random(X.shape + Y.shape))


def rand_covering(rng, space, max_patches=3):
    """Random rectangle patches, padded with singletons until they cover."""
    n1, n2 = space.shape
    patches = []
    for _ in range(int(rng.integers(1, max_patches + 1))):
        V = [p for p in space.factor1.points if rng.random() < 0.6]
        W = [p for p in space.factor2.points if rng.random() < 0.6]
        if V and W:
            patches.append((V, W))
    covered = np.zeros((n1, n2), dtype=bool)
    for V, W in patches:
        iv = [space.factor1.index_of(p) for p in V]
        iw = [space.factor2.index_of(p) for p in W]
        covered[np.ix_(iv, iw)] = True
    for i in range(n1):
        for j in range(n2):
            if not covered[i, j]:
                patches.append(([space.factor1.points[i]], [space.factor2.points[j]]))
    return sk.RectCovering(space, patches)


def lift_1234():
    """The [[1, 2], [3, 4]] matrix kernel with singleton second factors."""
    return sk.lift_plain_kernel([[1.0, 2.0], [3.0, 4.0]])


def counting_grid_1234():
    """[[1, 2], [3, 4]] as a function on the counting 2x2 product."""
    space = sk.ProductSpace(sk.counting_space(2), sk.counting_space(2))
    return sk.GridFunction(space, [[1.0, 2.0], [3.0, 4.0]])


@st.composite
def sum_inputs(draw):
    """Real or complex F on up to 9x9 points, masses 10^+-3 and moduli 10^+-50 or 0."""
    n1, n2 = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    masses = [10.0 ** np.array(draw(st.lists(st.floats(-3, 3), min_size=n, max_size=n))) for n in (n1, n2)]
    exps = draw(st.lists(st.one_of(st.none(), st.floats(-50, 50)), min_size=n1 * n2, max_size=n1 * n2))
    vals = np.array([0.0 if e is None else 10.0**e for e in exps]).reshape(n1, n2)
    if draw(st.booleans()):
        turns = draw(st.lists(st.floats(0, 1), min_size=n1 * n2, max_size=n1 * n2))
        vals = vals * np.exp(2j * np.pi * np.array(turns).reshape(n1, n2))
    X = sk.ProductSpace(*(sk.Space(range(len(m)), m) for m in masses))
    return sk.GridFunction(X, vals)
