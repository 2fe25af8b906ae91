import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

import schurkit as sk

from conftest import rand_space


def test_space_basics():
    sp = sk.Space(["a", "b", "c"], [1.0, 0.25, 2.0])
    assert sp.size == 3
    assert sp.points == ("a", "b", "c")
    assert sp.total_mass == pytest.approx(3.25)
    assert sp.index_of("b") == 1


def test_space_rejects_bad_input():
    with pytest.raises(ValueError):
        sk.Space(["a", "a"], [1.0, 2.0])  # duplicate ids
    with pytest.raises(ValueError):
        sk.Space(["a"], [0.0])
    with pytest.raises(ValueError):
        sk.Space(["a"], [-1.0])
    with pytest.raises(ValueError):
        sk.Space(["a"], [np.nan])
    with pytest.raises(ValueError):
        sk.Space(["a"], [np.inf])
    with pytest.raises(ValueError):
        sk.Space([], [])
    with pytest.raises(ValueError):
        sk.Space(["a", "b"], [1.0])  # length mismatch


def test_space_masses_read_only():
    sp = sk.counting_space(3)
    with pytest.raises(ValueError):
        sp.masses[0] = 5.0


def test_index_of_unknown_point():
    sp = sk.counting_space(2)
    with pytest.raises(ValueError):
        sp.index_of("nope")


def test_counting_and_singleton_constructors():
    sp = sk.counting_space(4)
    assert sp.points == (0, 1, 2, 3)
    assert np.all(sp.masses == 1.0)

    labeled = sk.counting_space(["x", "y"])
    assert labeled.points == ("x", "y")

    one = sk.singleton_space()
    assert one.size == 1 and one.total_mass == 1.0
    other = sk.singleton_space("pt", mass=0.5)
    assert other.points == ("pt",) and other.total_mass == 0.5


def test_subset_mass_examples():
    sp = sk.counting_space(["a", "b", "c"])
    assert sk.subset_mass(sp, ["a", "b"]) == pytest.approx(2.0)
    assert sk.subset_mass(sp, []) == 0.0

    weighted = sk.Space(["a", "b", "c"], [2.0, 0.25, 1.0])
    assert sk.subset_mass(weighted, ["a", "b"]) == pytest.approx(2.25)
    # duplicates in the subset count once
    assert sk.subset_mass(weighted, ["a", "a"]) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        sk.subset_mass(weighted, ["zzz"])


def test_subset_mass_additive_and_monotone():
    rng = np.random.default_rng(7)
    for _ in range(25):
        sp = rand_space(rng, int(rng.integers(1, 7)))
        pts = list(sp.points)
        k = int(rng.integers(0, len(pts) + 1))
        sub = pts[:k]
        rest = pts[k:]
        assert sp.subset_mass(sub) + sp.subset_mass(rest) == pytest.approx(sp.total_mass)
        assert sp.subset_mass(sub) <= sp.total_mass + 1e-15


def test_space_equality_and_hash():
    a = sk.Space([0, 1], [1.0, 2.0])
    b = sk.Space([0, 1], [1.0, 2.0])
    c = sk.Space([0, 1], [1.0, 3.0])
    assert a == b and hash(a) == hash(b)
    assert a != c


def test_product_space_mass_grid():
    X = sk.ProductSpace(sk.Space([0, 1], [1.0, 2.0]), sk.Space(["u"], [0.5]))
    assert X.shape == (2, 1)
    assert X.size == 2
    np.testing.assert_allclose(X.mass_grid, [[0.5], [1.0]])
    assert X.total_mass == pytest.approx(1.5)


def test_product_space_points_order():
    X = sk.ProductSpace(sk.counting_space(["a", "b"]), sk.counting_space(["u", "v"]))
    assert list(X.points()) == [("a", "u"), ("a", "v"), ("b", "u"), ("b", "v")]


def test_rectangle_mass_is_product():
    rng = np.random.default_rng(11)
    for _ in range(20):
        X = sk.ProductSpace(rand_space(rng, 3), rand_space(rng, 4))
        V = [p for p in X.factor1.points if rng.random() < 0.5]
        W = [p for p in X.factor2.points if rng.random() < 0.5]
        expect = X.factor1.subset_mass(V) * X.factor2.subset_mass(W)
        assert X.rectangle_mass(V, W) == pytest.approx(expect, rel=1e-12)


@settings(max_examples=60)
@given(st.lists(st.floats(min_value=0.01, max_value=50.0), min_size=1, max_size=8))
def test_total_mass_matches_sum(masses):
    sp = sk.Space(range(len(masses)), masses)
    assert sp.total_mass == pytest.approx(float(np.sum(masses)), rel=1e-12)


def test_build_space_roundtrip():
    sp = sk.build_space(["a", "b"], [1.5, 2.0])
    assert sp.points == ("a", "b")
    np.testing.assert_allclose(sp.masses, [1.5, 2.0])


@pytest.mark.parametrize("mass", [1e-200, 1e200])
def test_product_masses_must_stay_in_the_float_range(mass):
    tiny_or_huge = sk.Space([0, 1], [mass, 1.0])
    with pytest.raises(ValueError, match="product masses"):
        sk.ProductSpace(tiny_or_huge, tiny_or_huge)
    sk.ProductSpace(tiny_or_huge, sk.Space([0], [1.0]))  # each product is the mass itself
    sk.ProductSpace(sk.Space([0], [1e-160]), sk.Space([0], [1e-160]))  # a subnormal product is positive
