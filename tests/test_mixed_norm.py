import math

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

import schurkit as sk
from schurkit.mixed_norm import _slice_extremizer

from conftest import EXPONENT_GRID, counting_grid_1234, rand_function, rand_positive, rand_product

INF = sk.INF


def test_frozen_values_on_counting_grid():
    f = counting_grid_1234()
    assert sk.mixed_norm(f, 1, INF) == pytest.approx(6.0, rel=1e-12)
    assert sk.mixed_norm(f, INF, 1) == pytest.approx(7.0, rel=1e-12)
    assert sk.mixed_norm(f, 2, 2) == pytest.approx(math.sqrt(30.0), rel=1e-12)
    assert sk.mixed_norm(f, 1, 1) == pytest.approx(10.0, rel=1e-12)
    assert sk.mixed_norm(f, INF, INF) == pytest.approx(4.0, rel=1e-12)


def test_equal_exponents_collapse_to_flat_norm():
    rng = np.random.default_rng(3)
    for _ in range(20):
        X = rand_product(rng)
        f = rand_function(rng, X, complex_values=bool(rng.integers(2)))
        for p in (1.0, 2.0, 3.0):
            flat = (np.abs(f.values) ** p * X.mass_grid).sum() ** (1.0 / p)
            assert sk.mixed_norm(f, p, p) == pytest.approx(flat, rel=1e-12)
        assert sk.mixed_norm(f, INF, INF) == pytest.approx(np.abs(f.values).max(), rel=1e-12)


def test_weight_scales_norm():
    f = counting_grid_1234()
    w = sk.GridFunction(f.space, np.full((2, 2), 2.0))
    for p, q in [(1, 1), (1, INF), (2, 3), (INF, INF)]:
        assert sk.mixed_norm(f, p, q, w) == pytest.approx(2.0 * sk.mixed_norm(f, p, q), rel=1e-12)


def test_weighted_norm_is_norm_of_product():
    rng = np.random.default_rng(5)
    for _ in range(15):
        X = rand_product(rng)
        f = rand_function(rng, X, complex_values=True)
        w = rand_positive(rng, X)
        p = float(rng.choice([1.0, 1.5, 2.0, 4.0]))
        q = float(rng.choice([1.0, 2.0, 3.0]))
        assert sk.mixed_norm(f, p, q, w) == pytest.approx(sk.mixed_norm(w * f, p, q), rel=1e-12)


def test_exponent_validation():
    f = counting_grid_1234()
    for bad in (0.5, 0.0, -1.0, float("nan")):
        with pytest.raises(ValueError):
            sk.mixed_norm(f, bad, 2)
        with pytest.raises(ValueError):
            sk.mixed_norm(f, 2, bad)
        with pytest.raises(ValueError):
            sk.check_exponent(bad)


def test_conjugate_exponent_pairs():
    assert sk.conjugate_exponent(1) == INF
    assert sk.conjugate_exponent(INF) == 1.0
    assert sk.conjugate_exponent(2) == pytest.approx(2.0)
    assert sk.conjugate_exponent(1.5) == pytest.approx(3.0)
    for p in (1.0, 1.25, 2.0, 7.0):
        pc = sk.conjugate_exponent(p)
        if pc != INF:
            assert 1.0 / p + 1.0 / pc == pytest.approx(1.0, rel=1e-12)


def test_grid_function_validation_and_ops():
    X = sk.ProductSpace(sk.counting_space(2), sk.counting_space(2))
    with pytest.raises(ValueError):
        sk.GridFunction(X, [[1.0, 2.0]])  # wrong shape
    with pytest.raises(ValueError):
        sk.GridFunction(X, [[1.0, np.inf], [0.0, 0.0]])
    with pytest.raises(ValueError):
        sk.GridFunction(X, [[1.0, np.nan], [0.0, 0.0]])

    f = sk.GridFunction(X, [[1.0, -2.0], [0.0, 3.0]])
    g = sk.GridFunction(X, [[1.0, 1.0], [1.0, 1.0]])
    np.testing.assert_allclose((f + g).values, [[2.0, -1.0], [1.0, 4.0]])
    np.testing.assert_allclose((f - g).values, [[0.0, -3.0], [-1.0, 2.0]])
    np.testing.assert_allclose((2.0 * f).values, (f * 2.0).values)
    np.testing.assert_allclose((f * g).values, f.values)
    np.testing.assert_allclose(f.abs().values, [[1.0, 2.0], [0.0, 3.0]])
    assert f.integral() == pytest.approx(2.0)
    assert f.is_real

    other = sk.ProductSpace(sk.counting_space(2), sk.Space([0, 1], [2.0, 1.0]))
    h = sk.GridFunction(other, np.ones((2, 2)))
    with pytest.raises(ValueError):
        f + h


def test_dual_pairing_frozen_values():
    f = counting_grid_1234()
    assert sk.dual_pairing_sup(f, 1, INF) == pytest.approx(6.0, rel=1e-12)

    zero = sk.GridFunction(f.space, np.zeros((2, 2)))
    assert sk.dual_pairing_sup(zero, 2, 3) == 0.0

    X = sk.ProductSpace(sk.singleton_space(mass=0.5), sk.singleton_space(mass=4.0))
    point = sk.GridFunction(X, [[1.0]])
    for p in (1.0, 2.0, INF):
        for q in (1.0, 3.0, INF):
            assert sk.dual_pairing_sup(point, p, q) == pytest.approx(
                sk.mixed_norm(point, p, q), rel=1e-12
            )


def test_dual_pairing_matches_norm():
    rng = np.random.default_rng(17)
    for _ in range(10):
        X = rand_product(rng)
        f = rand_function(rng, X, complex_values=bool(rng.integers(2)))
        for p in EXPONENT_GRID:
            for q in EXPONENT_GRID:
                assert sk.dual_pairing_sup(f, p, q) == pytest.approx(
                    sk.mixed_norm(f, p, q), rel=1e-12, abs=1e-15
                )


def test_dual_extremizer_is_feasible():
    rng = np.random.default_rng(23)
    for _ in range(10):
        X = rand_product(rng)
        f = rand_function(rng, X, complex_values=True)
        for p, q in [(1, 1), (1, INF), (2, 3), (INF, 1), (INF, INF)]:
            g = sk.dual_extremizer(f, p, q)
            dual = sk.mixed_norm(g, sk.conjugate_exponent(p), sk.conjugate_exponent(q))
            assert dual <= 1.0 + 1e-12


def _slice_extremizer_inf_loop(F, norms, masses):
    """The p = inf slice profile a column at a time: a point mass at the
    column's first maximum."""
    g0 = np.zeros(F.shape)
    for j in np.nonzero(norms > 0)[0]:
        i = int(np.argmax(F[:, j]))
        g0[i, j] = 1.0 / masses[i]
    return g0


def test_slice_extremizer_at_inf_matches_the_column_loop():
    # small integer grids tie often; some columns are all zero
    rng = np.random.default_rng(41)
    for _ in range(200):
        n1, n2 = rng.integers(1, 7, size=2)
        F = rng.integers(0, 3, size=(n1, n2)).astype(float) * rng.choice([1.0, 0.5, 1e-300])
        F[:, rng.random(n2) < 0.3] = 0.0
        masses = rng.random(n1) + 0.1
        norms = F.max(axis=0)
        got = _slice_extremizer(F, norms, masses, INF)
        want = _slice_extremizer_inf_loop(F, norms, masses)
        assert got.tobytes() == want.tobytes()


def test_holder_inequality_for_pairing():
    rng = np.random.default_rng(29)
    for _ in range(20):
        X = rand_product(rng)
        f = rand_function(rng, X, complex_values=True)
        g = rand_function(rng, X, complex_values=True)
        pairing = float(np.abs((f.values * np.conj(g.values) * X.mass_grid).sum()))
        for p in EXPONENT_GRID:
            for q in EXPONENT_GRID:
                bound = sk.mixed_norm(f, p, q) * sk.mixed_norm(
                    g, sk.conjugate_exponent(p), sk.conjugate_exponent(q)
                )
                assert pairing <= bound * (1 + 1e-12) + 1e-15


@settings(max_examples=60)
@given(
    st.lists(st.floats(min_value=-20, max_value=20), min_size=4, max_size=4),
    st.floats(min_value=-5, max_value=5),
    st.sampled_from([(1.0, 1.0), (1.0, INF), (2.0, 3.0), (INF, 1.0)]),
)
def test_norm_axioms(vals, c, pq):
    X = sk.ProductSpace(sk.Space([0, 1], [1.0, 0.5]), sk.counting_space(2))
    f = sk.GridFunction(X, np.asarray(vals).reshape(2, 2))
    p, q = pq
    n = sk.mixed_norm(f, p, q)
    assert n >= 0.0
    # absolute homogeneity
    assert sk.mixed_norm(f * c, p, q) == pytest.approx(abs(c) * n, rel=1e-9, abs=1e-12)
    # triangle inequality against a fixed bump
    g = sk.GridFunction(X, [[1.0, 0.0], [0.0, 2.0]])
    lhs = sk.mixed_norm(f + g, p, q)
    assert lhs <= n + sk.mixed_norm(g, p, q) + 1e-9


@settings(max_examples=40)
@given(st.lists(st.floats(min_value=0, max_value=10), min_size=6, max_size=6))
def test_solidity(vals):
    X = sk.ProductSpace(sk.counting_space(3), sk.Space([0, 1], [0.7, 1.3]))
    big = sk.GridFunction(X, np.asarray(vals).reshape(3, 2))
    small = sk.GridFunction(X, 0.5 * big.values)
    for p, q in [(1, 2), (INF, 1), (3, INF)]:
        assert sk.mixed_norm(small, p, q) <= sk.mixed_norm(big, p, q) + 1e-12


def test_mixed_norm_values_batches():
    from schurkit.mixed_norm import mixed_norm_values

    rng = np.random.default_rng(31)
    m1 = rng.random(3) + 0.5
    m2 = rng.random(2) + 0.5
    batch = np.abs(rng.standard_normal((5, 3, 2)))
    for p, q in [(1.0, INF), (2.0, 2.0), (INF, 1.0)]:
        out = mixed_norm_values(batch, m1, m2, p, q)
        assert out.shape == (5,)
        X = sk.ProductSpace(sk.Space(range(3), m1), sk.Space(range(2), m2))
        for i in range(5):
            single = sk.mixed_norm(sk.GridFunction(X, batch[i]), p, q)
            assert out[i] == pytest.approx(single, rel=1e-12, abs=1e-15)


def test_large_exponent_does_not_overflow():
    X = sk.ProductSpace(sk.counting_space(2), sk.singleton_space())
    f = sk.GridFunction(X, [[2.0], [3.0]])
    assert sk.mixed_norm(f, 700, 1) == pytest.approx(3.0, rel=1e-12)


@pytest.mark.parametrize("value", [1e200, 1e-200], ids=["huge", "tiny"])
def test_extreme_magnitudes_at_p2(value):
    X = sk.ProductSpace(sk.singleton_space(), sk.singleton_space())
    f = sk.GridFunction(X, [[value]])
    assert sk.mixed_norm(f, 2, 2) == pytest.approx(value, rel=1e-12, abs=0.0)


@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.floats(min_value=-100, max_value=100), min_size=6, max_size=6),
    st.floats(min_value=-150, max_value=150),
    st.floats(min_value=1.0, max_value=800.0),
    st.floats(min_value=1.0, max_value=800.0),
)
def test_homogeneity_over_extreme_magnitudes_and_exponents(log_vals, log_c, p, q):
    X = sk.ProductSpace(sk.Space(range(3), [1.0, 0.5, 2.0]), sk.Space([0, 1], [0.7, 1.3]))
    f = sk.GridFunction(X, (10.0 ** np.asarray(log_vals)).reshape(3, 2))
    c = 10.0**log_c
    n = sk.mixed_norm(f, p, q)
    assert 0.0 < n < INF
    assert sk.mixed_norm(f * c, p, q) == pytest.approx(c * n, rel=1e-12, abs=0.0)


def _max_scaled_reference(V, m, p, axis):
    # per slice in Python floats: M * (fsum m (v/M)^p)^(1/p) with M the slice
    # maximum; all-zero and inf slices give their maximum
    lines = np.moveaxis(V, axis, -1)
    out = np.empty(lines.shape[:-1])
    for idx in np.ndindex(out.shape):
        v = [float(x) for x in lines[idx]]
        top = max(v)
        if p == INF or top in (0.0, INF):
            out[idx] = top
        else:
            out[idx] = top * math.fsum(float(w) * (x / top) ** p for x, w in zip(v, m)) ** (1.0 / p)
    return out


@pytest.mark.parametrize("scale", ["unit", "tiny", "huge", "wide"])
@pytest.mark.parametrize("axis", [0, 1, 2, -1, -2])
@pytest.mark.parametrize("p", [*EXPONENT_GRID, 700.0])
def test_lp_norms_match_max_scaled_reference(scale, axis, p):
    from schurkit.mixed_norm import lp_norms

    rng = np.random.default_rng([7, axis % 3, ["unit", "tiny", "huge", "wide"].index(scale)])
    shape = (3, 4, 5)
    V = {
        "unit": lambda: rng.random(shape),
        "tiny": lambda: 1e-300 * rng.random(shape),
        "huge": lambda: 1e300 * rng.random(shape),
        "wide": lambda: 10.0 ** rng.uniform(-300.0, 300.0, shape),
    }[scale]()
    V[0, 0, :] = V[0, :, 0] = V[:, 0, 0] = 0.0  # an all-zero slice along every axis
    V[2, 3, 4] = INF  # and one holding inf
    m = 0.2 + rng.random(shape[axis])
    with np.errstate(all="raise"):
        got = lp_norms(V, m, p, axis=axis)
    lines = np.moveaxis(V, axis, -1)
    zero = ~lines.any(axis=-1)
    hot = np.isinf(lines).any(axis=-1)
    assert zero.any() and hot.any()
    assert np.all(got[zero] == 0.0)
    assert np.all(got[hot] == INF)
    np.testing.assert_allclose(got, _max_scaled_reference(V, m, p, axis), rtol=1e-13, atol=0.0)


def _weight_entry_points():
    """Each public function that takes a weight function, keyed by function and weight name.

    Every call takes one weight and fills the others with ones, on the index
    space of the N = 2 Gabor frame covered by one full patch.
    """
    frame = sk.gabor_frame(2, [1.0, 2.0])
    X = frame.space
    cov = sk.RectCovering(X, [(list(X.factor1.points), list(X.factor2.points))])
    ones = sk.GridFunction(X, np.ones(X.shape))
    K = sk.reproducing_kernel(frame)
    m = sk.WeightGrid(X, X, np.ones(X.shape + X.shape))
    L = sk.maximal_kernel(K, cov)
    return X, {
        "mixed_norm w": lambda w: sk.mixed_norm(ones, 2, 3, w),
        "weighted_kernel v": lambda v: sk.weighted_kernel(K, v, ones),
        "weighted_kernel w": lambda w: sk.weighted_kernel(K, ones, w),
        "validate_covering u": lambda u: sk.validate_covering(cov, u),
        "special_linfty_weight u": lambda u: sk.special_linfty_weight(cov, u),
        "mv_weight v": lambda v: sk.mv_weight(v),
        "weight_domination_constant v": lambda v: sk.weight_domination_constant(v, ones, m),
        "weight_domination_constant w": lambda w: sk.weight_domination_constant(ones, w, m),
        "coorbit_report u": lambda u: sk.coorbit_report(frame, cov, u=u),
        "coorbit_report v": lambda v: sk.coorbit_report(frame, cov, v=v),
        "sup_bound_certificate u": lambda u: sk.sup_bound_certificate(L, cov, u, m, 2, 3),
        "sup_bound_certificate w": lambda w: sk.sup_bound_certificate(L, cov, ones, m, 2, 3, w),
    }


_BAD_WEIGHTS = {"zero": 0.0, "negative": -1.0, "nan": math.nan, "inf": math.inf, "complex": 1.0 + 1.0j}


@pytest.mark.parametrize(
    "entry, bad",
    [
        (entry, bad)
        for entry in sorted(_weight_entry_points()[1])
        for bad in sorted(_BAD_WEIGHTS) + ["another space"]
        if (entry, bad) != ("mv_weight v", "another space")  # m_v lives on v's own space
    ],
)
def test_every_weight_entry_point_refuses_a_bad_weight_by_name(entry, bad):
    X, calls = _weight_entry_points()
    call, name = calls[entry], entry.split()[-1]
    call(sk.GridFunction(X, np.full(X.shape, 2.0)))  # a good weight runs
    if bad == "another space":
        weight = sk.GridFunction(sk.ProductSpace(sk.Space([0, 1], [5.0, 7.0]), X.factor2), np.ones(X.shape))
        message = f"weight {name} does not live on"
    else:
        values = np.ones(X.shape, dtype=type(_BAD_WEIGHTS[bad]))
        values[1, 0] = _BAD_WEIGHTS[bad]
        weight = sk.GridFunction(X, np.ones(X.shape))
        weight.values = values  # a GridFunction refuses nan and inf itself: each entry point checks on its own
        message = f"weight {name} must be real, finite and strictly positive"
    with pytest.raises(ValueError, match=message):
        call(weight)
