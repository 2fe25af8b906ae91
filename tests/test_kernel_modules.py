import numpy as np
import pytest

import schurkit as sk

from conftest import (
    EXPONENT_GRID,
    lift_1234,
    rand_function,
    rand_kernel,
    rand_positive,
    rand_product,
    rand_space,
    rand_weight_grid,
)

INF = sk.INF


def test_norm_a_frozen():
    assert sk.norm_A(lift_1234()) == pytest.approx(7.0, rel=1e-12)
    diag = sk.lift_plain_kernel([[5.0, 0.0], [0.0, 3.0]])
    assert sk.norm_A(diag) == pytest.approx(5.0, rel=1e-12)
    X = sk.ProductSpace(sk.counting_space(2), sk.counting_space(2))
    assert sk.norm_A(sk.Kernel(X, X, np.zeros((2, 2, 2, 2)))) == 0.0


@pytest.mark.parametrize("slab_bytes", [None, 200])
def test_norm_a_matches_dense_integrals_and_schur_constants(slab_bytes, monkeypatch):
    if slab_bytes is not None:
        monkeypatch.setattr(sk.operators, "_SLAB_BYTES", slab_bytes)
    rng = np.random.default_rng(21)
    for _ in range(20):
        K = rand_kernel(rng, rand_product(rng, 4), rand_product(rng, 4), complex_values=bool(rng.integers(2)))
        m = rand_weight_grid(rng, K.X, K.Y)
        c = sk.schur_constants(K)
        assert sk.norm_A(K) == max(c.c1, c.c2)
        A = np.abs(K.values) * m.values
        row = (A * K.Y.mass_grid).sum(axis=(2, 3)).max()
        col = (A * K.X.mass_grid[:, :, None, None]).sum(axis=(0, 1)).max()
        assert sk.norm_A(K, m) == pytest.approx(max(row, col), rel=1e-13)


@pytest.mark.parametrize("slab_bytes", [None, 200])
def test_norm_b_matches_its_definition(slab_bytes, monkeypatch):
    if slab_bytes is not None:
        monkeypatch.setattr(sk.operators, "_SLAB_BYTES", slab_bytes)
    rng = np.random.default_rng(23)
    for i in range(20):
        K = rand_kernel(rng, rand_product(rng, 4), rand_product(rng, 4), complex_values=i % 2 == 1)
        mu1, mu2 = K.X.factor1.masses, K.X.factor2.masses
        nu1, nu2 = K.Y.factor1.masses, K.Y.factor2.masses
        for m in (None, rand_weight_grid(rng, K.X, K.Y)):
            A = np.abs(K.values) * (1.0 if m is None else m.values)
            best_row = (A * nu1[None, None, :, None]).sum(axis=2).max(axis=0)  # (x2, y2)
            best_col = (A * mu1[:, None, None, None]).sum(axis=0).max(axis=1)  # (x2, y2)
            gamma = np.maximum(best_row, best_col)
            ref = max((gamma * nu2).sum(axis=1).max(), (gamma * mu2[:, None]).sum(axis=0).max())
            assert sk.norm_B(K, m) == pytest.approx(ref, rel=1e-13)


@pytest.mark.parametrize("slab_bytes", [None, 200])
def test_slab_kernel_norms_equal_the_dense_kernels(slab_bytes, monkeypatch):
    if slab_bytes is not None:
        monkeypatch.setattr(sk.operators, "_SLAB_BYTES", slab_bytes)
    lazy = sk.counterexample_kernel(3, 4)[0]
    dense = sk.Kernel(lazy.X, lazy.Y, np.concatenate([vals for _, vals in lazy.slabs()], axis=1))
    assert sk.norm_A(lazy) == sk.norm_A(dense)
    assert sk.norm_B(lazy) == sk.norm_B(dense)
    assert sk.schur_constants(lazy) == sk.schur_constants(dense)


@pytest.mark.parametrize("kind", ["dense", "slab"])
def test_norm_b_holds_one_slab_and_its_modulus(kind, monkeypatch):
    import tracemalloc

    from schurkit.operators import _slab_slices

    monkeypatch.setattr(sk.operators, "_SLAB_BYTES", 8 << 20)
    rng = np.random.default_rng(24)
    X = sk.ProductSpace(sk.counting_space(30), sk.counting_space(30))
    vals = rng.standard_normal((30,) * 4) + 1j * rng.standard_normal((30,) * 4)
    slabs = _slab_slices(X, X, 16)
    assert len(slabs) == 2
    modulus = 30 * max(s.stop - s.start for s in slabs) * X.size * 8
    if kind == "dense":  # a dense kernel's slabs are views of its array: only the modulus is new
        K, budget = sk.Kernel(X, X, vals), modulus
    else:  # each built slab is new too: complex, twice the bytes of its modulus
        K, budget = sk.SlabKernel(X, X, complex, lambda sl: vals[:, sl].copy()), 3 * modulus
    tracemalloc.start()
    try:
        sk.norm_B(K)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.15 * budget


def test_norm_b_collapses_on_lifted_kernels():
    rng = np.random.default_rng(1)
    for _ in range(15):
        a = rng.random((int(rng.integers(1, 4)), int(rng.integers(1, 4))))
        K = sk.lift_plain_kernel(a)
        assert sk.norm_B(K) == pytest.approx(sk.norm_A(K), rel=1e-12)
        c = sk.schur_constants(K)
        assert c.c3 == pytest.approx(c.c2, rel=1e-12)
        assert c.c4 == pytest.approx(c.c1, rel=1e-12)


def test_norm_b_frozen():
    assert sk.norm_B(lift_1234()) == pytest.approx(7.0, rel=1e-12)
    X = sk.ProductSpace(sk.counting_space(2), sk.counting_space(2))
    S = sk.separable_kernel(np.eye(2), np.ones((2, 2)), X, X)
    assert sk.norm_B(S) == pytest.approx(2.0, rel=1e-12)


def test_norm_b_scales_with_constant_weight():
    rng = np.random.default_rng(2)
    K = rand_kernel(rng, complex_values=True)
    m = sk.WeightGrid(K.X, K.Y, np.full(K.values.shape, 3.0))
    assert sk.norm_B(K, m) == pytest.approx(3.0 * sk.norm_B(K), rel=1e-12)
    assert sk.norm_A(K, m) == pytest.approx(3.0 * sk.norm_A(K), rel=1e-12)


def test_norm_a_le_norm_b():
    rng = np.random.default_rng(3)
    for _ in range(20):
        K = rand_kernel(rng, complex_values=bool(rng.integers(2)))
        m = rand_weight_grid(rng, K.X, K.Y)
        assert sk.norm_A(K, m) <= sk.norm_B(K, m) * (1 + 1e-12)


def test_schur_constants_dominated_by_norm_b():
    rng = np.random.default_rng(4)
    for _ in range(20):
        K = rand_kernel(rng, complex_values=bool(rng.integers(2)))
        nb = sk.norm_B(K)
        for ci in sk.schur_constants(K):
            assert ci <= nb * (1 + 1e-12)


def test_transpose_is_involution_and_frozen():
    K = sk.lift_plain_kernel([[1.0, 2.0], [3.0, 4.0]])
    T = sk.transpose(K)
    np.testing.assert_array_equal(T.values[:, 0, :, 0], [[1.0, 3.0], [2.0, 4.0]])
    np.testing.assert_array_equal(sk.transpose(T).values, K.values)
    assert T.X == K.Y and T.Y == K.X


def test_transpose_preserves_weighted_norms():
    rng = np.random.default_rng(5)
    for _ in range(15):
        K = rand_kernel(rng, complex_values=True)
        m = rand_weight_grid(rng, K.X, K.Y)
        mt = sk.transpose(m)
        assert isinstance(mt, sk.WeightGrid)
        assert sk.norm_B(sk.transpose(K), mt) == pytest.approx(sk.norm_B(K, m), rel=1e-12)
        assert sk.norm_A(sk.transpose(K), mt) == pytest.approx(sk.norm_A(K, m), rel=1e-12)


def test_compose_identity_is_neutral():
    rng = np.random.default_rng(6)
    K = rand_kernel(rng, complex_values=True)
    left = sk.compose(sk.identity_kernel(K.X), K)
    right = sk.compose(K, sk.identity_kernel(K.Y))
    np.testing.assert_allclose(left.values, K.values, rtol=1e-12)
    np.testing.assert_allclose(right.values, K.values, rtol=1e-12)


def test_compose_frozen_product():
    A = sk.lift_plain_kernel([[1.0, 1.0], [0.0, 1.0]])
    B = sk.lift_plain_kernel([[1.0, 0.0], [1.0, 1.0]])
    # lifted second factors carry mass one, so this is plain matrix product
    C = sk.compose(A, B)
    np.testing.assert_allclose(C.values[:, 0, :, 0], [[2.0, 1.0], [1.0, 1.0]], rtol=1e-12)
    assert sk.norm_A(C) == pytest.approx(3.0, rel=1e-12)
    assert sk.norm_A(A) * sk.norm_A(B) == pytest.approx(4.0, rel=1e-12)


def test_compose_rejects_middle_mismatch():
    rng = np.random.default_rng(7)
    K = rand_kernel(rng)
    other = sk.ProductSpace(sk.counting_space(4), sk.counting_space(4))
    L = sk.Kernel(other, other, np.ones((4, 4, 4, 4)))
    if K.Y != other:
        with pytest.raises(ValueError):
            sk.compose(K, L)


def test_compose_matches_dense_contraction():
    rng = np.random.default_rng(8)
    for _ in range(10):
        X, Y, Z = rand_product(rng), rand_product(rng), rand_product(rng)
        K = rand_kernel(rng, X, Y, complex_values=True)
        L = rand_kernel(rng, Y, Z, complex_values=True)
        C = sk.compose(K, L)
        expect = np.einsum("abcd,cd,cdef->abef", K.values, Y.mass_grid, L.values)
        np.testing.assert_allclose(C.values, expect, rtol=1e-12, atol=1e-14)


def test_tensor_kernel_rank_one():
    X = sk.ProductSpace(sk.counting_space(1), sk.counting_space(1))
    f = sk.GridFunction(X, [[1.0]])
    K = sk.tensor_kernel(f, f)
    assert sk.norm_B(K) == pytest.approx(1.0, rel=1e-12)

    rng = np.random.default_rng(9)
    Y = rand_product(rng)
    g = rand_function(rng, Y, complex_values=True)
    zero = sk.GridFunction(X, [[0.0]])
    assert sk.norm_B(sk.tensor_kernel(zero, g)) == 0.0

    T = sk.tensor_kernel(sk.GridFunction(X, [[2.0]]), g)
    np.testing.assert_allclose(T.values[0, 0], 2.0 * g.values, rtol=1e-12)


def test_mv_weight_frozen_and_symmetric():
    X = sk.ProductSpace(sk.counting_space(2), sk.singleton_space())
    v = sk.GridFunction(X, [[1.0], [2.0]])
    m = sk.mv_weight(v)
    np.testing.assert_allclose(m.values[:, 0, :, 0], [[1.0, 2.0], [2.0, 1.0]], rtol=1e-12)

    const = sk.mv_weight(sk.GridFunction(X, [[3.0], [3.0]]))
    np.testing.assert_allclose(const.values, 1.0)

    rng = np.random.default_rng(10)
    Y = rand_product(rng)
    w = rand_positive(rng, Y)
    grid = sk.mv_weight(w)
    np.testing.assert_allclose(grid.values, np.moveaxis(grid.values, (0, 1), (2, 3)), rtol=1e-12)
    assert np.all(grid.values >= 1.0 - 1e-12)

    with pytest.raises(ValueError):
        sk.mv_weight(sk.GridFunction(X, [[1.0], [-1.0]]))


def test_weight_grid_validation():
    X = sk.ProductSpace(sk.counting_space(2), sk.counting_space(2))
    with pytest.raises(ValueError):
        sk.WeightGrid(X, X, np.zeros((2, 2, 2, 2)))
    with pytest.raises(ValueError):
        sk.WeightGrid(X, X, np.full((2, 2, 2, 2), 1 + 1j))


def test_lift_plain_kernel_shape_check():
    with pytest.raises(ValueError):
        sk.lift_plain_kernel(np.ones((2, 2, 2)))


def test_norm_b_solid():
    rng = np.random.default_rng(11)
    for _ in range(15):
        K = rand_kernel(rng, complex_values=True)
        m = rand_weight_grid(rng, K.X, K.Y)
        bigger = sk.Kernel(K.X, K.Y, np.abs(K.values) + rng.random(K.values.shape))
        assert sk.norm_B(K, m) <= sk.norm_B(bigger, m) * (1 + 1e-12)
        assert sk.norm_B(K.abs(), m) == pytest.approx(sk.norm_B(K, m), rel=1e-12)


def test_norm_b_monotone_limit():
    # truncations from below converge to the full norm
    rng = np.random.default_rng(12)
    K = rand_kernel(rng).abs()
    top = K.values.max()
    norms = []
    for n in range(1, 6):
        Kn = sk.Kernel(K.X, K.Y, np.minimum(K.values, n * top / 5.0))
        norms.append(sk.norm_B(Kn))
    assert all(a <= b + 1e-12 for a, b in zip(norms, norms[1:]))
    assert norms[-1] == pytest.approx(sk.norm_B(K), rel=1e-12)


def test_norm_b_submultiplicative_with_chained_weights():
    rng = np.random.default_rng(13)
    for _ in range(10):
        X = rand_product(rng)
        v = rand_positive(rng, X)
        m = sk.mv_weight(v)
        C = sk.submult_weight_constant(m, m, m)
        assert C == pytest.approx(1.0, rel=1e-12)
        K = rand_kernel(rng, X, X, complex_values=True)
        L = rand_kernel(rng, X, X, complex_values=True)
        lhs = sk.norm_B(sk.compose(K, L), m)
        rhs = C * sk.norm_B(K, m) * sk.norm_B(L, m)
        assert lhs <= rhs * (1 + 1e-9)


def test_submult_weight_constant_rejects_broken_chain():
    rng = np.random.default_rng(14)
    X, Y = rand_product(rng), rand_product(rng)
    if X.shape != Y.shape or X != Y:
        m1 = rand_weight_grid(rng, X, X)
        m2 = rand_weight_grid(rng, Y, Y)
        with pytest.raises(ValueError):
            sk.submult_weight_constant(m1, m1, m2)


def test_submult_weight_constant_equals_dense_ratio():
    # the streamed maximum is bitwise the maximum of the full (X, Y, Z) ratio
    rng = np.random.default_rng(16)
    for _ in range(20):
        X, Y, Z = rand_product(rng, 4), rand_product(rng, 4), rand_product(rng, 4)
        tau = rand_weight_grid(rng, X, Z, lo=1e-3, hi=1e3)
        omega = rand_weight_grid(rng, X, Y, lo=1e-3, hi=1e3)
        sigma = rand_weight_grid(rng, Y, Z, lo=1e-3, hi=1e3)
        ratio = tau.values[:, :, None, None, :, :] / (
            omega.values[:, :, :, :, None, None] * sigma.values[None, None, :, :, :, :]
        )
        assert sk.submult_weight_constant(tau, omega, sigma) == float(ratio.max())


def test_weighted_operator_bound():
    # the weighted mixed-norm action of K is controlled by norm_B(K, m)
    # once the target and source weights are dominated through m
    rng = np.random.default_rng(15)
    for _ in range(10):
        X, Y = rand_product(rng), rand_product(rng)
        K = rand_kernel(rng, X, Y, complex_values=True)
        f = rand_function(rng, Y, complex_values=True)
        v = rand_positive(rng, X)
        w = rand_positive(rng, Y)
        m = rand_weight_grid(rng, X, Y)
        C = sk.weight_domination_constant(v, w, m)
        bound = C * sk.norm_B(K, m)
        out = v * sk.apply_kernel(K, f)
        for p in EXPONENT_GRID:
            for q in EXPONENT_GRID:
                lhs = sk.mixed_norm(out, p, q)
                rhs = bound * sk.mixed_norm(w * f, p, q)
                assert lhs <= rhs * (1 + 1e-9) + 1e-15


def test_weight_domination_constant_checks_spaces():
    X = sk.ProductSpace(sk.counting_space(2), sk.counting_space(2))
    Y = sk.ProductSpace(sk.counting_space(3), sk.counting_space(2))
    m = sk.WeightGrid(X, Y, np.ones(X.shape + Y.shape))
    v = sk.GridFunction(X, np.ones(X.shape))
    with pytest.raises(ValueError):
        sk.weight_domination_constant(v, v, m)


def test_dense_only_functions_refuse_a_slab_kernel():
    rng = np.random.default_rng(31)
    X = sk.ProductSpace(rand_space(rng, 2), rand_space(rng, 3))
    K = sk.Kernel(X, X, rng.random(X.shape + X.shape))
    lazy = sk.SlabKernel(X, X, K.dtype, lambda sl: K.values[:, sl])  # square, so compose's spaces chain
    ones = np.ones(X.shape)
    refused = [
        ("transpose", lambda: sk.transpose(lazy)),
        ("transpose", lambda: sk.transpose(sk.counterexample_kernel(3, 4)[0])),
        ("compose", lambda: sk.compose(lazy, K)),
        ("compose", lambda: sk.compose(K, lazy)),
        ("weighted_kernel", lambda: sk.weighted_kernel(lazy, ones, ones)),
        ("corner_opnorm", lambda: sk.corner_opnorm(lazy, 1, 1)),
    ]
    for name, call in refused:
        with pytest.raises(TypeError, match=f"{name} needs a dense Kernel"):
            call()
