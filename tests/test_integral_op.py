import json

import numpy as np
import pytest

import schurkit as sk
from schurkit import cli
from schurkit.jsonio import dump_kernel, dumps_json, load_kernel

from conftest import (
    EXPONENT_GRID,
    lift_1234,
    rand_function,
    rand_kernel,
    rand_positive,
    rand_product,
    rand_space,
)

INF = sk.INF


def test_apply_identity_kernel():
    rng = np.random.default_rng(1)
    X = rand_product(rng)
    f = rand_function(rng, X, complex_values=True)
    out = sk.apply_kernel(sk.identity_kernel(X), f)
    np.testing.assert_allclose(out.values, f.values, rtol=1e-12)


def test_apply_matches_row_sums():
    K = lift_1234()
    ones = sk.GridFunction(K.Y, np.ones(K.Y.shape))
    out = sk.apply_kernel(K, ones)
    np.testing.assert_allclose(out.values, [[3.0], [7.0]])


def test_apply_zero_and_linearity():
    rng = np.random.default_rng(2)
    X, Y = rand_product(rng), rand_product(rng)
    K = rand_kernel(rng, X, Y, complex_values=True)
    f = rand_function(rng, Y, complex_values=True)
    g = rand_function(rng, Y, complex_values=True)

    zero = sk.GridFunction(Y, np.zeros(Y.shape))
    assert np.all(sk.apply_kernel(K, zero).values == 0)

    lhs = sk.apply_kernel(K, f + (2.5j * g))
    rhs = sk.apply_kernel(K, f) + 2.5j * sk.apply_kernel(K, g)
    np.testing.assert_allclose(lhs.values, rhs.values, rtol=1e-12)


def test_apply_rejects_wrong_space():
    rng = np.random.default_rng(3)
    K = rand_kernel(rng)
    other = sk.ProductSpace(sk.counting_space(5), sk.counting_space(5))
    with pytest.raises(ValueError):
        sk.apply_kernel(K, sk.GridFunction(other, np.ones((5, 5))))


def test_schur_constants_frozen():
    c = sk.schur_constants(lift_1234())
    assert c == pytest.approx((7.0, 6.0, 6.0, 7.0), rel=1e-12)


def test_schur_constants_separable_identity_times_ones():
    X = sk.ProductSpace(sk.counting_space(2), sk.counting_space(2))
    K = sk.separable_kernel(np.eye(2), np.ones((2, 2)), X, X)
    c = sk.schur_constants(K)
    assert c == pytest.approx((2.0, 2.0, 2.0, 2.0), rel=1e-12)


def test_schur_constants_zero_kernel():
    X = sk.ProductSpace(sk.counting_space(2), sk.counting_space(3))
    K = sk.Kernel(X, X, np.zeros(X.shape + X.shape))
    assert sk.schur_constants(K) == (0.0, 0.0, 0.0, 0.0)


def test_schur_bound_branches():
    c = sk.schur_constants(lift_1234())
    assert sk.schur_bound(c, 1, 2) == pytest.approx(7.0)
    assert sk.schur_bound(c, INF, 1) == pytest.approx(7.0)
    assert sk.schur_bound(c, 2, 2) == pytest.approx(7.0)

    synthetic = sk.SchurConstants(1.0, 1.0, 5.0, 9.0)
    assert sk.schur_bound(synthetic, 1, 3) == 5.0  # p < q picks up c3
    assert sk.schur_bound(synthetic, 3, 1) == 9.0  # p > q picks up c4
    assert sk.schur_bound(synthetic, 2, 2) == 1.0  # p = q needs only c1, c2


def test_transpose_swaps_constants():
    rng = np.random.default_rng(4)
    for _ in range(20):
        K = rand_kernel(rng, complex_values=bool(rng.integers(2)))
        c = sk.schur_constants(K)
        ct = sk.schur_constants(sk.transpose(K))
        assert ct.c1 == pytest.approx(c.c2, rel=1e-12)
        assert ct.c2 == pytest.approx(c.c1, rel=1e-12)
        assert ct.c3 == pytest.approx(c.c4, rel=1e-12)
        assert ct.c4 == pytest.approx(c.c3, rel=1e-12)


def test_weighted_kernel_trivial_weights():
    rng = np.random.default_rng(5)
    K = rand_kernel(rng)
    v = sk.GridFunction(K.X, np.ones(K.X.shape))
    w = sk.GridFunction(K.Y, np.ones(K.Y.shape))
    np.testing.assert_array_equal(sk.weighted_kernel(K, v, w).values, K.values)

    v2 = sk.GridFunction(K.X, np.full(K.X.shape, 2.0))
    np.testing.assert_allclose(sk.weighted_kernel(K, v2, w).values, 2.0 * K.values)


def test_weighted_kernel_conjugation_identity():
    # v(x) * (K f)(x) must equal the weighted kernel acting on v-free data:
    # Kvw(w f) with Kvw(x, y) = v(x) K(x, y) / w(y).
    rng = np.random.default_rng(6)
    for _ in range(15):
        X, Y = rand_product(rng), rand_product(rng)
        K = rand_kernel(rng, X, Y, complex_values=True)
        f = rand_function(rng, Y, complex_values=True)
        v = rand_positive(rng, X)
        w = rand_positive(rng, Y)
        lhs = v * sk.apply_kernel(K, f)
        rhs = sk.apply_kernel(sk.weighted_kernel(K, v, w), w * f)
        np.testing.assert_allclose(lhs.values, rhs.values, rtol=1e-12, atol=1e-14)


def test_corner_opnorm_frozen():
    K = lift_1234()
    assert sk.corner_opnorm(K, 1, 1) == pytest.approx(6.0, rel=1e-12)
    assert sk.corner_opnorm(K, INF, INF) == pytest.approx(7.0, rel=1e-12)
    assert sk.corner_opnorm(K, 1, INF) == pytest.approx(6.0, rel=1e-12)
    assert sk.corner_opnorm(K, INF, 1) == pytest.approx(7.0, rel=1e-12)


def test_corner_opnorm_separable_frozen():
    X = sk.ProductSpace(sk.counting_space(2), sk.counting_space(2))
    K = sk.separable_kernel(np.eye(2), np.ones((2, 2)), X, X)
    assert sk.corner_opnorm(K, 1, INF) == pytest.approx(2.0, rel=1e-12)


def test_corner_opnorm_zero():
    X = sk.ProductSpace(sk.counting_space(2), sk.counting_space(2))
    K = sk.Kernel(X, X, np.zeros((2, 2, 2, 2)))
    for p, q in [(1, 1), (1, INF), (INF, 1), (INF, INF)]:
        assert sk.corner_opnorm(K, p, q) == 0.0


def test_corner_opnorm_input_validation():
    K = lift_1234()
    with pytest.raises(ValueError):
        sk.corner_opnorm(K, 2, 2)  # only corner exponents supported
    with pytest.raises(ValueError):
        sk.corner_opnorm(K, 1, 2)

    neg = sk.Kernel(K.X, K.Y, -K.values)
    with pytest.raises(ValueError):
        sk.corner_opnorm(neg, 1, 1)

    cplx = sk.Kernel(K.X, K.Y, K.values * (1 + 1j))
    with pytest.raises(ValueError):
        sk.corner_opnorm(cplx, 1, 1)


def test_corner_opnorm_past_enumeration_cap():
    # 2^20 vertices for the (1, inf) corner: past the oracle's cap, but the
    # closed form needs only one vertex per target point
    Y = sk.ProductSpace(sk.counting_space(2), sk.counting_space(20))
    X = sk.ProductSpace(sk.singleton_space(), sk.singleton_space())
    K = sk.Kernel(X, Y, np.ones((1, 1, 2, 20)))
    assert sk.corner_opnorm(K, 1, INF) == pytest.approx(20.0, rel=1e-12)
    assert sk.schur_constants(K).c3 == pytest.approx(20.0, rel=1e-12)
    with pytest.raises(ValueError):
        sk.brute_corner_opnorm(K, 1, INF)


def test_corner_opnorm_matches_oracle_on_many_vertices():
    # 2^14 = 16384 vertices, all enumerated by the oracle
    rng = np.random.default_rng(17)
    X = sk.ProductSpace(rand_space(rng, 1), rand_space(rng, 2))
    Y = sk.ProductSpace(rand_space(rng, 2), rand_space(rng, 14))
    K = rand_kernel(rng, X, Y)
    got = sk.corner_opnorm(K, 1, INF)
    assert got == pytest.approx(sk.brute_corner_opnorm(K, 1, INF), rel=1e-12)
    assert got == pytest.approx(sk.schur_constants(K).c3, rel=1e-12)


def test_corner_opnorm_witness():
    # rebuild the extremal vertex from its definition and apply the kernel
    rng = np.random.default_rng(18)
    for _ in range(20):
        K = rand_kernel(rng, rand_product(rng, 4), rand_product(rng, 4))
        mu1 = K.X.factor1.masses
        nu1 = K.Y.factor1.masses
        c3 = sk.schur_constants(K).c3
        inner = np.einsum("a,abcd->bcd", mu1, K.values)  # (x2, y1, y2)
        x2 = int(np.argmax(inner.max(axis=1) @ K.Y.factor2.masses))  # the target point attaining c3
        f = np.zeros(K.Y.shape)
        for d in range(K.Y.shape[1]):
            c = int(np.argmax(inner[x2, :, d]))
            f[c, d] = 1.0 / nu1[c]
        witness = sk.GridFunction(K.Y, f)
        assert sk.mixed_norm(witness, 1, INF) == pytest.approx(1.0, rel=1e-12)
        image = sk.mixed_norm(sk.apply_kernel(K, witness), 1, INF)
        assert image == pytest.approx(c3, rel=1e-12)
        assert image == pytest.approx(sk.corner_opnorm(K, 1, INF), rel=1e-12)


def test_apply_kernel_matches_einsum_reference():
    rng = np.random.default_rng(19)
    for _ in range(10):
        K = rand_kernel(rng, rand_product(rng, 4), rand_product(rng, 4), complex_values=bool(rng.integers(2)))
        f = rand_function(rng, K.Y, complex_values=bool(rng.integers(2)))
        expect = np.einsum("abcd,cd->ab", K.values, f.values * K.Y.mass_grid)
        np.testing.assert_allclose(sk.apply_kernel(K, f).values, expect, rtol=1e-12, atol=1e-14)


def test_corner_matches_constants_and_oracle():
    rng = np.random.default_rng(7)
    corner_to_constant = {
        (1.0, 1.0): "c2",
        (INF, INF): "c1",
        (1.0, INF): "c3",
        (INF, 1.0): "c4",
    }
    for _ in range(20):
        K = rand_kernel(rng).abs()
        c = sk.schur_constants(K)._asdict()
        for (p, q), name in corner_to_constant.items():
            got = sk.corner_opnorm(K, p, q)
            assert got == pytest.approx(c[name], rel=1e-12)
            assert got == pytest.approx(sk.brute_corner_opnorm(K, p, q), rel=1e-12)


def test_opnorm_lower_search_frozen():
    X = sk.ProductSpace(sk.counting_space(2), sk.counting_space(2))
    assert sk.opnorm_lower_search(sk.identity_kernel(X), 2, 2) == pytest.approx(1.0, rel=1e-12)
    assert sk.opnorm_lower_search(lift_1234(), 1, 1) == pytest.approx(6.0, rel=1e-12)
    zero = sk.Kernel(X, X, np.zeros((2, 2, 2, 2)))
    assert sk.opnorm_lower_search(zero, 1, 2) == 0.0


def test_opnorm_lower_below_schur_bound():
    rng = np.random.default_rng(8)
    for _ in range(15):
        K = rand_kernel(rng, complex_values=bool(rng.integers(2)))
        c = sk.schur_constants(K)
        for p in EXPONENT_GRID:
            for q in EXPONENT_GRID:
                low = sk.opnorm_lower_search(K, p, q, trials=16, seed=3)
                assert low <= sk.schur_bound(c, p, q) + 1e-9


def test_opnorm_lower_search_rejects_bad_trials():
    with pytest.raises(ValueError):
        sk.opnorm_lower_search(lift_1234(), 1, 1, trials=0)


def test_kernel_validation():
    X = sk.ProductSpace(sk.counting_space(2), sk.counting_space(2))
    with pytest.raises(ValueError):
        sk.Kernel(X, X, np.ones((2, 2, 2, 3)))  # shape mismatch
    with pytest.raises(ValueError):
        sk.Kernel(X, X, np.full((2, 2, 2, 2), np.nan))
    K = sk.Kernel(X, X, -np.ones((2, 2, 2, 2)))
    assert K.is_real and not K.is_nonnegative
    assert K.abs().is_nonnegative


def _schur_reference(vals, X, Y):
    # one-shot 4-D reductions over the whole kernel
    A = np.abs(vals)
    mu1, mu2 = X.factor1.masses, X.factor2.masses
    nu1, nu2 = Y.factor1.masses, Y.factor2.masses
    c1 = (A * Y.mass_grid).sum(axis=(2, 3)).max()
    c2 = (A * X.mass_grid[:, :, None, None]).sum(axis=(0, 1)).max()
    c3 = (np.einsum("a,abcd->bcd", mu1, A).max(axis=1) @ nu2).max()
    c4 = (mu2 @ np.einsum("c,abcd->abd", nu1, A).max(axis=0)).max()
    return c1, c2, c3, c4


def _lower_search_reference(vals, X, Y, p, q, trials, seed):
    # point masses, the constant and the seeded random tail, all applied at once
    n1y, n2y = Y.shape
    mu1, mu2 = X.factor1.masses, X.factor2.masses
    nu1, nu2 = Y.factor1.masses, Y.factor2.masses
    best = 0.0
    for c in range(n1y):
        for d in range(n2y):
            image = sk.GridFunction(X, vals[:, :, c, d] * Y.mass_grid[c, d])
            best = max(best, sk.mixed_norm(image, p, q) / (nu1[c] ** (1 / p) * nu2[d] ** (1 / q)))
    rng = np.random.default_rng(seed)
    n_rand = max(0, trials - n1y * n2y - 1)
    if np.iscomplexobj(vals):
        rand = rng.standard_normal((n_rand, n1y, n2y)) + 1j * rng.standard_normal((n_rand, n1y, n2y))
    else:
        rand = rng.random((n_rand, n1y, n2y))
    for f in [np.ones((n1y, n2y)), *rand]:
        image = np.einsum("abcd,cd->ab", vals, f * Y.mass_grid)
        best = max(best, sk.mixed_norm(sk.GridFunction(X, image), p, q) / sk.mixed_norm(sk.GridFunction(Y, f), p, q))
    return best


@pytest.mark.parametrize("complex_values", [False, True])
def test_slabbed_kernel_matches_one_shot_references(complex_values, monkeypatch):
    rng = np.random.default_rng(20)
    X = sk.ProductSpace(rand_space(rng, 5), rand_space(rng, 6))
    Y = sk.ProductSpace(rand_space(rng, 4), rand_space(rng, 3))
    K = rand_kernel(rng, X, Y, complex_values=complex_values)
    f = rand_function(rng, Y, complex_values=True)
    # two x2 columns of real values per slab: 3 slabs real, 6 complex
    monkeypatch.setattr(sk.operators, "_SLAB_BYTES", 2 * 5 * 12 * 8)
    lazy = sk.SlabKernel(X, Y, K.values.dtype, lambda sl: K.values[:, sl])
    for kernel in (K, lazy):
        slabs = list(kernel.slabs())
        assert len(slabs) >= 3
        np.testing.assert_array_equal(np.concatenate([v for _, v in slabs], axis=1), K.values)

        np.testing.assert_allclose(sk.schur_constants(kernel), _schur_reference(K.values, X, Y), rtol=1e-13)
        expect = np.einsum("abcd,cd->ab", K.values, f.values * Y.mass_grid)
        np.testing.assert_allclose(sk.apply_kernel(kernel, f).values, expect, rtol=1e-13, atol=1e-15)
        for p, q, trials in [(1, INF, 8), (2, 3, 30), (INF, 1.5, 1)]:
            got = sk.opnorm_lower_search(kernel, p, q, trials=trials, seed=5)
            ref = _lower_search_reference(K.values, X, Y, p, q, trials, 5)
            assert got == pytest.approx(ref, rel=1e-13)


def _two_pass_reference(K, p, q, trials, seed):
    # the two slab loops schur_constants and opnorm_lower_search ran before they
    # shared one pass, with broadcast-multiply-sum reductions over each slab
    from schurkit.mixed_norm import _stage, mixed_norm_values

    mu1, mu2 = K.X.factor1.masses, K.X.factor2.masses
    nu1, nu2 = K.Y.factor1.masses, K.Y.factor2.masses
    n1y, n2y = K.Y.shape

    c1 = 0.0
    col = np.zeros(K.Y.size)
    c3 = np.empty(len(mu2))
    max4 = np.empty((len(mu2), n2y))
    for sl, vals in K.slabs():
        A = np.abs(vals)
        col += K.X.mass_grid[:, sl].reshape(-1) @ A.reshape(-1, K.Y.size)
        c1 = max(c1, (A * K.Y.mass_grid).sum(axis=(2, 3)).max())
        inner3 = (A * mu1[:, None, None, None]).sum(axis=0)
        c3[sl] = (inner3.max(axis=1) * nu2[None, :]).sum(axis=1)
        max4[sl] = (A * nu1[None, None, :, None]).sum(axis=2).max(axis=0)
    c4 = (max4 * mu2[:, None]).sum(axis=0).max()
    constants = (c1, col.max(), c3.max(), c4)

    n_rand = max(0, trials - n1y * n2y - 1)
    rng = np.random.default_rng(seed)
    if K.is_real:
        rand = rng.random((n_rand, n1y, n2y))
    else:
        rand = rng.standard_normal((n_rand, n1y, n2y)) + 1j * rng.standard_normal((n_rand, n1y, n2y))
    batch = np.concatenate([np.ones((1, n1y, n2y), dtype=rand.dtype), rand], axis=0)
    weighted = (batch * K.Y.mass_grid).reshape(len(batch), K.Y.size).T
    col_inner = np.empty((n1y, n2y, len(mu2)))
    images = []
    for sl, vals in K.slabs():
        cols = np.moveaxis(np.abs(vals) * K.Y.mass_grid, (2, 3), (0, 1))
        col_inner[..., sl] = _stage(cols, mu1[:, None], p, axis=-2)
        n1, w = vals.shape[:2]
        images.append((vals.reshape(n1 * w, -1) @ weighted).reshape(n1, w, -1))
    col_norms = _stage(col_inner, mu2, q, axis=-1)
    best = (col_norms / np.multiply.outer(nu1 ** (1.0 / p), nu2 ** (1.0 / q))).max()
    out = np.moveaxis(np.concatenate(images, axis=1), -1, 0)
    nums = mixed_norm_values(np.abs(out), mu1, mu2, p, q)
    dens = mixed_norm_values(np.abs(batch), nu1, nu2, p, q)
    return constants, max(best, (nums / dens).max())


@pytest.mark.parametrize("slab_bytes", [None, 2 * 5 * 12 * 8])
@pytest.mark.parametrize("complex_values", [False, True])
def test_one_pass_matches_two_pass_reference(complex_values, slab_bytes, monkeypatch):
    rng = np.random.default_rng(21)
    X = sk.ProductSpace(rand_space(rng, 5), rand_space(rng, 6))
    Y = sk.ProductSpace(rand_space(rng, 4), rand_space(rng, 3))
    K = rand_kernel(rng, X, Y, complex_values=complex_values)
    if slab_bytes is not None:  # two real x2 columns per slab: 3 slabs real, 6 complex
        monkeypatch.setattr(sk.operators, "_SLAB_BYTES", slab_bytes)
    lazy = sk.SlabKernel(X, Y, K.values.dtype, lambda sl: K.values[:, sl])
    for kernel in (K, lazy):
        assert len(list(kernel.slabs())) >= (1 if slab_bytes is None else 3)
        for p, q in [(1, INF), (INF, 1), (2, 3), (2, 2)]:
            constants, lower = _two_pass_reference(kernel, float(p), float(q), trials=40, seed=7)
            np.testing.assert_allclose(sk.schur_constants(kernel), constants, rtol=1e-13)
            got_c, got_lower = sk.schur_scan(kernel, p, q, trials=40, seed=7)
            np.testing.assert_allclose(got_c, constants, rtol=1e-13)
            assert got_lower == pytest.approx(lower, rel=1e-13)
            assert sk.opnorm_lower_search(kernel, p, q, trials=40, seed=7) == got_lower


def test_schur_certificate_builds_each_slab_once(tmp_path, monkeypatch, capsys):
    rng = np.random.default_rng(22)
    X = sk.ProductSpace(rand_space(rng, 5), rand_space(rng, 6))
    Y = sk.ProductSpace(rand_space(rng, 4), rand_space(rng, 3))
    K = rand_kernel(rng, X, Y, complex_values=True)
    kfile = tmp_path / "k.json"
    kfile.write_text(dumps_json(dump_kernel(K)))
    monkeypatch.setattr(sk.operators, "_SLAB_BYTES", 2 * 5 * 12 * 16)
    built = []

    def load_counting(obj):
        dense = load_kernel(obj)

        def build(sl):
            built.append((sl.start, sl.stop))
            return dense.values[:, sl]

        return sk.SlabKernel(dense.X, dense.Y, dense.values.dtype, build)

    monkeypatch.setattr(cli, "load_kernel", load_counting)
    assert cli.run(["schur", "--kernel", str(kfile), "--p", "2", "--q", "3"]) == 0
    assert json.loads(capsys.readouterr().out)["quantities"]["c1"] == sk.schur_constants(K).c1
    assert built == [(0, 2), (2, 4), (4, 6)]


def test_slab_kernel_validates_its_slabs():
    X = sk.ProductSpace(sk.counting_space(2), sk.counting_space(3))
    Y = sk.ProductSpace(sk.counting_space(2), sk.counting_space(2))
    good = sk.SlabKernel(X, Y, float, lambda sl: np.ones((2, sl.stop - sl.start, 2, 2)))
    assert good.is_real and sk.schur_constants(good) == (4.0, 6.0, 4.0, 6.0)
    assert not sk.SlabKernel(X, Y, complex, None).is_real
    for build in (
        lambda sl: np.ones((2, 1, 2, 2)),  # one x2 column for a three-column slab
        lambda sl: np.ones((2, sl.stop - sl.start, 2, 2), dtype=complex),  # wrong dtype
        lambda sl: np.full((2, sl.stop - sl.start, 2, 2), np.inf),  # not finite
    ):
        with pytest.raises(ValueError):
            sk.schur_constants(sk.SlabKernel(X, Y, float, build))
    with pytest.raises(TypeError):
        sk.SlabKernel(X.factor1, Y, float, None)


def test_counterexample_memory_is_slab_bounded():
    import tracemalloc

    # the dense (M, 2N+1, 2N+1, 2N+1) complex build peaked near 848 MB here
    tracemalloc.start()
    try:
        sk.counterexample_kernel(32, 64)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20


def _constant_kernel(value):
    X = sk.ProductSpace(sk.counting_space(2), sk.counting_space(1))
    Y = sk.ProductSpace(sk.counting_space(1), sk.counting_space(1))
    return sk.Kernel(X, Y, np.full((2, 1, 1, 1), value))


def test_lower_search_survives_overflowing_power_sums():
    # K f = 3 f(y) at both target points: the (700, 1) norm is 3 * 2^(1/700)
    # while 3**700 overflows
    c, lower = sk.schur_scan(_constant_kernel(3.0), 700, 1)
    assert tuple(c) == (3.0, 6.0, 6.0, 3.0)
    assert lower == pytest.approx(3.0 * 2.0 ** (1.0 / 700.0), rel=1e-12)
    assert lower <= sk.schur_bound(c, 700, 1)


@pytest.mark.parametrize("value", [1e200, 1e-200])
def test_lower_search_at_extreme_magnitudes(value):
    with np.errstate(all="raise"):
        c, lower = sk.schur_scan(_constant_kernel(value), 2, 2)
    assert np.isfinite(lower) and lower > 0.0
    assert lower == pytest.approx(np.sqrt(2.0) * value, rel=1e-12)
    assert lower <= sk.schur_bound(c, 2, 2)


def test_lead_norms_rescales_only_columns_that_leave_the_normal_range():
    from schurkit.operators import _lead_norms

    m = np.array([0.5, 2.0])
    V = np.array([[1e200, 2.0, 0.0, 1e-200], [3e200, 5.0, 0.0, 0.0]])
    with np.errstate(all="raise"):
        got = _lead_norms(V, m, 2.0)
    plain = (m @ V[:, 1] ** 2) ** 0.5
    assert got[1] == plain  # a column in range keeps the plain contraction
    assert got[2] == 0.0
    np.testing.assert_allclose(got[[0, 3]], [np.sqrt(0.5 + 18.0) * 1e200, np.sqrt(0.5) * 1e-200], rtol=1e-14)
