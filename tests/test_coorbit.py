import numpy as np
import pytest

import schurkit as sk

from conftest import rand_covering


def _full_patch_covering(space):
    return sk.RectCovering(
        space, [(list(space.factor1.points), list(space.factor2.points))]
    )


def test_gabor_frame_geometry():
    frame = sk.gabor_frame(4, np.ones(4))
    assert frame.space.shape == (4, 4)
    assert frame.vectors.shape == (4, 4, 4)
    np.testing.assert_allclose(frame.vector_norms(), 0.5, rtol=1e-12)
    assert frame.parseval_defect() < 1e-10


def test_gabor_frame_single_point():
    frame = sk.gabor_frame(1, [2.0])
    np.testing.assert_allclose(np.abs(frame.vectors), 1.0)
    assert frame.parseval_defect() < 1e-12


def test_gabor_frame_validation():
    with pytest.raises(ValueError):
        sk.gabor_frame(4, np.zeros(4))
    with pytest.raises(ValueError):
        sk.gabor_frame(4, np.ones(3))
    with pytest.raises(ValueError):
        sk.gabor_frame(0, np.ones(1))


def test_finite_frame_rejects_non_parseval_family():
    X = sk.ProductSpace(sk.counting_space(2), sk.counting_space(1))
    vecs = np.zeros((2, 1, 2), dtype=complex)
    with pytest.raises(ValueError):
        sk.FiniteFrame(X, vecs, tol=1e-8)


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, np.nan), complex(-np.inf, 0)])
def test_finite_frame_rejects_non_finite_vectors(bad):
    # a nan vector makes the Parseval defect nan, which no `defect > tol` refuses
    X = sk.ProductSpace(sk.counting_space(2), sk.counting_space(1))
    vecs = np.array([[[1.0, 0.0]], [[0.0, 1.0]]], dtype=complex)
    assert sk.FiniteFrame(X, vecs.copy()).parseval_defect() == 0.0
    vecs[1, 0, 1] = bad
    with pytest.raises(ValueError, match="finite"):
        sk.FiniteFrame(X, vecs)


def test_finite_frame_copies_the_callers_vectors():
    X = sk.ProductSpace(sk.counting_space(2), sk.counting_space(1))
    vecs = np.array([[[1.0, 0.0]], [[0.0, 1.0]]], dtype=complex)
    frame = sk.FiniteFrame(X, vecs)
    assert vecs.flags.writeable
    vecs[0, 0, 0] = 5.0
    assert frame.vectors[0, 0, 0] == 1.0
    assert not frame.vectors.flags.writeable


def test_voice_transform_parseval_and_linear():
    rng = np.random.default_rng(1)
    frame = sk.gabor_frame(8, rng.standard_normal(8) + 1j * rng.standard_normal(8))
    f = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    g = rng.standard_normal(8) + 1j * rng.standard_normal(8)

    Vf = sk.voice_transform(frame, f)
    assert sk.mixed_norm(Vf, 2, 2) == pytest.approx(np.linalg.norm(f), abs=1e-10)

    Vsum = sk.voice_transform(frame, f + 2j * g)
    np.testing.assert_allclose(
        Vsum.values, Vf.values + 2j * sk.voice_transform(frame, g).values,
        rtol=1e-10, atol=1e-12,
    )

    with pytest.raises(ValueError):
        sk.voice_transform(frame, np.ones(5))


def test_reproducing_kernel_diagonal_and_idempotent():
    for N in (4, 8):
        frame = sk.gabor_frame(N, np.ones(N))
        K = sk.reproducing_kernel(frame)
        diag = np.einsum("abab->ab", K.values)
        np.testing.assert_allclose(diag, 1.0 / N, rtol=1e-12)

        K2 = sk.compose(K, K)
        assert np.abs(K2.values - K.values).max() < 1e-10

        # hermitian symmetry of the Gram entries
        np.testing.assert_allclose(
            K.values, np.conj(np.moveaxis(K.values, (0, 1), (2, 3))), atol=1e-12
        )


def test_voice_range_is_reproduced():
    rng = np.random.default_rng(2)
    frame = sk.gabor_frame(4, rng.standard_normal(4))
    K = sk.reproducing_kernel(frame)
    f = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    Vf = sk.voice_transform(frame, f)
    out = sk.apply_kernel(K, Vf)
    np.testing.assert_allclose(out.values, Vf.values, atol=1e-10)


def test_orthonormal_basis_frame_has_identity_kernel():
    d = 3
    X = sk.ProductSpace(sk.counting_space(d), sk.singleton_space())
    vecs = np.eye(d, dtype=complex).reshape(d, 1, d)
    frame = sk.FiniteFrame(X, vecs, tol=1e-12)
    K = sk.reproducing_kernel(frame)
    np.testing.assert_allclose(K.values, sk.identity_kernel(X).values, atol=1e-14)


def test_discretization_margin_frozen():
    assert sk.discretization_margin(1.0, 0.0) == 0.0
    assert sk.discretization_margin(1.0, 0.1) == pytest.approx(0.21, rel=1e-12)
    assert sk.discretization_margin(1.0, 0.5) == pytest.approx(1.25, rel=1e-12)
    with pytest.raises(ValueError):
        sk.discretization_margin(-1.0, 0.5)
    with pytest.raises(ValueError):
        sk.discretization_margin(1.0, -0.5)


def test_discretization_margin_monotone():
    rng = np.random.default_rng(3)
    for _ in range(20):
        k, d = rng.random() * 3, rng.random() * 3
        eps = 0.1
        assert sk.discretization_margin(k + eps, d) >= sk.discretization_margin(k, d)
        assert sk.discretization_margin(k, d + eps) > sk.discretization_margin(k, d)


def _default_report(N=4):
    frame = sk.gabor_frame(N, np.ones(N))
    space = frame.space
    cov = _full_patch_covering(space)
    ones = np.ones(space.shape)
    u = sk.GridFunction(space, ones)
    v = sk.GridFunction(space, ones)
    m0 = sk.WeightGrid(space, space, np.ones(space.shape + space.shape))
    L = sk.maximal_kernel(sk.reproducing_kernel(frame), cov)
    return frame, cov, u, v, m0, L


def test_coorbit_report_hypotheses_hold():
    frame, cov, u, v, m0, L = _default_report()
    report = sk.coorbit_report(frame, cov, u, v, m0, L)
    assert report.covering_admissible
    assert report.v_at_least_one
    assert report.m0_symmetric
    assert report.kernel_dominated
    assert report.all_pass
    assert report.u_moderateness == pytest.approx(1.0)
    assert report.m0_pair_constant == pytest.approx(1.0)
    # full-patch majorant of the normalized Gram kernel
    assert report.norm_b_majorant == pytest.approx(4.0, rel=1e-9)
    assert report.margin == pytest.approx(
        report.norm_b_majorant * (2 * report.norm_b_kpsi + report.norm_b_majorant),
        rel=1e-12,
    )
    # an idempotent kernel of structured norm >= 1 can never leave margin < 1
    assert not report.margin_pass


def test_coorbit_report_flags_insufficient_majorant():
    frame, cov, u, v, m0, L = _default_report()
    small = sk.Kernel(L.X, L.Y, 0.5 * L.values)
    report = sk.coorbit_report(frame, cov, u, v, m0, small)
    assert not report.kernel_dominated
    assert not report.all_pass


def test_coorbit_report_flags_asymmetric_weight():
    frame, cov, u, v, m0, L = _default_report()
    vals = np.ones(m0.values.shape)
    vals[0, 0, 1, 0] = 2.0  # breaks m0(x,y) == m0(y,x)
    report = sk.coorbit_report(frame, cov, u, v, sk.WeightGrid(m0.X, m0.Y, vals), L)
    assert not report.m0_symmetric
    assert not report.all_pass


def test_coorbit_report_defaults_to_the_patch_maximal_majorant():
    rng = np.random.default_rng(4)
    frame, cov, u, v, m0, L = _default_report()
    covs = [(cov, L)]
    for _ in range(3):
        patches = rand_covering(rng, frame.space)
        covs.append((patches, sk.maximal_kernel(sk.reproducing_kernel(frame), patches)))
    for cov, L in covs:
        report = sk.coorbit_report(frame, cov, u, v, m0, L)
        assert sk.coorbit_report(frame, cov, u, v, m0, None) == report
        assert sk.coorbit_report(frame, cov, u, v, m0) == report
        assert report.kernel_dominated


def test_sequence_norms_frozen():
    X = sk.ProductSpace(sk.counting_space(2), sk.counting_space(2))
    disjoint = sk.RectCovering(X, [([0], [0]), ([1], [1])])
    flat, sharp = sk.sequence_norms([1.0, 1.0], disjoint, 1, 1)
    assert flat == pytest.approx(2.0, rel=1e-12)
    assert sharp == pytest.approx(2.0, rel=1e-12)

    full = sk.RectCovering(X, [([0, 1], [0, 1])])
    flat, sharp = sk.sequence_norms([1.0], full, 1, 1)
    assert flat == pytest.approx(4.0, rel=1e-12)
    assert sharp == pytest.approx(1.0, rel=1e-12)

    flat, sharp = sk.sequence_norms([0.0], full, 2, 3)
    assert flat == 0.0 and sharp == 0.0

    with pytest.raises(ValueError):
        sk.sequence_norms([1.0, 2.0], full, 1, 1)


def test_counterexample_kernel_diagnostics():
    K, d = sk.counterexample_kernel(4, 64)
    assert d["c1"] == pytest.approx(d["c1_analytic"], rel=1e-9)
    assert d["c3"] == pytest.approx(d["c3_analytic"], rel=1e-9)
    assert d["c1_analytic"] == pytest.approx(2.7176470588235291, rel=1e-12)
    assert d["c3_analytic"] == pytest.approx(4.6991116680879239, rel=1e-12)
    assert d["corner_1inf_upper"] == pytest.approx(2.4903565007680579, rel=1e-12)
    assert d["corner_1inf_lower"] <= d["corner_1inf_upper"] + 1e-12
    assert K.X.shape == (64, 9)
    assert K.Y.shape == (9, 9)

    with pytest.raises(ValueError):
        sk.counterexample_kernel(0, 64)
    with pytest.raises(ValueError):
        sk.counterexample_kernel(4, 1)


def test_counterexample_cap_is_the_zeta_bound_rounded_up():
    mpmath = pytest.importorskip("mpmath")
    cap = sk.counterexample_kernel(1, 2)[1]["corner_1inf_upper"]
    with mpmath.workprec(200):
        exact = mpmath.sqrt(2 * mpmath.zeta(mpmath.mpf(4) / 3) - 1)
        assert mpmath.mpf(np.nextafter(cap, 0.0)) < exact <= mpmath.mpf(cap)


def _dense_counterexample(N, M):
    # the four-broadcast dense build of the kernel, kept as an independent oracle
    xs = np.arange(M) / M
    ks = np.arange(-N, N + 1)
    cm = (1.0 + np.abs(ks)) ** (-2.0 / 3.0)
    phase = np.exp(-2j * np.pi * np.outer(xs, ks))
    gate = (np.abs(ks)[:, None] >= np.abs(ks)[None, :]).astype(float)
    return (
        cm[None, None, None, :]
        * phase[:, None, None, :]
        * gate[None, :, None, :]
        * gate[None, None, :, :]
    )


@pytest.mark.parametrize("slab_bytes", [None, 40_000])
@pytest.mark.parametrize("N, M", [(1, 2), (4, 16), (8, 64)])
def test_counterexample_slabs_match_dense_build(N, M, slab_bytes, monkeypatch):
    if slab_bytes is not None:
        monkeypatch.setattr(sk.operators, "_SLAB_BYTES", slab_bytes)
    K, d = sk.counterexample_kernel(N, M)
    dense = _dense_counterexample(N, M)
    assert K.X.shape == (M, 2 * N + 1) and K.Y.shape == (2 * N + 1, 2 * N + 1)
    slabs = list(K.slabs())
    if slab_bytes is not None and N == 8:
        assert len(slabs) > 1
    np.testing.assert_array_equal(np.concatenate([v for _, v in slabs], axis=1), dense)

    D = sk.Kernel(K.X, K.Y, dense)
    c = sk.schur_constants(D)
    assert (d["c1"], d["c3"], d["c4"]) == (c.c1, c.c3, c.c4)
    assert d["c2"] == pytest.approx(c.c2, rel=1e-13)
    assert d["corner_1inf_lower"] == sk.opnorm_lower_search(D, 1, sk.INF, trials=32, seed=0)


def test_counterexample_builds_each_slab_once(monkeypatch):
    monkeypatch.setattr(sk.operators, "_SLAB_BYTES", 40_000)
    built = []

    class CountingSlabKernel(sk.SlabKernel):
        def __init__(self, X, Y, dtype, build_slab):
            def counted(sl):
                built.append((sl.start, sl.stop))
                return build_slab(sl)

            super().__init__(X, Y, dtype, counted)

    monkeypatch.setattr(sk.coorbit, "SlabKernel", CountingSlabKernel)
    K, _ = sk.counterexample_kernel(8, 64)
    slabs = [(sl.start, sl.stop) for sl in sk.operators._slab_slices(K.X, K.Y, 16)]
    assert len(slabs) >= 3
    assert built == slabs
