import dataclasses
import functools
import re
import tracemalloc
import types

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

import schurkit as sk
from schurkit import operators

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


@pytest.mark.parametrize("N", [1, 2, 3, 4, 5, 8, 12, 16, 32])
@pytest.mark.parametrize("complex_window", [False, True])
def test_gabor_kernel_closed_form_matches_the_inner_products(N, complex_window):
    rng = np.random.default_rng(N)
    window = 3.0 * rng.standard_normal(N) + (1j * rng.standard_normal(N) if complex_window else 0.0)
    frame = sk.gabor_frame(N, window)
    K = sk.reproducing_kernel(frame)
    want = np.einsum("cdt,abt->abcd", frame.vectors, frame.vectors.conj())
    assert np.abs(K.values - want).max() <= 1e-14
    # any other frame takes the inner products, even over the Gabor vectors
    plain = sk.FiniteFrame(frame.space, frame.vectors, tol=1e-10)
    np.testing.assert_array_equal(sk.reproducing_kernel(plain).values, want)


def test_gabor_frame_shifts_are_the_rolled_window():
    rng = np.random.default_rng(9)
    N = 6
    window = rng.standard_normal(N) + 1j * rng.standard_normal(N)
    g = window / np.linalg.norm(window)
    t = np.arange(N)
    phases = np.exp(2j * np.pi * np.outer(t, t) / N)
    rolled = np.stack([np.roll(g, a) for a in range(N)])[:, None, :] * phases[None, :, :] / np.sqrt(N)
    np.testing.assert_array_equal(sk.gabor_frame(N, window).vectors, rolled)


def test_dense_frame_builds_past_the_cap_are_refused_before_allocating(monkeypatch):
    frame = sk.gabor_frame(128, np.ones(128))
    tracemalloc.start()
    try:
        # the kernel and the copy its constructor makes
        with pytest.raises(ValueError, match=str(2 * 128**4 * 16)):
            sk.reproducing_kernel(frame)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    # the vectors and the frame's copy of them
    with pytest.raises(ValueError, match=str(2 * 1024**3 * 16)):
        sk.gabor_frame(1024, np.ones(1024))
    # a frame that is not a Gabor frame is refused by the same estimate
    X = sk.ProductSpace(sk.counting_space(128), sk.counting_space(128))
    wide = sk.FiniteFrame(X, np.full((128, 128, 1), 1.0 / 128))
    with pytest.raises(ValueError, match="bytes"):
        sk.reproducing_kernel(wide)

    # the N = 64 kernel, 2 * 64^4 complex values with the copy, stays within the cap
    def built(window):
        raise AssertionError("past the size check")

    monkeypatch.setattr(sk.coorbit, "_gabor_kernel", built)
    with pytest.raises(AssertionError, match="past the size check"):
        sk.reproducing_kernel(sk.gabor_frame(64, np.ones(64)))


def _traced_peak(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _small_kernel(shape, cplx):
    rng = np.random.default_rng(3)
    X = sk.ProductSpace(sk.counting_space(shape[0]), sk.counting_space(shape[1]))
    Y = sk.ProductSpace(sk.counting_space(shape[2]), sk.counting_space(shape[3]))
    vals = rng.random(shape)
    return sk.Kernel(X, Y, vals + 1j * vals[::-1] if cplx else vals)


# (call, the bytes it is refused at). The counterexample needs (6 + 3b) w (w + M)
# complex values for w = 2N + 1 and b trial functions (b = 1 up to w^2 + 1 trials);
# the lower search over |Y| = 16 takes |Y| (3 itemsize + 16) + rows (itemsize + 16)
# bytes for each of its b = trials - 16 functions, with 4 rows a slab
_OVER_THE_CAP = [
    (lambda: sk.counterexample_kernel(64, 64), 9 * 129 * 193 * 16),
    (lambda: sk.counterexample_kernel(4, 8, trials=10**6), (6 + 3 * (10**6 - 81)) * 9 * 17 * 16),
    (lambda: sk.schur_scan(_small_kernel((2, 2, 4, 4), False), 2, 3, trials=10**6), (10**6 - 16) * (16 * 40 + 4 * 24)),
    (lambda: sk.opnorm_lower_search(_small_kernel((2, 2, 4, 4), True), 1, 1, trials=10**6), (10**6 - 16) * (16 * 64 + 4 * 32)),
]


@pytest.mark.parametrize("call, nbytes", _OVER_THE_CAP)
def test_counterexample_and_trial_batches_past_the_cap_are_refused_before_allocating(call, nbytes, monkeypatch):
    monkeypatch.setattr(operators, "_DENSE_BYTES", 1 << 20)

    def refused():
        with pytest.raises(ValueError, match=f"needs {nbytes} bytes, over the 1048576-byte cap"):
            call()

    assert _traced_peak(refused) < 2**20


@functools.cache
def _gabor16():
    """The N = 16 Gabor frame's builds, over 4 x 4 block patches or one full patch."""
    frame = sk.gabor_frame(16, np.arange(1.0, 17.0))
    X = frame.space
    blocks = sk.RectCovering(X, [(range(4 * i, 4 * i + 4), range(4 * j, 4 * j + 4)) for i in range(4) for j in range(4)])
    v = sk.GridFunction(X, 1.0 + np.arange(256.0).reshape(16, 16))
    phase = sk.PhaseGrid(X, X, np.exp(2j * np.pi * np.random.default_rng(5).random(X.shape + X.shape)))
    K = sk.reproducing_kernel(frame)
    return types.SimpleNamespace(
        frame=frame, blocks=blocks, full=_full_patch_covering(X), v=v, m=sk.mv_weight(v), K=K, absK=K.abs(), phase=phase
    )


# each dense build of a square kernel over the n = 256 points of the N = 16 Gabor
# frame, and the bytes it is refused at: float grids of n^2 values, and for the
# covering kernels bytes per pair of a point and a point of the largest patch (16)
_DENSE_BUILDS = {
    "mv_weight": (lambda g: sk.mv_weight(g.v), 3 * 8 * 256**2),
    "weight_domination_constant": (lambda g: sk.weight_domination_constant(g.v, g.v, g.m), 3 * 8 * 256**2),
    "maximal_kernel": (lambda g: sk.maximal_kernel(g.K, g.blocks), (3 * 8 * 256 + 16 * 16) * 256),
    "oscillation": (lambda g: sk.oscillation(g.K, g.blocks), (2 * 8 * 256 + 64 * 16) * 256),
    "oscillation with a phase grid": (lambda g: sk.oscillation(g.K, g.blocks, g.phase), (2 * 8 * 256 + 64 * 16) * 256),
    "reproducing_kernel": (lambda g: sk.reproducing_kernel(g.frame), 2 * 16 * 256**2),
    "gabor_frame": (lambda g: sk.gabor_frame(64, np.arange(1.0, 65.0)), 2 * 16 * 64**3),
}


@pytest.mark.parametrize("name", sorted(_DENSE_BUILDS))
def test_dense_builds_past_the_cap_are_refused_before_allocating(name, monkeypatch):
    call, nbytes = _DENSE_BUILDS[name]
    g = _gabor16()
    monkeypatch.setattr(operators, "_DENSE_BYTES", 1 << 20)

    def refused():
        with pytest.raises(ValueError, match=f"needs {nbytes} bytes, over the 1048576-byte cap"):
            call(g)

    assert _traced_peak(refused) < 2**20


_ESTIMATED_BUILDS = {name: call for name, (call, _) in _DENSE_BUILDS.items()} | {
    "maximal_kernel, one full patch": lambda g: sk.maximal_kernel(g.K, g.full),
    "oscillation, one full patch": lambda g: sk.oscillation(g.K, g.full),
    "oscillation with a phase grid, one full patch": lambda g: sk.oscillation(g.K, g.full, g.phase),
    "oscillation of a real kernel with a phase grid, one full patch": lambda g: sk.oscillation(g.absK, g.full, g.phase),
    "the reproducing kernel's modulus": lambda g: sk.coorbit._modulus_kernel(g.frame),
}


@pytest.mark.parametrize("name", sorted(_ESTIMATED_BUILDS))
def test_dense_build_estimates_bound_the_traced_peak(name, monkeypatch):
    """The estimates count the arrays alone. The reproducing kernel's and its
    modulus' are their two grids exactly, and a few interpreter objects lie
    beside them; beside the
    Gabor frame's arrays lie its index space and numpy's einsum buffers in the
    Parseval check, under 1 MiB whatever N (0.42 MiB at N = 64)."""
    call = _ESTIMATED_BUILDS[name]
    slack = {"reproducing_kernel": 2**12, "the reproducing kernel's modulus": 2**12, "gabor_frame": 2**20}.get(name, 0)
    g = _gabor16()
    call(g)  # warm: a first call also traces lazily built module state
    peak = _traced_peak(lambda: call(g))
    monkeypatch.setattr(operators, "_DENSE_BYTES", 0)
    with pytest.raises(ValueError, match="needs") as refused:
        call(g)
    nbytes = int(re.search(r"needs (\d+) bytes", str(refused.value)).group(1))
    assert peak < nbytes + slack, (peak, nbytes)
    monkeypatch.setattr(operators, "_DENSE_BYTES", nbytes)
    call(g)  # at its own estimate a run is allowed


@pytest.mark.parametrize(
    "call",
    [
        lambda: sk.counterexample_kernel(8, 16),
        lambda: sk.counterexample_kernel(16, 64),
        lambda: sk.counterexample_kernel(2, 64, trials=600),
        lambda: sk.counterexample_kernel(8, 64, trials=1500),
        lambda: sk.schur_scan(_small_kernel((4, 4, 8, 8), False), 2, 3, trials=2000),
        lambda: sk.schur_scan(_small_kernel((4, 4, 8, 8), True), 1, np.inf, trials=2000),
        lambda: sk.schur_scan(_small_kernel((16, 16, 2, 2), True), 2, 3, trials=2000),
    ],
)
def test_size_estimates_bound_the_traced_peak(call, monkeypatch):
    call()  # warm: a first call also traces lazily built module state
    peak = _traced_peak(call)
    monkeypatch.setattr(operators, "_DENSE_BYTES", 0)
    with pytest.raises(ValueError, match="needs") as refused:
        call()
    nbytes = int(re.search(r"needs (\d+) bytes", str(refused.value)).group(1))
    assert peak < nbytes
    monkeypatch.setattr(operators, "_DENSE_BYTES", nbytes)
    call()  # at its own estimate a run is allowed


def _lazy(K):
    return sk.SlabKernel(K.X, K.Y, K.dtype, lambda sl: K.values[:, sl])


@pytest.mark.parametrize("name", ["maximal_kernel", "oscillation", "coorbit_report"])
def test_covering_and_coorbit_functions_refuse_a_slab_kernel_by_name(name):
    frame = sk.gabor_frame(4, [1, 2, 3, 4])
    K = sk.reproducing_kernel(frame)
    cov = _full_patch_covering(frame.space)
    call = {
        "maximal_kernel": lambda: sk.maximal_kernel(_lazy(K), cov),
        "oscillation": lambda: sk.oscillation(_lazy(K), cov),
        "coorbit_report": lambda: sk.coorbit_report(frame, cov, L=_lazy(sk.maximal_kernel(K, cov))),
    }[name]
    with pytest.raises(TypeError, match=f"^{name} needs a dense Kernel, got SlabKernel$"):
        call()


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


@pytest.mark.parametrize("flag", ["v_at_least_one", "m0_symmetric", "kernel_dominated"])
def test_every_coorbit_flag_can_fail(flag):
    flags = [f.name for f in dataclasses.fields(sk.CoorbitReport) if f.type == "bool"]
    assert sorted(flags) == ["kernel_dominated", "m0_symmetric", "v_at_least_one"]
    frame, cov, u, v, m0, L = _default_report()
    if flag == "v_at_least_one":
        v = sk.GridFunction(v.space, np.full(v.space.shape, 0.5))
    elif flag == "m0_symmetric":
        vals = np.ones(m0.values.shape)
        vals[0, 0, 1, 0] = 2.0
        m0 = sk.WeightGrid(m0.X, m0.Y, vals)
    else:
        L = sk.Kernel(L.X, L.Y, 0.5 * L.values)  # half the patch-maximal kernel
    report = sk.coorbit_report(frame, cov, u, v, m0, L)
    assert getattr(report, flag) is False
    assert report.all_pass == all(getattr(report, f) for f in flags)


_EPS = np.finfo(float).eps


def _assert_reports_within(got, want, rel):
    """The kernel norms of two reports within `rel` of each other, relatively, and the margin,
    which compounds two of them and rounds twice more, within 2 rel + 2 eps; every other
    field, computed without the kernel, is equal."""
    for field in dataclasses.fields(sk.CoorbitReport):
        a, b = getattr(got, field.name), getattr(want, field.name)
        if field.name in ("norm_a_mv", "norm_b_kpsi", "norm_b_majorant"):
            assert abs(a - b) <= rel * max(abs(a), abs(b)), (field.name, a, b)
        elif field.name == "margin":
            assert abs(a - b) <= (2 * rel + 2 * _EPS) * max(abs(a), abs(b)), (field.name, a, b)
        else:
            assert a == b, (field.name, a, b)


def test_coorbit_report_defaults_to_the_patch_maximal_majorant():
    # bitwise against the patch-maximal kernel of the modulus the report reads, and
    # within 4 eps against that of the complex kernel's modulus (its entries are)
    rng = np.random.default_rng(4)
    frame, cov, u, v, m0, _ = _default_report()
    A = sk.coorbit._modulus_kernel(frame)
    covs = [cov] + [rand_covering(rng, frame.space) for _ in range(3)]
    for cov in covs:
        report = sk.coorbit_report(frame, cov, u, v, m0, sk.maximal_kernel(A, cov))
        assert sk.coorbit_report(frame, cov, u, v, m0, None) == report
        assert sk.coorbit_report(frame, cov, u, v, m0) == report
        assert report.kernel_dominated
        complex_route = sk.coorbit_report(frame, cov, u, v, m0, sk.maximal_kernel(sk.reproducing_kernel(frame), cov))
        _assert_reports_within(report, complex_route, 4 * _EPS)


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
    assert d["corner_1inf_upper"] == pytest.approx(1.674766567937764, rel=1e-12)
    assert d["corner_1inf_lower"] <= d["corner_1inf_upper"] + 1e-12
    assert K.X.shape == (64, 9)
    assert K.Y.shape == (9, 9)

    with pytest.raises(ValueError):
        sk.counterexample_kernel(0, 64)
    with pytest.raises(ValueError):
        sk.counterexample_kernel(4, 1)


@pytest.mark.parametrize(
    "N, M", [(4, 3), (8, 8), (64, 64), (64, 2), (1, 2), (4, 9), (8, 64), (16, 64), (32, 64)]
)
def test_counterexample_upper_is_the_aliased_parseval_sum(N, M):
    mpmath = pytest.importorskip("mpmath")
    upper = sk.counterexample_kernel(N, M, trials=1)[1]["corner_1inf_upper"]
    with mpmath.workdps(50):
        residue_sums = [mpmath.mpf(0)] * M
        for m in range(-N, N + 1):
            residue_sums[m % M] += mpmath.mpf(1 + abs(m)) ** (-mpmath.mpf(2) / 3)
        exact = mpmath.sqrt(mpmath.fsum(b * b for b in residue_sums))
        assert exact <= mpmath.mpf(upper) <= exact * (1 + mpmath.mpf("1e-12"))
        if M >= 2 * N:  # the square-summability cap, which only aliasing below 2N can pass
            assert mpmath.mpf(upper) <= mpmath.sqrt(2 * mpmath.zeta(mpmath.mpf(4) / 3) - 1)


def _witness_ratio(K):
    # the vertex f(N, .) = 1 / beta_N, zero elsewhere, has unit (1, inf) norm
    vals = np.zeros(K.Y.shape)
    vals[-1] = 1.0 / K.Y.factor1.masses[-1]
    f = sk.GridFunction(K.Y, vals)
    return sk.mixed_norm(sk.apply_kernel(K, f), 1, sk.INF) / sk.mixed_norm(f, 1, sk.INF)


def test_counterexample_witness_beats_the_zeta_cap_below_2n():
    # at M = 2 the witness's image sums the even and the odd c_m in phase, far past
    # sqrt(2 zeta(4/3) - 1), which bounds the norm only once M >= 2N
    K, d = sk.counterexample_kernel(64, 2, trials=1)
    image = _witness_ratio(K)
    assert 2.490356500768058 < image <= d["corner_1inf_upper"]
    assert image == pytest.approx(9.31, abs=0.01)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 8), st.integers(2, 40))
def test_counterexample_upper_bounds_the_witness_at_every_m(N, M):
    K, d = sk.counterexample_kernel(N, M, trials=1)
    assert _witness_ratio(K) <= d["corner_1inf_upper"]
    assert d["corner_1inf_lower"] <= d["corner_1inf_upper"]


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
    K, _ = sk.counterexample_kernel(N, M)
    dense = _dense_counterexample(N, M)
    assert K.X.shape == (M, 2 * N + 1) and K.Y.shape == (2 * N + 1, 2 * N + 1)
    slabs = list(K.slabs())
    if slab_bytes is not None and N == 8:
        assert len(slabs) > 1
    np.testing.assert_array_equal(np.concatenate([v for _, v in slabs], axis=1), dense)

    # the slab scan of K, the check on the factored diagnostics, against the dense kernel's
    D = sk.Kernel(K.X, K.Y, dense)
    c = sk.schur_constants(D)
    sc, lower = sk.schur_scan(K, 1, sk.INF, trials=32, seed=0)
    assert (sc.c1, sc.c3, sc.c4) == (c.c1, c.c3, c.c4)
    assert sc.c2 == pytest.approx(c.c2, rel=1e-13)
    assert lower == sk.opnorm_lower_search(D, 1, sk.INF, trials=32, seed=0)


@pytest.mark.parametrize("N", [1, 2, 3, 4, 8])
@pytest.mark.parametrize("M", [2, 7, 16, 64])
def test_counterexample_diagnostics_match_the_slab_scan(N, M):
    # the factored sums run in another order than the scan's: a few ulps, not bitwise;
    # the factored lower search also tries the vertex f(N, .) = 1 / beta_N
    for trials in (1, 32, 64):
        for seed in (0, 7):
            K, d = sk.counterexample_kernel(N, M, trials=trials, seed=seed)
            sc, lower = sk.schur_scan(K, 1, sk.INF, trials=trials, seed=seed)
            lower = max(lower, _witness_ratio(K))
            got = [d["c1"], d["c2"], d["c3"], d["c4"], d["corner_1inf_lower"]]
            for value, want in zip(got, [*sc, lower]):
                assert abs(value - want) <= 4 * np.spacing(want), (trials, seed, value, want)


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
    assert built == []  # the diagnostics come from the factors
    sk.schur_scan(K, 1, sk.INF)
    slabs = [(sl.start, sl.stop) for sl in sk.operators._slab_slices(K.X, K.Y, 16)]
    assert len(slabs) >= 3
    assert built == slabs


def test_coorbit_report_defaults():
    # the defaults m0 = 1 and L = M are never built: the pair constant's closed form and the
    # skipped dominance check must equal the spelled-out report bitwise
    rng = np.random.default_rng(5)
    windows = [[1.0, 2.0, 3.0, 4.0], rng.standard_normal(8) + 1j * rng.standard_normal(8)]
    for window in windows:
        frame = sk.gabor_frame(len(window), window)
        space = frame.space
        ones = sk.GridFunction(space, np.ones(space.shape))
        ones_m0 = sk.WeightGrid(space, space, np.ones(space.shape + space.shape))
        for cov in (_full_patch_covering(space), rand_covering(rng, space, max_patches=4)):
            L = sk.maximal_kernel(sk.coorbit._modulus_kernel(frame), cov)
            for u in (ones, sk.GridFunction(space, 1.0 + rng.random(space.shape))):
                target = np.maximum(frame.vector_norms(), sk.special_linfty_weight(cov, u).values)
                v = sk.GridFunction(space, target)
                spelled = sk.coorbit_report(frame, cov, u, v, ones_m0, L)
                assert sk.coorbit_report(frame, cov, u) == spelled
                assert sk.coorbit_report(frame, cov, u, v, ones_m0) == spelled
                assert sk.coorbit_report(frame, cov, u, v, None, L) == spelled
                if u is ones:
                    assert sk.coorbit_report(frame, cov) == spelled
                # the majorant of the complex kernel's modulus, a few roundings away
                complex_L = sk.maximal_kernel(sk.reproducing_kernel(frame), cov)
                _assert_reports_within(sk.coorbit_report(frame, cov, u, v, None, complex_L), spelled, 4 * _EPS)
            assert spelled.v_domination_constant == 1.0


def test_coorbit_report_refuses_a_majorant_on_another_space():
    frame, cov, u, v, m0, L = _default_report()
    X = sk.ProductSpace(sk.counting_space(2), sk.counting_space(2))
    for other in (sk.Kernel(X, X, np.ones((2, 2, 2, 2))), sk.Kernel(L.X, X, np.ones((4, 4, 2, 2)))):
        with pytest.raises(ValueError, match="majorant"):
            sk.coorbit_report(frame, cov, u, v, m0, other)


@pytest.mark.parametrize("N", [1, 2, 3, 4, 5, 8, 12, 16, 32])
@pytest.mark.parametrize("complex_window", [False, True])
def test_gabor_modulus_is_within_4_eps_of_the_complex_kernels(N, complex_window):
    # Both moduli come from the same W. |exp(i theta) W| adds the rounded root's
    # modulus (2u at most), the complex product (sqrt(5) u) and one more abs (u) to the
    # abs that |W| carries alone: 6.3u = 3.2 eps relatively, 2.5 eps measured (4 ulps)
    rng = np.random.default_rng(100 + N)
    window = 3.0 * rng.standard_normal(N) + (1j * rng.standard_normal(N) if complex_window else 0.0)
    frame = sk.gabor_frame(N, window)
    A = sk.coorbit._modulus_kernel(frame)
    assert A.is_real and A.values.flags.c_contiguous
    want = np.abs(sk.reproducing_kernel(frame).values)
    assert np.all(np.abs(A.values - want) <= 4 * _EPS * np.maximum(A.values, want))
    # any other frame takes the modulus of its inner products, bit for bit
    plain = sk.FiniteFrame(frame.space, frame.vectors, tol=1e-10)
    np.testing.assert_array_equal(sk.coorbit._modulus_kernel(plain).values, np.abs(sk.reproducing_kernel(plain).values))


@st.composite
def _coorbit_inputs(draw):
    """A Gabor frame for N <= 8 with a random or block covering, and u, v, m0, L each given or None."""
    N = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    window = rng.standard_normal(N) + (1j * rng.standard_normal(N) if draw(st.booleans()) else 0.0)
    frame = sk.gabor_frame(N, window)
    space = frame.space
    if draw(st.booleans()):
        cov = rand_covering(rng, space, max_patches=4)
    else:
        b = draw(st.integers(1, N))
        grow = draw(st.integers(0, 1))
        cov = sk.RectCovering(space, [(range(i, min(N, i + b + grow)), range(j, min(N, j + b + grow)))
                                      for i in range(0, N, b) for j in range(0, N, b)])
    u = draw(st.sampled_from([None, "random"]))
    u = None if u is None else sk.GridFunction(space, 0.5 + 2.0 * rng.random(space.shape))
    v = draw(st.sampled_from([None, "random", "large"]))
    if v is not None:
        v = sk.GridFunction(space, (0.5 if v == "random" else 10.0) + rng.random(space.shape))
    m0 = draw(st.sampled_from([None, "random", "symmetric"]))
    if m0 is not None:
        vals = 0.5 + rng.random(space.shape + space.shape)
        m0 = sk.WeightGrid(space, space, vals + vals.transpose(2, 3, 0, 1) if m0 == "symmetric" else vals)
    L = draw(st.sampled_from([None, "majorant", "half", "random"]))
    if L is not None:
        M = sk.maximal_kernel(sk.reproducing_kernel(frame), cov).values
        L = sk.Kernel(space, space, {"majorant": M, "half": 0.5 * M, "random": rng.random(M.shape)}[L])
    return frame, cov, u, v, m0, L


@settings(max_examples=60, deadline=None)
@given(_coorbit_inputs())
def test_gabor_coorbit_report_agrees_with_the_inner_product_route(inputs):
    # the inner products sum N roundings each: over 1200 seeded inputs with N <= 8 the
    # norms differed by up to 5.9 eps relatively (11 ulps, at N = 6), within 2N eps
    frame, cov, u, v, m0, L = inputs
    report = sk.coorbit_report(frame, cov, u, v, m0, L)
    plain = sk.FiniteFrame(frame.space, frame.vectors, tol=1e-10)
    _assert_reports_within(report, sk.coorbit_report(plain, cov, u, v, m0, L), 2 * frame.dim * _EPS)

    # the m_v slabs are mv_weight's, and the norms those of the modulus kernel, bit for bit
    A = sk.coorbit._modulus_kernel(frame)
    if v is None:
        ones = sk.GridFunction(frame.space, np.ones(frame.space.shape))
        target = np.maximum(frame.vector_norms(), sk.special_linfty_weight(cov, ones if u is None else u).values)
        v = sk.GridFunction(frame.space, target)
    assert report.norm_a_mv == sk.norm_A(A, sk.mv_weight(v))
    assert report.norm_b_kpsi == sk.norm_B(A, m0)


@pytest.mark.parametrize("slab_bytes", [None, 20_000, 1])
def test_mv_weighted_slabs_match_the_dense_weight_bitwise(slab_bytes, monkeypatch):
    if slab_bytes is not None:
        monkeypatch.setattr(operators, "_SLAB_BYTES", slab_bytes)
    rng = np.random.default_rng(12)
    frame = sk.gabor_frame(12, rng.standard_normal(12) + 1j * rng.standard_normal(12))
    A = sk.coorbit._modulus_kernel(frame)
    v = sk.GridFunction(frame.space, 0.5 + rng.random(frame.space.shape))
    K = sk.kernel_algebra._mv_weighted(A, v.values)
    slabs = list(K.slabs())
    if slab_bytes is not None:
        assert len(slabs) > 1
    np.testing.assert_array_equal(np.concatenate([vals for _, vals in slabs], axis=1), sk.mv_weight(v).values * A.values)
    assert sk.norm_A(K) == sk.norm_A(A, sk.mv_weight(v))


def test_coorbit_report_builds_no_complex_kernel_and_no_dense_weight(monkeypatch):
    # over the N = 32 Gabor frame's 4 x 4 block patches the peak is the modulus held
    # beside the patch-maximal kernel's own estimate, 33 MiB; the complex kernel and
    # its copy alone were 32 MiB, and the dense m_v grids 24 MiB more
    N, b = 32, 8
    frame = sk.gabor_frame(N, np.arange(1.0, N + 1.0))
    cov = sk.RectCovering(frame.space, [(range(b * i, b * i + b), range(b * j, b * j + b)) for i in range(4) for j in range(4)])

    def refuse(*args):
        raise AssertionError("the complex kernel was built")

    for name in ("reproducing_kernel", "_gabor_kernel"):
        monkeypatch.setattr(sk.coorbit, name, refuse)
    sk.coorbit_report(frame, cov)  # warm
    peak = _traced_peak(lambda: sk.coorbit_report(frame, cov))
    n, t = N * N, b * b
    assert peak < 8 * n * n + (3 * 8 * n + 16 * t) * n, peak


def test_coorbit_on_an_n128_gabor_frame_is_refused_before_allocating():
    frame = sk.gabor_frame(128, np.ones(128))
    X = frame.space
    cov = sk.RectCovering(X, [(range(32 * i, 32 * i + 32), range(32 * j, 32 * j + 32)) for i in range(4) for j in range(4)])
    tracemalloc.start()
    try:
        # the modulus and the copy its `Kernel` makes: 2 * 128^4 floats
        with pytest.raises(ValueError, match=f"needs {2 * 128**4 * 8} bytes"):
            sk.coorbit_report(frame, cov)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    plain = sk.FiniteFrame(X, frame.vectors, tol=1e-10)
    with pytest.raises(ValueError, match=f"needs {3 * 128**4 * 8} bytes"):  # inner products, modulus, copy
        sk.coorbit._modulus_kernel(plain)
