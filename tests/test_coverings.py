import numpy as np
import pytest

import schurkit as sk

from conftest import lift_1234, rand_covering, rand_function, rand_kernel, rand_positive

INF = sk.INF


def _counting_square(n):
    return sk.ProductSpace(sk.counting_space(n), sk.counting_space(n))


def _lifted_space():
    return sk.ProductSpace(sk.counting_space(2), sk.singleton_space())


def test_rect_covering_basics():
    X = _counting_square(2)
    cov = sk.RectCovering(X, [([0], [0, 1]), ([1], [0, 1])])
    assert len(cov) == 2
    assert cov.covers()
    partial = sk.RectCovering(X, [([0], [0, 1])])
    assert not partial.covers()
    with pytest.raises(ValueError):
        sk.RectCovering(X, [])
    with pytest.raises(ValueError):
        sk.RectCovering(X, [([7], [0])])  # unknown point


def test_patch_weights_frozen():
    X = sk.ProductSpace(sk.Space([0], [2.0]), sk.Space([0], [0.5]))
    cov = sk.RectCovering(X, [([0], [0])])
    np.testing.assert_allclose(cov.patch_weights(), [0.5])

    Y = _counting_square(1)
    np.testing.assert_allclose(sk.RectCovering(Y, [([0], [0])]).patch_weights(), [1.0])


def test_validate_covering_disjoint_singletons():
    X = sk.ProductSpace(sk.counting_space(2), sk.counting_space(1))
    cov = sk.RectCovering(X, [([0], [0]), ([1], [0])])
    report = sk.validate_covering(cov)
    assert report.covers
    assert report.admissible
    assert report.patch_positive == (True, True)
    assert report.comparability == pytest.approx(1.0)
    assert report.intersection_number == 1
    assert report.moderateness is None


def test_validate_covering_with_weight():
    X = sk.ProductSpace(sk.counting_space(2), sk.counting_space(1))
    cov = sk.RectCovering(X, [([0, 1], [0])])
    u = sk.GridFunction(X, [[1.0], [3.0]])
    report = sk.validate_covering(cov, u)
    assert report.intersection_number == 1
    assert report.moderateness == pytest.approx(3.0)
    with pytest.raises(ValueError):
        sk.validate_covering(cov, sk.GridFunction(X, [[0.0], [1.0]]))


def test_validate_covering_flags_gaps():
    X = _counting_square(2)
    report = sk.validate_covering(sk.RectCovering(X, [([0], [0])]))
    assert not report.covers
    assert not report.admissible


_FULL16 = (range(16), range(16))
_MASS01 = sk.ProductSpace(sk.Space(range(32), np.full(32, 0.01)), sk.Space(range(16), np.full(16, 0.01)))


@pytest.mark.parametrize(
    "space, patches, field, expected",
    [
        (_counting_square(16), [_FULL16], "intersection_number", 1),
        (_counting_square(16), [_FULL16, _FULL16], "intersection_number", 2),
        (_MASS01, [_FULL16, (range(32), range(16))], "comparability", 2.0),
    ],
    ids=["one-full-patch", "two-full-patches", "nested-comparability"],
)
def test_patches_sharing_256_points_meet(space, patches, field, expected):
    # a count of shared points held in uint8 wraps to 0 at 256 and hides the meeting
    report = sk.validate_covering(sk.RectCovering(space, patches))
    assert getattr(report, field) == pytest.approx(expected, rel=1e-12)


def _reference_constants(cov, u):
    """Plain loops over patches, pairs and points: report, w^c, C0, u / w^c and c5."""
    pm, weights, P = cov.product_masks, cov.patch_weights(), len(cov)
    positive = tuple(bool(pm[j].any()) for j in range(P))
    meets = [[bool((pm[i] & pm[k]).any()) for k in range(P)] for i in range(P)]
    comparability = 1.0
    for i in range(P):
        for k in range(P):
            if i != k and meets[i][k] and weights[k] > 0:
                comparability = max(comparability, float(weights[i] / weights[k]))
    moderateness = 1.0
    for j in range(P):
        if positive[j]:
            on = u.values[pm[j]]
            moderateness = max(moderateness, float(on.max() / on.min()))
    covers = all(pm[:, a, b].any() for a in range(pm.shape[1]) for b in range(pm.shape[2]))
    report = sk.CoveringReport(covers, positive, comparability, max(map(sum, meets)), moderateness)
    if not covers or min(weights) <= 0:
        return report, None
    wc = np.zeros(cov.space.shape)
    for a in range(wc.shape[0]):
        for b in range(wc.shape[1]):
            wc[a, b] = weights[next(j for j in range(P) if pm[j, a, b])]
    c0 = c5 = 1.0
    for j in range(P):
        for a, b in zip(*np.nonzero(pm[j])):
            r = wc[a, b] / weights[j]
            c0 = max(c0, float((r + 1.0 / r) / 2.0))
            c5 = max(c5, float(r))
    return report, (wc, c0, u.values / wc, c5)


def test_covering_constants_match_plain_loops():
    rng = np.random.default_rng(22)
    for trial in range(60):
        n1, n2 = rng.integers(1, 5, size=2)
        X = sk.ProductSpace(sk.Space(range(n1), 0.1 + rng.random(n1)), sk.Space(range(n2), 0.1 + rng.random(n2)))
        patches = [([a for a in range(n1) if rng.random() < 0.5], [b for b in range(n2) if rng.random() < 0.5])
                   for _ in range(rng.integers(1, 6))]  # empty sides and overlaps
        patches += [patches[j] for j in rng.integers(0, len(patches), size=rng.integers(0, 3))]  # repeats
        if rng.random() < 0.7:
            patches.insert(int(rng.integers(0, len(patches) + 1)), (range(n1), range(n2)))
        if rng.random() < 0.5:
            patches = [(V, W) for V, W in patches if V and W] or [(range(n1), range(n2))]
        cov = sk.RectCovering(X, patches)
        u = rand_positive(rng, X)
        expected, weighted = _reference_constants(cov, u)
        assert sk.validate_covering(cov, u) == expected, trial
        if weighted is None:
            with pytest.raises(ValueError):
                sk.covering_weights(cov)
            continue
        wc, c0, v, c5 = weighted
        weights, got_wc, got_c0 = sk.covering_weights(cov)
        assert np.array_equal(weights, cov.patch_weights())
        assert np.array_equal(got_wc.values, wc) and got_c0 == c0, trial
        assert np.array_equal(sk.special_linfty_weight(cov, u).values, v)
        if expected.admissible:
            L = sk.maximal_kernel(sk.Kernel(X, X, rng.random((n1, n2, n1, n2))), cov)
            cert = sk.sup_bound_certificate(L, cov, u, sk.WeightGrid(X, X, np.ones((n1, n2, n1, n2))), 2, 2)
            assert cert.c5 == c5 and np.array_equal(cert.v.values, v), trial


def test_special_linfty_weight_checks_u_first():
    X = _counting_square(2)
    gap = sk.RectCovering(X, [([0], [0])])  # covering_weights would refuse it
    with pytest.raises(ValueError, match="weight u does not live on the covered space"):
        sk.special_linfty_weight(gap, sk.GridFunction(_counting_square(3), np.ones((3, 3))))


def test_covering_weights_frozen_overlap():
    X = sk.ProductSpace(sk.Space([0, 1], [0.5, 2.0]), sk.counting_space(1))
    cov = sk.RectCovering(X, [([0], [0]), ([0, 1], [0])])
    weights, wc, c0 = sk.covering_weights(cov)
    np.testing.assert_allclose(weights, [0.5, 1.0])
    # list order decides ownership on the overlap
    np.testing.assert_allclose(wc.values, [[0.5], [1.0]])
    assert c0 == pytest.approx(1.25, rel=1e-12)


def test_covering_weights_disjoint_patches():
    X = _counting_square(2)
    cov = sk.RectCovering(X, [([0], [0, 1]), ([1], [0, 1])])
    weights, wc, c0 = sk.covering_weights(cov)
    for j, mask in enumerate(cov.product_masks):
        np.testing.assert_allclose(wc.values[mask], weights[j])
    assert c0 == pytest.approx(1.0)


def test_covering_weights_requires_covering():
    X = _counting_square(2)
    with pytest.raises(ValueError):
        sk.covering_weights(sk.RectCovering(X, [([0], [0])]))


def test_reordered_covering_weights_are_comparable():
    rng = np.random.default_rng(1)
    for _ in range(10):
        sp1 = sk.Space(range(3), 0.2 + 2 * rng.random(3))
        sp2 = sk.Space(range(2), 0.2 + 2 * rng.random(2))
        X = sk.ProductSpace(sp1, sp2)
        cov = rand_covering(rng, X)
        perm = rng.permutation(len(cov.patches))
        cov2 = sk.RectCovering(X, [cov.patches[i] for i in perm])
        _, wc1, c01 = sk.covering_weights(cov)
        _, wc2, c02 = sk.covering_weights(cov2)
        ratio = wc1.values / wc2.values
        bound = (2 * c01) * (2 * c02)
        assert ratio.max() <= bound * (1 + 1e-12)
        assert (1.0 / ratio).max() <= bound * (1 + 1e-12)


def test_maximal_kernel_frozen_full_patch():
    K = lift_1234()
    cov = sk.RectCovering(K.X, [([0, 1], ["*"])])
    M = sk.maximal_kernel(K, cov)
    np.testing.assert_allclose(M.values[:, 0, :, 0], [[3.0, 4.0], [3.0, 4.0]])


def test_maximal_kernel_singleton_patches_give_abs():
    rng = np.random.default_rng(2)
    X = _counting_square(3)
    K = rand_kernel(rng, X, X, complex_values=True)
    patches = [([i], [j]) for i in range(3) for j in range(3)]
    cov = sk.RectCovering(X, patches)
    M = sk.maximal_kernel(K, cov)
    np.testing.assert_allclose(M.values, np.abs(K.values), rtol=1e-12)


def test_maximal_kernel_dominates_and_monotone():
    rng = np.random.default_rng(3)
    X = _counting_square(2)
    cov = rand_covering(rng, X)
    K = rand_kernel(rng, X, X, complex_values=True)
    M = sk.maximal_kernel(K, cov)
    assert np.all(M.values >= np.abs(K.values) - 1e-15)

    bigger = sk.Kernel(X, X, np.abs(K.values) + rng.random(K.values.shape))
    M2 = sk.maximal_kernel(bigger, cov)
    assert np.all(M2.values >= M.values - 1e-15)


def test_maximal_kernel_requires_square_and_covering():
    rng = np.random.default_rng(4)
    X, Y = _counting_square(2), _counting_square(3)
    K = sk.Kernel(X, Y, np.ones(X.shape + Y.shape))
    cov = sk.RectCovering(X, [([0, 1], [0, 1])])
    with pytest.raises(ValueError):
        sk.maximal_kernel(K, cov)

    Ksq = rand_kernel(rng, X, X)
    partial = sk.RectCovering(X, [([0], [0])])
    with pytest.raises(ValueError):
        sk.maximal_kernel(Ksq, partial)


def test_oscillation_singleton_patches_vanish():
    rng = np.random.default_rng(5)
    X = _counting_square(2)
    K = rand_kernel(rng, X, X, complex_values=True)
    patches = [([i], [j]) for i in range(2) for j in range(2)]
    osc = sk.oscillation(K, sk.RectCovering(X, patches))
    np.testing.assert_allclose(osc.values, 0.0, atol=1e-15)


def test_oscillation_frozen_full_patch():
    K = lift_1234()
    cov = sk.RectCovering(K.X, [([0, 1], ["*"])])
    osc = sk.oscillation(K, cov)
    np.testing.assert_allclose(osc.values[:, 0, :, 0], [[1.0, 1.0], [1.0, 1.0]])


def test_oscillation_constant_rows_vanish():
    X = _counting_square(2)
    K = sk.Kernel(X, X, np.ones((2, 2, 2, 2)))
    cov = sk.RectCovering(X, [([0, 1], [0, 1])])
    np.testing.assert_allclose(sk.oscillation(K, cov).values, 0.0, atol=1e-15)


def test_oscillation_phase_can_cancel_sign_flips():
    X = _lifted_space()
    K = sk.Kernel(X, X, np.array([1.0, -1.0, 1.0, -1.0]).reshape(2, 1, 2, 1))
    cov = sk.RectCovering(X, [([0, 1], ["*"])])
    plain = sk.oscillation(K, cov)
    assert plain.values.max() == pytest.approx(2.0)

    signs = np.array([[1.0, -1.0], [-1.0, 1.0]]).reshape(2, 1, 2, 1)
    phase = sk.PhaseGrid(X, X, signs.astype(complex))
    corrected = sk.oscillation(K, cov, phase)
    np.testing.assert_allclose(corrected.values, 0.0, atol=1e-15)


def _oscillation_cube(K, cov, phase=None):
    # the per-patch (n1, n2, t, t) difference cube, kept as the reference
    n1, n2 = cov.space.shape
    gamma = np.ones((n1, n2, n1, n2), dtype=complex) if phase is None else phase.values
    Kv = K.values.astype(complex)
    out = np.zeros(Kv.shape[:2] + (n1, n2))
    for mask in cov.product_masks:
        y1, y2 = np.nonzero(mask)
        Ky = Kv[:, :, y1, y2]
        g = gamma[y1[:, None], y2[:, None], y1[None, :], y2[None, :]]
        diffs = np.abs(Ky[:, :, :, None] - g[None, None, :, :] * Ky[:, :, None, :])
        out[:, :, y1, y2] = np.maximum(out[:, :, y1, y2], diffs.max(axis=3))
    return out


@pytest.mark.parametrize("complex_values", [False, True])
def test_oscillation_matches_the_difference_cube(complex_values):
    rng = np.random.default_rng(21)
    for n1, n2 in [(1, 1), (3, 4), (6, 5)]:
        X = sk.ProductSpace(sk.counting_space(n1), sk.counting_space(n2))
        K = rand_kernel(rng, X, X, complex_values)
        cov = rand_covering(rng, X, max_patches=4)
        phase = sk.PhaseGrid(X, X, np.exp(2j * np.pi * rng.random(X.shape + X.shape)))
        np.testing.assert_array_equal(sk.oscillation(K, cov).values, _oscillation_cube(K, cov))
        np.testing.assert_array_equal(sk.oscillation(K, cov, phase).values, _oscillation_cube(K, cov, phase))


def test_phase_grid_requires_unimodular_entries():
    X = _lifted_space()
    with pytest.raises(ValueError):
        sk.PhaseGrid(X, X, np.full((2, 1, 2, 1), 0.5))


def test_special_linfty_weight_frozen():
    X = sk.ProductSpace(sk.Space([0], [0.5]), sk.counting_space(1))
    cov = sk.RectCovering(X, [([0], [0])])
    u = sk.GridFunction(X, [[1.0]])
    v = sk.special_linfty_weight(cov, u)
    np.testing.assert_allclose(v.values, [[2.0]])  # 1 / min(1, 0.5, 1, 0.5)

    u2 = sk.GridFunction(X, [[4.0]])
    np.testing.assert_allclose(sk.special_linfty_weight(cov, u2).values, [[8.0]])


def test_sup_bound_certificate_chain():
    rng = np.random.default_rng(6)
    X = _counting_square(2)
    cov = sk.RectCovering(X, [([0], [0, 1]), ([1], [0, 1])])
    u = rand_positive(rng, X)
    w = rand_positive(rng, X)
    m = sk.WeightGrid(X, X, 0.5 + rng.random((2, 2, 2, 2)))
    K = rand_kernel(rng, X, X, complex_values=True)
    L = sk.maximal_kernel(K, cov)
    cert = sk.sup_bound_certificate(L, cov, u, m, 2, 2, w)
    assert cert.c6 == pytest.approx(cert.c2 * cert.c3 * cert.c4 * cert.c5, rel=1e-12)
    assert cert.c2 == pytest.approx(cert.c1 * sk.norm_B(L, m), rel=1e-12)

    for _ in range(10):
        f = rand_function(rng, X, complex_values=True)
        lhs = float((np.abs(sk.apply_kernel(K, f).values) / cert.v.values).max())
        rhs = cert.c6 * sk.mixed_norm(f, 2, 2, w)
        assert lhs <= rhs * (1 + 1e-9) + 1e-15


def test_sup_bound_certificate_rejects_gaps():
    X = _counting_square(2)
    partial = sk.RectCovering(X, [([0], [0])])
    u = sk.GridFunction(X, np.ones((2, 2)))
    m = sk.WeightGrid(X, X, np.ones((2, 2, 2, 2)))
    L = sk.Kernel(X, X, np.ones((2, 2, 2, 2)))
    with pytest.raises(ValueError):
        sk.sup_bound_certificate(L, partial, u, m, 2, 2)
