import itertools

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

import schurkit as sk

from conftest import counting_grid_1234, rand_function, rand_product, rand_space

INF = sk.INF


def _factor(masses, values):
    sp = sk.Space(range(len(masses)), masses)
    return sk.FactorFunction(sp, values)


def test_rho_frozen_values():
    assert sk.rho(_factor([1, 1, 1], [3.0, 1.0, 0.0])) == pytest.approx(3.0, rel=1e-12)
    assert sk.rho(_factor([1], [1.0])) == pytest.approx(1.0, rel=1e-12)
    assert sk.rho(_factor([0.5], [5.0])) == pytest.approx(2.5, rel=1e-12)
    assert sk.rho(_factor([1, 1], [0.0, 0.0])) == 0.0
    assert sk.rho(_factor([1, 1], [np.inf, 1.0])) == np.inf


def test_factor_function_validation():
    sp = sk.counting_space(2)
    with pytest.raises(ValueError):
        sk.FactorFunction(sp, [-1.0, 0.0])
    with pytest.raises(ValueError):
        sk.FactorFunction(sp, [np.nan, 0.0])
    with pytest.raises(ValueError):
        sk.FactorFunction(sp, [1.0])  # wrong length
    # +inf entries are allowed
    f = sk.FactorFunction(sp, [np.inf, 0.0])
    assert f.values[0] == np.inf


def test_factor_function_copies_the_callers_values():
    values = np.array([2.0, 1.0])
    f = sk.FactorFunction(sk.counting_space(2), values)
    assert values.flags.writeable
    values[0] = 7.0
    assert f.values[0] == 2.0
    assert not f.values.flags.writeable


def test_rho_split_frozen():
    bounded, integrable = sk.rho_split(_factor([1, 1, 1], [3.0, 1.0, 0.0]))
    np.testing.assert_allclose(bounded.values, [3.0, 1.0, 0.0])
    np.testing.assert_allclose(integrable.values, [0.0, 0.0, 0.0])

    bounded, integrable = sk.rho_split(_factor([0.1, 1.0], [10.0, 1.0]))
    np.testing.assert_allclose(bounded.values, [0.0, 1.0])
    np.testing.assert_allclose(integrable.values, [10.0, 0.0])


def test_rho_split_guarantees():
    rng = np.random.default_rng(1)
    for _ in range(25):
        n = int(rng.integers(1, 8))
        f = _factor(0.2 + rng.random(n), 5.0 * rng.random(n))
        alpha = sk.rho(f)
        bounded, integrable = sk.rho_split(f)
        np.testing.assert_allclose(bounded.values + integrable.values, f.values, rtol=1e-12)
        assert bounded.values.max(initial=0.0) <= 2 * alpha + 1e-12
        total = float((integrable.values * integrable.space.masses).sum())
        assert total <= 2 * alpha + 1e-12


@settings(max_examples=50)
@given(
    st.lists(st.floats(min_value=0, max_value=30), min_size=1, max_size=6),
    st.floats(min_value=0.1, max_value=4.0),
)
def test_rho_homogeneous_and_monotone(vals, c):
    f = _factor(np.ones(len(vals)), vals)
    g = _factor(np.ones(len(vals)), [c * v for v in vals])
    assert sk.rho(g) == pytest.approx(c * sk.rho(f), rel=1e-9, abs=1e-12)
    smaller = _factor(np.ones(len(vals)), [0.5 * v for v in vals])
    assert sk.rho(smaller) <= sk.rho(f) + 1e-12


def test_rho_agrees_with_brute_oracle():
    rng = np.random.default_rng(2)
    # integer values with a grid step that lands on every breakpoint: exact
    f = _factor([1, 1, 1, 1], [3.0, 1.0, 0.0, 2.0])
    assert sk.brute_rho(f, grid_step=0.5) == pytest.approx(sk.rho(f), abs=1e-12)
    # generic values: agreement up to the scan resolution
    for _ in range(10):
        n = int(rng.integers(1, 6))
        f = _factor(0.2 + rng.random(n), rng.random(n))
        assert sk.brute_rho(f, grid_step=1e-4) == pytest.approx(sk.rho(f), abs=2e-4)


def test_rho_tensor_frozen():
    X = sk.ProductSpace(sk.counting_space(1), sk.counting_space(2))
    F = sk.GridFunction(X, [[4.0, 1.0]])
    assert sk.rho_tensor(F) == pytest.approx(4.0, rel=1e-12)

    one_pt = sk.ProductSpace(sk.singleton_space(), sk.singleton_space())
    assert sk.rho_tensor(sk.GridFunction(one_pt, [[1.0]])) == pytest.approx(1.0, rel=1e-12)


def test_rho_tensor_degenerate_second_factor():
    rng = np.random.default_rng(3)
    sp1 = sk.Space(range(4), 0.2 + rng.random(4))
    X = sk.ProductSpace(sp1, sk.singleton_space())
    vals = rng.random(4)
    F = sk.GridFunction(X, vals[:, None])
    assert sk.rho_tensor(F) == pytest.approx(
        sk.rho(sk.FactorFunction(sp1, vals)), rel=1e-12
    )


def test_rho_tensor_homogeneous_and_validated():
    rng = np.random.default_rng(4)
    X = rand_product(rng)
    F = rand_function(rng, X)
    assert sk.rho_tensor(3.0 * F) == pytest.approx(3.0 * sk.rho_tensor(F), rel=1e-12)
    with pytest.raises(ValueError):
        sk.rho_tensor(sk.GridFunction(X, -np.ones(X.shape)))


def test_intersection_norm_frozen():
    F = counting_grid_1234()
    assert sk.intersection_norm(F) == pytest.approx(10.0, rel=1e-12)

    X = sk.ProductSpace(sk.singleton_space(), sk.singleton_space())
    assert sk.intersection_norm(sk.GridFunction(X, [[1.0]])) == pytest.approx(1.0, rel=1e-12)
    assert sk.intersection_norm(sk.GridFunction(X, [[0.0]])) == 0.0


def test_intersection_norm_is_max_of_corners():
    rng = np.random.default_rng(5)
    for _ in range(15):
        X = rand_product(rng)
        F = rand_function(rng, X, complex_values=True)
        corners = [sk.mixed_norm(F, p, q) for p, q in [(1, 1), (INF, INF), (1, INF), (INF, 1)]]
        assert sk.intersection_norm(F) == pytest.approx(max(corners), rel=1e-12)


def test_split_four_point_indicator():
    X = sk.ProductSpace(sk.singleton_space(), sk.singleton_space())
    F = sk.GridFunction(X, [[1.0]])
    split = sk.split_four(F)
    np.testing.assert_allclose(split.f2.values, F.values)
    for part in (split.f1, split.f3, split.f4):
        np.testing.assert_allclose(part.values, 0.0)


def test_split_four_reconstructs_and_bounds_parts():
    rng = np.random.default_rng(6)
    for _ in range(25):
        X = rand_product(rng)
        F = rand_function(rng, X, complex_values=bool(rng.integers(2)))
        split = sk.split_four(F)
        total = split.f1.values + split.f2.values + split.f3.values + split.f4.values
        np.testing.assert_allclose(total, F.values, rtol=1e-12, atol=1e-15)

        cap = 4.0 * sk.rho_tensor(F.abs())
        for norm in split.corner_norms():
            assert norm <= cap * (1 + 1e-12)
        assert sum(split.corner_norms()) <= 16.0 * sk.rho_tensor(F.abs()) * (1 + 1e-12)


def test_split_four_supports_disjoint_parts():
    rng = np.random.default_rng(7)
    X = rand_product(rng)
    F = rand_function(rng, X)
    split = sk.split_four(F)
    supports = [np.abs(p.values) > 0 for p in split.parts]
    overlap = sum(s.astype(int) for s in supports)
    assert overlap.max(initial=0) <= 1


def test_rectangle_lower_bound_frozen():
    sp1 = sk.Space(["a", "b"], [1.0, 1.0])
    sp2 = sk.Space(["u"], [0.25])
    X = sk.ProductSpace(sp1, sp2)
    assert sk.rectangle_lower_bound(X, ["a", "b"], ["u"]) == pytest.approx(0.25, rel=1e-12)

    Y = sk.ProductSpace(sk.counting_space(2), sk.counting_space(2))
    assert sk.rectangle_lower_bound(Y, [0], [1]) == pytest.approx(1.0, rel=1e-12)
    assert sk.rectangle_lower_bound(Y, [], [0, 1]) == 0.0
    with pytest.raises(ValueError):
        sk.rectangle_lower_bound(Y, ["missing"], [0])


def test_rectangle_indicator_norm_is_product_formula():
    rng = np.random.default_rng(8)
    for _ in range(15):
        sp1 = sk.Space(range(3), 0.2 + 2 * rng.random(3))
        sp2 = sk.Space(range(3), 0.2 + 2 * rng.random(3))
        X = sk.ProductSpace(sp1, sp2)
        V = [p for p in sp1.points if rng.random() < 0.6] or [0]
        W = [p for p in sp2.points if rng.random() < 0.6] or [0]
        iv = [sp1.index_of(p) for p in V]
        iw = [sp2.index_of(p) for p in W]
        ind = np.zeros((3, 3))
        ind[np.ix_(iv, iw)] = 1.0
        got = sk.rho_tensor(sk.GridFunction(X, ind))
        expect = min(1.0, sp1.subset_mass(V)) * min(1.0, sp2.subset_mass(W))
        assert got == pytest.approx(expect, rel=1e-12)
        assert got >= sk.rectangle_lower_bound(X, V, W) - 1e-12


def test_pairing_sup_frozen():
    X = sk.ProductSpace(sk.singleton_space(), sk.singleton_space())
    point = sk.GridFunction(X, [[1.0]])
    assert sk.associate_pairing_sup(point) == pytest.approx(1.0, rel=1e-12)
    assert sk.associate_pairing_sup(sk.GridFunction(X, [[0.0]])) == 0.0


def test_pairing_sup_attains_tensor_norm():
    rng = np.random.default_rng(9)
    for _ in range(15):
        X = rand_product(rng)
        F = rand_function(rng, X, complex_values=bool(rng.integers(2)))
        pairing = sk.associate_pairing_sup(F)
        target = sk.rho_tensor(F.abs())
        assert pairing >= target / 16.0 - 1e-9
        # the greedy dual witness actually achieves the tensor value
        assert pairing >= target - 1e-9


def test_pairing_below_holder_bound():
    rng = np.random.default_rng(10)
    for _ in range(15):
        X = rand_product(rng)
        F = rand_function(rng, X, complex_values=True)
        G = rand_function(rng, X, complex_values=True)
        pairing = float(np.abs((F.values * G.values * X.mass_grid).sum()))
        bound = sk.holder_upper_bound(sk.split_four(F), G)
        assert pairing <= bound * (1 + 1e-12) + 1e-15


def test_four_split_norm_sum_sandwich():
    rng = np.random.default_rng(11)
    for _ in range(15):
        X = rand_product(rng)
        F = rand_function(rng, X)
        split = sk.split_four(F)
        tensor = sk.rho_tensor(F)
        assert tensor <= sum(split.corner_norms()) * (1 + 1e-12) + 1e-15
        assert sum(split.corner_norms()) <= 16.0 * tensor * (1 + 1e-12) + 1e-15


def _rho_excess_matrix(vals, masses):
    # the former dense formula: psi(lam) = lam + sum((vals - lam)_+ * masses)
    # minimized over lam in {0} and the values, via an (n+1) x n excess matrix
    lams = np.concatenate(([0.0], np.unique(vals)))
    excess = np.clip(vals[None, :] - lams[:, None], 0.0, None)
    return float((lams + excess @ masses).min())


def test_rho_sorted_cumsum_matches_references():
    rng = np.random.default_rng(12)
    for n in (1, 2, 3, 7, 40, 500):
        for lo in (0.01, 0.2, 2.0):  # total mass below, around and above 1
            masses = lo + rng.random(n) / n
            vals = rng.random(n) * 10.0
            vals[rng.random(n) < 0.2] = 0.0
            vals[: n // 3] = vals[n // 3 : 2 * (n // 3)]  # ties
            expect = _rho_excess_matrix(vals, masses)
            assert sk.rho(_factor(masses, vals)) == pytest.approx(expect, rel=1e-12, abs=1e-300)
    # integer values and dyadic masses: a 0.5 scan lands on every breakpoint exactly
    for _ in range(20):
        n = int(rng.integers(1, 7))
        f = _factor(0.25 * rng.integers(1, 6, size=n), rng.integers(0, 7, size=n).astype(float))
        assert sk.rho(f) == pytest.approx(sk.brute_rho(f, grid_step=0.5), rel=1e-12, abs=1e-300)


def test_rho_memory_is_linear():
    import tracemalloc

    rng = np.random.default_rng(13)
    n = 4000  # the excess-matrix form would allocate (n + 1) * n * 8 bytes = 128 MB
    f = _factor(0.1 + rng.random(n), rng.random(n))
    tracemalloc.start()
    try:
        sk.rho(f)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * n * 8


def _greedy_budget_loop(vals, masses):
    u = [0.0] * len(vals)
    before = 0.0
    for i in sorted(range(len(vals)), key=lambda i: -vals[i]):
        u[i] = min(1.0, max(0.0, (1.0 - before) / masses[i]))
        before += masses[i]
    return u


def _greedy_partner_loop(absF, m1, m2):
    n1, n2 = absF.shape
    cols = [_greedy_budget_loop(absF[:, j], m1) for j in range(n2)]
    payoff = [sum(absF[i, j] * cols[j][i] * m1[i] for i in range(n1)) for j in range(n2)]
    h = _greedy_budget_loop(payoff, m2)
    return np.array([[cols[j][i] * h[j] for j in range(n2)] for i in range(n1)])


RECTANGLE_CAP = 65536  # the former search enumerated rectangles up to this count


def _pairing_sup_one_at_a_time(F, trials, seed):
    """The former full candidate set, each paired separately through sk.intersection_norm."""
    space = F.space
    n1, n2 = space.shape
    absF = np.abs(F.values)
    weighted = absF * space.mass_grid
    candidates = []
    if (2**n1 - 1) * (2**n2 - 1) <= RECTANGLE_CAP:
        for V in itertools.product((0.0, 1.0), repeat=n1):
            for W in itertools.product((0.0, 1.0), repeat=n2):
                if any(V) and any(W):
                    candidates.append(np.outer(V, W))
    else:
        for i in range(n1):
            for j in range(n2):
                g = np.zeros((n1, n2))
                g[i, j] = 1.0
                candidates.append(g)
    candidates.append(np.ones((n1, n2)))
    candidates.append(_greedy_partner_loop(absF, space.factor1.masses, space.factor2.masses))
    rng = np.random.default_rng(seed)
    candidates.extend(rng.random((n1, n2)) for _ in range(trials))
    best = 0.0
    for g in candidates:
        norm = sk.intersection_norm(sk.GridFunction(space, g))
        if norm > 0.0:
            best = max(best, float((weighted * g).sum()) / norm)
    return best


PAIRING_SHAPES = [(3, 4), (5, 5), (6, 7), (17, 1), (9, 8)]  # the last two pass RECTANGLE_CAP


@pytest.mark.parametrize("shape", PAIRING_SHAPES, ids="{0[0]}x{0[1]}".format)
@pytest.mark.parametrize("complex_values", [False, True], ids=["real", "cplx"])
def test_pairing_sup_matches_one_at_a_time_reference(shape, complex_values):
    rng = np.random.default_rng([14, *shape, int(complex_values)])
    X = sk.ProductSpace(rand_space(rng, shape[0], lo=0.05), rand_space(rng, shape[1], lo=0.05))
    F = rand_function(rng, X, complex_values=complex_values)
    got = sk.associate_pairing_sup(F)
    assert got == pytest.approx(_pairing_sup_one_at_a_time(F, trials=8, seed=3), rel=1e-12)


def _subset_indicators(n):
    masks = np.arange(1, 2**n)
    return ((masks[:, None] >> np.arange(n)) & 1).astype(float)


@pytest.mark.parametrize("shape", PAIRING_SHAPES, ids="{0[0]}x{0[1]}".format)
@pytest.mark.parametrize("complex_values", [False, True], ids=["real", "cplx"])
def test_rectangle_pairings_stay_below_pairing_sup(shape, complex_values):
    # every normalized rectangle indicator is a product partner, so none
    # pairs above the greedy partner
    rng = np.random.default_rng([15, *shape, int(complex_values)])
    X = sk.ProductSpace(*(sk.Space(range(n), 0.05 + 2.0 * rng.random(n)) for n in shape))
    F = rand_function(rng, X, complex_values=complex_values)
    S1, S2 = _subset_indicators(shape[0]), _subset_indicators(shape[1])
    mu1, mu2 = S1 @ X.factor1.masses, S2 @ X.factor2.masses
    norm = np.maximum(np.maximum(1.0, mu1[:, None]), np.maximum(mu2[None, :], np.outer(mu1, mu2)))
    rectangles = S1 @ (np.abs(F.values) * X.mass_grid) @ S2.T / norm
    assert rectangles.max() <= sk.associate_pairing_sup(F) * (1 + 1e-12)


@st.composite
def _sum_inputs(draw):
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


@settings(max_examples=60, deadline=None)
@given(_sum_inputs())
def test_pairing_sits_between_tensor_norm_and_upper_estimates(F):
    tensor = sk.rho_tensor(F.abs())
    pairing = sk.associate_pairing_sup(F)
    upper = sk.brute_sum_norm_upper(F, trials=8, seed=1)
    norm_sum = sum(sk.split_four(F).corner_norms())
    rel = 1 + 1e-12
    assert tensor <= pairing * rel
    assert pairing <= upper * rel
    assert upper <= norm_sum * rel


@pytest.mark.parametrize("shape", [(3, 3), (9, 8)], ids=["rectangles", "points"])
def test_pairing_sup_of_rectangle_indicator_is_exact(shape):
    # Hoelder: integral of G over V x W is at most ||G||_1, mu1(V) mu2(W) ||G||_inf,
    # mu2(W) ||G||_{1,inf} and mu1(V) ||G||_{inf,1}, so the sup is rectangle_lower_bound
    rng = np.random.default_rng([17, *shape])
    for _ in range(10):
        X = sk.ProductSpace(*(sk.Space(range(n), 0.05 + 2.0 * rng.random(n)) for n in shape))
        V = [p for p in X.factor1.points if rng.random() < 0.5] or [0]
        W = [p for p in X.factor2.points if rng.random() < 0.5] or [0]
        ind = np.zeros(shape)
        ind[np.ix_(V, W)] = 1.0
        got = sk.associate_pairing_sup(sk.GridFunction(X, ind))
        assert got == pytest.approx(sk.rectangle_lower_bound(X, V, W), rel=1e-12)


def _profile_inputs():
    """Grids with ties, zero columns and non-unit masses, in sizes past numpy's pairwise block."""
    rng = np.random.default_rng(18)
    for n1, n2 in [(1, 1), (1, 9), (17, 1), (5, 5), (9, 8), (40, 13), (300, 7)]:
        m1 = 0.05 + 2.0 * rng.random(n1)
        m2 = 0.05 + 2.0 * rng.random(n2)
        # ties within each column; the column scales keep slice pay-offs apart,
        # where a one-ulp difference would hand the outer budget to another slice
        vals = np.round(rng.random((n1, n2)) * 5.0, 1) * (1.0 + rng.random(n2))
        vals[:, rng.integers(n2)] = 0.0
        yield sk.ProductSpace(sk.Space(range(n1), m1), sk.Space(range(n2), m2)), vals


def test_slice_profile_equals_per_column_rho():
    from schurkit.sum_space import _rho_array, _slice_profile

    for X, vals in _profile_inputs():
        m1 = X.factor1.masses
        expect = np.array([_rho_array(np.ascontiguousarray(vals[:, j]), m1) for j in range(vals.shape[1])])
        np.testing.assert_array_equal(_slice_profile(vals, m1), expect)


def test_slice_profile_column_with_inf_gives_inf():
    from schurkit.sum_space import _slice_profile

    vals = np.array([[1.0, 2.0, 0.0], [np.inf, 3.0, 0.0], [0.5, 1.0, 0.0]])
    with np.errstate(all="raise"):
        profile = _slice_profile(vals, np.array([0.5, 0.7, 2.0]))
    assert profile[0] == INF
    assert np.all(np.isfinite(profile[1:]))
    assert profile[2] == 0.0


def test_greedy_pairing_partner_matches_loop_reference():
    from schurkit.sum_space import _greedy_pairing_partner

    for X, vals in _profile_inputs():
        got = _greedy_pairing_partner(vals, X)
        want = _greedy_partner_loop(vals, X.factor1.masses, X.factor2.masses)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-15)


def test_split_four_parts_match_per_column_reference():
    from schurkit.sum_space import _rho_array

    for X, vals in _profile_inputs():
        phase = np.exp(2j * np.pi * np.random.default_rng(vals.shape).random(vals.shape))
        for F in (sk.GridFunction(X, vals), sk.GridFunction(X, vals * phase)):
            absF = np.abs(F.values)
            profile = np.array([_rho_array(absF[:, j].copy(), X.factor1.masses) for j in range(X.shape[1])])
            alpha = _rho_array(profile, X.factor2.masses)
            A = (profile > 2.0 * alpha)[None, :]
            B = absF > 2.0 * profile[None, :]
            split = sk.split_four(F)
            assert split.alpha == alpha
            np.testing.assert_array_equal(split.profile.values, profile)
            for part, mask in zip(split.parts, (A & B, ~A & ~B, ~A & B, A & ~B)):
                np.testing.assert_array_equal(part.values, np.where(mask, F.values, 0.0))
