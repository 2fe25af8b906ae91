import ast
import importlib
import inspect
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings

import schurkit as sk

from conftest import rand_function, rand_kernel, rand_product, rand_space, sum_inputs

INF = sk.INF


def _factor(masses, values):
    sp = sk.Space(range(len(masses)), masses)
    return sk.FactorFunction(sp, values)


def test_brute_rho_frozen():
    f = _factor([1, 1, 1], [3.0, 1.0, 0.0])
    assert sk.brute_rho(f, grid_step=1e-3) == pytest.approx(3.0, abs=2e-3)
    assert sk.brute_rho(_factor([1], [1.0]), grid_step=1e-3) == pytest.approx(1.0, abs=2e-3)
    assert sk.brute_rho(_factor([1, 1], [0.0, 0.0]), grid_step=1e-3) == 0.0
    assert sk.brute_rho(_factor([1], [np.inf]), grid_step=1e-3) == np.inf
    with pytest.raises(ValueError):
        sk.brute_rho(f, grid_step=0.0)


def test_brute_rho_never_undershoots():
    # the scan includes lambda = 0 and a point within one step of the
    # optimum, so it can only overshoot, and only slightly
    rng = np.random.default_rng(1)
    for _ in range(10):
        n = int(rng.integers(1, 6))
        f = _factor(0.2 + rng.random(n), rng.random(n))
        exact = sk.rho(f)
        scanned = sk.brute_rho(f, grid_step=1e-4)
        assert scanned >= exact - 1e-12
        assert scanned <= exact + 1e-4 + 1e-12


def test_brute_corner_identity_and_zero():
    X = sk.ProductSpace(sk.counting_space(2), sk.counting_space(2))
    I = sk.identity_kernel(X)
    Z = sk.Kernel(X, X, np.zeros((2, 2, 2, 2)))
    for p, q in [(1, 1), (1, INF), (INF, 1), (INF, INF)]:
        assert sk.brute_corner_opnorm(I, p, q) == pytest.approx(1.0, rel=1e-12)
        assert sk.brute_corner_opnorm(Z, p, q) == 0.0


def test_brute_corner_matches_fast_path():
    rng = np.random.default_rng(2)
    for _ in range(30):
        K = rand_kernel(rng).abs()
        for p, q in [(1, 1), (1, INF), (INF, 1), (INF, INF)]:
            assert sk.brute_corner_opnorm(K, p, q) == pytest.approx(
                sk.corner_opnorm(K, p, q), rel=1e-12
            )


def test_brute_corner_validation():
    K = sk.lift_plain_kernel([[1.0, 2.0], [3.0, 4.0]])
    with pytest.raises(ValueError):
        sk.brute_corner_opnorm(K, 2, 2)
    neg = sk.Kernel(K.X, K.Y, -K.values)
    with pytest.raises(ValueError):
        sk.brute_corner_opnorm(neg, 1, 1)


def test_brute_sum_norm_upper_frozen():
    X = sk.ProductSpace(sk.singleton_space(), sk.singleton_space())
    point = sk.GridFunction(X, [[1.0]])
    assert sk.brute_sum_norm_upper(point) == pytest.approx(1.0, rel=1e-12)
    assert sk.brute_sum_norm_upper(sk.GridFunction(X, [[0.0]])) == 0.0
    with pytest.raises(ValueError):
        sk.brute_sum_norm_upper(point, trials=0)


def test_brute_sum_norm_upper_sandwich():
    rng = np.random.default_rng(3)
    for _ in range(15):
        X = rand_product(rng)
        F = rand_function(rng, X)
        upper = sk.brute_sum_norm_upper(F, trials=8, seed=1)
        target = sk.rho_tensor(F)
        assert upper >= target - 1e-12
        assert upper <= 16.0 * target * (1 + 1e-12) + 1e-15


def _mixed_norm(part, space, p, q):
    return sk.mixed_norm(sk.GridFunction(space, part), p, q)


def _broadcast_corner_norm(part, space, p, q):
    # a corner mixed norm summed as the oracle sums it: broadcast multiply, then sum
    a = np.abs(part)
    inner = (a * space.factor1.masses[:, None]).sum(axis=0) if p == 1 else a.max(axis=0)
    return (inner * space.factor2.masses).sum() if q == 1 else inner.max()


def _candidates_per_trial(F, trials, seed, norm=_mixed_norm):
    """Norm sums of the oracle's candidates in its order, one at a time,
    each part measured by `norm` (by default through GridFunction and mixed_norm).
    The thresholding candidate is measured on `split_four`'s parts; with the
    default `norm` its sum is `sum(split_four(F).corner_norms())`."""
    space = F.space
    exponents = [(1, 1), (INF, INF), (1, INF), (INF, 1)]

    def norm_sum(parts):
        return sum(norm(part, space, p, q) for part, (p, q) in zip(parts, exponents))

    sums = [norm_sum([part.values for part in sk.split_four(F).parts])]
    zero = np.zeros(space.shape)
    for slot in range(4):
        parts = [zero, zero, zero, zero]
        parts[slot] = F.values
        sums.append(norm_sum(parts))
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        weights = rng.dirichlet([1.0] * 4, size=space.shape)
        sums.append(norm_sum([F.values * weights[:, :, k] for k in range(4)]))
    return np.array(sums)


ORACLE_SHAPES = [(1, 1), (17, 1), (1, 17), (5, 5), (64, 64)]


@pytest.mark.parametrize("shape", ORACLE_SHAPES, ids="{0[0]}x{0[1]}".format)
@pytest.mark.parametrize("complex_values", [False, True], ids=["real", "cplx"])
def test_sum_norm_upper_matches_per_trial_reference(shape, complex_values, monkeypatch):
    rng = np.random.default_rng([21, *shape, int(complex_values)])
    X = sk.ProductSpace(rand_space(rng, shape[0], lo=0.05), rand_space(rng, shape[1], lo=0.05))
    F = rand_function(rng, X, complex_values=complex_values)
    batched = sk.oracles._part_norm_sums
    seen = []
    monkeypatch.setattr(sk.oracles, "_part_norm_sums", lambda *args: seen.append(batched(*args)) or seen[-1])
    for chunk_bytes in (sk.oracles._CHUNK_BYTES, 3 * 4 * 8 * shape[0] * shape[1]):
        # the second budget makes chunks of 3 trials: 5 -> 3 + 2, 64 -> 21 x 3 + 1
        monkeypatch.setattr(sk.oracles, "_CHUNK_BYTES", chunk_bytes)
        for trials in (1, 5, 64):
            want = _candidates_per_trial(F, trials, seed=7)
            seen.clear()
            got = sk.brute_sum_norm_upper(F, trials=trials, seed=7)
            # one block for the oracle's own thresholding split, then the single parts, then the chunks
            assert [len(block) for block in seen[:2]] == [1, 4]
            assert want[0] == sum(sk.split_four(F).corner_norms())
            np.testing.assert_allclose(np.concatenate(seen), want, rtol=1e-15, atol=0.0)
            if not complex_values:  # |F * w| = |F| * w exactly, and the reference sums in the oracle's order
                exact = _candidates_per_trial(F, trials, seed=7, norm=_broadcast_corner_norm)
                np.testing.assert_array_equal(np.concatenate(seen), exact)
            assert got == pytest.approx(want.min(), rel=1e-15, abs=0.0)


@pytest.mark.parametrize("shape", [(5, 5), (9, 8), (64, 64)], ids="{0[0]}x{0[1]}".format)
def test_chunked_dirichlet_draws_equal_per_trial_draws(shape):
    rng = np.random.default_rng(5)
    chunks = [rng.dirichlet([1.0] * 4, size=(t, *shape)) for t in (8, 8, 3)]
    rng = np.random.default_rng(5)
    per_trial = np.stack([rng.dirichlet([1.0] * 4, size=shape) for _ in range(19)])
    np.testing.assert_array_equal(np.concatenate(chunks), per_trial)


def test_sum_norm_upper_memory_is_chunked():
    rng = np.random.default_rng(22)
    X = sk.ProductSpace(rand_space(rng, 64), rand_space(rng, 64))
    F = rand_function(rng, X, complex_values=True)
    sk.brute_sum_norm_upper(F, trials=2)  # warm up lazily built state
    tracemalloc.start()
    try:
        sk.brute_sum_norm_upper(F, trials=64)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20


def test_sum_norm_upper_calls_no_fast_path(monkeypatch):
    # the oracle must give the same values with the sum-space and mixed-norm
    # reductions it checks switched off
    cases = []
    for shape in ((1, 1), (1, 17), (64, 64)):
        for complex_values in (False, True):
            rng = np.random.default_rng([23, *shape, int(complex_values)])
            X = sk.ProductSpace(rand_space(rng, shape[0], lo=0.05), rand_space(rng, shape[1], lo=0.05))
            F = rand_function(rng, X, complex_values=complex_values)
            cases.append((F, sk.brute_sum_norm_upper(F, trials=8, seed=3)))

    def refuse(*args, **kwargs):
        raise AssertionError("brute_sum_norm_upper reached a fast path")

    for module, name in (("sum_space", "split_four"), ("sum_space", "_rho_rows"),
                         ("mixed_norm", "mixed_norm"), ("mixed_norm", "lp_norms")):
        monkeypatch.setattr(importlib.import_module(f"schurkit.{module}"), name, refuse)
    with pytest.raises(AssertionError, match="fast path"):
        sk.split_four(cases[0][0])
    for F, want in cases:
        assert sk.brute_sum_norm_upper(F, trials=8, seed=3) == want


def test_oracles_import_nothing_they_check():
    tree = ast.parse(inspect.getsource(sk.oracles))
    imports = {node.module: {alias.name for alias in node.names}
               for node in tree.body if isinstance(node, ast.ImportFrom) and node.level}
    assert imports["sum_space"] == {"FactorFunction"}
    assert imports["mixed_norm"] == {"INF", "GridFunction"}


@settings(max_examples=60, deadline=None)
@given(sum_inputs())
def test_threshold_split_equals_split_four(F):
    absF = np.abs(F.values)
    split = sk.split_four(F)
    G = split.profile.values
    A, B = G > 2.0 * split.alpha, absF > 2.0 * G
    weights = sk.oracles._threshold_weights(absF, F.space.factor1.masses, F.space.factor2.masses)
    assert weights.shape == (1, *F.space.shape, 4)
    np.testing.assert_array_equal(weights[0], np.stack([A & B, ~A & ~B, ~A & B, A & ~B], axis=-1))
    for k, part in enumerate(split.parts):
        np.testing.assert_array_equal(np.where(weights[0, ..., k] == 1.0, F.values, 0.0), part.values)


def test_breakpoint_costs_frozen():
    costs = sk.oracles._breakpoint_costs
    masses = np.array([1.0, 1.0, 1.0])
    assert costs(np.array([3.0, 1.0, 0.0]), masses) == 3.0
    assert costs(np.array([0.0, 0.0, 0.0]), masses) == 0.0
    assert costs(np.array([5.0]), np.array([0.5])) == 2.5  # lam = 0: all of the mass is below 1
    assert costs(np.array([5.0]), np.array([4.0])) == 5.0
    # unit total mass: lam = 0 and lam = 2 both cost the integral 4 * 0.5 + 2 * 0.5
    assert costs(np.array([2.0, 4.0]), np.array([0.5, 0.5])) == 3.0
    assert costs(np.array([2.0, 4.0]), np.array([1.5, 0.5])) == 3.0  # lam = 2: 2 * 0.5 + 2
    # rows are independent, and masses far above 1 do not overflow
    big = np.array([[1e308, 1e308], [2.0, 1.0]])
    np.testing.assert_array_equal(costs(big, np.array([10.0, 10.0])), [1e308, 2.0])
