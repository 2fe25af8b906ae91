"""End-to-end acceptance checks, one per numbered criterion.

Each test prints a single PASS/FAIL line (visible with pytest -s) and then
asserts. The random instances are all seeded, so reruns are byte-stable.
"""

import numpy as np
import pytest

import schurkit as sk

from conftest import EXPONENT_GRID, rand_covering

INF = sk.INF

CORNERS = ((1.0, 1.0), (INF, INF), (1.0, INF), (INF, 1.0))
CORNER_CONSTANT = {(1.0, 1.0): "c2", (INF, INF): "c1", (1.0, INF): "c3", (INF, 1.0): "c4"}


def _report(number, label, violations):
    status = "FAIL" if violations else "PASS"
    print(f"criterion {number:02d} [{label}]: {status}")
    assert not violations, f"criterion {number} failed: {violations[:5]}"


def _space(rng, n):
    return sk.Space(range(n), 0.2 + rng.random(n))


def _product(rng, max_size=3):
    return sk.ProductSpace(
        _space(rng, int(rng.integers(1, max_size + 1))),
        _space(rng, int(rng.integers(1, max_size + 1))),
    )


def _nonneg_kernels(count, seed):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        X, Y = _product(rng), _product(rng)
        yield sk.Kernel(X, Y, rng.random(X.shape + Y.shape))


def test_criterion_01_corner_opnorms_match_constants():
    violations = []
    for i, K in enumerate(_nonneg_kernels(200, seed=101)):
        constants = sk.schur_constants(K)._asdict()
        for p, q in CORNERS:
            exact = sk.corner_opnorm(K, p, q)
            expect = constants[CORNER_CONSTANT[(p, q)]]
            if exact != pytest.approx(expect, rel=1e-12):
                violations.append((i, p, q, exact, expect))
            oracle = sk.brute_corner_opnorm(K, p, q)
            if exact != pytest.approx(oracle, rel=1e-12):
                violations.append((i, p, q, exact, oracle))
    _report(1, "corner operator norms", violations)


def test_criterion_02_lower_search_stays_below_schur_bound():
    violations = []
    for i, K in enumerate(_nonneg_kernels(200, seed=101)):
        constants = sk.schur_constants(K)
        for p in EXPONENT_GRID:
            for q in EXPONENT_GRID:
                bound = sk.schur_bound(constants, p, q)
                if p == q and bound != max(constants.c1, constants.c2):
                    violations.append((i, p, q, "diagonal bound shape"))
                lower = sk.opnorm_lower_search(K, p, q, trials=64, seed=7)
                if lower > bound + 1e-9:
                    violations.append((i, p, q, lower, bound))
    _report(2, "operator norm bounded by Schur constants", violations)


def test_criterion_03_weighted_algebra_inequalities():
    rng = np.random.default_rng(103)
    violations = []
    for i in range(100):
        X = _product(rng)
        K = sk.Kernel(X, X, rng.standard_normal(X.shape + X.shape)        # complex entries
                      + 1j * rng.standard_normal(X.shape + X.shape))
        L = sk.Kernel(X, X, rng.standard_normal(X.shape + X.shape)
                      + 1j * rng.standard_normal(X.shape + X.shape))
        m = sk.WeightGrid(X, X, 0.5 + rng.random(X.shape + X.shape))
        f = sk.GridFunction(X, rng.standard_normal(X.shape) + 1j * rng.standard_normal(X.shape))
        v = sk.GridFunction(X, 0.5 + rng.random(X.shape))
        w = sk.GridFunction(X, 0.5 + rng.random(X.shape))

        nb = sk.norm_B(K, m)
        if sk.norm_B(sk.transpose(K), sk.transpose(m)) != pytest.approx(nb, rel=1e-9):
            violations.append((i, "transpose equality"))
        if sk.norm_A(K, m) > nb * (1 + 1e-9):
            violations.append((i, "norm_A exceeds norm_B"))

        mv = sk.mv_weight(v)
        C_chain = sk.submult_weight_constant(mv, mv, mv)
        lhs = sk.norm_B(sk.compose(K, L), mv)
        rhs = C_chain * sk.norm_B(K, mv) * sk.norm_B(L, mv)
        if lhs > rhs * (1 + 1e-9):
            violations.append((i, "submultiplicativity", lhs, rhs))

        C_dom = sk.weight_domination_constant(v, w, m)
        out = v * sk.apply_kernel(K, f)
        for p in EXPONENT_GRID:
            for q in EXPONENT_GRID:
                left = sk.mixed_norm(out, p, q)
                right = C_dom * nb * sk.mixed_norm(w * f, p, q)
                if left > right * (1 + 1e-9) + 1e-15:
                    violations.append((i, p, q, "operator bound", left, right))
    _report(3, "weighted kernel algebra", violations)


def test_criterion_04_rank_one_kernels_land_in_the_algebra():
    rng = np.random.default_rng(104)
    violations = []
    for i in range(100):
        X, Y = _product(rng), _product(rng)
        f = sk.GridFunction(X, rng.standard_normal(X.shape) + 1j * rng.standard_normal(X.shape))
        g = sk.GridFunction(Y, rng.standard_normal(Y.shape) + 1j * rng.standard_normal(Y.shape))
        v = sk.GridFunction(X, 0.5 + rng.random(X.shape))
        w = sk.GridFunction(Y, 0.5 + rng.random(Y.shape))
        m = sk.WeightGrid(X, Y, 0.5 + rng.random(X.shape + Y.shape))
        C = float((m.values / (v.values[:, :, None, None] * w.values[None, None, :, :])).max())
        lhs = sk.norm_B(sk.tensor_kernel(f, g), m)
        rhs = 2.0 * C * sk.intersection_norm(v * f) * sk.intersection_norm(w * g)
        if lhs > rhs * (1 + 1e-9):
            violations.append((i, lhs, rhs))
    _report(4, "rank-one kernels controlled by intersection norms", violations)


def test_criterion_05_sum_space_norm_and_splitting():
    rng = np.random.default_rng(105)
    violations = []

    for i in range(100):
        n = int(rng.integers(1, 5))
        f = sk.FactorFunction(_space(rng, n), rng.random(n))
        exact = sk.rho(f)
        scanned = sk.brute_rho(f, grid_step=1e-4)
        if abs(scanned - exact) > 1e-4 + 1e-12:
            violations.append((i, "oracle gap", exact, scanned))

    # monotone truncations converge from below
    for i in range(20):
        n = int(rng.integers(1, 6))
        f = sk.FactorFunction(_space(rng, n), 3.0 * rng.random(n))
        top = f.values.max(initial=0.0)
        previous = 0.0
        for step in range(1, 6):
            truncated = sk.FactorFunction(f.space, np.minimum(f.values, step * top / 5.0))
            value = sk.rho(truncated)
            if value < previous - 1e-12:
                violations.append((i, "not monotone"))
            previous = value
        if previous != pytest.approx(sk.rho(f), rel=1e-12, abs=1e-15):
            violations.append((i, "limit misses", previous, sk.rho(f)))

    for i in range(100):
        X = _product(rng)
        F = sk.GridFunction(X, rng.random(X.shape))
        tensor = sk.rho_tensor(F)
        split = sk.split_four(F)
        recombined = sum(part.values for part in split.parts)
        if not np.allclose(recombined, F.values, rtol=1e-12, atol=1e-15):
            violations.append((i, "split does not reconstruct"))
        norms = split.corner_norms()
        if any(norm > 4.0 * tensor * (1 + 1e-9) + 1e-15 for norm in norms):
            violations.append((i, "part norm exceeds 4x"))
        if sum(norms) > 16.0 * tensor * (1 + 1e-9) + 1e-15:
            violations.append((i, "norm sum exceeds 16x"))
        # every explicit four-way decomposition costs at least rho_tensor
        for _ in range(3):
            shares = rng.dirichlet(np.ones(4), size=X.shape)  # (n1, n2, 4)
            parts = [sk.GridFunction(X, F.values * shares[:, :, k]) for k in range(4)]
            total = (
                sk.mixed_norm(parts[0], 1, 1)
                + sk.mixed_norm(parts[1], INF, INF)
                + sk.mixed_norm(parts[2], 1, INF)
                + sk.mixed_norm(parts[3], INF, 1)
            )
            if tensor > total * (1 + 1e-9) + 1e-15:
                violations.append((i, "decomposition beats the norm", tensor, total))
    _report(5, "sum-space norm, oracle, and four-way split", violations)


def test_criterion_06_rectangle_lower_bounds():
    rng = np.random.default_rng(106)
    violations = []
    for i in range(20):
        sp1 = sk.Space(range(4), 0.1 + 2.0 * rng.random(4))
        sp2 = sk.Space(range(4), 0.1 + 2.0 * rng.random(4))
        X = sk.ProductSpace(sp1, sp2)
        for vbits in range(1, 16):
            V = [p for b, p in enumerate(sp1.points) if vbits >> b & 1]
            ind1 = sk.FactorFunction(sp1, [1.0 if p in V else 0.0 for p in sp1.points])
            rho1 = sk.rho(ind1)
            for wbits in range(1, 16):
                W = [p for b, p in enumerate(sp2.points) if wbits >> b & 1]
                ind2 = sk.FactorFunction(sp2, [1.0 if p in W else 0.0 for p in sp2.points])
                product = rho1 * sk.rho(ind2)
                floor = sk.rectangle_lower_bound(X, V, W)
                if product < floor * (1 - 1e-12) - 1e-15:
                    violations.append((i, V, W, product, floor))
    _report(6, "rectangle indicators respect the closed-form floor", violations)


def test_criterion_07_pairing_duality():
    rng = np.random.default_rng(107)
    violations = []
    for i in range(100):
        X = _product(rng)
        F = sk.GridFunction(X, rng.random(X.shape))
        tensor = sk.rho_tensor(F)
        pairing = sk.associate_pairing_sup(F)
        if pairing < tensor / 16.0 - 1e-9:
            violations.append((i, "pairing below floor", pairing, tensor))

        split = sk.split_four(F)
        for _ in range(3):
            G = sk.GridFunction(X, rng.standard_normal(X.shape) + 1j * rng.standard_normal(X.shape))
            actual = float(np.abs((F.values * G.values * X.mass_grid).sum()))
            if actual > sk.holder_upper_bound(split, G) * (1 + 1e-9) + 1e-15:
                violations.append((i, "split upper bound broken"))
            shares = rng.dirichlet(np.ones(4), size=X.shape)
            parts = [F.values * shares[:, :, k] for k in range(4)]
            upper = (
                sk.mixed_norm(sk.GridFunction(X, parts[0]), 1, 1) * sk.mixed_norm(G, INF, INF)
                + sk.mixed_norm(sk.GridFunction(X, parts[1]), INF, INF) * sk.mixed_norm(G, 1, 1)
                + sk.mixed_norm(sk.GridFunction(X, parts[2]), 1, INF) * sk.mixed_norm(G, INF, 1)
                + sk.mixed_norm(sk.GridFunction(X, parts[3]), INF, 1) * sk.mixed_norm(G, 1, INF)
            )
            if actual > upper * (1 + 1e-9) + 1e-15:
                violations.append((i, "decomposition upper bound broken"))
    _report(7, "pairing bounds from four-way decompositions", violations)


def test_criterion_08_frame_kernels_and_discretization_report():
    rng = np.random.default_rng(108)
    violations = []
    for N in (4, 8):
        windows = [np.ones(N), rng.standard_normal(N) + 1j * rng.standard_normal(N)]
        for wi, window in enumerate(windows):
            frame = sk.gabor_frame(N, window)
            if frame.parseval_defect() >= 1e-10:
                violations.append((N, wi, "parseval defect"))
            K = sk.reproducing_kernel(frame)
            if np.abs(sk.compose(K, K).values - K.values).max() >= 1e-10:
                violations.append((N, wi, "not idempotent"))
            f = rng.standard_normal(N) + 1j * rng.standard_normal(N)
            Vf = sk.voice_transform(frame, f)
            if np.abs(sk.apply_kernel(K, Vf).values - Vf.values).max() >= 1e-10:
                violations.append((N, wi, "transform not reproduced"))

            space = frame.space
            cov = sk.RectCovering(
                space, [(list(space.factor1.points), list(space.factor2.points))]
            )
            ones = np.ones(space.shape)
            u = sk.GridFunction(space, ones)
            v = sk.GridFunction(space, ones)
            m0 = sk.WeightGrid(space, space, np.ones(space.shape + space.shape))
            L = sk.maximal_kernel(K, cov)
            report = sk.coorbit_report(frame, cov, u, v, m0, L)
            if not report.all_pass:
                violations.append((N, wi, "hypothesis flags"))
            if report.margin != sk.discretization_margin(
                report.norm_b_kpsi, report.norm_b_majorant
            ):
                violations.append((N, wi, "margin arithmetic"))
    _report(8, "frame kernels and discretization report", violations)


def test_criterion_09_unbounded_third_constant():
    violations = []
    results = {}
    for N in (4, 8, 16):
        _, diag = sk.counterexample_kernel(N, 64)
        results[N] = diag
        if diag["c1"] != pytest.approx(diag["c1_analytic"], rel=1e-9):
            violations.append((N, "c1 mismatch"))
        if diag["c3"] != pytest.approx(diag["c3_analytic"], rel=1e-9):
            violations.append((N, "c3 mismatch"))
        if not diag["corner_1inf_lower"] < 2.5:
            violations.append((N, "sampled lower bound too large"))
        if diag["corner_1inf_lower"] > diag["corner_1inf_upper"] + 1e-12:
            violations.append((N, "lower exceeds the fixed upper bound"))
    for small, large in ((4, 8), (8, 16)):
        ms = np.arange(small + 1, large + 1)
        growth = 2.0 * ((1.0 + ms) ** (-2.0 / 3.0)).sum()
        if results[large]["c3"] - results[small]["c3"] < growth - 1e-9:
            violations.append((small, large, "c3 grew too little"))
    _report(9, "third constant grows while the operator norm stays put", violations)


def test_criterion_10_certified_sup_bounds():
    rng = np.random.default_rng(110)
    violations = []
    for i in range(50):
        n1, n2 = int(rng.integers(2, 4)), int(rng.integers(2, 4))
        X = sk.ProductSpace(_space(rng, n1), _space(rng, n2))
        cov = rand_covering(rng, X)
        u = sk.GridFunction(X, 0.5 + rng.random(X.shape))
        w = sk.GridFunction(X, 0.5 + rng.random(X.shape))
        m = sk.WeightGrid(X, X, 0.5 + rng.random(X.shape + X.shape))
        p = float(rng.choice(EXPONENT_GRID))
        q = float(rng.choice(EXPONENT_GRID))
        K = sk.Kernel(X, X, rng.standard_normal(X.shape + X.shape)
                      + 1j * rng.standard_normal(X.shape + X.shape))
        L = sk.maximal_kernel(K, cov)
        cert = sk.sup_bound_certificate(L, cov, u, m, p, q, w)
        for _ in range(20):
            f = sk.GridFunction(
                X, rng.standard_normal(X.shape) + 1j * rng.standard_normal(X.shape)
            )
            lhs = float((np.abs(sk.apply_kernel(K, f).values) / cert.v.values).max())
            rhs = cert.c6 * sk.mixed_norm(f, p, q, w)
            if lhs > rhs * (1 + 1e-9) + 1e-12:
                violations.append((i, p, q, lhs, rhs))
    _report(10, "certified weighted sup bounds", violations)
