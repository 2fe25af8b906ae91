import hashlib
import json
import subprocess
import sys
import tracemalloc

import hypothesis.extra.numpy as hnp
import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

import schurkit as sk
from schurkit import jsonio
from schurkit.cli import run
from schurkit.jsonio import dump_grid_function, dump_kernel, dumps_json
from schurkit.operators import VERTEX_CAP


def _write(path, obj):
    path.write_text(dumps_json(obj) if not isinstance(obj, str) else obj)
    return str(path)


def _lifted_kernel_file(tmp_path, name="k.json"):
    K = sk.lift_plain_kernel([[1.0, 2.0], [3.0, 4.0]])
    return _write(tmp_path / name, dump_kernel(K))


def _grid_file(tmp_path, values, name="f.json"):
    values = np.asarray(values, dtype=float)
    X = sk.ProductSpace(sk.counting_space(values.shape[0]), sk.counting_space(values.shape[1]))
    return _write(tmp_path / name, dump_grid_function(sk.GridFunction(X, values)))


def _run(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    cert = json.loads(captured.out) if captured.out.strip() else None
    return code, cert, captured.err


def _check(cert, name):
    matches = [c for c in cert["checks"] if c["name"] == name]
    assert matches, f"no check named {name}"
    return matches[0]


def test_schur_frozen_constants(tmp_path, capsys):
    kfile = _lifted_kernel_file(tmp_path)
    code, cert, _ = _run(capsys, ["schur", "--kernel", kfile])
    assert code == 0
    q = cert["quantities"]
    assert q["c1"] == 7.0 and q["c2"] == 6.0
    assert q["c3"] == 6.0 and q["c4"] == 7.0
    assert all(c["pass"] for c in cert["checks"])
    assert _check(cert, "opnorm_lower_le_schur_bound")["pass"]


def test_schur_corner_exponents_add_exactness_check(tmp_path, capsys):
    kfile = _lifted_kernel_file(tmp_path)
    code, cert, _ = _run(capsys, ["schur", "--kernel", kfile, "--p", "1", "--q", "1"])
    assert code == 0
    assert cert["quantities"]["corner_opnorm"] == 6.0
    assert _check(cert, "corner_opnorm_equals_c2")["pass"]

    code, cert, _ = _run(capsys, ["schur", "--kernel", kfile, "--p", "inf", "--q", "1"])
    assert code == 0
    assert _check(cert, "corner_opnorm_equals_c4")["pass"]


def test_norm_function_mode(tmp_path, capsys):
    ffile = _grid_file(tmp_path, [[1, 2], [3, 4]])
    code, cert, _ = _run(capsys, ["norm", "--function", ffile, "--p", "1", "--q", "inf"])
    assert code == 0
    assert cert["quantities"]["mixed_norm"] == pytest.approx(6.0, rel=1e-12)

    code, cert, _ = _run(capsys, ["norm", "--function", ffile])
    assert cert["quantities"]["mixed_norm"] == pytest.approx(np.sqrt(30.0), rel=1e-12)


def test_norm_kernel_mode(tmp_path, capsys):
    kfile = _lifted_kernel_file(tmp_path)
    code, cert, _ = _run(capsys, ["norm", "--kernel", kfile])
    assert code == 0
    assert cert["quantities"]["norm_A"] == pytest.approx(7.0, rel=1e-12)
    assert cert["quantities"]["norm_B"] == pytest.approx(7.0, rel=1e-12)


def test_norm_requires_exactly_one_input(tmp_path, capsys):
    kfile = _lifted_kernel_file(tmp_path)
    ffile = _grid_file(tmp_path, [[1, 2], [3, 4]])
    code, _, err = _run(capsys, ["norm", "--kernel", kfile, "--function", ffile])
    assert code == 2 and "error:" in err
    code, _, err = _run(capsys, ["norm"])
    assert code == 2 and "error:" in err


def test_norm_refuses_a_weight_in_function_mode(tmp_path, capsys):
    ffile = _grid_file(tmp_path, [[1, 2], [3, 4]])
    X = sk.ProductSpace(sk.counting_space(2), sk.counting_space(2))
    wfile = _write(tmp_path / "w.json", dump_kernel(sk.WeightGrid(X, X, np.full((2, 2, 2, 2), 2.0))))
    code, cert, err = _run(capsys, ["norm", "--function", ffile, "--weight", wfile])
    assert code == 2 and cert is None
    assert "--weight applies to --kernel only" in err, err


def test_compose_frozen_product(tmp_path, capsys):
    afile = _write(tmp_path / "a.json", dump_kernel(sk.lift_plain_kernel([[1.0, 1.0], [0.0, 1.0]])))
    bfile = _write(tmp_path / "b.json", dump_kernel(sk.lift_plain_kernel([[1.0, 0.0], [1.0, 1.0]])))
    code, cert, _ = _run(capsys, ["compose", "--left", afile, "--right", bfile])
    assert code == 0
    assert _check(cert, "product_submultiplicative")["pass"]
    values = np.asarray(cert["kernel"]["re"], dtype=float)
    np.testing.assert_allclose(values[:, 0, :, 0], [[2.0, 1.0], [1.0, 1.0]])


def test_sumnorm_point_indicator(tmp_path, capsys):
    ffile = _grid_file(tmp_path, [[1, 0], [0, 0]])
    code, cert, _ = _run(capsys, ["sumnorm", "--function", ffile])
    assert code == 0
    assert cert["quantities"]["rho_tensor"] == pytest.approx(1.0, rel=1e-12)
    assert cert["quantities"]["sandwich_pass"] is True
    assert _check(cert, "pairing_ge_rho_tensor_over_16")["pass"]
    for i, pq in enumerate(("1_1", "inf_inf", "1_inf", "inf_1"), start=1):
        assert _check(cert, f"part{i}_L{pq}_le_4_rho_tensor")["pass"]


def test_sumnorm_rho_tensor_is_the_library_value(tmp_path, capsys):
    rng = np.random.default_rng(9)
    X = sk.ProductSpace(sk.Space(range(5), 0.3 + rng.random(5)), sk.Space(range(4), 0.3 + rng.random(4)))
    F = sk.GridFunction(X, rng.standard_normal((5, 4)) + 1j * rng.standard_normal((5, 4)))
    ffile = _write(tmp_path / "f.json", dump_grid_function(F))
    code, cert, _ = _run(capsys, ["sumnorm", "--function", ffile])
    assert code == 0
    assert cert["quantities"]["rho_tensor"] == sk.rho_tensor(F.abs())


def test_covering_admissible_path(tmp_path, capsys):
    X = sk.ProductSpace(sk.counting_space(2), sk.counting_space(2))
    K = sk.Kernel(X, X, np.arange(16, dtype=float).reshape(2, 2, 2, 2))
    kfile = _write(tmp_path / "kk.json", dump_kernel(K))
    covfile = _write(
        tmp_path / "cov.json",
        {"patches": [{"V": [0], "W": [0, 1]}, {"V": [1], "W": [0, 1]}]},
    )
    code, cert, _ = _run(capsys, ["covering", "--kernel", kfile, "--covering", covfile])
    assert code == 0
    assert _check(cert, "covering_admissible")["pass"]
    assert _check(cert, "kernel_le_maximal")["pass"]
    assert "maximal_kernel" in cert
    maximal = np.asarray(cert["maximal_kernel"]["re"], dtype=float)
    assert np.all(maximal >= np.abs(K.values) - 1e-12)


def _covering_files(tmp_path):
    X = sk.ProductSpace(sk.counting_space(2), sk.counting_space(2))
    K = sk.Kernel(X, X, np.arange(16, dtype=float).reshape(2, 2, 2, 2) - 7.5)
    kfile = _write(tmp_path / "kk.json", dump_kernel(K))
    covfile = _write(tmp_path / "cov.json", {"patches": [{"V": [0], "W": [0, 1]}, {"V": [1], "W": [0, 1]}]})
    return K, kfile, covfile


def test_covering_phase_file_sets_the_oscillation_kernel(tmp_path, capsys):
    K, kfile, covfile = _covering_files(tmp_path)
    phase = sk.PhaseGrid(K.X, K.X, np.exp(2j * np.pi * np.random.default_rng(3).random((2, 2, 2, 2))))
    pfile = _write(tmp_path / "phase.json", dump_kernel(phase))
    code, cert, _ = _run(capsys, ["covering", "--kernel", kfile, "--covering", covfile, "--phase", pfile])
    assert code == 0
    cov = sk.RectCovering(K.X, [((0,), (0, 1)), ((1,), (0, 1))])
    expected = sk.oscillation(K, cov, phase)
    assert np.array_equal(np.asarray(cert["oscillation_kernel"]["re"]), expected.values)


def test_im_of_another_shape_exits_2(tmp_path, capsys):
    K, kfile, covfile = _covering_files(tmp_path)
    X = K.X
    one = np.ones((2, 2, 2, 2))
    files = {
        "kernel": dump_kernel(K),
        "function": dump_grid_function(sk.GridFunction(X, one[0, 0])),
        "weight": dump_kernel(sk.WeightGrid(X, X, one)),
        "phase": dump_kernel(sk.PhaseGrid(X, X, one)),
    }
    argvs = {
        "kernel": lambda f: ["schur", "--kernel", f],
        "function": lambda f: ["norm", "--function", f],
        "weight": lambda f: ["norm", "--kernel", kfile, "--weight", f],
        "phase": lambda f: ["covering", "--kernel", kfile, "--covering", covfile, "--phase", f],
    }
    for what, obj in files.items():
        good = _write(tmp_path / f"{what}-good.json", obj)
        assert run(argvs[what](good)) == 0, what
        capsys.readouterr()
        for im in ([0.5], np.zeros(obj["re"].shape[:-1])):  # once broadcast onto every entry
            bad = _write(tmp_path / f"{what}.json", {**obj, "im": im})
            code, cert, err = _run(capsys, argvs[what](bad))
            assert code == 2 and cert is None, what
            assert f"{what} JSON: 'im' has shape" in err, err


def test_covering_gap_fails_cleanly(tmp_path, capsys):
    X = sk.ProductSpace(sk.counting_space(2), sk.counting_space(2))
    K = sk.Kernel(X, X, np.ones((2, 2, 2, 2)))
    kfile = _write(tmp_path / "kk.json", dump_kernel(K))
    covfile = _write(tmp_path / "cov.json", {"patches": [{"V": [0], "W": [0]}]})
    code, cert, _ = _run(capsys, ["covering", "--kernel", kfile, "--covering", covfile])
    assert code == 1
    assert not _check(cert, "covering_admissible")["pass"]
    assert "maximal_kernel" not in cert


def test_coorbit_margin_never_passes_for_parseval_frames(tmp_path, capsys):
    framefile = _write(tmp_path / "frame.json", {"type": "gabor", "N": 4, "window": [1, 1, 1, 1]})
    covfile = _write(
        tmp_path / "cov.json", {"patches": [{"V": [0, 1, 2, 3], "W": [0, 1, 2, 3]}]}
    )
    code, cert, _ = _run(capsys, ["coorbit", "--frame", framefile, "--covering", covfile])
    assert code == 1  # the discretization margin cannot dip below one here
    assert _check(cert, "hypotheses_pass")["pass"]
    assert not _check(cert, "margin_lt_one")["pass"]
    assert cert["quantities"]["all_pass"] == 1.0
    q = cert["quantities"]
    assert q["margin"] == pytest.approx(
        q["norm_b_majorant"] * (2 * q["norm_b_kpsi"] + q["norm_b_majorant"]), rel=1e-9
    )


@pytest.mark.parametrize(
    "frame",
    [
        {"type": "gabor", "N": True, "window": [1]},
        {"type": "gabor", "N": 2.0, "window": [1, 1]},
        {"type": "gabor", "N": 2, "window": ["1.5", "2"]},
        {"type": "gabor", "N": 2, "window": [[1, "0"], 2]},
        {"type": "gabor", "N": 2, "window": [True, 1]},
        {"type": "gabor", "N": 2, "window": "12"},
    ],
)
def test_frame_needs_an_integer_n_and_number_window_entries(tmp_path, capsys, frame):
    _, _, covfile = _covering_files(tmp_path)
    good = _write(tmp_path / "good.json", {"type": "gabor", "N": 2, "window": [[1.5, 0], 2]})
    assert run(["coorbit", "--frame", good, "--covering", covfile]) in (0, 1)
    capsys.readouterr()
    bad = _write(tmp_path / "frame.json", json.dumps(frame))
    code, cert, err = _run(capsys, ["coorbit", "--frame", bad, "--covering", covfile])
    assert code == 2 and cert is None
    assert "frame JSON" in err or "window entries" in err, err


def test_weights_off_the_covered_or_index_space_exit_2(tmp_path, capsys):
    K, kfile, covfile = _covering_files(tmp_path)
    X = K.X
    framefile = _write(tmp_path / "frame.json", {"type": "gabor", "N": 2, "window": [1, 2]})
    heavy = sk.ProductSpace(sk.Space([0, 1], [5.0, 7.0]), X.factor2)  # other masses
    relabelled = sk.ProductSpace(X.factor1, sk.Space(["a", "b"], [1.0, 1.0]))  # other points
    flags = {
        "u": [["covering", "--kernel", kfile, "--covering", covfile], ["coorbit", "--frame", framefile, "--covering", covfile]],
        "v": [["coorbit", "--frame", framefile, "--covering", covfile]],
    }
    for what, commands in flags.items():
        for command in commands:
            good = _write(tmp_path / "good.json", dump_grid_function(sk.GridFunction(X, np.full((2, 2), 2.0))))
            assert run(command + [f"--{what}", good]) in (0, 1)
            capsys.readouterr()
            for space in (heavy, relabelled):
                bad = _write(tmp_path / "bad.json", dump_grid_function(sk.GridFunction(space, np.full((2, 2), 2.0))))
                code, cert, err = _run(capsys, command + [f"--{what}", bad])
                assert code == 2 and cert is None, (command, what)
                assert f"weight {what} does not live on" in err, err
    # the default --v divides u by w^c, which names u before any shape clash
    frame4 = _write(tmp_path / "frame4.json", {"type": "gabor", "N": 4, "window": [1, 2, 3, 4]})
    cov4 = _write(tmp_path / "cov4.json", {"patches": [{"V": [0, 1, 2, 3], "W": [0, 1, 2, 3]}]})
    u3 = _write(tmp_path / "u3.json", dump_grid_function(sk.GridFunction(sk.ProductSpace(sk.counting_space(3), sk.counting_space(3)), np.ones((3, 3)))))
    code, cert, err = _run(capsys, ["coorbit", "--frame", frame4, "--covering", cov4, "--u", u3])
    assert code == 2 and cert is None
    assert "weight u does not live on" in err, err


def test_counterexample_subcommand(capsys):
    code, cert, _ = _run(capsys, ["counterexample", "--N", "4", "--M", "32"])
    assert code == 0
    assert _check(cert, "c1_matches_analytic")["pass"]
    assert _check(cert, "c3_matches_analytic")["pass"]
    assert _check(cert, "sampled_lower_le_ell2_upper")["pass"]


def test_malformed_json_reports_error(tmp_path, capsys):
    bad = _write(tmp_path / "bad.json", "{not json")
    code, cert, err = _run(capsys, ["schur", "--kernel", bad])
    assert code == 2
    assert cert is None
    assert err.startswith("error:")


def test_missing_file_reports_error(tmp_path, capsys):
    code, _, err = _run(capsys, ["schur", "--kernel", str(tmp_path / "absent.json")])
    assert code == 2 and "error:" in err


def test_unknown_subcommand_exits_2(capsys):
    assert run(["frobnicate"]) == 2
    capsys.readouterr()


def test_output_is_deterministic(tmp_path, capsys):
    kfile = _lifted_kernel_file(tmp_path)
    run(["schur", "--kernel", kfile, "--seed", "7"])
    first = capsys.readouterr().out
    run(["schur", "--kernel", kfile, "--seed", "7"])
    second = capsys.readouterr().out
    assert first == second


def test_console_entry_point(tmp_path):
    kfile = _lifted_kernel_file(tmp_path)
    script = (
        "import sys; from schurkit.cli import main; "
        f"sys.argv = ['schurkit', 'schur', '--kernel', {str(kfile)!r}]; main()"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0
    cert = json.loads(proc.stdout)
    assert cert["quantities"]["c1"] == 7.0


def test_unexpected_error_exits_2(tmp_path, capsys):
    # a point id nested 100,000 lists deep makes the JSON decoder raise RecursionError
    deep = "[" * 100_000 + "0" + "]" * 100_000
    text = (
        '{"space": {"factor1": {"points": [' + deep + '], "masses": [1]}, '
        '"factor2": {"points": [0], "masses": [1]}}, "re": [[1]]}'
    )
    ffile = _write(tmp_path / "deep.json", text)
    code, cert, err = _run(capsys, ["sumnorm", "--function", ffile])
    assert code == 2
    assert cert is None
    assert err.startswith("error: RecursionError")


@pytest.mark.parametrize("module", ["schurkit", "schurkit.cli"])
def test_python_dash_m_missing_file_exits_2(tmp_path, module):
    argv = [sys.executable, "-m", module, "schur", "--kernel", str(tmp_path / "absent.json")]
    proc = subprocess.run(argv, capture_output=True, text=True)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error:")


def test_cli_import_leaves_mpmath_unloaded():
    # mpmath is a test dependency only
    script = "import sys, schurkit.cli; sys.exit(3 if 'mpmath' in sys.modules else 0)"
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_counterexample_runs_without_mpmath():
    # the closed-form cap is a stored literal; a None entry makes `import mpmath` fail
    script = (
        "import sys; sys.modules['mpmath'] = None; from schurkit.cli import run; "
        "sys.exit(run(['counterexample', '--N', '2', '--M', '8']))"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["quantities"]["corner_1inf_upper"] == 2.490356500768058


def test_non_finite_kernel_file_exits_2(tmp_path, capsys):
    K = sk.lift_plain_kernel([[1.0, 2.0], [3.0, 4.0]])
    text = dumps_json(dump_kernel(K)).replace("[4]", "[1e999]")
    assert "1e999" in text
    kfile = _write(tmp_path / "inf.json", text)
    code, cert, err = _run(capsys, ["schur", "--kernel", kfile])
    assert code == 2 and cert is None and "finite" in err


def _as_lists(obj):
    return {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in obj.items()}


def test_array_emit_matches_list_emit(monkeypatch):
    blocks = (jsonio._EMIT_BLOCK, 1, 5, 12)
    rng = np.random.default_rng(21)
    X = sk.ProductSpace(sk.counting_space(3), sk.counting_space(2))
    Y = sk.ProductSpace(sk.counting_space(2), sk.counting_space(4))
    special = [-0.0, 5e-324, 1e300, -1e300, 2.5e-310, 1.0, 0.1, -7.0]
    for cplx in (False, True):
        vals = rng.standard_normal(X.shape + Y.shape) * 10.0 ** rng.integers(-300, 300, X.shape + Y.shape)
        vals.flat[: len(special)] = special
        if cplx:
            vals = vals + 1j * vals[::-1]
        K = sk.Kernel(X, Y, vals)
        # small blocks format a few rows at a time and end some blocks mid-axis
        for block in blocks:
            monkeypatch.setattr(jsonio, "_EMIT_BLOCK", block)
            for dumped in (dump_kernel(K), dump_kernel(sk.transpose(K)),
                           dump_grid_function(sk.GridFunction(X, vals[:, :, 0, 0])),
                           {"re": np.real(vals)[0]}, {"re": np.real(vals).ravel()}):
                assert isinstance(dumped["re"], np.ndarray)
                text = dumps_json(dumped)
                assert text == dumps_json(_as_lists(dumped))
                assert json.loads(text)["re"] == dumped["re"].tolist()


def test_array_emit_holds_the_text_about_twice():
    # one block as Python floats beside the row texts, then the text and its
    # joined copy; wrapping the whole text in brackets made a third copy
    vals = np.random.default_rng(6).standard_normal((24,) * 4)
    tracemalloc.start()
    try:
        text = dumps_json({"re": vals})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * len(text) + 32 * jsonio._EMIT_BLOCK


def test_array_emit_holds_one_subarray_text_per_piece():
    # a 24^4 array is past _EMIT_BLOCK: no piece may hold the whole text
    vals = np.random.default_rng(6).standard_normal((24,) * 4)
    pieces = []
    jsonio._emit_array(vals, pieces)
    assert "".join(pieces) == dumps_json(vals)
    assert max(map(len, pieces)) <= max(len(dumps_json(sub)) for sub in vals)


def _neighbours(x, steps):
    """x moved by `steps` ulps (toward +inf when steps > 0)."""
    for _ in range(abs(steps)):
        x = np.nextafter(x, np.inf if steps > 0 else -np.inf)
    return float(x)


_EDGE_FLOATS = st.one_of(
    # powers of ten and the doubles next to them, across both notation
    # switches (1e-5/1e-4 and 1e16/1e17) and the range formatted in numpy
    st.builds(lambda k, steps: _neighbours(10.0**k, steps), st.integers(-14, 46), st.integers(-3, 3)),
    # 17 nines and a rounding digit: the 17-digit rounding carries into a new digit, or just misses
    st.builds(lambda d, k: float(f"{'9' * 17}{d}e{k}"), st.integers(0, 9), st.integers(-30, 30)),
    # 17-digit decimals with trailing zeros, which '%g' drops
    st.builds(lambda m, z, k: float(f"{m}{'0' * z}e{k}"), st.integers(1, 10**6), st.integers(0, 12), st.integers(-25, 25)),
    # values on a half when scaled to 17 digits: short binary fractions
    st.builds(lambda m, k: m * 2.0**k, st.integers(1, 2**40), st.integers(-60, 10)),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 2.225073858507201e-308,
                     1.7976931348623157e308, 2.0**53 - 1, 2.0**53, 2.0**53 + 2, -(2.0**53 + 2), 1e-10, 1e42]),
    st.floats(-1e-300, 1e-300, allow_subnormal=True),  # subnormals and tiny values
    st.floats(1e-10, 1e42) | st.floats(-1e42, -1e-10),  # the range formatted in numpy
    st.floats(allow_nan=False, allow_infinity=False),
)


@settings(max_examples=300, deadline=None)
@given(
    hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=6, min_side=1, max_side=4), elements=_EDGE_FLOATS),
    st.sampled_from([jsonio._EMIT_BLOCK, 1, 3, 7, 64]),
)
def test_array_emit_matches_percent_17g(vals, block):
    # the list route formats each value with '%.17g'
    saved, jsonio._EMIT_BLOCK = jsonio._EMIT_BLOCK, block
    try:
        dumped = {"re": vals}
        assert dumps_json(dumped) == dumps_json(_as_lists(dumped))
    finally:
        jsonio._EMIT_BLOCK = saved


def test_array_emit_without_a_64_bit_long_double(monkeypatch):
    # every value then takes '%.17g' itself, and the bytes are the same; with
    # the layout tables emptied, a value laid out in numpy would lose its text
    rng = np.random.default_rng(9)
    vals = rng.standard_normal((3, 4, 5)) * 10.0 ** rng.integers(-20, 30, (3, 4, 5))
    vals.flat[:6] = [0.0, -0.0, 1e16, 1e17, 1e-5, 0.1]
    want = dumps_json({"re": vals})
    tables = jsonio._tables()
    monkeypatch.setattr(jsonio, "_EXACT", False)
    monkeypatch.setattr(jsonio, "_tables", lambda: tables[:3] + tuple(np.zeros_like(t) for t in tables[3:]))
    assert dumps_json({"re": vals}) == want == dumps_json(_as_lists({"re": vals}))


def test_array_emit_keeps_inf_and_refuses_nan():
    assert dumps_json({"a": np.array([[1.0, np.inf], [-np.inf, 0.5]])}) == (
        '{\n  "a": [[1, "inf"], ["-inf", 0.5]]\n}'
    )
    with pytest.raises(ValueError):
        dumps_json({"a": np.array([1.0, np.nan])})


def test_schur_corner_past_vertex_cap(tmp_path, capsys):
    # 2^20 unit-ball vertices: the corner check still runs
    X = sk.ProductSpace(sk.singleton_space(), sk.singleton_space())
    Y = sk.ProductSpace(sk.counting_space(2), sk.counting_space(20))
    assert 2**20 > VERTEX_CAP
    kfile = _write(tmp_path / "wide.json", dump_kernel(sk.Kernel(X, Y, np.ones((1, 1, 2, 20)))))
    code, cert, _ = _run(capsys, ["schur", "--kernel", kfile, "--p", "1", "--q", "inf"])
    assert code == 0
    assert cert["quantities"]["corner_opnorm"] == pytest.approx(20.0, rel=1e-12)
    assert _check(cert, "corner_opnorm_equals_c3")["pass"]


def test_input_digest_is_sha256_of_file(tmp_path, capsys):
    kfile = _lifted_kernel_file(tmp_path)
    code, cert, _ = _run(capsys, ["schur", "--kernel", kfile])
    assert code == 0
    with open(kfile, "rb") as fh:
        assert cert["inputs"]["kernel"] == hashlib.sha256(fh.read()).hexdigest()


def test_utf8_bom_input_exits_2(tmp_path, capsys):
    kfile = tmp_path / "bom.json"
    kfile.write_bytes(b"\xef\xbb\xbf" + dumps_json(dump_kernel(sk.lift_plain_kernel([[1.0]]))).encode())
    code, cert, err = _run(capsys, ["schur", "--kernel", str(kfile)])
    assert code == 2 and cert is None and err.startswith("error:")


def test_schur_exits_0_where_the_plain_power_sum_overflows(tmp_path, capsys):
    X = sk.ProductSpace(sk.counting_space(2), sk.counting_space(1))
    Y = sk.ProductSpace(sk.counting_space(1), sk.counting_space(1))
    kfile = _write(tmp_path / "threes.json", dump_kernel(sk.Kernel(X, Y, np.full((2, 1, 1, 1), 3.0))))
    code, cert, _ = _run(capsys, ["schur", "--kernel", kfile, "--p", "700", "--q", "1"])
    assert code == 0
    assert cert["quantities"]["opnorm_lower"] == pytest.approx(3.0 * 2.0 ** (1.0 / 700.0), rel=1e-12)
    assert _check(cert, "opnorm_lower_le_schur_bound")["pass"]


def test_sumnorm_pairing_checks(tmp_path, capsys):
    ffile = _grid_file(tmp_path, [[3, 0, 1], [0.5, 2, 0], [1, 1, 4]])
    code, cert, _ = _run(capsys, ["sumnorm", "--function", ffile])
    assert code == 0
    q = cert["quantities"]
    low = _check(cert, "rho_tensor_le_pairing_lower")
    assert low["pass"] and (low["lhs"], low["rhs"]) == (q["rho_tensor"], q["pairing_lower"])
    up = _check(cert, "pairing_lower_le_sum_norm_upper")
    assert up["pass"] and (up["lhs"], up["rhs"]) == (q["pairing_lower"], q["sum_norm_upper"])


def test_parser_is_built_once():
    from schurkit.cli import _build_parser

    assert _build_parser() is _build_parser()


def test_cached_parser_keeps_no_state_between_calls(tmp_path, capsys):
    kfile = _lifted_kernel_file(tmp_path)
    code, cert, _ = _run(capsys, ["schur", "--kernel", kfile, "--seed", "5"])
    assert code == 0 and cert["seed"] == 5
    code, cert, _ = _run(capsys, ["schur", "--kernel", kfile])
    assert code == 0 and cert["seed"] == 0


def test_bad_arguments_leave_the_parser_usable(tmp_path, capsys):
    kfile = _lifted_kernel_file(tmp_path)
    assert run(["schur", "--kernel", kfile, "--seed", "x"]) == 2
    capsys.readouterr()
    code, cert, _ = _run(capsys, ["schur", "--kernel", kfile])
    assert code == 0 and cert["seed"] == 0


@pytest.mark.parametrize("tolerance", ["-1", "inf", "nan", "0"])
def test_tolerance_must_be_finite_and_nonnegative(tmp_path, capsys, tolerance):
    X = sk.ProductSpace(sk.counting_space(2), sk.counting_space(2))
    kfile = _write(tmp_path / "k.json", dump_kernel(sk.Kernel(X, X, np.indices((2, 2, 2, 2)).sum(axis=0))))
    code, cert, err = _run(capsys, ["schur", "--kernel", kfile, "--p", "1", "--q", "inf", "--tolerance", tolerance])
    if tolerance == "0":
        assert code == 0 and cert["tolerance"] == 0.0
    else:  # -1 failed true checks, inf passed every check vacuously
        assert code == 2 and cert is None
        assert "argument --tolerance" in err, err
