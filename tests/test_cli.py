import hashlib
import json
import subprocess
import sys

import numpy as np
import pytest

import schurkit as sk
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
    # mpmath is needed only by the counterexample's closed-form cap
    script = "import sys, schurkit.cli; sys.exit(3 if 'mpmath' in sys.modules else 0)"
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def _as_lists(obj):
    return {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in obj.items()}


def test_array_emit_matches_list_emit():
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
        for dumped in (dump_kernel(K), dump_kernel(sk.transpose(K)),
                       dump_grid_function(sk.GridFunction(X, vals[:, :, 0, 0]))):
            assert isinstance(dumped["re"], np.ndarray)
            text = dumps_json(dumped)
            assert text == dumps_json(_as_lists(dumped))
            assert json.loads(text)["re"] == dumped["re"].tolist()


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
