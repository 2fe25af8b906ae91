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
from schurkit import cli, jsonio
from schurkit.cli import run
from schurkit.jsonio import dump_grid_function, dump_kernel, dumps_json, load_kernel
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


@pytest.mark.parametrize("tol", [0.0, 1e-9, 0.5, 1e300])
def test_a_tolerance_never_loosens_a_strict_check(tol):
    assert not cli._check("lt", "x", 1.0, 1.0, tol)["pass"]
    assert not cli._check("lt", "x", float(np.nextafter(1.0, 2.0)), 1.0, tol)["pass"]
    assert cli._check("lt", "x", float(np.nextafter(1.0, 0.0)), 1.0, tol)["pass"]
    assert cli._check("le", "x", 1.0 + tol, 1.0, tol)["pass"]  # the non-strict relations keep their slack


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
    for inf in ("inf", " Infinity ", "+inf"):  # any spelling float() reads
        code, cert, _ = _run(capsys, ["norm", "--function", ffile, "--p", "1", "--q", inf])
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


def _envelope_runs(tmp_path):
    """command -> (argv, [(input name, file)] in load order, dumped kernel keys), one run each."""
    K, kfile, covfile = _covering_files(tmp_path)
    ones = dump_kernel(sk.WeightGrid(K.X, K.X, np.ones((2, 2, 2, 2))))
    w = {name: _write(tmp_path / f"{name}.json", ones) for name in ("weight", "weight_out", "weight_left", "weight_right")}
    u = _grid_file(tmp_path, [[1, 2], [3, 4]], "u.json")
    phase = _write(tmp_path / "phase.json", dump_kernel(sk.PhaseGrid(K.X, K.X, np.full((2, 2, 2, 2), 1j))))
    rfile = _write(tmp_path / "right.json", dump_kernel(sk.Kernel(K.X, K.X, np.ones((2, 2, 2, 2)))))
    X4 = sk.gabor_frame(4, [1, 2, 3, 4]).space
    frame = _write(tmp_path / "frame.json", {"type": "gabor", "N": 4, "window": [1, 2, 3, 4]})
    cov4 = _write(tmp_path / "cov4.json", {"patches": [{"V": [0, 1, 2, 3], "W": [0, 1, 2, 3]}]})
    u4 = _write(tmp_path / "u4.json", dump_grid_function(sk.GridFunction(X4, np.full(X4.shape, 2.0))))
    v4 = _write(tmp_path / "v4.json", dump_grid_function(sk.GridFunction(X4, np.full(X4.shape, 3.0))))
    return {
        "norm": (["--kernel", kfile, "--weight", w["weight"]], [("kernel", kfile), ("weight", w["weight"])], []),
        "schur": (["--kernel", kfile, "--p", "1", "--q", "1"], [("kernel", kfile)], []),
        "compose": (
            ["--weight-right", w["weight_right"], "--weight-left", w["weight_left"],
             "--weight-out", w["weight_out"], "--right", rfile, "--left", kfile],
            [("left", kfile), ("right", rfile)] + [(k, w[k]) for k in ("weight_out", "weight_left", "weight_right")],
            ["kernel"],
        ),
        "sumnorm": (["--function", u], [("function", u)], []),
        "covering": (
            ["--phase", phase, "--u", u, "--covering", covfile, "--kernel", kfile],
            [("kernel", kfile), ("covering", covfile), ("u", u), ("phase", phase)],
            ["maximal_kernel", "oscillation_kernel"],
        ),
        "coorbit": (
            ["--v", v4, "--u", u4, "--covering", cov4, "--frame", frame],
            [("frame", frame), ("covering", cov4), ("u", u4), ("v", v4)],
            [],
        ),
        "counterexample": (["--N", "3", "--M", "8"], [], []),
    }


@pytest.mark.parametrize("command", ["norm", "schur", "compose", "sumnorm", "covering", "coorbit", "counterexample"])
def test_every_certificate_has_one_envelope(tmp_path, capsys, command):
    # command, version, tolerance, seed (seeded commands only), inputs in load
    # order (not argv order), quantities, checks, then any dumped kernels
    argv, inputs, kernels = _envelope_runs(tmp_path)[command]
    code, cert, err = _run(capsys, [command, *argv, "--tolerance", "0.125"])
    assert code in (0, 1) and cert is not None, err
    seeded = command in ("schur", "sumnorm", "counterexample")
    head = ["command", "version", "tolerance"] + ["seed"] * seeded + ["inputs", "quantities", "checks"]
    assert list(cert) == head + kernels
    assert (cert["command"], cert["version"], cert["tolerance"]) == (command, sk.__version__, 0.125)
    assert cert.get("seed") == (0 if seeded else None)
    digests = [(name, hashlib.sha256((tmp_path / path).read_bytes()).hexdigest()) for name, path in inputs]
    assert list(cert["inputs"].items()) == digests
    assert all(list(c) == ["name", "kind", "lhs", "rhs", "tolerance", "pass"] for c in cert["checks"])


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


@pytest.mark.parametrize("mass", ["0.5", True, None, [1]])
def test_a_mass_that_is_not_a_json_number_exits_2_naming_it(tmp_path, capsys, mass):
    def function_file(masses):
        f = {"points": [0, 1], "masses": masses}
        return _write(tmp_path / "f.json", json.dumps({"space": {"factor1": f, "factor2": f}, "re": [[1, 2], [3, 4]]}))

    assert run(["norm", "--function", function_file([0.5, 1]), "--p", "1", "--q", "1"]) == 0
    capsys.readouterr()
    code, cert, err = _run(capsys, ["norm", "--function", function_file([0.5, mass]), "--p", "1", "--q", "1"])
    assert code == 2 and cert is None
    assert f"error: ValueError: masses are JSON numbers, got {mass!r}" in err, err


_NUMBERS_RULE = '"re" and "im" entries are JSON numbers'


@pytest.mark.parametrize("entry, message", [('"1.5"', _NUMBERS_RULE), ("true", _NUMBERS_RULE), ("null", _NUMBERS_RULE),
                                            ("-Infinity", _NUMBERS_RULE), ("NaN", "kernel values must be finite")])
def test_kernel_entries_that_are_not_json_numbers_exit_2_naming_the_rule(tmp_path, capsys, entry, message):
    # "1.5" and true once loaded as 1.5 and 1.0; NaN parses and meets the finiteness check
    good = open(_lifted_kernel_file(tmp_path)).read()
    bad = good.replace('"re": [[[[1', f'"re": [[[[{entry}', 1)
    assert bad != good
    code, cert, err = _run(capsys, ["norm", "--kernel", _write(tmp_path / "bad.json", bad)])
    assert code == 2 and cert is None
    assert f"error: ValueError: {message}" in err, err


@pytest.mark.parametrize("command, mass", [("schur", 1e-200), ("schur", 1e200), ("sumnorm", 1e-200), ("sumnorm", 1e200)])
def test_product_masses_outside_the_float_range_exit_2(tmp_path, capsys, command, mass):
    # 1e-200 once gave 0/0 and a NaN refused at output, 1e200 infinite bounds or a ZeroDivisionError
    f = {"points": [0, 1], "masses": [mass, mass]}
    space = {"factor1": f, "factor2": f}
    if command == "schur":
        path = _write(tmp_path / "k.json", {"X": space, "Y": space, "re": np.ones((2, 2, 2, 2))})
        argv = ["schur", "--kernel", path, "--p", "1", "--q", "1"]
    else:
        argv = ["sumnorm", "--function", _write(tmp_path / "f.json", {"space": space, "re": [[1.0, 2.0], [3.0, 4.0]]})]
    code, cert, err = _run(capsys, argv)
    assert code == 2 and cert is None
    assert "error: ValueError: product masses" in err, err


def test_a_weight_grid_without_its_spaces_exits_2(tmp_path, capsys):
    kfile = _lifted_kernel_file(tmp_path)
    K = load_kernel(json.loads(open(kfile).read()))
    weight = dump_kernel(sk.WeightGrid(K.X, K.Y, np.ones(K.values.shape)))
    for key in ("X", "Y"):
        wfile = _write(tmp_path / "w.json", {k: v for k, v in weight.items() if k != key})
        code, cert, err = _run(capsys, ["norm", "--kernel", kfile, "--weight", wfile])
        assert code == 2 and cert is None
        assert "error: ValueError: weight-grid JSON needs 'X' and 'Y'" in err, err


def test_norm_refuses_exponents_in_kernel_mode(tmp_path, capsys):
    # a kernel's norm_A and norm_B take no exponents: --p or --q with --kernel is refused, not ignored
    kfile = _lifted_kernel_file(tmp_path)
    for flags in (["--p", "1", "--q", "inf"], ["--p", "0.5"], ["--q", "3"]):
        code, cert, err = _run(capsys, ["norm", "--kernel", kfile, *flags])
        assert code == 2 and cert is None, flags
        assert err == "error: ValueError: --p and --q apply to --function only\n", err


@pytest.mark.parametrize(
    "covering, message",
    [
        ({"patches": [["V", "W"]]}, "covering JSON: patch 0 is not an object whose 'V' and 'W' are lists"),
        ({"patches": [{"V": [0], "W": [0, 1]}, {"V": 5, "W": [0]}]},
         "covering JSON: patch 1 is not an object whose 'V' and 'W' are lists"),
        ({"patches": [{"V": [0, 1], "W": "01"}]}, "covering JSON: patch 0 is not an object whose 'V' and 'W' are lists"),
        ({"patches": {"V": [0], "W": [0]}}, "covering JSON needs a 'patches' list"),
    ],
    ids=["list-patch", "int-V", "string-W", "object-patches"],
)
def test_a_malformed_covering_exits_2_naming_it(tmp_path, capsys, covering, message):
    X = sk.ProductSpace(sk.counting_space(2), sk.counting_space(2))
    kfile = _write(tmp_path / "kk.json", dump_kernel(sk.Kernel(X, X, np.ones((2, 2, 2, 2)))))
    covfile = _write(tmp_path / "cov.json", covering)
    code, cert, err = _run(capsys, ["covering", "--kernel", kfile, "--covering", covfile])
    assert code == 2 and cert is None
    assert err == f"error: ValueError: {message}\n", err


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


def test_coorbit_refuses_a_majorant_on_another_space(tmp_path, capsys):
    _, kfile, _ = _covering_files(tmp_path)  # a kernel over 2 x 2
    framefile = _write(tmp_path / "frame.json", {"type": "gabor", "N": 4, "window": [1, 2, 3, 4]})
    covfile = _write(tmp_path / "cov4.json", {"patches": [{"V": [0, 1, 2, 3], "W": [0, 1, 2, 3]}]})
    code, cert, err = _run(capsys, ["coorbit", "--frame", framefile, "--covering", covfile, "--majorant", kfile])
    assert code == 2 and cert is None
    assert "majorant" in err, err


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


def test_runs_past_the_cap_exit_2_naming_the_bytes(tmp_path, capsys, monkeypatch):
    kfile = _lifted_kernel_file(tmp_path)
    # the N = 16 Gabor frame over 4 x 4 block patches: n = 256 index points, 16 a patch
    framefile = _write(tmp_path / "gabor16.json", {"type": "gabor", "N": 16, "window": list(range(1, 17))})
    blocks = [{"V": list(range(4 * i, 4 * i + 4)), "W": list(range(4 * j, 4 * j + 4))} for i in range(4) for j in range(4)]
    covfile = _write(tmp_path / "blocks16.json", {"patches": blocks})
    frame32 = _write(tmp_path / "gabor32.json", {"type": "gabor", "N": 32, "window": list(range(1, 33))})
    blocks32 = [{"V": list(range(8 * i, 8 * i + 8)), "W": list(range(8 * j, 8 * j + 8))} for i in range(4) for j in range(4)]
    cov32 = _write(tmp_path / "blocks32.json", {"patches": blocks32})
    K = sk.reproducing_kernel(sk.gabor_frame(16, np.arange(1.0, 17.0))).abs()
    k16file = _write(tmp_path / "k16.json", dump_kernel(K))
    monkeypatch.setattr(sk.operators, "_DENSE_BYTES", 1 << 20)
    for argv, nbytes in [
        (["counterexample", "--N", "64", "--M", "64"], 9 * 129 * 193 * 16),  # (6 + 3) w (w + M) complex values
        (["counterexample", "--N", "4", "--M", "8", "--trials", "1000000"], (6 + 3 * (10**6 - 81)) * 9 * 17 * 16),
        (["schur", "--kernel", kfile, "--trials", "1000000"], None),
        (["coorbit", "--frame", frame32, "--covering", cov32], 2 * 1024**2 * 8),  # the kernel's modulus and its copy
        # at N = 16 the modulus and its copy fit (exactly 2^20 bytes); the patch-maximal kernel does not
        (["coorbit", "--frame", framefile, "--covering", covfile], (3 * 8 * 256 + 16 * 16) * 256),
        (["covering", "--kernel", k16file, "--covering", covfile], (3 * 8 * 256 + 16 * 16) * 256),  # maximal_kernel
    ]:
        code, cert, err = _run(capsys, argv)
        assert code == 2 and cert is None, err
        assert "bytes, over the 1048576-byte cap on dense builds" in err, err
        if nbytes is not None:
            assert f"needs {nbytes} bytes" in err, err


@pytest.mark.parametrize(
    "patches, message",
    [
        ([{"V": [0, 1], "W": [0, 1, 2, 3]}], "patches do not cover the space"),
        ([{"V": [], "W": [0]}, {"V": [0, 1, 2, 3], "W": [0, 1, 2, 3]}], "every patch must have positive product mass"),
    ],
)
def test_coorbit_refuses_an_inadmissible_covering(tmp_path, capsys, patches, message):
    # w^c and the patch-maximal kernel need a covering with positive patches
    framefile = _write(tmp_path / "frame.json", {"type": "gabor", "N": 4, "window": [1, 2, 3, 4]})
    covfile = _write(tmp_path / "cov.json", {"patches": patches})
    code, cert, err = _run(capsys, ["coorbit", "--frame", framefile, "--covering", covfile])
    assert code == 2 and cert is None
    assert err == f"error: ValueError: {message}\n"


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
    # the bounds are computed in numpy; a None entry makes `import mpmath` fail
    script = (
        "import sys; sys.modules['mpmath'] = None; from schurkit.cli import run; "
        "sys.exit(run(['counterexample', '--N', '2', '--M', '8']))"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["quantities"]["corner_1inf_upper"] == 1.5019791528350883


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


@pytest.mark.parametrize("dtype", [np.float16, np.float32, np.longdouble])
def test_array_emit_of_other_float_dtypes_prints_their_float64_values(dtype):
    # tenths in long double carry bits that float64 rounds away
    vals = np.arange(1, 16, dtype=dtype).reshape(3, 5) / dtype(10)
    assert dumps_json(vals) == dumps_json(vals.astype(float))


def test_emitting_a_64_by_64_array_peaks_under_1_5_mib():
    # one block: its temporaries, its text and the joined copy
    vals = np.random.default_rng(6).standard_normal((64, 64))
    dumps_json(vals)  # builds the tables once
    tracemalloc.start()
    try:
        dumps_json(vals)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 2**20


def test_array_emit_holds_one_subarray_text_per_piece():
    # a 24^4 array is past _EMIT_BLOCK: no piece may hold the whole text
    vals = np.random.default_rng(6).standard_normal((24,) * 4)
    pieces = []
    jsonio._emit_array(vals, pieces)
    assert "".join(pieces) == dumps_json(vals)
    assert max(map(len, pieces)) <= max(len(dumps_json(sub)) for sub in vals)


def test_array_emit_of_short_subarrays_holds_one_piece_per_block():
    # 200000 one-value sub-arrays: a piece and a separator each would be
    # 400001 pieces, and their string headers seven times the text
    vals = np.random.default_rng(6).standard_normal((200000, 1))
    pieces = []
    jsonio._emit_array(vals, pieces)
    assert len(pieces) == 1 + -(-vals.size // jsonio._EMIT_BLOCK)
    tracemalloc.start()
    try:
        text = dumps_json({"re": vals})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert text == "".join(['{\n  "re": '] + pieces + ["\n}"])
    assert peak <= 2 * len(text) + 32 * jsonio._EMIT_BLOCK


def test_array_emit_of_infinities_matches_list_emit():
    # infinities at a block's first and last value, mid-block and at the
    # array's ends of a 24^4 array, which takes several blocks
    vals = np.random.default_rng(7).standard_normal((24,) * 4)
    at = [0, 1, jsonio._EMIT_BLOCK - 1, jsonio._EMIT_BLOCK, 5000, vals.size - 2, vals.size - 1]
    vals.flat[at] = np.resize([np.inf, -np.inf], len(at))
    assert vals.size > 2 * jsonio._EMIT_BLOCK
    text = dumps_json({"re": vals})
    assert text == dumps_json(_as_lists({"re": vals}))
    assert text.count('"inf"') == 4 and text.count('"-inf"') == 3


@pytest.mark.parametrize("shape", [(12,) * 4, (24,) * 4, (7, 11, 13, 9)])
def test_array_emit_blocks_hold_emit_block_values(shape):
    # every piece after the opener but the last holds _EMIT_BLOCK values,
    # whatever the sub-array length; each value but the array's last is
    # followed by exactly one comma
    vals = np.random.default_rng(10).standard_normal(shape)
    pieces = []
    jsonio._emit_array(vals, pieces)
    assert pieces[0] == "[" * len(shape)
    assert "".join(pieces) == dumps_json(vals)
    counts = [piece.count(",") for piece in pieces[1:]]
    assert len(counts) == -(-vals.size // jsonio._EMIT_BLOCK)
    assert counts[:-1] == [jsonio._EMIT_BLOCK] * (len(counts) - 1)
    assert counts[-1] == (vals.size - 1) % jsonio._EMIT_BLOCK


@pytest.mark.parametrize("shape", [(12,) * 4, (7, 11, 13, 9)])
@pytest.mark.parametrize("block", [jsonio._EMIT_BLOCK, 7])
def test_array_emit_matches_list_emit_from_every_block_start(shape, block, monkeypatch):
    # a block's tails depend only on where it starts within the
    # prod(shape[1:]) values of a leading-axis sub-array; 7 values a block
    # start at every offset of it
    period = int(np.prod(shape[1:]))
    size = int(np.prod(shape))
    starts = {lo % period for lo in range(0, size, block)}
    if block == 7:
        assert starts == set(range(period))
    rng = np.random.default_rng(11)
    vals = rng.standard_normal(shape) * 10.0 ** rng.integers(-20, 30, shape)
    vals.flat[::97] = np.inf
    vals.flat[size - 1] = -np.inf
    monkeypatch.setattr(jsonio, "_EMIT_BLOCK", block)
    dumped = {"re": vals}
    assert dumps_json(dumped) == dumps_json(_as_lists(dumped))


# the ends of the array, of its first block and of its first sub-array
@pytest.mark.parametrize("at", [0, 1, 4095, 4096, 13823, 13824, 24**4 - 1])
def test_array_emit_refuses_nan_anywhere(at, tmp_path, capsys, monkeypatch):
    vals = np.random.default_rng(8).standard_normal((24,) * 4)
    vals.flat[at] = np.nan
    with pytest.raises(ValueError, match="^refusing to serialize NaN$"):
        dumps_json({"re": vals})
    # the CLI prints no part of a certificate it cannot finish
    afile = _lifted_kernel_file(tmp_path, "a.json")
    monkeypatch.setattr(cli, "dump_kernel", lambda K: {"re": vals})
    code, cert, err = _run(capsys, ["compose", "--left", afile, "--right", afile])
    assert code == 2 and cert is None
    assert err == "error: ValueError: refusing to serialize NaN\n"


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
    st.sampled_from([np.inf, -np.inf]),  # printed as "inf" strings, on the same path
)


@settings(max_examples=300, deadline=None)
@given(
    hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=6, min_side=1, max_side=4), elements=_EDGE_FLOATS),
    st.sampled_from([jsonio._EMIT_BLOCK, 1, 3, 7, 64]),
)
def test_array_emit_matches_percent_17g(vals, block):
    # the list route formats each finite value with '%.17g'
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
