import json
import tracemalloc

import numpy as np
import pytest

import schurkit as sk
from schurkit import cli, jsonio
from schurkit.jsonio import dump_kernel, dump_product, dumps_json, load_kernel, loads_json


def _nested(shape, start=0.0):
    return (np.arange(np.prod(shape), dtype=float).reshape(shape) * 0.37 + start).tolist()


VALID = [
    ' \n{ "X" : { "a" : [ 1 , 2 ] } , "re" : [ [ 1 , -0.0 ] , [ 3 , 4 ] ] , "im" : [ [ 0 , 1 ] , [ 2 , 3 ] ] } \t\n',
    "{}",
    " { } ",
    '{"re": [1], "a": 2, "re": [3, 4.5], "a": [5]}',
    '{"re": [1, 2.5, -0.0, 1e-320, 1e308, true, 7]}',
    json.dumps({"X": 0, "re": _nested((2, 3, 4, 5)), "im": _nested((2, 3, 4, 5), -9.0)}),
    json.dumps({"re": _nested((1, 1, 3, 7))}),
    '{"re": []}',
    '{"re": [ ]}',
    '{"re": [[], []]}',
    '{"re": [[[]]]}',
    '{"re": 3.5, "im": -1}',
    '{"re": "text", "im": null}',
    '{"a": {"re": [1, [2]]}, "re": [["1.5", 2]]}',
    '[1, {"re": [1, 2]}]',
    "7",
    ' "re" ',
    "null",
    '{"re": [1, 2], "im": [[1, 2], [3, 4]]}',
]

INVALID = [
    '{"re": [1],}',
    '{"re": [1, 2,]}',
    '{"re" [1]}',
    '{"re": [1, 2]',
    '{"re": [1, 2',
    '{"re": [1 2]}',
    '{"a": 1 "re": [2]}',
    '{"re"',
    '{1: 2}',
    '{"re": }',
    "",
    "   ",
    '{"re": [1]} x',
    "{} {}",
    '\ufeff{"re": [1]}',
    '{"re": [[1, 2], [3]]}',
    '{"re": [[1], 2]}',
    '{"re": [1, [2]]}',
    '{"re": [[1, 2], [3, 4], [5, 6, 7]]}',
    '{"re": [["a"]]}',
    '{"im": [1, "x"]}',
    '{"re": [{"a": 1}]}',
    '{"re": [1], "im": [' + "[" * 100_000 + "0" + "]" * 100_000 + "]}",
]


def _reference(text):
    """json.loads with a top-level object's "re"/"im" lists taken through np.asarray."""
    obj = json.loads(text)
    if isinstance(obj, dict):
        for key in ("re", "im"):
            if isinstance(obj.get(key), list):
                obj[key] = np.asarray(obj[key], dtype=float)
    return obj


def _assert_same(got, want):
    if isinstance(want, np.ndarray):
        assert isinstance(got, np.ndarray)
        assert (got.dtype, got.shape) == (want.dtype, want.shape)
        assert got.tobytes() == want.tobytes()  # bit for bit: signed zeros too
    elif isinstance(want, dict):
        assert isinstance(got, dict) and list(got) == list(want)
        for key in want:
            _assert_same(got[key], want[key])
    else:
        assert type(got) is type(want) and got == want


@pytest.mark.parametrize("block", [None, 1, 12])
@pytest.mark.parametrize("text", VALID)
def test_reader_matches_json_loads(text, block, monkeypatch):
    if block is not None:  # several float blocks per array
        monkeypatch.setattr(jsonio, "_BLOCK_CHARS", block)
    _assert_same(loads_json(text), _reference(text))


@pytest.mark.parametrize("block", [None, 1])
@pytest.mark.parametrize("text", INVALID)
def test_reader_refuses_what_json_loads_refuses(text, block, monkeypatch, tmp_path, capsys):
    if block is not None:
        monkeypatch.setattr(jsonio, "_BLOCK_CHARS", block)
    errors = (ValueError, TypeError, RecursionError)
    with pytest.raises(errors):
        _reference(text)
    with pytest.raises(errors):
        loads_json(text)
    path = tmp_path / "bad.json"
    path.write_text(text, encoding="utf-8")
    assert cli.run(["schur", "--kernel", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error:")


def test_complex_assembly_keeps_signed_zeros():
    X = sk.ProductSpace(sk.counting_space(1), sk.counting_space(1))
    Y = sk.ProductSpace(sk.counting_space(1), sk.counting_space(3))
    text = json.dumps({"X": dump_product(X), "Y": dump_product(Y),
                       "re": [[[[-0.0, 1.0, -0.0]]]], "im": [[[[0.0, -0.0, -2.0]]]]})
    values = load_kernel(loads_json(text)).values.ravel()
    # re + 1j * im made the first real part and the second imaginary part +0.0
    assert np.signbit(values.real).tolist() == [True, False, True]
    assert np.signbit(values.imag).tolist() == [False, True, True]


def test_loading_a_complex_kernel_holds_no_float_tree(tmp_path):
    rng = np.random.default_rng(5)
    X = sk.ProductSpace(sk.counting_space(16), sk.counting_space(16))
    K = sk.Kernel(X, X, rng.standard_normal(X.shape * 2) + 1j * rng.standard_normal(X.shape * 2))
    path = tmp_path / "k.json"
    path.write_text(dumps_json(dump_kernel(K)))
    size, values, mib = path.stat().st_size, K.values.nbytes, 2**20
    tracemalloc.start()
    try:
        loaded = cli._Inputs().load("kernel", str(path), load_kernel)
        load_peak = tracemalloc.get_traced_memory()[1]
        text = path.read_text()
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        obj = loads_json(text)
        parse_peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert np.array_equal(loaded.values, K.values)
    assert load_peak <= 2 * size + 2 * values + mib
    # beside the text: "re" and "im" (one array's worth), the concatenated
    # copy of one of them, and one block of nested lists; json.loads' nested
    # lists of Python floats alone take about five times the values here
    assert parse_peak <= 2 * values + mib
    assert obj["re"].nbytes + obj["im"].nbytes == values
