import hashlib
import json
import math
import os
import threading
import tracemalloc

import numpy as np
import pytest

import schurkit as sk
from schurkit import cli, jsonio
from schurkit.jsonio import dump_grid_function, dump_kernel, dump_product, dumps_json, load_kernel, loads_json


def _nested(shape, start=0.0):
    return (np.arange(np.prod(shape), dtype=float).reshape(shape) * 0.37 + start).tolist()


VALID = [
    ' \n{ "X" : { "a" : [ 1 , 2 ] } , "re" : [ [ 1 , -0.0 ] , [ 3 , 4 ] ] , "im" : [ [ 0 , 1 ] , [ 2 , 3 ] ] } \t\n',
    "{}",
    " { } ",
    '{"re": [1], "a": 2, "re": [3, 4.5], "a": [5]}',
    json.dumps({"X": 0, "re": _nested((2, 3, 4, 5)), "im": _nested((2, 3, 4, 5), -9.0)}),
    json.dumps({"re": _nested((1, 1, 3, 7))}),
    '{"re": []}',
    '{"re": [ ]}',
    '{"re": [[], []]}',
    '{"re": [[[]]]}',
    '{"re": 3.5, "im": -1}',
    '{"re": "text", "im": null}',
    '[1, {"re": [1, 2]}]',
    "7",
    ' "re" ',
    "null",
    '{"re": [1, 2], "im": [[1, 2], [3, 4]]}',
    '{"re": [1, NaN, -0.0]}',
    '{"X": {"points": ["µ", "aµb"]}, "µ": "µµµ", "re": [[1.5, -2]]}',
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
    '{"re": [1, 2.5, -0.0, 1e-320, 1e308, true, 7]}',
    '{"a": {"re": [1, [2]]}, "re": [["1.5", 2]]}',
    '{"re": [1, null]}',
    '{"im": [[1, 2], [-Infinity, 3]]}',
    '{"re": [1], "im": [' + "[" * 100_000 + "0" + "]" * 100_000 + "]}",
    b'{"re": [1, 2\xff]}',
    b'{"X": "\xc2\xb5\xb5", "re": [1]}',
    b'{"re": [1]} \xe2\x82',
    b'{"abcdefg": "\xe2\x82\xe2\x82\xac"}',
]


def _leaves(x):
    if isinstance(x, list):
        for y in x:
            yield from _leaves(y)
    else:
        yield x


def _reference(text):
    """json.loads with a top-level object's "re"/"im" lists taken through
    np.asarray, once every leaf is a JSON number: not a string, true, false,
    null or Infinity (NaN passes)."""
    obj = json.loads(text)
    if isinstance(obj, dict):
        for key in ("re", "im"):
            if isinstance(obj.get(key), list):
                if any(isinstance(x, (str, bool)) or x is None or x in (math.inf, -math.inf) for x in _leaves(obj[key])):
                    raise ValueError(f"{key!r} holds an entry that is not a JSON number")
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


def _read_file(text, read, monkeypatch, tmp_path):
    """(object, digest) of `text` read by `cli._read_json` in chunks of `read` bytes."""
    monkeypatch.setattr(cli, "_READ_CHUNK", read)
    path = tmp_path / "doc.json"
    path.write_bytes(text if isinstance(text, bytes) else text.encode("utf-8"))
    obj, digest = cli._read_json(str(path))
    assert digest == hashlib.sha256(path.read_bytes()).hexdigest()
    return obj


# (float block, file read size): a document given whole, or read from a file
# in chunks that split elements, keys and multi-byte characters. At the
# default block an array the window holds to the end of the document is one
# C scanner call; blocks of 1 and 12 characters scan (most of) them element
# by element, several float blocks per array.
@pytest.mark.parametrize(
    "block, read",
    [(None, None), (1, None), (12, None), (None, 1), (None, 7)],
    ids=["None", "1", "12", "read1", "read7"],
)
@pytest.mark.parametrize("text", VALID)
def test_reader_matches_json_loads(text, block, read, monkeypatch, tmp_path):
    if block is not None:  # several float blocks per array
        monkeypatch.setattr(jsonio, "_BLOCK_CHARS", block)
    got = loads_json(text) if read is None else _read_file(text, read, monkeypatch, tmp_path)
    _assert_same(got, _reference(text))


@pytest.mark.parametrize(
    "block, read",
    [(None, None), (1, None), (12, None), (None, 1), (None, 7)],
    ids=["None", "1", "12", "read1", "read7"],
)
@pytest.mark.parametrize("text", INVALID)
def test_reader_refuses_what_json_loads_refuses(text, block, read, monkeypatch, tmp_path, capsys):
    if block is not None:
        monkeypatch.setattr(jsonio, "_BLOCK_CHARS", block)
    errors = (ValueError, TypeError, RecursionError)  # UnicodeDecodeError is a ValueError
    with pytest.raises(errors):
        _reference(text)
    if read is not None:
        with pytest.raises(errors) as err:
            _read_file(text, read, monkeypatch, tmp_path)
        if isinstance(text, bytes):  # invalid UTF-8, its position counted in the file, not in a chunk
            with pytest.raises(UnicodeDecodeError) as want:
                text.decode("utf-8")
            assert (err.value.start, err.value.end, err.value.reason) == (want.value.start, want.value.end, want.value.reason)
    elif isinstance(text, str):  # bytes reach the parser only through the file reader
        with pytest.raises(errors):
            loads_json(text)
    path = tmp_path / "bad.json"
    path.write_bytes(text if isinstance(text, bytes) else text.encode("utf-8"))
    assert cli.run(["schur", "--kernel", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error:")


def test_an_array_the_window_holds_is_scanned_in_one_call(monkeypatch, tmp_path):
    # a complex 64 x 64 function file over 128 KiB, in one read chunk: each of
    # "re" and "im" is one C scanner call, not one per row
    rng = np.random.default_rng(2)
    X = sk.ProductSpace(sk.counting_space(64), sk.counting_space(64))
    values = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
    text = dumps_json(dump_grid_function(sk.GridFunction(X, values)))
    assert 128 * 1024 < len(text) < min(cli._READ_CHUNK, jsonio._BLOCK_CHARS)
    arrays = []

    def scan_once(s, idx):
        value, end = scan(s, idx)
        if isinstance(value, list):
            arrays.append(len(value))
        return value, end

    scan = jsonio._scan_once
    monkeypatch.setattr(jsonio, "_scan_once", scan_once)
    got = _read_file(text, cli._READ_CHUNK, monkeypatch, tmp_path)
    assert arrays == [64, 64]  # one list per array; the "space" member scans as one dict
    _assert_same(got, _reference(text))


@pytest.mark.parametrize("read", [None, 1, 7])
@pytest.mark.parametrize("fault", ["element", "member"])
def test_errors_report_document_positions(fault, read, monkeypatch, tmp_path):
    # one "re" element per line, the fault more than three read chunks in
    chunk = cli._READ_CHUNK if read is None else read
    n = max(50, chunk // 16)
    values = [[i + 0.25] * 8 for i in range(n)]
    values[-n // 5][3] = 7777.5
    text = '{"X": {"points": ["µ", 1]},\n "re": ' + json.dumps(values).replace("], [", "],\n  [") + ',\n "Y": 0}'
    if fault == "element":
        text = text.replace("7777.5", "7777.5.5")
    else:
        text = text.replace('"Y":', '"Y"')
    with pytest.raises(json.JSONDecodeError) as want:
        json.loads(text)
    assert want.value.pos > 3 * chunk
    for got in (lambda: loads_json(text), lambda: _read_file(text, chunk, monkeypatch, tmp_path)):
        with pytest.raises(json.JSONDecodeError) as err:
            got()
        assert str(err.value) == str(want.value)
        assert (err.value.pos, err.value.lineno, err.value.colno) == (want.value.pos, want.value.lineno, want.value.colno)


def _decode_error(text):
    try:
        json.loads(text)
    except json.JSONDecodeError as err:
        return err
    except (ValueError, RecursionError):
        return None
    return None


# faults next to tokens a window end can cut short: literals, numbers, escapes
CUT = [
    '[1, -Infinity, 2 3]',
    '{"a": [NaN, -Infinit]}',
    '{"a": "\\u00e9\\ud834\\udd1e", "b": tru}',
    '{"a": [1.5e-7, 2E+3] "b": 1}',
    '{"re": [1, 2, 1e5.5]}',
    '{"a": "x\\u12G4y"}',
    '{"a": "x\\qy"}',
    '{"a": "long string, never closed]}',
    '{"re": [[1, 2], [3, 4]], "im": [[-Infinity, 5], [6 7]]}',
    '{"k": [true, false, null, nul]}',
]


@pytest.mark.parametrize("read", [1, 2, 3, 5, 8, 13])
@pytest.mark.parametrize("text", [t for t in INVALID if isinstance(t, str) and _decode_error(t)] + CUT)
def test_errors_match_json_loads_at_every_read_size(text, read, monkeypatch, tmp_path):
    # a failure is final before the end of the input only where unread text cannot change it
    want = _decode_error(text)
    with pytest.raises(json.JSONDecodeError) as err:
        _read_file(text, read, monkeypatch, tmp_path)
    assert (str(err.value), err.value.pos) == (str(want), want.pos)


def test_complex_assembly_keeps_signed_zeros():
    X = sk.ProductSpace(sk.counting_space(1), sk.counting_space(1))
    Y = sk.ProductSpace(sk.counting_space(1), sk.counting_space(3))
    text = json.dumps({"X": dump_product(X), "Y": dump_product(Y),
                       "re": [[[[-0.0, 1.0, -0.0]]]], "im": [[[[0.0, -0.0, -2.0]]]]})
    obj = loads_json(text)
    values = load_kernel(obj).values.ravel()
    assert np.array_equal(load_kernel(obj).values.ravel(), values)  # the caller's object is left as it was
    # re + 1j * im made the first real part and the second imaginary part +0.0
    assert np.signbit(values.real).tolist() == [True, False, True]
    assert np.signbit(values.imag).tolist() == [False, True, True]


def test_loading_a_complex_kernel_holds_no_float_tree(tmp_path):
    rng = np.random.default_rng(5)
    X = sk.ProductSpace(sk.counting_space(16), sk.counting_space(16))
    K = sk.Kernel(X, X, rng.standard_normal(X.shape * 2) + 1j * rng.standard_normal(X.shape * 2))
    path = tmp_path / "k.json"
    path.write_text(dumps_json(dump_kernel(K)))
    values, mib = K.values.nbytes, 2**20
    tracemalloc.start()
    try:
        loaded = load_kernel(cli._read_json(str(path))[0])
        load_peak = tracemalloc.get_traced_memory()[1]
        text = path.read_text()
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        obj = loads_json(text)
        parse_peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert np.array_equal(loaded.values, K.values)
    # the complex array and the copy `Kernel` makes of it, and the window of
    # text the reader scans: not the file, which is three read chunks here
    assert load_peak <= 2 * values + 2 * cli._READ_CHUNK + mib
    # beside the text: "re" and "im" (one array's worth), the concatenated
    # copy of one of them, and one block of nested lists; json.loads' nested
    # lists of Python floats alone take about five times the values here
    assert parse_peak <= 2 * values + mib
    assert obj["re"].nbytes + obj["im"].nbytes == values


def _escape_loop(s):
    """The escaping `_escape` replaced: one character at a time."""
    out = []
    for ch in s:
        if ch in ('"', "\\"):
            out.append("\\" + ch)
        elif ord(ch) < 0x20:
            out.append(f"\\u{ord(ch):04x}")
        else:
            out.append(ch)
    return "".join(out)


def test_escape_matches_the_character_loop():
    chars = [chr(c) for c in range(0x80)] + ["\u00e9", "\u20ac", "\U0001d11e"]
    for ch in chars:
        assert jsonio._escape(ch) == _escape_loop(ch)
        assert json.loads(f'"{jsonio._escape(ch)}"') == ch
    text = "".join(chars) * 2
    assert jsonio._escape(text) == _escape_loop(text)


def test_reading_a_small_file_allocates_no_read_chunk(tmp_path):
    # a read asks for no more than one byte past the end of the file
    path = tmp_path / "f.json"
    X = sk.ProductSpace(sk.counting_space(5), sk.counting_space(5))
    path.write_text(dumps_json(dump_grid_function(sk.GridFunction(X, np.arange(25.0).reshape(5, 5) / 7))))
    assert path.stat().st_size < 2**10
    cli._read_json(str(path))
    tracemalloc.start()
    try:
        obj, _ = cli._read_json(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert obj["re"].shape == (5, 5)
    assert peak < 2**16 < cli._READ_CHUNK


def test_reading_a_pipe_takes_whole_chunks(monkeypatch, tmp_path):
    # a FIFO reports size 0: bounding its reads by that size read it a byte at a time
    X = sk.ProductSpace(sk.counting_space(16), sk.counting_space(16))
    K = sk.Kernel(X, X, np.random.default_rng(3).standard_normal(X.shape * 2))
    data = dumps_json(dump_kernel(K)).encode()
    assert len(data) > cli._READ_CHUNK
    path = tmp_path / "k.json"
    path.write_bytes(data)
    fifo = tmp_path / "k.fifo"
    os.mkfifo(fifo)
    want, want_digest = cli._read_json(str(path))
    reads = []

    class Decoder(cli._UTF8):
        def decode(self, data, final=False):
            reads.append(len(data))
            return super().decode(data, final)

    monkeypatch.setattr(cli, "_UTF8", Decoder)
    writer = threading.Thread(target=fifo.write_bytes, args=(data,))
    writer.start()
    try:
        obj, digest = cli._read_json(str(fifo))
    finally:
        writer.join()
    assert digest == want_digest == hashlib.sha256(data).hexdigest()
    assert dumps_json(dict(obj)) == dumps_json(dict(want))
    # a pipe holds 64 KiB by default, and a read returns at least a page of it
    assert sum(reads) == len(data)
    assert len(reads) <= len(data) // 4096 + 2


def test_an_early_syntax_error_is_final_at_once(monkeypatch, tmp_path):
    # a bad byte 2000 characters into "re" of a file 21 read chunks long:
    # the error is reported without reading the rest of the file
    monkeypatch.setattr(cli, "_READ_CHUNK", 1 << 16)
    X = sk.ProductSpace(sk.counting_space(16), sk.counting_space(16))
    text = dumps_json(dump_kernel(sk.Kernel(X, X, np.random.default_rng(5).standard_normal(X.shape * 2))))
    at = text.index('"re"') + 2000
    text = text[:at] + "x" + text[at + 1 :]
    assert len(text) > 20 * cli._READ_CHUNK
    path = tmp_path / "bad.json"
    path.write_text(text)
    with pytest.raises(json.JSONDecodeError) as want:
        json.loads(text)
    tracemalloc.start()
    try:
        with pytest.raises(json.JSONDecodeError) as err:
            cli._read_json(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(err.value) == str(want.value)
    assert peak < 6 * cli._READ_CHUNK  # about four read chunks: the window and the read


class _Count(int):
    pass


class _Named(dict):
    pass


def test_dumps_json_mixed_types_frozen():
    # built-in values, numpy scalars and subclasses, in the emitter's order of
    # tests (bool before int), must print what they always printed
    obj = {
        "floats": [np.float64(0.1), 1.5, -0.0, math.inf, -math.inf, np.float64(-math.inf), 1e-7, 1e22],
        "ints": (np.int64(-7), 1, True, _Count(3), np.bool_(False), False, 0),
        "empty": [[], {}, (), _Named(), ""],
        "sub": _Named({'a"b\\c\nd\te': None, 2: "x", 2.5: (1,), True: [np.int64(4)]}),
        "a": {"a": {"a": []}},
        7: [{1: "one"}, {True: "true"}, {1.0: "float"}],
        None: "\x01\u00e9",
    }
    want = "\n".join([
        '{',
        '  "floats": [0.10000000000000001, 1.5, -0, "inf", "-inf", "-inf", 9.9999999999999995e-08, 1e+22],',
        '  "ints": [-7, 1, true, 3, false, false, 0],',
        '  "empty": [[], {}, [], {}, ""],',
        '  "sub": {',
        '    "a\\"b\\\\c\\u000ad\\u0009e": null,',
        '    "2": "x",',
        '    "2.5": [1],',
        '    "True": [4]',
        '  },',
        '  "a": {',
        '    "a": {',
        '      "a": []',
        '    }',
        '  },',
        '  "7": [{',
        '    "1": "one"',
        '  }, {',
        '    "True": "true"',
        '  }, {',
        '    "1.0": "float"',
        '  }],',
        '  "None": "\\u0001\u00e9"',
        '}',
    ])
    assert dumps_json(obj) == want
    assert dumps_json(1.5) == "1.5" and dumps_json(-0.0) == "-0" and dumps_json(math.inf) == '"inf"'
    # strings with nothing to escape are returned as they are; others are translated
    assert dumps_json(["plain é", 'a"b', "a\\b", "\x1f", "\x7f\u2028\u00a0"]) == (
        '["plain é", "a\\"b", "a\\\\b", "\\u001f", "\x7f\u2028\u00a0"]'
    )
    for bad in (math.nan, [np.float64(math.nan)], {"x": (1, math.nan)}, np.array([1.0, math.nan])):
        with pytest.raises(ValueError, match="NaN"):
            dumps_json(bad)


def test_loaders_refuse_masses_that_are_not_json_numbers():
    for mass in ("0.5", True, False, None):
        with pytest.raises(ValueError, match=f"masses are JSON numbers, got {mass!r}"):
            jsonio.load_space({"points": [0, 1], "masses": [0.5, mass]})
    assert jsonio.load_space({"points": [0, 1], "masses": [0.5, 2]}).masses.tolist() == [0.5, 2.0]


def test_weight_grid_loader_needs_both_spaces():
    X = sk.ProductSpace(sk.counting_space(1), sk.counting_space(1))
    weight = dump_kernel(sk.WeightGrid(X, X, np.ones((1, 1, 1, 1))))
    assert jsonio.load_weight_grid(weight).values.tolist() == [[[[1.0]]]]
    for key in ("X", "Y"):
        with pytest.raises(ValueError, match="weight-grid JSON needs 'X' and 'Y'"):
            jsonio.load_weight_grid({k: v for k, v in weight.items() if k != key})
