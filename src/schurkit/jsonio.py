"""JSON wire formats for spaces, functions, kernels, coverings, and frames.

Loading validates shapes and positivity and returns the corresponding
library objects; dumping inverts it. `loads_json` parses a document, given
whole or in chunks of text, with the stdlib's C scanner through a window
that drops the parsed text, so a document read in chunks never exists
whole. It turns a top-level object's "re" and "im" arrays into float64
arrays block by block, so their nested lists of Python floats never exist
whole either. `dumps_json` is a hand-rolled serializer emitting floats
with 17 significant digits (round-trip exact in double precision) and
infinities as the string "inf"; byte-identical output for identical data is
part of the contract. Dumped functions and kernels keep their values as
float64 arrays, which `dumps_json` formats a block of rows at a time; an
array's text is kept one leading-axis sub-array per piece. Loaders leave
the object they are given as it was, except the CLI's `_Owned` objects.
"""

from __future__ import annotations

import json
import math
from collections.abc import Iterable
from json.decoder import WHITESPACE, scanstring
from json.scanner import make_scanner

import numpy as np

from .coorbit import FiniteFrame, gabor_frame
from .coverings import PhaseGrid, RectCovering
from .kernel_algebra import WeightGrid
from .measure import ProductSpace, Space
from .mixed_norm import GridFunction
from .operators import Kernel

__all__ = [
    "loads_json",
    "load_space",
    "load_product",
    "load_grid_function",
    "load_kernel",
    "load_weight_grid",
    "load_phase_grid",
    "load_covering",
    "load_frame",
    "dump_space",
    "dump_product",
    "dump_grid_function",
    "dump_kernel",
    "dumps_json",
]


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

_scan_once = make_scanner(json.JSONDecoder())
_ws = WHITESPACE.match
_FLOAT_MEMBERS = ("re", "im")
_FLOATS = object()  # the value `_member` gives a "re"/"im" array, which `_scan_floats` scans
_BLOCK_CHARS = 1 << 18  # text of the elements scanned into Python floats before they are packed


def loads_json(text: str | Iterable[str]):
    """`json.loads` of a document given whole or as an iterable of text
    chunks, except that a top-level object's "re" and "im" arrays come back
    as float64 arrays.

    The document is scanned through a window of its text (see `_Window`):
    chunks are read as the scan needs them and the parsed prefix is
    dropped, so a document given in chunks never exists whole; a `str` is
    the one-chunk case. "re" and "im" arrays are scanned one element at a
    time (see `_scan_floats`); every other value goes through the C scanner
    whole. A document shorter than half a float block (`_BLOCK_CHARS`)
    that the window holds whole is scanned by one call of the C scanner,
    and its "re" and "im" lists are packed afterwards: member by member,
    reading a 789-byte function file took about 6 us longer than the
    whole-text parse this scanner replaced. That call holds the nested
    lists of both arrays at once; at a whole block it did so for the
    164 KB complex 64x64 function file and raised `sumnorm` peak RSS by
    0.25 MB. Malformed text and a UTF-8 BOM raise `json.JSONDecodeError`
    with the message `json.loads` gives, a ragged or non-numeric "re"/"im"
    array raises `ValueError` or `TypeError`, as `np.asarray` would on the
    parsed lists, and nesting past the interpreter's limit raises
    `RecursionError`.
    """
    doc = _Window((text,) if isinstance(text, str) else text)
    if doc.s.startswith("\ufeff"):
        raise doc.error("Unexpected UTF-8 BOM (decode using utf-8-sig)", 0)
    idx = doc.skip(0)
    if doc.done and len(doc.s) < _BLOCK_CHARS // 2:  # the whole document is in the window: one C scanner call
        obj, end = doc.scan(_value, idx)
        if type(obj) is dict:
            for key in _FLOAT_MEMBERS:
                if type(obj.get(key)) is list:
                    obj[key] = np.asarray(obj[key], dtype=float)
    elif doc.s[idx : idx + 1] == "{":
        obj, end = _scan_object(doc, idx + 1)
        end = doc.skip(end)
    else:
        obj, end = doc.scan(_value, idx)
    if end != len(doc.s):
        raise doc.error("Extra data", end)
    return obj


class _Window:
    """The text of a JSON document from position `base` on, read from an
    iterator of chunks as the scan needs it.

    Methods take and return positions in `s`. `fill` may drop the parsed
    prefix, so a caller holds no other position across it. `chunk` is the
    length of the longest chunk read so far: the scan keeps that much text
    ahead of each member and each "re"/"im" element, so an element shorter
    than a chunk is scanned once.
    """

    __slots__ = ("chunks", "s", "base", "lines", "column", "chunk", "done")

    def __init__(self, chunks) -> None:
        self.chunks = iter(chunks)
        self.s = ""
        self.base = 0  # document position of s[0]
        self.lines = 0  # newlines before s[0]
        self.column = 0  # characters between the last of those newlines (or the start) and s[0]
        self.chunk = 1
        self.done = False
        self.fill(0)

    def fill(self, idx: int, ahead: int = 0) -> int:
        """Read until more than max(ahead, chunk) characters lie ahead of
        position `idx`, or the input ends; returns idx's position in the new
        window.

        The text before idx is dropped once it is longer than a chunk.
        Reading past a full chunk finds the end of a one-chunk input at once.
        """
        s, self.s = self.s, ""
        if idx > self.chunk:
            first = s.find("\n", 0, idx)  # a fast search: most inputs hold few newlines
            if first < 0:
                self.column += idx
            else:
                self.lines += s.count("\n", first, idx)
                self.column = idx - s.rfind("\n", first, idx) - 1
            self.base += idx
            s = s[idx:]
            idx = 0
        parts, size = [s] if s else [], len(s)  # a single part is joined without a copy
        while size - idx <= max(ahead, self.chunk):
            piece = next(self.chunks, None)
            if piece is None:
                self.done = True
                break
            parts.append(piece)
            size += len(piece)
            self.chunk = max(self.chunk, len(piece))
        self.s = "".join(parts)
        return idx

    def skip(self, idx: int) -> int:
        """Position of the first non-whitespace character at or after idx,
        len(s) only at the end of the input."""
        end = _ws(self.s, idx).end()
        while end == len(self.s) and not self.done:
            end = self.fill(end)
            end = _ws(self.s, end).end()
        return end

    def scan(self, scan_once, idx: int) -> tuple:
        """(value, end) of `scan_once(s, idx)`, a C scanner call, reading more
        text until the result cannot depend on the text not yet read.

        A failure, or a value that ends within two characters of the end of
        the window, is retried with twice the text ahead, so a value longer
        than a chunk costs a bounded number of scans; a failure is final at
        the end of the input.
        """
        while True:
            s = self.s
            try:
                result = scan_once(s, idx)
            except StopIteration as err:
                failure = ("Expecting value", err.value)
            except json.JSONDecodeError as err:
                failure = (err.msg, err.pos)
            else:  # a number cut off by the window scans short ("1e-" as 1): "e-" is the longest such rest
                if result[1] < len(s) - 2 or self.done:
                    return result
            if self.done:
                raise self.error(*failure) from None
            idx = self.fill(idx, 2 * (len(self.s) - idx))

    def error(self, msg: str, idx: int) -> json.JSONDecodeError:
        """The `json.JSONDecodeError` for `msg` at position idx, its char, line
        and column counted in the document; its `doc` is the window."""
        s = self.s
        newlines = s.count("\n", 0, idx)
        lineno = self.lines + newlines + 1
        colno = idx - s.rfind("\n", 0, idx) if newlines else self.column + idx + 1
        err = json.JSONDecodeError(msg, s, idx)
        err.pos, err.lineno, err.colno = self.base + idx, lineno, colno
        err.args = (f"{msg}: line {lineno} column {colno} (char {err.pos})",)
        return err


def _member(s: str, idx: int) -> tuple:
    """((key, value), end) of the object member at or after s[idx], end
    past the whitespace after the value: one `_Window.scan` per member.
    A "re" or "im" array is left to `_scan_floats`: its value is `_FLOATS`
    and end is the position of its '['.
    """
    idx = _ws(s, idx).end()
    if s[idx : idx + 1] != '"':
        raise json.JSONDecodeError("Expecting property name enclosed in double quotes", s, idx)
    key, end = scanstring(s, idx + 1)
    end = _ws(s, end).end()
    if s[end : end + 1] != ":":
        raise json.JSONDecodeError("Expecting ':' delimiter", s, end)
    end = _ws(s, end + 1).end()
    if key in _FLOAT_MEMBERS and s[end : end + 1] == "[":
        return (key, _FLOATS), end
    value, end = _scan_once(s, end)
    return (key, value), _ws(s, end).end()


def _value(s: str, idx: int) -> tuple:
    """(value, end) of the value at or after s[idx], end past the whitespace after it."""
    value, end = _scan_once(s, _ws(s, idx).end())
    return value, _ws(s, end).end()


def _scan_object(doc: _Window, idx: int) -> tuple:
    """(dict, end) of the object whose '{' is at doc.s[idx - 1]; a repeated key keeps its last value."""
    obj: dict = {}
    end = doc.skip(idx)
    if doc.s[end : end + 1] == "}":
        return obj, end + 1
    while True:
        if len(doc.s) - end < doc.chunk and not doc.done:
            end = doc.fill(end)
        (key, value), end = doc.scan(_member, end)
        if value is _FLOATS:
            value, end = _scan_floats(doc, end + 1)
        obj[key] = value
        if doc.s[end : end + 1] == "}":
            return obj, end + 1
        if doc.s[end : end + 1] != ",":
            raise doc.error("Expecting ',' delimiter", end)
        end += 1


def _scan_floats(doc: _Window, idx: int) -> tuple:
    """(float64 array, position of the next non-whitespace character) of
    the array whose '[' is at doc.s[idx - 1].

    Elements are scanned one at a time and packed by `np.asarray` into a
    block once the pending ones span `_BLOCK_CHARS` of text, so one block at
    most exists as nested lists. The result equals `np.asarray` of the whole
    list: a block that is ragged or non-numeric fails `np.asarray`, and
    blocks whose elements differ in shape fail `np.concatenate`.
    """
    blocks, pending, size = [], [], 0
    end = doc.skip(idx)
    if doc.s[end : end + 1] == "]":
        return np.empty(0), doc.skip(end + 1)
    while True:
        if len(doc.s) - end < doc.chunk and not doc.done:
            end = doc.fill(end)
        start = doc.base + end  # a document position: the scan may drop the parsed prefix
        value, end = doc.scan(_value, end)
        pending.append(value)
        size += doc.base + end - start
        closed = doc.s[end : end + 1] == "]"
        if closed or size >= _BLOCK_CHARS:
            blocks.append(np.asarray(pending, dtype=float))
            pending, size = [], 0
        if closed:
            return (blocks[0] if len(blocks) == 1 else np.concatenate(blocks)), doc.skip(end + 1)
        if doc.s[end : end + 1] != ",":
            raise doc.error("Expecting ',' delimiter", end)
        end += 1


# ---------------------------------------------------------------------------
# loading
# ---------------------------------------------------------------------------


def _point(p):
    # JSON has no tuples; lists used as point ids become tuples (hashable)
    return tuple(_point(q) for q in p) if isinstance(p, list) else p


def load_space(obj) -> Space:
    if not isinstance(obj, dict) or "points" not in obj or "masses" not in obj:
        raise ValueError("space JSON needs 'points' and 'masses'")
    return Space([_point(p) for p in obj["points"]], [float(m) for m in obj["masses"]])


def load_product(obj) -> ProductSpace:
    if not isinstance(obj, dict) or "factor1" not in obj or "factor2" not in obj:
        raise ValueError("product-space JSON needs 'factor1' and 'factor2'")
    return ProductSpace(load_space(obj["factor1"]), load_space(obj["factor2"]))


class _Owned(dict):
    """A parsed object that its loader may take apart: the CLI's parse of an
    input file, which nothing else holds (see `_complex_array`)."""


def _complex_array(obj, what: str) -> np.ndarray:
    """The "re" array, or "re" and "im" assembled into one complex array in place.

    An `_Owned` object gives up "re" and "im" once they are read, so that
    the parsed arrays are freed before the caller copies the complex array
    into a `Kernel` or `GridFunction`; any other object is left as it is.
    """
    if not isinstance(obj, dict) or "re" not in obj:
        raise ValueError(f"{what} JSON needs 're'")
    re = np.asarray(obj["re"], dtype=float)
    if "im" not in obj:
        return re
    im = np.asarray(obj["im"], dtype=float)
    if im.shape != re.shape:
        raise ValueError(f"{what} JSON: 'im' has shape {im.shape}, 're' has shape {re.shape}")
    if isinstance(obj, _Owned):
        del obj["re"], obj["im"]
    out = np.empty(re.shape, dtype=complex)
    out.real = re
    out.imag = im
    return out


def load_grid_function(obj) -> GridFunction:
    if not isinstance(obj, dict) or "space" not in obj:
        raise ValueError("function JSON needs 'space'")
    return GridFunction(load_product(obj["space"]), _complex_array(obj, "function"))


def load_kernel(obj) -> Kernel:
    if not isinstance(obj, dict) or "X" not in obj or "Y" not in obj:
        raise ValueError("kernel JSON needs 'X' and 'Y'")
    return Kernel(load_product(obj["X"]), load_product(obj["Y"]), _complex_array(obj, "kernel"))


def load_weight_grid(obj) -> WeightGrid:
    if not isinstance(obj, dict) or obj.get("positive") is not True:
        raise ValueError("weight-grid JSON must set \"positive\": true")
    return WeightGrid(load_product(obj["X"]), load_product(obj["Y"]), _complex_array(obj, "weight"))


def load_phase_grid(obj, X: ProductSpace, Y: ProductSpace) -> PhaseGrid:
    return PhaseGrid(X, Y, _complex_array(obj, "phase"))


def load_covering(obj, space: ProductSpace) -> RectCovering:
    if not isinstance(obj, dict) or "patches" not in obj:
        raise ValueError("covering JSON needs 'patches'")
    patches = []
    for entry in obj["patches"]:
        if "V" not in entry or "W" not in entry:
            raise ValueError("each patch needs 'V' and 'W'")
        patches.append(([_point(p) for p in entry["V"]], [_point(p) for p in entry["W"]]))
    return RectCovering(space, patches)


def _window_entry(x) -> complex:
    if isinstance(x, list):
        if len(x) != 2:
            raise ValueError("complex window entries are [re, im] pairs")
        return complex(float(x[0]), float(x[1]))
    return complex(float(x), 0.0)


def load_frame(obj) -> FiniteFrame:
    if not isinstance(obj, dict) or obj.get("type") != "gabor":
        raise ValueError("frame JSON must have \"type\": \"gabor\"")
    N = obj.get("N")
    if not isinstance(N, int) or N < 1:
        raise ValueError("frame JSON needs positive integer 'N'")
    window = [_window_entry(x) for x in obj.get("window", [])]
    return gabor_frame(N, window)


# ---------------------------------------------------------------------------
# dumping
# ---------------------------------------------------------------------------


def _plain(p):
    return p.item() if isinstance(p, np.generic) else p


def dump_space(space: Space) -> dict:
    return {
        "points": [_plain(p) for p in space.points],
        "masses": [float(m) for m in space.masses],
    }


def dump_product(space: ProductSpace) -> dict:
    return {"factor1": dump_space(space.factor1), "factor2": dump_space(space.factor2)}


def dump_grid_function(f: GridFunction) -> dict:
    out = {"space": dump_product(f.space), "re": np.real(f.values)}
    if not f.is_real:
        out["im"] = np.imag(f.values)
    return out


def dump_kernel(K: Kernel) -> dict:
    out = {"X": dump_product(K.X), "Y": dump_product(K.Y), "re": np.real(K.values)}
    if not K.is_real:
        out["im"] = np.imag(K.values)
    if isinstance(K, WeightGrid):
        out["positive"] = True
    return out


def _format_number(x: float) -> str:
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    if math.isnan(x):
        raise ValueError("refusing to serialize NaN")
    return format(x, ".17g")


def _escape(s: str) -> str:
    out = []
    for ch in s:
        if ch in ('"', "\\"):
            out.append("\\" + ch)
        elif ord(ch) < 0x20:
            out.append(f"\\u{ord(ch):04x}")
        else:
            out.append(ch)
    return "".join(out)


_EMIT_BLOCK = 1 << 14  # values turned into Python floats at a time: 128 KiB as float64


def _emit_array(a: np.ndarray, pieces: list) -> None:
    """Nested-list text of a finite, non-empty float array, one format per row.

    An array of two or more axes is emitted a block of its leading-axis
    sub-arrays at a time, about `_EMIT_BLOCK` values or one sub-array, and
    each sub-array's text is a piece of its own: only one block exists as
    Python floats and row texts, and no piece holds the text of the whole
    array.
    """
    width = a.shape[-1]
    row = "[" + ", ".join(["%.17g"] * width) + "]"
    if a.ndim == 1:
        pieces.append(row % tuple(a.tolist()))
    else:
        step = max(1, _EMIT_BLOCK * len(a) // a.size)
        pieces.append("[")
        for i in range(0, len(a), step):
            for text in _subarray_texts(a[i : i + step], row):
                pieces += (text, ", ")
        pieces[-1] = "]"


def _subarray_texts(a: np.ndarray, row: str) -> list:
    """Texts of the leading-axis sub-arrays of a float array of two or more axes."""
    text = [row % tuple(r) for r in a.reshape(-1, a.shape[-1]).tolist()]
    for n in reversed(a.shape[1:-1]):
        text = ["[" + ", ".join(text[i : i + n]) + "]" for i in range(0, len(text), n)]
    return text


def _emit(obj, indent: int, pieces: list) -> None:
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            pieces.append("{}")
            return
        pieces.append("{\n")
        for i, (k, v) in enumerate(obj.items()):
            pieces.append(f'{pad}  "{_escape(str(k))}": ')
            _emit(v, indent + 1, pieces)
            pieces.append(",\n" if i + 1 < len(obj) else "\n")
        pieces.append(pad + "}")
    elif isinstance(obj, np.ndarray):
        if obj.ndim and obj.size and obj.dtype.kind == "f" and np.isfinite(obj).all():
            _emit_array(obj, pieces)
        else:  # infinities, NaN, other dtypes and empty arrays take the list path
            _emit(obj.tolist(), indent, pieces)
    elif isinstance(obj, (list, tuple)):
        seq = list(obj)
        if not seq:
            pieces.append("[]")
            return
        pieces.append("[")
        for i, v in enumerate(seq):
            _emit(v, indent, pieces)
            if i + 1 < len(seq):
                pieces.append(", ")
        pieces.append("]")
    elif isinstance(obj, bool) or isinstance(obj, np.bool_):
        pieces.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        pieces.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        pieces.append(_format_number(float(obj)))
    elif isinstance(obj, complex):
        _emit({"re": obj.real, "im": obj.imag}, indent, pieces)
    elif isinstance(obj, str):
        pieces.append(f'"{_escape(obj)}"')
    elif obj is None:
        pieces.append("null")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps_json(obj) -> str:
    """Deterministic JSON text: 17-significant-digit floats, "inf" strings."""
    pieces: list = []
    _emit(obj, 0, pieces)
    return "".join(pieces)
