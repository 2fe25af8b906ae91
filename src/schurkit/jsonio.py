"""JSON wire formats for spaces, functions, kernels, coverings, and frames.

Loading validates shapes and positivity and returns the corresponding
library objects; dumping inverts it. `loads_json` parses a document, given
whole or in chunks of text, with the stdlib's C scanner through a window
that drops the parsed text, so a document read in chunks never exists
whole. It turns a top-level object's "re" and "im" arrays, whose entries
must be JSON numbers, into float64 arrays in one function, `_scan_floats`,
block by block, so their nested lists of Python floats never exist whole
either. `dumps_json` is a hand-rolled serializer emitting floats with 17
significant digits (round-trip exact in double precision) and infinities
as the string "inf"; it refuses NaN. Byte-identical output for identical
data is part of the contract. Dumped functions and kernels keep
their values as float64 arrays, which `dumps_json` formats with numpy
4,096 values at a time (see `_Formatter`), into the text '%.17g' gives:
the 17 digits come from a single long double rounding of |x| * 10^(16 - e),
and a value that rounding cannot settle, or that lies outside the range
where 10^|16 - e| is exact, is formatted one at a time as a float outside
an array is. An array's text is kept one block per piece. Loaders leave the
object they are given as it was, except the CLI's `_Owned` objects.
"""

from __future__ import annotations

import functools
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
_CUT = len("-Infinit")  # the most of a token a failure cut off by the window can lie before its end
_UNTERMINATED = "Unterminated string starting at"
_NUMBERS_RULE = '"re" and "im" entries are JSON numbers'
_NOT_NUMBERS = '"tfn'  # in strings, true, false, null and Infinity; in no number, nor in NaN


def loads_json(text: str | Iterable[str]):
    """`json.loads` of a document given whole or as an iterable of text
    chunks, except that a top-level object's "re" and "im" arrays come back
    as float64 arrays.

    The document is scanned through a window of its text (see `_Window`):
    chunks are read as the scan needs them and the parsed prefix is
    dropped, so a document given in chunks never exists whole; a `str` is
    the one-chunk case. A top-level object is scanned member by member,
    and its "re" and "im" arrays become float64 arrays in `_scan_floats`
    alone: in one C scanner call when the window holds the rest of the
    document and that rest is shorter than a float block (`_BLOCK_CHARS`),
    otherwise one element at a time. Every other value goes through the C
    scanner whole. Malformed text and a UTF-8 BOM raise
    `json.JSONDecodeError` with the message `json.loads` gives. A "re"/"im"
    array holding a string, true, false, null or Infinity raises
    `ValueError` stating `_NUMBERS_RULE` (NaN is left to the loaders'
    finiteness checks), a ragged one raises `ValueError` as `np.asarray`
    would on the parsed lists, and nesting past the interpreter's limit
    raises `RecursionError`.
    """
    doc = _Window((text,) if isinstance(text, str) else text)
    if doc.s.startswith("\ufeff"):
        raise doc.error("Unexpected UTF-8 BOM (decode using utf-8-sig)", 0)
    idx = doc.skip(0)
    if doc.s[idx : idx + 1] == "{":
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

        A value that ends within two characters of the end of the window is
        retried with twice the text ahead, and so is a failure that the end
        of the window may have caused: one within `_CUT` characters of it,
        where a literal, number or \\uXXXX escape may be cut off, or an
        unterminated string, reported where the string starts. So a value
        longer than a chunk costs a bounded number of scans. Any other
        failure is final at once, and every failure at the end of the input.
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
                failure = None
            if self.done or failure and failure[1] < len(s) - _CUT and failure[0] != _UNTERMINATED:
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

    When the input has ended and the rest of the document, from the '[' on,
    is shorter than `_BLOCK_CHARS`, the array is one C scanner call and one
    `np.asarray`: its nested lists span less text than a block. Otherwise
    elements are scanned one at a time and packed by `np.asarray` into a
    block once the pending ones span `_BLOCK_CHARS` of text, so one block at
    most exists as nested lists. Either way the result equals `np.asarray`
    of the whole list: a block that is ragged fails `np.asarray`, and blocks
    whose elements differ in shape fail `np.concatenate`. A block whose text
    holds a character of `_NOT_NUMBERS` fails before `np.asarray`, so a
    syntax error later in the array is still reported as one.
    """
    if doc.done and len(doc.s) - idx < _BLOCK_CHARS:  # the whole rest of the document is in the window
        value, end = doc.scan(_value, idx - 1)
        return _pack(value, _numbers_only(doc.s, idx - 1, end)), end
    blocks, pending, size, numbers = [], [], 0, True
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
        numbers = numbers and _numbers_only(doc.s, start - doc.base, end)
        closed = doc.s[end : end + 1] == "]"
        if closed or size >= _BLOCK_CHARS:
            blocks.append(_pack(pending, numbers))
            pending, size = [], 0
        if closed:
            return (blocks[0] if len(blocks) == 1 else np.concatenate(blocks)), doc.skip(end + 1)
        if doc.s[end : end + 1] != ",":
            raise doc.error("Expecting ',' delimiter", end)
        end += 1


def _numbers_only(s: str, start: int, end: int) -> bool:
    """Whether s[start:end] holds no character of `_NOT_NUMBERS`: one search
    per character, with no copy of the text."""
    return all(s.find(c, start, end) < 0 for c in _NOT_NUMBERS)


def _pack(values: list, numbers: bool) -> np.ndarray:
    """`np.asarray(values, dtype=float)` of scanned elements whose text
    `_numbers_only` passed (`numbers`), else ValueError stating the rule."""
    if not numbers:
        raise ValueError(_NUMBERS_RULE)
    return np.asarray(values, dtype=float)


# ---------------------------------------------------------------------------
# loading
# ---------------------------------------------------------------------------


def _point(p):
    # JSON has no tuples; lists used as point ids become tuples (hashable)
    return tuple(_point(q) for q in p) if isinstance(p, list) else p


def load_space(obj) -> Space:
    if not isinstance(obj, dict) or "points" not in obj or "masses" not in obj:
        raise ValueError("space JSON needs 'points' and 'masses'")
    return Space([_point(p) for p in obj["points"]], [_json_number(m, "masses are JSON numbers") for m in obj["masses"]])


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


def _target_source(obj, what: str) -> tuple[ProductSpace, ProductSpace]:
    if not isinstance(obj, dict) or "X" not in obj or "Y" not in obj:
        raise ValueError(f"{what} JSON needs 'X' and 'Y'")
    return load_product(obj["X"]), load_product(obj["Y"])


def load_kernel(obj) -> Kernel:
    return Kernel(*_target_source(obj, "kernel"), _complex_array(obj, "kernel"))


def load_weight_grid(obj) -> WeightGrid:
    if not isinstance(obj, dict) or obj.get("positive") is not True:
        raise ValueError("weight-grid JSON must set \"positive\": true")
    return WeightGrid(*_target_source(obj, "weight-grid"), _complex_array(obj, "weight"))


def load_phase_grid(obj, X: ProductSpace, Y: ProductSpace) -> PhaseGrid:
    return PhaseGrid(X, Y, _complex_array(obj, "phase"))


def load_covering(obj, space: ProductSpace) -> RectCovering:
    if not isinstance(obj, dict) or not isinstance(obj.get("patches"), list):
        raise ValueError("covering JSON needs a 'patches' list")
    patches = []
    for i, entry in enumerate(obj["patches"]):
        if not (isinstance(entry, dict) and isinstance(entry.get("V"), list) and isinstance(entry.get("W"), list)):
            raise ValueError(f"covering JSON: patch {i} is not an object whose 'V' and 'W' are lists")
        patches.append(([_point(p) for p in entry["V"]], [_point(p) for p in entry["W"]]))
    return RectCovering(space, patches)


def _json_number(x, rule: str) -> float:
    """`x` as a float if it is a JSON number (not a string or a boolean), else
    ValueError stating `rule` and naming `x`."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise ValueError(f"{rule}, got {x!r}")
    return float(x)


_WINDOW_RULE = "window entries are JSON numbers or [re, im] pairs of them"


def _window_entry(x) -> complex:
    if isinstance(x, list):
        if len(x) != 2:
            raise ValueError("complex window entries are [re, im] pairs")
        return complex(_json_number(x[0], _WINDOW_RULE), _json_number(x[1], _WINDOW_RULE))
    return complex(_json_number(x, _WINDOW_RULE), 0.0)


def load_frame(obj) -> FiniteFrame:
    if not isinstance(obj, dict) or obj.get("type") != "gabor":
        raise ValueError("frame JSON must have \"type\": \"gabor\"")
    N = obj.get("N")
    if isinstance(N, bool) or not isinstance(N, int) or N < 1:
        raise ValueError("frame JSON needs positive integer 'N'")
    window = obj.get("window")
    if not isinstance(window, list):
        raise ValueError("frame JSON needs a 'window' list")
    return gabor_frame(N, [_window_entry(x) for x in window])


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
    if math.isfinite(x):
        return format(x, ".17g")
    if math.isnan(x):
        raise ValueError("refusing to serialize NaN")
    return '"inf"' if x > 0 else '"-inf"'


_ESCAPES = {ord('"'): '\\"', ord("\\"): "\\\\", **{c: f"\\u{c:04x}" for c in range(0x20)}}


def _escape(s: str) -> str:
    if s.isprintable() and '"' not in s and "\\" not in s:  # nothing below 0x20 either
        return s
    return s.translate(_ESCAPES)


_EMIT_BLOCK = 1 << 12  # values formatted at a time; a block's temporaries peak at about 283 bytes a value (tracemalloc)

# `_Formatter` formats float64 values as '%.17g' does, with numpy. Each value
# is a row of 64-bit words: its number in the first four (byte columns in
# `_layouts`), then the brackets and ", " that follow it.
_EXACT = np.finfo(np.longdouble).nmant >= 63  # 10^s for 0 <= s <= 27 is exact: 5^27 < 2^63
_E_MIN, _E_MAX = -11, 43  # decimal exponents laid out: those of 1e-10 <= |x| < 1e42, and one more each way


@functools.cache
def _tables() -> tuple:
    """(10^0 .. 10^27 as long doubles, b"0000" .. b"9999" as 32-bit words,
    the trailing zeros of each, and the three `_layouts` tables), built on
    first use: a command that prints no array does not pay about 1 MB of
    RSS and 4 ms for them."""
    pow10 = np.multiply.accumulate(np.array([1] + [10] * 27, dtype=np.longdouble))
    quad = np.arange(10**4, dtype=np.uint16)
    quads = (quad[:, None] // np.array([1000, 100, 10, 1], dtype=np.uint16) % 10 + ord("0")).astype(np.uint8)
    quads = quads.view(np.uint32).ravel()
    trailing = sum(quad % 10**k == 0 for k in range(1, 5))
    tables = (pow10, quads, trailing, *_layouts())
    for t in tables:
        t.flags.writeable = False
    return tables


def _layouts() -> tuple:
    """(keep-A mask, keep-B mask, constant bytes) of a row's five words, one
    row per layout (e - _E_MIN) * 17 + last, where e is the decimal exponent
    and digit `last` the last that is not a trailing zero.

    Column 0 is left for the sign, which `_Formatter` writes. Digit j is at
    column 7 + j in the "A" copy of the digits and at 8 + j in the "B" copy,
    one byte further on: digits before the point come from A, those after it
    from B, and the point sits at 8 + q after digit q. As '%g' lays them
    out: fixed notation for -4 <= e < 17, with "0." and -e - 1 zeros in
    columns 6 + e to 6 when e is negative; otherwise "d.ddd" and "e+XX" in
    columns 25 to 28; trailing zeros of the fraction, and then a bare point,
    dropped.
    """
    e = np.arange(_E_MIN, _E_MAX + 1)[:, None, None]
    last = np.arange(17)[:, None]
    col = np.arange(40)
    fixed = (e >= -4) & (e < 17)
    q = np.where(fixed, e, 0)  # the digit the point follows; the point comes first if negative
    a = (col >= 7) & (col <= 7 + np.where(q >= 0, q, last))
    b = (q >= 0) & (col >= 9 + q) & (col <= 8 + last)
    const = np.zeros(a.shape, dtype=np.uint8)  # in bytes: the tables are built mid-run, among the texts
    const[(q >= 0) & (last > q) & (col == 8 + q)] = ord(".")
    lead = fixed & (e < 0) & (col >= 6 + e) & (col <= 6)
    np.copyto(const, np.where(col == 7 + e, ord("."), ord("0")), where=lead, casting="unsafe")
    mag = np.abs(e)
    for k, byte in enumerate([ord("e"), np.where(e < 0, ord("-"), ord("+")), ord("0") + mag // 10, ord("0") + mag % 10]):
        np.copyto(const[..., 25 + k : 26 + k], byte, where=~fixed, casting="unsafe")
    tables = (a * np.uint8(255), b * np.uint8(255), const)
    return tuple(t.reshape(-1, 40).view(np.uint64) for t in tables)


class _Formatter:
    """The texts `_format_number` gives the `count` values of a float array
    of shape `shape`, a block at a time (`_emit_array` passes `_EMIT_BLOCK`,
    4,096, values), in the array's brackets.

    A value's row holds its number and, after it, its tail: its closing
    brackets, ", " and the next value's opening brackets, or the array's
    closing brackets after its last value. Bytes a row leaves unused are NUL,
    and the text keeps the others.
    """

    def __init__(self, shape: tuple) -> None:
        self.shape, self.count = shape, math.prod(shape)
        depth = len(shape)
        self.words = words = 4 + -(-2 * depth // 8)  # the longest tail: "]" and "[" per axis but one, and ", "
        texts = [("]" * c + ", " + "[" * c).encode() for c in range(depth)] + [b"]" * depth]
        self.tails = np.array(texts, dtype=f"S{8 * (words - 4)}").view(np.uint64).reshape(-1, words - 4)
        self.pow10, self.quad_text, self.trailing_zeros, *tables = _tables()
        self.tables = [t if words == 5 else np.pad(t, ((0, 0), (0, words - 5))) for t in tables]

    def text(self, v: np.ndarray, pos: int) -> str:
        """Text of values `v` from flat position `pos` of the array, each
        followed by its tail."""
        rows = self._numbers(v)
        self._tail(pos, rows[:, 4:])
        if pos + len(v) == self.count:
            rows[-1, 4:] = self.tails[-1]
        raw = rows.view(np.uint8).reshape(-1)
        return str(raw[raw != 0], "ascii")

    def _tail(self, start: int, out: np.ndarray) -> None:
        """Tail words of the values from flat position `start` into `out`,
        the array's last value aside. A value that ends sub-arrays of the
        last k axes closes k brackets, and such values sit every
        prod(shape[-k:]) positions."""
        out[:] = self.tails[0]
        span = 1
        for k, size in enumerate(reversed(self.shape[1:]), 1):
            span *= size
            out[(-start - 1) % span :: span] = self.tails[k]

    def _numbers(self, v: np.ndarray) -> np.ndarray:
        """Rows of `v` with the number in the first four words.

        The decimal exponent e comes from `log10`, corrected so that
        10^16 <= |x| * 10^(16-e) < 10^17, and the 17 digits are the integer D
        nearest that product. The product is rounded once, to a 64-bit
        significand, in which every k + 1/2 below 10^17 is exact, and
        rounding is monotone, so D = floor(product + 1/2) unless the product
        lands on some k + 1/2, which is detected. 10^16 and 10^17 are exact
        as well, so a product rounded onto either bound gives the digits and
        exponent its true value rounds to. `_format_number` formats a value
        whose product lands on a half, one outside 1e-10 <= |x| < 1e42
        (where 10^|16-e| would not be exact; infinities, and NaN, which it
        refuses, too) and, without a 64-bit long double significand, every
        value.
        """
        x = np.abs(v, dtype=float)  # a float32 or long double array prints its values as float64s
        zero = x == 0
        slow = ~((x >= 1e-10) & (x < 1e42) | zero)  # so NaN, which compares false, is slow, as are infinities
        if not _EXACT:
            slow[:] = True
        x[slow | zero] = 1.0  # placeholders: their digits are not used
        s = (16 - np.floor(np.log10(x))).astype(np.intp)
        p = self._scale(x, s)
        off = np.flatnonzero((p < 1e16) | (p >= 1e17))  # log10 was off by one, near a power of ten
        if off.size:
            s[off] += np.where(p[off] < 1e16, 1, -1)
            out = off[np.abs(s[off]) > 27]
            slow[out], s[out] = True, 16
            p[off] = self._scale(x[off], s[off])
        p += 0.5  # exact: the spacing of the long doubles here is at most 2^-7
        d = p.astype(np.int64)  # truncates
        slow |= p == d  # on a half, which '%.17g' rounds to even
        carry = np.flatnonzero(d == 10**17)
        d[carry], s[carry] = 10**16, s[carry] - 1
        d[zero], s[zero] = 0, 16

        # digits, four per table lookup: the leading one, then four groups of four
        hi, lo = _divmod(d, 10**8)
        lead, mid = _divmod(hi, 10**8)
        quads = (lead, *_divmod(mid, 10**4), *_divmod(lo, 10**4))
        trailing = np.take(self.trailing_zeros, quads[4], mode="clip")
        more = np.flatnonzero(quads[4] == 0)
        for quad in quads[3:0:-1]:
            trailing[more] += self.trailing_zeros[quad[more]]
            more = more[quad[more] == 0]
        a = np.zeros((len(v), self.words), dtype=np.uint64)  # the A copy of the digits
        a.view(np.uint32)[:, 1:6] = np.take(self.quad_text, quads, mode="clip").T  # bytes 4 to 23: digit j at 7 + j
        b = np.roll(a.view(np.uint8), 1).view(np.uint64)  # the B copy, one byte further on
        layout = (16 - _E_MIN - s) * 17 + 16 - trailing  # (e - _E_MIN) * 17 + last

        keep_a, keep_b, const = self.tables
        rows = np.take(keep_a, layout, axis=0, mode="clip")
        rows &= a
        b &= np.take(keep_b, layout, axis=0, mode="clip")
        rows |= b
        rows |= np.take(const, layout, axis=0, mode="clip")
        np.copyto(rows.view(np.uint8)[:, 0], ord("-"), where=np.signbit(v))

        idx = np.flatnonzero(slow)
        if idx.size:
            texts = np.array([_format_number(value) for value in v[idx].tolist()], dtype="S32")
            rows[idx, :4] = texts.view(np.uint64).reshape(-1, 4)
        return rows

    def _scale(self, x: np.ndarray, s: np.ndarray) -> np.ndarray:
        """x * 10^s in long double, each product rounded once; |s| <= 27."""
        tens = np.take(self.pow10, np.abs(s), mode="clip")
        p = x * tens
        big = np.flatnonzero(s < 0)
        if big.size:
            p[big] = x[big] / tens[big]
        return p


def _divmod(x: np.ndarray, divisor: int) -> tuple:
    """divmod(x, divisor): numpy divides by a constant quickly, but takes
    remainders slowly."""
    q = x // divisor
    return q, x - q * divisor


def _emit_array(a: np.ndarray, pieces: list) -> None:
    """Nested-list text of a non-empty float array.

    A `_Formatter` formats the values `_EMIT_BLOCK` (4,096) at a time, the
    last block shorter, and each block's text is a piece of its own: only one
    block exists as bytes, and no piece holds the text of the whole array.
    """
    fmt = _Formatter(a.shape)
    flat = a.reshape(-1)
    pieces.append("[" * a.ndim)
    for lo in range(0, a.size, _EMIT_BLOCK):
        pieces.append(fmt.text(flat[lo : lo + _EMIT_BLOCK], lo))


def _emit_dict(obj: dict, indent: int, pieces: list) -> None:
    if not obj:
        pieces.append("{}")
        return
    pad = "  " * indent
    pieces.append("{\n")
    for k, v in obj.items():
        pieces.append(f'{pad}  "{_escape(str(k))}": ')
        _emit(v, indent + 1, pieces)
        pieces.append(",\n")
    pieces[-1] = "\n" + pad + "}"  # the last separator closes the object


def _emit_seq(obj, indent: int, pieces: list) -> None:
    if not obj:
        pieces.append("[]")
        return
    pieces.append("[")
    for v in obj:
        _emit(v, indent, pieces)
        pieces.append(", ")
    pieces[-1] = "]"


def _emit(obj, indent: int, pieces: list) -> None:
    # most frequent kinds first; bool before int, since bool subclasses int
    if isinstance(obj, (float, np.floating)):
        pieces.append(_format_number(float(obj)))
    elif isinstance(obj, str):
        pieces.append(f'"{_escape(obj)}"')
    elif isinstance(obj, dict):
        _emit_dict(obj, indent, pieces)
    elif isinstance(obj, (list, tuple)):
        _emit_seq(obj, indent, pieces)
    elif isinstance(obj, (bool, np.bool_)):
        pieces.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        pieces.append(str(int(obj)))
    elif isinstance(obj, np.ndarray):
        if obj.ndim and obj.size and obj.dtype.kind == "f":
            _emit_array(obj, pieces)
        else:  # other dtypes, 0-d and empty arrays take the list path
            _emit(obj.tolist(), indent, pieces)
    elif isinstance(obj, complex):
        _emit({"re": obj.real, "im": obj.imag}, indent, pieces)
    elif obj is None:
        pieces.append("null")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps_json(obj) -> str:
    """Deterministic JSON text: 17-significant-digit floats, "inf" strings."""
    pieces: list = []
    _emit(obj, 0, pieces)
    return "".join(pieces)
