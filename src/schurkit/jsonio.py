"""JSON wire formats for spaces, functions, kernels, coverings, and frames.

Loading validates shapes and positivity and returns the corresponding
library objects; dumping inverts it. `loads_json` parses a document with
the stdlib's C scanner, but turns a top-level object's "re" and "im" arrays
into float64 arrays block by block, so their nested lists of Python floats
never exist whole. `dumps_json` is a hand-rolled serializer emitting floats
with 17 significant digits (round-trip exact in double precision) and
infinities as the string "inf"; byte-identical output for identical data is
part of the contract. Dumped functions and kernels keep their values as
float64 arrays, which `dumps_json` formats a block of rows at a time.
"""

from __future__ import annotations

import json
import math
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
_BLOCK_CHARS = 1 << 18  # text of the elements scanned into Python floats before they are packed


def loads_json(text: str):
    """`json.loads(text)`, except that a top-level object's "re" and "im"
    arrays come back as float64 arrays.

    Those arrays are scanned one element at a time (see `_scan_floats`);
    every other value goes through the C scanner whole. Malformed text and
    a UTF-8 BOM raise `json.JSONDecodeError`, a ragged or non-numeric
    "re"/"im" array raises `ValueError` or `TypeError`, as `np.asarray`
    would on the parsed lists, and nesting past the interpreter's limit
    raises `RecursionError`.
    """
    if text.startswith("\ufeff"):
        raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
    idx = _ws(text, 0).end()
    if text[idx : idx + 1] == "{":
        obj, end = _scan_object(text, idx + 1)
    else:
        obj, end = _scan_value(text, idx)
    end = _ws(text, end).end()
    if end != len(text):
        raise json.JSONDecodeError("Extra data", text, end)
    return obj


def _scan_value(s: str, idx: int) -> tuple:
    try:
        return _scan_once(s, idx)
    except StopIteration as err:
        raise json.JSONDecodeError("Expecting value", s, err.value) from None


def _scan_object(s: str, idx: int) -> tuple:
    """(dict, end) of the object whose '{' is at s[idx - 1]; a repeated key keeps its last value."""
    obj: dict = {}
    end = _ws(s, idx).end()
    if s[end : end + 1] == "}":
        return obj, end + 1
    while True:
        if s[end : end + 1] != '"':
            raise json.JSONDecodeError("Expecting property name enclosed in double quotes", s, end)
        key, end = scanstring(s, end + 1)
        end = _ws(s, end).end()
        if s[end : end + 1] != ":":
            raise json.JSONDecodeError("Expecting ':' delimiter", s, end)
        end = _ws(s, end + 1).end()
        if key in _FLOAT_MEMBERS and s[end : end + 1] == "[":
            obj[key], end = _scan_floats(s, end + 1)
        else:
            obj[key], end = _scan_value(s, end)
        end = _ws(s, end).end()
        if s[end : end + 1] == "}":
            return obj, end + 1
        if s[end : end + 1] != ",":
            raise json.JSONDecodeError("Expecting ',' delimiter", s, end)
        end = _ws(s, end + 1).end()


def _scan_floats(s: str, idx: int) -> tuple:
    """(float64 array, end) of the array whose '[' is at s[idx - 1].

    Elements are scanned one at a time and packed by `np.asarray` into a
    block once the pending ones span `_BLOCK_CHARS` of text, so one block at
    most exists as nested lists. The result equals `np.asarray` of the whole
    list: a block that is ragged or non-numeric fails `np.asarray`, and
    blocks whose elements differ in shape fail `np.concatenate`. An array
    that cannot span more than one block is scanned by one call of the C
    scanner: element by element, `sumnorm` on small function files took
    about 3% longer per certificate.
    """
    if len(s) - idx < _BLOCK_CHARS:  # the rest of the text, so the whole array, fits in one block
        value, end = _scan_value(s, idx - 1)
        return np.asarray(value, dtype=float), end
    blocks, pending = [], []
    end = start = _ws(s, idx).end()
    if s[end : end + 1] == "]":
        return np.empty(0), end + 1
    while True:
        value, end = _scan_value(s, end)
        pending.append(value)
        end = _ws(s, end).end()
        closed = s[end : end + 1] == "]"
        if closed or end - start >= _BLOCK_CHARS:
            blocks.append(np.asarray(pending, dtype=float))
            pending = []
            start = end
        if closed:
            return (blocks[0] if len(blocks) == 1 else np.concatenate(blocks)), end + 1
        if s[end : end + 1] != ",":
            raise json.JSONDecodeError("Expecting ',' delimiter", s, end)
        end = _ws(s, end + 1).end()


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


def _complex_array(obj, what: str) -> np.ndarray:
    """The "re" array, or "re" and "im" assembled into one complex array in place."""
    if not isinstance(obj, dict) or "re" not in obj:
        raise ValueError(f"{what} JSON needs 're'")
    re = np.asarray(obj["re"], dtype=float)
    if "im" not in obj:
        return re
    im = np.asarray(obj["im"], dtype=float)
    if im.shape != re.shape:
        raise ValueError(f"{what} JSON: 'im' has shape {im.shape}, 're' has shape {re.shape}")
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


_EMIT_BLOCK = 1 << 17  # values turned into Python floats at a time: 1 MiB as float64


def _emit_array(a: np.ndarray, pieces: list) -> None:
    """Nested-list text of a finite, non-empty float array, one format per row.

    Rows are converted to Python floats a block of about `_EMIT_BLOCK`
    values at a time, so only one block exists as Python floats.
    """
    width = a.shape[-1]
    row = "[" + ", ".join(["%.17g"] * width) + "]"
    rows = a.reshape(a.size // width, width)
    step = max(1, _EMIT_BLOCK // width)
    text: list = []
    for i in range(0, len(rows), step):
        text += [row % tuple(r) for r in rows[i : i + step].tolist()]
    for n in reversed(a.shape[1:-1]):
        text = ["[" + ", ".join(text[i : i + n]) + "]" for i in range(0, len(text), n)]
    if a.ndim > 1:  # outer brackets as pieces of their own: "[" + text + "]" would copy the whole text twice
        text = ["[", ", ".join(text), "]"]
    pieces += text


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
