"""Canonical JSON for groups, maps, complexes, butterflies and sequences.

Matrix entries are decimal strings (bit-exact at any size), and map matrices
are parsed and emitted reduced modulo their target's relations (FgAbMap);
keys are sorted on output, so emit(parse(emit(x))) == emit(x) byte for byte.
Documents are tagged with a "kind" field at the top level; nested objects
carry no tag because the schema fixes them.

Malformed documents raise SchemaError where they are read.  Well-formed ones
that a constructor rejects (a map that does not descend, a witness that
fails, mismatched endpoints), or a sequence whose E, F, G disagree with its
Y, Z, raise RefusalError; parse_document is the one place that turns those
ValueErrors into refusals.
"""

from __future__ import annotations

import json
import re

from .intlinalg import IntMatrix
from .fgab import FgAbGroup, FgAbMap
from .twocomplex import TwoTermComplex
from .butterfly import Butterfly, wing_ends
from .exactness import ButterflyShortSeq


class SchemaError(ValueError):
    """Malformed document; distinct from mathematical refusals."""


class RefusalError(ValueError):
    """Mathematically well-formed input that violates an axiom or precondition."""


# -- integers of any size ----------------------------------------------------
# int() and str() refuse more than 4300 decimal digits by default; the limit
# is process-global, so long numbers are converted here in chunks instead.

_CHUNK = 4000
_BASE = 10 ** _CHUNK
_LITERAL = re.compile(r"-?[0-9]+")


def _int_to_str(n: int) -> str:
    """str(n) for an int of any size."""
    if -_BASE < n < _BASE:
        return str(n)
    sign, n = ("-" if n < 0 else ""), abs(n)
    chunks = []
    while n >= _BASE:
        n, r = divmod(n, _BASE)
        chunks.append(str(r).zfill(_CHUNK))
    chunks.append(str(n))
    return sign + "".join(reversed(chunks))


def _str_to_int(s: str) -> int:
    """int(s) for a decimal literal -?[0-9]+ of any length; ValueError otherwise.

    int() alone would also take surrounding whitespace, a plus sign,
    underscores and non-ASCII digits.
    """
    if not _LITERAL.fullmatch(s):
        raise ValueError(f"invalid literal of length {len(s)}")
    digits = s.lstrip("-")
    n = 0
    for k in range(0, len(digits), _CHUNK):
        chunk = digits[k:k + _CHUNK]
        n = n * 10 ** len(chunk) + int(chunk)
    return -n if s[0] == "-" else n


def _shorten(text: str) -> str:
    """text cut to 40 characters for an error message."""
    return text if len(text) <= 40 else f"{text[:40]}... ({len(text)} characters)"


# -- encoding ----------------------------------------------------------------

def matrix_to_json(m: IntMatrix) -> list:
    return [[_int_to_str(e) for e in m.row(i)] for i in range(m.rows)]


def group_to_json(g: FgAbGroup) -> dict:
    return {"ngens": g.ngens, "relations": matrix_to_json(g.relations)}


def map_to_json(f: FgAbMap) -> dict:
    return {"src": group_to_json(f.src), "dst": group_to_json(f.dst),
            "matrix": matrix_to_json(f.matrix)}


def complex_to_json(e: TwoTermComplex) -> dict:
    return {"deg-1": group_to_json(e.deg_m1), "deg0": group_to_json(e.deg_0),
            "d": matrix_to_json(e.d.matrix)}


def butterfly_to_json(b: Butterfly) -> dict:
    return {"src": complex_to_json(b.src), "dst": complex_to_json(b.dst),
            "carrier": group_to_json(b.carrier),
            "i": matrix_to_json(b.i.matrix), "j": matrix_to_json(b.j.matrix),
            "p": matrix_to_json(b.p.matrix), "q": matrix_to_json(b.q.matrix)}


def sequence_to_json(s: ButterflyShortSeq) -> dict:
    return {"E": complex_to_json(s.e), "F": complex_to_json(s.f),
            "G": complex_to_json(s.g),
            "Y": butterfly_to_json(s.y), "Z": butterfly_to_json(s.z),
            "phi": matrix_to_json(s.phi.matrix)}


def document(kind: str, payload: dict) -> dict:
    return {"kind": kind, **payload}


def emit(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


# -- decoding ----------------------------------------------------------------

def _expect(cond: bool, msg: str):
    if not cond:
        raise SchemaError(msg)


def matrix_from_json(data, rows: int, cols: int) -> IntMatrix:
    _expect(isinstance(data, list), "matrix must be a list of rows")
    _expect(len(data) == rows, f"matrix has {len(data)} rows, expected {rows}")
    flat = []
    for r in data:
        _expect(isinstance(r, list) and len(r) == cols,
                f"matrix row has wrong length (expected {cols})")
        for e in r:
            # type(e) is int, not isinstance: JSON true and false parse to bool
            _expect(isinstance(e, str) or type(e) is int, "matrix entries must be decimal strings")
            try:
                flat.append(e if isinstance(e, int) else _str_to_int(e))
            except ValueError:
                raise SchemaError(f"bad integer literal {_shorten(repr(e))}")
    return IntMatrix(rows, cols, flat)


def group_from_json(data) -> FgAbGroup:
    _expect(isinstance(data, dict), "group must be an object")
    _expect(type(data.get("ngens")) is int and data["ngens"] >= 0,
            "group.ngens must be a nonnegative integer")
    rel = data.get("relations")
    _expect(isinstance(rel, list) and all(isinstance(r, list) for r in rel),
            "group.relations must be a matrix")
    ncols = len(rel[0]) if rel else 0
    return FgAbGroup(data["ngens"], matrix_from_json(rel, data["ngens"], ncols))


def map_from_json(data) -> FgAbMap:
    _expect(isinstance(data, dict), "map must be an object")
    src = group_from_json(data.get("src"))
    dst = group_from_json(data.get("dst"))
    return FgAbMap(src, dst, matrix_from_json(data.get("matrix"), dst.ngens, src.ngens))


def complex_from_json(data) -> TwoTermComplex:
    _expect(isinstance(data, dict), "complex must be an object")
    m1 = group_from_json(data.get("deg-1"))
    g0 = group_from_json(data.get("deg0"))
    d = matrix_from_json(data.get("d"), g0.ngens, m1.ngens)
    return TwoTermComplex(FgAbMap(m1, g0, d))


def butterfly_from_json(data) -> Butterfly:
    _expect(isinstance(data, dict), "butterfly must be an object")
    src = complex_from_json(data.get("src"))
    dst = complex_from_json(data.get("dst"))
    car = group_from_json(data.get("carrier"))
    wings = {name: FgAbMap(a, b, matrix_from_json(data.get(name), b.ngens, a.ngens))
             for name, (a, b) in wing_ends(src, dst, car).items()}
    return Butterfly(src, dst, **wings)


def sequence_from_json(data) -> ButterflyShortSeq:
    _expect(isinstance(data, dict), "sequence must be an object")
    e = complex_from_json(data.get("E"))
    f = complex_from_json(data.get("F"))
    g = complex_from_json(data.get("G"))
    y = butterfly_from_json(data.get("Y"))
    z = butterfly_from_json(data.get("Z"))
    phi = matrix_from_json(data.get("phi"), z.carrier.ngens, y.carrier.ngens)
    s = ButterflyShortSeq(y, z, FgAbMap(y.carrier, z.carrier, phi))
    # E, F and G repeat what Y and Z say: the same groups and differentials as maps
    if (e, f) != (s.e, s.f):
        raise ValueError("y endpoints mismatch")
    if g != s.g:
        raise ValueError("z endpoints mismatch")
    return s


PARSERS = {
    "group": group_from_json,
    "map": map_from_json,
    "complex": complex_from_json,
    "butterfly": butterfly_from_json,
    "sequence": sequence_from_json,
}
KINDS = tuple(PARSERS)  # `in` a tuple compares, so an unhashable kind is refused, not a TypeError


def parse_document(text: str):
    try:
        data = json.loads(text, parse_int=_str_to_int)
    except (json.JSONDecodeError, RecursionError) as exc:
        # nesting deeper than the interpreter's recursion limit is bad input too
        raise SchemaError(f"invalid JSON: {exc}")
    _expect(isinstance(data, dict), "document must be an object")
    kind = data.get("kind")
    _expect(kind in KINDS, f"unknown document kind {kind!r}")
    try:
        return kind, PARSERS[kind](data)
    except SchemaError:
        raise
    except ValueError as exc:
        # a constructor rejected well-formed input: a refusal, not a schema error
        raise RefusalError(str(exc))


def invariants_to_json(g: FgAbGroup) -> dict:
    rank, tors = g.invariant_factors()
    return {"rank": rank, "torsion": [_int_to_str(d) for d in tors]}


def parse_group_shorthand(text: str) -> FgAbGroup:
    """Invariant-factor shorthand: "Z/2+Z/4+Z", "2", "Z", "0"."""
    text = text.strip()
    if text == "0":
        return FgAbGroup.trivial()
    rank = 0
    tors = []
    for tok in text.split("+"):
        tok = tok.strip()
        if tok == "Z":
            rank += 1
        elif tok.startswith("Z/"):
            tors.append(_positive_int(tok[2:].strip()))
        else:
            tors.append(_positive_int(tok))
    return FgAbGroup.from_invariants(rank, tors)


def _positive_int(s: str) -> int:
    try:
        n = _str_to_int(s)
    except ValueError:
        raise SchemaError(f"bad group shorthand token {_shorten(repr(s))}")
    if n < 2:
        raise SchemaError(f"torsion factor must be >= 2, got {n}")
    return n
