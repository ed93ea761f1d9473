"""Every text format of the package: the JSON out and the flags in.

All rationals serialize as strings "p/q" (plain "p" for integers), never as
floats; vectors as "r,d,a"; surds as "a*sqrt(r)" or plain integers.  Every
integer becomes text through `int_str`, which prints ints of any size.
`emit` prints a command's payload as `json.dumps(indent=2,
sort_keys=True)` would, and writes each wall in it with `wall_record`,
straight from the integers of its shape and witness, with plain `str`
unless one of them is past the interpreter's limit on int-to-str
conversion.  The `parse_*` functions read the CLI's flags: windows,
label ranges, vectors, rationals, surds, matrices and half-plane points.
"""

from __future__ import annotations

import math
import re
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote

from .errors import NotInGHat
from .lattice import MukaiVector
from .pell import GMatrix, NumericalSolution
from .surd import QnComplex, QnNumber, RatLike, Surd
from .walls import ChamberReport, Circle, Wall, WMaxReport

# 10^_CHUNK_DIGITS stays below every limit sys.set_int_max_str_digits accepts (640 and up)
_CHUNK_DIGITS = 600
_CHUNK = 10**_CHUNK_DIGITS


def int_str(x: int) -> str:
    """The decimal text of an int of any size.  str(x) raises ValueError
    past the interpreter's limit on int-to-str conversion
    (sys.get_int_max_str_digits); such an int is converted in chunks of
    _CHUNK_DIGITS digits, each below the limit, and the limit is left
    alone."""
    try:
        return str(x)
    except ValueError:
        pass
    chunks = []
    rest = abs(x)
    while rest >= _CHUNK:
        rest, low = divmod(rest, _CHUNK)
        chunks.append(str(low).zfill(_CHUNK_DIGITS))
    chunks.append(str(rest))
    return ("-" if x < 0 else "") + "".join(reversed(chunks))


def ratio_str(num: int, den: int, text=int_str) -> str:
    """num/den in lowest terms (den > 0) as "p/q", or "p" when den is 1,
    with `text` turning each integer into digits."""
    return text(num) if den == 1 else f"{text(num)}/{text(den)}"


def frac_str(x: RatLike) -> str:
    """An int or a Fraction as "p/q", or "p" when it is an integer."""
    return ratio_str(x.numerator, x.denominator)


def parse_frac(text: str) -> Fraction:
    return Fraction(text.strip())


def parse_window(text: str) -> tuple[Fraction, Fraction, Fraction]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError("window must be smin:smax:tmax")
    s_min, s_max, t_max = (Fraction(p) for p in parts)
    if s_max <= s_min or t_max <= 0:
        raise ValueError("window must have positive extent")
    return s_min, s_max, t_max


def parse_m_range(text: str) -> range:
    parts = text.split("..")
    if len(parts) != 2:
        raise ValueError("m-range must be lo..hi")
    lo, hi = int(parts[0]), int(parts[1])
    if lo > hi:
        raise ValueError("m-range must be lo..hi with lo <= hi")
    return range(lo, hi + 1)


def parse_vector(text: str) -> MukaiVector:
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError(f"expected 'r,d,a', got {text!r}")
    r = Fraction(parts[0].strip())
    if r.denominator != 1:
        raise ValueError("rank must be an integer")
    return MukaiVector(r, Fraction(parts[1].strip()), Fraction(parts[2].strip()))


def surd_str(x: Surd) -> str:
    if x.rad == 1:
        return frac_str(x.coef)
    return f"{frac_str(x.coef)}*sqrt({int_str(x.rad)})"


_SURD_RE = re.compile(r"^\s*(-?\d+(?:/\d+)?)\s*(?:\*\s*sqrt\(\s*(\d+)\s*\))?\s*$")
_BARE_SQRT_RE = re.compile(r"^\s*(-?)sqrt\(\s*(\d+)\s*\)\s*$")


def parse_surd(text: str, n: int) -> Surd:
    """A surd literal that can be an entry of a group matrix for n.

    Such a radicand m has a squarefree part dividing n: exactly when the
    part of m prime to n is a square.  The test strips the primes of n
    from m by gcds and checks the rest with isqrt, so m itself is never
    trial-divided, and a large m cannot stall the parse.  Other radicands
    raise NotInGHat; a zero coefficient makes the entry 0 whatever m is."""
    m = _BARE_SQRT_RE.match(text)
    if m:
        coef, rad = Fraction(-1 if m.group(1) else 1), int(m.group(2))
    else:
        m = _SURD_RE.match(text)
        if not m:
            raise ValueError(f"bad surd literal {text!r} (want INT, p/q, or q*sqrt(m))")
        coef = Fraction(m.group(1))
        rad = int(m.group(2)) if m.group(2) else 1
    if rad < 1:
        raise ValueError("radicand must be positive")
    if coef == 0:
        return Surd(0)
    rest = rad
    while (g := math.gcd(rest, n)) > 1:
        rest //= g
    root = math.isqrt(rest)
    if root * root != rest:
        raise NotInGHat(
            f"sqrt({rad}) is in no group matrix for n = {n}: its squarefree part does not divide n"
        )
    return Surd(coef * root, rad // rest)


def vector_str(v: MukaiVector) -> str:
    return f"{int_str(v.r)},{int_str(v.d)},{int_str(v.a)}"


def emit(payload) -> None:
    """Print payload as `json.dumps(payload, indent=2, sort_keys=True)`
    does, plus a newline, byte for byte, with each Wall in it printed as
    its record (see `wall_record`).  With `indent` set, `json` always runs
    its pure-Python encoder; `_write_json` appends the same pieces to one
    list and quotes strings with the C `encode_basestring_ascii` that
    `json` uses, at about twice the speed."""
    out: list[str] = []
    _write_json(payload, out, "")
    out.append("\n")
    sys.stdout.write("".join(out))


def _write_json(x, out: list, pad: str) -> None:
    """Append the JSON text of x to out, indented below pad.  Handles
    dict (str keys), list, str, int, bool, None and Wall, written by
    `wall_record`; anything else, or a non-str key, raises TypeError."""
    if isinstance(x, Wall):
        out.append(wall_record(x, pad))
    elif isinstance(x, str):
        out.append(_quote(x))
    elif isinstance(x, dict):
        if not x:
            out.append("{}")
            return
        inner = pad + "  "
        sep = "{\n" + inner
        for key in sorted(x):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            out.append(f"{sep}{_quote(key)}: ")
            _write_json(x[key], out, inner)
            sep = ",\n" + inner
        out.append("\n" + pad + "}")
    elif isinstance(x, list):
        if not x:
            out.append("[]")
            return
        inner = pad + "  "
        sep = "[\n" + inner
        for item in x:
            out.append(sep)
            _write_json(item, out, inner)
            sep = ",\n" + inner
        out.append("\n" + pad + "]")
    elif x is None:
        out.append("null")
    elif x is True:  # bool before int: True is an int
        out.append("true")
    elif x is False:
        out.append("false")
    elif isinstance(x, int):
        out.append(int_str(x))
    else:
        raise TypeError(f"Object of type {type(x).__name__} is not JSON serializable")


def wall_record(w: Wall, pad: str) -> str:
    """The JSON text of one wall, as `json.dumps(indent=2, sort_keys=True)`
    writes the record {"codim0", "m" (labelled walls only), "shape",
    "witness"} at indent pad, from the integers of the shape and witness.
    Every entry is a string of digits, "-" and "/", or an int, so nothing
    needs escaping.  The integers are printed with `str` under one `try`;
    a record holding one past the interpreter's int-to-str limit is
    printed again through `int_str`."""
    try:
        return _wall_text(w, pad, str)
    except ValueError:
        return _wall_text(w, pad, int_str)


def _wall_text(w: Wall, pad: str, text) -> str:
    """wall_record's text, with `text` turning each integer into digits."""
    shape = w.shape
    r, d, a = w.witness
    if w.label is None:
        head = f'{{\n{pad}  "codim0": false,\n{pad}  "shape": {{\n{pad}    '
    else:
        head = (
            f'{{\n{pad}  "codim0": true,\n{pad}  "m": {text(w.label)},'
            f'\n{pad}  "shape": {{\n{pad}    '
        )
    tail = (
        f'\n{pad}    }}\n{pad}  }},'
        f'\n{pad}  "witness": "{text(r)},{text(d)},{text(a)}"\n{pad}}}'
    )
    if isinstance(shape, Circle):
        return (
            f'{head}"circle": {{\n{pad}      "center": "{ratio_str(shape.cn, shape.cd, text)}",'
            f'\n{pad}      "radius_sq": "{ratio_str(shape.rn, shape.rd, text)}"{tail}'
        )
    return f'{head}"vline": {{\n{pad}      "s": "{ratio_str(shape.sn, shape.sd, text)}"{tail}'


def solution_record(sol: NumericalSolution) -> dict:
    return {"v1": vector_str(sol.v1), "v2": vector_str(sol.v2), "l1": sol.l1, "l2": sol.l2}


def chamber_record(rep: ChamberReport) -> dict:
    """The payload of a chamber report; its Walls are written by
    `wall_record`."""
    out: dict = {"kind": rep.kind}
    if rep.wall is not None:
        out["wall"] = rep.wall
    if rep.kind == "Bounded":
        out["outer"] = rep.outer
        out["inner"] = rep.inner
    return out


def wmax_record(rep: WMaxReport) -> dict:
    return {
        "wall": rep.wall,
        "lambda1": qn_str(rep.lambda1),
        "lambda2": qn_str(rep.lambda2),
        "note": "Gieseker semistability is preserved for transform slopes "
        "lambda <= lambda1 or lambda2 <= lambda < d/r",
    }


def qn_str(x: QnNumber) -> str:
    if x.v == 0:
        return frac_str(x.u)
    if x.u == 0:
        return f"{frac_str(x.v)}*sqrt({int_str(x.n)})"
    sign = "+" if x.v > 0 else ""
    return f"{frac_str(x.u)}{sign}{frac_str(x.v)}*sqrt({int_str(x.n)})"


def qnc_str(z: QnComplex) -> str:
    return f"({qn_str(z.re)})+({qn_str(z.im)})*i"


_QN_TERM = re.compile(
    r"(?=[^\s])\s*([+-]?)\s*(\d+(?:/\d+)?)\s*(?:\*\s*sqrt\(\s*(\d+)\s*\))?"
)


def parse_qn(text: str, n: int) -> QnNumber:
    """Sum of terms RAT or RAT*sqrt(n), e.g. '1/2+3*sqrt(2)'."""
    pos = 0
    u, v = Fraction(0), Fraction(0)
    text = text.strip()
    while pos < len(text):
        m = _QN_TERM.match(text, pos)
        if not m:
            raise ValueError(f"bad field literal {text!r} at {pos}")
        coef = Fraction(m.group(2))
        if m.group(1) == "-":
            coef = -coef
        if m.group(3) is None:
            u += coef
        else:
            rad = int(m.group(3))
            if rad != n:
                raise ValueError(f"sqrt({rad}) not in Q(sqrt({n}))")
            v += coef
        pos = m.end()
    return QnNumber(u, v, n)


def parse_qnc(text: str, n: int) -> QnComplex:
    """Complex literal "<re>+<im>*i" with field-element parts; the imaginary
    part is the last top-level +/- term ending in *i (e.g. "1+1*i",
    "1/2+3*sqrt(2)-2*i")."""
    text = text.replace(" ", "")
    if not text.endswith("*i"):
        return QnComplex(parse_qn(text, n), QnNumber(0, 0, n))
    head = text[: -len("*i")]
    # split off the trailing term (its leading sign included)
    depth = 0
    split = 0
    for i, ch in enumerate(head):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch in "+-" and depth == 0 and i > 0:
            split = i
    re_part, im_part = head[:split], head[split:]
    if not re_part:
        re_part = "0"
    if im_part in ("+", "-", ""):
        im_part += "1"
    return QnComplex(parse_qn(re_part, n), parse_qn(im_part, n))


def parse_gmatrix_text(text: str, n: int) -> GMatrix:
    """Matrix literal "a,b;c,d" with surd entries fit for the group of n
    (see `parse_surd`)."""
    rows = text.strip().split(";")
    if len(rows) != 2:
        raise ValueError("matrix literal needs two ';'-separated rows")
    entries = []
    for row in rows:
        parts = row.split(",")
        if len(parts) != 2:
            raise ValueError("each matrix row needs two ','-separated entries")
        entries.extend(parse_surd(p, n) for p in parts)
    return GMatrix(*entries)


def gmatrix_record(g: GMatrix) -> dict:
    return {
        "a": surd_str(g.a),
        "b": surd_str(g.b),
        "c": surd_str(g.c),
        "d": surd_str(g.d),
        "det": frac_str(g.det()),
    }
