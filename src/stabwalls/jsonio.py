"""JSON encoding of the record types.

All rationals serialize as strings "p/q" (plain "p" for integers), never as
floats; vectors as "r,d,a"; surds as "a*sqrt(r)" or plain integers.  Parsers
for the same grammar read the CLI input flags.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

from .errors import NotInGHat
from .lattice import MukaiVector
from .pell import GMatrix, NumericalSolution
from .surd import QnComplex, QnNumber, RatLike, Surd
from .walls import ChamberReport, VLine, Wall, WMaxReport


def frac_str(x: RatLike) -> str:
    """An int or a Fraction as "p/q", or "p" when it is an integer."""
    num, den = x.numerator, x.denominator
    return str(num) if den == 1 else f"{num}/{den}"


def parse_frac(text: str) -> Fraction:
    return Fraction(text.strip())


def surd_str(x: Surd) -> str:
    if x.rad == 1:
        return frac_str(x.coef)
    return f"{frac_str(x.coef)}*sqrt({x.rad})"


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
    return f"{v.r},{frac_str(v.d)},{frac_str(v.a)}"


def wall_record(w: Wall) -> dict:
    if isinstance(w.shape, VLine):
        shape = {"vline": {"s": frac_str(w.shape.s0)}}
    else:
        shape = {
            "circle": {
                "center": frac_str(w.shape.center),
                "radius_sq": frac_str(w.shape.radius_sq),
            }
        }
    rec = {"shape": shape, "witness": vector_str(w.witness), "codim0": w.codim0}
    if w.label is not None:
        rec["m"] = w.label
    return rec


def solution_record(sol: NumericalSolution) -> dict:
    return {"v1": vector_str(sol.v1), "v2": vector_str(sol.v2), "l1": sol.l1, "l2": sol.l2}


def chamber_record(rep: ChamberReport) -> dict:
    out: dict = {"kind": rep.kind}
    if rep.wall is not None:
        out["wall"] = wall_record(rep.wall)
    if rep.kind == "Bounded":
        out["outer"] = wall_record(rep.outer) if rep.outer else None
        out["inner"] = wall_record(rep.inner) if rep.inner else None
    return out


def wmax_record(rep: WMaxReport) -> dict:
    return {
        "wall": wall_record(rep.wall),
        "lambda1": qn_str(rep.lambda1),
        "lambda2": qn_str(rep.lambda2),
        "note": "Gieseker semistability is preserved for transform slopes "
        "lambda <= lambda1 or lambda2 <= lambda < d/r",
    }


def qn_str(x: QnNumber) -> str:
    if x.v == 0:
        return frac_str(x.u)
    if x.u == 0:
        return f"{frac_str(x.v)}*sqrt({x.n})"
    sign = "+" if x.v > 0 else ""
    return f"{frac_str(x.u)}{sign}{frac_str(x.v)}*sqrt({x.n})"


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
