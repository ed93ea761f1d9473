"""Surd 2x2 matrix groups acting on the lattice and on the upper half-plane.

A group element is a `pell.GMatrix` of the pattern
(a*sqrt(r), b*sqrt(s); c*sqrt(s), d*sqrt(r)) with integer a..d, r*s = n
and determinant a*d*r - b*c*s = +-1.  It acts on vectors through the
symmetric-matrix embedding (right action g: M -> gT M g) and on the
half-plane by Moebius transformations, of z for determinant +1 and of
conj(z) for the contravariant elements (determinant -1).

Both actions run on integers, on the `Member` form of g: no surd is
multiplied.

The paper's statements about these actions (the charge compatibility of
the transforms, the wall-swapping transforms and how they move the labeled
walls, the transformed half-plane and the conjugation into Gamma_0(n)) are
checked by the test suite, in tests/paper_checks.py, against the surd
products the integer forms replace.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional

from .errors import LowerHalfPlane, NotInGHat
from .lattice import Context, MukaiVector
from .pell import GMatrix
from .surd import QnComplex, QnNumber, exact_root, qn_rat


class Member(NamedTuple):
    """The group element (a*sqrt(r), b*sqrt(s); c*sqrt(s), d*sqrt(r)) on
    integers, n = k^2*r*s, with its determinant.  A zero diagonal fits any
    radicand; it takes the one that makes r*s = n, with k = 1."""

    a: int
    b: int
    c: int
    d: int
    r: int
    s: int
    k: int
    det: int


def g_membership(g: GMatrix, ctx: Context) -> Optional[Member]:
    """g as a `Member` when it is in the group for n, else None.

    The canonical entries must be integral, each diagonal must have one
    radicand, and the determinant must be +-1.  The group pattern also
    asks for radicands r*t^2 and s*u^2 that multiply to n, so that the
    canonical coefficients of each diagonal are multiples of t and u.
    With both diagonals nonzero, that is n = k^2*r*s and k = t*u with
    t | gcd(a, d) and u | gcd(b, c), which holds exactly when
    k | gcd(a, d)*gcd(b, c) (take t = gcd(k, gcd(a, d)), prime by prime).
    A zero diagonal leaves its radicand free: the other must divide n."""
    n = ctx.n
    entries = (g.a, g.b, g.c, g.d)
    if any(e.coef.denominator != 1 for e in entries):
        return None
    rads = []
    for diagonal in ((g.a, g.d), (g.b, g.c)):
        found = {e.rad for e in diagonal if e.coef}
        if len(found) > 1:
            return None
        rads.append(found.pop() if found else None)
    r, s = rads
    a, b, c, d = (e.coef for e in entries)
    if r is None or s is None:
        known = s if r is None else r
        if known is None or n % known:
            return None
        r, s, k = (n // s, s, 1) if r is None else (r, n // r, 1)
    else:
        k = exact_root(n, r * s)
        if k is None or math.gcd(a, d) * math.gcd(b, c) % k:
            return None
    det = g.det()  # a*d*r - b*c*s
    return Member(a, b, c, d, r, s, k, det) if det in (1, -1) else None


def require_member(g: GMatrix, ctx: Context) -> Member:
    member = g_membership(g, ctx)
    if member is None:
        raise NotInGHat(f"{g} is not in the group for n = {ctx.n}")
    return member


def act_on_vector(v: MukaiVector, g: GMatrix, ctx: Context) -> MukaiVector:
    """Right action v -> iota^{-1}(gT iota(v) g), with iota(r, d, a) =
    (r, d*sqrt(n); d*sqrt(n), a); preserves the pairing.

    The closed form of gT M g uses sqrt(n)*sqrt(r*s) = k*r*s and
    sqrt(r*s) = sqrt(n)/k.  Its off-diagonal entry is d'*sqrt(n) with
    d' = (v_r*a*b + v_a*c*d)/k + v_d*(a*d*r + b*c*s), and k divides both
    a*b and c*d, since k = t*u with t | gcd(a, d) and u | gcd(b, c)."""
    a, b, c, d, r, s, k, _ = require_member(g, ctx)
    vr, vd, va = v.r, v.d, v.a
    krs = k * r * s
    return MukaiVector(
        vr * a * a * r + 2 * vd * a * c * krs + va * c * c * s,
        (vr * a * b + va * c * d) // k + vd * (a * d * r + b * c * s),
        vr * b * b * s + 2 * vd * b * d * krs + va * d * d * r,
    )


def mobius(g: GMatrix, z: QnComplex, ctx: Context) -> QnComplex:
    """Action on the upper half-plane, exact in Q(sqrt n)(i): (aw+b)/(cw+d)
    with w = z for determinant +1 and w = conj(z) for determinant -1.
    Numerator and denominator are multiplied by k*sqrt(r), which makes
    every coefficient an integer or an integer times sqrt(n):
    (a*r*k*w + b*sqrt(n)) / (c*sqrt(n)*w + d*r*k)."""
    a, b, c, d, r, s, k, det = require_member(g, ctx)
    if z.im.sign() <= 0:
        raise ValueError(f"z = {z} not in the upper half-plane")
    n = ctx.n
    w = z if det == 1 else QnComplex(z.re, -z.im)
    zero = qn_rat(0, n)
    num = w * (a * r * k) + QnComplex(QnNumber(0, b, n), zero)
    den = w * QnNumber(0, c, n) + QnComplex(qn_rat(d * r * k, n), zero)
    out = num / den
    if out.im.sign() <= 0:
        raise LowerHalfPlane(f"image {out} left the upper half-plane")
    return out
