"""Surd 2x2 matrix groups acting on the lattice and on the upper half-plane.

A group element is a `pell.GMatrix` of the pattern
(a*sqrt(r), b*sqrt(s); c*sqrt(s), d*sqrt(r)) with integer a..d, r*s = n
and determinant a*d*r - b*c*s = +-1.  It acts on vectors through the
symmetric-matrix embedding (right action g: M -> gT M g) and on the
half-plane by Moebius transformations, of z for determinant +1 and of
conj(z) for the contravariant elements (determinant -1).

The paper's statements about these actions (the charge compatibility of
the transforms, the wall-swapping transforms and how they move the labeled
walls, the transformed half-plane and the conjugation into Gamma_0(n)) are
checked by the test suite, in tests/paper_checks.py.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from .errors import IntegralityViolation, LowerHalfPlane, NonIntegral, NotInGHat
from .lattice import Context, MukaiVector
from .pell import GMatrix
from .surd import QnComplex, QnNumber, Surd, is_perfect_square, qn_rat


def g_membership(m: GMatrix, ctx: Context) -> Optional[int]:
    """Determinant (+-1) when m has the group pattern for n, else None."""
    n = ctx.n

    def shared_rad(*entries: Surd) -> Optional[int]:
        rads = {e.rad for e in entries if not e.is_zero()}
        if len(rads) > 1:
            return -1
        return rads.pop() if rads else None

    r = shared_rad(m.a, m.d)
    s = shared_rad(m.b, m.c)
    if r == -1 or s == -1:
        return None
    if r is None and s is None:
        return None
    for e in (m.a, m.b, m.c, m.d):
        if e.coef.denominator != 1:
            return None
    # canonical radicands satisfy r*s*(square) = n; a radicand left free by
    # zero entries only needs to divide n
    if r is not None and s is not None:
        if n % (r * s) or not is_perfect_square(n // (r * s)):
            return None
    elif n % (r if r is not None else s):
        return None
    try:
        det = m.det()
    except NotInGHat:
        return None
    return int(det) if det in (1, -1) else None


def require_member(m: GMatrix, ctx: Context) -> int:
    parity = g_membership(m, ctx)
    if parity is None:
        raise NotInGHat(f"{m} is not in the group for n = {ctx.n}")
    return parity


def act_on_vector(v: MukaiVector, g: GMatrix, ctx: Context) -> MukaiVector:
    """Right action v -> iota^{-1}(gT iota(v) g); preserves the pairing and
    must return a lattice point (failure flags an invalid g)."""
    if not v.is_integral:
        raise NonIntegral(f"{v} is not integral")
    require_member(g, ctx)
    m12 = Surd(v.d) * Surd(1, ctx.n)
    out = GMatrix(g.a, g.c, g.b, g.d) * GMatrix(Surd(v.r), m12, m12, Surd(v.a)) * g
    if out.b != out.c:
        raise IntegralityViolation(f"asymmetric image under {g}")
    if not (out.a.is_rational() and out.d.is_rational()):
        raise IntegralityViolation(f"non-integral diagonal under {g}")
    r_new, a_new = out.a.as_fraction(), out.d.as_fraction()
    if out.b.is_zero():
        d_new = Fraction(0)
    else:
        scaled = out.b * Surd(1, ctx.n)  # (d'*sqrt(n))*sqrt(n) = d'*n
        if not scaled.is_rational():
            raise IntegralityViolation(f"off-diagonal {out.b} not in Z*sqrt(n)")
        d_new = scaled.as_fraction() / ctx.n
    if r_new.denominator != 1 or a_new.denominator != 1 or d_new.denominator != 1:
        raise IntegralityViolation(f"non-integral image of {v} under {g}")
    return MukaiVector(int(r_new), d_new, a_new)


# ---------------------------------------------------------------------------
# half-plane action


def _clear_entry(entry: Surd, rho: int, n: int) -> QnNumber:
    """entry * sqrt(rho) as an element of Q(sqrt n); the group pattern
    guarantees the product is either rational or a rational multiple of
    sqrt(n)."""
    cleared = entry * Surd(1, rho)
    if cleared.is_rational():
        return qn_rat(cleared.coef, n)
    scaled = cleared * Surd(1, n)  # (c*sqrt(n))*sqrt(n) = c*n
    if not scaled.is_rational():
        raise NotInGHat(f"entry {entry} breaks the group pattern (rho={rho})")
    return QnNumber(0, Fraction(scaled.coef, n), n)


def mobius(g: GMatrix, z: QnComplex, ctx: Context) -> QnComplex:
    """Action on the upper half-plane, exact in Q(sqrt n)(i): (aw+b)/(cw+d)
    after clearing one surd from numerator and denominator, with w = z for
    determinant +1 and w = conj(z) for determinant -1."""
    parity = require_member(g, ctx)
    if z.im.sign() <= 0:
        raise ValueError(f"z = {z} not in the upper half-plane")
    n = ctx.n
    w = z if parity == 1 else QnComplex(z.re, -z.im)
    rho = next((e.rad for e in (g.a, g.d, g.b, g.c) if not e.is_zero()), None)
    az = _clear_entry(g.a, rho, n)
    b0 = _clear_entry(g.b, rho, n)
    cz = _clear_entry(g.c, rho, n)
    d0 = _clear_entry(g.d, rho, n)
    as_c = lambda x: QnComplex(x, qn_rat(0, n))
    out = (w * as_c(az) + as_c(b0)) / (w * as_c(cz) + as_c(d0))
    if out.im.sign() <= 0:
        raise LowerHalfPlane(f"image {out} left the upper half-plane")
    return out
