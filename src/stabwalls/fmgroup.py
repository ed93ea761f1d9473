"""Surd 2x2 matrix groups acting on the lattice and on the upper half-plane.

A group element is a `pell.GMatrix` of the pattern
(a*sqrt(r), b*sqrt(s); c*sqrt(s), d*sqrt(r)) with integer a..d, r*s = n
and determinant a*d*r - b*c*s = +-1.  It acts on vectors through the
symmetric-matrix embedding (right action g: M -> gT M g) and on the
half-plane by Moebius transformations; contravariant elements
(determinant -1) act through z -> -conj(g0 * z) after factoring off
diag(1, -1), so orientation bookkeeping lives in one place.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import (
    DegenerateGamma,
    IntegralityViolation,
    LowerHalfPlane,
    NonIntegral,
    NotInGHat,
    SamePoint,
)
from .lattice import Context, MukaiVector, beta_data
from .pell import GMatrix, PellContext
from .surd import (
    QnComplex,
    QnNumber,
    RatLike,
    Surd,
    is_perfect_square,
    qn_rat,
    squarefree_decompose,
)
from .walls import Wall, wall_between


def delta_matrix() -> GMatrix:
    """diag(1, -1), the cohomological dualizing factor."""
    return GMatrix(Surd(1), Surd(0), Surd(0), Surd(-1))


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


def g_mul(x: GMatrix, y: GMatrix, ctx: Context) -> GMatrix:
    out = x * y
    require_member(out, ctx)
    return out


def g_inv(x: GMatrix, ctx: Context) -> GMatrix:
    out = x.inverse()
    require_member(out, ctx)
    return out


@dataclass(frozen=True)
class FMDescriptor:
    """Cohomological data of a (possibly contravariant) transform: the
    matrix, orientation, an informational shift annotation, and the family
    index when the descriptor came from the wall-swapping construction."""

    matrix: GMatrix
    contravariant: bool
    shift_note: int
    psi_index: Optional[int] = None


def act_on_vector(v: MukaiVector, g: GMatrix, ctx: Context) -> MukaiVector:
    """Right action v -> iota^{-1}(gT iota(v) g); preserves the pairing and
    must return a lattice point (failure flags an invalid g)."""
    if not v.is_integral:
        raise NonIntegral(f"{v} is not integral")
    require_member(g, ctx)
    m11, m12 = Surd(v.r), Surd(v.d) * Surd(1, ctx.n)
    m22 = Surd(v.a)
    t11 = g.a * m11 + g.c * m12
    t12 = g.a * m12 + g.c * m22
    t21 = g.b * m11 + g.d * m12
    t22 = g.b * m12 + g.d * m22
    out11 = t11 * g.a + t12 * g.c
    out12 = t11 * g.b + t12 * g.d
    out21 = t21 * g.a + t22 * g.c
    out22 = t21 * g.b + t22 * g.d
    if out12 != out21:
        raise IntegralityViolation(f"asymmetric image under {g}")
    if not (out11.is_rational() and out22.is_rational()):
        raise IntegralityViolation(f"non-integral diagonal under {g}")
    r_new, a_new = out11.as_fraction(), out22.as_fraction()
    if out12.is_zero():
        d_new = Fraction(0)
    else:
        scaled = out12 * Surd(1, ctx.n)  # (d'*sqrt(n))*sqrt(n) = d'*n
        if not scaled.is_rational():
            raise IntegralityViolation(f"off-diagonal {out12} not in Z*sqrt(n)")
        d_new = scaled.as_fraction() / ctx.n
    if r_new.denominator != 1 or a_new.denominator != 1 or d_new.denominator != 1:
        raise IntegralityViolation(f"non-integral image of {v} under {g}")
    return MukaiVector(int(r_new), d_new, a_new)


def swap_diagonal(g: GMatrix) -> GMatrix:
    """(a,b;c,d) -> (d,b;c,a): converts between the point-object convention
    and the kernel convention, i.e. reverses the transform's direction."""
    return GMatrix(g.d, g.b, g.c, g.a)


def dual_flip(g: GMatrix) -> GMatrix:
    """(a,b;c,d) -> (a,-b;-c,d): the shifted-dual kernel, same direction."""
    return GMatrix(g.a, -g.b, -g.c, g.d)


# ---------------------------------------------------------------------------
# half-plane action


def _clear_entry(entry: Surd, rho: int, n: int) -> QnNumber:
    """entry * sqrt(rho) as an element of Q(sqrt n); the group pattern
    guarantees the product is either rational or a rational multiple of
    sqrt(n)."""
    if entry.is_zero():
        return qn_rat(0, n)
    if entry.rad == rho:
        return qn_rat(entry.coef * rho, n)
    k, rest = squarefree_decompose(entry.rad * rho * n)
    if rest != 1:
        raise NotInGHat(f"entry {entry} breaks the group pattern (rho={rho})")
    return QnNumber(0, Fraction(entry.coef * k, n), n)


def mobius(g: GMatrix, z: QnComplex, ctx: Context) -> QnComplex:
    """Action on the upper half-plane, exact in Q(sqrt n)(i).

    Determinant +1 acts by (az+b)/(cz+d) after clearing one surd from
    numerator and denominator; determinant -1 factors through diag(1,-1)
    acting as z -> -conj(z)."""
    parity = require_member(g, ctx)
    if z.im.sign() <= 0:
        raise ValueError(f"z = {z} not in the upper half-plane")
    n = ctx.n
    if parity == -1:
        inner = mobius(delta_matrix() * g, z, ctx)
        out = QnComplex(-inner.re, inner.im)
    else:
        rho = next(
            (e.rad for e in (g.a, g.d, g.b, g.c) if not e.is_zero()), None
        )
        az = _clear_entry(g.a, rho, n)
        b0 = _clear_entry(g.b, rho, n)
        cz = _clear_entry(g.c, rho, n)
        d0 = _clear_entry(g.d, rho, n)
        as_c = lambda x: QnComplex(x, qn_rat(0, n))
        num = z * as_c(az) + as_c(b0)
        den = z * as_c(cz) + as_c(d0)
        out = num / den
    if out.im.sign() <= 0:
        raise LowerHalfPlane(f"image {out} left the upper half-plane")
    return out


# ---------------------------------------------------------------------------
# exact charges on the half-plane and the compatibility identity


def charge_at_z(v: MukaiVector, z: QnComplex, ctx: Context) -> QnComplex:
    """Z of v at beta + i*omega = (z/sqrt(n))H, exactly:
    Z = 2*sqrt(n)*z*d - a - r*z^2 in Q(sqrt n)(i)."""
    n = ctx.n
    sqn = QnComplex(QnNumber(0, 1, n), qn_rat(0, n))
    term1 = z * sqn * QnComplex(qn_rat(2 * v.d, n), qn_rat(0, n))
    return term1 - QnComplex(qn_rat(v.a, n), qn_rat(0, n)) - (z * z) * v.r


def _sqrt_n_multiple(x: Surd, n: int) -> Fraction:
    """Coefficient w with x = w*sqrt(n); raises NotInGHat otherwise."""
    if x.is_zero():
        return Fraction(0)
    scaled = x * Surd(1, n)
    if not scaled.is_rational():
        raise NotInGHat(f"{x} is not a rational multiple of sqrt({n})")
    return scaled.as_fraction() / n


def charge_compat_check(g: GMatrix, v: MukaiVector, z: QnComplex, ctx: Context) -> bool:
    """Exact check of -(c*z+d)^2 * Z_{g*z}(Phi(v)) = Z_z(v) for g in the
    half-plane convention.

    The transform acts on vectors as Phi(v) = -(v * theta(g)) with theta(g)
    the diagonal swap of g: the odd kernel shift that pairs with the
    -(c*z+d)^2 factor (the quadratic right action alone cannot see the
    sign; the translation matrix (1,1;0,1) pins it)."""
    if require_member(g, ctx) != 1:
        raise NotInGHat("compatibility check needs determinant +1")
    n = ctx.n
    lhs = charge_at_z(v, z, ctx)
    z_img = mobius(g, z, ctx)
    v_img = -act_on_vector(v, swap_diagonal(g), ctx)
    # (c*z+d)^2 = c^2 z^2 + 2cd z + d^2 with c^2, d^2 rational and cd a
    # rational multiple of sqrt(n): all coefficients live in the field
    cd_coeff = _sqrt_n_multiple(g.c * g.d, n)
    zeta = (
        (z * z) * g.c.square()
        + z * QnComplex(QnNumber(0, 2 * cd_coeff, n), qn_rat(0, n))
        + QnComplex(qn_rat(g.d.square(), n), qn_rat(0, n))
    )
    rhs = -(zeta * charge_at_z(v_img, z_img, ctx))
    return lhs == rhs


# ---------------------------------------------------------------------------
# wall-swapping transforms


def psi_map(pell: PellContext, m: int) -> FMDescriptor:
    """The contravariant transform with matrix A^{-m} diag(1,-1) A^{m}; it
    swaps the labeled walls around index m (m+k -> m-k).  The shift
    annotation follows the sign of m and is informational only."""
    a = pell.generator
    mat = a.power(-m) * delta_matrix() * a.power(m)
    return FMDescriptor(mat, contravariant=True, shift_note=1 if m <= 0 else -1, psi_index=m)


def psi_apply_to_wall(
    psi: FMDescriptor, wall: Wall, pell: PellContext, ctx: Context
) -> Wall:
    """Transport a wall for (1, 0, -l) by acting on its witness and
    rebuilding; labels move by m+k -> m-k."""
    v = MukaiVector(1, 0, -pell.ell)
    w_img = act_on_vector(wall.witness, psi.matrix, ctx)
    new = wall_between(v, w_img, ctx) or wall_between(v, -w_img, ctx)
    if new is None:
        raise IntegralityViolation(f"transport of {wall} lost the wall conditions")
    label = wall.label
    if label is not None and psi.psi_index is not None:
        label = 2 * psi.psi_index - label
    return Wall(new.shape, new.witness, wall.codim0, label)


# ---------------------------------------------------------------------------
# parameter transform of the (s, t) coordinates


def param_transform(
    lam: RatLike, r1: int, s: RatLike, t_sq: RatLike, ctx: Context
) -> tuple[Fraction, Fraction]:
    """(s', t'^2) of the transform based at slope lam with isotropic rank r1:
    s' = 2(lam-s) / (|r1|((lam-s)^2+t^2)(H^2)), t' = 2t / (same denominator)."""
    lam, s, t_sq = Fraction(lam), Fraction(s), Fraction(t_sq)
    if r1 == 0:
        raise DegenerateGamma("r1 must be nonzero")
    denom = abs(r1) * ((lam - s) ** 2 + t_sq) * 2 * ctx.n
    if denom == 0:
        raise SamePoint(f"(s, t) coincides with ({lam}, 0)")
    return 2 * (lam - s) / denom, 4 * t_sq / denom**2


def half_plane_image_check(
    v: MukaiVector, lam: RatLike, r1: int, s: RatLike, t_sq: RatLike, ctx: Context
) -> bool:
    """Whether (s, t) lies in the closed disk bounded by the circle cut out
    at slope lam, decided through the transformed half-plane inequality
    -(|r1| * a_g / d_g) * s' >= 1."""
    lam = Fraction(lam)
    _, d_g, a_g = beta_data(v, lam, ctx)
    if d_g == 0:
        raise DegenerateGamma(f"d_beta(v) = 0 at slope {lam}")
    s_new, _ = param_transform(lam, r1, s, t_sq, ctx)
    return -abs(r1) * (a_g / d_g) * s_new >= 1


def gamma0_check(g: GMatrix, ctx: Context) -> bool:
    """True iff diag(sqrt n, 1)^{-1} g diag(sqrt n, 1) is an integer matrix
    with lower-left divisible by n and determinant 1."""
    n = ctx.n
    if g_membership(g, ctx) != 1:
        return False
    top_right = Surd(Fraction(g.b.coef, n), g.b.rad * n)  # b*sqrt(s)/sqrt(n)
    bottom_left = Surd(g.c.coef, g.c.rad * n)  # c*sqrt(s)*sqrt(n)
    for entry in (g.a, g.d, top_right, bottom_left):
        if not entry.is_rational() or entry.coef.denominator != 1:
            return False
    return int(bottom_left.as_fraction()) % n == 0
