"""Checks of statements of the source paper that no command needs.

Yoshioka, "Bridgeland's stabilities on abelian surfaces" (arXiv:1203.0884):
the central charges and phases of Mukai vectors, the charge-compatibility
identity of the Fourier-Mukai transforms, the transformed half-plane and
the wall-swapping transforms and how they move the labeled walls, the
conjugation of the group into Gamma_0(n) and the dualizing factor
diag(1, -1); a floating-point alignment scan
that cross-checks the exact walls; the interval membership test and sheaf
verdict of the slope intervals I_m and I_m*, the oracle for
`pell.interval_index` and the `intervals` command; the exact order,
square and float view of surds that the cross-checks compare with; the
products of surds and of surd matrices, with the surd-product forms of
`pell.iterate`, `fmgroup.act_on_vector` and `fmgroup.mobius`, the
reference for the integer forms the commands run; the difference,
negation and scaling of Mukai vectors, which only the tests use; the
twist of a Mukai vector by e^{sH} and its components at base sH (`twist`,
`beta_data`), the change of base of the paper's proofs, whose rational
entries a `MukaiVector` does not hold; and `wall_of`, the wall test on
Mukai vectors and on those rational ones.  The tests import this module
as they import reference_kernel.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, NamedTuple, Optional

from stabwalls.charge import StabilityPoint
from stabwalls.errors import (
    DegenerateV,
    IntegralityViolation,
    InvariantViolation,
    NotInGHat,
    PreconditionError,
)
from stabwalls.fmgroup import (
    act_on_vector,
    g_membership,
    mobius,
    require_member,
)
from stabwalls.lattice import Context, MukaiVector
from stabwalls.pell import GMatrix, PellContext, iterate
from stabwalls.surd import QnComplex, QnNumber, RatLike, Surd, qn_rat
from reference_output import s0_of, shape_of
from stabwalls.walls import VLine, Wall, wall_between


class ZeroCharge(PreconditionError):
    pass


class SamePoint(PreconditionError):
    pass


class DegenerateGamma(PreconditionError):
    pass


class RationalVector(NamedTuple):
    """(r, d, a) with rational d and a, which a `MukaiVector` does not
    hold: a Mukai vector twisted by e^{sH}, or a rational input of
    `wall_of`."""

    r: int
    d: Fraction
    a: Fraction


def twist(v, s: RatLike, ctx: Context) -> RationalVector:
    """v * e^{sH}, for a `MukaiVector` or a `RationalVector` v: the
    pairing-preserving twist."""
    s = Fraction(s)
    n = ctx.n
    return RationalVector(v.r, v.d + v.r * s, v.a + 2 * n * v.d * s + n * v.r * s * s)


def beta_data(v, s: RatLike, ctx: Context) -> RationalVector:
    """(r_b, d_b, a_b) of v at beta = sH, the components of v * e^{-sH}:
    r, d - r*s, a - 2n*d*s + n*r*s^2."""
    return twist(v, -Fraction(s), ctx)


def wall_of(v, v1, ctx: Context) -> Optional[Wall]:
    """The wall for v defined by v1, or None when v1 defines none: the
    integer test `walls.wall_between` on Mukai vectors and on
    `RationalVector`s.

    Both vectors are scaled by the lcm L of the denominators of their d and
    a.  Scaling multiplies each pairing and each 2x2 minor by L^2, so no
    sign changes, and the center and radius^2 are quotients of equal degree
    in L, so no shape changes.
    """
    vd, va, v1d, v1a = v.d, v.a, v1.d, v1.a
    L = math.lcm(vd.denominator, va.denominator, v1d.denominator, v1a.denominator)
    r, d, a = L * v.r, vd.numerator * L // vd.denominator, va.numerator * L // va.denominator
    r1, d1 = L * v1.r, v1d.numerator * L // v1d.denominator
    a1 = v1a.numerator * L // v1a.denominator
    vv = 2 * ctx.n * d * d - 2 * r * a
    if vv <= 0:
        raise DegenerateV(f"<v^2> = {Fraction(vv, L * L)} <= 0")
    shape = wall_between(ctx.n, r, d, a, r1, d1, a1)
    return None if shape is None else Wall(shape_of(shape), (v1.r, v1.d, v1.a))


def qnc_rat(u: RatLike, v: RatLike, n: int) -> QnComplex:
    """Complex number with rational real part u and rational imag part v."""
    return QnComplex(qn_rat(u, n), qn_rat(v, n))


def equal_up_to_sign(x: GMatrix, y: GMatrix) -> bool:
    """x == +-y: equality in G/{+-1}."""
    return x == y or x == g_neg(y)


def surd_square(x: Surd) -> Fraction:
    """x^2, a rational."""
    return Fraction(x.coef * x.coef * x.rad)


def surd_compare(x: Surd, y: Surd) -> int:
    """Exact three-way comparison of the real values of two surds: by
    sign, then by the squares, whose order flips for negative values."""
    sx = (x.coef > 0) - (x.coef < 0)
    sy = (y.coef > 0) - (y.coef < 0)
    if sx != sy:
        return (sx > sy) - (sx < sy)
    a, b = surd_square(x), surd_square(y)
    return sx * ((a > b) - (a < b))


def vec_sub(v, w):
    """v - w, of the type of v: a `MukaiVector` or a `RationalVector`."""
    return type(v)(v.r - w.r, v.d - w.d, v.a - w.a)


def vec_neg(v: MukaiVector) -> MukaiVector:
    return MukaiVector(-v.r, -v.d, -v.a)


def vec_scale(k: int, v: MukaiVector) -> MukaiVector:
    return MukaiVector(k * v.r, k * v.d, k * v.a)


def surd_float(x: Surd) -> float:
    """The float nearest a surd, for floating-point cross-checks."""
    return float(x.coef) * math.sqrt(x.rad)


# ---------------------------------------------------------------------------
# surd and surd-matrix products
#
# The commands compute the group and the Pell iterates on integers
# (`fmgroup.Member`, `pell.iterate`); the products of canonical surds and
# of `GMatrix`es below are the reference those integer forms are checked
# against.  `reference_act`, `reference_mobius` and `reference_iterate`
# are the surd-product forms of `act_on_vector`, `mobius` and `iterate`.


class MixedRadicand(InvariantViolation):
    """Sum of two pure surds with different radicands: the group pattern
    keeps every entry a single term, so this flags a broken product."""


def _reduced(coef, rad: int) -> Surd:
    """Surd.reduced for a rational coef: an integral one is stored as an int."""
    if type(coef) is not int and coef.denominator == 1:
        coef = coef.numerator
    return Surd.reduced(coef, rad)


def surd_mul(x: Surd, y) -> Surd:
    """x*y for a surd or a rational y.  Squarefree r1*r2 = g^2*(r1/g)*(r2/g)
    with g = gcd: the cofactors are coprime and squarefree, so their
    product is too."""
    if isinstance(y, Surd):
        g = math.gcd(x.rad, y.rad)
        return _reduced(x.coef * y.coef * g, (x.rad // g) * (y.rad // g))
    return _reduced(x.coef * (y if type(y) is int else Fraction(y)), x.rad)


def surd_add(x: Surd, y: Surd) -> Surd:
    if x.coef == 0:
        return y
    if y.coef == 0:
        return x
    if x.rad != y.rad:
        raise MixedRadicand(f"cannot add {x} and {y}")
    return _reduced(x.coef + y.coef, x.rad)


def surd_neg(x: Surd) -> Surd:
    return _reduced(-x.coef, x.rad)


def surd_as_fraction(x: Surd) -> Fraction:
    if x.rad != 1:
        raise ValueError(f"{x} is irrational")
    return Fraction(x.coef)


def identity_matrix() -> GMatrix:
    return GMatrix(Surd(1), Surd(0), Surd(0), Surd(1))


def g_mul(x: GMatrix, y: GMatrix) -> GMatrix:
    def dot(p: Surd, q: Surd, r: Surd, s: Surd) -> Surd:
        return surd_add(surd_mul(p, q), surd_mul(r, s))

    return GMatrix(
        dot(x.a, y.a, x.b, y.c),
        dot(x.a, y.b, x.b, y.d),
        dot(x.c, y.a, x.d, y.c),
        dot(x.c, y.b, x.d, y.d),
    )


def g_neg(x: GMatrix) -> GMatrix:
    return GMatrix(surd_neg(x.a), surd_neg(x.b), surd_neg(x.c), surd_neg(x.d))


def g_det(x: GMatrix) -> Fraction:
    """a*d - b*c by surd products; NotInGHat when it is irrational."""
    ad, bc = surd_mul(x.a, x.d), surd_mul(x.b, x.c)
    if ad.rad != 1 or bc.rad != 1:
        raise NotInGHat(f"determinant of {x} is irrational")
    return Fraction(ad.coef) - Fraction(bc.coef)


def g_inverse(x: GMatrix) -> GMatrix:
    inv = Fraction(1) / g_det(x)
    return GMatrix(
        surd_mul(x.d, inv),
        surd_neg(surd_mul(x.b, inv)),
        surd_neg(surd_mul(x.c, inv)),
        surd_mul(x.a, inv),
    )


def g_power(x: GMatrix, k: int) -> GMatrix:
    """x^k by binary powering, O(log |k|) products; k < 0 powers the
    inverse."""
    base = x if k >= 0 else g_inverse(x)
    k, acc = abs(k), None
    while k:
        if k & 1:
            acc = base if acc is None else g_mul(acc, base)
        k >>= 1
        if k:
            base = g_mul(base, base)
    return identity_matrix() if acc is None else acc


def reference_iterate(pell: PellContext, m: int) -> tuple[Surd, Surd]:
    """(a_m, b_m), the bottom row of generator^m, by surd products."""
    g = g_power(pell.generator, m)
    return g.c, g.d


def reference_act(v: MukaiVector, g: GMatrix, ctx: Context) -> MukaiVector:
    """v -> iota^{-1}(gT iota(v) g) as a product of surd matrices, with
    every entry checked to be of the lattice's shape."""
    sqrt_n = Surd(1, ctx.n)
    m12 = surd_mul(Surd(v.d), sqrt_n)
    out = g_mul(g_mul(GMatrix(g.a, g.c, g.b, g.d), GMatrix(Surd(v.r), m12, m12, Surd(v.a))), g)
    if out.b != out.c:
        raise IntegralityViolation(f"asymmetric image under {g}")
    r_new, a_new = surd_as_fraction(out.a), surd_as_fraction(out.d)
    d_new = surd_as_fraction(surd_mul(out.b, sqrt_n)) / ctx.n  # (d'*sqrt(n))*sqrt(n) = d'*n
    if r_new.denominator != 1 or a_new.denominator != 1 or d_new.denominator != 1:
        raise IntegralityViolation(f"non-integral image of {v} under {g}")
    return MukaiVector(int(r_new), d_new, a_new)


def clear_entry(entry: Surd, rho: int, n: int) -> QnNumber:
    """entry * sqrt(rho) as an element of Q(sqrt n); the group pattern
    makes the product rational or a rational multiple of sqrt(n)."""
    cleared = surd_mul(entry, Surd(1, rho))
    if cleared.rad == 1:
        return qn_rat(cleared.coef, n)
    scaled = surd_mul(cleared, Surd(1, n))  # (c*sqrt(n))*sqrt(n) = c*n
    if scaled.rad != 1:
        raise NotInGHat(f"entry {entry} breaks the group pattern (rho={rho})")
    return QnNumber(0, Fraction(scaled.coef, n), n)


def reference_mobius(g: GMatrix, z: QnComplex, ctx: Context) -> QnComplex:
    """(aw+b)/(cw+d), w = z or conj(z) by the sign of the determinant,
    after clearing the radicand of the first nonzero entry among a, d, b, c
    from every entry."""
    n = ctx.n
    w = z if g_det(g) == 1 else QnComplex(z.re, -z.im)
    rho = next(e.rad for e in (g.a, g.d, g.b, g.c) if e.coef)
    az, b0, cz, d0 = (clear_entry(e, rho, n) for e in (g.a, g.b, g.c, g.d))
    as_c = lambda x: QnComplex(x, qn_rat(0, n))
    return (w * as_c(az) + as_c(b0)) / (w * as_c(cz) + as_c(d0))


# ---------------------------------------------------------------------------
# central charges and phases
#
# At the stability parameter (sH, tH) the charge of v is
#     Z(t) = (-a_b + n*r*t^2) + i * (2n*d_b*t)
# with (r, d_b, a_b) = beta_data(v, s), the components of v * e^{-sH}.  Only `phase`
# converts to floating point.


@dataclass(frozen=True)
class ChargePoly:
    """Z(t) = (re0 + re2*t^2) + i*(im1*t)."""

    re0: Fraction
    re2: Fraction
    im1: Fraction

    def real_at(self, t_sq: Fraction) -> Fraction:
        return self.re0 + self.re2 * t_sq

    def is_zero_at(self, t_sq: Fraction) -> bool:
        return self.real_at(t_sq) == 0 and self.im1 == 0


def charge(v: MukaiVector, s: RatLike, ctx: Context) -> ChargePoly:
    r, d_b, a_b = beta_data(v, s, ctx)
    return ChargePoly(-a_b, Fraction(ctx.n * r), 2 * ctx.n * d_b)


def phase(v: MukaiVector, pt: StabilityPoint, ctx: Context) -> float:
    """phi in (-1, 1] with Z = |Z| e^{i*pi*phi}.

    Im > 0 gives phi in (0,1); Im = 0 gives 0 for Re > 0 and 1 for Re < 0.
    """
    z = charge(v, pt.s, ctx)
    re = z.real_at(pt.t_sq)
    if z.im1 == 0:
        if re == 0:
            raise ZeroCharge(f"Z({v}) = 0 at {pt}")
        return 0.0 if re > 0 else 1.0
    t = math.sqrt(float(pt.t_sq))
    return math.atan2(float(z.im1) * t, float(re)) / math.pi


def alignment_sign(v: MukaiVector, w: MukaiVector, pt: StabilityPoint, ctx: Context) -> int:
    """Exact sign of Im(Z(w) * conj(Z(v))) at pt.

    Positive iff phi(w) mod 2 lies in (phi(v), phi(v)+1).
    """
    zv = charge(v, pt.s, ctx)
    zw = charge(w, pt.s, ctx)
    # Im(zw conj zv) = t * [im1_w * Re(zv) - im1_v * Re(zw)], t > 0
    val = zw.im1 * zv.real_at(pt.t_sq) - zv.im1 * zw.real_at(pt.t_sq)
    return (val > 0) - (val < 0)


class PhaseWindow(enum.Enum):
    ABOVE = "Above"
    ALIGNED = "Aligned"
    BELOW = "Below"


def phase_window(v: MukaiVector, w: MukaiVector, pt: StabilityPoint, ctx: Context) -> PhaseWindow:
    """Where phi(w) mod 2 sits relative to the open window (phi(v), phi(v)+1).

    ABOVE means inside the window; BELOW means inside the complementary
    window (phi(v)-1, phi(v)); ALIGNED means on the boundary (real
    proportionality of charges).  Combined with the sign of r*d_w - r_w*d_b
    this decides whether pt is surrounded by the wall circle of (v, w).
    """
    zv = charge(v, pt.s, ctx)
    zw = charge(w, pt.s, ctx)
    if zv.is_zero_at(pt.t_sq) or zw.is_zero_at(pt.t_sq):
        raise ZeroCharge("phase window needs nonzero charges")
    sgn = alignment_sign(v, w, pt, ctx)
    if sgn > 0:
        return PhaseWindow.ABOVE
    if sgn < 0:
        return PhaseWindow.BELOW
    return PhaseWindow.ALIGNED


# ---------------------------------------------------------------------------
# floating-point alignment scan


@dataclass(frozen=True)
class ScanConfig:
    grid: float = 0.05
    tol: float = 1e-9

    def __post_init__(self):
        if self.tol <= 0:
            raise ValueError("need tol > 0")


def _alignment_defect(v: MukaiVector, w: MukaiVector, s: float, t: float, n: int) -> float:
    """Im(Z(w) conj(Z(v))) with the spurious factor t removed.

    Both imaginary parts carry a factor t, which would make every low-t row
    look aligned; what remains is a smooth function of (s, t) whose zero
    locus in t > 0 is exactly the wall of the pair."""
    zv = _charge_float(v, s, t, n)
    zw = _charge_float(w, s, t, n)
    return (zw.imag * zv.real - zw.real * zv.imag) / t


def _wall_distance_estimate(
    v: MukaiVector, w: MukaiVector, s: float, t: float, n: int, h: float
) -> float:
    """First-order distance |g| / |grad g| from (s, t) to the zero set of the
    alignment defect g, with a central-difference gradient at step h."""
    g0 = _alignment_defect(v, w, s, t, n)
    gs = (_alignment_defect(v, w, s + h, t, n) - _alignment_defect(v, w, s - h, t, n)) / (2 * h)
    gt = (_alignment_defect(v, w, s, t + h, n) - _alignment_defect(v, w, s, t - h, n)) / (2 * h)
    grad = math.hypot(gs, gt)
    if grad == 0:
        return 0.0 if g0 == 0 else math.inf
    return abs(g0) / grad


def _charge_float(v: MukaiVector, s: float, t: float, n: int) -> complex:
    d_b = float(v.d) - v.r * s
    a_b = float(v.a) - 2 * n * float(v.d) * s + n * v.r * s * s
    return complex(-a_b + n * v.r * t * t, 2 * n * d_b * t)


def float_align_scan(
    v: MukaiVector,
    walls: Iterable[Wall],
    window: tuple[float, float, float],
    cfg: ScanConfig,
    ctx: Context,
) -> dict[int, list[tuple[float, float]]]:
    """Grid points where the float phases of v and each witness align.

    Returns one point cloud per wall (indexed by position in the input);
    each cloud hugs its exact wall within the grid resolution."""
    s_min, s_max, t_max = window
    walls = list(walls)
    clouds: dict[int, list[tuple[float, float]]] = {i: [] for i in range(len(walls))}
    steps_s = int(round((s_max - s_min) / cfg.grid))
    steps_t = int(round(t_max / cfg.grid))
    half_step = cfg.grid / 4
    for i in range(steps_s + 1):
        s = s_min + i * cfg.grid
        for j in range(1, steps_t + 1):
            t = j * cfg.grid
            for idx, w in enumerate(walls):
                witness = MukaiVector(*w.witness)
                dist = _wall_distance_estimate(v, witness, s, t, ctx.n, half_step)
                if dist < cfg.grid * 0.6 or abs(
                    _alignment_defect(v, witness, s, t, ctx.n)
                ) < cfg.tol:
                    clouds[idx].append((s, t))
    return clouds


def cloud_max_distance(wall: Wall, cloud: list[tuple[float, float]]) -> float:
    """Largest distance from a cloud point to the exact wall locus."""
    worst = 0.0
    if isinstance(wall.shape, VLine):
        x = float(s0_of(wall.shape))
        for s, _ in cloud:
            worst = max(worst, abs(s - x))
        return worst
    cx = float(wall.shape.center)
    radius = math.sqrt(float(wall.shape.radius_sq))
    for s, t in cloud:
        worst = max(worst, abs(math.hypot(s - cx, t) - radius))
    return worst


# ---------------------------------------------------------------------------
# conventions of the transforms


def delta_matrix() -> GMatrix:
    """diag(1, -1), the cohomological dualizing factor."""
    return GMatrix(Surd(1), Surd(0), Surd(0), Surd(-1))


def swap_diagonal(g: GMatrix) -> GMatrix:
    """(a,b;c,d) -> (d,b;c,a): converts between the point-object convention
    and the kernel convention, i.e. reverses the transform's direction."""
    return GMatrix(g.d, g.b, g.c, g.a)


def dual_flip(g: GMatrix) -> GMatrix:
    """(a,b;c,d) -> (a,-b;-c,d): the shifted-dual kernel, same direction."""
    return GMatrix(g.a, surd_neg(g.b), surd_neg(g.c), g.d)


# ---------------------------------------------------------------------------
# wall-swapping transforms


def psi_map(pell: PellContext, m: int) -> GMatrix:
    """The matrix A^{-m} diag(1,-1) A^{m} of the contravariant transform
    that swaps the labeled walls around index m (m+k -> m-k)."""
    a = pell.generator
    return g_mul(g_mul(g_power(a, -m), delta_matrix()), g_power(a, m))


def psi_apply_to_wall(pell: PellContext, m: int, wall: Wall, ctx: Context) -> Wall:
    """Transport a wall for (1, 0, -l) by psi_map(pell, m), acting on its
    witness and rebuilding; labels move by m+k -> m-k."""
    v = MukaiVector(1, 0, -pell.ell)
    w_img = act_on_vector(MukaiVector(*wall.witness), psi_map(pell, m), ctx)
    new = wall_of(v, w_img, ctx) or wall_of(v, -w_img, ctx)
    if new is None:
        raise IntegralityViolation(f"transport of {wall} lost the wall conditions")
    label = None if wall.label is None else 2 * m - wall.label
    return Wall(new.shape, new.witness, label)


# ---------------------------------------------------------------------------
# exact charges on the half-plane and the compatibility identity


def charge_at_z(v: MukaiVector, z: QnComplex, ctx: Context) -> QnComplex:
    """Z of v at beta + i*omega = (z/sqrt(n))H, exactly:
    Z = 2*sqrt(n)*z*d - a - r*z^2 in Q(sqrt n)(i)."""
    n = ctx.n
    sqn = QnComplex(QnNumber(0, 1, n), qn_rat(0, n))
    term1 = z * sqn * QnComplex(qn_rat(2 * v.d, n), qn_rat(0, n))
    return term1 + QnComplex(qn_rat(-v.a, n), qn_rat(0, n)) + (z * z) * -v.r


def _sqrt_n_multiple(x: Surd, n: int) -> Fraction:
    """Coefficient w with x = w*sqrt(n); raises NotInGHat otherwise."""
    if x.coef == 0:
        return Fraction(0)
    scaled = surd_mul(x, Surd(1, n))
    if scaled.rad != 1:
        raise NotInGHat(f"{x} is not a rational multiple of sqrt({n})")
    return Fraction(scaled.coef, n)


def charge_compat_check(g: GMatrix, v: MukaiVector, z: QnComplex, ctx: Context) -> bool:
    """Exact check of -(c*z+d)^2 * Z_{g*z}(Phi(v)) = Z_z(v) for g in the
    half-plane convention.

    The transform acts on vectors as Phi(v) = -(v * theta(g)) with theta(g)
    the diagonal swap of g: the odd kernel shift that pairs with the
    -(c*z+d)^2 factor (the quadratic right action alone cannot see the
    sign; the translation matrix (1,1;0,1) pins it)."""
    if require_member(g, ctx).det != 1:
        raise NotInGHat("compatibility check needs determinant +1")
    n = ctx.n
    lhs = charge_at_z(v, z, ctx)
    z_img = mobius(g, z, ctx)
    v_img = vec_neg(act_on_vector(v, swap_diagonal(g), ctx))
    # (c*z+d)^2 = c^2 z^2 + 2cd z + d^2 with c^2, d^2 rational and cd a
    # rational multiple of sqrt(n): all coefficients live in the field
    cd_coeff = _sqrt_n_multiple(surd_mul(g.c, g.d), n)
    zeta = (
        (z * z) * surd_square(g.c)
        + z * QnComplex(QnNumber(0, 2 * cd_coeff, n), qn_rat(0, n))
        + QnComplex(qn_rat(surd_square(g.d), n), qn_rat(0, n))
    )
    rhs = zeta * charge_at_z(v_img, z_img, ctx) * -1
    return lhs == rhs


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
    member = g_membership(g, ctx)
    if member is None or member.det != 1:
        return False
    top_right = Surd(Fraction(g.b.coef, n), g.b.rad * n)  # b*sqrt(s)/sqrt(n)
    bottom_left = Surd(g.c.coef, g.c.rad * n)  # c*sqrt(s)*sqrt(n)
    for entry in (g.a, g.d, top_right, bottom_left):
        if entry.rad != 1 or entry.coef.denominator != 1:
            return False
    return bottom_left.coef % n == 0


# ---------------------------------------------------------------------------
# slope intervals
#
# I_m and I_m* as in the comment block of `stabwalls.pell`: membership is
# decided on x = lam^2 against the rational squares P_k^2 and Q_k^2, here
# for any label m and either twin, with (a_0, b_0) = (0, 1) giving P_0 = 0
# and Q_0 = +inf.


def _squared_ends(ell: int, a: Surd, b: Surd) -> tuple[Fraction, Optional[Fraction]]:
    """(P_k^2, Q_k^2) from the iterate (a_k, b_k); (a_0, b_0) = (0, 1)
    gives P_0 = 0 and Q_0 = +inf, returned as None."""
    if a.coef == 0:
        return Fraction(0), None
    big_a, big_b = surd_square(a), surd_square(b)
    ba, lab = big_b / big_a, ell * ell * big_a / big_b
    return (ba, lab) if ba < ell else (lab, ba)


def _within(x: Fraction, lo: Fraction, hi: Optional[Fraction], closed_left: bool) -> bool:
    """x in [lo, hi) when closed_left, else in (lo, hi]; hi None is +inf."""
    if closed_left:
        return (hi is None or x < hi) and lo <= x
    return (hi is None or x <= hi) and lo < x


def in_interval(pell: PellContext, lam: Fraction, m: int, starred: bool) -> bool:
    """Whether the rational slope lam lies in I_m, or in its right-closed
    twin I_m* when starred."""
    lam = Fraction(lam)
    if (lam < 0) if m >= 1 else (lam > 0):
        return False
    k = m if m >= 1 else 1 - m
    prev, cur = iterate(pell, k - 1), iterate(pell, k)
    p_prev, q_prev = _squared_ends(pell.ell, prev.a, prev.b)
    p_k, q_k = _squared_ends(pell.ell, cur.a, cur.b)
    x, closed_left = lam * lam, (m >= 1) != starred
    return _within(x, p_prev, p_k, closed_left) or _within(x, q_k, q_prev, closed_left)


def sheaf_verdict(pell: PellContext, lam: Fraction, m: int) -> dict:
    """Transform-image test for index m <= 0: a slope in I_m yields a stable
    sheaf (up to shift); a slope in I_m* yields one after dualizing; interior
    slopes satisfy both, endpoints exactly one."""
    if m > 0:
        raise ValueError("verdict defined for m <= 0")
    stable = in_interval(pell, lam, m, starred=False)
    dual = in_interval(pell, lam, m, starred=True)
    if stable and dual:
        label = "Both"
    elif stable:
        label = "StableSheaf"
    elif dual:
        label = "DualStableSheaf"
    else:
        label = "Neither"
    return {"stable_sheaf": stable, "dual_stable_sheaf": dual, "verdict": label}
