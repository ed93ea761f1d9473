"""Fraction views of the wall shapes, and the Fraction forms of the three
integer paths that read them, kept test-only as references.

A `Circle` or `VLine` holds the integers that `walls.wall_between`
returns.  Tests that write a shape by its center and radius^2 build it
with `circle` (or `vline`), read an abscissa with `s0_of` and a height
with `t_sq_at`; `shape_of` types an integer shape tuple.
`fraction_builds` counts the Fractions a call builds.

`reference_render`, `reference_classify_point` and `reference_wall_record`
are `svg.render`, `walls.classify_point` and `jsonio.wall_record` as they
stood when every wall was drawn, classified and recorded through
`Fraction` arithmetic and a dict: kept verbatim apart from reading the
shapes through these views and ordering the walls by `plain_key`, so that
neither side shares the code it checks.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from typing import Iterable, Optional

from stabwalls.charge import StabilityPoint
from stabwalls.jsonio import frac_str, vector_str
from stabwalls.lattice import Context, MukaiVector
from stabwalls.surd import RatLike, rational_sqrt
from stabwalls.walls import ChamberReport, Circle, Shape, VLine, Wall


def circle(center: RatLike, radius_sq: RatLike) -> Circle:
    """The Circle of a rational center and radius^2."""
    c, r = Fraction(center), Fraction(radius_sq)
    return Circle(c.numerator, c.denominator, r.numerator, r.denominator)


def vline(s0: RatLike) -> VLine:
    """The VLine s = s0."""
    s = Fraction(s0)
    return VLine(s.numerator, s.denominator)


def shape_of(shape: tuple) -> Shape:
    """The Circle or VLine of an integer shape tuple from wall_between."""
    return Circle(*shape) if len(shape) == 4 else VLine(*shape)


def s0_of(shape: VLine) -> Fraction:
    return Fraction(shape.sn, shape.sd)


def t_sq_at(shape: Circle, s: RatLike) -> Fraction:
    """t^2 of the circle at abscissa s (negative where it does not reach)."""
    return shape.radius_sq - (s - shape.center) ** 2


def fraction_builds(fn, *args):
    """fn(*args) and the number of Fraction.__new__ calls it made."""
    code = Fraction.__new__.__code__
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        if event == "call" and frame.f_code is code:
            count += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        result = fn(*args)
    finally:
        sys.setprofile(previous)
    return result, count


def plain_key(w: Wall) -> tuple:
    """The (kind, x, y) order of walls in Fractions: lines by abscissa,
    then circles by center and radius^2."""
    if isinstance(w.shape, VLine):
        return (0, s0_of(w.shape), Fraction(0))
    return (1, w.shape.center, w.shape.radius_sq)


# ---------------------------------------------------------------------------
# jsonio.wall_record as a dict


def reference_wall_record(w: Wall) -> dict:
    if isinstance(w.shape, VLine):
        shape = {"vline": {"s": frac_str(s0_of(w.shape))}}
    else:
        shape = {
            "circle": {
                "center": frac_str(w.shape.center),
                "radius_sq": frac_str(w.shape.radius_sq),
            }
        }
    rec = {"shape": shape, "witness": vector_str(MukaiVector(*w.witness)), "codim0": w.codim0}
    if w.label is not None:
        rec["m"] = w.label
    return rec


# ---------------------------------------------------------------------------
# walls.classify_point in Fractions


def _on_wall(shape: Shape, pt: StabilityPoint) -> bool:
    if isinstance(shape, VLine):
        return pt.s == s0_of(shape)
    return (pt.s - shape.center) ** 2 + pt.t_sq == shape.radius_sq


def strictly_inside(shape: Shape, pt: StabilityPoint) -> bool:
    if isinstance(shape, VLine):
        return False
    return (pt.s - shape.center) ** 2 + pt.t_sq < shape.radius_sq


def _circle_inside_circle(inner: Circle, outer: Circle) -> bool:
    return (inner.center - outer.center) ** 2 < outer.radius_sq


def reference_classify_point(
    v: MukaiVector, pt: StabilityPoint, walls: Iterable[Wall], ctx: Context
) -> ChamberReport:
    walls = sorted(walls, key=plain_key)
    for w in walls:
        if _on_wall(w.shape, pt):
            return ChamberReport("OnWall", wall=w)
    enclosing = [w for w in walls if strictly_inside(w.shape, pt)]
    if not enclosing:
        from paper_checks import beta_data  # paper_checks imports this module

        _, d_b, _ = beta_data(v, pt.s, ctx)
        kind = "Gieseker" if d_b > 0 else "DualGieseker"
        return ChamberReport(kind)
    outer = min(enclosing, key=lambda w: w.shape.radius_sq)
    nested = [
        w
        for w in walls
        if isinstance(w.shape, Circle)
        and w.shape != outer.shape
        and _circle_inside_circle(w.shape, outer.shape)
        and not strictly_inside(w.shape, pt)
    ]
    inner = max(nested, key=lambda w: w.shape.radius_sq) if nested else None
    return ChamberReport("Bounded", outer=outer, inner=inner)


# ---------------------------------------------------------------------------
# svg.render in Fractions

_SCALE = 120
_MARGIN = 40
_PREC = 3


def _fmt(x: Fraction) -> str:
    num = x.numerator * 10**_PREC
    den = x.denominator
    q, r = divmod(abs(num), den)
    if 2 * r >= den:
        q += 1
    text = f"{q:0{_PREC + 1}d}"
    return ("-" if num < 0 else "") + text[:-_PREC] + "." + text[-_PREC:]


class _Canvas:
    def __init__(self, s_min: Fraction, s_max: Fraction, t_max: Fraction):
        self.s_min, self.s_max, self.t_max = s_min, s_max, t_max
        self.width = int((s_max - s_min) * _SCALE) + 2 * _MARGIN
        self.height = int(t_max * _SCALE) + 2 * _MARGIN

    def x(self, s: Fraction) -> Fraction:
        return (s - self.s_min) * _SCALE + _MARGIN

    def y(self, t: Fraction) -> Fraction:
        return (self.t_max - t) * _SCALE + _MARGIN


def _sqrt_approx(x: Fraction, digits: int = 9) -> Fraction:
    scale = 10**digits
    return Fraction(math.isqrt(x.numerator * scale * scale // x.denominator), scale)


def reference_render(
    walls: Iterable[Wall],
    window: tuple[Fraction, Fraction, Fraction],
    title: Optional[str] = None,
) -> str:
    s_min, s_max, t_max = (Fraction(v) for v in window)
    cv = _Canvas(s_min, s_max, t_max)
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{cv.width}" height="{cv.height}" '
        f'viewBox="0 0 {cv.width} {cv.height}">',
        f'<clipPath id="win"><rect x="{_fmt(cv.x(s_min))}" y="{_fmt(cv.y(t_max))}" '
        f'width="{_fmt((s_max - s_min) * _SCALE)}" height="{_fmt(t_max * _SCALE)}"/>'
        "</clipPath>",
    ]
    if title:
        parts.append(
            f'<text x="{_fmt(Fraction(cv.width, 2))}" y="20" text-anchor="middle" '
            f'font-family="serif" font-size="14">{title}</text>'
        )
    y0 = cv.y(Fraction(0))
    parts.append(
        f'<line x1="{_fmt(cv.x(s_min))}" y1="{_fmt(y0)}" x2="{_fmt(cv.x(s_max))}" '
        f'y2="{_fmt(y0)}" stroke="black" stroke-width="1"/>'
    )
    if s_min <= 0 <= s_max:
        parts.append(
            f'<line x1="{_fmt(cv.x(Fraction(0)))}" y1="{_fmt(cv.y(t_max))}" '
            f'x2="{_fmt(cv.x(Fraction(0)))}" y2="{_fmt(y0)}" '
            f'stroke="black" stroke-width="0.5" stroke-dasharray="4 3"/>'
        )
    ticks: list[Fraction] = []
    body: list[str] = []
    for w in sorted(walls, key=plain_key):
        if isinstance(w.shape, VLine):
            s0 = s0_of(w.shape)
            if not (s_min <= s0 <= s_max):
                continue
            body.append(
                f'<line x1="{_fmt(cv.x(s0))}" y1="{_fmt(cv.y(t_max))}" '
                f'x2="{_fmt(cv.x(s0))}" y2="{_fmt(y0)}" '
                f'stroke="{_color(w)}" stroke-width="1.5" clip-path="url(#win)"/>'
            )
            ticks.append(s0)
            continue
        radius = _sqrt_approx(w.shape.radius_sq)
        lo, hi = w.shape.center - radius, w.shape.center + radius
        if hi <= s_min or lo >= s_max:
            continue
        body.append(
            f'<circle cx="{_fmt(cv.x(w.shape.center))}" cy="{_fmt(y0)}" '
            f'r="{_fmt(radius * _SCALE)}" fill="none" stroke="{_color(w)}" '
            f'stroke-width="1.5" clip-path="url(#win)"/>'
        )
        rt = rational_sqrt(w.shape.radius_sq)
        if rt is not None:
            ticks.extend([w.shape.center - rt, w.shape.center + rt])
        else:
            ticks.append(w.shape.center)
    parts.extend(body)
    for tick in sorted({t for t in ticks if s_min <= t <= s_max}):
        xt = cv.x(tick)
        parts.append(
            f'<line x1="{_fmt(xt)}" y1="{_fmt(y0 - 4)}" x2="{_fmt(xt)}" '
            f'y2="{_fmt(y0 + 4)}" stroke="black" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_fmt(xt)}" y="{_fmt(y0 + 18)}" text-anchor="middle" '
            f'font-family="serif" font-size="12">{frac_str(tick)}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _color(w: Wall) -> str:
    return "#1f4e9c" if w.codim0 else "#b22222"
