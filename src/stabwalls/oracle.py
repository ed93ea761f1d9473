"""Independent brute-force and floating-point cross-checks.

These live in the shipping package, not only in the tests, so CLI users can
request --verify runs; they may be exponentially slower than the main path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .lattice import Context, MukaiVector
from .surd import RatLike
from .walls import Circle, VLine, Wall, sort_walls, wall_between, witness_key


@dataclass(frozen=True)
class ScanConfig:
    grid: float = 0.05
    tol: float = 1e-9

    def __post_init__(self):
        if self.tol <= 0:
            raise ValueError("need tol > 0")


def brute_walls(v: MukaiVector, s0: RatLike, bound: int, ctx: Context) -> list[Wall]:
    """Exhaustive scan of all integral v1 with |r1|, |d1|, |a1| <= bound
    through wall_between, keeping the walls that meet {s0} x R_{>0}."""
    s0 = Fraction(s0)
    found: dict[object, Wall] = {}
    rng = range(-bound, bound + 1)
    for r1 in rng:
        for d1 in rng:
            for a1 in rng:
                v1 = MukaiVector(r1, d1, a1)
                if v1.is_zero():
                    continue
                w = wall_between(v, v1, ctx)
                if w is None or not isinstance(w.shape, Circle):
                    continue
                if w.shape.t_sq_at(s0) <= 0:
                    continue
                prev = found.get(w.shape)
                if prev is None or witness_key(v1) < witness_key(prev.witness):
                    found[w.shape] = w
    return sort_walls(found.values())


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
                dist = _wall_distance_estimate(v, w.witness, s, t, ctx.n, half_step)
                if dist < cfg.grid * 0.6 or abs(
                    _alignment_defect(v, w.witness, s, t, ctx.n)
                ) < cfg.tol:
                    clouds[idx].append((s, t))
    return clouds


def cloud_max_distance(wall: Wall, cloud: list[tuple[float, float]]) -> float:
    """Largest distance from a cloud point to the exact wall locus."""
    worst = 0.0
    if isinstance(wall.shape, VLine):
        x = float(wall.shape.s0)
        for s, _ in cloud:
            worst = max(worst, abs(s - x))
        return worst
    cx = float(wall.shape.center)
    radius = math.sqrt(float(wall.shape.radius_sq))
    for s, t in cloud:
        worst = max(worst, abs(math.hypot(s - cx, t) - radius))
    return worst
