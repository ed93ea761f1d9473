import random
from fractions import Fraction as F

import pytest

from paper_checks import (
    PhaseWindow,
    ZeroCharge,
    alignment_sign,
    charge,
    phase,
    phase_window,
    twist,
    vec_neg,
    wall_of,
)
from reference_output import t_sq_at
from stabwalls.charge import StabilityPoint
from stabwalls.lattice import Context, MukaiVector, RHO, UNIT
from stabwalls.walls import Circle

C1 = Context(1)


def test_charge_examples():
    z = charge(MukaiVector(1, 0, -2), 0, C1)
    assert (z.re0, z.re2, z.im1) == (2, 1, 0)  # Z = 2 + t^2
    zr = charge(RHO, F(3, 7), C1)
    assert (zr.re0, zr.re2, zr.im1) == (-1, 0, 0)
    s = F(2, 3)
    ze = charge(twist(UNIT, s, C1), s, C1)
    assert (ze.re0, ze.re2, ze.im1) == (0, 1, 0)  # Z = n*t^2


def test_charge_additive():
    rng = random.Random(5)
    for _ in range(200):
        v = MukaiVector(rng.randint(-5, 5), rng.randint(-5, 5), rng.randint(-5, 5))
        w = MukaiVector(rng.randint(-5, 5), rng.randint(-5, 5), rng.randint(-5, 5))
        s = F(rng.randint(-4, 4), rng.randint(1, 3))
        n = rng.randint(1, 3)
        a, b = charge(v, s, Context(n)), charge(w, s, Context(n))
        c = charge(MukaiVector(v.r + w.r, v.d + w.d, v.a + w.a), s, Context(n))
        assert (c.re0, c.re2, c.im1) == (a.re0 + b.re0, a.re2 + b.re2, a.im1 + b.im1)


def test_phase_values():
    pt = StabilityPoint(0, 1)
    assert phase(MukaiVector(1, 0, -2), pt, C1) == 0.0
    assert phase(RHO, pt, C1) == 1.0
    assert phase(MukaiVector(0, 1, 0), pt, C1) == pytest.approx(0.5)


def test_phase_range_and_negation():
    rng = random.Random(11)
    for _ in range(300):
        v = MukaiVector(rng.randint(-5, 5), rng.randint(-5, 5), rng.randint(-5, 5))
        if v == MukaiVector(0, 0, 0):
            continue
        pt = StabilityPoint(F(rng.randint(-4, 4), 2), F(rng.randint(1, 8), 3))
        try:
            p = phase(v, pt, C1)
        except ZeroCharge:
            continue
        assert -1 < p <= 1
        q = phase(vec_neg(v), pt, C1)
        diff = (p - q) % 2
        assert min(abs(diff - 1), abs(diff + 1), abs(diff)) < 1e-12 or abs(diff - 1) < 1e-12


def test_aligned_wall_examples():
    v, w = MukaiVector(1, 0, -3), MukaiVector(1, -1, 1)
    assert alignment_sign(v, w, StabilityPoint(-2, 1), C1) == 0
    assert alignment_sign(v, v, StabilityPoint(-2, 4), C1) == 0
    assert alignment_sign(v, w, StabilityPoint(-2, 4), C1) != 0


def test_aligned_iff_on_wall():
    rng = random.Random(23)
    hits = 0
    while hits < 60:
        n = rng.randint(1, 2)
        ctx = Context(n)
        v = MukaiVector(rng.randint(-3, 3), rng.randint(-3, 3), rng.randint(-3, 3))
        w = MukaiVector(rng.randint(-3, 3), rng.randint(-3, 3), rng.randint(-3, 3))
        try:
            wall = wall_of(v, w, ctx)
        except Exception:
            continue
        if wall is None or not isinstance(wall.shape, Circle):
            continue
        hits += 1
        c, r2 = wall.shape.center, wall.shape.radius_sq
        # a point on the wall, a point inside, a point outside
        t_on = t_sq_at(wall.shape, c)
        assert alignment_sign(v, w, StabilityPoint(c, t_on), ctx) == 0
        if t_on > F(1, 100):
            assert alignment_sign(v, w, StabilityPoint(c, t_on - F(1, 100)), ctx) != 0
        assert alignment_sign(v, w, StabilityPoint(c, t_on + 1), ctx) != 0


def test_phase_window_cases():
    v, w = MukaiVector(1, 0, -3), MukaiVector(1, -1, 1)
    inside = StabilityPoint(F(-7, 4), F(1, 100))
    on = StabilityPoint(-2, 1)
    outside = StabilityPoint(-4, 1)
    assert phase_window(v, w, inside, C1) is PhaseWindow.ABOVE
    assert phase_window(v, w, on, C1) is PhaseWindow.ALIGNED
    assert phase_window(v, w, outside, C1) is PhaseWindow.BELOW


def test_phase_window_matches_float_phases():
    # ABOVE means phi(w) mod 2 in (phi(v), phi(v)+1)
    v, w = MukaiVector(1, 0, -3), MukaiVector(1, -1, 1)
    pt = StabilityPoint(F(-7, 4), F(1, 100))
    pv, pw = phase(v, pt, C1), phase(w, pt, C1)
    assert 0 < (pw - pv) % 2 < 1
    assert alignment_sign(v, w, pt, C1) > 0


def test_zero_charge_error():
    # Z of the exponential vector vanishes nowhere on t > 0, but rho-multiples
    # of a twisted unit do on their hole; use v with Z = 0 at (0, 2)
    v = MukaiVector(1, 0, 2)  # Z = -2 + t^2, im = 0: vanishes at t^2 = 2
    with pytest.raises(ZeroCharge):
        phase(v, StabilityPoint(0, 2), C1)
