"""The three integer paths that read wall shapes, against their Fraction
references in reference_output.py: the wall text of `jsonio.wall_record`,
`svg.render`, and `walls.classify_point`; and `walls.w_max_report`
against the largest circle by Fraction."""

import json
import math
import random
from fractions import Fraction as F
from pathlib import Path

import pytest

from reference_output import (
    circle,
    reference_classify_point,
    reference_render,
    reference_wall_record,
    vline,
)
from stabwalls.charge import StabilityPoint
from stabwalls.errors import NoWalls
from stabwalls.jsonio import wall_record
from stabwalls.lattice import Context, MukaiVector
from stabwalls.svg import render
from stabwalls.walls import (
    Circle,
    VLine,
    Wall,
    classify_point,
    enumerate_walls_on_line,
    w_max_report,
    wall_set,
)

GOLDENS = Path(__file__).parent / "goldens"

# square route, Pell route (with labels), and rank-0 concentric sets
SQUARE = ((1, 16), (1, 25), (2, 8), (1, 36), (4, 25))
PELL = ((1, 2, range(-5, 6)), (1, 3, range(-3, 4)), (2, 3, range(-2, 3)), (1, 7, range(-3, 2)))
RANK0 = (
    (1, (0, 6, 9), F(3, 4)), (1, (0, 4, 6), F(3, 4)), (1, (0, 5, 10), F(1)), (2, (0, 3, 12), F(1))
)


def _wall_sets():
    """(name, n, v, walls) for every test wall set."""
    for n, ell in SQUARE:
        yield f"square ({n},{ell})", n, MukaiVector(1, 0, -ell), wall_set(n, ell)[0]
    for n, ell, labels in PELL:
        yield f"pell ({n},{ell})", n, MukaiVector(1, 0, -ell), wall_set(n, ell, labels)[0]
    for n, v, s0 in RANK0:
        v = MukaiVector(*v)
        yield f"rank 0 {v} at {s0}", n, v, enumerate_walls_on_line(v, s0, Context(n))


def _indented(record: dict, pad: str) -> str:
    """json.dumps of a record nested at indent pad."""
    return json.dumps(record, indent=2, sort_keys=True).replace("\n", "\n" + pad)


def test_wall_text_is_json_dumps_of_the_reference_record():
    """wall_record(w, pad) is the json.dumps text of the dict record at
    indent pad: circles and vertical lines, with and without a label,
    negative entries and entries far past 2^64, at three pads."""
    big = 3**200 + 1
    walls = [
        Wall(circle(F(-3, 2), F(1, 4)), (1, -1, 0), -1),
        Wall(circle(F(-3, 2), F(1, 4)), (1, -1, 0)),
        Wall(circle(F(7), F(2)), (-2, 5, -9)),
        Wall(circle(F(-big, big + 2), F(big, 7)), (-big, big, -(big**2)), -(10**30)),
        Wall(circle(F(big), F(1, big)), (big, -big, 0)),
        Wall(vline(0), (1, 0, 0), 0),
        Wall(vline(F(-5, 3)), (3, -5, 2)),
        Wall(vline(F(big, 3)), (3, big, -big)),
        Wall(vline(-big), (1, -big, -big), 12),
    ]
    for _, _, _, found in _wall_sets():
        walls += found[:5]
    for pad in ("", "  ", "    "):
        for w in walls:
            assert wall_record(w, pad) == _indented(reference_wall_record(w), pad), (w, pad)


def _windows(rng, walls):
    """Seeded windows: around the walls, clipping circles, holding
    nothing, with and without s = 0."""
    shapes = [w.shape for w in walls if isinstance(w.shape, Circle)]
    out = [(F(-3), F(1), F(3, 2)), (F(-1, 7), F(1, 7), F(1, 100)), (F(50), F(51), F(1)),
           (F(-90), F(-80), F(2)), (F(1, 3), F(4), F(5, 2))]
    for _ in range(12):
        if shapes and rng.random() < 0.6:
            c = rng.choice(shapes)
            # an edge near the circle's center or inside it clips the circle
            lo = c.center + F(rng.randint(-40, 10), rng.choice((7, 10, 13)))
        else:
            lo = F(rng.randint(-120, 40), rng.choice((1, 4, 10)))
        width = F(rng.randint(1, 90), rng.choice((1, 3, 10, 17)))
        out.append((lo, lo + width, F(rng.randint(1, 30), rng.choice((1, 4, 10)))))
    return out


def test_render_matches_the_fraction_reference():
    """The integer render equals the Fraction render byte for byte on
    square, Pell and rank-0 concentric wall sets in seeded windows, and on
    the two SVG goldens."""
    rng = random.Random(2200)
    for name, _, _, walls in _wall_sets():
        for window in _windows(rng, walls):
            for title in (None, name):
                expected = reference_render(walls, window, title)
                assert render(walls, window, title) == expected, (name, window)
    for ell, golden in ((2, "fig1.svg"), (3, "fig2.svg")):
        walls = wall_set(1, ell, range(-2, 3))[0]
        window = (F(-3), F(1), F(3, 2))
        title = f"Walls for 1 - {ell}rho (n = 1)"
        text = render(walls, window, title)
        assert text == reference_render(walls, window, title)
        assert text.encode() == (GOLDENS / golden).read_bytes()


def _points(rng, walls):
    """Seeded points: on every circle and line, just under the top of each
    circle, deep inside, and outside every wall on both sides."""
    pts = []
    for w in walls:
        shape = w.shape
        if isinstance(shape, VLine):
            t_sq = F(rng.randint(1, 9), rng.randint(1, 9))
            pts.append(StabilityPoint(F(shape.sn, shape.sd), t_sq))
            continue
        c, r2 = shape.center, shape.radius_sq
        # a rational below the radius, then points with s - c inside it
        low = F(rng.randint(1, 9), 10) * F(math.isqrt(shape.rn * 10**12 // shape.rd), 10**6)
        for u in (F(0), F(1, 3), F(-5, 8), F(rng.randint(-99, 99), 100)):
            s = c + u * low
            pts.append(StabilityPoint(s, r2 - (s - c) ** 2))  # on the circle
        for scale in (F(999, 1000), F(1, 2), F(1, 10), F(1, 1000)):
            pts.append(StabilityPoint(c, r2 * scale))  # inside, under the top
    for s in (F(-200), F(-3, 7), F(0), F(1, 5), F(200)):
        pts.append(StabilityPoint(s, F(10**6)))  # above every wall
    for s in (F(-1, 1000), F(1, 1000)):
        pts.append(StabilityPoint(s, F(1, 10**6)))  # near s = 0, below every circle
    s, t_sq = F(rng.randint(-300, 300), 7), F(rng.randint(1, 50), rng.randint(1, 50))
    pts.append(StabilityPoint(s, t_sq))
    return pts


def _classify_sets():
    """(name, n, v, walls, drawn) for classify: the square and Pell sets,
    sets without C_0, and the far labels of (1,2) unsorted, each wall
    twice.  Points are drawn on every wall in `drawn`: all walls of each
    set but the last, whose 162 walls would keep the Fraction reference
    busy for seconds, so points go on a seeded 40 of them."""
    for name, n, v, walls in _wall_sets():
        if v.r == 0:
            continue  # classify serves the class (1, 0, -l)
        yield name, n, v, walls, walls
        if name in ("square (1,16)", "pell (1,3)"):
            no_c0 = [w for w in walls if w.label != 0]
            yield f"{name} without C_0", n, v, no_c0, no_c0
    rng = random.Random(2202)
    twice = wall_set(1, 2, range(-40, 41))[0] * 2
    rng.shuffle(twice)
    yield ("pell (1,2) labels -40..40, unsorted, each wall twice", 1, MukaiVector(1, 0, -2),
           twice, rng.sample(twice, 40))


def test_classify_matches_the_fraction_reference():
    """classify_point agrees with the Fraction form at seeded points on the
    walls, inside bounded chambers with and without an inner wall, and in
    both unbounded chambers, over the square and Pell routes, far labels,
    an unsorted set with repeated walls, and sets without C_0; the
    unbounded chambers on both sides of s = 0, and at s = 0 off C_0."""
    rng = random.Random(2201)
    kinds, unbounded = set(), set()
    for name, n, v, walls, drawn in _classify_sets():
        ctx = Context(n)
        for pt in _points(rng, drawn):
            got = classify_point(v, pt, walls, ctx)
            assert got == reference_classify_point(v, pt, walls, ctx), (name, pt)
            kinds.add((got.kind, got.inner is not None))
            if got.outer is None and got.wall is None:  # (kind, sign of s, t^2 < 1)
                unbounded.add((got.kind, (pt.s > 0) - (pt.s < 0), pt.t_sq < 1))
    assert kinds == {("OnWall", False), ("Bounded", True), ("Bounded", False),
                     ("Gieseker", False), ("DualGieseker", False)}
    assert unbounded == {("Gieseker", -1, False), ("Gieseker", -1, True),
                         ("DualGieseker", 1, False), ("DualGieseker", 1, True),
                         ("DualGieseker", 0, False)}


def test_w_max_is_the_largest_circle_in_s_below_0():
    """w_max_report picks the circle of largest radius^2 in s < 0, by
    Fraction, and raises NoWalls when there is none, over n <= 6, l < 40,
    in sorted order and shuffled."""
    rng = random.Random(2203)
    raised = 0
    for n in range(1, 7):
        for ell in range(1, 40):
            walls = wall_set(n, ell)[0]
            left = [w for w in walls if isinstance(w.shape, Circle) and w.shape.center < 0]
            if not left:
                with pytest.raises(NoWalls):
                    w_max_report(walls)
                raised += 1
                continue
            top = max(left, key=lambda w: w.shape.radius_sq)
            rep = w_max_report(walls)
            assert rep.wall == top, (n, ell)
            c, r2 = top.shape.center, top.shape.radius_sq
            for lam in (rep.lambda1, rep.lambda2):  # (lam - c)^2 = r2
                assert (lam.u - c) * lam.v == 0 and (lam.u - c) ** 2 + lam.v**2 * lam.n == r2
            assert (rep.lambda2 - rep.lambda1).sign() > 0, (n, ell)
            shuffled = list(walls)
            rng.shuffle(shuffled)
            assert w_max_report(shuffled) == rep, (n, ell)
    assert 0 < raised < 6 * 39
