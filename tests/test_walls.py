import random
from fractions import Fraction as F

import pytest

from paper_checks import wall_of
from reference_kernel import proportional, reference_wall_between
from stabwalls.charge import StabilityPoint
from stabwalls.errors import BadCrossSection, DegenerateV, SquareCase
from stabwalls.lattice import Context, MukaiVector, UNIT, pairing, self_pairing
from stabwalls.pell import iterate, slope_endpoints, solve_generator, u_vectors
from stabwalls.surd import QnNumber, is_perfect_square, sqrt_of_fraction
from stabwalls.walls import (
    ChamberReport,
    Circle,
    VLine,
    Wall,
    classify_point,
    codim0_walls,
    cross_section,
    enumerate_walls_on_line,
    is_codim0,
    w_max_report,
    wall_set,
)
from stabwalls.oracle import brute_walls

C1 = Context(1)


# -- wall_between -----------------------------------------------------------


def test_wall_between_examples():
    w = wall_of(MukaiVector(1, 0, -3), MukaiVector(1, -1, 1), C1)
    assert w.shape == Circle(F(-2), F(1))
    w = wall_of(MukaiVector(1, 0, -2), MukaiVector(1, -1, 1), C1)
    assert w.shape == Circle(F(-3, 2), F(1, 4))
    w = wall_of(MukaiVector(1, 0, -4), MukaiVector(1, 0, -1), C1)
    assert w.shape == VLine(F(0))
    assert wall_of(MukaiVector(1, 0, -2), MukaiVector(1, 0, 1), C1) is None


def test_wall_between_degenerate():
    with pytest.raises(DegenerateV):
        wall_of(MukaiVector(1, 0, 1), MukaiVector(1, -1, 1), C1)


def test_wall_between_rank_zero_v():
    # v = (0,2,1), n=1: concentric circles around a/(2nd) = 1/4
    v = MukaiVector(0, 2, 1)
    w = wall_of(v, MukaiVector(-2, 0, 0), C1)
    assert w.shape == Circle(F(1, 4), F(1, 16))
    assert wall_of(v, MukaiVector(0, 1, 1), C1) is None  # rank-0 pair


def test_empty_circle_returns_none():
    # numeric conditions hold but the locus is empty (radius^2 <= 0)
    v, v1 = MukaiVector(-3, -3, -2), MukaiVector(0, -1, -1)
    rest = v - v1
    assert self_pairing(v1, C1) >= 0
    assert self_pairing(rest, C1) >= 0
    assert pairing(v1, rest, C1) > 0
    assert wall_of(v, v1, C1) is None


def test_proportional_witness_returns_none():
    v, v1 = MukaiVector(2, 2, 0), MukaiVector(1, 1, 0)
    assert pairing(v1, v - v1, C1) > 0  # conditions hold, but v1 in Q*v
    assert wall_of(v, v1, C1) is None



def _wall_between_outcome(v, v1, ctx):
    """What wall_between does with (v, v1), and which rule decides it, read
    off the reference: Fraction pairings and minors, in the reference order."""
    try:
        w = reference_wall_between(v, v1, ctx)
    except DegenerateV as exc:
        return ("raise", type(exc), str(exc)), "<v^2> <= 0"
    rest = v - v1
    if self_pairing(v1, ctx) < 0:
        rule = "<v1^2> < 0"
    elif self_pairing(rest, ctx) < 0:
        rule = "<(v-v1)^2> < 0"
    elif pairing(v1, rest, ctx) <= 0:
        rule = "<v1, v-v1> <= 0"
    elif proportional(v, v1):
        rule = "proportional"
    elif w is None:
        rule = "rank-0 pair" if v.r == v1.r == 0 else "radius^2 <= 0"
    elif isinstance(w.shape, VLine):
        rule = "line"
    else:
        rule = "rank-0 circle" if v.r == 0 else "circle"
    if w is None:
        return None, rule
    return (type(w.shape), w.shape, w.witness), rule


def test_wall_between_matches_reference():
    """The integer wall test agrees with the Fraction reference on seeded
    pairs (n <= 6, rank-0 v and v1, d and a with denominators up to 3):
    None, shape, witness, and the DegenerateV type and message."""
    rng = random.Random(20260418)

    def entry():
        return F(rng.randint(-6, 6), rng.choice((1, 1, 2, 3)))

    reached = set()
    for _ in range(20000):
        ctx = Context(rng.randint(1, 6))
        v = MukaiVector(rng.randint(-3, 3), entry(), entry())
        v1 = MukaiVector(rng.randint(-3, 3), entry(), entry())
        expected, rule = _wall_between_outcome(v, v1, ctx)
        reached.add(rule)
        try:
            w = wall_of(v, v1, ctx)
        except DegenerateV as exc:
            got = ("raise", type(exc), str(exc))
        else:
            got = None if w is None else (type(w.shape), w.shape, w.witness)
        assert got == expected, (ctx.n, v, v1, rule)
    assert reached == {
        "<v^2> <= 0", "<v1^2> < 0", "<(v-v1)^2> < 0", "<v1, v-v1> <= 0", "proportional",
        "rank-0 pair", "radius^2 <= 0", "line", "circle", "rank-0 circle",
    }


# -- pencil: every circle wall for v has radius^2 = (center - p)^2 - q with
# p = d/r and q = <v^2>/(2n r^2) -------------------------------------------


def _pencil(v, ctx):
    return F(v.d) / v.r, self_pairing(v, ctx) / (2 * ctx.n * v.r**2)


def test_pencil_membership_and_disjointness():
    rng = random.Random(77)
    for _ in range(40):
        n = rng.randint(1, 3)
        ctx = Context(n)
        v = MukaiVector(rng.randint(1, 3), rng.randint(-3, 3), rng.randint(-4, 0))
        if self_pairing(v, ctx) <= 0:
            continue
        p, q = _pencil(v, ctx)
        circles = []
        for r1 in range(-4, 5):
            for d1 in range(-4, 5):
                for a1 in range(-4, 5):
                    w = wall_of(v, MukaiVector(r1, d1, a1), ctx)
                    if w is not None and isinstance(w.shape, Circle):
                        circles.append(w.shape)
        for sh in circles:
            assert sh.radius_sq == (sh.center - p) ** 2 - q
        # pairwise disjoint: intersection would force s = p, t^2 = -q < 0
        shapes = sorted(set(circles), key=lambda s: (s.center, s.radius_sq))
        for i, s1 in enumerate(shapes):
            for s2 in shapes[i + 1 :]:
                # resultant check: subtracting the circle equations gives
                # 2(c2-c1)s = (c2^2-r2^2)-(c1^2-r1^2); on that line t^2 < 0
                dc = 2 * (s2.center - s1.center)
                rhs = (s2.center**2 - s2.radius_sq) - (s1.center**2 - s1.radius_sq)
                if dc == 0:
                    assert rhs != 0  # concentric distinct: never meet
                else:
                    s_meet = rhs / dc
                    assert s1.t_sq_at(s_meet) < 0


def test_cor_square_endpoint_containment():
    # every circle wall strictly contains one of (p - sqrt(q), 0), (p + sqrt(q), 0)
    rng = random.Random(99)
    checked = 0
    for _ in range(60):
        n = rng.randint(1, 2)
        ctx = Context(n)
        v = MukaiVector(rng.randint(1, 3), rng.randint(-3, 3), rng.randint(-4, 1))
        if self_pairing(v, ctx) <= 0:
            continue
        p, q = _pencil(v, ctx)
        root = sqrt_of_fraction(q)
        for r1 in range(-3, 4):
            for d1 in range(-3, 4):
                for a1 in range(-3, 4):
                    w = wall_of(v, MukaiVector(r1, d1, a1), ctx)
                    if w is None or not isinstance(w.shape, Circle):
                        continue
                    checked += 1
                    c, r2 = w.shape.center, w.shape.radius_sq
                    if root.is_rational():
                        pts = [p - root.as_fraction(), p + root.as_fraction()]
                        assert any((pt - c) ** 2 < r2 for pt in pts)
                    else:
                        # inside test via radius/center inequality:
                        # (p +- sqrt(q) - c)^2 < (c-p)^2 - q
                        # <=> -+2(c-p)sqrt(q) < -2q <=> +-(c-p) > sqrt(q)
                        lhs = (c - p) ** 2
                        assert lhs > q  # one sign always works
    assert checked > 50


# -- enumeration ------------------------------------------------------------


def test_enumerate_golden_l3():
    walls = enumerate_walls_on_line(MukaiVector(1, 0, -3), -2, C1)
    assert [w.shape for w in walls] == [Circle(F(-2), F(1))]
    # the textbook witness (1,-1,1) defines the same wall
    alt = wall_of(MukaiVector(1, 0, -3), MukaiVector(1, -1, 1), C1)
    assert alt.shape == walls[0].shape


def test_enumerate_golden_l2_empty():
    assert enumerate_walls_on_line(MukaiVector(1, 0, -2), -1, C1) == []


def test_enumerate_golden_l4_square_abscissa():
    walls = enumerate_walls_on_line(MukaiVector(1, 0, -4), -2, C1)
    assert [w.shape for w in walls] == [Circle(F(-5, 2), F(9, 4))]


def test_enumerate_bad_cross_section():
    with pytest.raises(BadCrossSection):
        enumerate_walls_on_line(MukaiVector(1, 0, -2), 0, C1)


def test_enumerate_positive_side_mirror():
    left = enumerate_walls_on_line(MukaiVector(1, 0, -3), -2, C1)
    right = enumerate_walls_on_line(MukaiVector(1, 0, -3), 2, C1)
    assert [w.shape for w in right] == [Circle(F(2), F(1))]
    assert len(left) == len(right)


def test_enumerate_matches_oracle_randomized():
    rng = random.Random(4242)
    done = 0
    while done < 18:
        n = rng.randint(1, 3)
        ctx = Context(n)
        v = MukaiVector(rng.randint(-2, 2), rng.randint(-2, 2), rng.randint(-4, 4))
        if self_pairing(v, ctx) <= 0:
            continue
        s0 = F(rng.randint(-5, 5), rng.choice([1, 2]))
        try:
            fast = enumerate_walls_on_line(v, s0, ctx)
        except BadCrossSection:
            continue
        slow = brute_walls(v, s0, 8, ctx)
        fast_shapes = [w.shape for w in fast]
        # the oracle is bound-limited: it must be a subset; on small
        # instances (checked below for goldens) they agree exactly
        assert set(w.shape for w in slow) <= set(fast_shapes)
        done += 1


def test_enumerate_matches_oracle_exactly_on_goldens():
    for ell, s0, bound in [(3, -2, 10), (2, -1, 10), (4, -2, 10), (5, -2, 10)]:
        v = MukaiVector(1, 0, -ell)
        fast = [w.shape for w in enumerate_walls_on_line(v, s0, C1)]
        slow = [w.shape for w in brute_walls(v, s0, bound, C1)]
        assert fast == slow, (ell, s0)


# -- fundamental walls and codim-0 family ------------------------------------


def test_fundamental_walls_goldens():
    fw2 = wall_set(1, 2)[0]
    assert [w.shape for w in fw2] == [VLine(F(0)), Circle(F(-3, 2), F(1, 4))]
    assert all(w.codim0 for w in fw2)

    fw3 = wall_set(1, 3)[0]
    shapes = [w.shape for w in fw3]
    assert Circle(F(-2), F(1)) in shapes
    assert Circle(F(-7, 4), F(1, 16)) in shapes
    assert VLine(F(0)) in shapes
    between = [w for w in fw3 if not w.codim0]
    assert [w.shape for w in between] == [Circle(F(-2), F(1))]

    fw5 = wall_set(1, 5)[0]
    assert Circle(F(-9, 4), F(1, 16)) in [w.shape for w in fw5]

    fw6 = wall_set(1, 6)[0]
    assert Circle(F(-49, 20), F(1, 400)) in [w.shape for w in fw6]


def test_fundamental_walls_square_case():
    # the square case has no group, so no C_-1 bounds a fundamental domain
    with pytest.raises(SquareCase):
        solve_generator(1, 4)
    assert cross_section(1, 4) == (F(-2), None)


def test_codim0_walls_goldens():
    pc2 = solve_generator(1, 2)
    walls = {w.label: w.shape for w in codim0_walls(pc2, range(-1, 1))}
    assert walls[-1] == Circle(F(-3, 2), F(1, 4))
    assert walls[0] == VLine(F(0))
    pc6 = solve_generator(1, 6)
    walls = {w.label: w.shape for w in codim0_walls(pc6, range(-1, 0))}
    assert walls[-1] == Circle(F(-49, 20), F(1, 400))


def test_codim0_walls_match_the_slope_endpoint_circles():
    """Each C_m, built as the wall of its witness, is the circle through
    the two slope abscissae of the m-th iterate, and the witness is +-u_m
    with <w, v> = 1: over every non-square (n <= 6, l < 30) and
    0 < |m| <= 6."""
    checked = 0
    for n in range(1, 7):
        ctx = Context(n)
        for ell in range(1, 30):
            if is_perfect_square(n * ell):
                continue
            pc = solve_generator(n, ell)
            v = MukaiVector(1, 0, -ell)
            for w in codim0_walls(pc, range(-6, 7)):
                if w.label == 0:
                    continue
                it = iterate(pc, w.label)
                lam1, lam2 = slope_endpoints(pc, it)
                circle = Circle((lam1 + lam2) / 2, ((lam1 - lam2) / 2) ** 2)
                assert w.shape == circle, (n, ell, w)
                u, _ = u_vectors(pc, it)
                assert w.witness in (u, -u), (n, ell, w)
                assert pairing(w.witness, v, ctx) == 1, (n, ell, w)
                checked += 1
    assert checked == 1848


def test_classify_codim0_answer_is_the_wall_label():
    """classify reports is_codim0 of the wall a point lies on; that answer
    is the wall's own label, for the top point of every wall of
    wall_set(n, l, -3..3) over every non-square (n <= 6, l < 20)."""
    checked = 0
    for n in range(1, 7):
        ctx = Context(n)
        for ell in range(1, 20):
            if is_perfect_square(n * ell):
                continue
            v = MukaiVector(1, 0, -ell)
            walls, pc = wall_set(n, ell, range(-3, 4))
            for w in walls:
                if isinstance(w.shape, VLine):
                    pt = StabilityPoint(w.shape.s0, F(1))
                else:
                    pt = StabilityPoint(w.shape.center, w.shape.radius_sq)
                rep = classify_point(v, pt, walls, ctx)
                assert rep.kind == "OnWall" and rep.wall == w, (n, ell, w)
                assert is_codim0(rep.wall, pc) == w.label, (n, ell, w)
                checked += 1
    assert checked == 1629


def test_is_codim0_examples():
    pc3 = solve_generator(1, 3)
    w1 = Wall(Circle(F(-7, 4), F(1, 16)), MukaiVector(1, -2, 4))
    w2 = Wall(Circle(F(-2), F(1)), MukaiVector(1, -1, 1))
    assert is_codim0(w1, pc3) == -1
    assert is_codim0(w2, pc3) is None
    pc2 = solve_generator(1, 2)
    assert is_codim0(Wall(VLine(F(0)), UNIT), pc2) == 0


def test_wall_set_labels_are_the_codim0_labels():
    """The labels wall_set attaches are the ones is_codim0 derives: over
    every non-square (n <= 6, l < 30) each wall's label is its is_codim0
    label and codim0 marks exactly the labeled walls; in the square case
    (n <= 6, n*l <= 144) the one vertical wall is C_0, labeled 0."""
    for n in range(1, 7):
        for ell in range(1, 30):
            if is_perfect_square(n * ell):
                continue
            walls, pc = wall_set(n, ell, range(-3, 4))
            for w in walls:
                assert is_codim0(w, pc) == w.label, (n, ell, w)
                assert w.codim0 == (w.label is not None), (n, ell, w)
            assert sorted(w.label for w in walls if w.codim0) == list(range(-3, 4)), (n, ell)
    c0 = Wall(VLine(F(0)), UNIT, label=0)
    for n in range(1, 7):
        for ell in range(1, 144 // n + 1):
            if is_perfect_square(n * ell):
                walls, pc = wall_set(n, ell)
                assert pc is None
                assert [w for w in walls if isinstance(w.shape, VLine)] == [c0], (n, ell)


def test_isometry_transport_of_wall_conditions():
    # wall conditions are pure pairing conditions: preserved by any isometry
    from stabwalls.fmgroup import act_on_vector, delta_matrix

    rng = random.Random(31)
    a2 = solve_generator(1, 2).generator
    mats = [a2, delta_matrix() * a2, a2.power(2)]
    checked = 0
    for _ in range(300):
        v = MukaiVector(rng.randint(-3, 3), rng.randint(-3, 3), rng.randint(-3, 3))
        u = MukaiVector(rng.randint(-3, 3), rng.randint(-3, 3), rng.randint(-3, 3))
        if self_pairing(v, C1) <= 0:
            continue
        g = rng.choice(mats)
        defines = wall_of(v, u, C1) is not None
        vi, ui = act_on_vector(v, g, C1), act_on_vector(u, g, C1)
        if self_pairing(vi, C1) <= 0:
            continue
        defines_img = wall_of(vi, ui, C1) is not None
        # the locus may be empty (radius^2 <= 0) on one side only when the
        # pairing conditions hold; compare the pairing conditions directly
        cond = lambda a, b: (
            self_pairing(b, C1) >= 0
            and self_pairing(a - b, C1) >= 0
            and pairing(b, a - b, C1) > 0
        )
        assert cond(v, u) == cond(vi, ui)
        checked += 1
    assert checked > 100


# -- classification ----------------------------------------------------------


def _l2_walls():
    pc2 = solve_generator(1, 2)
    return list(wall_set(1, 2)[0]) + list(codim0_walls(pc2, range(-3, 4)))


def test_classify_examples():
    v = MukaiVector(1, 0, -2)
    walls = _l2_walls()
    rep = classify_point(v, StabilityPoint(F(-1, 10), 1), walls, C1)
    assert rep.kind == "Gieseker"
    rep = classify_point(v, StabilityPoint(F(-3, 2), F(1, 4)), walls, C1)
    assert rep.kind == "OnWall" and rep.wall.label == -1
    rep = classify_point(v, StabilityPoint(F(-3, 2), F(1, 100)), walls, C1)
    assert rep.kind == "Bounded"
    assert rep.outer.label == -1
    assert rep.inner is not None and rep.inner.label == -2


def test_classify_dual_side():
    v = MukaiVector(1, 0, -2)
    rep = classify_point(v, StabilityPoint(F(1, 10), 1), _l2_walls(), C1)
    assert rep.kind == "DualGieseker"


def test_classify_on_axis():
    v = MukaiVector(1, 0, -2)
    rep = classify_point(v, StabilityPoint(0, 5), _l2_walls(), C1)
    assert rep.kind == "OnWall" and isinstance(rep.wall.shape, VLine)


# -- W^max -------------------------------------------------------------------


def test_w_max_goldens():
    rep = w_max_report(wall_set(1, 2)[0])
    assert rep.wall.shape == Circle(F(-3, 2), F(1, 4))
    assert (rep.lambda1, rep.lambda2) == (QnNumber(-2, 0, 1), QnNumber(-1, 0, 1))
    rep = w_max_report(wall_set(1, 3)[0])
    assert rep.wall.shape == Circle(F(-2), F(1))
    assert (rep.lambda1, rep.lambda2) == (QnNumber(-3, 0, 1), QnNumber(-1, 0, 1))


def test_enumerate_rejects_non_integral():
    from stabwalls.errors import NonIntegral

    with pytest.raises(NonIntegral):
        enumerate_walls_on_line(MukaiVector(1, F(1, 2), -2), -1, C1)


def test_enumerate_rank_zero_target():
    # rank-0 target with positive square: concentric circles, exact match
    v = MukaiVector(0, 1, 0)  # center a/(2nd) = 0
    walls = enumerate_walls_on_line(v, F(-1, 2), C1)
    slow = brute_walls(v, F(-1, 2), 8, C1)
    assert set(w.shape for w in slow) <= set(w.shape for w in walls)
    for w in walls:
        assert isinstance(w.shape, Circle)


def test_w_max_errors():
    from stabwalls.errors import NoWalls

    with pytest.raises(NoWalls):
        w_max_report([Wall(VLine(F(0)), UNIT)])
