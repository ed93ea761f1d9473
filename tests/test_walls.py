import functools
import random
from fractions import Fraction as F

import pytest

from paper_checks import RationalVector, delta_matrix, g_mul, g_power, vec_neg, vec_sub, wall_of
from reference_kernel import proportional, reference_wall_between
from reference_output import circle, fraction_builds, plain_key, s0_of, t_sq_at, vline
from stabwalls import walls as walls_mod
from stabwalls.charge import StabilityPoint
from stabwalls.errors import BadCrossSection, DegenerateV, SquareCase
from stabwalls.lattice import Context, MukaiVector, pairing, self_pairing
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
    exact_bits,
    integral_triple,
    is_codim0,
    sort_walls,
    w_max_report,
    wall_set,
)
from stabwalls.oracle import brute_walls

C1 = Context(1)


# -- wall_between -----------------------------------------------------------


def test_wall_between_examples():
    w = wall_of(MukaiVector(1, 0, -3), MukaiVector(1, -1, 1), C1)
    assert w.shape == circle(F(-2), F(1))
    w = wall_of(MukaiVector(1, 0, -2), MukaiVector(1, -1, 1), C1)
    assert w.shape == circle(F(-3, 2), F(1, 4))
    w = wall_of(MukaiVector(1, 0, -4), MukaiVector(1, 0, -1), C1)
    assert w.shape == vline(0)
    assert wall_of(MukaiVector(1, 0, -2), MukaiVector(1, 0, 1), C1) is None


def test_wall_between_degenerate():
    with pytest.raises(DegenerateV):
        wall_of(MukaiVector(1, 0, 1), MukaiVector(1, -1, 1), C1)


def test_wall_between_rank_zero_v():
    # v = (0,2,1), n=1: concentric circles around a/(2nd) = 1/4
    v = MukaiVector(0, 2, 1)
    w = wall_of(v, MukaiVector(-2, 0, 0), C1)
    assert w.shape == circle(F(1, 4), F(1, 16))
    assert wall_of(v, MukaiVector(0, 1, 1), C1) is None  # rank-0 pair


def test_empty_circle_returns_none():
    # numeric conditions hold but the locus is empty (radius^2 <= 0)
    v, v1 = MukaiVector(-3, -3, -2), MukaiVector(0, -1, -1)
    rest = vec_sub(v, v1)
    assert self_pairing(v1, C1) >= 0
    assert self_pairing(rest, C1) >= 0
    assert pairing(v1, rest, C1) > 0
    assert wall_of(v, v1, C1) is None


def test_proportional_witness_returns_none():
    v, v1 = MukaiVector(2, 2, 0), MukaiVector(1, 1, 0)
    assert pairing(v1, vec_sub(v, v1), C1) > 0  # conditions hold, but v1 in Q*v
    assert wall_of(v, v1, C1) is None



def _wall_between_outcome(v, v1, ctx):
    """What wall_between does with (v, v1), and which rule decides it, read
    off the reference: Fraction pairings and minors, in the reference order."""
    try:
        w = reference_wall_between(v, v1, ctx)
    except DegenerateV as exc:
        return ("raise", type(exc), str(exc)), "<v^2> <= 0"
    rest = vec_sub(v, v1)
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
        v = RationalVector(rng.randint(-3, 3), entry(), entry())
        v1 = RationalVector(rng.randint(-3, 3), entry(), entry())
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
    return F(v.d, v.r), F(self_pairing(v, ctx), 2 * ctx.n * v.r**2)


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
                    assert t_sq_at(s1, s_meet) < 0


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
                    if root.rad == 1:
                        pts = [p - root.coef, p + root.coef]
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
    assert [w.shape for w in walls] == [circle(F(-2), F(1))]
    # the textbook witness (1,-1,1) defines the same wall
    alt = wall_of(MukaiVector(1, 0, -3), MukaiVector(1, -1, 1), C1)
    assert alt.shape == walls[0].shape


def test_enumerate_golden_l2_empty():
    assert enumerate_walls_on_line(MukaiVector(1, 0, -2), -1, C1) == []


def test_enumerate_golden_l4_square_abscissa():
    walls = enumerate_walls_on_line(MukaiVector(1, 0, -4), -2, C1)
    assert [w.shape for w in walls] == [circle(F(-5, 2), F(9, 4))]


def test_enumerate_bad_cross_section():
    with pytest.raises(BadCrossSection):
        enumerate_walls_on_line(MukaiVector(1, 0, -2), 0, C1)


def test_enumerate_positive_side_mirror():
    left = enumerate_walls_on_line(MukaiVector(1, 0, -3), -2, C1)
    right = enumerate_walls_on_line(MukaiVector(1, 0, -3), 2, C1)
    assert [w.shape for w in right] == [circle(F(2), F(1))]
    assert len(left) == len(right)


def test_enumerate_half_grid_and_one_shape_build_per_wall(monkeypatch):
    """The kernel's two savings as machine-independent counts, at the
    cross-section of (1,13) and for a class with D(v) < 0: every candidate
    it passes to wall_between has its grid index j = q*D(v1) in the half of
    the range nearer 0, up to and including the middle j of an even q*D(v)
    (v - v1 stands for the other half; both classes have a crossing wall
    there, so the t^2 sign test lets the middle j through), and it builds
    no Fraction per candidate or per wall it returns, only the few of
    `integral_triple`'s <v^2>: its Walls hold the integers of the kernel."""
    signs = set()
    for triple, s0 in (((1, 0, -13), cross_section(1, 13)[0]), ((2, -3, -8), F(3, 2))):
        r, d, a = triple
        p, q = s0.numerator, s0.denominator
        grid = []
        wall_between = walls_mod.wall_between

        def counted_wall_between(n, r, d, a, r1, d1, a1):
            grid.append(d1 * q - r1 * p)
            return wall_between(n, r, d, a, r1, d1, a1)

        monkeypatch.setattr(walls_mod, "wall_between", counted_wall_between)
        v = MukaiVector(*triple)
        got, built = fraction_builds(enumerate_walls_on_line, v, s0, C1)
        _, base = fraction_builds(integral_triple, v, C1)
        monkeypatch.undo()
        Dq = d * q - r * p  # q*D(v): 18 and -12
        signs.add(Dq > 0)
        half = range(1, Dq // 2 + 1) if Dq > 0 else range(Dq // 2, 0)
        assert grid and set(grid) <= set(half), triple
        assert Dq // 2 in grid, triple  # the self-complementary middle j
        assert len(got) > 0 and built == base, triple
        assert all(type(x) is int for w in got for x in w.shape + w.witness), triple
    assert signs == {True, False}


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
    assert [w.shape for w in fw2] == [vline(0), circle(F(-3, 2), F(1, 4))]
    assert all(w.codim0 for w in fw2)

    fw3 = wall_set(1, 3)[0]
    shapes = [w.shape for w in fw3]
    assert circle(F(-2), F(1)) in shapes
    assert circle(F(-7, 4), F(1, 16)) in shapes
    assert vline(0) in shapes
    between = [w for w in fw3 if not w.codim0]
    assert [w.shape for w in between] == [circle(F(-2), F(1))]

    fw5 = wall_set(1, 5)[0]
    assert circle(F(-9, 4), F(1, 16)) in [w.shape for w in fw5]

    fw6 = wall_set(1, 6)[0]
    assert circle(F(-49, 20), F(1, 400)) in [w.shape for w in fw6]


def test_fundamental_walls_square_case():
    # the square case has no group, so no C_-1 bounds a fundamental domain
    with pytest.raises(SquareCase):
        solve_generator(1, 4)
    assert cross_section(1, 4) == (F(-2), None)


def test_wall_set_walks_its_labels_once(monkeypatch):
    """wall_set builds C_-1, C_0 and the C_m of m_range in one orbit walk
    when the labels are consecutive, in two when other labels lie between
    them, and labels exactly {-1, 0} and m_range."""
    starts = []
    orbit = walls_mod.orbit

    def counted(pell, m):
        starts.append(m)
        return orbit(pell, m)

    monkeypatch.setattr(walls_mod, "orbit", counted)
    for m_range, walks in [
        (range(0), [-1]),
        (range(-2, 3), [-2]),
        (range(1, 3), [-1]),
        (range(-5, -1), [-5]),
        (range(2, 4), [-1, 2]),
        (range(-5, -2), [-1, -5]),
    ]:
        starts.clear()
        found, _, _ = wall_set(2, 3, m_range)
        assert starts == walks, m_range
        assert sorted(w.label for w in found if w.codim0) == sorted({-1, 0} | set(m_range))


def test_codim0_walls_goldens():
    pc2 = solve_generator(1, 2)
    walls = {w.label: w.shape for w in codim0_walls(pc2, range(-1, 1))}
    assert walls[-1] == circle(F(-3, 2), F(1, 4))
    assert walls[0] == vline(0)
    pc6 = solve_generator(1, 6)
    walls = {w.label: w.shape for w in codim0_walls(pc6, range(-1, 0))}
    assert walls[-1] == circle(F(-49, 20), F(1, 400))


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
                expected = circle((lam1 + lam2) / 2, ((lam1 - lam2) / 2) ** 2)
                assert w.shape == expected, (n, ell, w)
                u, _ = u_vectors(pc, it)
                witness = MukaiVector(*w.witness)
                assert witness in (u, vec_neg(u)), (n, ell, w)
                assert pairing(witness, v, ctx) == 1, (n, ell, w)
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
            walls, _, pc = wall_set(n, ell, range(-3, 4))
            for w in walls:
                if isinstance(w.shape, VLine):
                    pt = StabilityPoint(s0_of(w.shape), F(1))
                else:
                    pt = StabilityPoint(w.shape.center, w.shape.radius_sq)
                rep = classify_point(v, pt, walls, ctx)
                assert rep.kind == "OnWall" and rep.wall == w, (n, ell, w)
                assert is_codim0(rep.wall, pc) == w.label, (n, ell, w)
                checked += 1
    assert checked == 1629


def test_is_codim0_examples():
    pc3 = solve_generator(1, 3)
    w1 = Wall(circle(F(-7, 4), F(1, 16)), (1, -2, 4))
    w2 = Wall(circle(F(-2), F(1)), (1, -1, 1))
    assert is_codim0(w1, pc3) == -1
    assert is_codim0(w2, pc3) is None
    pc2 = solve_generator(1, 2)
    assert is_codim0(Wall(vline(0), (1, 0, 0)), pc2) == 0
    # off the pencil radius^2 = center^2 - l/n: no C_m, and the walk never starts
    assert is_codim0(Wall(circle(F(-1, 10), F(1, 100)), (1, 0, 0)), pc2) is None
    # on the pencil, centred midway between C_-5 and C_-6: the walk stops there
    c6, c5 = (w.shape.center for w in codim0_walls(pc2, range(-6, -4)))
    mid = (c5 + c6) / 2
    assert is_codim0(Wall(circle(mid, mid * mid - 2), (1, 0, 0)), pc2) is None


def test_wall_set_labels_are_the_codim0_labels():
    """The labels wall_set attaches are the ones is_codim0 derives: over
    every non-square (n <= 6, l < 30) each wall's label is its is_codim0
    label and codim0 marks exactly the labeled walls; in the square case
    (n <= 6, n*l <= 144) the one vertical wall is C_0, labeled 0."""
    for n in range(1, 7):
        for ell in range(1, 30):
            if is_perfect_square(n * ell):
                continue
            walls, _, pc = wall_set(n, ell, range(-3, 4))
            for w in walls:
                assert is_codim0(w, pc) == w.label, (n, ell, w)
                assert w.codim0 == (w.label is not None), (n, ell, w)
            assert sorted(w.label for w in walls if w.codim0) == list(range(-3, 4)), (n, ell)
    c0 = Wall(vline(0), (1, 0, 0), label=0)
    for n in range(1, 7):
        for ell in range(1, 144 // n + 1):
            if is_perfect_square(n * ell):
                walls, _, pc = wall_set(n, ell)
                assert pc is None
                assert [w for w in walls if isinstance(w.shape, VLine)] == [c0], (n, ell)


def test_wall_set_shapes_are_distinct(monkeypatch):
    """wall_set lists no shape twice, with no dedup pass: the enumerated
    walls are keyed by shape, the label walks cover disjoint labels, and
    only circles, all in s < 0, are mirrored.  The square route is sorted
    without a sort pass over the mirrors.  Over every non-square
    (n <= 6, l < 40) with m_range empty, overlapping, adjacent to or apart
    from -1..0, and the square (n <= 6, n*l <= 144)."""
    mirrored = []
    mirror = walls_mod._mirror_wall

    def record(w):
        mirrored.append(w)
        return mirror(w)

    monkeypatch.setattr(walls_mod, "_mirror_wall", record)
    # one enumeration per (n, l), shared by its m_ranges; wall_set extends
    # the list it gets, so each call gets a copy
    enumerate_once = functools.lru_cache(enumerate_walls_on_line)
    monkeypatch.setattr(walls_mod, "enumerate_walls_on_line", lambda *args: list(enumerate_once(*args)))
    m_ranges = [range(0), range(-2, 3), range(2, 5), range(-6, -3), range(-3, -1), range(1, 3),
                range(-40, 41)]
    checked = 0
    for n in range(1, 7):
        for ell in range(1, 40):
            if is_perfect_square(n * ell):
                continue
            for m_range in m_ranges:
                walls, _, _ = wall_set(n, ell, m_range)
                shapes = [w.shape for w in walls]
                assert len(set(shapes)) == len(shapes), (n, ell, m_range)
                checked += 1
        for ell in range(1, 144 // n + 1):
            if is_perfect_square(n * ell):
                walls, _, _ = wall_set(n, ell)
                shapes = [w.shape for w in walls]
                assert len(set(shapes)) == len(shapes), (n, ell)
                assert walls == sort_walls(walls), (n, ell)  # sorted with no sort pass
                checked += 1
    assert mirrored and all(isinstance(w.shape, Circle) and w.shape.center < 0 for w in mirrored)
    assert checked == 1509


def test_isometry_transport_of_wall_conditions():
    # wall conditions are pure pairing conditions: preserved by any isometry
    from stabwalls.fmgroup import act_on_vector

    rng = random.Random(31)
    a2 = solve_generator(1, 2).generator
    mats = [a2, g_mul(delta_matrix(), a2), g_power(a2, 2)]
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
            and self_pairing(vec_sub(a, b), C1) >= 0
            and pairing(b, vec_sub(a, b), C1) > 0
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
    assert rep.wall.shape == circle(F(-3, 2), F(1, 4))
    assert (rep.lambda1, rep.lambda2) == (QnNumber(-2, 0, 1), QnNumber(-1, 0, 1))
    rep = w_max_report(wall_set(1, 3)[0])
    assert rep.wall.shape == circle(F(-2), F(1))
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
        w_max_report([Wall(vline(0), (1, 0, 0))])


def _exact_key(x: F, k: int) -> int:
    return (x.numerator << k) // x.denominator


def test_sort_walls_is_the_exact_fraction_order():
    """sort_walls orders as a plain (kind, Fraction, Fraction) sort, also
    where floor(x * 2^64) ties: centers and abscissae within 2^-64 of each
    other, Farey neighbours with 40-bit denominators, the radius^2 ordered
    against the center, and concentric rank-0 walls, whose equal centers
    leave the radius^2 to decide.  The key floor(x * 2^K), K = exact_bits
    of the largest denominator, separates every pair of distinct values."""
    tiny = F(1, 2**70)
    close = [F(1, 3) + k * tiny for k in (-2, -1, 0, 1, 2)] + [F(-5, 7) + k * tiny for k in (0, 1)]
    # Farey neighbours a/b < c/d (b*c - a*d = 1) near 1/3, with b and d near 2^40:
    # they differ by 1/(b*d), about the square of the largest denominator
    a, b = 2**38 + 3, 3 * 2**38 + 22
    d = -pow(a, -1, b) % b
    c = (1 + a * d) // b
    assert b * c - a * d == 1 and d > 2**39
    close += [F(a, b), F(c, d), F(a + c, b + d)]
    assert len({_exact_key(c, 64) for c in close[:5]}) == 1
    k = exact_bits(max(c.denominator for c in close))
    assert len({_exact_key(c, k) for c in close}) == len(close)
    walls = [Wall(vline(c), (1, 0, 0)) for c in close]
    # the radius^2 falls as the center rises: no key without the exact
    # center can order these
    walls += [Wall(circle(c, F(9) - j * tiny), (1, 0, 0)) for j, c in enumerate(close)]
    rank0 = enumerate_walls_on_line(MukaiVector(0, 4, 3), F(1, 3), C1)
    assert len({w.shape.center for w in rank0}) == 1 < len(rank0)
    walls += rank0 + wall_set(1, 100, range(-3, 4))[0] + wall_set(2, 50)[0]
    expected = sorted(walls, key=plain_key)
    rng = random.Random(18)
    for _ in range(5):
        rng.shuffle(walls)
        assert sort_walls(walls) == expected
        rng.shuffle(close)
        assert sorted(close, key=lambda c: _exact_key(c, k)) == sorted(close)


def test_exact_bits_is_the_least_bound():
    """exact_bits(D) is the least K with 2^K > 2*D^2, so one bit less
    breaks the bound that the separation argument of sort_walls uses."""
    rng = random.Random(22)
    dens = list(range(1, 300)) + [2**j + e for j in range(9, 200, 7) for e in (-1, 0, 1)]
    dens += [rng.randrange(1, 2**rng.randint(10, 300)) for _ in range(200)]
    for den in dens:
        k = exact_bits(den)
        assert 2 ** (k - 1) <= 2 * den * den < 2**k, den
