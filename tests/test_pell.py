import functools
import math
import random
from fractions import Fraction as F
from itertools import islice

import pytest

import reference_pell
from paper_checks import (
    g_mul,
    g_power,
    in_interval,
    reference_iterate,
    sheaf_verdict,
    surd_as_fraction,
    surd_float,
    surd_mul,
    surd_square,
    vec_neg,
    vec_scale,
    vec_sub,
)
from stabwalls.errors import AccumulationPoint, SquareCase
from stabwalls.lattice import Context, MukaiVector, RHO, UNIT, pairing, self_pairing
from stabwalls.pell import (
    GMatrix,
    interval_index,
    isotropic_pairs,
    iterate,
    numerical_solutions,
    orbit,
    presentation_report,
    slope_endpoints,
    solve_generator,
    u_vectors,
)
from stabwalls.surd import Surd, is_perfect_square


# -- generators ---------------------------------------------------------------


@pytest.mark.parametrize(
    "n,ell,x,y,eps",
    [
        (1, 2, Surd(1), Surd(1), -1),
        (1, 3, Surd(1), Surd(2), 1),
        (1, 5, Surd(1), Surd(2), -1),
        (1, 6, Surd(2), Surd(5), 1),
        (2, 1, Surd(1), Surd(1, 2), 1),
        (2, 3, Surd(1), Surd(1, 2), -1),
    ],
)
def test_generators(n, ell, x, y, eps):
    pc = solve_generator(n, ell)
    assert pc.generator.c == x and pc.generator.d == y
    assert pc.epsilon == eps


def test_generator_2_1_against_small_brute_force():
    # independent oracle: minimal y + x over all shapes with a, b <= 10
    best = None
    for r, s in [(1, 2), (2, 1)]:
        for a in range(1, 11):
            for b in range(0, 11):
                x, y = Surd(a, r), Surd(b, s)
                if surd_square(y) - surd_square(x) in (1, -1):
                    phi = surd_float(y) + surd_float(x)
                    if phi > 1 and (best is None or phi < best[0]):
                        best = (phi, x, y)
    pc = solve_generator(2, 1)
    assert (pc.generator.c, pc.generator.d) == (best[1], best[2])


def test_generator_square_case():
    with pytest.raises(SquareCase):
        solve_generator(1, 4)
    with pytest.raises(SquareCase):
        solve_generator(1, 1)
    with pytest.raises(SquareCase):
        solve_generator(2, 2)


def test_torsion_reported_for_ell_1():
    pc = solve_generator(2, 1)
    assert pc.torsion is not None
    assert pc.torsion == GMatrix(Surd(0), Surd(1), Surd(1), Surd(0))
    assert solve_generator(1, 2).torsion is None


def test_generator_matches_reference():
    # the earlier brute-force/continued-fraction/float-sweep solver, kept
    # test-only; the grid holds the l = 1 ties (2,1), (3,1), (5,1), (6,1)
    cases = [(n, ell) for n in range(1, 7) for ell in range(1, 60) if not is_perfect_square(n * ell)]
    assert len(cases) == 325 and {(2, 1), (3, 1), (5, 1), (6, 1)} <= set(cases)
    for n, ell in cases:
        pc, ref = solve_generator(n, ell), reference_pell.solve_generator(n, ell)
        assert (pc.generator.c, pc.generator.d) == (ref.generator.x, ref.generator.y), (n, ell)
        ref_b = surd_mul(ref.generator.x, ell)
        assert (pc.generator.a, pc.generator.b) == (ref.generator.y, ref_b), (n, ell)
        torsion = None if pc.torsion is None else (pc.torsion.c, pc.torsion.d)
        ref_torsion = None if ref.torsion is None else (ref.torsion.x, ref.torsion.y)
        assert (pc.epsilon, torsion) == (ref.epsilon, ref_torsion), (n, ell)
        for m in range(-6, 7):
            it, ref_it = iterate(pc, m), reference_pell.iterate(ref, m)
            assert (it.m, it.a, it.b) == (ref_it.m, ref_it.a, ref_it.b), (n, ell, m)


def test_generator_matches_divisor_loop():
    """One gcd per unit and sign finds the generator that the divisor loop
    over r*s = n found, entry for entry, with its norm and torsion.  The
    grid holds the l = 1 ties, where the smaller r wins, such as (3, 1),
    and a non-squarefree s = 4 at (4, 3)."""
    cases = [(n, ell) for n in range(1, 61) for ell in range(1, 120) if not is_perfect_square(n * ell)]
    assert len(cases) == 6920
    for n, ell in cases:
        pc, ref = solve_generator(n, ell), reference_pell.divisor_generator(n, ell)
        assert pc.generator == ref.generator, (n, ell)
        assert (pc.epsilon, pc.torsion) == (ref.epsilon, ref.torsion), (n, ell)


def test_generator_matches_sympy_diop_dn():
    # independent oracle for n = 1: the least solution of y^2 - l*x^2 = -1
    # when there is one, else of y^2 - l*x^2 = +1
    diophantine = pytest.importorskip("sympy.solvers.diophantine.diophantine")
    seen = {}
    for ell in range(2, 400):
        if is_perfect_square(ell):
            continue
        pc = solve_generator(1, ell)
        minus = diophantine.diop_DN(ell, -1)
        expected = minus[0] if minus else diophantine.diop_DN(ell, 1)[0]
        seen[ell] = (surd_as_fraction(pc.generator.d), surd_as_fraction(pc.generator.c))
        assert seen[ell] == expected, ell
        assert pc.epsilon == (-1 if minus else 1), ell
    assert seen[109] == (8890182, 851525)


# -- iterates -----------------------------------------------------------------


def test_iterate_examples():
    pc3 = solve_generator(1, 3)
    it = iterate(pc3, 2)
    assert (it.a, it.b) == (Surd(4), Surd(7))
    it = iterate(pc3, 0)
    assert (it.a, it.b) == (Surd(0), Surd(1))
    it = iterate(pc3, -1)
    assert (it.a, it.b) == (Surd(-1), Surd(2))


def _pell_matrix(it, ell):
    """(b_m, l*a_m; a_m, b_m)."""
    return GMatrix(it.b, surd_mul(it.a, ell), it.a, it.b)


def test_iterate_group_law_and_det():
    for n, ell in [(1, 2), (1, 3), (2, 1), (2, 3)]:
        pc = solve_generator(n, ell)
        for m1 in range(-4, 5):
            for m2 in range(-3, 4):
                i1, i2 = iterate(pc, m1), iterate(pc, m2)
                prod = g_mul(_pell_matrix(i1, ell), _pell_matrix(i2, ell))
                tot = iterate(pc, m1 + m2)
                assert prod == _pell_matrix(tot, ell)
                assert prod.det() == pc.epsilon ** (m1 + m2)


def test_orbit_walks_the_powers():
    """The walk from lo gives the iterates that one power per label gives,
    across m = 0, for both signs of epsilon, the torsion case l = 1 and a
    non-squarefree n; the iterate walked to m = 0 gives (rho, 1)."""
    eps_seen = set()
    for n, ell in [(1, 2), (1, 3), (2, 1), (3, 1), (2, 3), (4, 3), (6, 5)]:
        pc = solve_generator(n, ell)
        eps_seen.add(pc.epsilon)
        for lo in (-9, -1, 0, 2):
            walked = list(islice(orbit(pc, lo), 12))
            assert walked == [iterate(pc, m) for m in range(lo, lo + 12)], (n, ell, lo)
        at_zero = next(it for it in orbit(pc, -5) if it.m == 0)
        assert u_vectors(pc, at_zero) == (RHO, UNIT), (n, ell)
    assert eps_seen == {1, -1}


def test_integer_orbit_matches_the_surd_products():
    """For every non-square (n <= 12, l < 40) and m in -12..12, walked from
    m = -12: the integer iterate is the bottom row of generator.power(m) as
    surds; u_vectors is the surd-product formula (a_m^2,
    a_m*b_m*sqrt(n)/n, b_m^2) with u_m' = (b_m^2, l*d, l^2*a_m^2); and the
    radicand pair repeats with the parity of m, the odd one being the
    generator's (x, y) radicands and the even one (r*s, 1)."""
    cases = [
        (n, ell) for n in range(1, 13) for ell in range(1, 40) if not is_perfect_square(n * ell)
    ]
    assert len(cases) == 428 and {(2, 1), (3, 1), (6, 1)} <= set(cases)
    eps_seen, ns_seen = set(), set()
    for n, ell in cases:
        pc = solve_generator(n, ell)
        eps_seen.add(pc.epsilon)
        ns_seen.add(n)
        walked = list(islice(orbit(pc, -12), 25))
        assert [it.m for it in walked] == list(range(-12, 13))
        for it in walked:
            power = g_power(pc.generator, it.m)
            a, b = power.c, power.d
            assert (it.a, it.b) == (a, b), (n, ell, it.m)
            scaled = surd_mul(surd_mul(a, b), Surd(1, n))
            assert scaled.rad == 1, (n, ell, it.m)
            u = MukaiVector(surd_square(a), surd_as_fraction(scaled) / n, surd_square(b))
            u_prime = MukaiVector(u.a, ell * u.d, ell * ell * u.r)
            assert u_vectors(pc, it) == (u, u_prime), (n, ell, it.m)
        r, s = pc.generator.c.rad, pc.generator.d.rad
        for it in walked:
            assert (it.rho, it.sigma) == ((r, s) if it.m % 2 else (r * s, 1)), (n, ell, it.m)
    assert eps_seen == {1, -1} and {4, 8, 9, 12} <= ns_seen


def test_far_iterates_are_integer_surd_products():
    """At labels +-10^4 the iterate is the bottom row of generator^m by surd
    products, with int coefficients: both signs of epsilon, the torsion
    case l = 1 and the non-squarefree n = 4 and 12."""
    eps_seen = set()
    for n, ell in [(1, 2), (1, 3), (2, 1), (2, 3), (4, 3), (12, 5)]:
        pc = solve_generator(n, ell)
        eps_seen.add(pc.epsilon)
        for m in (10**4, -(10**4), 10**4 + 1, -(10**4) - 1):
            it = iterate(pc, m)
            assert type(it.alpha) is int and type(it.beta) is int, (n, ell, m)
            assert (it.a, it.b) == reference_iterate(pc, m), (n, ell, m)
    assert eps_seen == {1, -1}


# -- isotropic pairs ----------------------------------------------------------


def test_u_vector_examples():
    pc2, pc5, pc6 = solve_generator(1, 2), solve_generator(1, 5), solve_generator(1, 6)
    assert u_vectors(pc2, iterate(pc2, -1))[0] == MukaiVector(1, -1, 1)
    assert u_vectors(pc5, iterate(pc5, -1))[0] == MukaiVector(1, -2, 4)
    # (4,-10,25) is the value consistent with the l=6 circle
    # (s+49/20)^2 + t^2 = 1/400; its first component is 4 = a^2, not 25
    assert u_vectors(pc6, iterate(pc6, -1))[0] == MukaiVector(4, -10, 25)
    assert u_vectors(pc2, iterate(pc2, 0)) == (RHO, UNIT)


def test_u_vector_invariants():
    for n, ell in [(1, 2), (1, 3), (1, 5), (1, 6), (2, 1), (2, 3)]:
        ctx = Context(n)
        pc = solve_generator(n, ell)
        v = MukaiVector(1, 0, -ell)
        for m in range(-8, 9):
            u, u_prime = u_vectors(pc, iterate(pc, m))
            assert self_pairing(u, ctx) == 0
            assert self_pairing(u_prime, ctx) == 0
            assert pairing(u, u_prime, ctx) == -1
            combo = vec_sub(vec_scale(ell, u), u_prime)
            assert combo == v or combo == vec_neg(v)


def test_slope_endpoints_are_rational_and_match_circles():
    pc = solve_generator(1, 2)
    lam1, lam2 = slope_endpoints(pc, iterate(pc, -1))
    assert sorted([lam1, lam2]) == [F(-2), F(-1)]
    pc6 = solve_generator(1, 6)
    lam1, lam2 = slope_endpoints(pc6, iterate(pc6, -1))
    assert sorted([lam1, lam2]) == [F(-5, 2), F(-12, 5)]


def test_accumulation_monotonicity():
    # |b_m/(a_m sqrt(n)) * sqrt(n) - sqrt(l)| strictly decreasing in m
    for n, ell in [(1, 2), (1, 3), (2, 1)]:
        pc = solve_generator(n, ell)
        prev = None
        for m in range(1, 11):
            it = iterate(pc, m)
            # slope in the lambda coordinate: b_m/a_m, a surd; compare
            # (b_m/a_m)^2 vs l exactly through  (b^2 - l a^2) / a^2 = eps^m/a^2
            gap_num = abs(pc.epsilon**m)  # |b^2 s - l a^2 r| = 1
            gap_den = surd_square(it.a)
            # |slope - sqrt(l)| = 1/(a_m^2 |slope + sqrt(l)|): strictly
            # decreasing iff a_m^2*(slope+sqrt(l)) increases; assert the
            # squared distance falls
            slope_sq = surd_square(it.b) / surd_square(it.a)
            dist = abs(slope_sq - ell)  # = 1/a_m^2
            if prev is not None:
                assert dist < prev
            prev = dist


# -- numerical solutions ------------------------------------------------------


def test_numerical_solution_examples():
    pc2 = solve_generator(1, 2)
    sols = {s.v1: s for s in numerical_solutions(pc2, isotropic_pairs(pc2, range(-1, 2)))}
    u_m1 = MukaiVector(1, -1, 1)
    assert u_m1 in sols
    s = sols[u_m1]
    assert (s.l1, s.l2) == (2, 1)
    assert vec_sub(vec_scale(2, s.v1), s.v2) in (MukaiVector(1, 0, -2), MukaiVector(-1, 0, 2))
    pc5 = solve_generator(1, 5)
    s5 = {s.v1: s for s in numerical_solutions(pc5, isotropic_pairs(pc5, range(-1, 0)))}
    s5 = s5[MukaiVector(1, -2, 4)]
    assert s5.v2 == MukaiVector(4, -10, 25)
    assert vec_sub(vec_scale(5, s5.v1), s5.v2) == MukaiVector(1, 0, -5)
    m0 = [s for s in numerical_solutions(pc2, isotropic_pairs(pc2, range(0, 1)))][0]
    assert (m0.v1, m0.v2, m0.l1, m0.l2) == (UNIT, RHO, 1, 2)


def test_presentation_report():
    assert presentation_report(1, 4) == {"count": 1, "both_presentations": False}
    rep = presentation_report(1, 2)
    assert rep["both_presentations"] and rep.get("infinite")
    # l*n a perfect square <=> sqrt(l/n) rational: unique solution
    assert presentation_report(1, 1)["count"] == 1
    assert presentation_report(2, 2)["count"] == 1
    assert presentation_report(2, 1).get("infinite")


# -- intervals ----------------------------------------------------------------


def test_interval_index_examples():
    pc2 = solve_generator(1, 2)
    # 0 is the closed left end of I_1 (and the open right end of I_0*)
    assert interval_index(pc2, F(0)) == {"m": 1, "starred": False}
    assert interval_index(pc2, F(1, 2)) == {"m": 1, "starred": True}
    assert interval_index(pc2, F(-3, 2)) == {"m": -2, "starred": False}
    assert interval_index(pc2, F(-1)) == {"m": 0, "starred": False}
    # 1600 digits from sqrt(2): the walk passes two thousand iterates
    far = F(math.isqrt(2 * 10**3200) + 17, 10**1600)
    assert interval_index(pc2, far) == {"m": 2089, "starred": True}


def test_interval_partition_property():
    rng = random.Random(314)
    for n, ell in [(1, 2), (1, 3)]:  # eps = -1 and eps = +1
        pc = solve_generator(n, ell)
        for _ in range(500):
            lam = F(rng.randint(-400, 400), rng.randint(1, 40))
            idx = interval_index(pc, lam)
            # membership in exactly one interval: recheck neighbours
            hits = []
            for m in range(idx["m"] - 3, idx["m"] + 4):
                if in_interval(pc, lam, m, starred=False):
                    hits.append(m)
            assert hits == [idx["m"]]


def test_interval_star_vs_plain_disagree_only_on_endpoints():
    pc2 = solve_generator(1, 2)
    # -3/2 is a left endpoint: in I_-2 but not I_-2*
    assert in_interval(pc2, F(-3, 2), -2, starred=False)
    assert not in_interval(pc2, F(-3, 2), -2, starred=True)
    # and it lands in I_-1* instead (right-closed)
    assert in_interval(pc2, F(-3, 2), -1, starred=True)


def test_sheaf_verdict_examples():
    pc2 = solve_generator(1, 2)
    v = sheaf_verdict(pc2, F(-3, 2), -2)
    assert v["verdict"] == "StableSheaf"  # endpoint: not in the starred twin
    v = sheaf_verdict(pc2, F(-1), -2)
    assert v["verdict"] == "Neither"
    # -2 is the open right end of I_0's first piece: starred-only there
    v = sheaf_verdict(pc2, F(-2), 0)
    assert v["verdict"] == "DualStableSheaf"
    # and the closed left end of I_-1: plain-only there
    v = sheaf_verdict(pc2, F(-2), -1)
    assert v["verdict"] == "StableSheaf"
    # interior points land in both
    v = sheaf_verdict(pc2, F(-22, 15), -2)
    assert v["verdict"] == "Both"


def test_interval_index_eps_plus_table():
    pc3 = solve_generator(1, 3)  # eps = +1
    # I_0 = [-inf, -b1/a1) u [-l a1/b1, 0) = [-inf, -2) u [-3/2, 0)
    assert interval_index(pc3, F(-1))["m"] == 0
    assert interval_index(pc3, F(-5, 2))["m"] == 0
    # between -2 and -3/2 sits the negative fan around -sqrt(3)
    assert interval_index(pc3, F(-2))["m"] == -1
    assert interval_index(pc3, F(0))["m"] == 1


def _rational_endpoints(ref, k):
    """The rational ones among +-P_k and +-Q_k, from the reference's own
    surd endpoints b_k/a_k and l*a_k/b_k."""
    out = []
    for end in (reference_pell._b_over_a(ref, k), reference_pell._la_over_b(ref, k)):
        if end.value.rad == 1:
            out += [end.value.coef, -end.value.coef]
    return out


def test_intervals_match_reference(monkeypatch):
    # the reference recomputes its |m|-fold iterates at every probe; caching
    # them changes no answer and keeps the test short
    monkeypatch.setattr(reference_pell, "iterate", functools.lru_cache(reference_pell.iterate))
    rng = random.Random(2012)
    eps_seen = set()
    for n in range(1, 7):
        for ell in range(1, 30):
            if is_perfect_square(n * ell):
                continue
            pc, ref = solve_generator(n, ell), reference_pell.solve_generator(n, ell)
            eps_seen.add(pc.epsilon)
            slopes = [F(0)] + [F(rng.randint(-300, 300), rng.randint(1, 40)) for _ in range(4)]
            for _ in range(2):  # near +-sqrt(l), where |m| grows
                q = rng.randint(1, 500)
                slopes.append(rng.choice((1, -1)) * F(math.isqrt(ell * q * q) + rng.randint(0, 1), q))
            for k in range(1, 6):
                slopes += _rational_endpoints(ref, k)
            for lam in slopes:
                if lam * lam == ell:
                    for locate, ctx in ((interval_index, pc), (reference_pell.interval_index, ref)):
                        with pytest.raises(AccumulationPoint):
                            locate(ctx, lam)
                    continue
                idx = interval_index(pc, lam)
                assert idx == reference_pell.interval_index(ref, lam), (n, ell, lam)
                for m in range(idx["m"] - 3, idx["m"] + 4):
                    for starred in (False, True):
                        want = reference_pell.in_interval(ref, Surd(lam), m, starred)
                        assert in_interval(pc, lam, m, starred) == want, (n, ell, lam, m)
    assert eps_seen == {1, -1}


def test_accumulation_point_error():
    # sqrt(l) rational while sqrt(l*n) is not: lambda = +-sqrt(l) is refused
    pc = solve_generator(2, 4)
    with pytest.raises(Exception) as exc:
        interval_index(pc, F(2))
    assert "AccumulationPoint" in type(exc.value).__name__
    with pytest.raises(Exception):
        interval_index(pc, F(-2))
    # nearby rationals still locate
    assert isinstance(interval_index(pc, F(199, 100))["m"], int)
