"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest -s tests/test_acceptance.py` to see the lines as the
criteria complete.  Every assertion is exact (no tolerances except the
stated one-grid-cell bound of criterion 8).
"""

import random
from fractions import Fraction as F
from pathlib import Path

from paper_checks import (
    ScanConfig,
    charge_compat_check,
    cloud_max_distance,
    delta_matrix,
    equal_up_to_sign,
    float_align_scan,
    g_mul,
    g_power,
    identity_matrix,
    in_interval,
    psi_apply_to_wall,
    psi_map,
    surd_float,
    surd_square,
    twist,
    vec_neg,
    vec_scale,
    vec_sub,
    wall_of,
)
from reference_output import circle, s0_of, t_sq_at, vline
from stabwalls.fmgroup import (
    act_on_vector,
    mobius,
    require_member,
)
from stabwalls.lattice import Context, MukaiVector, pairing, self_pairing
from stabwalls.oracle import brute_walls
from stabwalls.pell import (
    GMatrix,
    interval_index,
    iterate,
    solve_generator,
    u_vectors,
)
from stabwalls.surd import QnComplex, QnNumber, Surd
from stabwalls.walls import (
    Circle,
    VLine,
    codim0_walls,
    enumerate_walls_on_line,
    sort_walls,
    wall_set,
)

GOLDENS = Path(__file__).parent / "goldens"
PELL_PAIRS = [(1, 2), (1, 3), (1, 5), (1, 6), (2, 1), (2, 3)]


def _report(num, text):
    print(f"ACCEPTANCE {num}: PASS - {text}", flush=True)


def test_criterion_1_pell_goldens():
    expect = {
        2: (Surd(1), Surd(1)),
        3: (Surd(1), Surd(2)),
        5: (Surd(1), Surd(2)),
        6: (Surd(2), Surd(5)),
    }
    for ell, (x, y) in expect.items():
        pc = solve_generator(1, ell)
        assert (pc.generator.c, pc.generator.d) == (x, y), ell
    # (n, l) = (2, 1) against an independent brute-force oracle, a, b <= 10
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
    assert (pc.generator.c, pc.generator.d) == (Surd(1), Surd(1, 2))
    _report(1, "generators A_2, A_3, A_5, A_6 and (2,1) = (sqrt2,1;1,sqrt2)")


def test_criterion_2_wall_goldens():
    c1 = {
        2: circle(F(-3, 2), F(1, 4)),
        3: circle(F(-7, 4), F(1, 16)),
        5: circle(F(-9, 4), F(1, 16)),
        6: circle(F(-49, 20), F(1, 400)),
    }
    for ell, shape in c1.items():
        fam = wall_set(1, ell)[0]
        labelled = {w.label: w.shape for w in fam if w.codim0}
        assert labelled[-1] == shape, ell
        assert labelled[0] == vline(0)
    # l=3: unique intermediate wall
    fam3 = wall_set(1, 3)[0]
    between = [w.shape for w in fam3 if not w.codim0]
    assert between == [circle(F(-2), F(1))]
    # l=4: unique wall in s < 0 at the square abscissa
    walls4 = enumerate_walls_on_line(MukaiVector(1, 0, -4), -2, Context(1))
    assert [w.shape for w in walls4] == [circle(F(-5, 2), F(9, 4))]
    # l=1: s = 0 is the only wall (nothing crosses the square abscissa)
    assert enumerate_walls_on_line(MukaiVector(1, 0, -1), -1, Context(1)) == []
    assert wall_of(MukaiVector(1, 0, -1), MukaiVector(1, 0, 0), Context(1)).shape == vline(0)
    _report(2, "C_-1 circles for l = 2,3,5,6, the l=3 and l=4 walls, l=1 axis only")


def test_criterion_3_completeness_vs_oracle():
    ctx = Context(1)
    fast2 = enumerate_walls_on_line(MukaiVector(1, 0, -2), -1, ctx)
    brute2 = brute_walls(MukaiVector(1, 0, -2), -1, 10, ctx)
    assert fast2 == [] and brute2 == []
    fast3 = enumerate_walls_on_line(MukaiVector(1, 0, -3), -2, ctx)
    brute3 = brute_walls(MukaiVector(1, 0, -3), -2, 10, ctx)
    assert len(fast3) == 1
    assert [w.shape for w in fast3] == [w.shape for w in brute3]
    _report(3, "enumeration equals the brute-force oracle at the golden cross-sections")


def test_criterion_4_lattice_properties():
    rng = random.Random(20240809)
    mats = {}
    for n in (1, 2):
        mats[n] = [delta_matrix(), identity_matrix()]
        for ell in (2, 3, 5):
            if (ell * n) not in (4, 16, 36, 1, 9, 25):
                mats[n].append(solve_generator(n, ell).generator)
        if n == 1:
            mats[n].append(GMatrix(Surd(1), Surd(1), Surd(0), Surd(1)))
    for _ in range(1000):
        n = rng.choice([1, 2])
        ctx = Context(n)
        v = MukaiVector(rng.randint(-6, 6), rng.randint(-6, 6), rng.randint(-6, 6))
        w = MukaiVector(rng.randint(-6, 6), rng.randint(-6, 6), rng.randint(-6, 6))
        s = F(rng.randint(-8, 8), rng.randint(1, 4))
        assert self_pairing(twist(v, s, ctx), ctx) == self_pairing(v, ctx)
        g = g_mul(rng.choice(mats[n]), rng.choice(mats[n]))
        require_member(g, ctx)
        vi, wi = act_on_vector(v, g, ctx), act_on_vector(w, g, ctx)
        assert all(type(x) is int for x in (vi.r, vi.d, vi.a, wi.r, wi.d, wi.a))
        assert pairing(vi, wi, ctx) == pairing(v, w, ctx)
    for n, ell in PELL_PAIRS:
        ctx = Context(n)
        pc = solve_generator(n, ell)
        target = MukaiVector(1, 0, -ell)
        for m in range(-8, 9):
            u, u_prime = u_vectors(pc, iterate(pc, m))
            assert self_pairing(u, ctx) == 0 and self_pairing(u_prime, ctx) == 0
            assert pairing(u, u_prime, ctx) == -1
            assert vec_sub(vec_scale(ell, u), u_prime) in (target, vec_neg(target))
    _report(4, "10^3 isometry/twist/action cases and u_m identities for six (n,l) pairs")


def test_criterion_5_geometry_properties():
    from stabwalls.surd import sqrt_of_fraction

    for n, ell in [(1, 2), (1, 3), (1, 5), (1, 6), (2, 3)]:
        ctx = Context(n)
        v = MukaiVector(1, 0, -ell)
        pc = solve_generator(n, ell)
        walls = sort_walls(
            list(wall_set(n, ell)[0]) + list(codim0_walls(pc, range(-4, 5)))
        )
        # the pencil of v: p = d/r, q = <v^2>/(2n r^2)
        p, q = F(v.d, v.r), F(self_pairing(v, ctx), 2 * ctx.n * v.r**2)
        circles = sorted(
            {w.shape for w in walls if isinstance(w.shape, Circle)},
            key=lambda s: (s.center, s.radius_sq),
        )
        for sh in circles:
            # pencil membership
            assert sh.radius_sq == (sh.center - p) ** 2 - q
            # Cor.-square endpoint containment
            root = sqrt_of_fraction(q)
            if root.rad == 1:
                pts = [p - root.coef, p + root.coef]
                assert any((pt - sh.center) ** 2 < sh.radius_sq for pt in pts)
            else:
                assert (sh.center - p) ** 2 > q
        # pairwise disjointness via the radical-line resultant
        for i, s1 in enumerate(circles):
            for s2 in circles[i + 1 :]:
                dc = 2 * (s2.center - s1.center)
                rhs = (s2.center**2 - s2.radius_sq) - (s1.center**2 - s1.radius_sq)
                if dc == 0:
                    assert rhs != 0
                else:
                    assert t_sq_at(s1, rhs / dc) < 0
        # no circle meets the vertical walls
        for w in walls:
            if isinstance(w.shape, VLine):
                for sh in circles:
                    assert t_sq_at(sh, s0_of(w.shape)) < 0
    _report(5, "disjointness, pencil membership, endpoint containment per instance")


def test_criterion_6_group_properties():
    rng = random.Random(606)
    gens = {}
    for n in (1, 2):
        gens[n] = [delta_matrix()]
        for ell in (2, 3, 5):
            import math

            if math.isqrt(ell * n) ** 2 != ell * n:
                gens[n].append(solve_generator(n, ell).generator)
        if n == 1:
            gens[n].append(GMatrix(Surd(1), Surd(1), Surd(0), Surd(1)))

    def random_g(n):
        out = identity_matrix()
        for _ in range(rng.randint(1, 4)):
            out = g_mul(out, rng.choice(gens[n]))
        return out

    # Moebius preserves H and composes, 200 exact triples
    done = 0
    while done < 200:
        n = rng.choice([1, 2])
        ctx = Context(n)
        g1, g2 = random_g(n), random_g(n)
        z = QnComplex(
            QnNumber(F(rng.randint(-6, 6), 2), F(rng.randint(-2, 2), 3), n),
            QnNumber(F(rng.randint(1, 8), 3), 0, n),
        )
        if z.im.sign() <= 0:
            continue
        img = mobius(g1, mobius(g2, z, ctx), ctx)
        g12 = g_mul(g1, g2)
        require_member(g12, ctx)
        assert img == mobius(g12, z, ctx)
        assert img.im.sign() > 0
        done += 1
    # charge compatibility on 200 random (g, v, z)
    done = 0
    while done < 200:
        n = rng.choice([1, 2])
        ctx = Context(n)
        g = random_g(n)
        if g.det() != 1:
            continue
        v = MukaiVector(rng.randint(-4, 4), rng.randint(-4, 4), rng.randint(-4, 4))
        z = QnComplex(
            QnNumber(F(rng.randint(-4, 4), 2), F(rng.randint(-1, 1), 2), n),
            QnNumber(F(rng.randint(1, 4), 2), 0, n),
        )
        assert charge_compat_check(g, v, z, ctx)
        done += 1
    # theta(Psi_m) identity and wall transport
    for n, ell in [(1, 2), (1, 3)]:
        ctx = Context(n)
        pc = solve_generator(n, ell)
        a = pc.generator
        for m in range(-5, 6):
            psi = psi_map(pc, m)
            for k in range(-5, 6):
                lhs = g_mul(g_power(a, m + k), psi)
                rhs = g_mul(delta_matrix(), g_power(a, m - k))
                require_member(lhs, ctx)
                require_member(rhs, ctx)
                assert equal_up_to_sign(lhs, rhs)
        fam = {w.label: w for w in codim0_walls(pc, range(-4, 5))}
        for m in range(-2, 3):
            for k in range(-2, 3):
                if abs(m + k) > 4 or abs(m - k) > 4:
                    continue
                moved = psi_apply_to_wall(pc, m, fam[m + k], ctx)
                assert moved.shape == fam[m - k].shape
    _report(6, "Moebius/composition, 200 charge compatibilities, Psi identities and transport")


def test_criterion_7_interval_machinery():
    rng = random.Random(7777)
    for n, ell in [(1, 2), (1, 3)]:  # epsilon = -1 and +1
        pc = solve_generator(n, ell)
        for _ in range(500):
            lam = F(rng.randint(-300, 300), rng.randint(1, 50))
            idx = interval_index(pc, lam)
            hits = [
                m
                for m in range(idx["m"] - 3, idx["m"] + 4)
                if in_interval(pc, lam, m, starred=False)
            ]
            assert hits == [idx["m"]]
            star_hits = [
                m
                for m in range(idx["m"] - 3, idx["m"] + 4)
                if in_interval(pc, lam, m, starred=True)
            ]
            assert len(star_hits) == 1
            assert (star_hits == hits) == idx["starred"]
    assert interval_index(solve_generator(1, 2), F(-3, 2))["m"] == -2
    # accumulation: |slope^2 - l| = 1/a_m^2 strictly decreasing, exact
    for n, ell in [(1, 2), (1, 3), (2, 1)]:
        pc = solve_generator(n, ell)
        prev = None
        for m in range(1, 11):
            it = iterate(pc, m)
            dist = abs(surd_square(it.b) / surd_square(it.a) - ell)
            if prev is not None:
                assert dist < prev
            prev = dist
    _report(7, "partition on 10^3 slopes for both signs, golden index, accumulation")


def test_criterion_8_figures():
    import subprocess
    import sys
    import tempfile

    for ell, name in [(2, "fig1.svg"), (3, "fig2.svg")]:
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / name
            proc = subprocess.run(
                [
                    sys.executable,
                    "-m",
                    "stabwalls.cli",
                    "walls",
                    "--n",
                    "1",
                    "--ell",
                    str(ell),
                    "--window=-3:1:1.5",
                    "--svg",
                    str(out),
                ],
                capture_output=True,
            )
            assert proc.returncode == 0
            assert out.read_bytes() == (GOLDENS / name).read_bytes(), name
    # float alignment clouds hug the exact walls within one grid cell
    ctx = Context(1)
    walls = wall_set(1, 2)[0]
    cfg = ScanConfig(grid=0.05)
    clouds = float_align_scan(MukaiVector(1, 0, -2), walls, (-3.0, 0.5, 1.5), cfg, ctx)
    cell = cfg.grid * 2**0.5
    for idx, w in enumerate(walls):
        assert clouds[idx]
        assert cloud_max_distance(w, clouds[idx]) <= cell
    _report(8, "SVG goldens byte-for-byte and alignment clouds within one cell")
