import random
from fractions import Fraction as F

from paper_checks import ScanConfig, cloud_max_distance, float_align_scan
from reference_kernel import reference_brute_walls
from reference_output import circle
from stabwalls.lattice import Context, MukaiVector, self_pairing
from stabwalls.oracle import brute_walls
from stabwalls.walls import VLine, wall_set

C1 = Context(1)


def test_brute_walls_goldens():
    walls = brute_walls(MukaiVector(1, 0, -3), -2, 6, C1)
    assert [w.shape for w in walls] == [circle(F(-2), F(1))]
    assert brute_walls(MukaiVector(1, 0, -2), -1, 8, C1) == []


def test_brute_walls_matches_full_box_scan():
    """The oracle calls wall_between only on the a1 where its three pairing
    tests hold, which are linear in a1; the full-box scan it replaced must
    give the same walls and witnesses, at every bound, for rank-0 classes
    and for those whose pairing rows lose their a1 term (r1 = 0, r1 = r,
    r = 2*r1)."""
    rng = random.Random(2323)
    ranks = set()
    cases = walls = 0
    while cases < 120:
        n = rng.randint(1, 4)
        ctx = Context(n)
        r = 0 if cases % 6 == 0 else rng.randint(-3, 3)
        v = MukaiVector(r, rng.randint(-4, 4), rng.randint(-12, 12))
        if self_pairing(v, ctx) <= 0:
            continue
        s0 = F(rng.randint(-8, 8), rng.randint(1, 4))
        for bound in (0, 1, 2, 5) + ((10,) if cases % 4 == 0 else ()):
            expected = reference_brute_walls(v, s0, bound, ctx)
            assert brute_walls(v, s0, bound, ctx) == expected, (n, v, s0, bound)
            walls += len(expected)
        ranks.add("r = 0" if r == 0 else "r even" if r % 2 == 0 else "r odd")
        cases += 1
    assert ranks == {"r = 0", "r even", "r odd"}
    assert walls > 200


def test_brute_walls_monotone_in_bound():
    v = MukaiVector(1, 0, -5)
    small = {w.shape for w in brute_walls(v, -2, 5, C1)}
    large = {w.shape for w in brute_walls(v, -2, 9, C1)}
    assert small <= large


def test_float_align_scan_hugs_walls():
    walls = wall_set(1, 2)[0]
    cfg = ScanConfig(grid=0.05, tol=1e-9)
    clouds = float_align_scan(
        MukaiVector(1, 0, -2), walls, (-3.0, 0.5, 1.5), cfg, C1
    )
    cell = cfg.grid * (2**0.5)
    for idx, w in enumerate(walls):
        cloud = clouds[idx]
        assert cloud, f"empty cloud for {w}"
        assert cloud_max_distance(w, cloud) <= cell


def test_float_align_scan_vline_column():
    vline = [w for w in wall_set(1, 2)[0] if isinstance(w.shape, VLine)]
    cfg = ScanConfig(grid=0.1)
    clouds = float_align_scan(MukaiVector(1, 0, -2), vline, (-1.0, 1.0, 1.0), cfg, C1)
    assert all(abs(s) <= cfg.grid + 1e-9 for s, _ in clouds[0])
