from fractions import Fraction as F

from paper_checks import ScanConfig, cloud_max_distance, float_align_scan
from reference_output import circle
from stabwalls.lattice import Context, MukaiVector
from stabwalls.oracle import brute_walls
from stabwalls.walls import VLine, wall_set

C1 = Context(1)


def test_brute_walls_goldens():
    walls = brute_walls(MukaiVector(1, 0, -3), -2, 6, C1)
    assert [w.shape for w in walls] == [circle(F(-2), F(1))]
    assert brute_walls(MukaiVector(1, 0, -2), -1, 8, C1) == []


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
