import contextlib
import io
import json
import math
import random
from fractions import Fraction as F
from pathlib import Path

from hypothesis import given, settings, strategies as st

from paper_checks import sheaf_verdict
from stabwalls import walls as walls_mod
from stabwalls.cli import build_parser, main
from stabwalls.jsonio import frac_str
from stabwalls.lattice import Context, MukaiVector
from stabwalls.pell import iterate, slope_endpoints, solve_generator
from stabwalls.walls import cross_section

GOLDENS = Path(__file__).parent / "goldens"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_walls_l2(capsys):
    code, data = run(capsys, "walls", "--n", "1", "--ell", "2", "--window=-3:1:3/2")
    assert code == 0
    shapes = [w["shape"] for w in data["walls"]]
    assert {"vline": {"s": "0"}} in shapes
    assert {"circle": {"center": "-3/2", "radius_sq": "1/4"}} in shapes


def test_walls_l4_square_route(capsys):
    code, data = run(capsys, "walls", "--n", "1", "--ell", "4", "--window=-5:5:3")
    assert code == 0
    shapes = [w["shape"] for w in data["walls"]]
    assert shapes == [
        {"vline": {"s": "0"}},
        {"circle": {"center": "-5/2", "radius_sq": "9/4"}},
        {"circle": {"center": "5/2", "radius_sq": "9/4"}},
    ]


def test_walls_verify_flag(capsys, monkeypatch):
    """walls --n --ell --verify judges the walls it listed, with one
    enumeration, and its verify block is the `verify` command's answer, on
    the square and Pell routes.  The walls it judges are exactly those of
    a direct enumeration at the cross-section."""
    code, data = run(capsys, "walls", "--n", "1", "--ell", "3", "--verify")
    assert code == 0 and data["verify"]["agree"]
    calls = []
    enumerate_walls = walls_mod.enumerate_walls_on_line

    def counted(*args):
        calls.append(args)
        return enumerate_walls(*args)

    monkeypatch.setattr(walls_mod, "enumerate_walls_on_line", counted)
    routes = set()
    for n in range(1, 7):
        for ell in range(1, 20):
            calls.clear()
            code, data = run(capsys, "walls", "--n", str(n), "--ell", str(ell), "--verify")
            assert code == 0 and len(calls) == 1, (n, ell)
            code, verify = run(capsys, "verify", "--n", str(n), "--ell", str(ell))
            assert code == 0 and data["verify"] == verify, (n, ell)
            s0, _ = cross_section(n, ell)
            direct = enumerate_walls(MukaiVector(1, 0, -ell), s0, Context(n))
            assert verify["enumerated"] == len(direct), (n, ell)
            assert verify["cross_section"] == frac_str(s0), (n, ell)
            routes.add(math.isqrt(n * ell) ** 2 == n * ell)
    assert routes == {True, False}


def test_pell_l6(capsys):
    code, data = run(capsys, "pell", "--n", "1", "--ell", "6")
    assert code == 0
    assert data["generator"]["matrix"] == "5,12;2,5"
    assert data["epsilon"] == 1


def test_pell_torsion(capsys):
    code, data = run(capsys, "pell", "--n", "2", "--ell", "1", "--m-range=-1..1")
    assert code == 0 and data["torsion"] == "0,1;1,0"


def test_classify_golden(capsys):
    code, data = run(
        capsys, "classify", "--n", "1", "--ell", "2", "--s=-3/2", "--t2", "1/4"
    )
    assert code == 0
    assert data["kind"] == "OnWall" and data["codim0"] and data["m"] == -1
    # the top of C_40, a label past any fixed search window
    code, data = run(
        capsys, "classify", "--n", "1", "--ell", "2", "--m-range=-40..40",
        "--s=2094232192940929332692027310337/1480845785007705294702019308528",
        "--t2=1/2192904238975086931363395619611051675784601004010131253526784",
    )
    assert code == 0
    assert data["kind"] == "OnWall" and data["codim0"] and data["m"] == 40


def test_intervals_golden(capsys):
    code, data = run(capsys, "intervals", "--n", "1", "--ell", "2", "--lambda=-3/2")
    assert code == 0
    assert data["m"] == -2 and data["verdict"] == "StableSheaf"


def test_act_and_mobius(capsys):
    code, data = run(capsys, "act", "--n", "1", "--g", "1,2;1,1", "--v", "0,0,1")
    assert code == 0 and data["image"] == "1,1,1"
    code, data = run(capsys, "mobius", "--n", "1", "--g", "7,12;4,7", "--z", "0+1*i")
    assert code == 0 and data["image"] == "(112/65)+(1/65)*i"
    code, data = run(
        capsys, "mobius", "--n", "2", "--g", "1*sqrt(2),1;1,1*sqrt(2)", "--z", "1/2+1*i"
    )
    assert code == 0


def test_wmax(capsys):
    code, data = run(capsys, "wmax", "--n", "1", "--ell", "4")
    assert code == 0
    assert (data["lambda1"], data["lambda2"]) == ("-4", "-1")


def test_exit_code_on_precondition(capsys):
    code, data = run(capsys, "pell", "--n", "1", "--ell", "4")
    assert code == 2 and data["error"]["type"] == "SquareCase"
    code, data = run(capsys, "act", "--n", "1", "--g", "2,0;0,1", "--v", "1,0,0")
    assert code == 2 and data["error"]["type"] == "NotInGHat"
    # a polarization needs n >= 1, on the Pell path too
    for argv in (
        ["numsol", "--n", "0", "--ell", "3"],
        ["pell", "--n", "-1", "--ell", "2"],
        ["numsol", "--n", "-4", "--ell", "1"],
        ["pell", "--n", "0", "--ell", "2"],
        ["intervals", "--n", "0", "--ell", "2", "--lambda=1"],
    ):
        code, data = run(capsys, *argv)
        assert code == 2 and data["error"] == {
            "type": "ValueError",
            "message": "n must be a positive integer",
        }, argv
    code, data = run(capsys, "pell", "--n", "1", "--ell", "2", "--m-range=3")
    assert code == 2 and data["error"]["message"] == "m-range must be lo..hi"
    # the square route of numsol parses --m-range too
    code, data = run(capsys, "numsol", "--n", "1", "--ell", "4", "--m-range=garbage")
    assert code == 2 and data["error"]["message"] == "m-range must be lo..hi"
    code, data = run(capsys, "pell", "--n", "1", "--ell", "2", "--m-range=3..1")
    assert code == 2 and data["error"] == {
        "type": "ValueError",
        "message": "m-range must be lo..hi with lo <= hi",
    }
    # a command line that argparse rejects is a JSON input error too; a
    # value starting with "-" must be joined with "="
    for argv, message in (
        (
            ["intervals", "--n", "1", "--ell", "2", "--lambda", "-3/2"],
            "argument --lambda: expected one argument",
        ),
        (
            ["act", "--n", "1", "--g", "-1,0;0,1", "--v", "1,0,0"],
            "argument --g: expected one argument",
        ),
        (
            ["intervals", "--ell", "2", "--lambda=1"],
            "the following arguments are required: --n",
        ),
    ):
        code, data = run(capsys, *argv)
        assert code == 2 and data["error"] == {"type": "UsageError", "message": message}, argv
    code, data = run(capsys, "intervals", "--n", "1", "--ell", "2", "--lambda=-3/2")
    assert code == 0 and data["lambda"] == "-3/2"
    code, data = run(capsys, "act", "--n", "1", "--g=-1,0;0,1", "--v=-1,0,0")
    assert code == 0 and data["image"] == "-1,0,0"


def test_parser_is_built_once_and_keeps_no_state(capsys):
    """main reuses one parser; no call leaves anything in it that changes
    the answer to a later call."""
    assert build_parser() is build_parser()
    plain = ["walls", "--n", "1", "--ell", "2"]
    build_parser.cache_clear()
    assert main(plain) == 0
    cold = capsys.readouterr().out
    code, data = run(capsys, *plain, "--verify")
    assert code == 0 and "verify" in data
    assert main(plain) == 0
    after = capsys.readouterr().out
    assert after == cold and "verify" not in json.loads(after)
    # a usage error between two good calls changes nothing
    good = ["act", "--n", "1", "--g=1,2;1,1", "--v", "0,0,1"]
    code, first = run(capsys, *good)
    assert code == 0
    code, data = run(capsys, "act", "--n", "1", "--g", "-1,0;0,1", "--v", "1,0,0")
    assert code == 2 and data["error"]["type"] == "UsageError"
    assert run(capsys, *good) == (0, first)
    # subcommand defaults are applied afresh on every call
    for command, default in (("walls", range(-2, 3)), ("pell", range(-3, 4))):
        base = [command, "--n", "1", "--ell", "2"]
        assert run(capsys, *base, "--m-range=-1..0")[0] == 0
        code, data = run(capsys, *base)
        labels = (sorted(w["m"] for w in data["walls"] if w["codim0"]) if command == "walls"
                  else [it["m"] for it in data["iterates"]])
        assert code == 0 and labels == list(default), command


def test_unwritable_svg_path_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "missing" / "x.svg"
    code, data = run(capsys, "walls", "--n", "1", "--ell", "2", "--svg", str(path))
    assert code == 2 and data["error"]["type"] == "FileNotFoundError"
    assert str(path) in data["error"]["message"] and not path.exists()


def test_svg_matches_golden(tmp_path, capsys):
    out = tmp_path / "fig1.svg"
    code, _ = run(
        capsys, "walls", "--n", "1", "--ell", "2", "--window=-3:1:1.5", "--svg", str(out)
    )
    assert code == 0
    assert out.read_bytes() == (GOLDENS / "fig1.svg").read_bytes()
    # the radius of a far C_m is a huge square: its endpoints are ticks
    far = tmp_path / "c29.svg"
    code, data = run(
        capsys, "walls", "--n", "1", "--ell", "2", "--m-range=-29..-29", "--svg", str(far)
    )
    assert code == 0 and [w["m"] for w in data["walls"] if w["codim0"]] == [0, -1, -29]
    text = far.read_text()
    pc = solve_generator(1, 2)
    for end in slope_endpoints(pc, iterate(pc, -29)):
        assert f">{frac_str(end)}</text>" in text


def test_numsol(capsys):
    code, data = run(capsys, "numsol", "--n", "1", "--ell", "5", "--m-range=-1..1")
    assert code == 0
    sols = data["numerical_solutions"]
    assert {"v1": "1,-2,4", "v2": "4,-10,25", "l1": 5, "l2": 1} in sols
    assert data["presentations"]["both_presentations"]
    code, data = run(capsys, "numsol", "--n", "1", "--ell", "4")
    assert code == 0
    assert data["numerical_solutions"] == [
        {"v1": "1,0,0", "v2": "0,0,1", "l1": 1, "l2": 4}
    ]
    assert data["presentations"] == {"count": 1, "both_presentations": False}


def test_intervals_verdict_matches_sheaf_verdict(capsys):
    """The `intervals` verdict is the oracle's `sheaf_verdict` at the
    located label, on seeded slopes over the non-square (n <= 6, l < 30).
    At the rational +-P_k, +-Q_k (k <= 3) it is StableSheaf on the negative
    side, where they are closed ends, and absent on the positive side,
    where the label is >= 1."""
    rng = random.Random(884)
    eps_seen, verdicts = set(), set()
    for n in range(1, 7):
        for ell in range(1, 30):
            if math.isqrt(n * ell) ** 2 == n * ell:
                continue
            pc = solve_generator(n, ell)
            eps_seen.add(pc.epsilon)
            slopes = [F(rng.randint(-300, 300), rng.randint(1, 40)) for _ in range(3)]
            q = rng.randint(1, 300)  # near -sqrt(l), where |m| grows
            slopes.append(-F(math.isqrt(ell * q * q) + rng.randint(0, 1), q))
            ends = []
            for k in range(1, 4):
                it = iterate(pc, k)
                if it.a.rad == it.b.rad:
                    ratio = F(it.b.coef) / it.a.coef
                    ends += [ratio, -ratio, ell / ratio, -ell / ratio]
            for lam in slopes + ends:
                if lam * lam == ell:
                    continue
                code, out = run(capsys, "intervals", "--n", str(n), "--ell", str(ell),
                                f"--lambda={frac_str(lam)}")
                assert code == 0 and (out["m"] >= 1) == (lam >= 0), (n, ell, lam)
                if out["m"] >= 1:
                    assert "verdict" not in out, (n, ell, lam)
                    continue
                assert out["verdict"] == sheaf_verdict(pc, lam, out["m"])["verdict"], (n, ell, lam)
                verdicts.add(out["verdict"])
                if lam in ends:
                    assert out["verdict"] == "StableSheaf", (n, ell, lam)
    assert eps_seen == {1, -1}
    assert verdicts == {"Both", "StableSheaf"}


def test_walls_explicit_class(capsys):
    code, data = run(capsys, "walls", "--n", "1", "--v", "1,0,-3", "--s0=-2", "--verify")
    assert code == 0 and data["verify"]["agree"]
    assert data["walls"][0]["shape"] == {
        "circle": {"center": "-2", "radius_sq": "1"}
    }
    code, data = run(capsys, "walls", "--n", "1", "--v", "1,0,-3")
    assert code == 2  # --v without --s0


def test_frontier_cases_complete(capsys):
    # the fundamental cross-sections of (1,19), (1,21), (1,22) have
    # denominators 39, 12, 42, where |A(v)| = 1/q^2
    for ell, count in ((19, 73), (21, 67), (22, 87)):
        code, data = run(capsys, "verify", "--n", "1", "--ell", str(ell))
        assert code == 0 and data["agree"] and data["enumerated"] == count, ell
    for n, ell in ((3, 9), (5, 12)):
        code, data = run(capsys, "walls", "--n", str(n), "--ell", str(ell))
        assert code == 0 and data["walls"], (n, ell)


def test_verify_bound_limited_oracle(capsys):
    # l=6 has between-walls whose smallest witness exceeds the brute bound:
    # containment must hold, exhaustiveness legitimately fails
    code, data = run(capsys, "verify", "--n", "1", "--ell", "6")
    assert code == 0 and data["agree"] and not data["exhaustive"]
    # walls --verify on the same cross-section gives the same verdict
    code, walls = run(capsys, "walls", "--n", "1", "--v", "1,0,-6", "--s0=-5/2", "--verify")
    assert code == 0 and walls["verify"] == data
    code, data = run(capsys, "verify", "--n", "1", "--ell", "3")
    assert code == 0 and data["agree"] and data["exhaustive"]


# -- property tests: two commands asked the same question agree -------------

# a fixed profile: the same examples on every run, no example database
CLI_PROFILE = settings(derandomize=True, database=None, deadline=None, max_examples=30)
NON_SQUARE = [
    (n, ell) for n in (1, 2, 3) for ell in range(1, 31) if math.isqrt(n * ell) ** 2 != n * ell
]


def query(*argv):
    """main(argv) as (exit code, parsed stdout), without pytest's capsys,
    which hypothesis does not reset between examples."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(list(argv))
    return code, json.loads(buf.getvalue())


@CLI_PROFILE
@given(st.sampled_from(NON_SQUARE))
def test_verify_matches_walls_verify(case):
    n, ell = case
    s0 = frac_str(cross_section(n, ell)[0])
    code, verify = query("verify", "--n", str(n), "--ell", str(ell))
    assert code == 0
    code, walls = query("walls", "--n", str(n), "--v", f"1,0,{-ell}", f"--s0={s0}", "--verify")
    assert code == 0
    for key in ("agree", "enumerated", "exhaustive", "cross_section"):
        assert walls["verify"][key] == verify[key], key


@CLI_PROFILE
@given(
    st.sampled_from(NON_SQUARE),
    st.integers(-4, 4),
    st.fractions(-1, 1, max_denominator=60).filter(lambda f: abs(f) < 1),
    st.fractions(F(1, 50), 10, max_denominator=60),
)
def test_classify_on_codim0_wall_matches_walls(case, m, f, height):
    """A point on C_m: the t-axis at t^2 = height for m = 0, otherwise
    center + f*radius with t^2 = (1 - f^2)*radius^2, from the two rational
    endpoints of C_m."""
    n, ell = case
    if m == 0:
        s, t2 = F(0), height
    else:
        pc = solve_generator(n, ell)
        lam1, lam2 = slope_endpoints(pc, iterate(pc, m))
        radius = (lam2 - lam1) / 2
        s, t2 = (lam1 + lam2) / 2 + f * radius, (1 - f * f) * radius**2
    base = ("--n", str(n), "--ell", str(ell), "--m-range=-4..4")
    code, point = query("classify", *base, f"--s={frac_str(s)}", f"--t2={frac_str(t2)}")
    assert code == 0 and point["kind"] == "OnWall"
    assert point["codim0"] and point["m"] == m
    code, walls = query("walls", *base)
    assert code == 0
    assert [w for w in walls["walls"] if w.get("m") == m] == [point["wall"]]
