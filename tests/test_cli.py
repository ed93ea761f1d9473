import contextlib
import io
import json
import math
import random
import signal
import sys
import time
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from paper_checks import sheaf_verdict
from stabwalls import walls as walls_mod
from stabwalls.cli import build_parser, main
from stabwalls.errors import NotInGHat
from stabwalls.jsonio import emit, frac_str, parse_surd
from stabwalls.lattice import Context, MukaiVector
from stabwalls.pell import iterate, slope_endpoints, solve_generator, u_vectors
from stabwalls.surd import Surd, squarefree_decompose
from stabwalls.walls import codim0_walls, cross_section

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
    the square and Pell routes.  Each of the two commands solves the Pell
    generator once on the Pell route and never on the square route.  The
    walls it judges are exactly those of a direct enumeration at the
    cross-section."""
    code, data = run(capsys, "walls", "--n", "1", "--ell", "3", "--verify")
    assert code == 0 and data["verify"]["agree"]
    calls, solves = [], []
    enumerate_walls = walls_mod.enumerate_walls_on_line
    solve_generator = walls_mod.solve_generator

    def counted(*args):
        calls.append(args)
        return enumerate_walls(*args)

    def counted_solve(*args):
        solves.append(args)
        return solve_generator(*args)

    monkeypatch.setattr(walls_mod, "enumerate_walls_on_line", counted)
    monkeypatch.setattr(walls_mod, "solve_generator", counted_solve)
    routes = set()
    for n in range(1, 7):
        for ell in range(1, 20):
            square = math.isqrt(n * ell) ** 2 == n * ell
            calls.clear()
            solves.clear()
            code, data = run(capsys, "walls", "--n", str(n), "--ell", str(ell), "--verify")
            assert code == 0 and len(calls) == 1, (n, ell)
            assert len(solves) == (0 if square else 1), (n, ell)
            solves.clear()
            code, verify = run(capsys, "verify", "--n", str(n), "--ell", str(ell))
            assert code == 0 and data["verify"] == verify, (n, ell)
            assert len(solves) == (0 if square else 1), (n, ell)
            s0, _ = cross_section(n, ell)
            direct = enumerate_walls(MukaiVector(1, 0, -ell), s0, Context(n))
            assert verify["enumerated"] == len(direct), (n, ell)
            assert verify["cross_section"] == frac_str(s0), (n, ell)
            routes.add(square)
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


def test_huge_foreign_radicand_is_rejected_at_once(capsys):
    """A --g radicand whose squarefree part does not divide n is in no
    group matrix: exit 2 at once, without factoring the radicand (trial
    division of this prime would run for hours)."""
    g = "--g=sqrt(1000000000000000003),0;0,1"

    def overdue(signum, frame):
        raise TimeoutError("--g parse still running after 5 s")

    previous = signal.signal(signal.SIGALRM, overdue)
    signal.alarm(5)
    try:
        for argv in (["act", "--n", "1", g, "--v=1,0,0"], ["mobius", "--n", "1", g, "--z=0+1*i"]):
            t0 = time.perf_counter()
            code, data = run(capsys, *argv)
            assert time.perf_counter() - t0 < 1, argv
            assert code == 2 and data["error"]["type"] == "NotInGHat", argv
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_huge_n_identity_acts_at_once(capsys):
    """The identity acts for a huge prime n without factoring n: the group
    arithmetic never builds sqrt(n) as a surd (trial division of this prime
    would run for hours)."""

    def overdue(signum, frame):
        raise TimeoutError("act still running after 5 s")

    previous = signal.signal(signal.SIGALRM, overdue)
    signal.alarm(5)
    try:
        t0 = time.perf_counter()
        code, data = run(capsys, "act", "--n", "1000000000000000003", "--g=1,0;0,1", "--v=1,0,0")
        assert time.perf_counter() - t0 < 1
        assert code == 0 and data["image"] == "1,0,0" and data["g"]["det"] == "1"
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_huge_n_pell_group_answers_at_once(capsys):
    """For n = 10^30 + 1 and l = 1 the generator comes from one gcd per
    unit and sign, not from a loop over the divisors of n (trial division
    up to sqrt(n) = 10^15 would run for days): pell, intervals and walls
    each answer within 1 s."""
    n = str(10**30 + 1)

    def overdue(signum, frame):
        raise TimeoutError("command still running after 5 s")

    previous = signal.signal(signal.SIGALRM, overdue)
    signal.alarm(5)
    try:
        for argv in (["pell"], ["intervals", "--lambda=1/2"], ["walls"]):
            t0 = time.perf_counter()
            code, data = run(capsys, *argv, "--n", n, "--ell", "1")
            assert time.perf_counter() - t0 < 1, argv
            assert code == 0, argv
            if argv == ["pell"]:
                assert data["generator"]["p"] == str(10**15) and data["epsilon"] == 1
            if argv == ["walls"]:
                assert sorted(w["m"] for w in data["walls"] if w["codim0"]) == [-2, -1, 0, 1, 2]
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_radicands_with_two_large_primes_answer_at_once(capsys):
    """Factoring stops at the cube root of what is left: the Pell generator
    of n = (10^10 + 46)^2 + 1 = 206367977 * 484571309821 (period 1) builds
    Surd(b, n), and the group member with sqrt(p) entries for the prime
    p = 10^18 + 3 parses them; full trial division of either runs for
    minutes.  pell, act and mobius each take about 0.5 s on a 2-vCPU
    x86_64 VM; each runs under its own 5 s guard, which leaves room for a
    slow runner and still stops the full search, and a guard that fires
    fails the command."""
    big = "1000000000000000003"
    g = f"--g=sqrt({big}),1000000000000000002;1,sqrt({big})"

    def overdue(signum, frame):
        raise TimeoutError("command still running after 5 s")

    previous = signal.signal(signal.SIGALRM, overdue)
    try:
        for argv in (
            ["pell", "--n", "100000000920000002117", "--ell", "1"],
            ["act", "--n", big, g, "--v=1,0,0"],
            ["mobius", "--n", big, g, "--z=1/2+1*i"],
        ):
            signal.alarm(5)
            code, data = run(capsys, *argv)
            signal.alarm(0)
            assert code == 0, (argv, data)
            if argv[0] == "pell":
                assert data["generator"]["p"] == "10000000046" and data["epsilon"] == 1
            if argv[0] == "act":
                assert data["g"]["det"] == "1" and data["image"].startswith(f"{big},")
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_non_member_of_square_factor_n_is_rejected(capsys):
    """For n = 4, (1, 1; 0, 1) has determinant 1 and n/(1*1) = 4 is a
    square, but no radicands r*s = 4 make a = 1 an integer times sqrt(r)
    and b = 1 one times sqrt(s): both actions reject it with exit 2, while
    the member (1, sqrt(4); 0, 1) acts."""
    for argv in (["act", "--v=1,0,0"], ["mobius", "--z=0+1*i"]):
        code, data = run(capsys, argv[0], "--n", "4", "--g=1,1;0,1", argv[1])
        assert code == 2 and data["error"]["type"] == "NotInGHat", argv
    code, data = run(capsys, "act", "--n", "4", "--g=1,sqrt(4);0,1", "--v=1,0,0")
    assert code == 0 and data["image"] == "1,1,4"


def test_parse_surd_is_the_surd_on_group_radicands():
    """parse_surd gives the canonical Surd of coef*sqrt(m) when the
    squarefree part of m divides n, and raises NotInGHat otherwise; a
    zero coefficient is 0 whatever the radicand."""
    for n in range(1, 13):
        for rad in range(1, 121):
            fits = n % squarefree_decompose(rad)[1] == 0
            for text, coef in ((f"-3/2*sqrt({rad})", F(-3, 2)), (f"sqrt({rad})", 1)):
                if fits:
                    assert parse_surd(text, n) == Surd(coef, rad), (text, n)
                else:
                    with pytest.raises(NotInGHat):
                        parse_surd(text, n)
            assert parse_surd(f"0*sqrt({rad})", n) == Surd(0)
    with pytest.raises(ValueError, match="radicand must be positive"):
        parse_surd("sqrt(0)", 2)


def emitted(payload) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        emit(payload)
    return buf.getvalue()


JSON_LEAVES = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=2**64).flatmap(lambda k: st.sampled_from([k, -k]))
    | st.text()
)
JSON_VALUES = st.recursive(
    JSON_LEAVES,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=30,
)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(JSON_VALUES)
@example({"b": [True, False, None, 0, 1, -1], "": [], "a": {}, "\u00e9": "\x00\x1f\n\"\U0001f600"})
@example([2**64 + 1, -(2**64) - 1, -(2**100), 2**200, True, 1, False, 0])
@example({"z": {"y": [{"x": []}], "\t": "\u2028"}, "a": [[], {}, [{}]]})
def test_emit_matches_json_dumps(payload):
    """emit prints exactly json.dumps(indent=2, sort_keys=True) and a
    newline: sorted keys, bools as true/false and not as ints, escaped
    control and non-ASCII characters, empty containers, huge ints."""
    assert emitted(payload) == json.dumps(payload, indent=2, sort_keys=True) + "\n"


def test_emit_rejects_values_outside_the_payload_types():
    """Only dict (str keys), list, str, int, bool and None are written;
    anything else raises TypeError, also an int key, a float or a tuple,
    which json.dumps would convert."""
    for payload in ({"x": F(1, 2)}, [F(3)], {1: "a"}, {"a": {2: "b"}}, 0.5, (1, 2)):
        with pytest.raises(TypeError):
            emitted(payload)


def test_wmax(capsys):
    code, data = run(capsys, "wmax", "--n", "1", "--ell", "4")
    assert code == 0
    assert (data["lambda1"], data["lambda2"]) == ("-4", "-1")


def test_exit_code_on_precondition(capsys):
    code, data = run(capsys, "pell", "--n", "1", "--ell", "4")
    assert code == 2 and data["error"]["type"] == "SquareCase"
    code, data = run(capsys, "act", "--n", "1", "--g", "2,0;0,1", "--v", "1,0,0")
    assert code == 2 and data["error"]["type"] == "NotInGHat"
    # a lattice vector has integer entries
    for argv in (
        ["walls", "--n", "1", "--v", "1,1/2,0", "--s0=1"],
        ["act", "--n", "1", "--g", "1,0;0,1", "--v", "1,1/2,0"],
    ):
        code, data = run(capsys, *argv)
        assert code == 2 and data["error"] == {
            "type": "NonIntegral",
            "message": "1,1/2,0 is not integral",
        }, argv
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


def test_timeout_inside_a_command_escapes_main(monkeypatch, capsys):
    """A TimeoutError is an OSError, but not a bad --svg path: raised
    inside a command, as a fired SIGALRM guard raises it, it leaves main
    instead of printing as an input error."""

    def overdue(*args):
        raise TimeoutError("command still running after 5 s")

    monkeypatch.setattr(walls_mod, "wall_set", overdue)
    with pytest.raises(TimeoutError):
        main(["walls", "--n", "1", "--ell", "2"])
    assert capsys.readouterr().out == ""


@contextlib.contextmanager
def _no_digit_limit():
    """Lift the interpreter's limit on int-to-str conversion inside the
    block, where it has one, and put it back after."""
    get = getattr(sys, "get_int_max_str_digits", None)
    if get is None:
        yield
        return
    limit = get()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def test_integers_of_any_size_print(capsys):
    """C_-2810 of (1,2) and the isotropic vectors of label 5618 hold
    integers of more than 4,300 digits, the default limit of int-to-str
    conversion.  walls and pell print them and exit 0, the printed strings
    are the values themselves, and main leaves the limit as it found it."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    pc = solve_generator(1, 2)
    code, data = run(capsys, "walls", "--n", "1", "--ell", "2", "--m-range=-2810..-2810")
    assert code == 0
    (far,) = [w for w in data["walls"] if w.get("m") == -2810]
    (wall,) = codim0_walls(pc, range(-2810, -2809))
    code = main(["pell", "--n", "1", "--ell", "2", "--m-range=5618..5618"])
    out = capsys.readouterr().out
    assert code == 0
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit
    it = iterate(pc, 5618)
    with _no_digit_limit():
        cn, cd, rn, rd = wall.shape
        assert far["shape"]["circle"] == {"center": f"{cn}/{cd}", "radius_sq": f"{rn}/{rd}"}
        assert far["witness"] == ",".join(map(str, wall.witness))
        assert len(str(rd)) > 4300
        answer = json.loads(out)
        (entry,) = answer["iterates"]
        assert (entry["a"], entry["b"]) == (str(it.a.coef), str(it.b.coef))
        u, u_prime = u_vectors(pc, it)
        (entry,) = answer["u_vectors"]
        assert (entry["u"], entry["u_prime"]) == tuple(
            ",".join(map(str, (x.r, x.d, x.a))) for x in (u, u_prime)
        )
        assert len(str(u.a)) > 4300


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


def test_walls_rejects_the_other_routes_flags(capsys):
    """A flag of one `walls` route is checked or refused on the other, not
    silently dropped."""
    for argv, message in (
        (["--v", "1,0,-2", "--s0=-3/2", "--m-range=x"], "m-range must be lo..hi"),
        (["--ell", "2", "--s0=garbage"], "--s0 needs --v (an explicit class)"),
        (["--ell", "2", "--s0=-3/2"], "--s0 needs --v (an explicit class)"),
        (
            ["--ell", "5", "--v", "1,0,-2", "--s0=-3/2"],
            "give either --ell or an explicit --v, not both",
        ),
    ):
        code, data = run(capsys, "walls", "--n", "1", *argv)
        assert code == 2 and data["error"] == {"type": "ValueError", "message": message}, argv
    # the --v route itself still answers, with the default --m-range
    code, data = run(capsys, "walls", "--n", "1", "--v", "1,0,-2", "--s0=-3/2")
    assert code == 0 and data["v"] == "1,0,-2"


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
    code, wall_set = query("walls", "--n", str(n), "--ell", str(ell), "--verify")
    assert code == 0 and wall_set["verify"] == verify


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
