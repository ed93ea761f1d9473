"""Command-line front end: the argparse parser, one payload function per
command, and the dispatch in `main`.  The flags are read, and the payloads
written, by `jsonio`.

Commands: walls | pell | numsol | classify | intervals | act | mobius |
wmax | verify.  Results print as JSON on stdout; rationals are strings
"p/q".  Exit codes: 0 success, 2 precondition/input errors, bad command
lines included, 3 internal invariant violations (bugs).  A value that
starts with "-" is written with "=", as in --lambda=-3/2: argparse reads
a separate "-3/2" as an option.  `main(argv)` may be called any number of
times in one process; the parser is built on the first call only.
"""

from __future__ import annotations

import argparse
import functools
import sys
from fractions import Fraction

from .errors import InvariantViolation, PreconditionError, SquareCase, UsageError
from .jsonio import (
    chamber_record,
    emit,
    frac_str,
    gmatrix_record,
    parse_frac,
    parse_gmatrix_text,
    parse_m_range,
    parse_qnc,
    parse_vector,
    parse_window,
    qnc_str,
    solution_record,
    surd_str,
    vector_str,
    wmax_record,
)
from .lattice import Context, MukaiVector, RHO, UNIT
from .charge import StabilityPoint
from . import pell as pell_mod
from . import walls as walls_mod
from . import fmgroup
from . import oracle as oracle_mod
from . import svg as svg_mod


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line like any other input error: as JSON on
    stdout with exit code 2, not as usage text on stderr."""

    def error(self, message):
        raise UsageError(message)


def cmd_walls(args) -> dict:
    ctx = Context(args.n)
    window = parse_window(args.window)
    m_range = parse_m_range(args.m_range)  # checked on the --v route too
    if args.v is None:
        if args.s0 is not None:
            raise ValueError("--s0 needs --v (an explicit class)")
        if args.ell < 1:
            raise ValueError("give either --ell or an explicit --v with --s0")
    elif args.ell:
        raise ValueError("give either --ell or an explicit --v, not both")
    if args.v is not None:
        # explicit class: enumerate the walls crossing a chosen cross-section
        if args.s0 is None:
            raise ValueError("--v needs --s0 (a rational cross-section)")
        v = parse_vector(args.v)
        s0 = parse_frac(args.s0)
        wall_list = walls_mod.enumerate_walls_on_line(v, s0, ctx)
        payload = {"n": args.n, "v": vector_str(v), "s0": frac_str(s0), "walls": wall_list}
        title = f"Walls for {vector_str(v)}"
    else:
        v = MukaiVector(1, 0, -args.ell)
        wall_list, s0, _ = walls_mod.wall_set(args.n, args.ell, m_range)
        payload = {"n": args.n, "ell": args.ell, "v": vector_str(v), "walls": wall_list}
        title = f"Walls for 1 - {args.ell}rho (n = {args.n})"
    if args.verify:
        payload["verify"] = _verify_report(v, s0, wall_list, ctx)
    if args.svg:
        with open(args.svg, "w") as fh:
            fh.write(svg_mod.render(wall_list, window, title=title))
        payload["svg"] = args.svg
    return payload


def cmd_pell(args) -> dict:
    pc = pell_mod.solve_generator(args.n, args.ell)
    m_range = parse_m_range(args.m_range)
    pairs = pell_mod.isotropic_pairs(pc, m_range)
    iterates = [{"m": it.m, "a": surd_str(it.a), "b": surd_str(it.b)} for it, _, _ in pairs]
    u_vecs = [
        {"m": it.m, "u": vector_str(u), "u_prime": vector_str(u_prime)}
        for it, u, u_prime in pairs
    ]
    gen = pc.generator
    out = {
        "n": pc.n,
        "ell": pc.ell,
        "generator": {
            "p": surd_str(gen.c),
            "q": surd_str(gen.d),
            "matrix": f"{surd_str(gen.a)},{surd_str(gen.b)};{surd_str(gen.c)},{surd_str(gen.d)}",
        },
        "epsilon": pc.epsilon,
        "iterates": iterates,
        "u_vectors": u_vecs,
        "numerical_solutions": [
            solution_record(s) for s in pell_mod.numerical_solutions(pc, pairs)
        ],
        "presentations": pell_mod.presentation_report(args.n, args.ell),
    }
    if pc.torsion is not None:
        out["torsion"] = "0,1;1,0"
    return out


def cmd_numsol(args) -> dict:
    m_range = parse_m_range(args.m_range)
    try:
        pc = pell_mod.solve_generator(args.n, args.ell)
    except SquareCase:
        sols = [pell_mod.NumericalSolution(UNIT, RHO, 1, args.ell)]
    else:
        sols = pell_mod.numerical_solutions(pc, pell_mod.isotropic_pairs(pc, m_range))
    return {
        "numerical_solutions": [solution_record(s) for s in sols],
        "presentations": pell_mod.presentation_report(args.n, args.ell),
    }


def cmd_classify(args) -> dict:
    ctx = Context(args.n)
    v = MukaiVector(1, 0, -args.ell)
    pt = StabilityPoint(parse_frac(args.s), parse_frac(args.t2))
    wall_list, _, pc = walls_mod.wall_set(args.n, args.ell, parse_m_range(args.m_range))
    rep = walls_mod.classify_point(v, pt, wall_list, ctx)
    out = chamber_record(rep)
    if rep.kind == "OnWall" and pc is not None:
        # wall_set labels every C_m it holds
        label = rep.wall.label
        out["codim0"] = label is not None
        if label is not None:
            out["m"] = label
    return out


def cmd_intervals(args) -> dict:
    pc = pell_mod.solve_generator(args.n, args.ell)
    lam = parse_frac(getattr(args, "lambda"))
    idx = pell_mod.interval_index(pc, lam)
    out = {"lambda": frac_str(lam), "m": idx["m"], "starred": idx["starred"]}
    if idx["m"] <= 0:
        # lam is in I_m, and in I_m* too unless it is the closed end of its piece
        out["verdict"] = "Both" if idx["starred"] else "StableSheaf"
    return out


def cmd_act(args) -> dict:
    ctx = Context(args.n)
    g = parse_gmatrix_text(args.g, args.n)
    v = parse_vector(args.v)
    image = fmgroup.act_on_vector(v, g, ctx)
    return {"g": gmatrix_record(g), "v": vector_str(v), "image": vector_str(image)}


def cmd_mobius(args) -> dict:
    ctx = Context(args.n)
    g = parse_gmatrix_text(args.g, args.n)
    z = parse_qnc(args.z, args.n)
    image = fmgroup.mobius(g, z, ctx)
    return {"g": gmatrix_record(g), "z": qnc_str(z), "image": qnc_str(image)}


def cmd_wmax(args) -> dict:
    wall_list, _, _ = walls_mod.wall_set(args.n, args.ell)
    return wmax_record(walls_mod.w_max_report(wall_list))


def _verify_report(v: MukaiVector, s0: Fraction, wall_list: list, ctx: Context) -> dict:
    """Oracle cross-check of a route's walls at the cross-section s0: those
    that cross it are the enumeration there.

    The brute scan is bound-limited: it can only see walls owning a witness
    with entries within the bound, so the sound check is containment (every
    brute wall must be enumerated); `exhaustive` reports whether the bound
    happened to cover everything the enumeration found."""
    p, q = s0.numerator, s0.denominator
    enumerated = [w for w in wall_list if walls_mod.crosses(w.shape, p, q)]
    bound = 10
    brute = {w.shape for w in oracle_mod.brute_walls(v, s0, bound, ctx)}
    fast = {w.shape for w in enumerated}
    return {
        "cross_section": frac_str(s0),
        "enumerated": len(enumerated),
        "brute_force_bound": bound,
        "agree": brute <= fast,
        "exhaustive": brute == fast,
    }


def cmd_verify(args) -> dict:
    wall_list, s0, _ = walls_mod.wall_set(args.n, args.ell)
    return _verify_report(MukaiVector(1, 0, -args.ell), s0, wall_list, Context(args.n))


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on first use.  Parsing leaves
    it unchanged: each parse fills a fresh Namespace, subcommand defaults
    included, and a bad command line raises UsageError."""
    ap = _Parser(
        prog="stabwalls",
        description="Exact wall-and-chamber computations for rank-one "
        "ideal-sheaf classes on abelian surfaces",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, m_range=None):
        p.add_argument("--n", type=int, required=True, help="(H^2)/2")
        p.add_argument("--ell", type=int, required=True, help="v = (1, 0, -ell)")
        if m_range:
            p.add_argument("--m-range", default=m_range, help="label range lo..hi")

    p = sub.add_parser("walls", help="wall set, JSON and optional SVG")
    p.add_argument("--n", type=int, required=True, help="(H^2)/2")
    p.add_argument("--ell", type=int, default=0, help="v = (1, 0, -ell)")
    p.add_argument("--m-range", default="-2..2", help="label range lo..hi")
    p.add_argument("--v", help='explicit class "r,d,a" (needs --s0; negative r as --v=-1,0,3)')
    p.add_argument("--s0", help="cross-section abscissa for --v (negative as --s0=-3/2)")
    p.add_argument("--window", default="-3:1:3/2", help="smin:smax:tmax")
    p.add_argument("--svg", help="write an SVG diagram to this path")
    p.add_argument("--verify", action="store_true", help="run the brute-force oracle")
    p.set_defaults(fn=cmd_walls)

    p = sub.add_parser("pell", help="generator, iterates, isotropic pairs")
    common(p, m_range="-3..3")
    p.set_defaults(fn=cmd_pell)

    p = sub.add_parser("numsol", help="numerical solutions of (1,0,-ell)")
    common(p, m_range="-3..3")
    p.set_defaults(fn=cmd_numsol)

    p = sub.add_parser("classify", help="chamber classification of a point")
    common(p, m_range="-2..2")
    p.add_argument("--s", required=True, help="s coordinate (rational; negative as --s=-3/2)")
    p.add_argument("--t2", required=True, help="t^2 coordinate (positive rational)")
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("intervals", help="slope interval index and verdict")
    common(p)
    p.add_argument("--lambda", required=True, help="slope (rational; negative as --lambda=-3/2)")
    p.set_defaults(fn=cmd_intervals)

    p = sub.add_parser("act", help="lattice action of a group matrix")
    p.add_argument("--n", type=int, required=True)
    p.add_argument(
        "--g", required=True, help='matrix "a,b;c,d" with surd entries (negative a as --g=-1,0;0,1)'
    )
    p.add_argument("--v", required=True, help='vector "r,d,a" (negative r as --v=-1,0,0)')
    p.set_defaults(fn=cmd_act)

    p = sub.add_parser("mobius", help="half-plane action of a group matrix")
    p.add_argument("--n", type=int, required=True)
    p.add_argument(
        "--g", required=True, help='matrix "a,b;c,d" with surd entries (negative a as --g=-1,0;0,1)'
    )
    p.add_argument(
        "--z", required=True, help='point "x+y*i", field coefficients (negative x as --z=-1+1*i)'
    )
    p.set_defaults(fn=cmd_mobius)

    p = sub.add_parser("wmax", help="outermost wall and Gieseker ranges")
    common(p)
    p.set_defaults(fn=cmd_wmax)

    p = sub.add_parser("verify", help="oracle cross-check of the enumeration")
    common(p)
    p.set_defaults(fn=cmd_verify)
    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        payload = args.fn(args)
    except (PreconditionError, ValueError, ZeroDivisionError, OSError) as exc:
        if isinstance(exc, OSError) and exc.filename is None:
            raise  # not a bad --svg path but a timeout or an OS failure
        emit({"error": {"type": type(exc).__name__, "message": str(exc)}})
        return 2
    except InvariantViolation as exc:
        emit({"error": {"type": type(exc).__name__, "message": str(exc)}})
        return 3
    emit(payload)
    return 0


if __name__ == "__main__":
    sys.exit(main())
