"""Structural checks on the package source: module boundaries and import
layers, no bare asserts, no floats, every def reached by a command, and the
names the benchmark traces."""

import ast
import graphlib
import importlib
import importlib.util
import inspect
import json
import sys
from pathlib import Path

SRC = Path(__file__).parent.parent / "src" / "stabwalls"
BENCH_SPANS = Path(__file__).parent.parent / "bench" / "spans.py"


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def test_no_cross_module_private_access():
    paths = sorted(SRC.glob("*.py"))
    assert len(paths) > 1
    offences = []
    for path in paths:
        tree = ast.parse(path.read_text())
        modules = set()  # local names bound to modules of the package
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    if node.module is None:
                        modules.add(alias.asname or alias.name)
                    elif _private(alias.name):
                        offences.append(f"{path.name}:{node.lineno} imports {alias.name}")
            elif isinstance(node, ast.Import):
                modules.update((a.asname or a.name).split(".")[0] for a in node.names)
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in modules
                and _private(node.attr)
            ):
                offences.append(f"{path.name}:{node.lineno} reads {node.value.id}.{node.attr}")
    assert offences == []


def _internal_imports(path: Path) -> set[str]:
    """The package modules that one module of the package imports."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is None:
                out.update(alias.name for alias in node.names)
            else:
                out.add(node.module.split(".")[0])
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("stabwalls."):
            out.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            out.update(
                a.name.split(".")[1] for a in node.names if a.name.startswith("stabwalls.")
            )
    return out


def test_import_layers():
    """The package's own imports form no cycle, and fmgroup, the group
    actions, sits below the wall layer: it imports none of walls, the
    output modules, the oracle or the CLI, so walls may act by the group."""
    graph = {path.stem: _internal_imports(path) for path in sorted(SRC.glob("*.py"))}
    assert len(graph) > 1 and all(deps <= set(graph) for deps in graph.values())
    assert graph["fmgroup"] & {"walls", "jsonio", "svg", "oracle", "cli"} == set()
    tuple(graphlib.TopologicalSorter(graph).static_order())  # CycleError names a cycle


def test_no_assert_statements():
    """Invariant checks raise errors.InvariantViolation subclasses: an
    `assert` vanishes under `python -O` and would not map to exit code 3."""
    offences = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert offences == []


def test_no_float_outside_display():
    """No predicate sees a float: no module calls `float(...)`,
    `math.sqrt(...)` or a `.to_float()`; the floating-point cross-checks
    of the tests convert with `paper_checks.surd_float`."""
    offences = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            is_float = isinstance(f, ast.Name) and f.id == "float"
            is_to_float = isinstance(f, ast.Attribute) and f.attr == "to_float"
            is_math_sqrt = (
                isinstance(f, ast.Attribute)
                and f.attr == "sqrt"
                and isinstance(f.value, ast.Name)
                and f.value.id == "math"
            )
            if is_float or is_to_float or is_math_sqrt:
                offences.append(f"{path.name}:{node.lineno}")
    assert offences == []


def _defs(tree: ast.Module):
    """(qualified name, first line) of every def in a module, methods and
    nested functions included; a decorated def starts at its first
    decorator, as its code object does."""
    stack = [(tree, "")]
    while stack:
        node, prefix = stack.pop()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = prefix + child.name
                if not isinstance(child, ast.ClassDef):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    yield name, first
                stack.append((child, name + "."))
            else:
                stack.append((child, prefix))


def _imported_packages(tree: ast.Module) -> set[str]:
    """The top-level packages a module imports from, relative imports
    aside."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0:
            out.add(node.module.split(".")[0])
        elif isinstance(node, ast.Import):
            out.update(a.name.split(".")[0] for a in node.names)
    return out


def test_text_formats_live_in_jsonio():
    """jsonio owns every text format: each parser under src/ is one of
    its `parse_*` defs.  cli keeps flags, payloads and dispatch: it defines
    no flag parser, no JSON writer and no second `verify` crossing rule
    (`_verify_wall_set`), imports nothing from `json` and never touches
    stdout.  lattice reads no text, so it needs no `fractions`."""
    parsers = [
        f"{path.stem}.{name}"
        for path in sorted(SRC.glob("*.py"))
        for name, _ in _defs(ast.parse(path.read_text()))
        if name.split(".")[-1].lstrip("_").startswith("parse")
    ]
    assert parsers and [p for p in parsers if not p.startswith("jsonio.parse_")] == []
    cli = ast.parse((SRC / "cli.py").read_text())
    names = {name.split(".")[-1].lstrip("_") for name, _ in _defs(cli)}
    assert {x for x in names if x.startswith(("parse", "emit", "write"))} == set()
    assert "verify_wall_set" not in names
    assert "json" not in _imported_packages(cli)
    assert not any(isinstance(x, ast.Attribute) and x.attr == "stdout" for x in ast.walk(cli))
    assert "fractions" not in _imported_packages(ast.parse((SRC / "lattice.py").read_text()))


def _command_argvs(svg_path: str) -> list[list[str]]:
    """Every command, the square and Pell routes and the error exits."""
    return [
        ["walls", "--n", "1", "--ell", "3", "--verify", "--svg", svg_path],
        ["walls", "--n", "1", "--ell", "4", "--m-range=-1..1"],
        ["walls", "--n", "1", "--v", "1,0,-3", "--s0=2"],
        ["walls", "--n", "1", "--ell", "2", "--window=1:0:1"],
        ["walls", "--n", "1", "--ell", "2", "--m-range=3"],
        ["pell", "--n", "2", "--ell", "1", "--m-range=-1..1"],
        ["pell", "--n", "2", "--ell", "1", "--m-range=0..1"],
        ["pell", "--n", "1", "--ell", "4"],
        ["numsol", "--n", "1", "--ell", "5", "--m-range=-1..1"],
        ["numsol", "--n", "1", "--ell", "4"],
        ["classify", "--n", "1", "--ell", "2", "--s=-3/2", "--t2=1/4"],
        ["classify", "--n", "1", "--ell", "2", "--s=0", "--t2=5"],
        ["classify", "--n", "1", "--ell", "2", "--m-range=-3..3", "--s=-3/2", "--t2=1/100"],
        ["classify", "--n", "1", "--ell", "2", "--s=-1/10", "--t2=1"],
        ["intervals", "--n", "1", "--ell", "2", "--lambda=-3/2"],
        ["intervals", "--n", "1", "--ell", "3", "--lambda=5/3"],
        ["intervals", "--n", "2", "--ell", "4", "--lambda=2"],
        ["act", "--n", "1", "--g", "1,0;0,-1", "--v", "1,-1,1"],
        ["act", "--n", "1", "--g", "2,0;0,1", "--v", "1,0,0"],
        ["act", "--n", "1", "--g", "1,2;1,1", "--v", "1,1/2,0"],
        ["act", "--n", "1", "--g", "-1,0;0,1", "--v", "1,0,0"],
        ["act", "--n", "4", "--g", "1,sqrt(4);0,1", "--v", "2,-3,5"],
        ["act", "--n", "4", "--g", "1,1;0,1", "--v", "1,0,0"],
        ["mobius", "--n", "2", "--g", "sqrt(2),1;1,1*sqrt(2)", "--z", "1/2+1*i"],
        ["mobius", "--n", "1", "--g", "0,1;1,0", "--z", "1+1*sqrt(1)*i"],
        ["mobius", "--n", "1", "--g", "1,0;0,1", "--z", "1-1*i"],
        ["mobius", "--n", "8", "--g", "sqrt(8),7;1,sqrt(8)", "--z", "1+1*i"],
        ["wmax", "--n", "1", "--ell", "4"],
        ["verify", "--n", "0", "--ell", "3"],
    ]


# Defs that no command runs yet but that stay under src/, each with its
# reason.  The test below fails once one of them runs again, so the entry
# goes when it is no longer needed.
UNSERVED = {
    # bench/spans.py traces it by name; `classify` reads the wall's label
    # instead, and labels on the `walls --v` route will call it again
    "walls.is_codim0",
}


def test_every_function_serves_a_command(tmp_path, capsys):
    """Every def under src/ runs in some CLI command: what only the tests
    need lives in the tests, apart from the UNSERVED above."""
    from stabwalls import cli

    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    # start cold, as a fresh process does: an earlier test may have built
    # the parser, and a cached build_parser would never be entered again
    cli.build_parser.cache_clear()
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        for argv in _command_argvs(str(tmp_path / "walls.svg")):
            cli.main(argv)
    finally:
        sys.setprofile(previous)
    capsys.readouterr()
    src = SRC.resolve()
    seen = {
        (Path(code.co_filename).resolve(), code.co_firstlineno)
        for code in entered
        if Path(code.co_filename).resolve().parent == src
    }
    assert seen, "stabwalls was not imported from src/"
    missing = [
        f"{path.stem}.{name}"
        for path in sorted(src.glob("*.py"))
        for name, first in _defs(ast.parse(path.read_text()))
        if (path, first) not in seen
    ]
    assert sorted(missing) == sorted(UNSERVED)


def test_bench_traced_names_resolve():
    """Every TRACED name of bench/spans.py is a function of the package,
    defined in the MODULES entry it names, so a traced benchmark run can
    wrap it: a refactor that drops or moves one fails here, not only in
    the traced benchmark run."""
    spec = importlib.util.spec_from_file_location("bench_spans", BENCH_SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    unresolved = []
    for dotted in spans.TRACED:
        module, attr = dotted.split(".")
        fn = getattr(importlib.import_module(f"stabwalls.{module}"), attr, None)
        defined_there = inspect.isfunction(fn) and fn.__module__ == f"stabwalls.{module}"
        if module not in spans.MODULES or not defined_there:
            unresolved.append(dotted)
    assert unresolved == []
    for module in spans.MODULES:
        importlib.import_module(f"stabwalls.{module}")


def test_fraction_builds_do_not_grow_with_the_walls(tmp_path, capsys):
    """walls --n 1 --ell 144 and --ell 64 list 1,255 and 331 walls, and
    build the same number of Fractions, with and without --svg: a wall
    stays integers from the kernel to the printed and drawn bytes, and
    Fractions are built only at the edges (the parsed flags, the
    cross-section, the window)."""
    from reference_output import fraction_builds
    from stabwalls import cli

    counts = {}
    for ell, size in ((144, 1255), (64, 331)):
        for svg in ((), ("--svg", str(tmp_path / "walls.svg"))):
            code, counts[ell, bool(svg)] = fraction_builds(
                cli.main, ["walls", "--n", "1", "--ell", str(ell), *svg]
            )
            assert code == 0
            assert len(json.loads(capsys.readouterr().out)["walls"]) == size
    assert counts[144, False] == counts[64, False]
    assert counts[144, True] == counts[64, True]
