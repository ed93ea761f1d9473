"""No module of the package reaches into another module's private names."""

import ast
from pathlib import Path

SRC = Path(__file__).parent.parent / "src" / "stabwalls"


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
    """No predicate sees a float: `float(...)`, `math.sqrt(...)` and
    `.to_float()` are called only by charge.phase (display), the surd
    to_float helpers and the oracle's floating-point scan."""
    allowed = {"charge.py", "surd.py", "oracle.py"}
    offences = []
    for path in sorted(SRC.glob("*.py")):
        if path.name in allowed:
            continue
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
