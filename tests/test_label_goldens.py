"""Byte goldens of the commands that walk the Pell orbit: `pell`, `numsol`,
`classify`, `intervals`, `wmax` and labelled `walls` listings.

`goldens/label_commands.json` holds, for each argv of ARGVS, the exit code
and the exact stdout; the test replays every argv and compares the bytes.
"""

import json
import math
from fractions import Fraction as F
from pathlib import Path

import pytest

from stabwalls.cli import main

GOLDENS = Path(__file__).parent / "goldens" / "label_commands.json"

# C_40 of (1, 2): center and radius^2; C_-40 is its mirror in s = 0
C40 = F(2094232192940929332692027310337, 1480845785007705294702019308528)
R40 = F(1, 2192904238975086931363395619611051675784601004010131253526784)


def _near_root(ell: int, digits: int, offset: int) -> F:
    """(isqrt(l * 10^(2*digits)) + offset) / 10^digits, a slope near sqrt(l)."""
    scale = 10**digits
    return F(math.isqrt(ell * scale * scale) + offset, scale)


def _classify(n, ell, m_range, s, t2):
    return ["classify", "--n", str(n), "--ell", str(ell), f"--m-range={m_range}",
            f"--s={s}", f"--t2={t2}"]


def _intervals(n, ell, lam):
    return ["intervals", "--n", str(n), "--ell", str(ell), f"--lambda={lam}"]


ARGVS = [
    ["pell", "--n", "1", "--ell", "2", "--m-range=-100..100"],
    ["pell", "--n", "2", "--ell", "3"],
    ["pell", "--n", "3", "--ell", "2"],
    ["pell", "--n", "1", "--ell", "61"],
    ["pell", "--n", "4", "--ell", "3"],
    ["pell", "--n", "8", "--ell", "3"],
    ["numsol", "--n", "3", "--ell", "5"],
    # on C_40, on C_-40, and inside C_-40 below its top
    _classify(1, 2, "-40..40", C40, R40),
    _classify(1, 2, "-40..40", -C40, R40),
    _classify(1, 2, "-40..40", -C40, R40 / 2),
    _classify(1, 7, "-3..0", F(-53, 20), F(1, 100000)),
    _intervals(1, 2, _near_root(2, 40, 7)),
    _intervals(1, 2, -_near_root(2, 40, -3)),
    _intervals(2, 3, _near_root(3, 30, 1)),
    _intervals(3, 2, -_near_root(2, 25, 2)),
    _intervals(1, 61, _near_root(61, 30, -1)),
    _intervals(4, 3, -_near_root(3, 20, 5)),
    _intervals(2, 4, F(2)),  # an accumulation point: exit 2
    ["wmax", "--n", "1", "--ell", "2"],
    ["wmax", "--n", "1", "--ell", "7"],
    ["wmax", "--n", "2", "--ell", "3"],
    ["wmax", "--n", "1", "--ell", "4"],
    ["walls", "--n", "2", "--ell", "3", "--m-range=-6..6"],
    ["walls", "--n", "4", "--ell", "3", "--m-range=-6..6"],
    ["walls", "--n", "6", "--ell", "5", "--m-range=-6..6"],
]


def _goldens() -> list:
    return json.loads(GOLDENS.read_text())


def test_golden_argvs_are_the_listed_ones():
    assert [g["argv"] for g in _goldens()] == ARGVS


@pytest.mark.parametrize("golden", _goldens(), ids=lambda g: " ".join(g["argv"][:5]))
def test_label_command_bytes(golden, capsys):
    code = main(list(golden["argv"]))
    assert (code, capsys.readouterr().out) == (golden["exit"], golden["stdout"])
