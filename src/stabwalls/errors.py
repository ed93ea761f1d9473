"""Exception hierarchy.

PreconditionError subclasses map to CLI exit code 2 (bad input / unmet
precondition); InvariantViolation subclasses map to exit code 3 (a bug:
an internal consistency check failed).
"""


class StabwallsError(Exception):
    pass


class PreconditionError(StabwallsError):
    pass


class InvariantViolation(StabwallsError):
    pass


class UsageError(PreconditionError):
    """A command line that argparse rejects."""


class NonIntegral(PreconditionError):
    pass


class DegenerateV(PreconditionError):
    pass


class BadCrossSection(PreconditionError):
    pass


class SquareCase(PreconditionError):
    pass


class AccumulationPoint(PreconditionError):
    pass


class NoWalls(PreconditionError):
    pass


class NotInGHat(PreconditionError):
    pass


class IntegralityViolation(InvariantViolation):
    pass


class LowerHalfPlane(InvariantViolation):
    pass
