"""Exact wall-and-chamber computations for Bridgeland stability conditions
on abelian surfaces with Picard rank 1."""

from .lattice import Context, MukaiVector, RHO, UNIT, pairing
from .surd import Surd, QnComplex, QnNumber
from .walls import Circle, VLine, Wall

__version__ = "0.1.0"

__all__ = [
    "Context",
    "MukaiVector",
    "RHO",
    "UNIT",
    "pairing",
    "Surd",
    "QnComplex",
    "QnNumber",
    "Circle",
    "VLine",
    "Wall",
    "__version__",
]
