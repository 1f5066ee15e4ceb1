"""Choreography extraction toolkit.

Parse networks of communicating processes, check them, and extract
choreographies that describe the same protocol globally; project
choreographies back to networks; compare behaviours; generate, fuzz,
and benchmark test corpora.
"""

__version__ = "0.1.0"

from .epp import MergeError, epp, merge
from .equiv import SimBudget, bisimilar
from .extraction import extract
from .parser import (
    ParseError,
    parse_choreography,
    parse_network,
    parse_program,
    pretty,
)
from .strategies import STRATEGY_NAMES, Strategy
from .wellformed import check_guardedness, check_well_formed

__all__ = [
    "MergeError",
    "ParseError",
    "STRATEGY_NAMES",
    "SimBudget",
    "Strategy",
    "__version__",
    "bisimilar",
    "check_guardedness",
    "check_well_formed",
    "epp",
    "extract",
    "merge",
    "parse_choreography",
    "parse_network",
    "parse_program",
    "pretty",
]
