"""micro-asp: a miniature answer-set system built around a CDCL solver with
pluggable treatments of expensive constraints (full grounding, lazy
instantiation, eager and post propagators), benchmark generators, a
brute-force semantic oracle, and a decision-tree portfolio selector."""

from .cdcl import Budget, SolveResult, SolveStats, Solver
from .grounder import (
    AtomIndex,
    GroundProgram,
    GroundingError,
    ground_deferred_violations,
    ground_program,
    ground_rule,
    herbrand_universe,
    naive_ground_program,
)
from .model import (
    Atom,
    Comparison,
    GroundRule,
    Literal,
    Program,
    Rule,
    Term,
    is_supported,
    is_violated,
    nogood_of,
)
from .oracle import enumerate_stable_models, is_stable_model, reduct
from .parser import ParseError, SafetyError, parse_program, program_to_text
from .strategies import StrategyKind, solve

__version__ = "0.1.0"

__all__ = [
    "Atom",
    "AtomIndex",
    "Budget",
    "Comparison",
    "GroundProgram",
    "GroundRule",
    "GroundingError",
    "Literal",
    "ParseError",
    "Program",
    "Rule",
    "SafetyError",
    "SolveResult",
    "SolveStats",
    "Solver",
    "StrategyKind",
    "Term",
    "enumerate_stable_models",
    "ground_deferred_violations",
    "ground_program",
    "ground_rule",
    "herbrand_universe",
    "is_stable_model",
    "is_supported",
    "is_violated",
    "naive_ground_program",
    "nogood_of",
    "parse_program",
    "program_to_text",
    "reduct",
    "solve",
    "__version__",
]
