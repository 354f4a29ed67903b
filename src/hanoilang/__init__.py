"""Towers of Hanoi as a formal language.

The package builds, for any disc count N, a context-free grammar and the
one-state pushdown automaton derived from it, whose single generated word
is the optimal 2^N - 1 move solution, alongside independent reference
solvers (the classic recursion and an exhaustive breadth-first oracle) and
a replay validator for arbitrary move sequences.

Only the documented API is re-exported here; every other name, such as the
generic Grammar and Pda types and their exceptions, is imported from its
own module.
"""

from .constructions import (
    HanoiInstance,
    bfs_optimal,
    build_hanoi_grammar,
    build_hanoi_pda,
    grammar_step_limit,
    pda_step_limit,
    recursive_solve,
)
from .grammar import derive_full, derive_step, derive_streaming, enumerate_language
from .hanoi import MoveSymbol, validate_sequence
from .pda import StackSymbol, is_deterministic, pda_from_grammar, run_to_empty_stack

__version__ = "0.1.0"

__all__ = [
    "HanoiInstance",
    "MoveSymbol",
    "StackSymbol",
    "bfs_optimal",
    "build_hanoi_grammar",
    "build_hanoi_pda",
    "derive_full",
    "derive_step",
    "derive_streaming",
    "enumerate_language",
    "grammar_step_limit",
    "is_deterministic",
    "pda_from_grammar",
    "pda_step_limit",
    "recursive_solve",
    "run_to_empty_stack",
    "validate_sequence",
]
