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

__version__ = "0.1.0"

# The module each name of __all__ comes from. A name is imported on first
# access (PEP 562), so a call of the CLI loads only the modules it runs.
_SOURCES = {
    "constructions": ("HanoiInstance", "bfs_optimal", "build_hanoi_grammar", "build_hanoi_pda",
                      "grammar_step_limit", "pda_step_limit", "recursive_solve"),
    "grammar": ("derive_full", "derive_step", "derive_streaming", "enumerate_language"),
    "hanoi": ("MoveSymbol", "validate_sequence"),
    "pda": ("StackSymbol", "is_deterministic", "pda_from_grammar", "run_to_empty_stack"),
}

__all__ = sorted(name for names in _SOURCES.values() for name in names)


def __getattr__(name: str):
    """A name of __all__, or a submodule, imported on first access."""
    source = next((module for module, names in _SOURCES.items() if name in names), name)
    if source not in (*_SOURCES, "cli"):  # neither a name of __all__ nor a submodule
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    module = import_module(f".{source}", __name__)
    globals()[name] = value = module if source == name else getattr(module, name)
    return value
