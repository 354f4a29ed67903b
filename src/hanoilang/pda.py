"""Generic pushdown automaton types, step relation and deterministic runner.

The automata have one state and read no input: like the paper's
automaton, which emits the solution while it empties its stack, they only
generate, so every move is an epsilon move, keyed by the stack top alone.
Stack symbols are any hashable values, and a machine lists the ones that
emit themselves when popped in one set, observable. Stacks are tuples
with the top at the front, and a transition's pushed word replaces the
consumed top verbatim (its first symbol becomes the new top). The
deterministic runner accepts by emptying the stack, and so accepts only
the empty input word. pda_from_grammar builds the automaton that runs a
grammar's leftmost derivation on the grammar's own symbols.

Each Pda compiles its transitions once into an integer table: stack
symbols become ids, and moves sit in a list indexed by stack top. The
deterministic runner is grammar._unwind, the loop the derivation runs, on
that table: a stack symbol always unwinds the same way, so the run of a
small one is recorded once and replayed. step stays symbolic; iterating
it is the runner's checked reference, as derive_step is for the
grammar's compiled derivation.
"""

from collections import namedtuple
from collections.abc import Callable
from enum import Enum

from .grammar import Grammar, _unwind


class PdaError(ValueError):
    """Malformed automaton detected at construction time."""


class EmptyStack(RuntimeError):
    """No transition is defined on an empty stack; the run already halted."""


class NondeterministicPda(RuntimeError):
    """The deterministic runner was given a nondeterministic automaton."""


class RunOutcome(Enum):
    EMPTY_STACK_HALT = "empty-stack-halt"
    STUCK = "stuck"
    STEP_LIMIT = "step-limit"


class RunTrace(namedtuple("RunTrace", "steps emitted outcome")):
    """Summary of one deterministic run: transitions taken, observable
    symbols popped along the way, and how the run ended."""

    __slots__ = ()


class DeterminismReport(namedtuple("DeterminismReport", "deterministic witness reason",
                                   defaults=(None, None))):
    """Result of the determinism check; truthy iff deterministic. On
    failure, witness names the stack symbol at fault."""

    __slots__ = ()

    def __bool__(self) -> bool:
        return self.deterministic


class Pda:
    """Immutable one-state pushdown automaton without input letters, equal
    only to itself.

    transitions maps a stack symbol to a collection of pushed words that
    may replace it on top; missing keys mean no move. Popping a symbol of
    observable emits it.
    """

    __slots__ = ("stack_alphabet", "transitions", "start_stack", "observable", "_compiled")

    def __init__(self, stack_alphabet, transitions: dict, start_stack, observable=frozenset()):
        fields = (frozenset(stack_alphabet), transitions, start_stack, frozenset(observable))
        for name, value in zip(self.__slots__, fields):
            object.__setattr__(self, name, value)
        if not self.stack_alphabet:
            raise PdaError("stack alphabet must be nonempty")
        if self.start_stack not in self.stack_alphabet:
            raise PdaError(f"start stack symbol {self.start_stack} is not in the stack alphabet")
        if stray := self.observable - self.stack_alphabet:
            raise PdaError("observable symbols not in the stack alphabet: "
                           + ", ".join(sorted(map(str, stray))))
        normalized = {}
        for top, pushes in self.transitions.items():
            if top not in self.stack_alphabet:
                raise PdaError(f"transition on unknown stack symbol {top}")
            normalized[top] = tuple(map(tuple, pushes))
            for sym in sum(normalized[top], ()):
                if sym not in self.stack_alphabet:
                    raise PdaError(f"transition pushes unknown stack symbol {sym}")
        object.__setattr__(self, "transitions", normalized)
        # The runner's table for grammar._unwind. Stack symbols are ids
        # 0..; moves[top] is the first pushed word's ids reversed for a
        # list stack, or None: the runner refuses nondeterministic
        # machines. Every move costs one step, and an observable top
        # reports itself.
        symbols = {sym: i for i, sym in enumerate(self.stack_alphabet)}
        moves = [None] * len(symbols)
        for top, pushes in normalized.items():
            if pushes:
                moves[symbols[top]] = tuple(symbols[sym] for sym in reversed(pushes[0]))
        effects = [((sym,) if sym in self.observable else (), 1) for sym in symbols]
        object.__setattr__(self, "_compiled", (symbols[self.start_stack], moves, effects))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")


def pda_from_grammar(grammar: Grammar, bottom) -> Pda:
    """The textbook CFG-to-PDA construction, one state, epsilon moves only.

    The stack holds the grammar's own symbols over bottom. Terminals are
    observable and pop; bottom and each nonterminal on some right-hand
    side expand by the first production of the start symbol and of
    themselves, so a run emits derive_full's word. Raises PdaError when a
    nonterminal that can reach the stack has no production, or when bottom
    is also a stacked grammar symbol.
    """
    pending, reached = [grammar.start], {grammar.start}
    while pending:
        nt = pending.pop()
        if not grammar.productions_for(nt):
            raise PdaError(f"nonterminal {nt} can reach the stack but has no production")
        rhs = grammar.productions_for(nt)[0].rhs
        fresh = set(rhs) - grammar.terminals - reached
        reached |= fresh
        pending.extend(fresh)

    symbols = grammar.terminals | {sym for prod in grammar.productions for sym in prod.rhs}
    if bottom in symbols:
        raise PdaError(f"bottom marker {bottom} is also a grammar symbol")
    pushes = {sym: (rules[0].rhs,) for sym in symbols if (rules := grammar.productions_for(sym))}
    pushes.update(dict.fromkeys(grammar.terminals, ((),)))
    pushes[bottom] = (grammar.productions_for(grammar.start)[0].rhs,)
    return Pda(stack_alphabet=symbols | {bottom}, transitions=pushes, start_stack=bottom,
               observable=grammar.terminals)


def step(pda: Pda, stack: tuple) -> set:
    """All successor stacks, top first, in one transition.

    Each move replaces the stack top with a pushed word. The empty set
    means the stack is stuck.
    """
    if not stack:
        raise EmptyStack("an empty stack has no successor")
    rest = stack[1:]
    return {push + rest for push in pda.transitions.get(stack[0], ())}


def is_deterministic(pda: Pda) -> DeterminismReport:
    """Check that every stack top has at most one move."""
    for top, pushes in pda.transitions.items():
        if len(pushes) > 1:
            return DeterminismReport(False, witness=top,
                                     reason=f"{len(pushes)} epsilon moves for one situation")
    return DeterminismReport(True)


def run_to_empty_stack(pda: Pda, input_word, *, step_limit: int) -> RunTrace:
    """Follow the unique transition chain until the stack drains.

    Requires a deterministic automaton. Every transition that consults an
    observable stack top reports that symbol, in order, to the returned
    trace's emitted. No move reads a letter, so the run ends
    with EMPTY_STACK_HALT when the stack drains on an empty input word,
    STUCK when it drains on a nonempty one or no transition applies first,
    or STEP_LIMIT. Runs on the compiled table (see _run); iterating step
    is the reference.
    """
    emitted: list = []
    steps, outcome = _run(pda, emitted.extend, step_limit)
    if outcome is RunOutcome.EMPTY_STACK_HALT and tuple(input_word):
        outcome = RunOutcome.STUCK
    return RunTrace(steps=steps, emitted=tuple(emitted), outcome=outcome)


def _run(pda: Pda, sink: Callable[[list], None], step_limit: int) -> tuple[int, RunOutcome]:
    """The deterministic run on the empty input word, by grammar._unwind
    on the compiled table, which hands the observable tops it pops, as
    the automaton holds them, to sink as it does, however the run ends. A
    stack symbol's recorded run is replayed when the steps left cover it.
    A top without a move is STUCK, which takes precedence over STEP_LIMIT.
    Returns (transitions taken, outcome).
    """
    report = is_deterministic(pda)
    if not report:
        raise NondeterministicPda(
            f"runner needs a deterministic automaton; witness {report.witness}: {report.reason}"
        )
    steps, _, stop = _unwind(pda._compiled, sink, step_limit)
    if stop is None:
        return steps, RunOutcome.EMPTY_STACK_HALT
    moves = pda._compiled[1]
    return steps, RunOutcome.STUCK if moves[stop] is None else RunOutcome.STEP_LIMIT
