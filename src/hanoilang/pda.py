"""Generic pushdown automaton types, step relation and deterministic runner.

Configurations keep the stack top at the front, and a transition's pushed
word replaces the consumed top verbatim (its first symbol becomes the new
top). Transition keys are (state, input letter, stack top); a None letter
marks an epsilon move. The deterministic runner accepts by emptying the
stack. pda_from_grammar builds the one-state automaton that runs a
grammar's leftmost derivation.

Each Pda compiles its transitions once into an integer table: states and
stack symbols become ids, epsilon moves sit in a flat list indexed by
state and stack top, and input-letter moves in a small dict. The
deterministic runner loops over that table on an integer stack. step
stays symbolic; iterating it is the runner's checked reference, as
derive_step is for the grammar's compiled derivation.
"""

from collections import namedtuple
from enum import Enum
from typing import Any, Callable

from .grammar import Grammar

PDA_STATE = "q0"

# The compiled payload of a stack symbol that reports nothing.
_SILENT = object()


class PdaError(ValueError):
    """Malformed automaton detected at construction time."""


class EmptyStack(RuntimeError):
    """No transition is defined on an empty stack; the run already halted."""


class NondeterministicPda(RuntimeError):
    """The deterministic runner was given a nondeterministic automaton."""


class StackSymbol(namedtuple("StackSymbol", "payload observable", defaults=(False,))):
    """Stack alphabet element. Observable symbols report their payload to
    the run observer at the moment a transition consults them."""

    __slots__ = ()

    def __str__(self) -> str:
        return str(self.payload)


class PdaConfiguration(namedtuple("PdaConfiguration", "state remaining_input stack")):
    """Instantaneous description: state, unread input, stack (top first)."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace too goes through __new__

    def __new__(cls, state: Any, remaining_input, stack):
        return super().__new__(cls, state, tuple(remaining_input), tuple(stack))


class RunOutcome(Enum):
    EMPTY_STACK_HALT = "empty-stack-halt"
    STUCK = "stuck"
    STEP_LIMIT = "step-limit"


class RunTrace(namedtuple("RunTrace", "steps emitted outcome")):
    """Summary of one deterministic run: transitions taken, payloads
    observed along the way, and how the run ended."""

    __slots__ = ()


class DeterminismReport(namedtuple("DeterminismReport", "deterministic witness reason",
                                   defaults=(None, None))):
    """Result of the determinism check; truthy iff deterministic. On
    failure, witness names the (state, stack symbol) pair at fault."""

    __slots__ = ()

    def __bool__(self) -> bool:
        return self.deterministic


class Pda:
    """Immutable pushdown automaton, equal only to itself.

    transitions maps (state, letter-or-None, StackSymbol) to a collection
    of (target state, pushed word) pairs; missing keys mean no move.
    """

    __slots__ = ("states", "input_alphabet", "stack_alphabet", "transitions", "start_state",
                 "start_stack", "_compiled")

    def __init__(self, states, input_alphabet, stack_alphabet, transitions: dict,
                 start_state: Any, start_stack: StackSymbol):
        fields = (frozenset(states), frozenset(input_alphabet), frozenset(stack_alphabet),
                  transitions, start_state, start_stack)
        for name, value in zip(self.__slots__, fields):
            object.__setattr__(self, name, value)
        if not self.stack_alphabet:
            raise PdaError("stack alphabet must be nonempty")
        if self.start_state not in self.states:
            raise PdaError(f"start state {self.start_state!r} is not a listed state")
        if self.start_stack not in self.stack_alphabet:
            raise PdaError(f"start stack symbol {self.start_stack} is not in the stack alphabet")
        normalized = {}
        for (state, letter, top), targets in self.transitions.items():
            if state not in self.states:
                raise PdaError(f"transition from unknown state {state!r}")
            if letter is not None and letter not in self.input_alphabet:
                raise PdaError(f"transition on unknown input letter {letter!r}")
            if top not in self.stack_alphabet:
                raise PdaError(f"transition on unknown stack symbol {top}")
            entry = []
            for target, push in targets:
                if target not in self.states:
                    raise PdaError(f"transition into unknown state {target!r}")
                push = tuple(push)
                for sym in push:
                    if sym not in self.stack_alphabet:
                        raise PdaError(f"transition pushes unknown stack symbol {sym}")
                entry.append((target, push))
            normalized[(state, letter, top)] = tuple(entry)
        object.__setattr__(self, "transitions", normalized)
        # The runner's table. States and stack symbols are ids 0..; a state
        # is kept as its row, id * K for K stack symbols. epsilon[row + top]
        # is (target row, pushed ids reversed for a list stack) or None, and
        # letters[row, letter, top] the same for input moves. Only the first
        # target is kept: the runner refuses nondeterministic machines.
        # payloads[top] is what an observable top reports, else _SILENT.
        symbols = {sym: i for i, sym in enumerate(self.stack_alphabet)}
        width = len(symbols)
        rows = {state: i * width for i, state in enumerate(self.states)}
        epsilon = [None] * (len(rows) * width)
        letters = {}
        for (state, letter, top), targets in normalized.items():
            if not targets:
                continue
            target, push = targets[0]
            move = (rows[target], tuple(symbols[sym] for sym in reversed(push)))
            if letter is None:
                epsilon[rows[state] + symbols[top]] = move
            else:
                letters[rows[state], letter, symbols[top]] = move
        payloads = [sym.payload if sym.observable else _SILENT for sym in symbols]
        start = (rows[self.start_state], symbols[self.start_stack])
        object.__setattr__(self, "_compiled", (start, epsilon, letters, payloads))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")


def pda_from_grammar(grammar: Grammar, bottom: StackSymbol) -> Pda:
    """The textbook one-state CFG-to-PDA construction, epsilon moves only.

    Terminals are observable stack symbols that pop; bottom and each
    nonterminal on some right-hand side expand by the first production of
    the start symbol and of themselves, so a run emits derive_full's word.
    Raises PdaError when a nonterminal that can reach the stack has no
    production, or when bottom is also a grammar symbol.
    """
    first: dict = {}
    for prod in grammar.productions:
        first.setdefault(prod.lhs, prod.rhs)
    pending, reached = [grammar.start], {grammar.start}
    while pending:
        nt = pending.pop()
        if nt not in first:
            raise PdaError(f"nonterminal {nt} can reach the stack but has no production")
        fresh = {sym for sym in first[nt] if not sym.is_terminal} - reached
        reached |= fresh
        pending.extend(fresh)

    symbols = grammar.terminals | {sym for prod in grammar.productions for sym in prod.rhs}
    stacked = {sym: StackSymbol(sym.payload, observable=sym.is_terminal) for sym in symbols}
    if bottom in stacked.values():
        raise PdaError(f"bottom marker {bottom} is also a grammar symbol")
    pushes = {stacked[sym]: () if sym.is_terminal else first[sym]
              for sym in symbols if sym.is_terminal or sym in first}
    pushes[bottom] = first[grammar.start]
    return Pda(
        states=frozenset({PDA_STATE}),
        input_alphabet=frozenset(),
        stack_alphabet=frozenset(stacked.values()) | {bottom},
        transitions={(PDA_STATE, None, top): ((PDA_STATE, tuple(map(stacked.get, rhs))),)
                     for top, rhs in pushes.items()},
        start_state=PDA_STATE,
        start_stack=bottom,
    )


def step(pda: Pda, config: PdaConfiguration) -> set:
    """All successor configurations in one transition.

    Union of the input-consuming moves on the next letter and the epsilon
    moves; both replace the stack top with the pushed word. The empty set
    means the configuration is stuck.
    """
    if not config.stack:
        raise EmptyStack("an empty stack has no successor configuration")
    top = config.stack[0]
    rest = config.stack[1:]
    successors = set()
    for target, push in pda.transitions.get((config.state, None, top), ()):
        successors.add(PdaConfiguration(target, config.remaining_input, push + rest))
    if config.remaining_input:
        letter = config.remaining_input[0]
        for target, push in pda.transitions.get((config.state, letter, top), ()):
            successors.add(
                PdaConfiguration(target, config.remaining_input[1:], push + rest)
            )
    return successors


def is_deterministic(pda: Pda) -> DeterminismReport:
    """Check the at-most-one-move property for every (state, stack top).

    A pair passes if either (1) every input letter has at most one move and
    there is no epsilon move, or (2) no input letter has a move and there is
    at most one epsilon move. Pairs with no transitions at all pass both.
    """
    by_pair: dict[tuple, dict] = {}
    for (state, letter, top), targets in pda.transitions.items():
        if targets:
            by_pair.setdefault((state, top), {})[letter] = len(targets)
    for (state, top), moves in by_pair.items():
        eps_moves = moves.get(None, 0)
        letter_moves = {k: v for k, v in moves.items() if k is not None}
        condition_1 = eps_moves == 0 and all(v <= 1 for v in letter_moves.values())
        condition_2 = not letter_moves and eps_moves <= 1
        if condition_1 or condition_2:
            continue
        if eps_moves and letter_moves:
            reason = "both epsilon and input moves are enabled"
        elif eps_moves > 1:
            reason = f"{eps_moves} epsilon moves for one situation"
        else:
            worst = max(letter_moves.values())
            reason = f"{worst} moves on one input letter"
        return DeterminismReport(False, witness=(state, top), reason=reason)
    return DeterminismReport(True)


def run_to_empty_stack(pda: Pda, input_word, observer: Callable[[Any], None] | None = None,
                       *, step_limit: int) -> RunTrace:
    """Follow the unique transition chain until the stack drains.

    Requires a deterministic automaton. Every transition that consults an
    observable stack top reports that symbol's payload at the moment the
    transition fires: to the observer if one is given, otherwise to the
    returned trace's emitted. Ends with EMPTY_STACK_HALT when the stack and
    the input are both exhausted, STUCK when no transition applies first,
    or STEP_LIMIT. Runs on the compiled table; iterating step is the
    reference.
    """
    report = is_deterministic(pda)
    if not report:
        raise NondeterministicPda(
            f"runner needs a deterministic automaton; witness {report.witness}: {report.reason}"
        )
    if step_limit < 1:
        raise ValueError(f"step_limit must be >= 1, got {step_limit}")
    input_word = tuple(input_word)
    (row, bottom), epsilon, letters, payloads = pda._compiled
    stack = [bottom]  # top kept at the end for cheap push/pop
    pop, extend = stack.pop, stack.extend
    emitted = []
    sink = emitted.append if observer is None else observer
    position = 0
    # Pass k has taken k transitions. A for loop ends each pass with the
    # backward jump at which CPython 3.11 counts warm-up, so the loop is
    # specialized within its first call; under `while stack:` it ran about
    # twice as slowly until the eighth call.
    for steps in range(step_limit + 1):
        if not stack:
            drained_input = position == len(input_word)
            outcome = RunOutcome.EMPTY_STACK_HALT if drained_input else RunOutcome.STUCK
            break
        top = pop()
        move = epsilon[row + top]
        if move is None:
            if position < len(input_word):
                move = letters.get((row, input_word[position], top))
            if move is None:
                outcome = RunOutcome.STUCK
                break
            position += 1
        if steps == step_limit:
            outcome = RunOutcome.STEP_LIMIT
            break
        payload = payloads[top]
        if payload is not _SILENT:
            sink(payload)
        row, push = move
        extend(push)
    return RunTrace(steps=steps, emitted=tuple(emitted), outcome=outcome)
