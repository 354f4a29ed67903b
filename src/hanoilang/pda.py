"""Generic pushdown automaton types and runners.

Configurations keep the stack top at the front, and a transition's pushed
word replaces the consumed top verbatim (its first symbol becomes the new
top). Transition keys are (state, input letter, stack top); a None letter
marks an epsilon move. Two acceptance styles are provided: a deterministic
runner that drains the stack, and a breadth-first search for acceptance by
final state. pda_from_grammar builds the one-state automaton that runs a
grammar's leftmost derivation.
"""

from dataclasses import dataclass
from enum import Enum
from typing import Any, Callable

from .grammar import Grammar

PDA_STATE = "q0"


class PdaError(ValueError):
    """Malformed automaton detected at construction time."""


class EmptyStack(RuntimeError):
    """No transition is defined on an empty stack; the run already halted."""


class NondeterministicPda(RuntimeError):
    """The deterministic runner was given a nondeterministic automaton."""


@dataclass(frozen=True)
class StackSymbol:
    """Stack alphabet element. Observable symbols report their payload to
    the run observer at the moment a transition consults them."""

    payload: Any
    observable: bool = False

    def __str__(self) -> str:
        return str(self.payload)


@dataclass(frozen=True)
class PdaConfiguration:
    """Instantaneous description: state, unread input, stack (top first)."""

    state: Any
    remaining_input: tuple
    stack: tuple

    def __post_init__(self):
        object.__setattr__(self, "remaining_input", tuple(self.remaining_input))
        object.__setattr__(self, "stack", tuple(self.stack))


class RunOutcome(Enum):
    EMPTY_STACK_HALT = "empty-stack-halt"
    ACCEPTING_STATE_HALT = "accepting-state-halt"
    STUCK = "stuck"
    STEP_LIMIT = "step-limit"


@dataclass(frozen=True)
class RunTrace:
    """Summary of one deterministic run: transitions taken, payloads
    observed along the way, and how the run ended."""

    steps: int
    emitted: tuple
    outcome: RunOutcome


@dataclass(frozen=True)
class DeterminismReport:
    """Result of the determinism check; truthy iff deterministic. On
    failure, witness names the (state, stack symbol) pair at fault."""

    deterministic: bool
    witness: tuple | None = None
    reason: str | None = None

    def __bool__(self) -> bool:
        return self.deterministic


@dataclass(frozen=True)
class AcceptanceResult:
    """Truthy iff accepted. inconclusive means the search hit its step
    limit before covering the whole reachable configuration space."""

    accepted: bool
    inconclusive: bool = False

    def __bool__(self) -> bool:
        return self.accepted


@dataclass(frozen=True, eq=False)
class Pda:
    """Immutable pushdown automaton.

    transitions maps (state, letter-or-None, StackSymbol) to a collection
    of (target state, pushed word) pairs; missing keys mean no move.
    """

    states: frozenset
    input_alphabet: frozenset
    stack_alphabet: frozenset
    transitions: dict
    start_state: Any
    start_stack: StackSymbol
    accepting: frozenset

    def __post_init__(self):
        object.__setattr__(self, "states", frozenset(self.states))
        object.__setattr__(self, "input_alphabet", frozenset(self.input_alphabet))
        object.__setattr__(self, "stack_alphabet", frozenset(self.stack_alphabet))
        object.__setattr__(self, "accepting", frozenset(self.accepting))
        if not self.stack_alphabet:
            raise PdaError("stack alphabet must be nonempty")
        if self.start_state not in self.states:
            raise PdaError(f"start state {self.start_state!r} is not a listed state")
        if self.start_stack not in self.stack_alphabet:
            raise PdaError(f"start stack symbol {self.start_stack} is not in the stack alphabet")
        if not self.accepting <= self.states:
            raise PdaError("accepting states must be a subset of the states")
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

    # One StackSymbol object per grammar symbol, so that the runner's lookups
    # match pushed symbols by identity instead of by dataclass equality.
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
        accepting=frozenset(),
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
    observable stack top reports that symbol's payload, to the observer (if
    given) and to the returned trace, at the moment the transition fires.
    Ends with EMPTY_STACK_HALT when the stack and the input are both
    exhausted, STUCK when no transition applies first, or STEP_LIMIT.
    """
    report = is_deterministic(pda)
    if not report:
        raise NondeterministicPda(
            f"runner needs a deterministic automaton; witness {report.witness}: {report.reason}"
        )
    if step_limit < 1:
        raise ValueError(f"step_limit must be >= 1, got {step_limit}")
    input_word = tuple(input_word)
    transitions = pda.transitions
    state = pda.start_state
    stack = [pda.start_stack]  # top kept at the end for cheap push/pop
    emitted = []
    steps = 0
    position = 0
    while stack:
        top = stack[-1]
        move = transitions.get((state, None, top))
        consumed = 0
        if not move and position < len(input_word):
            move = transitions.get((state, input_word[position], top))
            consumed = 1
        if not move:
            outcome = RunOutcome.STUCK
            break
        if steps >= step_limit:
            outcome = RunOutcome.STEP_LIMIT
            break
        steps += 1
        if top.observable:
            emitted.append(top.payload)
            if observer is not None:
                observer(top.payload)
        state, push = move[0]
        stack.pop()
        stack.extend(reversed(push))
        position += consumed
    else:
        drained_input = position == len(input_word)
        outcome = RunOutcome.EMPTY_STACK_HALT if drained_input else RunOutcome.STUCK
    return RunTrace(steps=steps, emitted=tuple(emitted), outcome=outcome)


def accepts_by_final_state(pda: Pda, input_word, *, step_limit: int) -> AcceptanceResult:
    """Breadth-first search for a configuration with exhausted input in an
    accepting state, within step_limit transitions.

    Conclusive False only when the whole reachable space was covered before
    the limit; otherwise the result is flagged inconclusive.
    """
    if step_limit < 1:
        raise ValueError(f"step_limit must be >= 1, got {step_limit}")

    def accepts(config):
        return not config.remaining_input and config.state in pda.accepting

    start = PdaConfiguration(pda.start_state, tuple(input_word), (pda.start_stack,))
    if accepts(start):
        return AcceptanceResult(True)
    seen = {start}
    frontier = [start]
    for _ in range(step_limit):
        successors = []
        for config in frontier:
            if not config.stack:
                continue
            for succ in step(pda, config):
                if succ in seen:
                    continue
                seen.add(succ)
                if accepts(succ):
                    return AcceptanceResult(True)
                successors.append(succ)
        if not successors:
            return AcceptanceResult(False)
        frontier = successors
    return AcceptanceResult(False, inconclusive=True)
