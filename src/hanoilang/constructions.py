"""Builders tying the formal machinery to the Towers of Hanoi.

For N discs on pegs 1..3 (all discs starting on peg 1, destination peg 3)
this module constructs:

* a context-free grammar whose single generated word is the optimal
  2^N - 1 move sequence,
* the one-state pushdown automaton derived from that grammar, which
  emits the same sequence while draining its stack,
* the classic recursive solver, and
* an exhaustive breadth-first oracle that certifies minimality and
  uniqueness of the shortest solution at small N.

The grammar and automaton share a naming scheme: a terminal/stack symbol
``p_ij`` is the move of the top disc from peg i to peg j, and a
nonterminal ``h_ij(n)`` stands for the whole task of relocating a tower
of n discs from peg i to peg j.
"""

from collections import deque
from dataclasses import dataclass
from typing import NamedTuple

from .grammar import Grammar, Production, nonterminal, terminal
from .hanoi import (
    HanoiNonterminal,
    HanoiState,
    InvalidDiscCount,
    MoveSymbol,
    apply_move,
    initial_state,
)
from .pda import PDA_STATE, Pda, StackSymbol, pda_from_grammar

# All ordered peg pairs, lexicographically. Loops below iterate in this
# order so built artifacts are reproducible symbol-for-symbol.
PEG_PAIRS = ((1, 2), (1, 3), (2, 1), (2, 3), (3, 1), (3, 2))

BFS_MAX_DISCS = 10

STACK_BOTTOM = StackSymbol("z0")


class CapExceeded(ValueError):
    """A size-capped operation was asked to exceed its cap."""


def spare_peg(src: int, dst: int) -> int:
    """The unique third peg once src and dst are fixed."""
    if src == dst or not {src, dst} <= {1, 2, 3}:
        raise ValueError(f"need two distinct pegs out of 1..3, got {src} and {dst}")
    return 6 - src - dst


@dataclass(frozen=True)
class HanoiInstance:
    """A puzzle instance: disc count plus a peg role assignment."""

    n_discs: int
    source: int = 1
    target: int = 3
    auxiliary: int = 2

    def __post_init__(self):
        if self.n_discs < 1:
            raise InvalidDiscCount(f"need at least one disc, got {self.n_discs}")
        if {self.source, self.target, self.auxiliary} != {1, 2, 3}:
            raise ValueError(
                "source/target/auxiliary must be pegs 1..3 in some order, got "
                f"({self.source}, {self.target}, {self.auxiliary})"
            )


def build_hanoi_grammar(n_discs: int) -> Grammar:
    """Grammar over move terminals whose one word solves N discs.

    Terminals: the 6 moves p_ij. Nonterminals: h_ij(n) for 1 <= n <= N.
    Rules: h_ij(1) -> p_ij, and for n >= 2
    h_ij(n) -> h_ik(n-1) p_ij h_kj(n-1) with k the spare peg.
    Start symbol h_13(N). Every nonterminal has exactly one rule, so the
    language is a single word.
    """
    if n_discs < 1:
        raise InvalidDiscCount(f"need at least one disc, got {n_discs}")
    moves = {(i, j): terminal(MoveSymbol.of(i, j)) for i, j in PEG_PAIRS}
    tasks = {
        (i, j, n): nonterminal(HanoiNonterminal(i, j, n))
        for n in range(1, n_discs + 1)
        for i, j in PEG_PAIRS
    }
    productions = [
        Production(tasks[i, j, 1], (moves[i, j],)) for i, j in PEG_PAIRS
    ]
    for n in range(2, n_discs + 1):
        for i, j in PEG_PAIRS:
            k = spare_peg(i, j)
            productions.append(
                Production(
                    tasks[i, j, n],
                    (tasks[i, k, n - 1], moves[i, j], tasks[k, j, n - 1]),
                )
            )
    return Grammar(
        terminals=frozenset(moves.values()),
        nonterminals=frozenset(tasks.values()),
        start=tasks[1, 3, n_discs],
        productions=tuple(productions),
    )


def build_hanoi_pda(n_discs: int) -> Pda:
    """One-state automaton that replays the N-disc solution off its stack,
    derived from the N-disc grammar.

    The stack alphabet holds the 6 move symbols (observable, so popping
    one emits the move), the task symbols h_ij(n) for n up to N-1, and
    the bottom marker z0, which takes the rule of h_13(N). Every
    transition is an epsilon move: a run unwinds z0 into the full move
    sequence and deletes it move by move.
    """
    return pda_from_grammar(build_hanoi_grammar(n_discs), STACK_BOTTOM)


def recursive_solve(instance: HanoiInstance) -> tuple[MoveSymbol, ...]:
    """Classic textbook recursion, used as an independent reference.

    Move n-1 discs onto the spare peg, carry the largest disc across,
    then move the n-1 discs on top of it.
    """
    moves: list[MoveSymbol] = []

    def go(n: int, src: int, dst: int) -> None:
        if n == 0:
            return
        aux = spare_peg(src, dst)
        go(n - 1, src, aux)
        moves.append(MoveSymbol.of(src, dst))
        go(n - 1, aux, dst)

    go(instance.n_discs, instance.source, instance.target)
    return tuple(moves)


class BfsResult(NamedTuple):
    sequence: tuple
    shortest_path_count: int


def bfs_optimal(n_discs: int, max_discs: int | None = BFS_MAX_DISCS) -> BfsResult:
    """Exhaustive shortest-path search over all legal positions.

    Returns one shortest solving sequence plus the number of distinct
    shortest solutions, counted layer by layer without enumerating paths.
    The returned sequence is deterministic: at every position along the
    reconstruction the lexicographically smallest (from, to) move that
    stays on a shortest path is taken.

    The state space is 3^N positions, so callers are capped at
    max_discs (pass None to lift the cap at their own risk).
    """
    if n_discs < 1:
        raise InvalidDiscCount(f"need at least one disc, got {n_discs}")
    if max_discs is not None and n_discs > max_discs:
        raise CapExceeded(
            f"breadth-first search over 3^{n_discs} positions exceeds the "
            f"{max_discs}-disc cap"
        )
    all_moves = [MoveSymbol.of(i, j) for i, j in PEG_PAIRS]

    def neighbours(state: HanoiState):
        for mv in all_moves:
            source = state.peg(mv.src)
            if not source:
                continue
            destination = state.peg(mv.dst)
            if destination and destination[-1] < source[-1]:
                continue
            yield mv, apply_move(state, mv)

    start = initial_state(n_discs)
    goal = HanoiState(((), (), tuple(range(n_discs, 0, -1))))
    if start == goal:  # unreachable for n_discs >= 1, kept for clarity
        return BfsResult((), 1)

    # Pass 1: distances and shortest-path counts grown outward from the
    # start. Counts accumulate along edges that step to the next layer.
    dist = {start: 0}
    ways = {start: 1}
    frontier = deque([start])
    while frontier:
        state = frontier.popleft()
        for _, succ in neighbours(state):
            if succ not in dist:
                dist[succ] = dist[state] + 1
                ways[succ] = ways[state]
                frontier.append(succ)
            elif dist[succ] == dist[state] + 1:
                ways[succ] += ways[state]

    # Pass 2: distances to the goal. Disc moves are reversible, so the
    # same neighbour relation searches the transposed graph.
    to_goal = {goal: 0}
    frontier = deque([goal])
    while frontier:
        state = frontier.popleft()
        for _, succ in neighbours(state):
            if succ not in to_goal:
                to_goal[succ] = to_goal[state] + 1
                frontier.append(succ)

    # Reconstruct one shortest path greedily; neighbours() yields moves
    # in lexicographic order, so the first on-shortest-path move wins.
    sequence = []
    state = start
    while state != goal:
        for mv, succ in neighbours(state):
            if to_goal[succ] == to_goal[state] - 1:
                sequence.append(mv)
                state = succ
                break
        else:
            raise AssertionError("shortest-path reconstruction lost its way")
    return BfsResult(tuple(sequence), ways[goal])


def grammar_step_limit(n_discs: int) -> int:
    """Comfortable rewrite budget for the N-disc grammar (needs 2^N - 1)."""
    return 2 ** (n_discs + 1)


def pda_step_limit(n_discs: int) -> int:
    """Comfortable transition budget for the N-disc run (needs 2^(N+1) - 2)."""
    return 2 ** (n_discs + 2)
