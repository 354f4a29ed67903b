"""Builders tying the formal machinery to the Towers of Hanoi.

For N discs on pegs 1..3 (all discs starting on peg 1, destination peg 3)
this module constructs:

* a context-free grammar whose single generated word is the optimal
  2^N - 1 move sequence,
* the one-state pushdown automaton derived from that grammar, which
  emits the same sequence while draining its stack,
* the classic recursive solver, and
* an exhaustive breadth-first oracle, over integer-coded positions, that
  certifies minimality and uniqueness of the shortest solution at small N.

The grammar and automaton share a naming scheme: a terminal/stack symbol
``p_ij`` is the move of the top disc from peg i to peg j, and a
nonterminal ``h_ij(n)`` stands for the whole task of relocating a tower
of n discs from peg i to peg j.
"""

from collections import namedtuple

from .grammar import _CHUNK, Grammar, Production, nonterminal, terminal
from .hanoi import HanoiNonterminal, InvalidDiscCount, MoveSymbol
from .pda import Pda, StackSymbol, pda_from_grammar

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


class HanoiInstance(namedtuple("HanoiInstance", "n_discs")):
    """A puzzle instance: N discs to carry from peg 1 to peg 3."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace too goes through __new__

    def __new__(cls, n_discs: int):
        if n_discs < 1:
            raise InvalidDiscCount(f"need at least one disc, got {n_discs}")
        return super().__new__(cls, n_discs)


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


def recursive_chunks(n_discs: int, sink) -> None:
    """The textbook recursion, as codes handed to sink in lists of exactly
    _CHUNK, the last one shorter: moving n discs from src to dst moves n-1
    discs onto the spare peg, carries the largest disc across, then moves
    the n-1 discs on top of it.

    The words of the six min(n, 10)-disc tasks are built first by that
    rule, and taller tasks run on an explicit stack, so the recursion
    nests no calls and holds no word. A 10-disc word and the middle move
    after it make 1,024 codes, so every fourth middle move ends a chunk.
    """
    if n_discs < 1:
        raise InvalidDiscCount(f"need at least one disc, got {n_discs}")
    code = {(i, j): MoveSymbol.of(i, j).code for i, j in PEG_PAIRS}
    low = min(n_discs, 10)
    words = {pair: [code[pair]] for pair in PEG_PAIRS}
    for _ in range(low - 1):
        words = {(i, j): words[i, 6 - i - j] + [code[i, j]] + words[6 - i - j, j]
                 for i, j in PEG_PAIRS}
    stack, chunk = [], []
    n, src, dst = n_discs, 1, 3
    while True:
        while n > low:
            aux = 6 - src - dst
            stack.append((code[src, dst], n - 1, aux, dst))
            n, dst = n - 1, aux
        chunk += words[src, dst]
        if not stack:
            break
        move, n, src, dst = stack.pop()
        chunk.append(move)
        if len(chunk) >= _CHUNK:
            sink(chunk)
            chunk = []
    sink(chunk)


def recursive_solve(instance: HanoiInstance) -> tuple[MoveSymbol, ...]:
    """recursive_chunks' word as moves, used as an independent reference."""
    moves: list[MoveSymbol] = []
    recursive_chunks(instance.n_discs, lambda chunk: moves.extend(map(MoveSymbol.parse, chunk)))
    return tuple(moves)


class BfsResult(namedtuple("BfsResult", "sequence shortest_path_count")):
    """The shortest solution and the number of shortest solutions."""

    __slots__ = ()


def _legal_moves(n_discs: int):
    """The move relation of the N-disc puzzle on integer positions.

    Base-3 digit d-1 of a position is the peg (0..2) of disc d, so the
    start tower is 0 and the goal tower is 3^N - 1. A position's legal
    moves depend only on the top disc of each peg, so the rule is applied
    once per triple of top discs, and moving disc t from peg a to peg b
    adds (b - a) * 3^(t-1). Returns (base, table, legal_moves):
    legal_moves(position) is the position's legal moves, each with the
    delta it adds to the position, in PEG_PAIRS order. table[position %
    base] is the same tuple where those low digits show all three pegs,
    else None: legal_moves then takes the unseen pegs' top discs from the
    higher digits, read once per value of position // base.
    """
    empty = n_discs + 1  # the "top disc" of an empty peg: larger than any disc
    rules, high, merged = {}, {}, {}

    def by_tops(top):
        if top not in rules:
            rules[top] = tuple((MoveSymbol.of(i, j), (j - i) * 3 ** (top[i - 1] - 1))
                               for i, j in PEG_PAIRS if top[i - 1] < top[j - 1])
        return rules[top]

    # Top discs of every pattern of the low digits, one digit at a time:
    # disc d on peg p tops p unless a smaller disc already does.
    low = min(n_discs, 6)
    tops = [(empty, empty, empty)]
    for disc in range(1, low + 1):
        tops = [t if t[peg] < empty else t[:peg] + (disc,) + t[peg + 1:]
                for peg in range(3) for t in tops]
    base = len(tops)

    def legal_moves(position: int) -> tuple:
        rest = position // base
        if rest not in high:  # top discs among discs low+1..N
            top, digits = [empty] * 3, rest
            for disc in range(low + 1, n_discs + 1):
                digits, peg = divmod(digits, 3)
                top[peg] = min(top[peg], disc)
            high[rest] = tuple(top)
        key = tops[position % base], high[rest]
        if key not in merged:  # a low top disc hides the high ones below it
            merged[key] = by_tops(tuple(t if t < empty else h for t, h in zip(*key)))
        return merged[key]

    return base, [None if empty in t else by_tops(t) for t in tops], legal_moves


def _breadth_first(moves: tuple, source: int, near: bytearray):
    """Yield the layers of a search from source over the move relation
    moves of _legal_moves: for distance 0, 1, ..., the positions at that
    distance, and a dict of their shortest-path counts that are not 1. A
    position's count is the sum of the counts of its neighbours one layer
    nearer source. Each reached position is marked in near with its
    distance mod 3, plus 1; 0 is unreached. Neighbours differ in distance
    by at most one, so the marks tell the next layer from the current and
    the previous ones."""
    base, table, legal_moves = moves
    mark = near[source] = 1
    layer, ways = [source], {}
    while layer:
        yield layer, ways
        mark = mark % 3 + 1
        following, counts = [], {}
        for position in layer:
            w = ways.get(position, 1) if ways else 1
            for _, delta in table[position % base] or legal_moves(position):
                succ = position + delta
                seen = near[succ]
                if not seen:
                    near[succ] = mark
                    following.append(succ)
                    if w != 1:
                        counts[succ] = w
                elif seen == mark:
                    counts[succ] = counts.get(succ, 1) + w
        layer, ways = following, counts


def bfs_optimal(n_discs: int, max_discs: int | None = BFS_MAX_DISCS) -> BfsResult:
    """Exhaustive shortest-path search over all legal positions.

    Returns one shortest solving sequence plus the number of distinct
    shortest solutions, counted layer by layer without enumerating paths.
    The returned sequence is deterministic: at every position along the
    reconstruction the lexicographically smallest (from, to) move that
    stays on a shortest path is taken.

    The state space is 3^N positions, one byte each, so callers are
    capped at max_discs (pass None to lift the cap at their own risk).
    """
    if n_discs < 1:
        raise InvalidDiscCount(f"need at least one disc, got {n_discs}")
    if max_discs is not None and n_discs > max_discs:
        raise CapExceeded(
            f"breadth-first search over 3^{n_discs} positions exceeds the "
            f"{max_discs}-disc cap"
        )
    near = bytearray(3 ** n_discs)  # first, so a size that cannot be held fails at once
    start, goal = 0, 3 ** n_discs - 1
    moves = _legal_moves(n_discs)
    legal_moves = moves[2]

    # One search from the goal: disc moves are reversible, so the move graph
    # is undirected and its goal->start path count is the start->goal count.
    for _, ways in _breadth_first(moves, goal, near):
        if near[start]:  # start's layer: no nearer position is left to find
            count = ways.get(start, 1)
            break

    # Reconstruct one shortest path greedily; legal_moves() lists moves
    # in lexicographic order, so the first on-shortest-path move wins.
    sequence = []
    position = start
    while position != goal:
        nearer = (near[position] + 1) % 3 + 1
        for mv, delta in legal_moves(position):
            if near[position + delta] == nearer:
                sequence.append(mv)
                position += delta
                break
        else:
            raise AssertionError("shortest-path reconstruction lost its way")
    return BfsResult(tuple(sequence), count)


def grammar_step_limit(n_discs: int) -> int:
    """Comfortable rewrite budget for the N-disc grammar (needs 2^N - 1)."""
    return 2 ** (n_discs + 1)


def pda_step_limit(n_discs: int) -> int:
    """Comfortable transition budget for the N-disc run (needs 2^(N+1) - 2)."""
    return 2 ** (n_discs + 2)
