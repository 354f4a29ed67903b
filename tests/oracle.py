"""The slow, fully checked Hanoi model that the fast paths are tested against.

HanoiState validates its invariants on every construction, and apply_move
raises on an illegal move instead of returning a label; checked_replay
replays a word on them, and optimal_position places the discs of the
optimal word by the recursion, not by the closed form. reference_bfs is
the breadth-first oracle on these states; hanoilang.constructions.bfs_optimal
runs the same search on integer-coded positions and must agree with it.
digit_legal_moves reads a position's top discs digit by digit, where
bfs_optimal looks its moves up by the top discs of its low digits.
"""

from collections import deque
from dataclasses import dataclass

from hanoilang.constructions import PEG_PAIRS, BfsResult
from hanoilang.hanoi import InvalidDiscCount, MoveSymbol


class DiscCountMismatch(ValueError):
    """A state holds a different number of discs than the caller claimed."""


class IllegalMove(ValueError):
    """A move that breaks the puzzle rules."""


class EmptySource(IllegalMove):
    """The source peg has no disc to move."""


class LargerOnSmaller(IllegalMove):
    """The moved disc would land on a smaller one."""


@dataclass(frozen=True)
class HanoiState:
    """The three pegs, each a bottom-to-top sequence of disc sizes.

    Construction validates the global invariants: the discs are exactly the
    sizes 1..N with no repeats, and every peg is strictly decreasing from
    bottom to top.
    """

    pegs: tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]

    def __post_init__(self):
        object.__setattr__(self, "pegs", tuple(tuple(p) for p in self.pegs))
        if len(self.pegs) != 3:
            raise ValueError("a state has exactly three pegs")
        discs = [d for peg in self.pegs for d in peg]
        if sorted(discs) != list(range(1, len(discs) + 1)):
            raise ValueError("discs must be exactly the sizes 1..N, once each")
        for peg in self.pegs:
            for below, above in zip(peg, peg[1:]):
                if below <= above:
                    raise ValueError("each peg must decrease strictly bottom to top")

    @property
    def n_discs(self) -> int:
        return sum(len(p) for p in self.pegs)

    def peg(self, peg_id: int) -> tuple[int, ...]:
        return self.pegs[peg_id - 1]


def initial_state(n_discs: int) -> HanoiState:
    """All discs on peg 1, largest at the bottom; pegs 2 and 3 empty."""
    if n_discs < 1:
        raise InvalidDiscCount(f"need at least one disc, got {n_discs}")
    return HanoiState((tuple(range(n_discs, 0, -1)), (), ()))


def apply_move(state: HanoiState, mv: MoveSymbol) -> HanoiState:
    """Move the top disc of mv.src onto mv.dst, returning a new state.

    Raises EmptySource or LargerOnSmaller when the move is illegal; the
    input state is never modified.
    """
    src = state.peg(mv.src)
    if not src:
        raise EmptySource(f"peg {mv.src} is empty, cannot apply {mv}")
    disc = src[-1]
    dst = state.peg(mv.dst)
    if dst and dst[-1] < disc:
        raise LargerOnSmaller(f"disc {disc} cannot sit on disc {dst[-1]} ({mv})")
    pegs = list(state.pegs)
    pegs[mv.src - 1] = src[:-1]
    pegs[mv.dst - 1] = dst + (disc,)
    return HanoiState(tuple(pegs))


def is_solved(state: HanoiState, n_discs: int) -> bool:
    """True when peg 3 holds all discs (pegs 1 and 2 empty)."""
    if state.n_discs != n_discs:
        raise DiscCountMismatch(
            f"state holds {state.n_discs} discs, expected {n_discs}"
        )
    return len(state.peg(3)) == n_discs


def optimal_position(n_discs: int, k: int) -> HanoiState:
    """The position after the first k moves of the optimal n-disc word, by
    the textbook recursion: the top n - 1 discs go to the spare peg in
    2^(n-1) - 1 moves, disc n moves, and they follow it in as many."""
    pegs = ([], [], [])
    src, dst = 0, 2
    for disc in range(n_discs, 0, -1):
        spare, half = 3 - src - dst, 1 << (disc - 1)
        if k < half:
            pegs[src].append(disc)
            dst = spare
        else:
            pegs[dst].append(disc)
            k -= half
            src = spare
    return HanoiState(tuple(pegs))


def checked_replay(n_discs: int, moves, start: int = 0) -> tuple:
    """The fields of the ValidationReport on the first `start` moves of the
    optimal word followed by moves: replayed through the checked
    apply_move / is_solved from optimal_position(n_discs, start)."""
    labels = {EmptySource: "empty-source", LargerOnSmaller: "larger-on-smaller"}
    state = optimal_position(n_discs, start)
    for i, mv in enumerate(moves, start):
        try:
            state = apply_move(state, mv)
        except (EmptySource, LargerOnSmaller) as err:
            return (False, i, labels[type(err)], False, i + 1)
    return (True, None, None, is_solved(state, n_discs), start + len(moves))


ALL_MOVES = [MoveSymbol.of(i, j) for i, j in PEG_PAIRS]


def neighbours(state: HanoiState):
    """The legal moves from state and the states they lead to, in
    lexicographic (PEG_PAIRS) order."""
    for mv in ALL_MOVES:
        source = state.peg(mv.src)
        if not source:
            continue
        destination = state.peg(mv.dst)
        if destination and destination[-1] < source[-1]:
            continue
        yield mv, apply_move(state, mv)


def digit_legal_moves(n_discs: int):
    """The move relation on integer positions, decoded digit by digit:
    maps a position to its (move, next position) pairs, legal moves only,
    in PEG_PAIRS order. hanoilang.constructions._legal_moves looks the
    same moves up from a table of top discs and must agree with it."""
    moves = [(mv, mv.src - 1, mv.dst - 1) for mv in ALL_MOVES]
    empty = n_discs + 1  # the "top disc" of an empty peg: larger than any disc
    place = [3 ** d for d in range(n_discs)]

    def legal_moves(position: int) -> list[tuple[MoveSymbol, int]]:
        # Top disc of each peg: the smallest disc on it, found by reading
        # the digits smallest disc first until all three pegs are seen.
        top = [empty, empty, empty]
        unseen = 3
        rest = position
        for disc in range(1, n_discs + 1):
            peg = rest % 3
            rest //= 3
            if top[peg] == empty:
                top[peg] = disc
                unseen -= 1
                if not unseen:
                    break
        return [
            (mv, position + (dst - src) * place[top[src] - 1])
            for mv, src, dst in moves
            if top[src] < top[dst]
        ]

    return legal_moves


def decode_position(n_discs: int, position: int) -> HanoiState:
    """The state of an integer-coded position: base-3 digit d-1 is the peg
    (0..2) of disc d."""
    pegs = ([], [], [])
    for disc in range(1, n_discs + 1):
        position, peg = divmod(position, 3)
        pegs[peg].insert(0, disc)
    return HanoiState(tuple(pegs))


def reference_bfs(n_discs: int) -> BfsResult:
    """bfs_optimal on checked HanoiState positions, without its cap, and
    searched twice: path counts grown from the start, distances from the
    goal. bfs_optimal takes both from one search from the goal, so the
    two count the shortest solutions independently; the lexicographic
    reconstruction is the same."""
    start = initial_state(n_discs)
    goal = HanoiState(((), (), tuple(range(n_discs, 0, -1))))

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


def reference_path_counts(source: HanoiState) -> tuple[dict, dict]:
    """Distances from source and shortest-path counts to every state, the
    counts taken from their definition after the search: a state's count is
    the sum of the counts of its neighbours one step nearer source."""
    dist = {source: 0}
    order = [source]
    for state in order:  # order grows as the search reaches new states
        for _, succ in neighbours(state):
            if succ not in dist:
                dist[succ] = dist[state] + 1
                order.append(succ)
    ways = {source: 1}
    for state in order[1:]:
        ways[state] = sum(
            ways[prev] for _, prev in neighbours(state) if dist[prev] == dist[state] - 1
        )
    return dist, ways
