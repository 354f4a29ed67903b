"""Towers of Hanoi domain model: pegs, moves, rule checking and replay.

Pegs are numbered 1..3 and discs are identified by their size, 1 being
the smallest. A move is legal when its source peg is nonempty and it
never places a larger disc on a smaller one.
"""

from dataclasses import dataclass, field
from operator import attrgetter

PEGS = (1, 2, 3)


class InvalidDiscCount(ValueError):
    """Disc count outside the supported range (must be >= 1)."""


class MoveParseError(ValueError):
    """Textual move token does not encode a valid move."""


@dataclass(frozen=True, order=True)
class MoveSymbol:
    """One disc transfer, "take the top disc of peg src and put it on dst".

    Ordering is lexicographic on (src, dst), which is also the order the
    breadth-first oracle tries moves in.
    """

    src: int
    dst: int
    # Set once at construction: a cached_property would give the instance a
    # __dict__ on first use, which makes every later read of src and dst
    # about 3x slower.
    code: str = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.src not in PEGS or self.dst not in PEGS:
            raise ValueError(f"pegs must be in 1..3, got {self.src}->{self.dst}")
        if self.src == self.dst:
            raise ValueError("a move must use two distinct pegs")
        object.__setattr__(self, "code", f"p{self.src}{self.dst}")

    def __str__(self) -> str:
        return self.code

    @classmethod
    def of(cls, src: int, dst: int) -> "MoveSymbol":
        """Return the shared instance for this move; only six exist in total.

        Long solutions contain millions of move occurrences, so hot paths
        must reference these canonical objects instead of allocating one
        per occurrence.
        """
        try:
            return _CANONICAL_MOVES[src, dst]
        except KeyError:
            return cls(src, dst)  # rejects the pair with the usual message

    @classmethod
    def parse(cls, token: str) -> "MoveSymbol":
        """Parse the "pij" text form, e.g. "p13". Strict: lowercase p, pegs 1..3.

        Returns the shared instance. The six codes are the only tokens the
        strict form accepts, so a table lookup decides it.
        """
        try:
            return _MOVES_BY_CODE[token]
        except KeyError:
            raise MoveParseError(
                f"bad move token {token!r}: expected 'pij' with two distinct pegs in 1..3"
            ) from None


_CANONICAL_MOVES: dict[tuple[int, int], MoveSymbol] = {
    (src, dst): MoveSymbol(src, dst) for src in PEGS for dst in PEGS if src != dst
}
_MOVES_BY_CODE: dict[str, MoveSymbol] = {mv.code: mv for mv in _CANONICAL_MOVES.values()}


@dataclass(frozen=True)
class HanoiNonterminal:
    """A pending subplan, "carry the top n discs from peg src to peg dst"."""

    src: int
    dst: int
    n: int

    def __post_init__(self):
        if self.src not in PEGS or self.dst not in PEGS:
            raise ValueError(f"pegs must be in 1..3, got {self.src}->{self.dst}")
        if self.src == self.dst:
            raise ValueError("a subplan must use two distinct pegs")
        if self.n < 1:
            raise ValueError(f"disc count must be >= 1, got {self.n}")

    def __str__(self) -> str:
        return f"h{self.src}{self.dst}({self.n})"


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of replaying a move sequence from the initial tower.
    Truthy iff every move was legal."""

    legal: bool
    failing_index: int | None
    failure_reason: str | None
    final_solved: bool
    moves_checked: int

    def __bool__(self) -> bool:
        return self.legal


class Board:
    """A mutable board for fast replay, checked by the two puzzle rules in
    place; tests compare it with a replay that validates every position.

    pegs[i] holds peg i+1's discs bottom to top. Only the top min(n, 64)
    discs are laid out on peg 1. Disc d cannot move before 2^(d-1) - 1
    earlier moves, so no input anyone can read reaches a disc below the
    64th: the verdicts are those of the full tower, in memory bounded by
    64 discs, not by n. table maps each of the six move codes to its
    (source list, target list).
    """

    __slots__ = ("n_discs", "pegs", "table")

    def __init__(self, n_discs: int):
        if n_discs < 1:
            raise InvalidDiscCount(f"need at least one disc, got {n_discs}")
        self.n_discs = n_discs
        self.pegs = (list(range(min(n_discs, 64), 0, -1)), [], [])
        self.table = {
            mv.code: (self.pegs[mv.src - 1], self.pegs[mv.dst - 1])
            for mv in _CANONICAL_MOVES.values()
        }

    def run(self, codes) -> tuple[int, str | None]:
        """Replay move codes up to the first illegal one.

        Returns (moves played, None), or (index, label) for the first
        illegal move, labelled "empty-source" or "larger-on-smaller", and
        leaves the board as it was before that move.
        """
        table = self.table
        index = -1
        for index, code in enumerate(codes):
            src, dst = table[code]
            if not src:
                return index, "empty-source"
            if dst and dst[-1] < src[-1]:
                return index, "larger-on-smaller"
            dst.append(src.pop())
        return index + 1, None

    def solved(self) -> bool:
        """True when peg 3 holds all n discs."""
        return len(self.pegs[2]) == self.n_discs

    def report(self, played: int, reason: str | None) -> ValidationReport:
        """The report on a replay that played `played` moves and then
        stopped at a move labelled `reason`, or ran out of moves."""
        if reason is None:
            return ValidationReport(True, None, None, self.solved(), played)
        return ValidationReport(False, played, reason, False, played + 1)


def validate_sequence(n_discs, moves) -> ValidationReport:
    """Replay moves from the initial tower; illegality is reported, not raised.

    Stops at the first illegal move. When every move is legal, final_solved
    tells whether the end state has all discs on peg 3.
    """
    board = Board(n_discs)
    return board.report(*board.run(map(attrgetter("code"), moves)))
