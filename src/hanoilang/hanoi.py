"""Towers of Hanoi domain model: pegs, moves, rule checking and replay.

Pegs are numbered 1..3 and discs are identified by their size, 1 being
the smallest. A move is legal when its source peg is nonempty and it
never places a larger disc on a smaller one.
"""

from collections import namedtuple
from operator import attrgetter

PEGS = (1, 2, 3)
# A bad token is quoted by at most this many characters, so a message about
# it stays short whatever the length of the input.
QUOTE_CHARS = 64


class InvalidDiscCount(ValueError):
    """Disc count outside the supported range (must be >= 1)."""


class MoveParseError(ValueError):
    """Textual move token does not encode a valid move."""


def quote_token(token: str) -> str:
    """repr(token), or the repr of its first QUOTE_CHARS characters and '...'."""
    if len(token) <= QUOTE_CHARS:
        return repr(token)
    return f"{token[:QUOTE_CHARS]!r}..."


class MoveSymbol(namedtuple("MoveSymbol", "src dst code")):
    """One disc transfer, "take the top disc of peg src and put it on dst".

    Built from src and dst; code, the "pij" text form, is kept as a third
    field because it is read once per move on the hot paths. Ordering is
    lexicographic on (src, dst), which is also the order the breadth-first
    oracle tries moves in.
    """

    __slots__ = ()

    def __new__(cls, src: int, dst: int):
        if src not in PEGS or dst not in PEGS:
            raise ValueError(f"pegs must be in 1..3, got {src}->{dst}")
        if src == dst:
            raise ValueError("a move must use two distinct pegs")
        return super().__new__(cls, src, dst, f"p{src}{dst}")

    @classmethod
    def _make(cls, fields):  # _replace too; code must name the move of src and dst
        src, dst, code = fields
        if (move := cls(src, dst)).code != code:
            raise ValueError(f"code {code!r} does not name the move {move.code}")
        return move

    def __getnewargs__(self):
        return self.src, self.dst

    def __repr__(self) -> str:
        return f"MoveSymbol(src={self.src}, dst={self.dst})"

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
                f"bad move token {quote_token(token)}: "
                "expected 'pij' with two distinct pegs in 1..3"
            ) from None


_CANONICAL_MOVES: dict[tuple[int, int], MoveSymbol] = {
    (src, dst): MoveSymbol(src, dst) for src in PEGS for dst in PEGS if src != dst
}
_MOVES_BY_CODE: dict[str, MoveSymbol] = {mv.code: mv for mv in _CANONICAL_MOVES.values()}


class HanoiNonterminal(namedtuple("HanoiNonterminal", "src dst n")):
    """A pending subplan, "carry the top n discs from peg src to peg dst"."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace too goes through __new__

    def __new__(cls, src: int, dst: int, n: int):
        if src not in PEGS or dst not in PEGS:
            raise ValueError(f"pegs must be in 1..3, got {src}->{dst}")
        if src == dst:
            raise ValueError("a subplan must use two distinct pegs")
        if n < 1:
            raise ValueError(f"disc count must be >= 1, got {n}")
        return super().__new__(cls, src, dst, n)

    def __str__(self) -> str:
        return f"h{self.src}{self.dst}({self.n})"


class ValidationReport(namedtuple(
        "ValidationReport", "legal failing_index failure_reason final_solved moves_checked")):
    """Outcome of replaying a move sequence from the initial tower.
    Truthy iff every move was legal."""

    __slots__ = ()

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
