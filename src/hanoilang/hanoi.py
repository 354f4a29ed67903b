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


# Disc d moves along a fixed 3-cycle of the pegs, 0-based: 0 -> 2 -> 1 -> 0
# when n - d is even, 0 -> 1 -> 2 -> 0 when it is odd. A Board checks the
# word against the period of the moves of its _PERIOD_DISCS smallest discs.
_CYCLES = ((0, 2, 1), (0, 1, 2))
_PERIOD_DISCS = 12


def move_at(n: int, k: int) -> MoveSymbol:
    """Move k (1-based) of the optimal n-disc word, by the closed form: it
    moves disc d = ν₂(k) + 1, and it is that disc's (k >> d)-th move,
    counted from 0, along its cycle (Hinz et al., The Tower of Hanoi --
    Myths and Maths, 2013, ch. 2)."""
    if n < 1 or k < 1 or k.bit_length() > n:  # k < 2^n without building 2^n
        raise ValueError(f"move {k} is outside 1..2^{n} - 1")
    disc = (k & -k).bit_length()
    cycle, turn = _CYCLES[(n - disc) & 1], k >> disc
    return _CANONICAL_MOVES[cycle[turn % 3] + 1, cycle[(turn + 1) % 3] + 1]


def _lay_out(pegs, n: int, k: int, top: int) -> None:
    """Set the three lists pegs, bottom to top, to discs top..1 after the
    first k moves of the optimal n-disc word. Disc d has then moved
    ⌊(k + 2^(d-1)) / 2^d⌋ times, so not at all while k < 2^(d-1)."""
    moved = min(top, k.bit_length())
    pegs[0][:] = range(top, moved, -1)
    pegs[1].clear()
    pegs[2].clear()
    for disc in range(moved, 0, -1):
        pegs[_CYCLES[(n - disc) & 1][((k >> (disc - 1)) + 1 >> 1) % 3]].append(disc)


def state_at(n: int, k: int) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """The three pegs, bottom to top, after the first k moves of the
    optimal n-disc word, 0 <= k <= 2^n - 1, by the closed form."""
    if n < 1 or k < 0 or k.bit_length() > n:
        raise ValueError(f"position {k} is outside 0..2^{n} - 1")
    pegs = ([], [], [])
    _lay_out(pegs, n, k, n)
    return tuple(map(tuple, pegs))


def _period(n: int, m: int) -> list:
    """Codes of moves 1..3 * 2^m of the optimal n-disc word, m <= n, where
    discs 1..m move, and None at every 2^m-th, where a larger disc does.
    The moves of discs 1..m repeat with this period: doubled from disc 1,
    the list gets disc d's three moves, one per turn, at moves
    2^(d-1) * (2 * turn + 1)."""
    word = [None] * 3
    for disc in range(1, m + 1):
        word *= 2
        cycle = _CYCLES[(n - disc) & 1]
        for turn in range(3):
            move = _CANONICAL_MOVES[cycle[turn] + 1, cycle[(turn + 1) % 3] + 1]
            word[((2 * turn + 1) << (disc - 1)) - 1] = move.code
    return word


class Board:
    """A mutable board for fast replay, checked by the two puzzle rules in
    place; tests compare it with a replay that validates every position.

    pegs[i] holds peg i+1's discs bottom to top. Only the top min(n, 64)
    discs are laid out on peg 1. Disc d cannot move before 2^(d-1) - 1
    earlier moves, so no input anyone can read reaches a disc below the
    64th: the verdicts are those of the full tower, in memory bounded by
    64 discs, not by n. table maps each of the six move codes to its
    (source list, target list). played counts the legal moves replayed;
    reason is None until the first illegal move, and then its label;
    departure is None while every move has followed the optimal word, and
    then the index of the first that did not.
    """

    __slots__ = ("n_discs", "pegs", "table", "played", "reason", "departure", "_period")

    def __init__(self, n_discs: int):
        if n_discs < 1:
            raise InvalidDiscCount(f"need at least one disc, got {n_discs}")
        self.n_discs = n_discs
        self.pegs = (list(range(min(n_discs, 64), 0, -1)), [], [])
        self.table = {
            mv.code: (self.pegs[mv.src - 1], self.pegs[mv.dst - 1])
            for mv in _CANONICAL_MOVES.values()
        }
        self.played, self.reason, self.departure = 0, None, None
        self._period = _period(n_discs, min(n_discs, _PERIOD_DISCS))

    def _expected(self, start: int, count: int) -> list:
        """Codes start..start + count - 1 (0-based) of the optimal word, cut
        at its end, or at move 2^64 - 1, which no input reaches: slices of
        the period of discs 1..m, m = min(n, 12), with every 2^m-th move,
        a larger disc's, patched in by move_at."""
        n, period = self.n_discs, self._period
        size, block = len(period), len(period) // 3
        stop = min(start + count, (1 << min(n, 64)) - 1)
        window = []
        for at in range(start - start % size, stop, size):
            window += period[max(start - at, 0):stop - at]
        for k in range((start // block + 1) * block, stop + 1, block):
            window[k - 1 - start] = move_at(n, k).code
        return window

    def run(self, codes) -> None:
        """Replay move codes up to the first illegal one, which sets played
        to its index and reason to its label, "empty-source" or
        "larger-on-smaller", and leaves the board as it was before that
        move. From then on the board takes no more codes.

        While the board follows the optimal word, the codes are compared
        with its next moves at once, and a match lays the pegs out by the
        closed form. From the first difference on, for good, each move is
        checked on the pegs.
        """
        if self.reason is not None:
            return
        if self.departure is None:
            codes = codes if isinstance(codes, list) else list(codes)
            expected = self._expected(self.played, len(codes))
            top = min(self.n_discs, 64)
            if codes == expected:
                self.played += len(codes)
                _lay_out(self.pegs, self.n_discs, self.played, top)
                return
            start = next((i for i, (code, move) in enumerate(zip(codes, expected))
                          if code != move), len(expected))
            self.played = self.departure = self.played + start
            _lay_out(self.pegs, self.n_discs, self.departure, top)
            codes = codes[start:]
        table = self.table
        index = self.played - 1
        for index, code in enumerate(codes, self.played):
            src, dst = table[code]
            if not src or dst and dst[-1] < src[-1]:
                self.played, self.reason = index, "larger-on-smaller" if src else "empty-source"
                return
            dst.append(src.pop())
        self.played = index + 1

    def solved(self) -> bool:
        """True when peg 3 holds all n discs."""
        return len(self.pegs[2]) == self.n_discs

    def report(self) -> ValidationReport:
        """The report on the codes replayed so far."""
        if self.reason is None:
            return ValidationReport(True, None, None, self.solved(), self.played)
        return ValidationReport(False, self.played, self.reason, False, self.played + 1)


def validate_sequence(n_discs, moves) -> ValidationReport:
    """Replay moves from the initial tower; illegality is reported, not raised.

    Stops at the first illegal move. When every move is legal, final_solved
    tells whether the end state has all discs on peg 3.
    """
    board = Board(n_discs)
    board.run(map(attrgetter("code"), moves))
    return board.report()
