"""Towers of Hanoi domain model: pegs, moves, rule checking and replay.

Pegs are numbered 1..3 and discs are identified by their size, 1 being
the smallest. A move is legal when its source peg is nonempty and it
never places a larger disc on a smaller one.
"""

from bisect import bisect_left
from collections import namedtuple
from functools import cache

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


class MoveSymbol(str):
    """One disc transfer, "take the top disc of peg src and put it on dst",
    which is its "pij" text: a move equals, hashes and orders as that
    text, so ordering is lexicographic on (src, dst), which is also the
    order the breadth-first oracle tries moves in.
    """

    __slots__ = ()

    def __new__(cls, src: int, dst: int):
        if src not in PEGS or dst not in PEGS:
            raise ValueError(f"pegs must be in 1..3, got {src}->{dst}")
        if src == dst:
            raise ValueError("a move must use two distinct pegs")
        return super().__new__(cls, f"p{src}{dst}")

    src = property(lambda self: int(self[1]))
    dst = property(lambda self: int(self[2]))
    code = property(str.__str__, doc="The text as a plain str.")

    def __getnewargs__(self):
        return self.src, self.dst

    def __repr__(self) -> str:
        return f"MoveSymbol(src={self.src}, dst={self.dst})"

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
# word's text against the period of the moves of its _PERIOD_DISCS smallest discs.
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


@cache
def _period_text(m: int, odd: int, sep: str) -> str:
    """Moves 1..3 * 2^m of the optimal word of any n >= m discs, n % 2 ==
    odd, as text: each code followed by sep, and '???' for every 2^m-th, a
    larger disc's. Discs 1..m repeat their moves with this period: doubled
    from disc 1, the list gets disc d's at moves 2^(d-1) * (2 * turn + 1)."""
    word = ["???"] * 3
    for disc in range(1, m + 1):
        word *= 2
        cycle = _CYCLES[(odd - disc) & 1]
        for turn in range(3):
            move = _CANONICAL_MOVES[cycle[turn] + 1, cycle[(turn + 1) % 3] + 1]
            word[((2 * turn + 1) << (disc - 1)) - 1] = move.code
    return sep.join(word) + sep


class Board:
    """A mutable board for fast replay, checked by the two puzzle rules in
    place; tests compare it with a replay that validates every position.

    Only the top min(n, 64) discs are laid out on peg 1. Disc d cannot
    move before 2^(d-1) - 1 earlier moves, so no input anyone can read
    reaches a disc below the 64th: the verdicts are those of the full
    tower, in memory bounded by 64 discs, not by n. table maps each of the
    six move codes to its (source list, target list). played counts the
    legal moves replayed; reason is None until the first illegal move, and
    then its label; departure is None while the text has followed the
    optimal word's, and then the index of the first cell that did not.
    """

    __slots__ = ("n_discs", "_pegs", "table", "played", "reason", "departure")

    def __init__(self, n_discs: int):
        if n_discs < 1:
            raise InvalidDiscCount(f"need at least one disc, got {n_discs}")
        self.n_discs = n_discs
        self._pegs = (list(range(min(n_discs, 64), 0, -1)), [], [])
        self.table = {
            mv.code: (self._pegs[mv.src - 1], self._pegs[mv.dst - 1])
            for mv in _CANONICAL_MOVES.values()
        }
        self.played, self.reason, self.departure = 0, None, None

    @property
    def pegs(self) -> tuple:
        """pegs[i] holds peg i+1's discs bottom to top. While the board
        follows the optimal word, they are laid out when asked."""
        if self.departure is None:
            _lay_out(self._pegs, self.n_discs, self.played, min(self.n_discs, 64))
        return self._pegs

    def _word(self, start: int, size: int, sep: str):
        """size characters of the optimal word's text from character start,
        cells of a code and sep, cut at its end, or at move 2^64 - 1, which
        no input reaches: slices of the period's text, and move_at's code
        at each 2^m-th cell."""
        n = self.n_discs
        period = _period_text(min(n, _PERIOD_DISCS), n & 1, sep)
        block = len(period) // 3
        stop = min(start + size, 4 * ((1 << min(n, 64)) - 1))
        while start < stop:
            at = start % len(period)
            piece = period[at:at + block - 4 - at % block] or move_at(n, start // 4 + 1).code + sep
            yield piece[:stop - start]
            start += len(piece)

    def run(self, text: str) -> None:
        """Replay text, move codes each followed by one whitespace
        character (the last one's may be missing), up to the first illegal
        move, which sets played to its index and reason to its label,
        "empty-source" or "larger-on-smaller", and leaves the board as it
        was before that move. From then on the board takes no more text.

        While the board follows the optimal word, text is compared slice
        by slice with that word's text for its separator, text[3], a space
        or a newline; the first differing character, divided by 4, is the
        departure. From there on, for good, text is split and each move
        checked on the pegs, and a token that is no code raises KeyError."""
        if self.reason is not None:
            return
        if self.departure is None:
            sep, done = text[3:4] or " ", 0
            for piece in self._word(4 * self.played, len(text), sep) if sep in " \n" else ():
                if text[done:done + len(piece)] != piece:  # the first difference, by bisection
                    done += bisect_left(range(len(piece)), True,
                                        key=lambda i: text[done:done + i + 1] != piece[:i + 1])
                    break
                done += len(piece)
            else:
                done += done == len(text)  # a missing last separator too
            cells = done // 4
            self.played += cells
            if 4 * cells >= len(text):
                return
            self.departure = self.played
            _lay_out(self._pegs, self.n_discs, self.departure, min(self.n_discs, 64))
            text = text[4 * cells:]
        table = self.table
        index = self.played - 1
        for index, code in enumerate(text.split(), self.played):
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
    board.run(" ".join(moves))
    return board.report()
