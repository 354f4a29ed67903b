"""Towers of Hanoi domain model: pegs, moves, rule checking and replay.

Pegs are numbered 1..3 and discs are identified by their size, 1 being
the smallest. A move is legal when its source peg is nonempty and it
never places a larger disc on a smaller one.
"""

from dataclasses import dataclass, field

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

    def inverse(self) -> "MoveSymbol":
        return MoveSymbol.of(self.dst, self.src)

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

    @classmethod
    def parse(cls, token: str) -> "HanoiNonterminal":
        """Parse the "hij(n)" text form, e.g. "h12(4)"."""
        if (
            len(token) >= 6
            and token[0] == "h"
            and token[1] in "123"
            and token[2] in "123"
            and token[3] == "("
            and token[-1] == ")"
            and token[4:-1].isdigit()
        ):
            return cls(int(token[1]), int(token[2]), int(token[4:-1]))
        raise MoveParseError(f"bad subplan token {token!r}: expected 'hij(n)'")


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

    pegs[i] holds peg i+1's discs bottom to top. Only the top `depth`
    discs of the n-disc tower are laid out on peg 1 (all of them by
    default): a replay of m moves can move only the top m discs, so with
    m + 1 laid out peg 1 never looks empty early, and the verdicts are the
    same in memory bounded by the replay, not by n.
    """

    __slots__ = ("n_discs", "pegs")

    def __init__(self, n_discs: int, depth: int | None = None):
        if n_discs < 1:
            raise InvalidDiscCount(f"need at least one disc, got {n_discs}")
        top = n_discs if depth is None else min(n_discs, depth)
        self.n_discs = n_discs
        self.pegs = (list(range(top, 0, -1)), [], [])

    def play(self, mv: MoveSymbol) -> str | None:
        """Apply mv and return None, or return the failure label
        ("empty-source" or "larger-on-smaller") and leave the board as it was."""
        src = self.pegs[mv.src - 1]
        if not src:
            return "empty-source"
        dst = self.pegs[mv.dst - 1]
        if dst and dst[-1] < src[-1]:
            return "larger-on-smaller"
        dst.append(src.pop())
        return None

    def solved(self) -> bool:
        """True when peg 3 holds all n discs."""
        return len(self.pegs[2]) == self.n_discs


def validate_sequence(n_discs, moves) -> ValidationReport:
    """Replay moves from the initial tower; illegality is reported, not raised.

    Stops at the first illegal move. When every move is legal, final_solved
    tells whether the end state has all discs on peg 3. moves is a list or
    tuple; the board lays out only the discs that many moves can reach.
    """
    board = Board(n_discs, depth=len(moves) + 1)
    play = board.play
    for i, mv in enumerate(moves):
        reason = play(mv)
        if reason is not None:
            return ValidationReport(
                legal=False,
                failing_index=i,
                failure_reason=reason,
                final_solved=False,
                moves_checked=i + 1,
            )
    return ValidationReport(
        legal=True,
        failing_index=None,
        failure_reason=None,
        final_solved=board.solved(),
        moves_checked=len(moves),
    )
