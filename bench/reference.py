"""Independent reference for the benchmark.

It computes the optimal Hanoi word from a closed form and the exact bytes
the CLI must print for every input the benchmark generates. Nothing here
imports hanoilang, so a defect in the package cannot hide in its own
oracle.
"""

import hashlib
import re
from functools import lru_cache
from pathlib import Path

PEGS = (1, 2, 3)
CODES = {(s, d): f"p{s}{d}" for s in PEGS for d in PEGS if s != d}
PEG_INDEX = {code: (s - 1, d - 1) for (s, d), code in CODES.items()}

# A disc whose parity matches N travels 1 -> 3 -> 2 -> 1; the others
# travel 1 -> 2 -> 3 -> 1.
SAME_PARITY_CYCLE = (1, 3, 2, 1)
OTHER_PARITY_CYCLE = (1, 2, 3, 1)

GOLDEN_FILE = Path("tests") / "data" / "hanoi5_word.txt"

NUMBER = re.compile(rb"-?[0-9]+(?:\.[0-9]+)?(?:[eE][-+]?[0-9]+)?")


class OracleError(RuntimeError):
    """The reference disagrees with itself or with the golden file."""


@lru_cache(maxsize=None)
def optimal_codes(n: int) -> tuple[str, ...]:
    """The optimal N-disc word, peg 1 to peg 3, as 'pij' codes.

    Move k (1-based) moves disc d = 1 + (trailing zero bits of k), and it
    is that disc's (k >> d)-th move (0-based) along its fixed cycle.
    """
    word = []
    for k in range(1, 2 ** n):
        disc = (k & -k).bit_length()
        turn = (k >> disc) % 3
        cycle = SAME_PARITY_CYCLE if (n - disc) % 2 == 0 else OTHER_PARITY_CYCLE
        word.append(CODES[cycle[turn], cycle[turn + 1]])
    return tuple(word)


def _recursive_codes(n: int, src: int = 1, dst: int = 3) -> list[str]:
    if n == 0:
        return []
    aux = 6 - src - dst
    return _recursive_codes(n - 1, src, aux) + [CODES[src, dst]] + _recursive_codes(n - 1, aux, dst)


def self_check(root: Path) -> None:
    """Check the closed form against a plain recursion and the golden file."""
    for n in range(1, 11):
        if list(optimal_codes(n)) != _recursive_codes(n):
            raise OracleError(f"closed form and recursion disagree at N={n}")
    golden = (root / GOLDEN_FILE).read_bytes()
    if golden != solve_text(5):
        raise OracleError(f"{GOLDEN_FILE} differs from the reference 5-disc word")


# --- expected outputs ----------------------------------------------------


class Template:
    """Expected text with a number in each gap between literal pieces:
    the timings the CLI prints. Everything else must match byte for byte."""

    def __init__(self, *pieces: str):
        self.pieces = tuple(p.encode() for p in pieces)

    def match(self, data: bytes) -> list[float] | None:
        """The numbers in the gaps, or None when data does not fit."""
        numbers = []
        pos = 0
        last = len(self.pieces) - 1
        for i, piece in enumerate(self.pieces):
            if not data.startswith(piece, pos):
                return None
            pos += len(piece)
            if i == last:
                return numbers if pos == len(data) else None
            found = NUMBER.match(data, pos)
            if found is None:
                return None
            numbers.append(float(found.group()))
            pos = found.end()
        return numbers


class Digest:
    """Expected output known only by its SHA-256, for output that is
    hashed while it is drained instead of being kept."""

    def __init__(self, data: bytes):
        self.hexdigest = hashlib.sha256(data).hexdigest()


def solve_text(n: int) -> bytes:
    return (" ".join(optimal_codes(n)) + "\n").encode()


def stream_text(n: int) -> bytes:
    return ("\n".join(optimal_codes(n)) + "\n").encode()


def summary(engine: str, n: int) -> Template:
    """The stderr line of `solve` in text and stream mode."""
    return Template(
        f"engine={engine} n_discs={n} move_count={2 ** n - 1} elapsed_ms=",
        " verified=true\n",
    )


@lru_cache(maxsize=None)
def solve_json(engine: str, n: int) -> Template:
    """The `solve --format json` record, printed with indent=2."""
    moves = ",\n".join(f'    "{code}"' for code in optimal_codes(n))
    return Template(
        "{\n"
        f'  "engine": "{engine}",\n'
        f'  "n_discs": {n},\n'
        '  "moves": [\n'
        f"{moves}\n"
        "  ],\n"
        f'  "move_count": {2 ** n - 1},\n'
        '  "elapsed_ms": ',
        ',\n  "verified": true\n}\n',
    )


def compare_output(n: int) -> Template:
    """`compare` stdout for N within the breadth-first cap: four engines."""
    count = 2 ** n - 1
    engines = ("grammar", "pda", "recursive", "bfs")
    pieces = [f"{engines[0]}: {count} moves in "]
    for engine in engines[1:]:
        pieces.append(f" ms\n{engine}: {count} moves in ")
    pieces.append(f" ms\nagreement: {len(engines)} engines, {count} moves\n")
    return Template(*pieces)


def verify_output(legal: bool, solved: bool, checked: int,
                  index: int | None = None, reason: str | None = None) -> bytes:
    lines = [f"legal: {'true' if legal else 'false'}"]
    if not legal:
        lines += [f"failing_index: {index}", f"failure_reason: {reason}"]
    lines += [f"final_solved: {'true' if solved else 'false'}", f"moves_checked: {checked}"]
    return ("\n".join(lines) + "\n").encode()


# --- verify inputs with known verdicts -----------------------------------

VERIFY_KINDS = ("optimal", "empty-source", "larger-on-smaller", "truncated")


def _illegal_move(pegs: list[list[int]], kind: str, rng) -> str | None:
    """A move that breaks the rule named by kind on this board, if any."""
    if kind == "empty-source":
        options = [
            (s, d) for s in range(3) for d in range(3)
            if s != d and not pegs[s]
        ]
    else:
        options = [
            (s, d) for s in range(3) for d in range(3)
            if s != d and pegs[s] and pegs[d] and pegs[s][-1] > pegs[d][-1]
        ]
    if not options:
        return None
    s, d = rng.choice(options)
    return CODES[s + 1, d + 1]


def verify_case(n: int, kind: str, fraction: float, rng) -> tuple[bytes, bytes, int, int]:
    """One `verify` input and its verdict.

    Returns (stdin bytes, expected stdout, expected exit code, moves the
    validator must check). Faults go in at the first board at or after
    fraction of the word where the rule can be broken; the rest of the
    optimal word follows them, so the whole input is parsed but only the
    prefix is replayed.
    """
    codes = optimal_codes(n)
    total = len(codes)
    if kind == "optimal":
        return _lines(codes), verify_output(True, True, total), 0, total
    if kind == "truncated":
        keep = min(total - 1, max(1, int(fraction * total)))
        return _lines(codes[:keep]), verify_output(True, False, keep), 1, keep
    pegs = [list(range(n, 0, -1)), [], []]
    first = int(fraction * total)
    for index in range(total + 1):
        if index >= first:
            bad = _illegal_move(pegs, kind, rng)
            if bad is not None:
                word = codes[:index] + (bad,) + codes[index:]
                expected = verify_output(False, False, index + 1, index, kind)
                return _lines(word), expected, 1, index + 1
        if index < total:
            s, d = PEG_INDEX[codes[index]]
            pegs[d].append(pegs[s].pop())
    raise OracleError(f"no board of the {n}-disc word allows a {kind} move")


def _lines(codes) -> bytes:
    return ("\n".join(codes) + "\n").encode()
