"""Command-line front end.

Subcommands:

* solve      -- produce the optimal move sequence with a chosen engine
* verify     -- replay a move sequence and judge legality and completion
* compare    -- run every engine and check they emit identical sequences
* enumerate  -- list every word the N-disc grammar can generate
* trace      -- show each derivation step or each automaton configuration

solve writes the moves to stdout chunk by chunk as the engine hands them
over: one space-joined line, one move per line with --stream, or a JSON
record {engine, n_discs, moves, move_count, elapsed_ms, verified}. Text
modes put a summary line on stderr, so stdout diffs against golden files.

Exit codes: 0 success, 1 semantic failure (illegal or unsolved sequence,
engine divergence), 2 usage error (bad arguments, unreadable or
unparseable input, unwritable output, enumerate/trace caps), 3 engine
failure (step limit, bfs cap, a size past the interpreter's index limit,
out of memory). A reader that closes stdout early ends the output
quietly with exit 0. A closed stdout or stderr takes output as /dev/null
would, and a closed stdin makes `verify -` exit 2.
"""

import errno
import os
import sys
import time
from contextlib import nullcontext
from itertools import islice, pairwise
from operator import attrgetter
from types import SimpleNamespace

from .constructions import (
    BFS_MAX_DISCS,
    CapExceeded,
    bfs_optimal,
    build_hanoi_grammar,
    build_hanoi_pda,
    grammar_step_limit,
    pda_step_limit,
    recursive_chunks,
)
from .grammar import (
    NoApplicableProduction,
    StepLimitExceeded,
    _CHUNK,
    _derive,
    derive_step,
    enumerate_language,
    format_form,
)
from .hanoi import QUOTE_CHARS, Board, MoveParseError, MoveSymbol, quote_token
from .pda import RunOutcome, _run, step as pda_step

# Disc-count caps on what grows exponentially in memory or output: the
# words of an enumeration, the lines of a trace, and (in constructions)
# the positions of the breadth-first search. solve and compare stream and
# have none. --unsafe-no-cap lifts all of them.
ENUMERATE_MAX = 4
TRACE_MAX = 6

# verify reads its input this many characters at a time, so its memory
# stays a fixed size whatever the length of the word.
VERIFY_CHUNK_CHARS = 1 << 13

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2
EXIT_ENGINE = 3


class EngineFailure(RuntimeError):
    """An engine could not produce a sequence (limits, caps, bad run)."""


def _note(line: str) -> None:
    """Write a line to stderr. A stderr that fails takes it, and every
    later line, as /dev/null would, and leaves the exit code alone."""
    try:
        print(line, file=sys.stderr, flush=True)
    except OSError:  # the unwritten rest goes to /dev/null at the closing flush
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stderr.fileno())


def _complain(message: str) -> None:
    _note(f"hanoilang: {message}")


def _summary_line(record: dict) -> str:
    verified = "true" if record["verified"] else "false"
    return (
        f"engine={record['engine']} n_discs={record['n_discs']} "
        f"move_count={record['move_count']} elapsed_ms={record['elapsed_ms']} "
        f"verified={verified}"
    )


_code = attrgetter("code")


def _grammar_engine(n: int, unsafe: bool, sink) -> None:
    _derive(build_hanoi_grammar(n), sink, grammar_step_limit(n), _code)


def _pda_engine(n: int, unsafe: bool, sink) -> None:
    _, outcome = _run(build_hanoi_pda(n), sink, pda_step_limit(n), _code)
    if outcome is not RunOutcome.EMPTY_STACK_HALT:
        raise EngineFailure(f"automaton run ended {outcome.value}")


def _recursive_engine(n: int, unsafe: bool, sink) -> None:
    recursive_chunks(n, sink)


def _bfs_engine(n: int, unsafe: bool, sink) -> None:
    try:
        result = bfs_optimal(n, max_discs=None if unsafe else BFS_MAX_DISCS)
    except (OverflowError, MemoryError) as exc:  # no list of 3^n positions
        reason = str(exc) or "out of memory"
        raise EngineFailure(f"breadth-first search at {n} discs: {reason}") from exc
    codes = list(map(_code, result.sequence))
    for start in range(0, len(codes), _CHUNK):
        sink(codes[start:start + _CHUNK])


# Each engine hands the N-disc word to sink as non-empty lists of move
# codes, in order and at most 2 * _CHUNK - 1 long each, or raises one of
# ENGINE_ERRORS; sink may keep a list. --unsafe-no-cap reaches the engine
# as `unsafe`.
ENGINES = {
    "grammar": _grammar_engine,
    "pda": _pda_engine,
    "recursive": _recursive_engine,
    "bfs": _bfs_engine,
}
# Built once here: a tuple written in the except clause is built each time
# the clause is checked, which an engine out of memory can leave no room for.
ENGINE_ERRORS = (EngineFailure, StepLimitExceeded, NoApplicableProduction, CapExceeded)


def _run_engine(engine: str, args, sink) -> str | None:
    """Run one engine into sink: None once it has handed over its word,
    else why it could not."""
    try:
        ENGINES[engine](args.n, args.unsafe_no_cap, sink)
        return None
    except ENGINE_ERRORS as exc:
        return str(exc)
    except MemoryError:
        # The caller reports it once out of the handler, whose traceback
        # holds the engine's frames and what filled the memory with them.
        return f"out of memory at {args.n} discs"


def _write(text: str) -> None:
    """Write text to stdout in one write: to its binary buffer, unless it
    has none, as an io.StringIO. A write larger than that buffer's own
    goes straight to the file and can end short without an error, at a
    closed pipe or a full disk: writing the rest raises that error, and a
    second short count is taken for a closed pipe."""
    binary = getattr(sys.stdout, "buffer", None)
    if binary is None:
        sys.stdout.write(text)
    elif (done := binary.write(data := text.encode())) < len(data):
        if binary.write(data[done:]) < len(data) - done:
            raise BrokenPipeError("stdout took only part of a write")


def cmd_solve(args) -> int:
    if args.stream and args.format == "json":
        _complain("--stream produces line output and cannot be combined with --format json")
        return EXIT_USAGE
    # Every format is an opening, the codes joined by a separator, and a
    # closing. JSON's give json.dumps(record, indent=2)'s bytes without its
    # indented encoder, which runs in pure Python, over 3x slower per move.
    record = {"engine": args.engine, "n_discs": args.n, "moves": None}
    opening, separator = "", "\n" if args.stream else " "
    if args.format == "json":
        import json
        opening = json.dumps(record, indent=2).split("null")[0] + '[\n    "'
        separator = '",\n    "'
    board = Board(args.n)
    count = 0
    legal = True

    def sink(chunk: list) -> None:
        nonlocal count, legal, opening
        legal = legal and board.run(chunk)[1] is None
        count += len(chunk)
        _write(opening + separator.join(chunk))
        opening = separator  # the opening went out with the first chunk

    started = time.perf_counter()
    if (failure := _run_engine(args.engine, args, sink)) is not None:
        _complain(failure)
        return EXIT_ENGINE
    elapsed_ms = round((time.perf_counter() - started) * 1000.0, 3)
    record.update(move_count=count, elapsed_ms=elapsed_ms, verified=legal and board.solved())
    # print writes the closing: at a terminal it flushes before the summary
    if args.format == "json":
        print('"\n  ]' + json.dumps(record, indent=2).split("null", 1)[1])
        return EXIT_OK
    print()
    _note(_summary_line(record))
    return EXIT_OK


def _token_chunks(source: str):
    """Yield the whitespace-separated tokens of a file, or of stdin for
    '-', one list per chunk of VERIFY_CHUNK_CHARS characters read. A token
    that a chunk boundary cuts is carried into the next list, cut to its
    first QUOTE_CHARS + 1 characters: no longer token is a move, and that
    prefix is all its quote needs."""
    if source == "-" and sys.stdin is None:  # stdin was closed
        raise OSError("stdin is closed")
    with open(source, encoding="utf-8") if source != "-" else nullcontext(sys.stdin) as handle:
        carry = ""
        while chunk := handle.read(VERIFY_CHUNK_CHARS):
            text = carry + chunk
            tokens = text.split()
            carry = "" if text[-1].isspace() else tokens.pop()[:QUOTE_CHARS + 1]
            yield tokens
        if carry:
            yield [carry]


def cmd_verify(args) -> int:
    board = Board(args.n)
    table = board.table
    seen = played = 0
    reason = None
    try:
        for tokens in _token_chunks(args.moves):
            # After an illegal move only a later unparseable token can
            # change the outcome, so the rest is read but not replayed.
            if reason is None:
                try:
                    count, reason = board.run(tokens)
                    played += count
                except KeyError:  # not a move code: reported below
                    pass
            # Tokens that the board matched with the optimal word are codes.
            if board.optimal_prefix is None and not all(map(table.__contains__, tokens)):
                try:
                    for index, token in enumerate(tokens, seen):
                        MoveSymbol.parse(token)
                except MoveParseError as exc:
                    _complain(f"token {index} ({quote_token(token)}): {exc}")
                    return EXIT_USAGE
            seen += len(tokens)
    except (OSError, UnicodeDecodeError) as exc:
        _complain(f"cannot read moves from {args.moves!r}: {exc}")
        return EXIT_USAGE
    report = board.report(played, reason)
    if args.format == "json":
        import json
        print(json.dumps({"n_discs": args.n, **report._asdict()}, indent=2))
    else:
        for field, value in report._asdict().items():
            if value is not None:
                print(f"{field}: {str(value).lower() if isinstance(value, bool) else value}")
    return EXIT_OK if report.legal and report.final_solved else EXIT_FAILURE


class _Departure:
    """A sink that counts an engine's codes and replays them on its own
    Board, whose departure is where they first leave the optimal word.
    off is that index, by a different code or by running past the word's
    end, or, once finish has run, the count of codes short of it; None if
    they never leave. tail holds the codes from off on: only a failing
    engine has any."""

    __slots__ = ("board", "count", "off", "tail")

    def __init__(self, n: int):
        self.board, self.count, self.off, self.tail = Board(n), 0, None, []

    def __call__(self, chunk: list) -> None:
        start = self.count
        self.count += len(chunk)
        if self.off is None:
            self.board.run(chunk)
            if (off := self.board.departure) is None:
                return
            self.off, chunk = off, chunk[off - start:]
        self.tail += chunk

    def finish(self) -> None:
        if self.off is None and self.count < 2 ** self.board.n_discs - 1:
            self.off = self.count

    def divergence(self, other: "_Departure") -> int | None:
        """The first index where the two engines' words differ, or None."""
        if self.off != other.off:  # up to the nearer off, both are the word
            return min(off for off in (self.off, other.off) if off is not None)
        if self.off is None or self.tail == other.tail:
            return None
        pairs = enumerate(zip(self.tail, other.tail), self.off)
        return next((i for i, (a, b) in pairs if a != b),
                    self.off + min(len(self.tail), len(other.tail)))


def cmd_compare(args) -> int:
    engines = list(ENGINES)
    if args.n > BFS_MAX_DISCS and not args.unsafe_no_cap:
        engines.remove("bfs")
        print(f"bfs: skipped (capped at {BFS_MAX_DISCS} discs)")
    runs, lines = {}, {}
    # bfs runs first: where its 3^n positions cannot be held it fails at
    # once, before any other engine runs for 2^n moves.
    for engine in sorted(engines, key=lambda engine: engine != "bfs"):
        run = runs[engine] = _Departure(args.n)
        started = time.perf_counter()
        if (failure := _run_engine(engine, args, run)) is not None:
            _complain(f"engine {engine} failed: {failure}")
            return EXIT_ENGINE
        run.finish()
        elapsed_ms = (time.perf_counter() - started) * 1000.0
        lines[engine] = f"{engine}: {run.count} moves in {elapsed_ms:.3f} ms"
    for engine in engines:
        print(lines[engine])
    reference = runs[engines[0]]
    for engine in engines[1:]:
        index = reference.divergence(runs[engine])
        if index is not None:
            print(f"divergence: {engines[0]} vs {engine} at index {index}")
            return EXIT_FAILURE
    print(f"agreement: {len(engines)} engines, {reference.count} moves")
    return EXIT_OK


def cmd_enumerate(args) -> int:
    if args.n > ENUMERATE_MAX and not args.unsafe_no_cap:
        _complain(
            f"enumeration explores every rewrite order and is capped at "
            f"{ENUMERATE_MAX} discs (see --unsafe-no-cap)"
        )
        return EXIT_USAGE
    bound = args.bound if args.bound is not None else 2 ** args.n
    if bound < 1:
        _complain(f"--bound must be at least 1, got {bound}")
        return EXIT_USAGE
    grammar = build_hanoi_grammar(args.n)
    words = enumerate_language(grammar, max_derivation_length=bound)
    for word in sorted(words):
        print(" ".join(mv.code for mv in word))
    print(f"cardinality: {len(words)}")
    return EXIT_OK


def _grammar_forms(n: int):
    grammar = build_hanoi_grammar(n)
    form = (grammar.start,)
    while form is not None:
        yield form
        form = derive_step(grammar, form)


def _pda_stacks(n: int):
    machine = build_hanoi_pda(n)
    stack = (machine.start_stack,)
    yield stack
    while stack:
        (stack,) = pda_step(machine, stack)  # deterministic: exactly one
        yield stack


def cmd_trace(args) -> int:
    if args.limit is not None and args.limit < 1:
        _complain(f"--limit must be at least 1, got {args.limit}")
        return EXIT_USAGE
    if args.n > TRACE_MAX and not args.unsafe_no_cap:
        _complain(
            f"a {args.n}-disc trace runs to about 2^{args.n + 1} lines; capped "
            f"at {TRACE_MAX} discs (see --unsafe-no-cap)"
        )
        return EXIT_USAGE
    # Lazy throughout, so --limit stops the trace early; only one of
    # entries and lines is consumed. No trace is longer than sys.maxsize.
    limit = None if args.limit is None else min(args.limit, sys.maxsize)
    if args.engine == "grammar":
        key, texts = "form", map(format_form, _grammar_forms(args.n))
        lines = (f"{prev} ⊢ {nxt}" for prev, nxt in pairwise(texts))
    else:
        key, texts = "stack", map(format_form, _pda_stacks(args.n))
        lines = (f"⟨q0, ε, {text}⟩" for text in texts)
    if args.format == "json":
        import json
        entries = [{"step": i, key: text} for i, text in enumerate(islice(texts, limit))]
        print(json.dumps(entries, indent=2, ensure_ascii=False))
    else:
        for line in islice(lines, limit):
            print(line)
    return EXIT_OK


_COMMON = {
    "--n": dict(type=int, required=True, metavar="N", help="number of discs"),
    "--unsafe-no-cap": dict(action="store_true", help="lift the disc-count caps (expect "
                            "long runtimes and large outputs)"),
}
_FORMAT = {"--format": dict(choices=("text", "json"), default="text")}

# Each subcommand's handler, help line and options: an option's name and
# its argparse keyword arguments, or a positional's dest and its own.
COMMANDS = {
    "solve": (cmd_solve, "produce the optimal move sequence", {
        **_COMMON, "--engine": dict(choices=ENGINES, default="grammar"), **_FORMAT,
        "--stream": dict(action="store_true",
                         help="print one move per line as they are produced")}),
    "verify": (cmd_verify, "replay a move sequence and judge it", {
        **_COMMON, "moves": dict(metavar="FILE",
                                 help="whitespace-separated move codes; '-' for stdin"),
        **_FORMAT}),
    "compare": (cmd_compare, "run all engines and check they agree", _COMMON),
    "enumerate": (cmd_enumerate, "list every generated word within a step bound", {
        **_COMMON, "--bound": dict(type=int, default=None, metavar="STEPS",
                                   help="max derivation steps to explore "
                                   "(default: 2^N, enough for the full word)")}),
    "trace": (cmd_trace, "show each derivation step or automaton configuration", {
        **_COMMON, "--engine": dict(choices=("grammar", "pda"), default="grammar"), **_FORMAT,
        "--limit": dict(type=int, default=None, metavar="COUNT",
                        help="print at most this many trace entries")}),
}


def build_parser() -> "argparse.ArgumentParser":
    import argparse
    parser = argparse.ArgumentParser(
        prog="hanoilang",
        description="Towers of Hanoi as a formal language: grammar, "
        "pushdown automaton, and reference solvers.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for command, (func, help_line, options) in COMMANDS.items():
        sub = subparsers.add_parser(command, help=help_line)
        for name, spec in options.items():
            sub.add_argument(name, **spec)
        sub.set_defaults(func=func)
    return parser


def _plain_args(argv):
    """The namespace build_parser's parser makes from a plain command line,
    read without argparse: a subcommand, then options by their exact long
    names and at most one positional, every value well formed and none
    starting with '-'. None for anything else, which argparse then reads,
    or rejects with its own message and exit code 2."""
    if not argv or argv[0] not in COMMANDS:
        return None
    func, _, options = COMMANDS[argv[0]]
    given = {name: spec.get("default", False if "action" in spec else None)
             for name, spec in options.items()}
    positional = next((name for name in options if name[0] != "-"), None)
    tokens = iter(argv[1:])
    for token in tokens:
        if token[:1] != "-" or token == "-":
            if positional is None or given[positional] is not None:  # none, or a second one
                return None
            token, value = positional, token
        elif token not in options:
            return None
        elif "action" in options[token]:  # a store_true flag
            given[token] = True
            continue
        else:
            value = next(tokens, "-")
            if value[:1] == "-" or value not in options[token].get("choices", (value,)):
                return None
        try:
            given[token] = options[token].get("type", str)(value)
        except ValueError:
            return None
    if any(given[name] is None for name, spec in options.items()
           if spec.get("required", name[0] != "-")):
        return None
    return SimpleNamespace(command=argv[0], func=func, **{
        name.lstrip("-").replace("-", "_"): value for name, value in given.items()})


def main(argv=None) -> int:
    unwritable = None
    for fd, name in ((1, "stdout"), (2, "stderr")):
        try:
            os.write(fd, b"")
        except OSError as exc:
            # Closed or read-only: act as /dev/null. Another stdout error, such
            # as /dev/full's, is reported once stderr is known to take it.
            if fd == 1 and exc.errno != errno.EBADF:
                unwritable = exc
            else:
                setattr(sys, name, open(os.devnull, "w"))
    if unwritable is not None:
        _complain(f"cannot write output: {unwritable}")
        return EXIT_USAGE
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = _plain_args(argv) or build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    if args.n < 1:  # every subcommand takes --n
        _complain(f"--n must be at least 1, got {args.n}")
        return EXIT_USAGE
    try:
        code = args.func(args)
        sys.stdout.flush()  # an early close shows here when the output fit the buffer
        return code
    except OSError as exc:
        # A reader that closed stdout early (`solve --stream | head`) ends the
        # output, not the run; commands catch their own read errors, so any
        # other is stdout's. Devnull on stdout keeps the shutdown flush quiet.
        if not isinstance(exc, BrokenPipeError):
            _complain(f"cannot write output: {exc}")
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK if isinstance(exc, BrokenPipeError) else EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
