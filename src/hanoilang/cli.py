"""Command-line front end.

Subcommands:

* solve      -- produce the optimal move sequence with a chosen engine
* verify     -- replay a move sequence and judge legality and completion
* compare    -- run every engine and check they emit identical sequences
* enumerate  -- list every word the N-disc grammar can generate
* trace      -- show each derivation step or each automaton configuration

solve in text mode prints the moves on stdout (one space-joined line, or
one move per line with --stream) and a summary line on stderr, so stdout
stays byte-comparable against golden files. JSON mode prints a single
record {engine, n_discs, moves, move_count, elapsed_ms, verified}.

Exit codes: 0 success, 1 semantic failure (illegal or unsolved sequence,
engine divergence), 2 usage error (bad arguments, unreadable or
unparseable input, enumerate/trace caps), 3 engine failure (step limit,
solve/bfs caps, a size past the interpreter's index or recursion limits).
A reader that closes stdout early ends the output quietly with exit 0.
A closed stdout or stderr takes output as /dev/null would, and a closed
stdin makes `verify -` exit 2.
"""

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
    HanoiInstance,
    bfs_optimal,
    build_hanoi_grammar,
    build_hanoi_pda,
    grammar_step_limit,
    pda_step_limit,
    recursive_solve,
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

# Disc-count caps. Materializing a word above 24 discs needs gigabytes;
# enumeration and traces blow up far sooner. --unsafe-no-cap lifts all of
# them for people who know what they are asking for.
SOLVE_MATERIALIZED_MAX = 24
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


def _complain(message: str) -> None:
    print(f"hanoilang: {message}", file=sys.stderr)


def _summary_line(record: dict) -> str:
    verified = "true" if record["verified"] else "false"
    return (
        f"engine={record['engine']} n_discs={record['n_discs']} "
        f"move_count={record['move_count']} elapsed_ms={record['elapsed_ms']} "
        f"verified={verified}"
    )


_code = attrgetter("code")


def _hand_over(moves, sink) -> None:
    """Pass a materialized word to sink as codes, one chunk at a time."""
    for start in range(0, len(moves), _CHUNK):
        sink(list(map(_code, moves[start:start + _CHUNK])))


def _grammar_engine(n: int, unsafe: bool, sink) -> None:
    try:
        _derive(build_hanoi_grammar(n), sink, grammar_step_limit(n), _code)
    except (StepLimitExceeded, NoApplicableProduction) as exc:
        raise EngineFailure(str(exc)) from exc


def _pda_engine(n: int, unsafe: bool, sink) -> None:
    _, outcome = _run(build_hanoi_pda(n), sink, pda_step_limit(n), _code)
    if outcome is not RunOutcome.EMPTY_STACK_HALT:
        raise EngineFailure(f"automaton run ended {outcome.value}")


def _recursive_engine(n: int, unsafe: bool, sink) -> None:
    try:
        moves = recursive_solve(HanoiInstance(n))
    except RecursionError as exc:  # the recursion nests n + 1 calls deep
        raise EngineFailure(f"recursive solver at {n} discs: {exc}") from exc
    _hand_over(moves, sink)


def _bfs_engine(n: int, unsafe: bool, sink) -> None:
    try:
        result = bfs_optimal(n, max_discs=None if unsafe else BFS_MAX_DISCS)
    except CapExceeded as exc:
        raise EngineFailure(str(exc)) from exc
    except (OverflowError, MemoryError) as exc:  # no list of 3^n positions
        reason = str(exc) or "out of memory"
        raise EngineFailure(f"breadth-first search at {n} discs: {reason}") from exc
    _hand_over(result.sequence, sink)


# Each engine hands the N-disc word to sink as non-empty lists of move
# codes, in order and at most 2 * _CHUNK - 1 long each, or raises
# EngineFailure; sink may keep a list. --unsafe-no-cap reaches the engine
# as `unsafe`.
ENGINES = {
    "grammar": _grammar_engine,
    "pda": _pda_engine,
    "recursive": _recursive_engine,
    "bfs": _bfs_engine,
}


def _write_lines(out, codes) -> None:
    """Write a chunk of move codes one per line to the text stream out, in
    one write; an engine's chunks are at most 2 * _CHUNK - 1 codes long.

    When out has a binary buffer, as sys.stdout does, the chunk goes there.
    A write larger than the buffer's own goes straight to the file and
    ends short, without an error, when the reader closes the pipe. A short
    count is therefore raised as the BrokenPipeError it stands for, so the
    output ends there even when it was the last chunk. A stream without a
    binary buffer, such as an io.StringIO, takes the text.
    """
    text = "\n".join(codes) + "\n"
    binary = getattr(out, "buffer", None)
    if binary is None:
        out.write(text)
    elif binary.write(data := text.encode()) < len(data):
        raise BrokenPipeError("stdout took only part of a write")


def cmd_solve(args) -> int:
    if args.stream and args.format == "json":
        _complain("--stream produces line output and cannot be combined with --format json")
        return EXIT_USAGE
    # The grammar and pda engines stream without holding the word.
    exempt = args.unsafe_no_cap or (args.stream and args.engine in ("grammar", "pda"))
    if args.n > SOLVE_MATERIALIZED_MAX and not exempt:
        _complain(
            f"materializing {args.n} discs means 2^{args.n} - 1 moves; "
            f"capped at {SOLVE_MATERIALIZED_MAX} (see --unsafe-no-cap, "
            "or --stream with the grammar or pda engine)"
        )
        return EXIT_ENGINE
    board = Board(args.n)
    codes = []  # the whole word, kept without --stream
    count = 0
    legal = True

    def sink(chunk: list) -> None:
        nonlocal count, legal
        legal = legal and board.run(chunk)[1] is None
        count += len(chunk)
        if args.stream:
            _write_lines(sys.stdout, chunk)
        else:
            codes.extend(chunk)

    started = time.perf_counter()
    try:
        ENGINES[args.engine](args.n, args.unsafe_no_cap, sink)
    except EngineFailure as exc:
        _complain(str(exc))
        return EXIT_ENGINE
    elapsed_ms = (time.perf_counter() - started) * 1000.0
    record = {
        "engine": args.engine,
        "n_discs": args.n,
        "moves": codes,
        "move_count": count,
        "elapsed_ms": round(elapsed_ms, 3),
        "verified": legal and board.solved(),
    }
    if args.format == "json":
        # json.dumps(record, indent=2), with the codes, which need no
        # escaping, joined in its layout: its indented encoder runs in
        # pure Python, over three times slower per move.
        import json
        head, tail = json.dumps({**record, "moves": None}, indent=2).split("null", 1)
        print(head + '[\n    "' + '",\n    "'.join(codes) + '"\n  ]' + tail)
        return EXIT_OK
    if not args.stream:
        print(" ".join(codes))
    print(_summary_line(record), file=sys.stderr)
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


def cmd_compare(args) -> int:
    if args.n > SOLVE_MATERIALIZED_MAX and not args.unsafe_no_cap:
        _complain(
            f"comparing materialized words is capped at {SOLVE_MATERIALIZED_MAX} "
            "discs (see --unsafe-no-cap)"
        )
        return EXIT_ENGINE
    engines = list(ENGINES)
    if args.n > BFS_MAX_DISCS and not args.unsafe_no_cap:
        engines.remove("bfs")
        print(f"bfs: skipped (capped at {BFS_MAX_DISCS} discs)")
    sequences, lines = {}, {}
    # bfs runs first: where its 3^n positions cannot be held it fails at
    # once, before any other engine fills a list of 2^n moves.
    for engine in sorted(engines, key=lambda engine: engine != "bfs"):
        sequences[engine] = []
        started = time.perf_counter()
        try:
            ENGINES[engine](args.n, args.unsafe_no_cap, sequences[engine].extend)
        except EngineFailure as exc:
            _complain(f"engine {engine} failed: {exc}")
            return EXIT_ENGINE
        elapsed_ms = (time.perf_counter() - started) * 1000.0
        lines[engine] = f"{engine}: {len(sequences[engine])} moves in {elapsed_ms:.3f} ms"
    for engine in engines:
        print(lines[engine])
    reference = engines[0]
    for engine in engines[1:]:
        expected, got = sequences[reference], sequences[engine]
        if expected == got:
            continue
        index = next(
            (i for i, (a, b) in enumerate(zip(expected, got)) if a != b),
            min(len(expected), len(got)),
        )
        print(f"divergence: {reference} vs {engine} at index {index}")
        return EXIT_FAILURE
    print(f"agreement: {len(engines)} engines, {len(sequences[reference])} moves")
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
    for fd, name in ((1, "stdout"), (2, "stderr")):
        try:
            os.write(fd, b"")
        except OSError:  # closed or read-only: take output as /dev/null would
            setattr(sys, name, open(os.devnull, "w"))
    argv = sys.argv[1:] if argv is None else argv
    args = _plain_args(argv)
    if args is None:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    if args.n < 1:  # every subcommand takes --n
        _complain(f"--n must be at least 1, got {args.n}")
        return EXIT_USAGE
    try:
        code = args.func(args)
        sys.stdout.flush()  # an early close shows here when the output fit the buffer
        return code
    except BrokenPipeError:
        # The reader closed stdout early (`solve --stream | head`): that ends
        # the output, not the run. Point stdout at devnull so the flush at
        # interpreter shutdown cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
