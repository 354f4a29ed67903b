"""In-process traced run: spans around the public calls the CLI makes.

For each operation a root span carries the operation id. Its child spans
time the package functions the CLI calls for that input, in the CLI's
order, and `cli.main` itself on the same arguments with stdout sent to
/dev/null. What cli.main takes beyond the layer spans is the CLI's own
work (cli.self_s). The streaming sink is reachable only through the CLI,
so on `stream` its per-move print and replay show up as the equivalent
write and validate_sequence spans, and the closure around them as self
time.

Spans stay in memory; the caller writes them out when the run ends.
"""

import contextlib
import io
import json
import os
import sys
import time
from pathlib import Path

LAYER_SPANS = (
    "constructions.build_hanoi_grammar",
    "constructions.build_hanoi_pda",
    "constructions.recursive_solve",
    "constructions.bfs_optimal",
    "grammar.derive_full",
    "grammar.derive_streaming",
    "pda.run_to_empty_stack",
    "hanoi.parse",
    "hanoi.validate_sequence",
    "cli.write",
)


class Tracer:
    def __init__(self):
        self.spans = []  # (span id, parent id, op id, name, start, end)

    @contextlib.contextmanager
    def span(self, name: str, op_id: int, parent: int | None = None):
        span_id = len(self.spans)
        self.spans.append(None)
        start = time.perf_counter()
        try:
            yield span_id
        finally:
            self.spans[span_id] = (span_id, parent, op_id, name, start, time.perf_counter())

    def call(self, name, op_id, parent, fn, *args, **kwargs):
        with self.span(name, op_id, parent):
            return fn(*args, **kwargs)


class LayerRun:
    """Replays the CLI's sequence of package calls for one operation."""

    def __init__(self, root: Path):
        sys.path.insert(0, str(root / "src"))
        import hanoilang
        import hanoilang.cli

        self.h = hanoilang
        self.cli_main = hanoilang.cli.main
        self.devnull = open(os.devnull, "w", encoding="utf-8")
        self.tracer = Tracer()
        self.counts = dict.fromkeys(
            ("moves_checked", "moves_supplied", "rewrite_steps", "transitions", "emitted"), 0)

    def close(self) -> None:
        self.devnull.close()

    def run(self, op_id: int, op) -> int:
        """Trace one operation; returns cli.main's exit code.

        The layer calls and cli.main alternate in order from one operation
        to the next: whichever runs second finds warm allocator arenas and
        caches, and alternating cancels that in the means."""
        layers = {"solve": self._solve, "stream": self._stream,
                  "verify": self._verify, "compare": self._compare}[op.command]
        with self.tracer.span("op", op_id) as root:
            if op_id % 2:
                layers(op_id, root, op)
            with self.tracer.span("cli.main", op_id, root):
                code = self._main(op)
            if not op_id % 2:
                layers(op_id, root, op)
        return code

    def _main(self, op) -> int:
        stdin = sys.stdin
        if op.stdin is not None:
            sys.stdin = io.StringIO(op.stdin.decode())
        try:
            with contextlib.redirect_stdout(self.devnull), \
                    contextlib.redirect_stderr(io.StringIO()):
                return self.cli_main(list(op.argv))
        finally:
            sys.stdin = stdin

    def _engine(self, op_id, root, engine, n):
        h, call = self.h, self.tracer.call
        if engine == "grammar":
            grammar = call("constructions.build_hanoi_grammar", op_id, root,
                           h.build_hanoi_grammar, n)
            derivation = call("grammar.derive_full", op_id, root, h.derive_full,
                              grammar, step_limit=h.grammar_step_limit(n))
            self.counts["rewrite_steps"] += derivation.steps
            return derivation.word
        if engine == "pda":
            machine = call("constructions.build_hanoi_pda", op_id, root, h.build_hanoi_pda, n)
            run = call("pda.run_to_empty_stack", op_id, root, h.run_to_empty_stack,
                       machine, (), step_limit=h.pda_step_limit(n))
            self.counts["transitions"] += run.steps
            self.counts["emitted"] += len(run.emitted)
            return run.emitted
        if engine == "recursive":
            return call("constructions.recursive_solve", op_id, root,
                        h.recursive_solve, h.HanoiInstance(n))
        return call("constructions.bfs_optimal", op_id, root, h.bfs_optimal, n).sequence

    def _validate(self, op_id, root, n, moves):
        report = self.tracer.call("hanoi.validate_sequence", op_id, root,
                                  self.h.validate_sequence, n, moves)
        self.counts["moves_checked"] += report.moves_checked
        self.counts["moves_supplied"] += len(moves)
        return report

    def _solve(self, op_id, root, op):
        moves = self._engine(op_id, root, op.engine, op.n)
        report = self._validate(op_id, root, op.n, moves)
        self.tracer.call("cli.write", op_id, root, self._write_solve, op, moves, report)

    def _write_solve(self, op, moves, report):
        codes = [mv.code for mv in moves]
        if op.fmt == "json":
            record = {"engine": op.engine, "n_discs": op.n, "moves": codes,
                      "move_count": len(moves), "elapsed_ms": 0.0,
                      "verified": report.legal and report.final_solved}
            print(json.dumps(record, indent=2), file=self.devnull)
        else:
            print(" ".join(codes), file=self.devnull)

    def _stream(self, op_id, root, op):
        h, call = self.h, self.tracer.call
        grammar = call("constructions.build_hanoi_grammar", op_id, root,
                       h.build_hanoi_grammar, op.n)
        moves = []
        call("grammar.derive_streaming", op_id, root, h.derive_streaming,
             grammar, moves.append, step_limit=h.grammar_step_limit(op.n))
        self._validate(op_id, root, op.n, moves)
        call("cli.write", op_id, root, self._write_lines, moves)

    def _write_lines(self, moves):
        for mv in moves:
            print(mv.code, file=self.devnull)

    def _verify(self, op_id, root, op):
        text = op.stdin.decode()
        moves = self.tracer.call("hanoi.parse", op_id, root, self._parse, text)
        report = self._validate(op_id, root, op.n, moves)
        self.tracer.call("cli.write", op_id, root, self._write_verdict, report)

    def _parse(self, text):
        return [self.h.MoveSymbol.parse(token) for token in text.split()]

    def _write_verdict(self, report):
        out = self.devnull
        print(f"legal: {'true' if report.legal else 'false'}", file=out)
        if not report.legal:
            print(f"failing_index: {report.failing_index}", file=out)
            print(f"failure_reason: {report.failure_reason}", file=out)
        print(f"final_solved: {'true' if report.final_solved else 'false'}", file=out)
        print(f"moves_checked: {report.moves_checked}", file=out)

    def _compare(self, op_id, root, op):
        lengths = [len(self._engine(op_id, root, engine, op.n))
                   for engine in ("grammar", "pda", "recursive", "bfs")]
        self.tracer.call("cli.write", op_id, root, self._write_compare, lengths)

    def _write_compare(self, lengths):
        for length in lengths:
            print(f"engine: {length} moves in 0.000 ms", file=self.devnull)
        print(f"agreement: {len(lengths)} engines, {lengths[0]} moves", file=self.devnull)

    def totals(self) -> dict:
        """Seconds per span name, summed over every traced operation."""
        sums: dict[str, float] = {}
        for _, _, _, name, start, end in self.tracer.spans:
            sums[name] = sums.get(name, 0.0) + end - start
        return sums
