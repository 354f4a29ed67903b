"""The mutation gate: each mutant below is a small fault in the package
that the named tests must notice.

Each mutant names a file under src/hanoilang/, a snippet that must occur
there exactly once, its replacement, and the tests to run. For each one
the script copies src/, tests/, bench/, README.md and pyproject.toml to a
temporary directory, applies that mutant alone, and runs its tests there
with pytest -x and a fixed hypothesis seed. The same tests must first
pass on an unmutated copy, run alone before any mutant. A mutant whose
tests pass survives and fails the gate; so does a snippet that no longer
occurs exactly once, so a change to the code updates this list with it,
and so does any pytest outcome but passed or failed (a test id that no
longer exists, or a run past TIMEOUT seconds). Equivalent mutants, which
change only speed, are left out.

Run from the repository's root, stdlib only (pytest not collected):

    python tests/mutants.py
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "bench", "README.md", "pyproject.toml")
JOBS = 2  # mutants run at once: about a minute in all on 2 CPUs
TIMEOUT = 120  # seconds for one pytest run; the unmutated one takes about 40

CLI, HANOI = "cli.py", "hanoi.py"
GRAMMAR, CONSTRUCTIONS = "grammar.py", "constructions.py"
MOVE = "tests/test_hanoi.py::TestMoveSymbol"
SOLVE = "tests/test_cli.py::TestSolve"
CLOSED = "tests/test_cli.py::TestClosedStreams"
COMPARE = ("tests/test_cli.py::TestCompare", "tests/test_cli.py::TestCompareDivergence")
VERIFY = "tests/test_cli.py::TestVerify"
REFERENCE = "tests/test_reference.py"
OUT_OF_MEMORY = "tests/test_cli.py::test_an_engine_out_of_memory_exits_three_in_one_line"

# name: (file, snippet, replacement, tests)
MUTANTS = {
    "solve-verifies-a-solved-board-after-an-illegal-move": (
        CLI, "verified=board.reason is None and board.solved()", "verified=board.solved()",
        (SOLVE,)),
    "solve-summary-before-the-flush-that-can-fail": (
        CLI, "    print(flush=True)\n    _note(", "    print()\n    _note(", (CLOSED,)),
    "solve-json-separator-indents-three-spaces": (
        CLI, """separator = '",\\n    "'""", """separator = '",\\n   "'""", (REFERENCE,)),
    "main-flushes-only-after-a-nonzero-code": (
        CLI, "        sys.stdout.flush()  # an early close",
        "        code and sys.stdout.flush()  # an early close", (CLOSED,)),
    "main-lets-an-encoding-error-through": (
        CLI, "except (OSError, UnicodeEncodeError) as exc:", "except OSError as exc:", (CLOSED,)),
    "write-takes-every-short-write-for-a-closed-pipe": (
        CLI, "if binary.write(data[done:]) < len(data) - done:", "if True:", (SOLVE, CLOSED)),
    "reads-carry-one-character-too-few": (
        CLI, "text[cut:][:QUOTE_CHARS + 1]", "text[cut:][:QUOTE_CHARS]", (VERIFY,)),
    "reads-drop-the-last-carried-token": (
        CLI, "        if carry:\n            yield carry\n", "", (VERIFY,)),
    "verify-takes-a-tail-with-a-repeated-peg-digit": (
        CLI, "and not src & dst:", "and True:", (VERIFY,)),
    "verify-takes-a-tail-with-any-separator": (
        CLI, "data[3::4].isspace()", "data[3::4]", (VERIFY,)),
    "bfs-engine-hands-over-chunks-three-times-too-long": (
        CLI, "    for start in range(0, len(codes), _CHUNK):\n"
        "        sink(codes[start:start + _CHUNK])",
        "    for start in range(0, len(codes), 3 * _CHUNK):\n"
        "        sink(codes[start:start + 3 * _CHUNK])",
        ("tests/test_cli.py::test_engines_hand_over_lists_the_writer_takes_in_one_write",
         "tests/test_cli.py::test_the_bfs_engine_hands_over_a_word_past_its_cap_in_bounded_lists")),
    "compare-without-its-short-check": (
        CLI, "        elif count < word:\n"
        "            departures[engine] = f\"short at index {count}\"\n",
        "", COMPARE),
    "compare-short-check-one-off": (CLI, "elif count < word:", "elif count < word - 1:", COMPARE),
    "compare-past-the-end-by-the-count": (
        CLI, "'past the end ' if index == word else ''", "'past the end ' if count > word else ''",
        COMPARE),
    "run-engine-counts-only-the-moves-the-board-played": (
        CLI, "return failure, board, count,", "return failure, board, board.played,", COMPARE),
    "run-engine-formats-out-of-memory-in-its-handler": (
        CLI, "        failure = MemoryError\n    if failure is MemoryError:\n",
        "", (OUT_OF_MEMORY,)),
    "move-reads-src-from-its-dst-digit": (
        HANOI, "src = property(lambda self: int(self[1]))",
        "src = property(lambda self: int(self[2]))", (MOVE,)),
    "move-text-names-its-pegs-backwards": (
        HANOI, 'super().__new__(cls, f"p{src}{dst}")', 'super().__new__(cls, f"p{dst}{src}")',
        (MOVE,)),
    "move-code-is-the-move-not-a-plain-str": (
        HANOI, "code = property(str.__str__,", "code = property(lambda self: self,", (MOVE,)),
    "move-pickles-its-pegs-swapped": (
        HANOI, "return self.src, self.dst", "return self.dst, self.src", (MOVE,)),
    "board-replays-after-its-first-illegal-move": (
        HANOI, "        if self.reason is not None:\n            return\n", "",
        ("tests/test_hanoi.py",)),
    "board-counts-one-cell-too-few": (
        HANOI, "self.played += cells", "self.played += cells - 1", ("tests/test_hanoi.py",)),
    "board-lays-out-the-text-start-not-the-departure": (
        HANOI, "_lay_out(self._pegs, self.n_discs, self.departure,",
        "_lay_out(self._pegs, self.n_discs, self.departure - cells,", ("tests/test_hanoi.py",)),
    "board-leaves-the-4096th-cells-unchecked": (
        HANOI, "if text[done:done + len(piece)] != piece:",
        "if text[done:done + len(piece)] != piece and len(piece) > 4:",
        ("tests/test_hanoi.py", VERIFY)),
    "board-departs-one-cell-early": (
        HANOI, "self.departure = self.played\n", "self.departure = self.played - 1\n",
        ("tests/test_hanoi.py", *COMPARE)),
    "board-takes-any-character-as-a-separator": (
        HANOI, 'if sep in " \\n" else ()', "if sep else ()", (VERIFY,)),
    "report-checks-one-move-too-few": (
        HANOI, "self.solved(), self.played)", "self.solved(), self.played - 1)",
        ("tests/test_hanoi.py",)),
    "unwind-cache-without-a-bound": (
        GRAMMAR, "if size > chunk or size > room:", "if size > chunk:",
        ("tests/test_derivation_core.py",)),
    "breadth-first-adds-counts-from-any-layer": (
        CONSTRUCTIONS, "elif seen == mark:", "elif seen:", ("tests/test_constructions.py",)),
    "legal-moves-list-two-uniform-patterns": (
        CONSTRUCTIONS, "digits in (0, base // 2, base - 1)", "digits == 0",
        ("tests/test_constructions.py",)),
    "legal-moves-wrong-third-peg": (
        CONSTRUCTIONS, "(MoveSymbol.of(a + 1, 4 - a - p), (3 - 2 * a - p) * place)",
        "(MoveSymbol.of(a + 1, p + 1), (p - a) * place)", ("tests/test_constructions.py",)),
}


def check_snippets() -> list:
    """The mutants whose snippet does not occur exactly once."""
    return [f"{name}: snippet occurs {text.count(snippet)} times in {file}"
            for name, (file, snippet, _, _) in MUTANTS.items()
            if (text := (ROOT / "src" / "hanoilang" / file).read_text()).count(snippet) != 1]


def run(file: str, snippet: str, replacement: str, tests: tuple) -> tuple:
    """pytest's exit code (None past TIMEOUT), seconds and last line of
    output for tests, run on a copy in which snippet gives way to
    replacement in file (no edit for an empty snippet)."""
    started = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="hanoilang-mutant-") as scratch:
        work = Path(scratch)
        for part in COPIED:
            source = ROOT / part
            if source.is_dir():
                shutil.copytree(source, work / part,
                                ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
            else:
                shutil.copy2(source, work / part)
        target = work / "src" / "hanoilang" / file
        if snippet:
            target.write_text(target.read_text().replace(snippet, replacement))
        env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                 "--hypothesis-seed=0", *tests],
                cwd=work, env=env, stdin=subprocess.DEVNULL, capture_output=True, text=True,
                timeout=TIMEOUT)
        except subprocess.TimeoutExpired:
            return None, time.perf_counter() - started, f"no result in {TIMEOUT} s"
    lines = proc.stdout.strip().splitlines() or [proc.stderr.strip()]
    return proc.returncode, time.perf_counter() - started, lines[-1]


def main() -> int:
    if problems := check_snippets():
        print("\n".join(problems))
        return 1
    started = time.perf_counter()
    # First the same tests on the unmutated code, which must pass.
    tests = tuple(dict.fromkeys(test for entry in MUTANTS.values() for test in entry[3]))
    code, seconds, last = run(CLI, "", "", tests)
    print(f"{'passes' if code == 0 else 'FAILS':8} {seconds:5.1f} s  unmutated: {last}", flush=True)
    if code != 0:
        return 1
    killed = 0
    with ThreadPoolExecutor(max_workers=JOBS) as pool:
        results = pool.map(lambda job: run(*job), MUTANTS.values())
        for name, (code, seconds, last) in zip(MUTANTS, results):
            verdict = {0: "SURVIVED", 1: "killed"}.get(code, f"ERROR {code}")
            print(f"{verdict:8} {seconds:5.1f} s  {name}: {last}", flush=True)
            killed += code == 1
    print(f"{killed} of {len(MUTANTS)} mutants killed in {time.perf_counter() - started:.1f} s")
    return 0 if killed == len(MUTANTS) else 1


if __name__ == "__main__":
    sys.exit(main())
