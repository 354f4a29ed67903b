"""CLI output, byte for byte, against the benchmark's reference.

bench/reference.py computes the optimal word by its closed form, and the
exact bytes each command must print, without importing hanoilang. Here
`cli.main` runs in-process on drawn command lines, with stdin, stdout and
stderr as text streams over bytes, so that solve writes through stdout's
binary buffer as it does on a terminal or a pipe.
"""

import contextlib
import importlib.util
import io
import sys
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from hanoilang.cli import ENGINES, main
from hanoilang.constructions import BFS_MAX_DISCS

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("reference", ROOT / "bench" / "reference.py")
reference = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reference)

# 13 and 14 discs hand the writer more than one 4,096-code chunk.
MAX_DISCS = 14


def run(argv: list, stdin: bytes) -> tuple:
    """main(argv)'s exit code and the bytes of its stdout and stderr."""
    out, err = (io.TextIOWrapper(io.BytesIO(), encoding="utf-8") for _ in range(2))
    saved, sys.stdin = sys.stdin, io.TextIOWrapper(io.BytesIO(stdin), encoding="utf-8")
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin = saved
    out.flush()
    err.flush()
    return code, out.buffer.getvalue(), err.buffer.getvalue()


def fits(expected, data: bytes) -> bool:
    """data is expected's bytes, or a Template's with its timings."""
    return data == expected if isinstance(expected, bytes) else expected.match(data) is not None


@st.composite
def calls(draw):
    """A command line, its stdin, and the exit code, stdout and stderr that
    the reference expects of it."""
    command = draw(st.sampled_from(["solve", "compare", "verify"]))
    if command == "compare":  # runs bfs too
        n = draw(st.integers(1, BFS_MAX_DISCS))
        return ["compare", "--n", str(n)], b"", 0, reference.compare_output(n), b""
    if command == "verify":
        n = draw(st.integers(1, MAX_DISCS))
        # one disc can never lie on a smaller one
        kind = draw(st.sampled_from([kind for kind in reference.VERIFY_KINDS
                                     if n > 1 or kind != "larger-on-smaller"]))
        fraction = draw(st.floats(0, 1, exclude_max=True))
        rng = draw(st.randoms(use_true_random=False))
        stdin, out, code, _ = reference.verify_case(n, kind, fraction, rng)
        return ["verify", "--n", str(n), "-"], stdin, code, out, b""
    engine = draw(st.sampled_from(list(ENGINES)))
    n = draw(st.integers(1, BFS_MAX_DISCS if engine == "bfs" else MAX_DISCS))
    argv = ["solve", "--n", str(n), "--engine", engine]
    fmt = draw(st.sampled_from(["text", "stream", "json"]))
    if fmt == "json":
        return [*argv, "--format", "json"], b"", 0, reference.solve_json(engine, n), b""
    if fmt == "stream":
        return [*argv, "--stream"], b"", 0, reference.stream_text(n), reference.summary(engine, n)
    return argv, b"", 0, reference.solve_text(n), reference.summary(engine, n)


def test_the_reference_agrees_with_its_recursion_and_the_golden_word():
    reference.self_check(ROOT)


@settings(max_examples=300, deadline=None)
@given(calls())
def test_every_command_prints_the_reference_bytes(call):
    argv, stdin, code, out, err = call
    got_code, got_out, got_err = run(argv, stdin)
    assert got_code == code
    assert fits(out, got_out), (argv, got_out[:200])
    assert fits(err, got_err), (argv, got_err)
