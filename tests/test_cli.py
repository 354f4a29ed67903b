"""Command-line behaviour: output shapes, exit codes, caps, and streams."""

import contextlib
import errno
import io
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hanoilang
from hanoilang.cli import COMMANDS, ENGINES, EngineFailure, _plain_args, build_parser, main
from hanoilang.constructions import HanoiInstance, recursive_solve
from hanoilang.grammar import _CHUNK
from hanoilang.hanoi import MoveParseError, MoveSymbol, move_at, validate_sequence
from oracle import checked_replay

TWO_DISC_WORD = "p12 p13 p23"
FIVE_DISC_WORD = (Path(__file__).parent / "data" / "hanoi5_word.txt").read_text()

# `python -m hanoilang` in a subprocess imports the same package as the tests
SUBPROCESS_ENV = dict(os.environ, PYTHONPATH=str(Path(hanoilang.__file__).parents[1]))


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# The 13-disc word by the closed form: two full chunks and a remainder.
WORD_13 = [move_at(13, k).code for k in range(1, 2 ** 13)]
FORMATS = {"text": (), "stream": ("--stream",), "json": ("--format", "json")}


def written(fmt, codes, n=13):
    """What `solve --n n` in format fmt writes before its closing when the
    grammar engine hands over codes."""
    if fmt == "json":
        return (f'{{\n  "engine": "grammar",\n  "n_discs": {n},\n  "moves": [\n    "'
                + '",\n    "'.join(codes))
    return ("\n" if fmt == "stream" else " ").join(codes)


class TestSolve:
    def test_single_disc_text(self, capsys):
        code, out, err = run_cli(capsys, "solve", "--n", "1")
        assert code == 0
        assert out == "p13\n"
        assert "move_count=1" in err
        assert "verified=true" in err

    def test_word_only_on_stdout(self, capsys):
        code, out, _ = run_cli(capsys, "solve", "--n", "2")
        assert code == 0
        assert out == TWO_DISC_WORD + "\n"

    @pytest.mark.parametrize("engine", list(ENGINES))
    def test_engines_agree_on_stdout(self, capsys, engine):
        # every engine prints the golden 5-disc word in every output mode
        solve = ("solve", "--n", "5", "--engine", engine)
        code, out, err = run_cli(capsys, *solve)
        assert (code, out) == (0, FIVE_DISC_WORD)
        assert f"engine={engine} n_discs=5 move_count=31 " in err
        assert err.endswith(" verified=true\n")
        code, out, streamed_err = run_cli(capsys, *solve, "--stream")
        assert (code, out) == (0, FIVE_DISC_WORD.replace(" ", "\n"))
        assert streamed_err.split("elapsed_ms=")[0] == err.split("elapsed_ms=")[0]
        assert streamed_err.endswith(" verified=true\n")
        code, out, _ = run_cli(capsys, *solve, "--format", "json")
        record = json.loads(out)
        assert code == 0
        assert record["moves"] == FIVE_DISC_WORD.split()
        assert (record["move_count"], record["verified"]) == (31, True)

    def test_json_record(self, capsys):
        code, out, err = run_cli(capsys, "solve", "--n", "3", "--format", "json")
        assert code == 0
        record = json.loads(out)
        assert record == {
            "engine": "grammar",
            "n_discs": 3,
            "moves": ["p13", "p12", "p32", "p13", "p21", "p23", "p13"],
            "move_count": 7,
            "elapsed_ms": record["elapsed_ms"],
            "verified": True,
        }
        assert isinstance(record["elapsed_ms"], float)
        assert err == ""

    @pytest.mark.parametrize("engine", list(ENGINES))
    @pytest.mark.parametrize("n", [1, 2, 10, 13])
    def test_json_record_is_the_indented_json_dumps(self, capsys, engine, n):
        # the moves array is joined by hand, chunk by chunk; every byte must
        # be json's. bfs needs --unsafe-no-cap at 13 discs.
        code, out, _ = run_cli(capsys, "solve", "--n", str(n), "--engine", engine,
                               "--format", "json", "--unsafe-no-cap")
        assert code == 0
        assert out == json.dumps(json.loads(out), indent=2) + "\n"
        assert len(json.loads(out)["moves"]) == 2 ** n - 1

    def test_stream_one_move_per_line(self, capsys):
        code, out, err = run_cli(capsys, "solve", "--n", "2", "--stream")
        assert code == 0
        assert out == TWO_DISC_WORD.replace(" ", "\n") + "\n"
        assert "verified=true" in err

    def test_stream_matches_unstreamed_output(self, capsys):
        _, streamed, _ = run_cli(capsys, "solve", "--n", "4", "--stream")
        _, plain, _ = run_cli(capsys, "solve", "--n", "4")
        assert streamed.split() == plain.split()

    @pytest.mark.parametrize("engine", ["grammar", "pda", "recursive"])
    @pytest.mark.parametrize("fmt", ["text", "stream"])
    def test_text_is_byte_identical_across_write_chunks(self, capsys, engine, fmt):
        _, out, err = run_cli(capsys, "solve", "--n", "13", "--engine", engine, *FORMATS[fmt])
        assert out == written(fmt, WORD_13) + "\n"
        assert " move_count=8191 " in err
        assert err.endswith(" verified=true\n")

    def test_stream_reports_an_illegal_move_as_unverified(self, capsys, monkeypatch):
        def derive_illegal(grammar, sink, step_limit, translate):
            # the third move finds peg 1 empty; the board ignores it, and the
            # last move still ends with both discs on peg 3
            sink([translate(MoveSymbol.parse(code)) for code in ("p12", "p13", "p13", "p23")])
            return 3, 4

        monkeypatch.setattr("hanoilang.cli._derive", derive_illegal)
        code, out, err = run_cli(capsys, "solve", "--n", "2", "--stream")
        assert code == 0
        assert out == "p12\np13\np13\np23\n"
        assert "move_count=4" in err
        assert "verified=false" in err

    def test_stream_pda_writes_the_moves(self, capsys):
        code, out, _ = run_cli(capsys, "solve", "--n", "3", "--engine", "pda", "--stream")
        assert code == 0
        assert out.split() == ["p13", "p12", "p32", "p13", "p21", "p23", "p13"]

    def test_stream_rejects_json(self, capsys):
        code, _, err = run_cli(capsys, "solve", "--n", "2", "--stream", "--format", "json")
        assert code == 2
        assert "--stream" in err

    def test_zero_discs_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "solve", "--n", "0")
        assert code == 2
        assert "at least 1" in err

    def test_a_25_disc_pda_stream_prints_its_first_move(self):
        solve = subprocess.Popen(
            [sys.executable, "-m", "hanoilang", "solve", "--n", "25", "--engine", "pda",
             "--stream"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=SUBPROCESS_ENV,
        )
        head = subprocess.run(["head", "-1"], stdin=solve.stdout, capture_output=True,
                              timeout=60)
        solve.stdout.close()  # with head gone too, the next write finds no reader
        err = solve.stderr.read()
        assert solve.wait(timeout=60) == 0
        assert head.stdout == b"p13\n"
        assert err == b""  # no traceback, and no summary for a closed pipe

    def test_bfs_cap(self, capsys):
        code, _, err = run_cli(capsys, "solve", "--n", "11", "--engine", "bfs")
        assert code == 3
        assert "cap" in err

    def test_unknown_engine_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "solve", "--n", "2", "--engine", "dynamic")
        assert code == 2

    # ids of the unstreamed cases are the ones pytest derives from the values
    @pytest.mark.parametrize("engine, limit, message, stream", [
        pytest.param(*case, stream, id="-".join(case) + ("-stream" if stream else ""))
        for case in [
            ("grammar", "grammar_step_limit", "derivation exceeded 1 rewrites"),
            ("pda", "pda_step_limit", "automaton run ended step-limit"),
        ]
        for stream in (False, True)
    ])
    def test_engine_failure_exits_three(self, capsys, monkeypatch, engine, limit, message, stream):
        monkeypatch.setattr(f"hanoilang.cli.{limit}", lambda n: 1)
        argv = ["solve", "--n", "3", "--engine", engine] + ["--stream"] * stream
        code, out, err = run_cli(capsys, *argv)
        assert code == 3
        assert out == ""
        assert err == f"hanoilang: {message}\n"  # one line, no traceback

    # It fails before any allocation: 3^41 positions cannot be indexed.
    def test_engine_beyond_the_interpreter_exits_three(self, capsys):
        code, out, err = run_cli(capsys, "solve", "--unsafe-no-cap", "--n", "41", "--engine", "bfs")
        assert (code, out) == (3, "")
        assert err.startswith("hanoilang: ") and err.count("\n") == 1

    def test_the_recursive_engine_streams_past_the_interpreters_recursion(self):
        # 1100 discs nest deeper than sys.getrecursionlimit() allows calls
        proc = subprocess.Popen(
            [sys.executable, "-m", "hanoilang", "solve", "--n", "1100", "--engine", "recursive",
             "--stream"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=SUBPROCESS_ENV,
        )
        moves = [proc.stdout.readline() for _ in range(100)]
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 0
        assert err == b""
        assert moves == [f"{move_at(1100, k).code}\n".encode() for k in range(1, 101)]

    def test_bfs_past_the_largest_list_exits_three(self, capsys):
        # CPython refuses [-1] * 3**39 from its size arithmetic, without
        # allocating: a MemoryError, which must not reach the user as one
        code, out, err = run_cli(capsys, "solve", "--n", "39", "--engine", "bfs",
                                 "--unsafe-no-cap")
        assert (code, out) == (3, "")
        assert err == "hanoilang: breadth-first search at 39 discs: out of memory\n"

    @pytest.mark.parametrize("engine", ["grammar", "pda", "recursive"])
    def test_reader_closing_the_pipe_early_exits_zero_quietly(self, engine):
        proc = subprocess.Popen(
            [sys.executable, "-m", "hanoilang", "solve", "--n", "16", "--stream",
             "--engine", engine],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=SUBPROCESS_ENV,
        )
        assert proc.stdout.readline() == b"p12\n"
        proc.stdout.close()  # 65534 more lines are still to come
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 0
        assert err == b""

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_short_write_of_the_last_chunk_exits_zero_quietly(self, capsys, monkeypatch, tmp_path,
                                                              fmt):
        # A pipe whose reader closes during a large write takes part of it
        # and reports the short count without an error; this one reports
        # every later write as short too.
        class ShortPipe:
            def __init__(self, room, fd):
                self.buffer, self.room, self.fd, self.taken = self, room, fd, b""

            def write(self, data):
                accepted = data[:self.room - len(self.taken)]
                self.taken += accepted
                return len(accepted)

            def flush(self):
                pass

            def fileno(self):
                return self.fd

        body = written(fmt, WORD_13).encode()  # the last chunk holds 3999 codes
        with open(tmp_path / "stdout", "wb") as target:
            pipe = ShortPipe(len(body) - 100, target.fileno())
            monkeypatch.setattr(sys, "stdout", pipe)
            code = main(["solve", "--n", "13", *FORMATS[fmt]])
            monkeypatch.undo()
        assert code == 0
        assert capsys.readouterr().err == ""  # no summary
        assert pipe.taken == body[:-100]

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_a_stdout_without_a_binary_buffer_takes_text(self, capsys, fmt):
        with contextlib.redirect_stdout(io.StringIO()) as out:
            code = main(["solve", "--n", "13", *FORMATS[fmt]])
        text, err = out.getvalue(), capsys.readouterr().err
        assert code == 0
        assert text.startswith(written(fmt, WORD_13))
        if fmt == "json":
            assert text == json.dumps(json.loads(text), indent=2) + "\n"
            assert err == ""
        else:
            assert text == written(fmt, WORD_13) + "\n"
            assert err.startswith("engine=grammar n_discs=13 move_count=8191 ")
            assert err.endswith(" verified=true\n")

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_an_engine_failing_after_its_first_chunk_leaves_that_chunk(self, capsys,
                                                                      monkeypatch, fmt):
        # No Hanoi engine fails once it has handed over moves: this one does.
        def fail_after_one_chunk(n, unsafe, sink):
            sink(WORD_13[:_CHUNK])
            raise EngineFailure("stopped after one chunk")

        monkeypatch.setitem(ENGINES, "grammar", fail_after_one_chunk)
        code, out, err = run_cli(capsys, "solve", "--n", "13", *FORMATS[fmt])
        assert (code, err) == (3, "hanoilang: stopped after one chunk\n")
        assert out == written(fmt, WORD_13[:_CHUNK])

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_memory_does_not_grow_with_the_word(self, monkeypatch, fmt):
        # Holding the 17-disc word's 131,071 codes peaks above 2 MB, and
        # its joined JSON record above 4 MB; chunk by chunk, about 0.5 MB.
        monkeypatch.setattr(sys, "stderr", io.StringIO())
        with open(os.devnull, "w") as null:
            monkeypatch.setattr(sys, "stdout", null)
            tracemalloc.start()
            try:
                code = main(["solve", "--n", "17", *FORMATS[fmt]])
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
                monkeypatch.undo()
        assert code == 0
        assert peak < 1_000_000


def peak_rss_mb(argv, head=None):
    """Exit code, the first head bytes of stdout (closed after them),
    stderr and peak RSS (from os.wait4) of one CLI call; without head,
    all of stdout goes to /dev/null."""
    with open(os.devnull, "wb") as null:
        proc = subprocess.Popen([sys.executable, "-m", "hanoilang", *argv], env=SUBPROCESS_ENV,
                                stdout=null if head is None else subprocess.PIPE,
                                stderr=subprocess.PIPE)
        out = b""
        if head is not None:
            out = proc.stdout.read(head)
            proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out, err, usage.ru_maxrss / 1024


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("engine", ["grammar", "pda", "recursive"])
def test_solve_streams_past_24_discs_in_the_memory_of_20(engine, fmt):
    # No cap stops solve: 30 discs write their first moves, and a reader
    # closing after them ends the run as usual, as flat as 20 discs' run.
    argv = ["solve", "--engine", engine, *FORMATS[fmt], "--n"]
    code, _, _, peak_20 = peak_rss_mb([*argv, "20"])
    assert code == 0
    code, out, err, peak_30 = peak_rss_mb([*argv, "30"], head=1 << 14)
    assert (code, err) == (0, b"")
    codes = re.findall(r"p[1-3]{2}", out.decode())
    assert len(codes) > 1000
    assert codes == [move_at(30, k).code for k in range(1, len(codes) + 1)]
    assert peak_30 < peak_20 + 1


# Past what a 100 MB address space holds: the grammar's and automaton's
# tables at 10^6 discs, and the recursion's stack of tasks at 10^7.
@pytest.mark.parametrize("argv, out, err", [
    (("solve", "--n", "1000000", "--stream"), "",
     "hanoilang: out of memory at 1000000 discs\n"),
    (("solve", "--n", "1000000", "--engine", "pda", "--format", "json"), "",
     "hanoilang: out of memory at 1000000 discs\n"),
    (("solve", "--n", "10000000", "--engine", "recursive"), "",
     "hanoilang: out of memory at 10000000 discs\n"),
    (("compare", "--n", "1000000"), "bfs: skipped (capped at 10 discs)\n",
     "hanoilang: engine grammar failed: out of memory at 1000000 discs\n"),
], ids=["grammar", "pda", "recursive", "compare"])
def test_an_engine_out_of_memory_exits_three_in_one_line(argv, out, err):
    resource = pytest.importorskip("resource")
    limit = 100 << 20
    proc = subprocess.run(
        [sys.executable, "-m", "hanoilang", *argv], capture_output=True, text=True,
        env=SUBPROCESS_ENV, timeout=60,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)))
    assert (proc.returncode, proc.stdout, proc.stderr) == (3, out, err)


@pytest.mark.parametrize("engine, n", [
    *((engine, n) for engine in ENGINES if engine != "bfs" for n in (13, 15)),
    ("bfs", 10),
])
def test_engines_hand_over_lists_the_writer_takes_in_one_write(engine, n):
    # solve --stream writes each handed list in one write, so its size
    # rests on this bound
    chunks = []
    ENGINES[engine](n, False, chunks.append)
    assert all(0 < len(chunk) <= 2 * _CHUNK - 1 for chunk in chunks)
    assert sum(map(len, chunks)) == 2 ** n - 1


VALID_CODES = ["p12", "p13", "p21", "p23", "p31", "p32"]
BAD_TOKENS = ["p14", "x", "p1", "P13", "p131", "p13p12p23", "pp1313",
              # around the 64-character quote limit, and far past it
              "p13" * 21 + "p", "p13" * 21 + "p1", "".join(VALID_CODES) * 11, "it's" * 20]
WHITESPACE = " \t\n\r\x0b\x1c\u2028\u3000"


def quoted(token):
    """A bad token as verify quotes it: whole up to 64 characters, else
    its first 64 characters and '...'."""
    return repr(token) if len(token) <= 64 else repr(token[:64]) + "..."


def parse_error(index, token):
    """verify's stderr for an unparseable token at index."""
    quote = quoted(token)
    return (f"hanoilang: token {index} ({quote}): bad move token {quote}: "
            "expected 'pij' with two distinct pegs in 1..3\n")


def whole_text_verdict(n, text, fmt):
    """What `verify --format fmt` must print for text: the exit code,
    stdout and stderr of parsing every token first and then replaying the
    parsed list with validate_sequence. The text form lists the report's
    set fields in order, one `field: value` line each."""
    moves = []
    for index, token in enumerate(text.split()):
        try:
            moves.append(MoveSymbol.parse(token))
        except MoveParseError:
            return 2, "", parse_error(index, token)
    report = validate_sequence(n, moves)
    exit_code = 0 if report.legal and report.final_solved else 1
    if fmt == "json":
        return exit_code, json.dumps({"n_discs": n, **report._asdict()}, indent=2) + "\n", ""
    lines = [f"legal: {json.dumps(report.legal)}"]
    if not report.legal:
        lines += [f"failing_index: {report.failing_index}",
                  f"failure_reason: {report.failure_reason}"]
    lines += [f"final_solved: {json.dumps(report.final_solved)}",
              f"moves_checked: {report.moves_checked}"]
    return exit_code, "".join(line + "\n" for line in lines), ""


# Runs cli.main in a fresh interpreter and reports, as its last stderr
# line, which of the modules that a plain text call does without it loaded.
IMPORT_PROBE = """
import sys
before = set(sys.modules)
from hanoilang.cli import main
code = main(sys.argv[1:])
sys.stdout.flush()
watched = {"argparse", "dataclasses", "gettext", "inspect", "json", "locale", "typing"}
print("loaded:", *sorted(watched & set(sys.modules) - before), file=sys.stderr)
sys.exit(code)
"""


def run_probe(*argv):
    return subprocess.run([sys.executable, "-c", IMPORT_PROBE, *argv], input="p13\n",
                          capture_output=True, text=True, env=SUBPROCESS_ENV, timeout=60)


class TestStartup:
    @pytest.mark.parametrize("argv", [
        ("solve", "--n", "1"),
        ("solve", "--n", "1", "--stream"),
        ("verify", "--n", "1", "-"),  # reads the probe's stdin, "p13"
        ("compare", "--n", "1"),
        ("enumerate", "--n", "2"),
        ("trace", "--n", "2", "--engine", "pda"),
    ], ids=" ".join)
    def test_plain_text_calls_load_no_argparse_json_or_typing(self, argv):
        proc = run_probe(*argv)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr.splitlines()[-1] == "loaded:"

    def test_help_still_comes_from_argparse(self):
        proc = run_probe("--help")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("usage: hanoilang [-h]")
        assert "argparse" in proc.stderr.splitlines()[-1].split()

    def test_a_bad_choice_still_gets_argparses_usage_error(self):
        proc = run_probe("solve", "--n", "3", "--engine", "nope")
        assert (proc.returncode, proc.stdout) == (2, "")
        assert "argument --engine: invalid choice: 'nope'" in proc.stderr

    def test_json_output_still_prints_its_record(self):
        proc = run_probe("solve", "--n", "3", "--format", "json")
        assert proc.returncode == 0, proc.stderr
        record = json.loads(proc.stdout)
        assert (record["move_count"], record["moves"][0], record["verified"]) == (7, "p13", True)


def run_shell(redirect, *argv):
    """Run the CLI through sh -c with a redirection such as '>&-' applied,
    on an empty stdin, with the timings in its stderr masked."""
    proc = subprocess.run(["sh", "-c", f'"$0" -m hanoilang "$@" {redirect}', sys.executable,
                           *argv], stdin=subprocess.DEVNULL, capture_output=True, text=True,
                          env=SUBPROCESS_ENV, timeout=60)
    proc.stderr = re.sub(r"elapsed_ms=[0-9.]+", "elapsed_ms=", proc.stderr)
    return proc


def write_error(code):
    """The one stderr line of a command whose stdout failed with errno code."""
    return f"hanoilang: cannot write output: {OSError(code, os.strerror(code))}\n"


class TestClosedStreams:
    def test_closed_stdin_is_a_read_error(self):
        proc = run_shell("<&-", "verify", "--n", "3", "-")
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == "hanoilang: cannot read moves from '-': stdin is closed\n"

    @pytest.mark.parametrize("argv", [
        ("solve", "--n", "3"),
        ("solve", "--n", "3", "--stream"),
        ("solve", "--n", "3", "--format", "json"),
        ("solve", "--n", "11", "--engine", "bfs"),
        ("verify", "--n", "3", "-"),
        ("verify", "--n", "3", "no-such-file"),
        ("compare", "--n", "3"),
        ("enumerate", "--n", "2"),
        ("trace", "--n", "2", "--engine", "pda"),
    ], ids=" ".join)
    def test_closed_stdout_acts_as_dev_null(self, argv):
        closed, null = run_shell(">&-", *argv), run_shell(">/dev/null", *argv)
        assert (closed.returncode, closed.stderr) == (null.returncode, null.stderr)

    @pytest.mark.parametrize("argv", [
        ("solve", "--n", "3"),
        ("solve", "--n", "11", "--engine", "bfs"),
        ("verify", "--n", "3", "no-such-file"),
        ("trace", "--n", "2", "--limit", "0"),
    ], ids=" ".join)
    def test_closed_stderr_acts_as_dev_null(self, argv):
        closed, null = run_shell("2>&-", *argv), run_shell("2>/dev/null", *argv)
        assert (closed.returncode, closed.stdout) == (null.returncode, null.stdout)
        assert run_shell("2>&- >&-", *argv).returncode == null.returncode

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    @pytest.mark.parametrize("argv", [
        ("solve", "--n", "3"),
        ("solve", "--n", "3", "--stream"),
        ("solve", "--n", "3", "--format", "json"),
        ("verify", "--n", "3", "-"),
        ("compare", "--n", "3"),
        ("trace", "--n", "2", "--engine", "pda"),
    ], ids=" ".join)
    def test_a_full_stdout_is_reported(self, argv):
        proc = run_shell(">/dev/full", *argv)
        assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", write_error(errno.ENOSPC))
        # with stderr gone too, there is nowhere to report to
        assert run_shell(">/dev/full 2>&-", *argv).returncode == 2

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_a_write_past_the_file_size_limit_is_reported(self, tmp_path, fmt):
        # The write that reaches the limit ends short without an error, as
        # at a closed pipe; writing the rest fails with EFBIG (the
        # interpreter ignores SIGXFSZ).
        resource = pytest.importorskip("resource")
        limit = 8192
        with open(tmp_path / "stdout", "wb") as target:
            proc = subprocess.run(
                [sys.executable, "-m", "hanoilang", "solve", "--n", "13", *FORMATS[fmt]],
                stdout=target, stderr=subprocess.PIPE, text=True, env=SUBPROCESS_ENV, timeout=60,
                preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_FSIZE, (limit, limit)))
        assert (proc.returncode, proc.stderr) == (2, write_error(errno.EFBIG))
        assert (tmp_path / "stdout").read_bytes() == written(fmt, WORD_13).encode()[:limit]

    @pytest.mark.parametrize("argv, code, out, err", [
        (("solve", "--n", "3"), 0, "p13 p12 p32 p13 p21 p23 p13\n", "engine=gra"),
        (("verify", "--n", "3", "no-such-file"), 2, "", "hanoilang:"),
        (("solve", "--n", "11", "--engine", "bfs"), 3, "", "hanoilang:"),
        (("compare", "--n", "30", "--unsafe-no-cap"), 3, "", "hanoilang:"),
    ], ids=["solve", "verify", "solve-bfs-cap", "compare-bfs"])
    def test_a_stderr_failing_during_the_run_leaves_the_exit_code(self, tmp_path, argv, code,
                                                                  out, err):
        # The file-size limit cuts stderr after its first 10 bytes; the
        # rest goes nowhere, without a traceback.
        resource = pytest.importorskip("resource")
        with open(tmp_path / "stderr", "wb") as target:
            proc = subprocess.run(
                [sys.executable, "-m", "hanoilang", *argv], stdout=subprocess.PIPE, stderr=target,
                text=True, env=SUBPROCESS_ENV, timeout=60,
                preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_FSIZE, (10, 10)))
        assert (proc.returncode, proc.stdout) == (code, out)
        assert (tmp_path / "stderr").read_text() == err


class TestVerify:
    def test_good_word_from_file(self, capsys, tmp_path):
        path = tmp_path / "moves.txt"
        path.write_text(TWO_DISC_WORD + "\n")
        code, out, _ = run_cli(capsys, "verify", "--n", "2", str(path))
        assert code == 0
        assert "legal: true" in out
        assert "final_solved: true" in out

    def test_good_word_from_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(TWO_DISC_WORD))
        code, out, _ = run_cli(capsys, "verify", "--n", "2", "-")
        assert code == 0
        assert "legal: true" in out

    def test_illegal_word_exits_one(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("p13 p13"))
        code, out, _ = run_cli(capsys, "verify", "--n", "2", "-")
        assert code == 1
        assert "failing_index: 1" in out
        assert "larger-on-smaller" in out

    def test_legal_but_unsolved_exits_one(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("p12"))
        code, out, _ = run_cli(capsys, "verify", "--n", "2", "-")
        assert code == 1
        assert "legal: true" in out
        assert "final_solved: false" in out

    def test_parse_error_exits_two_with_position(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("p13 p14"))
        code, _, err = run_cli(capsys, "verify", "--n", "2", "-")
        assert code == 2
        assert "token 1" in err
        assert "p14" in err

    def test_json_report(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("p13 p13"))
        code, out, _ = run_cli(capsys, "verify", "--n", "2", "-", "--format", "json")
        assert code == 1
        report = json.loads(out)
        assert report["legal"] is False
        assert report["failing_index"] == 1
        assert report["failure_reason"] == "larger-on-smaller"
        assert report["moves_checked"] == 2

    def test_missing_file_is_usage_error(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "verify", "--n", "2", str(tmp_path / "nope.txt"))
        assert code == 2
        assert "cannot read" in err

    def test_undecodable_file_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "moves.bin"
        path.write_bytes(b"p13 \xff\xfe p12\n")
        code, out, err = run_cli(capsys, "verify", "--n", "3", str(path))
        assert (code, out) == (2, "")
        assert err.startswith(f"hanoilang: cannot read moves from {str(path)!r}: ")
        assert err.count("\n") == 1

    def test_undecodable_stdin_is_usage_error(self, capsys, monkeypatch):
        stdin = io.TextIOWrapper(io.BytesIO(b"p13 \xff\xfe p12\n"), encoding="utf-8", errors="strict")
        monkeypatch.setattr("sys.stdin", stdin)
        code, out, err = run_cli(capsys, "verify", "--n", "3", "-")
        assert (code, out) == (2, "")
        assert err.startswith("hanoilang: cannot read moves from '-': ")
        assert err.count("\n") == 1

    @settings(max_examples=300)
    @given(data=st.data())
    def test_streamed_verdict_matches_the_whole_text_verdict(self, data):
        """verify reads a few characters at a time, so nearly every token
        is cut by a chunk boundary; its output must be that of parsing the
        whole text first and replaying the list with validate_sequence."""
        n = data.draw(st.integers(min_value=1, max_value=4), label="n")
        if data.draw(st.booleans(), label="follow the optimal word"):
            codes = [mv.code for mv in recursive_solve(HanoiInstance(n))]
            codes = codes[:data.draw(st.integers(min_value=0, max_value=len(codes)))]
        else:
            codes = data.draw(st.lists(st.sampled_from(VALID_CODES), max_size=20))
        for label, alphabet in (("illegal", VALID_CODES), ("bad token", BAD_TOKENS)):
            if data.draw(st.booleans(), label=f"insert {label}"):
                at = data.draw(st.integers(min_value=0, max_value=len(codes)), label="at")
                codes.insert(at, data.draw(st.sampled_from(alphabet), label=label))
        separators = st.text(WHITESPACE, min_size=1, max_size=3)
        text = data.draw(st.text(WHITESPACE, max_size=2), label="lead")
        for code in codes:
            text += code + data.draw(separators, label="separator")
        if codes and data.draw(st.booleans(), label="no trailing whitespace"):
            text = text.rstrip()
        fmt = data.draw(st.sampled_from(["text", "json"]), label="format")
        out, err = io.StringIO(), io.StringIO()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr("hanoilang.cli.VERIFY_CHUNK_CHARS", 5)
            patch.setattr("sys.stdin", io.StringIO(text))
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(["verify", "--n", str(n), "-", "--format", fmt])
        assert (code, out.getvalue(), err.getvalue()) == whole_text_verdict(n, text, fmt)

    @pytest.mark.parametrize("at,fault", [(0, "p13"), (0, "p32"), (4095, "p13"),
                                          (4096, "p21"), (8191, "p12"), (10_000, "p21")])
    def test_a_faulted_prefix_past_64_discs_gets_the_oracle_report(
            self, capsys, monkeypatch, at, fault):
        """The board lays out 64 of the 100 discs and checks the word by the
        closed form; the oracle holds all 100 and replays from the
        recursion's position 50 moves before the fault."""
        codes = []

        def sink(chunk):
            codes.extend(chunk)
            if len(codes) > 12_000:
                raise EOFError

        with pytest.raises(EOFError):
            ENGINES["grammar"](100, False, sink)
        assert codes[at] != fault
        codes[at] = fault
        monkeypatch.setattr("sys.stdin", io.StringIO(" ".join(codes)))
        code, out, _ = run_cli(capsys, "verify", "--n", "100", "-", "--format", "json")
        start = max(0, at - 50)
        expected = checked_replay(100, list(map(MoveSymbol.parse, codes[start:])), start)
        report = json.loads(out)
        assert code == 1
        assert tuple(report.values())[1:] == expected

    def test_a_long_token_is_quoted_short_in_bounded_memory(self, capsys, monkeypatch):
        token = "p" * 1_000_000
        monkeypatch.setattr("sys.stdin", io.StringIO(f"p13 {token} p12"))
        tracemalloc.start()
        try:
            code = main(["verify", "--n", "3", "-"])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        out, err = capsys.readouterr()
        assert (code, out) == (2, "")
        assert err == parse_error(1, token)
        assert len(err.encode()) < 300
        # Carrying the whole token across chunk boundaries peaks above 1 MB.
        assert peak < 600_000

    def test_memory_does_not_grow_with_the_input(self, capsys, monkeypatch):
        word = " ".join(mv.code for mv in recursive_solve(HanoiInstance(16)))
        monkeypatch.setattr("sys.stdin", io.StringIO(word))
        tracemalloc.start()
        try:
            code = main(["verify", "--n", "16", "-"])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0
        assert "moves_checked: 65535" in capsys.readouterr().out
        # Parsing the whole 262,140-character text first peaks near 5 MB;
        # reading it 8,192 characters at a time peaks near 0.3 MB.
        assert peak < 600_000


class TestCompare:
    def test_small_n_agreement_includes_bfs(self, capsys):
        code, out, _ = run_cli(capsys, "compare", "--n", "3")
        assert code == 0
        assert "bfs:" in out
        assert "agreement: 4 engines, 7 moves" in out

    def test_large_n_skips_bfs(self, capsys):
        code, out, _ = run_cli(capsys, "compare", "--n", "12")
        assert code == 0
        assert "bfs: skipped" in out
        assert "agreement: 3 engines, 4095 moves" in out

    def test_divergence_exits_one(self, capsys, monkeypatch):
        reversed_word = [mv.code for mv in recursive_solve(HanoiInstance(3))][::-1]
        monkeypatch.setitem(ENGINES, "recursive", lambda n, unsafe, sink: sink(reversed_word))
        code, out, _ = run_cli(capsys, "compare", "--n", "3")
        assert code == 1
        assert "divergence: grammar vs recursive at index 1" in out

    # At 30 discs malloc refuses the 3^30 slots, more bytes than the address
    # space holds; at 38 CPython refuses them from its size arithmetic; at
    # 41 it cannot index them. Never lift the cap between 12 and 27 discs:
    # there the allocation can succeed and fill gigabytes.
    @pytest.mark.parametrize("n", [30, 38, 41])
    def test_bfs_past_the_largest_list_is_refused_before_any_engine(self, capsys, monkeypatch, n):
        # each other engine would first fill a list of 2^n moves
        def never(*args):
            pytest.fail("an engine ran")

        for engine in ("grammar", "pda", "recursive"):
            monkeypatch.setitem(ENGINES, engine, never)
        code, out, err = run_cli(capsys, "compare", "--n", str(n), "--unsafe-no-cap")
        assert (code, out) == (3, "")
        assert err.startswith(f"hanoilang: engine bfs failed: breadth-first search at {n} discs: ")
        assert err.count("\n") == 1

    def test_no_cap_stops_it_past_24_discs(self, capsys, monkeypatch):
        # Stubs hand over the 25-disc word's first three chunks: a full run
        # takes seconds, and is checked once in CI.
        codes = [move_at(25, k).code for k in range(1, 3 * _CHUNK + 1)]

        def first_chunks(n, unsafe, sink):
            for start in range(0, len(codes), _CHUNK):
                sink(codes[start:start + _CHUNK])

        for engine in ("grammar", "pda", "recursive"):
            monkeypatch.setitem(ENGINES, engine, first_chunks)
        code, out, err = run_cli(capsys, "compare", "--n", "25")
        assert (code, err) == (0, "")
        assert re.sub(r"[0-9.]+ ms", "ms", out) == (
            "bfs: skipped (capped at 10 discs)\ngrammar: 12288 moves in ms\n"
            "pda: 12288 moves in ms\nrecursive: 12288 moves in ms\n"
            "agreement: 3 engines, 12288 moves\n")

    def test_bfs_runs_first_and_lines_keep_the_engine_order(self, capsys, monkeypatch):
        word = [mv.code for mv in recursive_solve(HanoiInstance(3))]
        calls = []

        def recording(name):
            def engine(n, unsafe, sink):
                calls.append(name)
                sink(list(word))
            return engine

        for engine in ENGINES:
            monkeypatch.setitem(ENGINES, engine, recording(engine))
        code, out, _ = run_cli(capsys, "compare", "--n", "3")
        assert code == 0
        assert calls[0] == "bfs" and sorted(calls) == sorted(ENGINES)
        assert [line.split(":")[0] for line in out.splitlines()] == [*ENGINES, "agreement"]


def closed_word(n):
    return [move_at(n, k).code for k in range(1, 2 ** n)]


def altered(codes, *indices):
    """codes with the move at each index swapped for another one."""
    codes = list(codes)
    for index in indices:
        codes[index] = "p12" if codes[index] == "p13" else "p13"
    return codes


def handing_over(codes):
    """A stub engine that hands codes over in lists of _CHUNK."""
    def engine(n, unsafe, sink):
        for start in range(0, len(codes), _CHUNK):
            sink(codes[start:start + _CHUNK])
    return engine


ALL_14 = "bfs: skipped (capped at 10 discs)\ngrammar: 16383 moves in ms\npda: 16383 moves in ms\n" \
    "recursive: 16383 moves in ms\n"
ALL_10 = "grammar: 1023 moves in ms\npda: 1023 moves in ms\nrecursive: 1023 moves in ms\n" \
    "bfs: 1023 moves in ms\n"


class TestCompareDivergence:
    """compare with stub engines: stdout, with timings masked, and exit
    code as the version that held every word printed them. Chunks start
    at multiples of 4,096."""

    @pytest.mark.parametrize("n, stubs, expected", [
        pytest.param(14, {"pda": lambda w: altered(w, 0)},
                     ALL_14 + "divergence: grammar vs pda at index 0\n", id="first move"),
        pytest.param(14, {"pda": lambda w: altered(w, 4095)},
                     ALL_14 + "divergence: grammar vs pda at index 4095\n", id="end of a chunk"),
        pytest.param(14, {"pda": lambda w: altered(w, 4096)},
                     ALL_14 + "divergence: grammar vs pda at index 4096\n", id="chunk seam 4096"),
        pytest.param(14, {"recursive": lambda w: altered(w, 8192)},
                     ALL_14 + "divergence: grammar vs recursive at index 8192\n",
                     id="chunk seam 8192"),
        pytest.param(14, {"pda": lambda w: altered(w, 16382)},
                     ALL_14 + "divergence: grammar vs pda at index 16382\n", id="last move"),
        pytest.param(14, {"pda": lambda w: w[:-1]},
                     "bfs: skipped (capped at 10 discs)\ngrammar: 16383 moves in ms\n"
                     "pda: 16382 moves in ms\nrecursive: 16383 moves in ms\n"
                     "divergence: grammar vs pda at index 16382\n", id="short by one"),
        pytest.param(14, {"pda": lambda w: w + ["p12"]},
                     "bfs: skipped (capped at 10 discs)\ngrammar: 16383 moves in ms\n"
                     "pda: 16384 moves in ms\nrecursive: 16383 moves in ms\n"
                     "divergence: grammar vs pda at index 16383\n", id="long by one"),
        pytest.param(14, {"recursive": lambda w: []},
                     "bfs: skipped (capped at 10 discs)\ngrammar: 16383 moves in ms\n"
                     "pda: 16383 moves in ms\nrecursive: 0 moves in ms\n"
                     "divergence: grammar vs recursive at index 0\n", id="no moves"),
        pytest.param(14, {"grammar": lambda w: altered(w, 5000), "pda": lambda w: altered(w, 5000)},
                     ALL_14 + "divergence: grammar vs recursive at index 5000\n",
                     id="reference and pda wrong the same way"),
        pytest.param(14, {"pda": lambda w: altered(w, 5000),
                          "recursive": lambda w: altered(w, 5000)},
                     ALL_14 + "divergence: grammar vs pda at index 5000\n",
                     id="pda and recursive wrong the same way"),
        pytest.param(14, {"grammar": lambda w: w[:-1], "pda": lambda w: w[:-1]},
                     "bfs: skipped (capped at 10 discs)\ngrammar: 16382 moves in ms\n"
                     "pda: 16382 moves in ms\nrecursive: 16383 moves in ms\n"
                     "divergence: grammar vs recursive at index 16382\n",
                     id="reference and pda short the same way"),
        pytest.param(14, {"grammar": lambda w: altered(w, 5000),
                          "pda": lambda w: w[:5000] + ["p31"] + w[5001:]},
                     ALL_14 + "divergence: grammar vs pda at index 5000\n",
                     id="reference and pda wrong differently at one index"),
        pytest.param(14, {"grammar": lambda w: altered(w, 5000),
                          "pda": lambda w: altered(w, 5000, 9000)},
                     ALL_14 + "divergence: grammar vs pda at index 9000\n",
                     id="reference and pda apart two chunks later"),
        pytest.param(14, {"grammar": lambda w: w + ["p12"], "pda": lambda w: w[:-1]},
                     "bfs: skipped (capped at 10 discs)\ngrammar: 16384 moves in ms\n"
                     "pda: 16382 moves in ms\nrecursive: 16383 moves in ms\n"
                     "divergence: grammar vs pda at index 16382\n",
                     id="reference long and pda short"),
        pytest.param(10, {"bfs": lambda w: altered(w, 7)},
                     ALL_10 + "divergence: grammar vs bfs at index 7\n", id="bfs"),
        pytest.param(10, {"bfs": lambda w: w[:-1]},
                     "grammar: 1023 moves in ms\npda: 1023 moves in ms\n"
                     "recursive: 1023 moves in ms\nbfs: 1022 moves in ms\n"
                     "divergence: grammar vs bfs at index 1022\n", id="bfs short by one"),
        pytest.param(10, {"bfs": lambda w: altered(w, 700), "grammar": lambda w: altered(w, 700)},
                     ALL_10 + "divergence: grammar vs pda at index 700\n",
                     id="bfs and reference wrong the same way"),
    ])
    def test_output_and_exit_code(self, capsys, monkeypatch, n, stubs, expected):
        word = closed_word(n)
        for engine, codes in stubs.items():
            monkeypatch.setitem(ENGINES, engine, handing_over(codes(word)))
        code, out, err = run_cli(capsys, "compare", "--n", str(n))
        assert (code, re.sub(r"in [0-9.]+ ms", "in ms", out), err) == (1, expected, "")

    def test_agreement_holds_no_word(self, capsys):
        # Three lists of the 16-disc word's 65,535 codes peak near 3 MB;
        # chunk by chunk, about 0.5 MB, most of it the grammar's run cache.
        tracemalloc.start()
        try:
            code, out, _ = run_cli(capsys, "compare", "--n", "16")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (code, out.splitlines()[-1]) == (0, "agreement: 3 engines, 65535 moves")
        assert peak < 1_000_000


class TestEnumerate:
    def test_single_disc_language(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "--n", "1", "--bound", "5")
        assert code == 0
        assert out == "p13\ncardinality: 1\n"

    def test_default_bound_suffices(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "--n", "3")
        assert code == 0
        assert out.endswith("cardinality: 1\n")

    def test_insufficient_bound_yields_empty_language(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "--n", "2", "--bound", "1")
        assert code == 0
        assert out == "cardinality: 0\n"

    def test_zero_bound_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "enumerate", "--n", "2", "--bound", "0")
        assert code == 2
        assert out == ""
        assert "--bound" in err

    def test_cap(self, capsys):
        code, _, err = run_cli(capsys, "enumerate", "--n", "5")
        assert code == 2
        assert "capped" in err


class TestTrace:
    def test_grammar_single_disc(self, capsys):
        code, out, _ = run_cli(capsys, "trace", "--n", "1", "--engine", "grammar")
        assert code == 0
        assert out == "h13(1) ⊢ p13\n"

    def test_grammar_two_discs_first_step(self, capsys):
        _, out, _ = run_cli(capsys, "trace", "--n", "2", "--engine", "grammar")
        assert out.splitlines()[0] == "h13(2) ⊢ h12(1) p13 h23(1)"

    def test_pda_two_discs_configurations(self, capsys):
        code, out, _ = run_cli(capsys, "trace", "--n", "2", "--engine", "pda")
        assert code == 0
        assert out.splitlines() == [
            "⟨q0, ε, z0⟩",
            "⟨q0, ε, h12(1) p13 h23(1)⟩",
            "⟨q0, ε, p12 p13 h23(1)⟩",
            "⟨q0, ε, p13 h23(1)⟩",
            "⟨q0, ε, h23(1)⟩",
            "⟨q0, ε, p23⟩",
            "⟨q0, ε, ε⟩",
        ]

    @pytest.mark.parametrize("n", [1, 4])
    def test_pda_trace_pops_the_solution_and_ends_on_the_empty_stack(self, capsys, n):
        code, out, _ = run_cli(capsys, "trace", "--n", str(n), "--engine", "pda")
        lines = out.splitlines()
        assert code == 0
        assert len(lines) == 2 ** (n + 1) - 1  # 2^(n+1) - 2 transitions
        assert lines[-1] == "⟨q0, ε, ε⟩"
        tops = [line.removeprefix("⟨q0, ε, ").removesuffix("⟩").split()[0] for line in lines[:-1]]
        assert [top for top in tops if top.startswith("p")] == [
            mv.code for mv in recursive_solve(HanoiInstance(n))]

    def test_json_grammar_trace(self, capsys):
        code, out, _ = run_cli(capsys, "trace", "--n", "2", "--format", "json")
        entries = json.loads(out)
        assert code == 0
        assert entries[0] == {"step": 0, "form": "h13(2)"}
        assert entries[-1]["form"] == "p12 p13 p23"
        assert [e["step"] for e in entries] == list(range(len(entries)))

    def test_json_pda_trace(self, capsys):
        code, out, _ = run_cli(capsys, "trace", "--n", "1", "--engine", "pda", "--format", "json")
        entries = json.loads(out)
        assert code == 0
        assert entries == [
            {"step": 0, "stack": "z0"},
            {"step": 1, "stack": "p13"},
            {"step": 2, "stack": "ε"},
        ]

    @pytest.mark.parametrize("engine", ["grammar", "pda"])
    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_three_discs_match_the_golden_trace_byte_for_byte(self, engine, fmt):
        suffix = "txt" if fmt == "text" else "json"
        golden = Path(__file__).parent / "data" / f"trace_n3_{engine}.{suffix}"
        proc = subprocess.run(
            [sys.executable, "-m", "hanoilang", "trace", "--n", "3", "--engine", engine,
             "--format", fmt],
            capture_output=True, env=dict(SUBPROCESS_ENV, PYTHONIOENCODING="utf-8"))
        assert (proc.returncode, proc.stderr) == (0, b"")
        assert proc.stdout == golden.read_bytes()

    def test_limit_truncates(self, capsys):
        code, out, _ = run_cli(capsys, "trace", "--n", "3", "--limit", "2")
        assert code == 0
        assert len(out.splitlines()) == 2

    @pytest.mark.parametrize("engine", ["grammar", "pda"])
    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_limit_above_maxsize_is_no_limit(self, capsys, engine, fmt):
        # islice takes at most sys.maxsize; no trace has that many entries
        argv = ["trace", "--n", "2", "--engine", engine, "--format", fmt]
        unlimited = run_cli(capsys, *argv)
        assert unlimited[0] == 0
        for limit in (sys.maxsize, sys.maxsize + 1, 10 ** 23):
            assert run_cli(capsys, *argv, "--limit", str(limit)) == unlimited

    def test_zero_limit_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "trace", "--n", "2", "--limit", "0")
        assert code == 2
        assert out == ""
        assert "--limit" in err

    def test_cap(self, capsys):
        code, _, err = run_cli(capsys, "trace", "--n", "7")
        assert code == 2
        assert "capped" in err

    def test_unsafe_flag_lifts_cap(self, capsys):
        code, out, _ = run_cli(capsys, "trace", "--n", "7", "--engine", "pda",
                               "--unsafe-no-cap", "--limit", "3")
        assert code == 0
        assert out.splitlines()[0] == "⟨q0, ε, z0⟩"


class TestParser:
    def test_no_subcommand_is_usage_error(self, capsys):
        assert run_cli(capsys, )[0] == 2

    @pytest.mark.parametrize("argv", [
        ["verify", "-"], ["compare"], ["enumerate"], ["trace"],
    ], ids=lambda argv: argv[0])
    def test_zero_discs_is_usage_error_in_every_other_subcommand(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv, "--n", "0")
        assert (code, out) == (2, "")
        assert err == "hanoilang: --n must be at least 1, got 0\n"

    def test_help_exits_zero(self, capsys):
        assert run_cli(capsys, "--help")[0] == 0

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "hanoilang", "solve", "--n", "2"],
            capture_output=True,
            text=True,
            env=SUBPROCESS_ENV,
        )
        assert proc.returncode == 0
        assert proc.stdout == TWO_DISC_WORD + "\n"

    def test_argparse_reads_what_the_plain_reader_declines(self, capsys):
        code, out, _ = run_cli(capsys, "solve", "--eng", "pda", "--n=2")
        assert (code, out) == (0, TWO_DISC_WORD + "\n")


# Tokens for command lines that argparse and the plain reader may read
# differently: every name and value the table declares, and the forms
# that only argparse reads or rejects.
OPTION_NAMES = sorted({name for _, _, options in COMMANDS.values() for name in options
                       if name.startswith("-")})
CHOICES = sorted({choice for _, _, options in COMMANDS.values() for spec in options.values()
                  for choice in spec.get("choices", ())})
VALUES = ["0", "1", "3", "12", "-", "-1", "1_0", " 5", "0x10", "+2", "", "nope", "moves.txt"]
STRAY = ["-h", "--help", "--", "-n", "--eng", "--str", "--n=3", "--engine=pda", "--bogus", "solve"]


@st.composite
def plain_command_lines(draw):
    """A well-formed command line drawn from the table: a subcommand, its
    required arguments, some of its other options, in any order."""
    command = draw(st.sampled_from(sorted(COMMANDS)))
    groups = []
    for name, spec in COMMANDS[command][2].items():
        if not name.startswith("-"):
            groups.append([draw(st.sampled_from(["-", "moves.txt"]))])
        elif spec.get("required") or draw(st.booleans()):
            if spec.get("action") == "store_true":
                groups.append([name])
            elif "choices" in spec:
                groups.append([name, draw(st.sampled_from(sorted(spec["choices"])))])
            else:
                groups.append([name, str(draw(st.integers(0, 30)))])
    return [command, *(token for group in draw(st.permutations(groups)) for token in group)]


def parsed_by_argparse(argv):
    with contextlib.redirect_stderr(io.StringIO()), contextlib.redirect_stdout(io.StringIO()):
        try:
            return vars(build_parser().parse_args(argv))
        except SystemExit:
            return None


class TestPlainReader:
    @settings(max_examples=300, deadline=None)
    @given(plain_command_lines())
    def test_plain_command_lines_need_no_argparse(self, argv):
        args = _plain_args(argv)
        assert args is not None
        assert vars(args) == parsed_by_argparse(argv)

    @settings(max_examples=500, deadline=None)
    @given(plain_command_lines(), st.lists(st.tuples(
        st.integers(0, 20), st.sampled_from(OPTION_NAMES + CHOICES + VALUES + STRAY)), max_size=3),
        st.booleans())
    def test_the_plain_reader_agrees_with_argparse_or_declines(self, argv, inserts, cut):
        for position, token in inserts:
            argv.insert(position % (len(argv) + 1), token)
        if cut:
            argv.pop()
        args = _plain_args(argv)
        if args is not None:
            assert vars(args) == parsed_by_argparse(argv)

    @pytest.mark.parametrize("argv", [
        ["--help"], ["-h"], ["solve", "--help"], ["nope", "--n", "3"], ["solve"],
        ["solve", "--n", "x"], ["solve", "--n", "-1"], ["solve", "--n", "0x10"],
        ["solve", "--n", "3", "--engine", "nope"], ["solve", "--n", "3", "--bogus"],
        ["compare", "--n", "3", "extra"], ["verify", "--n", "3"], ["verify", "--n", "3", "a", "b"],
        ["solve", "--eng", "pda", "--n", "3"], ["solve", "--n=3"], ["solve", "--", "--n", "3"],
        ["solve", "--n"], ["trace", "--n", "2", "--limit", "-1"],
    ], ids=" ".join)
    def test_what_the_plain_reader_declines(self, argv):
        assert _plain_args(argv) is None

    def test_the_benchmarks_and_the_readmes_command_lines_are_plain(self):
        sys.path.insert(0, str(Path(__file__).parents[1] / "bench"))
        try:
            import workloads
        finally:
            sys.path.pop(0)
        ops = [workloads.solve_op(1, engine, fmt) for engine in ENGINES for fmt in ("text", "json")]
        ops += [workloads.setup_op(name) for name in workloads.NAMES]
        lines = [list(op.argv) for op in ops]
        lines += [["solve", "--n", "15", "--engine", engine, "--stream"] for engine in ENGINES]
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        (block,) = re.findall(r"^## Command line\n.*?^```sh\n(.*?)^```", readme, flags=re.M | re.S)
        lines += [line.split("#")[0].split("|")[0].split()[1:] for line in block.splitlines()]
        assert len(lines) > 20
        for argv in lines:
            args = _plain_args(argv)
            assert args is not None, argv
            assert vars(args) == parsed_by_argparse(argv), argv
