"""Command-line behaviour: output shapes, exit codes, caps, and streams."""

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hanoilang
from hanoilang.cli import main
from hanoilang.constructions import recursive_solve
from hanoilang.hanoi import MoveSymbol

TWO_DISC_WORD = "p12 p13 p23"

# `python -m hanoilang` in a subprocess imports the same package as the tests
SUBPROCESS_ENV = dict(os.environ, PYTHONPATH=str(Path(hanoilang.__file__).parents[1]))


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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

    @pytest.mark.parametrize("engine", ["grammar", "pda", "recursive", "bfs"])
    def test_engines_agree_on_stdout(self, capsys, engine):
        code, out, _ = run_cli(capsys, "solve", "--n", "4", "--engine", engine)
        assert code == 0
        moves = out.split()
        assert len(moves) == 15

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

    def test_stream_one_move_per_line(self, capsys):
        code, out, err = run_cli(capsys, "solve", "--n", "2", "--stream")
        assert code == 0
        assert out == TWO_DISC_WORD.replace(" ", "\n") + "\n"
        assert "verified=true" in err

    def test_stream_matches_unstreamed_output(self, capsys):
        _, streamed, _ = run_cli(capsys, "solve", "--n", "4", "--stream")
        _, plain, _ = run_cli(capsys, "solve", "--n", "4")
        assert streamed.split() == plain.split()

    @pytest.mark.parametrize("engine", ["grammar", "recursive"])
    def test_stream_is_byte_identical_across_write_chunks(self, capsys, engine):
        # 8191 moves: two full chunks of streamed lines and a remainder
        _, streamed, _ = run_cli(capsys, "solve", "--n", "13", "--stream", "--engine", engine)
        _, plain, _ = run_cli(capsys, "solve", "--n", "13")
        assert streamed == plain.replace(" ", "\n")

    def test_stream_reports_an_illegal_move_as_unverified(self, capsys, monkeypatch):
        def derive_illegal(grammar, sink, step_limit):
            for code in ("p13", "p13", "p12"):  # the second lands disc 2 on disc 1
                sink(MoveSymbol.parse(code))
            return 3

        monkeypatch.setattr("hanoilang.cli.derive_streaming", derive_illegal)
        code, out, err = run_cli(capsys, "solve", "--n", "2", "--stream")
        assert code == 0
        assert out == "p13\np13\np12\n"
        assert "move_count=3" in err
        assert "verified=false" in err

    def test_stream_pda_goes_through_observer(self, capsys):
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

    def test_materialization_cap(self, capsys):
        code, _, err = run_cli(capsys, "solve", "--n", "25")
        assert code == 3
        assert "capped" in err

    def test_stream_only_exempts_the_grammar_engine(self, capsys):
        # a streamed pda run still materializes its trace, so the cap
        # stays in force for it
        code, _, err = run_cli(capsys, "solve", "--n", "25", "--engine", "pda", "--stream")
        assert code == 3
        assert "capped" in err

    def test_bfs_cap(self, capsys):
        code, _, err = run_cli(capsys, "solve", "--n", "11", "--engine", "bfs")
        assert code == 3
        assert "cap" in err

    def test_unknown_engine_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "solve", "--n", "2", "--engine", "dynamic")
        assert code == 2

    @pytest.mark.parametrize("engine, limit, message", [
        ("grammar", "grammar_step_limit", "derivation exceeded 1 rewrites"),
        ("pda", "pda_step_limit", "automaton run ended step-limit"),
    ])
    def test_engine_failure_exits_three(self, capsys, monkeypatch, engine, limit, message):
        monkeypatch.setattr(f"hanoilang.cli.{limit}", lambda n: 1)
        code, out, err = run_cli(capsys, "solve", "--n", "3", "--engine", engine)
        assert code == 3
        assert out == ""
        assert message in err

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
        monkeypatch.setattr("hanoilang.cli.recursive_solve",
                            lambda instance: recursive_solve(instance)[::-1])
        code, out, _ = run_cli(capsys, "compare", "--n", "3")
        assert code == 1
        assert "divergence: grammar vs recursive at index 1" in out


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
        lines = out.splitlines()
        assert code == 0
        assert lines[0] == "⟨q0, ε, z0⟩"
        assert lines[1] == "⟨q0, ε, h12(1) p13 h23(1)⟩"
        assert lines[-1] == "⟨q0, ε, ε⟩"

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

    def test_limit_truncates(self, capsys):
        code, out, _ = run_cli(capsys, "trace", "--n", "3", "--limit", "2")
        assert code == 0
        assert len(out.splitlines()) == 2

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
