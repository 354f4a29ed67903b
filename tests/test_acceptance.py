"""Acceptance gate: the eight headline guarantees, each timed against its
budget and reported as a single PASS/FAIL line per criterion.

The lines are collected by conftest.py and printed in an "acceptance
criteria" section at the end of the pytest run, where output capture
cannot swallow them.
"""

import random
import time
from contextlib import contextmanager
from pathlib import Path

import conftest

from hanoilang.cli import main
from hanoilang.constructions import (
    HanoiInstance,
    bfs_optimal,
    build_hanoi_grammar,
    build_hanoi_pda,
    grammar_step_limit,
    pda_step_limit,
    recursive_solve,
)
from hanoilang.grammar import derive_full, enumerate_language
from hanoilang.hanoi import MoveSymbol, validate_sequence
from hanoilang.pda import RunOutcome, is_deterministic, run_to_empty_stack
from oracle import EmptySource, LargerOnSmaller, apply_move, initial_state

GOLDEN_WORD_FILE = Path(__file__).parent / "data" / "hanoi5_word.txt"

ALL_MOVES = [MoveSymbol(i, j) for i in (1, 2, 3) for j in (1, 2, 3) if i != j]


def _report(number: int, title: str, status: str, detail: str) -> None:
    conftest.acceptance_lines.append(
        f"criterion {number} ({title}): {status} [{detail}]"
    )


@contextmanager
def criterion(number: int, title: str, budget_s: float):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        elapsed = time.perf_counter() - started
        _report(number, title, "FAIL", f"{elapsed:.2f}s, budget {budget_s:g}s")
        raise
    elapsed = time.perf_counter() - started
    in_budget = elapsed < budget_s
    _report(
        number, title, "PASS" if in_budget else "FAIL",
        f"{elapsed:.2f}s, budget {budget_s:g}s",
    )
    assert in_budget, f"criterion {number} blew its {budget_s:g}s budget ({elapsed:.2f}s)"


def grammar_word(n):
    return derive_full(build_hanoi_grammar(n), step_limit=grammar_step_limit(n)).word


def test_criterion_1_golden_five_disc_word(capsys):
    with criterion(1, "golden 5-disc word, byte-exact per engine", 1.0):
        expected = GOLDEN_WORD_FILE.read_text(encoding="utf-8")
        for engine in ("grammar", "pda", "recursive"):
            code = main(["solve", "--n", "5", "--engine", engine])
            out = capsys.readouterr().out
            assert code == 0, engine
            assert out == expected, f"{engine} deviated from the golden word"


def test_criterion_2_length_law_every_engine():
    with criterion(2, "2^N - 1 length law, N = 1..16, all engines", 10.0):
        for n in range(1, 17):
            expected = 2 ** n - 1
            assert len(grammar_word(n)) == expected
            trace = run_to_empty_stack(
                build_hanoi_pda(n), (), step_limit=pda_step_limit(n)
            )
            assert len(trace.emitted) == expected
            assert len(recursive_solve(HanoiInstance(n))) == expected


def test_criterion_3_language_cardinality_one():
    with criterion(3, "|language| = 1 for N = 1..4", 30.0):
        for n in range(1, 5):
            words = enumerate_language(
                build_hanoi_grammar(n), max_derivation_length=2 ** n
            )
            assert words == {grammar_word(n)}


def test_criterion_4_generated_words_are_legal_and_solving():
    with criterion(4, "words validate legal and solved, N = 1..16", 10.0):
        for n in range(1, 17):
            report = validate_sequence(n, grammar_word(n))
            assert report.legal, n
            assert report.final_solved, n


def test_criterion_5_bfs_oracle_minimality_and_uniqueness():
    with criterion(5, "BFS oracle: minimal, unique, equal, N = 1..8", 60.0):
        for n in range(1, 9):
            sequence, count = bfs_optimal(n)
            assert len(sequence) == 2 ** n - 1, n
            assert count == 1, n
            assert sequence == grammar_word(n), n


def test_criterion_6_determinism_certificate():
    with criterion(6, "automaton deterministic, N = 1..12", 1.0):
        for n in range(1, 13):
            report = is_deterministic(build_hanoi_pda(n))
            assert report, (n, report.witness, report.reason)


def test_criterion_7_halting_and_step_count():
    with criterion(7, "empty-stack halt in 2^(N+1) - 2 steps, N = 2..12", 5.0):
        # closed form trusted only after the hand-checked small cases
        two = run_to_empty_stack(build_hanoi_pda(2), (), step_limit=pda_step_limit(2))
        assert [m.code for m in two.emitted] == ["p12", "p13", "p23"]
        assert two.steps == 6
        three = run_to_empty_stack(build_hanoi_pda(3), (), step_limit=pda_step_limit(3))
        assert [m.code for m in three.emitted] == [
            "p13", "p12", "p32", "p13", "p21", "p23", "p13",
        ]
        assert three.steps == 14
        for n in range(2, 13):
            trace = run_to_empty_stack(
                build_hanoi_pda(n), (), step_limit=pda_step_limit(n)
            )
            assert trace.outcome is RunOutcome.EMPTY_STACK_HALT, n
            assert trace.steps == 2 ** (n + 1) - 2, n


def test_criterion_8_randomized_legality_properties():
    rng = random.Random(181)
    with criterion(8, "1000 random walks: invariants hold, illegal rejected", 10.0):
        for _ in range(1000):
            n = rng.randint(1, 8)
            state = initial_state(n)
            for _ in range(rng.randint(1, 50)):
                legal, illegal = [], []
                for mv in ALL_MOVES:
                    src = state.peg(mv.src)
                    dst = state.peg(mv.dst)
                    if not src or (dst and dst[-1] < src[-1]):
                        illegal.append(mv)
                    else:
                        legal.append(mv)
                if illegal and rng.random() < 0.25:
                    bad = rng.choice(illegal)
                    try:
                        apply_move(state, bad)
                    except (EmptySource, LargerOnSmaller):
                        pass
                    else:
                        raise AssertionError(f"illegal move {bad} was accepted")
                state = apply_move(state, rng.choice(legal))
                # every constructed state re-validates its own invariants;
                # double-check the disc multiset explicitly anyway
                discs = sorted(d for peg in state.pegs for d in peg)
                assert discs == list(range(1, n + 1))
