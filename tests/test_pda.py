"""Generic pushdown automaton machinery, independent of the Hanoi builders."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hanoilang.pda import (
    EmptyStack,
    NondeterministicPda,
    Pda,
    PdaConfiguration,
    PdaError,
    RunOutcome,
    RunTrace,
    StackSymbol,
    is_deterministic,
    run_to_empty_stack,
    step,
)

Z = StackSymbol("Z")
A = StackSymbol("A")
M1 = StackSymbol("m1", observable=True)
M2 = StackSymbol("m2", observable=True)


def make_pda(transitions, states=("q",), start_state="q", start_stack=Z,
             input_alphabet=(), stack_alphabet=None):
    if stack_alphabet is None:
        stack_alphabet = {Z, A, M1, M2}
    return Pda(
        states=frozenset(states),
        input_alphabet=frozenset(input_alphabet),
        stack_alphabet=frozenset(stack_alphabet),
        transitions=transitions,
        start_state=start_state,
        start_stack=start_stack,
    )


def anbn_pda():
    """Accepts a^n b^n (n >= 1) by empty stack: an A is pushed per a and
    popped per b, and the bottom is popped once the b's have matched."""
    return Pda(
        states=frozenset({"q0", "q1", "qf"}),
        input_alphabet=frozenset({"a", "b"}),
        stack_alphabet=frozenset({Z, A}),
        transitions={
            ("q0", "a", Z): (("q0", (A, Z)),),
            ("q0", "a", A): (("q0", (A, A)),),
            ("q0", "b", A): (("q1", ()),),
            ("q1", "b", A): (("q1", ()),),
            ("q1", None, Z): (("qf", ()),),
        },
        start_state="q0",
        start_stack=Z,
    )


class TestConstruction:
    def test_unknown_start_state_rejected(self):
        with pytest.raises(PdaError):
            make_pda({}, start_state="nowhere")

    def test_start_stack_must_be_in_alphabet(self):
        with pytest.raises(PdaError):
            make_pda({}, start_stack=StackSymbol("other"))

    def test_transition_on_unknown_stack_symbol_rejected(self):
        ghost = StackSymbol("ghost")
        with pytest.raises(PdaError):
            make_pda({("q", None, ghost): (("q", ()),)})

    def test_transition_pushing_unknown_symbol_rejected(self):
        ghost = StackSymbol("ghost")
        with pytest.raises(PdaError):
            make_pda({("q", None, Z): (("q", (ghost,)),)})

    def test_transition_on_unknown_letter_rejected(self):
        with pytest.raises(PdaError):
            make_pda({("q", "x", Z): (("q", ()),)})


class TestStep:
    def test_epsilon_move_replaces_top(self):
        pda = make_pda({("q", None, Z): (("q", (A, Z)),)})
        config = PdaConfiguration("q", (), (Z,))
        assert step(pda, config) == {PdaConfiguration("q", (), (A, Z))}

    def test_input_move_consumes_letter(self):
        pda = anbn_pda()
        config = PdaConfiguration("q0", ("a", "b"), (Z,))
        assert step(pda, config) == {PdaConfiguration("q0", ("b",), (A, Z))}

    def test_union_of_epsilon_and_input_moves(self):
        pda = make_pda(
            {
                ("q", None, Z): (("q", ()),),
                ("q", "a", Z): (("q", (A, Z)),),
            },
            input_alphabet={"a"},
        )
        config = PdaConfiguration("q", ("a",), (Z,))
        assert step(pda, config) == {
            PdaConfiguration("q", ("a",), ()),
            PdaConfiguration("q", (), (A, Z)),
        }

    def test_stuck_configuration_has_no_successors(self):
        pda = make_pda({})
        assert step(pda, PdaConfiguration("q", (), (Z,))) == set()

    def test_empty_stack_raises(self):
        pda = make_pda({})
        with pytest.raises(EmptyStack):
            step(pda, PdaConfiguration("q", (), ()))


class TestIsDeterministic:
    def test_empty_transition_table_is_deterministic(self):
        assert is_deterministic(make_pda({}))

    def test_single_epsilon_moves_are_deterministic(self):
        pda = make_pda({("q", None, Z): (("q", (A,)),), ("q", None, A): (("q", ()),)})
        report = is_deterministic(pda)
        assert report
        assert report.witness is None

    def test_two_epsilon_targets_fail(self):
        pda = make_pda({("q", None, Z): (("q", (A,)), ("q", ()))})
        report = is_deterministic(pda)
        assert not report
        assert report.witness == ("q", Z)

    def test_epsilon_plus_input_move_fails(self):
        pda = make_pda(
            {
                ("q", None, Z): (("q", ()),),
                ("q", "a", Z): (("q", (Z,)),),
            },
            input_alphabet={"a"},
        )
        report = is_deterministic(pda)
        assert not report
        assert report.witness == ("q", Z)
        assert "epsilon" in report.reason

    def test_two_targets_on_one_letter_fail(self):
        pda = make_pda(
            {("q", "a", Z): (("q", (Z,)), ("q", ()))},
            input_alphabet={"a"},
        )
        assert not is_deterministic(pda)

    def test_distinct_letters_do_not_conflict(self):
        pda = make_pda(
            {
                ("q", "a", Z): (("q", (A, Z)),),
                ("q", "b", Z): (("q", ()),),
            },
            input_alphabet={"a", "b"},
        )
        assert is_deterministic(pda)


class TestRunToEmptyStack:
    def test_emits_observables_in_pop_order(self):
        pda = make_pda(
            {
                ("q", None, Z): (("q", (M1, M2)),),
                ("q", None, M1): (("q", ()),),
                ("q", None, M2): (("q", ()),),
            }
        )
        trace = run_to_empty_stack(pda, (), step_limit=10)
        assert trace.outcome is RunOutcome.EMPTY_STACK_HALT
        assert trace.steps == 3
        assert trace.emitted == ("m1", "m2")
        # an observer receives the payloads instead of the trace
        seen = []
        observed = run_to_empty_stack(pda, (), observer=seen.append, step_limit=10)
        assert observed == RunTrace(steps=3, emitted=(), outcome=RunOutcome.EMPTY_STACK_HALT)
        assert seen == ["m1", "m2"]

    def test_observer_is_optional(self):
        pda = make_pda({("q", None, Z): (("q", ()),)})
        trace = run_to_empty_stack(pda, (), step_limit=5)
        assert trace.outcome is RunOutcome.EMPTY_STACK_HALT
        assert trace.emitted == ()

    def test_consumes_input_letters(self):
        pda = make_pda(
            {
                ("q", "a", Z): (("q", (Z,)),),
                ("q", "b", Z): (("q", ()),),
            },
            input_alphabet={"a", "b"},
        )
        trace = run_to_empty_stack(pda, ("a", "a", "b"), step_limit=10)
        assert trace.outcome is RunOutcome.EMPTY_STACK_HALT
        assert trace.steps == 3

    def test_leftover_input_is_stuck_not_halted(self):
        pda = make_pda({("q", None, Z): (("q", ()),)})
        trace = run_to_empty_stack(pda, ("a",), step_limit=10,)
        assert trace.outcome is RunOutcome.STUCK

    def test_no_applicable_transition_is_stuck(self):
        pda = make_pda({})
        trace = run_to_empty_stack(pda, (), step_limit=10)
        assert trace.outcome is RunOutcome.STUCK
        assert trace.steps == 0

    def test_step_limit_outcome(self):
        pda = make_pda({("q", None, Z): (("q", (Z,)),)})
        trace = run_to_empty_stack(pda, (), step_limit=5)
        assert trace.outcome is RunOutcome.STEP_LIMIT
        assert trace.steps == 5

    def test_rejects_nondeterministic_machine(self):
        pda = make_pda({("q", None, Z): (("q", (A,)), ("q", ()))})
        with pytest.raises(NondeterministicPda):
            run_to_empty_stack(pda, (), step_limit=10)

    def test_step_limit_must_be_positive(self):
        pda = make_pda({})
        with pytest.raises(ValueError):
            run_to_empty_stack(pda, (), step_limit=0)


class TestAcceptsByEmptyStack:
    @pytest.mark.parametrize("word", ["ab", "aabb", "aaabbb"])
    def test_accepts_balanced_words(self, word):
        trace = run_to_empty_stack(anbn_pda(), tuple(word), step_limit=50)
        assert trace.outcome is RunOutcome.EMPTY_STACK_HALT
        assert trace.steps == len(word) + 1

    @pytest.mark.parametrize("word", ["", "a", "b", "ba", "abb", "aab", "abab"])
    def test_rejects_unbalanced_words(self, word):
        trace = run_to_empty_stack(anbn_pda(), tuple(word), step_limit=50)
        assert trace.outcome is RunOutcome.STUCK

    def test_tiny_limit_is_inconclusive(self):
        trace = run_to_empty_stack(anbn_pda(), ("a", "a", "b", "b"), step_limit=2)
        assert trace.outcome is RunOutcome.STEP_LIMIT
        assert trace.steps == 2

    def test_empty_word_accepted_when_the_start_stack_pops(self):
        pda = make_pda({("q", None, Z): (("q", ()),)})
        trace = run_to_empty_stack(pda, (), step_limit=1)
        assert trace.outcome is RunOutcome.EMPTY_STACK_HALT


LETTERS = ("a", "b")
# what a (state, stack top) gets, moves twice as often as dead ends
KINDS = ("epsilon", "letters") * 2 + ("none", "empty")


@st.composite
def deterministic_runs(draw):
    """A random deterministic automaton, an input word and a step limit.

    Each (state, stack top) gets nothing (a dead end), one epsilon move, an
    entry with no targets, or at most one move per input letter. Pushed
    words reuse the stack alphabet, so runs may loop until the step limit.
    Input words may hold a letter with no moves at all.
    """
    states = [f"q{i}" for i in range(draw(st.integers(1, 3)))]
    symbols = [StackSymbol(f"s{i}", observable=draw(st.booleans()))
               for i in range(draw(st.integers(2, 5)))]
    moves = st.tuples(st.sampled_from(states), st.lists(st.sampled_from(symbols), max_size=3))
    transitions = {}
    for state in states:
        for top in symbols:
            kind = draw(st.sampled_from(KINDS))
            if kind == "epsilon":
                transitions[state, None, top] = (draw(moves),)
            elif kind == "empty":
                transitions[state, None, top] = ()
            elif kind == "letters":
                for letter in draw(st.sets(st.sampled_from(LETTERS), min_size=1)):
                    transitions[state, letter, top] = (draw(moves),)
    pda = Pda(
        states=frozenset(states),
        input_alphabet=frozenset(LETTERS),
        stack_alphabet=frozenset(symbols),
        transitions=transitions,
        start_state=draw(st.sampled_from(states)),
        start_stack=draw(st.sampled_from(symbols)),
    )
    word = tuple(draw(st.lists(st.sampled_from(LETTERS + ("c",)), max_size=4)))
    return pda, word, draw(st.integers(1, 12))


def stepwise_run(pda, word, step_limit):
    """run_to_empty_stack's contract, by iterating the symbolic step."""
    config = PdaConfiguration(pda.start_state, word, (pda.start_stack,))
    emitted = []
    steps = 0
    while config.stack:
        successors = step(pda, config)
        if not successors:
            return RunTrace(steps, tuple(emitted), RunOutcome.STUCK)
        if steps >= step_limit:
            return RunTrace(steps, tuple(emitted), RunOutcome.STEP_LIMIT)
        top = config.stack[0]
        if top.observable:
            emitted.append(top.payload)
        (config,) = successors
        steps += 1
    outcome = RunOutcome.STUCK if config.remaining_input else RunOutcome.EMPTY_STACK_HALT
    return RunTrace(steps, tuple(emitted), outcome)


@settings(max_examples=400)
@given(deterministic_runs())
def test_compiled_run_matches_stepwise_run(case):
    pda, word, step_limit = case
    assert is_deterministic(pda)
    expected = stepwise_run(pda, word, step_limit)
    assert run_to_empty_stack(pda, word, step_limit=step_limit) == expected
    seen = []
    observed = run_to_empty_stack(pda, word, observer=seen.append, step_limit=step_limit)
    assert observed == RunTrace(expected.steps, (), expected.outcome)
    assert tuple(seen) == expected.emitted


# Hand-built runs that end each way, including paths random machines rarely
# take; each goes through the same comparison as the random ones.
OUTCOME_CASES = {
    "halt-after-input-and-output": (
        make_pda({("q", "a", Z): (("q", (M1,)),), ("q", None, M1): (("q", ()),)},
                 input_alphabet={"a"}),
        ("a",), RunOutcome.EMPTY_STACK_HALT),
    "halt-through-a-state-change": (
        make_pda({("p", "a", Z): (("q", (Z,)),), ("q", None, Z): (("p", ()),)},
                 states=("p", "q"), start_state="p", input_alphabet={"a"}),
        ("a",), RunOutcome.EMPTY_STACK_HALT),
    "epsilon-entry-without-targets-falls-to-the-letter": (
        make_pda({("q", None, Z): (), ("q", "a", Z): (("q", ()),)}, input_alphabet={"a"}),
        ("a",), RunOutcome.EMPTY_STACK_HALT),
    "stuck-without-a-move": (
        make_pda({("q", None, Z): (("q", (M1, A)),), ("q", None, M1): (("q", ()),)}),
        (), RunOutcome.STUCK),
    "stuck-with-input-left": (
        make_pda({("q", None, Z): (("q", (M1,)),), ("q", None, M1): (("q", ()),)}),
        ("a",), RunOutcome.STUCK),
    "step-limit": (
        make_pda({("q", None, Z): (("q", (M1, Z)),), ("q", None, M1): (("q", ()),)}),
        (), RunOutcome.STEP_LIMIT),
}


@pytest.mark.parametrize("name", OUTCOME_CASES)
def test_compiled_run_matches_stepwise_run_on_each_outcome(name):
    pda, word, outcome = OUTCOME_CASES[name]
    expected = stepwise_run(pda, word, 5)
    assert expected.outcome is outcome
    assert run_to_empty_stack(pda, word, step_limit=5) == expected
