"""Generic pushdown automaton machinery, independent of the Hanoi builders."""

import tracemalloc
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hanoilang.pda import (
    EmptyStack,
    NondeterministicPda,
    Pda,
    PdaError,
    RunOutcome,
    RunTrace,
    StackSymbol,
    _run,
    is_deterministic,
    run_to_empty_stack,
    step,
)

Z = StackSymbol("Z")
A = StackSymbol("A")
M1 = StackSymbol("m1", observable=True)
M2 = StackSymbol("m2", observable=True)


def make_pda(transitions, start_stack=Z):
    return Pda(
        stack_alphabet=frozenset({Z, A, M1, M2}),
        transitions=transitions,
        start_stack=start_stack,
    )


class TestConstruction:
    def test_start_stack_must_be_in_alphabet(self):
        with pytest.raises(PdaError):
            make_pda({}, start_stack=StackSymbol("other"))

    def test_transition_on_unknown_stack_symbol_rejected(self):
        ghost = StackSymbol("ghost")
        with pytest.raises(PdaError):
            make_pda({ghost: ((),)})

    def test_transition_pushing_unknown_symbol_rejected(self):
        ghost = StackSymbol("ghost")
        with pytest.raises(PdaError):
            make_pda({Z: ((ghost,),)})

    def test_pushed_words_are_normalised_to_tuples(self):
        pda = make_pda({Z: [[A, Z], []]})
        assert pda.transitions == {Z: ((A, Z), ())}
        assert step(pda, (Z, M1)) == {(A, Z, M1), (M1,)}


class TestStep:
    def test_epsilon_move_replaces_top(self):
        pda = make_pda({Z: ((A, Z),)})
        assert step(pda, (Z,)) == {(A, Z)}

    def test_pop_leaves_the_rest_of_the_stack(self):
        pda = make_pda({M1: ((),)})
        assert step(pda, (M1, Z)) == {(Z,)}

    def test_moves_are_keyed_by_the_top_alone(self):
        pda = make_pda({Z: ((),)})
        assert step(pda, (A, Z)) == set()
        assert step(pda, (Z, A)) == {(A,)}

    def test_several_targets_give_several_successors(self):
        pda = make_pda({Z: ((A, Z), ())})
        assert step(pda, (Z, M1)) == {(A, Z, M1), (M1,)}

    def test_stuck_configuration_has_no_successors(self):
        pda = make_pda({})
        assert step(pda, (Z,)) == set()

    def test_empty_stack_raises(self):
        pda = make_pda({})
        with pytest.raises(EmptyStack):
            step(pda, ())


class TestIsDeterministic:
    def test_empty_transition_table_is_deterministic(self):
        assert is_deterministic(make_pda({}))

    def test_single_epsilon_moves_are_deterministic(self):
        pda = make_pda({Z: ((A,),), A: ((),)})
        report = is_deterministic(pda)
        assert report
        assert report.witness is None

    def test_two_epsilon_targets_fail(self):
        pda = make_pda({Z: ((A,), ())})
        report = is_deterministic(pda)
        assert not report
        assert report.witness == Z
        assert report.reason == "2 epsilon moves for one situation"

    def test_reason_counts_the_targets(self):
        pda = make_pda({A: ((),), Z: ((), (A,), (M1,))})
        report = is_deterministic(pda)
        assert (report.deterministic, report.witness) == (False, Z)
        assert report.reason == "3 epsilon moves for one situation"

    def test_entry_without_targets_is_deterministic(self):
        assert is_deterministic(make_pda({Z: ()}))

    def test_witness_is_the_top_with_several_moves(self):
        pda = make_pda({Z: ((A,),), A: ((), (M1,)), M1: ((),)})
        report = is_deterministic(pda)
        assert (report.deterministic, report.witness) == (False, A)
        assert report.reason == "2 epsilon moves for one situation"


class TestRunToEmptyStack:
    def test_emits_observables_in_pop_order(self):
        pda = make_pda({Z: ((M1, M2),), M1: ((),), M2: ((),)})
        trace = run_to_empty_stack(pda, (), step_limit=10)
        assert trace.outcome is RunOutcome.EMPTY_STACK_HALT
        assert trace.steps == 3
        assert trace.emitted == ("m1", "m2")

    def test_run_without_observables_emits_nothing(self):
        pda = make_pda({Z: ((),)})
        trace = run_to_empty_stack(pda, (), step_limit=5)
        assert trace.outcome is RunOutcome.EMPTY_STACK_HALT
        assert trace.emitted == ()

    def test_leftover_input_is_stuck_not_halted(self):
        pda = make_pda({Z: ((),)})
        trace = run_to_empty_stack(pda, ("a",), step_limit=10,)
        assert trace.outcome is RunOutcome.STUCK

    def test_no_applicable_transition_is_stuck(self):
        pda = make_pda({})
        trace = run_to_empty_stack(pda, (), step_limit=10)
        assert trace.outcome is RunOutcome.STUCK
        assert trace.steps == 0

    def test_step_limit_outcome(self):
        pda = make_pda({Z: ((Z,),)})
        trace = run_to_empty_stack(pda, (), step_limit=5)
        assert trace.outcome is RunOutcome.STEP_LIMIT
        assert trace.steps == 5

    def test_input_word_does_not_change_the_moves(self):
        pda = make_pda({Z: ((M1, M2, A),), M1: ((),), M2: ((),), A: ((),)})
        accepted = run_to_empty_stack(pda, (), step_limit=10)
        rejected = run_to_empty_stack(pda, ("a", "b"), step_limit=10)
        assert (accepted.steps, accepted.emitted) == (rejected.steps, rejected.emitted) == (
            4, ("m1", "m2"))
        assert (accepted.outcome, rejected.outcome) == (RunOutcome.EMPTY_STACK_HALT,
                                                        RunOutcome.STUCK)

    def test_nondeterminism_error_names_the_witness(self):
        pda = make_pda({Z: ((A,), ())})
        with pytest.raises(NondeterministicPda) as raised:
            run_to_empty_stack(pda, (), step_limit=10)
        assert str(raised.value) == (f"runner needs a deterministic automaton; witness "
                                     f"{Z}: 2 epsilon moves for one situation")

    def test_rejects_nondeterministic_machine(self):
        pda = make_pda({Z: ((A,), ())})
        with pytest.raises(NondeterministicPda):
            run_to_empty_stack(pda, (), step_limit=10)

    def test_step_limit_must_be_positive(self):
        pda = make_pda({})
        with pytest.raises(ValueError):
            run_to_empty_stack(pda, (), step_limit=0)


def countdown_pda(depth):
    """Replaces Z by depth - 1 m1 over A, pops each m1, emitting it, then A."""
    return make_pda({Z: ((M1,) * (depth - 1) + (A,),), M1: ((),), A: ((),)})


class TestAcceptsByEmptyStack:
    @pytest.mark.parametrize("depth", [1, 2, 3, 5])
    def test_accepts_the_empty_word_after_draining(self, depth):
        trace = run_to_empty_stack(countdown_pda(depth), (), step_limit=50)
        assert trace.outcome is RunOutcome.EMPTY_STACK_HALT
        assert trace.steps == depth + 1
        assert trace.emitted == ("m1",) * (depth - 1)

    @pytest.mark.parametrize("word", ["a", "b", "ab", "ba", "abb", "aabb", "abab"])
    def test_rejects_every_nonempty_word(self, word):
        trace = run_to_empty_stack(countdown_pda(3), tuple(word), step_limit=50)
        assert trace.outcome is RunOutcome.STUCK
        assert trace.steps == 4

    def test_tiny_limit_is_inconclusive(self):
        trace = run_to_empty_stack(countdown_pda(3), ("a", "b"), step_limit=2)
        assert trace.outcome is RunOutcome.STEP_LIMIT
        assert trace.steps == 2

    def test_empty_word_accepted_when_the_start_stack_pops(self):
        pda = make_pda({Z: ((),)})
        trace = run_to_empty_stack(pda, (), step_limit=1)
        assert trace.outcome is RunOutcome.EMPTY_STACK_HALT


# what a stack top gets, moves twice as often as dead ends
KINDS = ("move",) * 4 + ("none", "empty")


@st.composite
def deterministic_runs(draw):
    """A random deterministic automaton, an input word and a step limit.

    Each stack top gets nothing (a dead end), one move, or an entry with
    no pushed words. Pushed words reuse the stack alphabet, so runs may
    loop until the step limit. Input words may be nonempty, and no move
    reads them. Limits up to 40 often land inside a run that was recorded
    on an earlier visit, which must then be cut stepwise.
    """
    symbols = [StackSymbol(f"s{i}", observable=draw(st.booleans()))
               for i in range(draw(st.integers(2, 5)))]
    moves = st.lists(st.sampled_from(symbols), max_size=3).map(tuple)
    transitions = {}
    for top in symbols:
        kind = draw(st.sampled_from(KINDS))
        if kind == "move":
            transitions[top] = (draw(moves),)
        elif kind == "empty":
            transitions[top] = ()
    pda = Pda(
        stack_alphabet=frozenset(symbols),
        transitions=transitions,
        start_stack=draw(st.sampled_from(symbols)),
    )
    word = tuple(draw(st.lists(st.sampled_from("ab"), max_size=4)))
    return pda, word, draw(st.integers(1, 40))


def stepwise_run(pda, word, step_limit):
    """run_to_empty_stack's contract, by iterating the symbolic step."""
    stack = (pda.start_stack,)
    emitted = []
    steps = 0
    while stack:
        successors = step(pda, stack)
        if not successors:
            return RunTrace(steps, tuple(emitted), RunOutcome.STUCK)
        if steps >= step_limit:
            return RunTrace(steps, tuple(emitted), RunOutcome.STEP_LIMIT)
        top = stack[0]
        if top.observable:
            emitted.append(top.payload)
        (stack,) = successors
        steps += 1
    outcome = RunOutcome.STUCK if word else RunOutcome.EMPTY_STACK_HALT
    return RunTrace(steps, tuple(emitted), outcome)


@settings(max_examples=400)
@given(deterministic_runs())
def test_compiled_run_matches_stepwise_run(case):
    pda, word, step_limit = case
    assert is_deterministic(pda)
    expected = stepwise_run(pda, word, step_limit)
    assert run_to_empty_stack(pda, word, step_limit=step_limit) == expected


@given(deterministic_runs(), st.integers(1, 4), st.integers(1, 3))
def test_chunked_run_hands_over_the_stepwise_payloads(case, chunk, cache_chunks):
    # replayed runs make the lists grow past chunk, to 2 * chunk - 1 at most,
    # and a cache of a few chunks fills up, leaving the rest stepwise
    pda, _, step_limit = case
    expected = stepwise_run(pda, (), step_limit)
    lists = []
    with mock.patch("hanoilang.grammar._CHUNK", chunk), \
            mock.patch("hanoilang.grammar._CACHE_CHUNKS", cache_chunks):
        run = _run(pda, lists.append, step_limit)
    assert run == (expected.steps, expected.outcome)
    assert [payload for items in lists for payload in items] == list(expected.emitted)
    assert all(chunk <= len(items) < 2 * chunk for items in lists[:-1])
    assert all(0 < len(items) < 2 * chunk for items in lists[-1:])


def test_a_recorded_run_is_replayed_or_cut_at_every_limit():
    # Z pushes C over three A's, and each A pushes B C C: the later visits
    # to A may replay its recorded run, and limits inside it must cut it
    B, C = StackSymbol("b", observable=True), StackSymbol("c", observable=True)
    pda = Pda(frozenset({Z, A, B, C}), {Z: ((C, A, A, A),), A: ((B, C, C),), B: ((),),
                                         C: ((),)}, Z)
    assert stepwise_run(pda, (), 14) == (14, tuple("cbccbccbcc"), RunOutcome.EMPTY_STACK_HALT)
    for limit in range(1, 15):
        assert run_to_empty_stack(pda, (), step_limit=limit) == stepwise_run(pda, (), limit)


def test_a_run_that_never_ends_runs_in_fixed_memory():
    # Z pushes m1 over itself forever: m1's run is recorded and replayed, Z
    # never gets one, and the visit that looks for it must keep nothing
    pda = make_pda({Z: ((M1, Z),), M1: ((),)})
    tracemalloc.start()
    try:
        run = _run(pda, lambda items: None, 10 ** 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert run == (10 ** 5, RunOutcome.STEP_LIMIT)
    assert peak < 1 << 18  # one pointer kept per step would hold 0.8 MB


# Hand-built runs that end each way, including paths random machines rarely
# take; each goes through the same comparison as the random ones.
OUTCOME_CASES = {
    "halt-after-nested-pushes": (
        make_pda({Z: ((A, M1),), A: ((M2, M1),), M1: ((),), M2: ((),)}), (),
        RunOutcome.EMPTY_STACK_HALT),
    "entry-without-targets-is-stuck": (
        make_pda({Z: ((M1, A),), M1: ((),), A: ()}), (), RunOutcome.STUCK),
    "stuck-without-a-move": (make_pda({Z: ((M1, A),), M1: ((),)}), (), RunOutcome.STUCK),
    "stuck-with-input-left": (make_pda({Z: ((M1,),), M1: ((),)}), ("a",), RunOutcome.STUCK),
    "stuck-on-an-entry-without-targets-with-input-left": (
        make_pda({Z: ((M1, A),), M1: ((),), A: ()}), ("a", "b"), RunOutcome.STUCK),
    "step-limit-with-input-left": (
        make_pda({Z: ((M1, Z),), M1: ((),)}), ("a",), RunOutcome.STEP_LIMIT),
    "step-limit": (make_pda({Z: ((M1, Z),), M1: ((),)}), (), RunOutcome.STEP_LIMIT),
}


@pytest.mark.parametrize("name", OUTCOME_CASES)
def test_compiled_run_matches_stepwise_run_on_each_outcome(name):
    pda, word, outcome = OUTCOME_CASES[name]
    expected = stepwise_run(pda, word, 5)
    assert expected.outcome is outcome
    assert run_to_empty_stack(pda, word, step_limit=5) == expected
