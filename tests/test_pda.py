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
    PdaConfiguration,
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


def make_pda(transitions, states=("q",), start_state="q", start_stack=Z):
    return Pda(
        states=frozenset(states),
        stack_alphabet=frozenset({Z, A, M1, M2}),
        transitions=transitions,
        start_state=start_state,
        start_stack=start_stack,
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
            make_pda({("q", ghost): (("q", ()),)})

    def test_transition_pushing_unknown_symbol_rejected(self):
        ghost = StackSymbol("ghost")
        with pytest.raises(PdaError):
            make_pda({("q", Z): (("q", (ghost,)),)})


class TestStep:
    def test_epsilon_move_replaces_top(self):
        pda = make_pda({("q", Z): (("q", (A, Z)),)})
        config = PdaConfiguration("q", ("a",), (Z,))
        assert step(pda, config) == {PdaConfiguration("q", ("a",), (A, Z))}

    def test_move_leaves_the_input_unread(self):
        pda = make_pda({("q", M1): (("q", ()),)})
        config = PdaConfiguration("q", ("a", "b"), (M1, Z))
        assert step(pda, config) == {PdaConfiguration("q", ("a", "b"), (Z,))}

    def test_move_changes_state(self):
        pda = make_pda({("p", Z): (("q", (M1,)),)}, states=("p", "q"), start_state="p")
        assert step(pda, PdaConfiguration("p", (), (Z,))) == {PdaConfiguration("q", (), (M1,))}

    def test_several_targets_give_several_successors(self):
        pda = make_pda({("p", Z): (("q", (A, Z)), ("p", ()))}, states=("p", "q"),
                       start_state="p")
        assert step(pda, PdaConfiguration("p", ("a",), (Z, M1))) == {
            PdaConfiguration("q", ("a",), (A, Z, M1)),
            PdaConfiguration("p", ("a",), (M1,)),
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
        pda = make_pda({("q", Z): (("q", (A,)),), ("q", A): (("q", ()),)})
        report = is_deterministic(pda)
        assert report
        assert report.witness is None

    def test_two_epsilon_targets_fail(self):
        pda = make_pda({("q", Z): (("q", (A,)), ("q", ()))})
        report = is_deterministic(pda)
        assert not report
        assert report.witness == ("q", Z)
        assert report.reason == "2 epsilon moves for one situation"

    def test_reason_counts_the_targets(self):
        pda = make_pda({("q", A): (("q", ()),), ("q", Z): (("q", ()), ("q", (A,)), ("q", (M1,)))})
        report = is_deterministic(pda)
        assert (report.deterministic, report.witness) == (False, ("q", Z))
        assert report.reason == "3 epsilon moves for one situation"

    def test_one_top_in_different_states_does_not_conflict(self):
        pda = make_pda({("p", Z): (("q", (Z,)),), ("q", Z): (("p", ()),)}, states=("p", "q"),
                       start_state="p")
        assert is_deterministic(pda)

    def test_entry_without_targets_is_deterministic(self):
        assert is_deterministic(make_pda({("q", Z): ()}))


class TestRunToEmptyStack:
    def test_emits_observables_in_pop_order(self):
        pda = make_pda(
            {
                ("q", Z): (("q", (M1, M2)),),
                ("q", M1): (("q", ()),),
                ("q", M2): (("q", ()),),
            }
        )
        trace = run_to_empty_stack(pda, (), step_limit=10)
        assert trace.outcome is RunOutcome.EMPTY_STACK_HALT
        assert trace.steps == 3
        assert trace.emitted == ("m1", "m2")

    def test_run_without_observables_emits_nothing(self):
        pda = make_pda({("q", Z): (("q", ()),)})
        trace = run_to_empty_stack(pda, (), step_limit=5)
        assert trace.outcome is RunOutcome.EMPTY_STACK_HALT
        assert trace.emitted == ()

    def test_leftover_input_is_stuck_not_halted(self):
        pda = make_pda({("q", Z): (("q", ()),)})
        trace = run_to_empty_stack(pda, ("a",), step_limit=10,)
        assert trace.outcome is RunOutcome.STUCK

    def test_no_applicable_transition_is_stuck(self):
        pda = make_pda({})
        trace = run_to_empty_stack(pda, (), step_limit=10)
        assert trace.outcome is RunOutcome.STUCK
        assert trace.steps == 0

    def test_step_limit_outcome(self):
        pda = make_pda({("q", Z): (("q", (Z,)),)})
        trace = run_to_empty_stack(pda, (), step_limit=5)
        assert trace.outcome is RunOutcome.STEP_LIMIT
        assert trace.steps == 5

    def test_input_word_does_not_change_the_moves(self):
        pda = make_pda({("q", Z): (("q", (M1, M2, A)),), ("q", M1): (("q", ()),),
                        ("q", M2): (("q", ()),), ("q", A): (("q", ()),)})
        accepted = run_to_empty_stack(pda, (), step_limit=10)
        rejected = run_to_empty_stack(pda, ("a", "b"), step_limit=10)
        assert (accepted.steps, accepted.emitted) == (rejected.steps, rejected.emitted) == (
            4, ("m1", "m2"))
        assert (accepted.outcome, rejected.outcome) == (RunOutcome.EMPTY_STACK_HALT,
                                                        RunOutcome.STUCK)

    def test_nondeterminism_error_names_the_witness(self):
        pda = make_pda({("q", Z): (("q", (A,)), ("q", ()))})
        with pytest.raises(NondeterministicPda) as raised:
            run_to_empty_stack(pda, (), step_limit=10)
        assert str(raised.value) == (f"runner needs a deterministic automaton; witness "
                                     f"{('q', Z)}: 2 epsilon moves for one situation")

    def test_rejects_nondeterministic_machine(self):
        pda = make_pda({("q", Z): (("q", (A,)), ("q", ()))})
        with pytest.raises(NondeterministicPda):
            run_to_empty_stack(pda, (), step_limit=10)

    def test_step_limit_must_be_positive(self):
        pda = make_pda({})
        with pytest.raises(ValueError):
            run_to_empty_stack(pda, (), step_limit=0)


def countdown_pda(depth):
    """Pops Z, then walks states c{depth-1} .. c0 on A, emitting m1 at each."""
    states = [f"c{i}" for i in range(depth)] + ["start"]
    transitions = {("start", Z): ((f"c{depth - 1}", (M1,) * (depth - 1) + (A,)),),
                   ("c0", A): (("c0", ()),)}
    for i in range(1, depth):
        transitions[f"c{i}", M1] = ((f"c{i - 1}", ()),)
    # an A in any other counting state is a dead end
    return make_pda(transitions, states=states, start_state="start")


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
        pda = make_pda({("q", Z): (("q", ()),)})
        trace = run_to_empty_stack(pda, (), step_limit=1)
        assert trace.outcome is RunOutcome.EMPTY_STACK_HALT


# what a (state, stack top) gets, moves twice as often as dead ends
KINDS = ("move",) * 4 + ("none", "empty")


@st.composite
def deterministic_runs(draw):
    """A random deterministic automaton, an input word and a step limit.

    Each (state, stack top) gets nothing (a dead end), one move, or an
    entry with no targets. Pushed words reuse the stack alphabet, so runs
    may loop until the step limit. Input words may be nonempty, and no
    move reads them. Limits up to 40 often land inside a run that was
    recorded on an earlier visit, which must then be cut stepwise.
    """
    states = [f"q{i}" for i in range(draw(st.integers(1, 3)))]
    symbols = [StackSymbol(f"s{i}", observable=draw(st.booleans()))
               for i in range(draw(st.integers(2, 5)))]
    moves = st.tuples(st.sampled_from(states), st.lists(st.sampled_from(symbols), max_size=3))
    transitions = {}
    for state in states:
        for top in symbols:
            kind = draw(st.sampled_from(KINDS))
            if kind == "move":
                transitions[state, top] = (draw(moves),)
            elif kind == "empty":
                transitions[state, top] = ()
    pda = Pda(
        states=frozenset(states),
        stack_alphabet=frozenset(symbols),
        transitions=transitions,
        start_state=draw(st.sampled_from(states)),
        start_stack=draw(st.sampled_from(symbols)),
    )
    word = tuple(draw(st.lists(st.sampled_from("ab"), max_size=4)))
    return pda, word, draw(st.integers(1, 40))


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


@given(deterministic_runs(), st.integers(1, 4), st.integers(1, 3))
def test_chunked_run_hands_over_the_stepwise_payloads(case, chunk, cache_chunks):
    # replayed runs make the lists grow past chunk, to 2 * chunk - 1 at most,
    # and a cache of a few chunks fills up, leaving the rest stepwise
    pda, _, step_limit = case
    expected = stepwise_run(pda, (), step_limit)
    lists = []
    with mock.patch("hanoilang.grammar._CHUNK", chunk), \
            mock.patch("hanoilang.grammar._CACHE_CHUNKS", cache_chunks):
        run = _run(pda, lists.append, step_limit, str.upper)
    assert run == (expected.steps, expected.outcome)
    assert [payload for items in lists for payload in items] == [
        payload.upper() for payload in expected.emitted]
    assert all(chunk <= len(items) < 2 * chunk for items in lists[:-1])
    assert all(0 < len(items) < 2 * chunk for items in lists[-1:])


def test_a_recorded_run_reads_each_part_from_the_row_the_last_one_ended_in():
    # A pushes B over C; B moves from p to q, and C runs three steps from q
    # but one from p, so A's run, recorded at its second visit, is b c c c
    B, C = StackSymbol("b", observable=True), StackSymbol("c", observable=True)
    pda = Pda(frozenset({"p", "q"}), frozenset({Z, A, B, C}), {
        ("p", Z): (("p", (C, A, A)),), ("p", A): (("p", (B, C)),), ("p", B): (("q", ()),),
        ("p", C): (("p", ()),), ("q", C): (("p", (C, C)),)}, "p", Z)
    assert stepwise_run(pda, (), 12) == (12, tuple("cbcccbccc"), RunOutcome.EMPTY_STACK_HALT)
    for limit in range(1, 13):
        assert run_to_empty_stack(pda, (), step_limit=limit) == stepwise_run(pda, (), limit)


def test_a_run_that_never_ends_runs_in_fixed_memory():
    # Z pushes m1 over itself forever: m1's run is recorded and replayed, Z
    # never gets one, and the visit that looks for it must keep nothing
    pda = make_pda({("q", Z): (("q", (M1, Z)),), ("q", M1): (("q", ()),)})
    tracemalloc.start()
    try:
        run = _run(pda, lambda items: None, 10 ** 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert run == (10 ** 6, RunOutcome.STEP_LIMIT)
    assert peak < 1 << 20  # one object kept per step would hold over 8 MB


# Hand-built runs that end each way, including paths random machines rarely
# take; each goes through the same comparison as the random ones.
OUTCOME_CASES = {
    "halt-through-a-state-change": (
        make_pda({("p", Z): (("q", (M1, Z)),), ("q", M1): (("q", ()),), ("q", Z): (("p", ()),)},
                 states=("p", "q"), start_state="p"),
        (), RunOutcome.EMPTY_STACK_HALT),
    "entry-without-targets-is-stuck": (
        make_pda({("q", Z): (("q", (M1, A)),), ("q", M1): (("q", ()),), ("q", A): ()}),
        (), RunOutcome.STUCK),
    "stuck-without-a-move": (
        make_pda({("q", Z): (("q", (M1, A)),), ("q", M1): (("q", ()),)}),
        (), RunOutcome.STUCK),
    "stuck-with-input-left": (
        make_pda({("q", Z): (("q", (M1,)),), ("q", M1): (("q", ()),)}),
        ("a",), RunOutcome.STUCK),
    "stuck-on-an-entry-without-targets-with-input-left": (
        make_pda({("q", Z): (("q", (M1, A)),), ("q", M1): (("q", ()),), ("q", A): ()}),
        ("a", "b"), RunOutcome.STUCK),
    "step-limit-with-input-left": (
        make_pda({("q", Z): (("q", (M1, Z)),), ("q", M1): (("q", ()),)}),
        ("a",), RunOutcome.STEP_LIMIT),
    "step-limit": (
        make_pda({("q", Z): (("q", (M1, Z)),), ("q", M1): (("q", ()),)}),
        (), RunOutcome.STEP_LIMIT),
}


@pytest.mark.parametrize("name", OUTCOME_CASES)
def test_compiled_run_matches_stepwise_run_on_each_outcome(name):
    pda, word, outcome = OUTCOME_CASES[name]
    expected = stepwise_run(pda, word, 5)
    assert expected.outcome is outcome
    assert run_to_empty_stack(pda, word, step_limit=5) == expected
