"""The compiled derivation loop and the grammar-derived automaton, checked
on random acyclic grammars against derive_step, which stays symbolic."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hanoilang.grammar import (
    Derivation,
    Grammar,
    NoApplicableProduction,
    Production,
    StepLimitExceeded,
    derive_full,
    derive_step,
    derive_streaming,
    nonterminal,
    terminal,
)
from hanoilang.pda import PdaError, RunOutcome, StackSymbol, pda_from_grammar, run_to_empty_stack

TERMINALS = [terminal(letter) for letter in "abc"]
BOTTOM = StackSymbol("z0")


@st.composite
def acyclic_grammars(draw):
    """Nonterminal N_i rewrites only into terminals and N_j with j > i, so
    every derivation ends. A nonterminal may have no production (a dead
    end), several (only the first is used), or an empty right-hand side."""
    nonterminals = [nonterminal(f"N{i}") for i in range(draw(st.integers(1, 6)))]
    productions = []
    for i, lhs in enumerate(nonterminals):
        symbols = TERMINALS + nonterminals[i + 1 :]
        for _ in range(draw(st.integers(0, 2))):
            rhs = draw(st.lists(st.sampled_from(symbols), max_size=3))
            productions.append(Production(lhs, tuple(rhs)))
    return Grammar(
        terminals=frozenset(TERMINALS),
        nonterminals=frozenset(nonterminals),
        start=nonterminals[0],
        productions=tuple(productions),
    )


def stepwise_forms(grammar):
    """Every sentential form derive_step visits, up to a NoApplicableProduction."""
    form = (grammar.start,)
    while form is not None:
        yield form
        form = derive_step(grammar, form)


def stepwise(grammar, step_limit):
    """derive_full's contract, by iterating derive_step."""
    for steps, form in enumerate(stepwise_forms(grammar)):
        if all(sym.is_terminal for sym in form):
            return Derivation(tuple(sym.payload for sym in form), steps)
        if steps >= step_limit:
            raise StepLimitExceeded(f"derivation exceeded {step_limit} rewrites")
    raise AssertionError("derive_step stopped on a form with a nonterminal")


def reached_forms(grammar):
    """The forms derive_step reaches, stopping quietly at a dead end."""
    forms = []
    try:
        for form in stepwise_forms(grammar):
            forms.append(form)
    except NoApplicableProduction:
        pass
    return forms


def outcome(fn, *args):
    """The result, or the derivation error's type and message."""
    try:
        return fn(*args)
    except (StepLimitExceeded, NoApplicableProduction) as exc:
        return type(exc), str(exc)


@given(acyclic_grammars(), st.integers(1, 40))
def test_compiled_derivations_match_stepwise_oracle(grammar, step_limit):
    # the oracle's last rewrite count and its neighbours are where the
    # outcome flips between a result, StepLimitExceeded and NoApplicableProduction
    last = len(reached_forms(grammar)) - 1
    for limit in {step_limit, last - 1, last, last + 1} - {-1, 0}:
        expected = outcome(stepwise, grammar, limit)
        assert outcome(derive_full, grammar, limit) == expected
        emitted = []
        count = outcome(derive_streaming, grammar, emitted.append, limit)
        if isinstance(expected, Derivation):
            assert (tuple(emitted), count) == (expected.word, len(expected.word))
        else:
            assert count == expected


@given(acyclic_grammars())
def test_pda_from_grammar_runs_the_derivation(grammar):
    expected = outcome(stepwise, grammar, 10_000)
    if not isinstance(expected, Derivation):
        # a dead end on the derivation path is a nonterminal that can
        # reach the automaton's stack
        with pytest.raises(PdaError):
            pda_from_grammar(grammar, BOTTOM)
        return
    transitions = expected.steps + len(expected.word)
    run = run_to_empty_stack(pda_from_grammar(grammar, BOTTOM), (), step_limit=transitions)
    assert run.outcome is RunOutcome.EMPTY_STACK_HALT
    assert run.emitted == expected.word
    assert run.steps == transitions


@given(acyclic_grammars(), st.data())
def test_pda_from_grammar_rejects_reachable_nonterminal_without_production(grammar, data):
    reachable = {sym for form in reached_forms(grammar) for sym in form if not sym.is_terminal}
    victim = data.draw(st.sampled_from(sorted(reachable, key=str)))
    pruned = Grammar(
        terminals=grammar.terminals,
        nonterminals=grammar.nonterminals,
        start=grammar.start,
        productions=tuple(p for p in grammar.productions if p.lhs != victim),
    )
    with pytest.raises(PdaError, match="has no production"):
        pda_from_grammar(pruned, BOTTOM)


def test_pda_from_grammar_rejects_bottom_that_is_a_grammar_symbol():
    start = nonterminal("S")
    grammar = Grammar(
        terminals=frozenset(TERMINALS),
        nonterminals=frozenset({start}),
        start=start,
        productions=(Production(start, (TERMINALS[0],)),),
    )
    with pytest.raises(PdaError, match="bottom"):
        pda_from_grammar(grammar, StackSymbol("a", observable=True))
