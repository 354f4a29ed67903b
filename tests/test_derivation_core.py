"""The compiled derivation loop and the grammar-derived automaton, checked
on random grammars against derive_step, which stays symbolic."""

import tracemalloc
from itertools import islice, takewhile
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hanoilang.constructions import build_hanoi_grammar
from hanoilang.grammar import (
    _CACHE_CHUNKS,
    _CHUNK,
    Derivation,
    Grammar,
    NoApplicableProduction,
    Production,
    StepLimitExceeded,
    _derive,
    derive_full,
    derive_step,
    derive_streaming,
    enumerate_language,
)
from hanoilang.hanoi import HanoiNonterminal, MoveSymbol
from hanoilang.pda import PdaError, RunOutcome, pda_from_grammar, run_to_empty_stack

TERMINALS = list("abc")
BOTTOM = "z0"


@st.composite
def grammars(draw, acyclic=True, max_nonterminals=6):
    """When acyclic, nonterminal N_i rewrites only into terminals and N_j
    with j > i, so every derivation ends; otherwise into any nonterminal,
    so a derivation may also run forever. A nonterminal may have no
    production (a dead end), several (only the first is used), or an empty
    right-hand side."""
    nonterminals = [f"N{i}" for i in range(draw(st.integers(1, max_nonterminals)))]
    productions = []
    for i, lhs in enumerate(nonterminals):
        symbols = TERMINALS + nonterminals[i + 1 if acyclic else 0 :]
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
        if all(sym in grammar.terminals for sym in form):
            return Derivation(form, steps)
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


@given(grammars(), st.integers(1, 40))
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


def leftmost_terminals(grammar, form):
    """The terminals left of the form's leftmost nonterminal."""
    return list(takewhile(grammar.terminals.__contains__, form))


def stepwise_handovers(grammar, cap):
    """What iterated derive_step emits under each step_limit from 1 to one
    past its last rewrite, and to at most cap: (payloads, steps) when the
    word is derived, else (the payloads before the failing rewrite, (error
    type, message))."""
    form, forms = (grammar.start,), []
    ending = settles_at = None  # the outcome once step_limit reaches settles_at
    while ending is None and len(forms) <= cap:
        forms.append(form)
        try:
            form = derive_step(grammar, form)
        except NoApplicableProduction as exc:
            ending = leftmost_terminals(grammar, forms[-1]), (NoApplicableProduction, str(exc))
            settles_at = len(forms)
        else:
            if form is None:
                ending = list(forms[-1]), len(forms) - 1
                settles_at = len(forms) - 1
    outcomes = {}
    for limit in range(1, min(len(forms), cap) + 1):
        if settles_at is not None and limit >= settles_at:
            outcomes[limit] = ending
        else:
            message = f"derivation exceeded {limit} rewrites"
            outcomes[limit] = (leftmost_terminals(grammar, forms[limit]),
                               (StepLimitExceeded, message))
    return outcomes


def chunked(grammar, step_limit, chunk):
    """The derivation loop's handover at a chunk size of chunk, as (payloads,
    steps or (error type, message)), checking that each list holds from
    chunk to 2 * chunk - 1 items, fewer only in the last one, and stays as
    it was handed over."""
    lists, copies = [], []

    def sink(items):
        lists.append(items)
        copies.append(list(items))

    try:
        with mock.patch("hanoilang.grammar._CHUNK", chunk):
            steps, emitted = _derive(grammar, sink, step_limit)
        result = steps
    except (StepLimitExceeded, NoApplicableProduction) as exc:
        result = type(exc), str(exc)
        emitted = None
    assert lists == copies
    assert all(chunk <= len(items) < 2 * chunk for items in lists[:-1])
    assert all(0 < len(items) < 2 * chunk for items in lists[-1:])
    payloads = [payload for items in lists for payload in items]
    assert emitted in (None, len(payloads))
    return payloads, result


@given(st.booleans().flatmap(lambda acyclic: grammars(acyclic, max_nonterminals=5)),
       st.integers(1, 5))
def test_cached_derivation_matches_stepwise_at_every_step_limit(grammar, chunk):
    # a nonterminal's word is replayed only when the rewrites left cover it
    # all, so the handover must match the stepwise one at every budget; at
    # these chunk sizes the cache of 16 chunks also fills up
    for limit, expected in stepwise_handovers(grammar, cap=60).items():
        assert chunked(grammar, limit, chunk) == expected
        streamed = []
        try:
            result = derive_streaming(grammar, streamed.append, limit)
        except (StepLimitExceeded, NoApplicableProduction) as exc:
            result = type(exc), str(exc)
        payloads, steps = expected
        assert streamed == payloads
        assert result == (len(payloads) if isinstance(steps, int) else steps)


@pytest.mark.parametrize("chunk", [100, 256])
def test_cached_derivation_of_a_word_longer_than_a_chunk(chunk):
    # 1,023 moves in chunks; at 256 the 255-move words of h_ij(8) are
    # replayed whole, and a limit that cuts one falls back to stepwise
    # rewrites and must stop where they stop. At 100 the 127-move words of
    # h_ij(7) are too long to record, and so is every word above them.
    grammar = build_hanoi_grammar(10)
    for limit, expected in stepwise_handovers(grammar, cap=1024).items():
        assert chunked(grammar, limit, chunk) == expected
    assert chunked(grammar, 1023, chunk) == (list(derive_full(grammar, 1023).word), 1023)


def derivation_peak(grammar, step_limit):
    """The traced memory peak of a derivation that keeps none of its word,
    in bytes, and how it ended."""
    tracemalloc.start()
    try:
        result = outcome(_derive, grammar, lambda items: None, step_limit)
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


def test_a_derivation_that_never_ends_runs_in_fixed_memory():
    # N0 -> a N0 rewrites forever with a form of two symbols; N0 never
    # gets a word, and the visit that looks for one must keep nothing
    n0, a = "N0", "a"
    grammar = Grammar({a}, {n0}, n0, [Production(n0, (a, n0))])
    peak, result = derivation_peak(grammar, 10 ** 5)
    assert result == (StepLimitExceeded, "derivation exceeded 100000 rewrites")
    assert peak < 1 << 18  # one pointer kept per rewrite would hold 0.8 MB


def test_the_cache_of_small_words_stays_bounded():
    # N_i -> a N_i+1 down a chain of m = _CHUNK - 1, so every word fits in
    # a chunk. From N_0, each N_i is met before N_i+1 has a word and none
    # is recorded. From S -> N_m-1 ... N_m-1024, each N_i is met after
    # N_i+1 has one, and recording all 1,024 words would keep 524,800
    # items. The whole chain reversed would keep _CHUNK^2 / 2, but takes
    # 8.4 million rewrites, nearly all stepwise once the cache is full.
    size = _CHUNK - 1
    chain = [f"N{i}" for i in range(size)]
    a, s = "a", "S"
    productions = [Production(lhs, (a, rhs)) for lhs, rhs in zip(chain, chain[1:])]
    productions.append(Production(chain[-1], (a,)))
    grammar = Grammar({a}, set(chain), chain[0], productions)
    peak, steps = derivation_peak(grammar, size)
    assert steps == (size, size)
    assert peak < 3 * _CACHE_CHUNKS * _CHUNK * 8  # every word recorded would hold over 60 MB
    assert derive_full(grammar, size) == Derivation(("a",) * size, size)
    productions.append(Production(s, chain[:-1025:-1]))
    grammar = Grammar({a}, set(chain) | {s}, s, productions)
    word = 1024 * 1025 // 2
    peak, steps = derivation_peak(grammar, word + 1)
    assert steps == (word + 1, word)
    assert peak < 3 * _CACHE_CHUNKS * _CHUNK * 8  # the unbounded cache held over 4 MB


@given(grammars())
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


@given(grammars(acyclic=False))
def test_pda_from_grammar_stacks_the_grammars_own_symbols(grammar):
    # an empty rule for each nonterminal without one, so the construction succeeds
    grammar = Grammar(grammar.terminals, grammar.nonterminals, grammar.start, grammar.productions
                      + tuple(Production(nt, ()) for nt in sorted(grammar.nonterminals)
                              if not grammar.productions_for(nt)))
    machine = pda_from_grammar(grammar, BOTTOM)
    assert machine.observable == grammar.terminals
    assert machine.stack_alphabet == (grammar.terminals | {BOTTOM}
                                      | {sym for prod in grammar.productions for sym in prod.rhs})


@given(grammars(), st.data())
def test_pda_from_grammar_rejects_reachable_nonterminal_without_production(grammar, data):
    reachable = {sym for form in reached_forms(grammar) for sym in form} - grammar.terminals
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
    start = "S"
    grammar = Grammar(
        terminals=frozenset(TERMINALS),
        nonterminals=frozenset({start}),
        start=start,
        productions=(Production(start, (TERMINALS[0],)),),
    )
    with pytest.raises(PdaError, match="bottom"):
        pda_from_grammar(grammar, "a")


# The engines never look inside a symbol: relabelling a grammar's symbols
# one-to-one, into any kind of hashable value, relabels what they give.
# Each family maps (index, text symbol) to a value; in "same-text" the
# terminal 0 and the nonterminal "0" print alike but are distinct values.
SYMBOLS = TERMINALS + [f"N{i}" for i in range(6)]
FAMILIES = {
    "text": lambda i, sym: sym,
    "int": lambda i, sym: i,
    "tuple": lambda i, sym: (i, (sym,)),
    "frozenset": lambda i, sym: frozenset({i, -1}),
    "hanoi-records": lambda i, sym: (
        MoveSymbol(*[(1, 2), (1, 3), (2, 3)][i]) if sym in TERMINALS
        else HanoiNonterminal(1, 3, i)),
    "same-text": lambda i, sym: i if sym in TERMINALS else str(i - len(TERMINALS)),
}


def relabelling(family):
    mapping = {sym: FAMILIES[family](i, sym) for i, sym in enumerate(SYMBOLS)}
    assert len(set(mapping.values())) == len(mapping)
    return mapping


def relabel(grammar, mapping):
    return Grammar(
        terminals={mapping[sym] for sym in grammar.terminals},
        nonterminals={mapping[sym] for sym in grammar.nonterminals},
        start=mapping[grammar.start],
        productions=[Production(mapping[p.lhs], [mapping[sym] for sym in p.rhs])
                     for p in grammar.productions],
    )


def first_forms(grammar, count):
    """The first count forms derive_step reaches, fewer at a dead end or a word."""
    forms = []
    try:
        forms.extend(islice(stepwise_forms(grammar), count))
    except NoApplicableProduction:
        pass
    return forms


def relabelled_outcome(grammar, mapping, step_limit):
    """derive_full's result on grammar, in the relabelled symbols."""
    result = outcome(derive_full, grammar, step_limit)
    if isinstance(result, Derivation):
        return Derivation(tuple(mapping[sym] for sym in result.word), result.steps)
    if result[0] is NoApplicableProduction:
        last = reached_forms(grammar)[-1]
        stuck = next(sym for sym in last if sym not in grammar.terminals)
        return NoApplicableProduction, f"no production rewrites {mapping[stuck]}"
    return result


@pytest.mark.parametrize("family", FAMILIES)
@given(grammar=grammars(acyclic=False), step_limit=st.integers(1, 60))
def test_derivations_do_not_look_inside_symbols(family, grammar, step_limit):
    mapping = relabelling(family)
    relabelled = relabel(grammar, mapping)
    expected = relabelled_outcome(grammar, mapping, step_limit)
    assert outcome(derive_full, relabelled, step_limit) == expected
    streamed: list = []
    streaming = outcome(derive_streaming, relabelled, streamed.append, step_limit)
    if isinstance(expected, Derivation):
        assert streaming == len(expected.word) and tuple(streamed) == expected.word
    else:
        assert streaming == expected
    forms = [tuple(mapping[sym] for sym in form) for form in first_forms(grammar, step_limit)]
    assert first_forms(relabelled, step_limit) == forms


@pytest.mark.parametrize("family", FAMILIES)
@given(grammar=grammars(acyclic=False, max_nonterminals=4))
def test_enumeration_does_not_look_inside_symbols(family, grammar):
    mapping = relabelling(family)
    words = enumerate_language(grammar, 5)
    assert enumerate_language(relabel(grammar, mapping), 5) == {
        tuple(mapping[sym] for sym in word) for word in words}


@pytest.mark.parametrize("family", FAMILIES)
@given(grammar=grammars())
def test_pda_from_grammar_does_not_look_inside_symbols(family, grammar):
    mapping = relabelling(family)
    relabelled = relabel(grammar, mapping)
    expected = relabelled_outcome(grammar, mapping, 10_000)
    if not isinstance(expected, Derivation):
        with pytest.raises(PdaError):
            pda_from_grammar(relabelled, BOTTOM)
        return
    machine = pda_from_grammar(relabelled, BOTTOM)
    assert machine.observable == relabelled.terminals
    run = run_to_empty_stack(machine, (), step_limit=expected.steps + len(expected.word))
    assert run.outcome is RunOutcome.EMPTY_STACK_HALT
    assert run.emitted == expected.word
