"""Generic context-free machinery: symbols, productions, derivations."""

import pytest

from hanoilang.grammar import (
    Grammar,
    GrammarError,
    NoApplicableProduction,
    Production,
    StepLimitExceeded,
    derive_full,
    derive_step,
    derive_streaming,
    enumerate_language,
    format_form,
    nonterminal,
    terminal,
)

A = nonterminal("A")
B = nonterminal("B")
S = nonterminal("S")
a = terminal("a")
b = terminal("b")


def make_grammar(productions, start=S, extra_nonterminals=(), extra_terminals=()):
    nts = {p.lhs for p in productions} | {start} | set(extra_nonterminals)
    ts = {sym for p in productions for sym in p.rhs if sym.is_terminal}
    ts |= set(extra_terminals)
    return Grammar(
        terminals=frozenset(ts),
        nonterminals=frozenset(nts),
        start=start,
        productions=tuple(productions),
    )


class TestConstruction:
    def test_production_lhs_must_be_nonterminal(self):
        with pytest.raises(GrammarError):
            Production(a, (b,))

    def test_start_must_be_declared(self):
        with pytest.raises(GrammarError):
            Grammar(
                terminals=frozenset({a}),
                nonterminals=frozenset({A}),
                start=S,
                productions=(Production(A, (a,)),),
            )

    def test_rhs_symbols_must_be_declared(self):
        with pytest.raises(GrammarError):
            make_grammar([Production(S, (a, B))], extra_terminals=[a])

    def test_alphabets_must_be_disjoint(self):
        clash = terminal("S")
        with pytest.raises(GrammarError):
            Grammar(
                terminals=frozenset({clash}),
                nonterminals=frozenset({nonterminal("S")}),
                start=nonterminal("S"),
                productions=(),
            )

    def test_productions_for_preserves_declaration_order(self):
        p1 = Production(S, (a,))
        p2 = Production(S, (b,))
        g = make_grammar([p1, p2])
        assert g.productions_for(S) == (p1, p2)


class TestDeriveStep:
    def test_rewrites_leftmost_nonterminal(self):
        g = make_grammar([Production(S, (A, B)), Production(A, (a,)), Production(B, (b,))])
        form = derive_step(g, (g.start,))
        assert form == (A, B)
        form = derive_step(g, form)
        assert form == (a, B)

    def test_terminal_form_yields_none(self):
        g = make_grammar([Production(S, (a,))])
        assert derive_step(g, (a, a)) is None

    def test_missing_production_raises(self):
        g = make_grammar([Production(S, (a, B))], extra_nonterminals=[B])
        with pytest.raises(NoApplicableProduction):
            derive_step(g, (B,))


class TestDeriveFull:
    def test_simple_word(self):
        g = make_grammar([Production(S, (A, B)), Production(A, (a,)), Production(B, (b,))])
        derivation = derive_full(g, step_limit=10)
        assert derivation.word == ("a", "b")
        assert derivation.steps == 3

    def test_step_limit_enforced(self):
        looping = make_grammar([Production(S, (S,))])
        with pytest.raises(StepLimitExceeded):
            derive_full(looping, step_limit=50)

    def test_step_limit_must_be_positive(self):
        g = make_grammar([Production(S, (a,))])
        with pytest.raises(ValueError):
            derive_full(g, step_limit=0)

    def test_matches_stepwise_derivation(self):
        g = make_grammar(
            [Production(S, (A, b, B)), Production(A, (a, a)), Production(B, (b,))]
        )
        form = (g.start,)
        while True:
            nxt = derive_step(g, form)
            if nxt is None:
                break
            form = nxt
        assert tuple(sym.payload for sym in form) == derive_full(g, step_limit=10).word


class TestDeriveStreaming:
    def test_emits_in_order_without_materializing(self):
        g = make_grammar(
            [Production(S, (A, b, B)), Production(A, (a, a)), Production(B, (b,))]
        )
        seen = []
        count = derive_streaming(g, seen.append, step_limit=10)
        assert seen == ["a", "a", "b", "b"]
        assert count == 4

    def test_agrees_with_derive_full(self):
        g = make_grammar([Production(S, (A, B)), Production(A, (a,)), Production(B, (b, a))])
        collected = []
        derive_streaming(g, collected.append, step_limit=20)
        assert tuple(collected) == derive_full(g, step_limit=20).word

    def test_step_limit_counts_rewrites(self):
        looping = make_grammar([Production(S, (a, S))])
        with pytest.raises(StepLimitExceeded):
            derive_streaming(looping, lambda _: None, step_limit=25)


class TestEnumerateLanguage:
    def test_single_word_language(self):
        g = make_grammar([Production(S, (a, b))])
        assert enumerate_language(g, max_derivation_length=3) == {("a", "b")}

    def test_ambiguous_grammar_counts_words_not_derivations(self):
        # two derivations, one word
        g = make_grammar(
            [Production(S, (A, B)), Production(A, (a,)), Production(B, (b,))]
        )
        assert enumerate_language(g, max_derivation_length=5) == {("a", "b")}

    def test_finite_choice_language(self):
        g = make_grammar([Production(S, (a,)), Production(S, (b, b))])
        assert enumerate_language(g, max_derivation_length=2) == {("a",), ("b", "b")}

    def test_insufficient_bound_finds_nothing(self):
        g = make_grammar([Production(S, (A,)), Production(A, (a,))])
        assert enumerate_language(g, max_derivation_length=1) == set()

    def test_infinite_language_truncated_by_bound(self):
        # S -> a S | a  generates a+, bounded enumeration sees a prefix of it
        g = make_grammar([Production(S, (a, S)), Production(S, (a,))])
        words = enumerate_language(g, max_derivation_length=4)
        assert ("a",) in words
        assert ("a", "a", "a", "a") in words
        assert all(set(w) == {"a"} for w in words)


def test_format_form_spaces_symbols():
    assert format_form((a, B, b)) == "a B b"
    assert format_form(()) == "ε"
