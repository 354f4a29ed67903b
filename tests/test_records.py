"""The contract of the package's value types: equality and hash by fields,
no assignment after construction, the constructors' checks and their
messages, truth values, text forms and pickling."""

import pickle
import re

import pytest

from hanoilang.constructions import BfsResult, HanoiInstance
from hanoilang.grammar import Derivation, Grammar, GrammarError, Production
from hanoilang.hanoi import InvalidDiscCount, MoveSymbol, ValidationReport
from hanoilang.pda import DeterminismReport, Pda, PdaError, RunOutcome, RunTrace

P13 = MoveSymbol(1, 3)
S, a = "S", "a"
Z, M = "Z", "m"

# Each record's class, the arguments of one instance, the same arguments
# with one field changed, and that field's name.
RECORDS = [
    (ValidationReport, (True, None, None, True, 7), (True, None, None, True, 8), "moves_checked"),
    (Production, (S, (a, S)), (S, (a,)), "rhs"),
    (Derivation, ((P13,), 1), ((P13,), 2), "steps"),
    (RunTrace, (3, (P13,), RunOutcome.EMPTY_STACK_HALT), (3, (P13,), RunOutcome.STUCK), "outcome"),
    (DeterminismReport, (False, Z, "2 epsilon moves for one situation"),
     (False, Z, "both epsilon and input moves are enabled"), "reason"),
    (HanoiInstance, (3,), (4,), "n_discs"),
    (BfsResult, ((P13,), 1), ((P13,), 2), "shortest_path_count"),
]
RECORD_IDS = [cls.__name__ for cls, *_ in RECORDS]


def grammar(start=S, rhs=(a,)):
    return Grammar(terminals=frozenset({a}), nonterminals=frozenset({S}), start=start,
                   productions=(Production(S, rhs),))


def pda(**changes):
    fields = dict(stack_alphabet=frozenset({Z, M}), transitions={Z: ((M,),)}, start_stack=Z,
                  observable=frozenset({M}))
    return Pda(**{**fields, **changes})


def raises_exactly(error, message):
    return pytest.raises(error, match=f"^{re.escape(message)}$")


@pytest.mark.parametrize("cls, args, other, field", RECORDS, ids=RECORD_IDS)
def test_records_compare_and_hash_by_fields(cls, args, other, field):
    assert cls(*args) == cls(*args)
    assert hash(cls(*args)) == hash(cls(*args))
    assert cls(*args) != cls(*other)
    assert len({cls(*args), cls(*args), cls(*other)}) == 2


@pytest.mark.parametrize("cls, args, other, field", RECORDS, ids=RECORD_IDS)
def test_record_fields_cannot_be_assigned(cls, args, other, field):
    record = cls(*args)
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(cls(*other), field))
    assert record == cls(*args)


@pytest.mark.parametrize("cls, args, other, field", RECORDS, ids=RECORD_IDS)
def test_records_survive_pickling(cls, args, other, field):
    record = cls(*args)
    assert pickle.loads(pickle.dumps(record)) == record


@pytest.mark.parametrize("cls, args, other, field", RECORDS, ids=RECORD_IDS)
def test_make_and_replace_rebuild_records_from_their_fields(cls, args, other, field):
    record, changed = cls(*args), cls(*other)
    made = cls._make(tuple(record))
    assert made == record and type(made) is cls
    assert record._replace() == record
    assert record._replace(**changed._asdict()) == changed


def test_records_normalise_their_sequences_to_tuples():
    assert Production(S, [a]) == Production(S, (a,))
    assert Production(S, (a,))._replace(rhs=[a, S]).rhs == (a, S)


def test_records_take_their_fields_by_keyword_and_default():
    assert MoveSymbol(src=1, dst=3) == P13
    assert DeterminismReport(True).witness is None and DeterminismReport(True).reason is None
    assert HanoiInstance(n_discs=2).n_discs == 2


@pytest.mark.parametrize("make, error, message", [
    (lambda: MoveSymbol(1, 4), ValueError, "pegs must be in 1..3, got 1->4"),
    (lambda: MoveSymbol(0, 2), ValueError, "pegs must be in 1..3, got 0->2"),
    (lambda: MoveSymbol(2, 2), ValueError, "a move must use two distinct pegs"),
    (lambda: MoveSymbol.of(3, 3), ValueError, "a move must use two distinct pegs"),
    (lambda: HanoiInstance(0), InvalidDiscCount, "need at least one disc, got 0"),
    # namedtuple's own _make, which _replace calls, would skip these checks.
    (lambda: HanoiInstance._make([-1]), InvalidDiscCount, "need at least one disc, got -1"),
    (lambda: HanoiInstance(3)._replace(n_discs=-2), InvalidDiscCount,
     "need at least one disc, got -2"),
], ids=lambda value: value if isinstance(value, str) else None)
def test_record_constructors_keep_their_checks(make, error, message):
    with raises_exactly(error, message):
        make()


@pytest.mark.parametrize("make, message", [
    (lambda: Grammar(terminals={S}, nonterminals={S}, start=S, productions=()),
     "symbols listed as both terminal and nonterminal: S"),
    (lambda: grammar(start="T"), "start symbol T is not a listed nonterminal"),
    (lambda: Grammar(terminals={a}, nonterminals={S}, start=S,
                     productions=[Production("T", (a,))]),
     "production lhs T is not a listed nonterminal"),
    (lambda: Grammar(terminals={a}, nonterminals={S}, start=S,
                     productions=[Production(a, (S,))]),
     "production lhs a is not a listed nonterminal"),
    (lambda: Grammar(terminals={a}, nonterminals={S}, start=S,
                     productions=[Production(S, ("b",))]),
     "production S -> b uses unknown symbol b"),
])
def test_grammar_keeps_its_checks(make, message):
    with raises_exactly(GrammarError, message):
        make()


@pytest.mark.parametrize("changes, message", [
    (dict(stack_alphabet=frozenset()), "stack alphabet must be nonempty"),
    (dict(start_stack="y"), "start stack symbol y is not in the stack alphabet"),
    (dict(transitions={"y": ()}), "transition on unknown stack symbol y"),
    (dict(transitions={Z: (("y",),)}), "transition pushes unknown stack symbol y"),
    (dict(transitions={Z: ((M,), (M, "y"))}), "transition pushes unknown stack symbol y"),
    (dict(transitions={("q", Z): ((M,),)}), "transition on unknown stack symbol ('q', 'Z')"),
    (dict(observable={M, "y"}), "observable symbols not in the stack alphabet: y"),
])
def test_pda_keeps_its_checks(changes, message):
    with raises_exactly(PdaError, message):
        pda(**changes)


def test_grammar_and_pda_take_keywords_and_cannot_be_assigned():
    g, m = grammar(), pda()
    assert (g.terminals, g.nonterminals, g.start, g.productions) == (
        frozenset({a}), frozenset({S}), S, (Production(S, (a,)),))
    assert (m.stack_alphabet, m.start_stack, m.observable) == (frozenset({Z, M}), Z, {M})
    assert m.transitions == {Z: ((M,),)}
    with pytest.raises(AttributeError):
        g.start = S
    with pytest.raises(AttributeError):
        m.start_stack = Z


def test_grammar_and_pda_each_equal_only_themselves():
    g, m = grammar(), pda()
    assert g == g and g != grammar()
    assert m == m and m != pda()


def test_reports_are_truthy_iff_the_check_passed():
    assert ValidationReport(True, None, None, False, 2)
    assert not ValidationReport(False, 1, "empty-source", False, 2)
    assert DeterminismReport(True)
    assert not DeterminismReport(False, Z, "2 epsilon moves for one situation")


@pytest.mark.parametrize("record, text, representation", [
    (P13, "p13", "MoveSymbol(src=1, dst=3)"),
], ids=lambda value: value if isinstance(value, str) and "(" not in value else None)
def test_repr_and_str(record, text, representation):
    assert str(record) == text
    assert repr(record) == representation
