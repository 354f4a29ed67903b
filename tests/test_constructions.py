"""Hanoi grammar/automaton builders, reference solvers, and cross-checks."""

import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hanoilang.constructions import (
    BfsResult,
    CapExceeded,
    HanoiInstance,
    STACK_BOTTOM,
    _breadth_first,
    _legal_moves,
    bfs_optimal,
    build_hanoi_grammar,
    build_hanoi_pda,
    grammar_step_limit,
    pda_step_limit,
    recursive_chunks,
    recursive_solve,
)
from hanoilang.grammar import derive_full, derive_step, derive_streaming
from hanoilang.hanoi import (
    HanoiNonterminal,
    InvalidDiscCount,
    MoveSymbol,
    move_at,
    validate_sequence,
)
from hanoilang.pda import RunOutcome, is_deterministic, run_to_empty_stack, step
from oracle import (
    ALL_MOVES,
    IllegalMove,
    apply_move,
    decode_position,
    digit_legal_moves,
    initial_state,
    is_solved,
    reference_bfs,
    reference_path_counts,
)


def grammar_word(n):
    return derive_full(build_hanoi_grammar(n), step_limit=grammar_step_limit(n)).word


def pda_run(n):
    return run_to_empty_stack(build_hanoi_pda(n), (), step_limit=pda_step_limit(n))


class TestHanoiInstance:
    def test_defaults(self):
        # the pegs are fixed: the tower goes from peg 1 to peg 3
        report = validate_sequence(4, recursive_solve(HanoiInstance(4)))
        assert report.legal and report.final_solved

    def test_rejects_zero_discs(self):
        with pytest.raises(InvalidDiscCount):
            HanoiInstance(0)


class TestGrammarBuilder:
    def test_rejects_zero_discs(self):
        with pytest.raises(InvalidDiscCount):
            build_hanoi_grammar(0)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_symbol_and_production_counts(self, n):
        g = build_hanoi_grammar(n)
        assert len(g.terminals) == 6
        assert len(g.nonterminals) == 6 * n
        assert len(g.productions) == 6 * n

    def test_start_symbol_is_full_tower_relocation(self):
        g = build_hanoi_grammar(5)
        assert g.start == HanoiNonterminal(1, 3, 5)

    def test_every_nonterminal_has_exactly_one_production(self):
        g = build_hanoi_grammar(4)
        for nt in g.nonterminals:
            assert len(g.productions_for(nt)) == 1

    def test_single_disc_word(self):
        assert grammar_word(1) == (MoveSymbol(1, 3),)

    def test_two_disc_word(self):
        assert grammar_word(2) == (
            MoveSymbol(1, 2), MoveSymbol(1, 3), MoveSymbol(2, 3),
        )

    def test_first_rewrite_splits_the_tower(self):
        g = build_hanoi_grammar(2)
        form = derive_step(g, (g.start,))
        assert [str(sym) for sym in form] == ["h12(1)", "p13", "h23(1)"]


class TestPdaBuilder:
    def test_rejects_zero_discs(self):
        with pytest.raises(InvalidDiscCount):
            build_hanoi_pda(0)

    def test_shape(self):
        m = build_hanoi_pda(3)
        assert set(m.transitions) <= m.stack_alphabet
        assert m.start_stack == STACK_BOTTOM

    @pytest.mark.parametrize("n", range(2, 13))
    def test_transition_entry_count(self, n):
        # one bottom-marker rule, six expansions per tower size 1..n-1,
        # six move deletions
        m = build_hanoi_pda(n)
        assert len(m.transitions) == 6 * (n - 1) + 6 + 1

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_stack_alphabet_size(self, n):
        m = build_hanoi_pda(n)
        assert len(m.stack_alphabet) == 6 + 6 * (n - 1) + 1

    def test_move_symbols_are_observable_task_symbols_not(self):
        m = build_hanoi_pda(3)
        for sym in m.stack_alphabet:
            if isinstance(sym, MoveSymbol):
                assert sym in m.observable
            else:
                assert sym not in m.observable

    @pytest.mark.parametrize("n", [1, 4])
    def test_tasks_push_their_grammar_rule_and_moves_pop(self, n):
        grammar, m = build_hanoi_grammar(n), build_hanoi_pda(n)
        rules = {prod.lhs: prod.rhs for prod in grammar.productions}
        for top, pushes in m.transitions.items():
            lhs = grammar.start if top == STACK_BOTTOM else top
            expected = () if top in m.observable else rules[lhs]
            assert list(pushes) == [expected]

    def test_single_disc_machine_emits_one_move(self):
        trace = pda_run(1)
        assert trace.outcome is RunOutcome.EMPTY_STACK_HALT
        assert trace.emitted == (MoveSymbol(1, 3),)
        assert trace.steps == 2


def test_pushed_stack_symbols_are_the_transition_keys_themselves():
    # the symbolic step, which `trace --engine pda` runs, then matches its
    # transition lookups by identity, not by dataclass equality
    m = build_hanoi_pda(5)
    keys = {id(top) for top in m.transitions}
    pushed = [sym for pushes in m.transitions.values() for push in pushes for sym in push]
    assert pushed and all(id(sym) in keys for sym in pushed)


class TestHandTraces:
    """The two-disc and three-disc runs, written out transition by
    transition, before any closed-form step counting is trusted."""

    def expand_stacks(self, n):
        m = build_hanoi_pda(n)
        stack = (m.start_stack,)
        stacks = [" ".join(str(s) for s in stack)]
        while stack:
            (stack,) = step(m, stack)
            stacks.append(" ".join(str(s) for s in stack))
        return stacks

    def test_two_disc_run_stack_by_stack(self):
        assert self.expand_stacks(2) == [
            "z0",
            "h12(1) p13 h23(1)",
            "p12 p13 h23(1)",
            "p13 h23(1)",
            "h23(1)",
            "p23",
            "",
        ]

    def test_two_disc_emissions(self):
        trace = pda_run(2)
        assert [mv.code for mv in trace.emitted] == ["p12", "p13", "p23"]
        assert trace.steps == 6

    def test_three_disc_run_stack_by_stack(self):
        assert self.expand_stacks(3) == [
            "z0",
            "h12(2) p13 h23(2)",
            "h13(1) p12 h32(1) p13 h23(2)",
            "p13 p12 h32(1) p13 h23(2)",
            "p12 h32(1) p13 h23(2)",
            "h32(1) p13 h23(2)",
            "p32 p13 h23(2)",
            "p13 h23(2)",
            "h23(2)",
            "h21(1) p23 h13(1)",
            "p21 p23 h13(1)",
            "p23 h13(1)",
            "h13(1)",
            "p13",
            "",
        ]

    def test_three_disc_emissions(self):
        trace = pda_run(3)
        assert [mv.code for mv in trace.emitted] == [
            "p13", "p12", "p32", "p13", "p21", "p23", "p13",
        ]
        assert trace.steps == 14


class TestRunLaws:
    @pytest.mark.parametrize("n", range(2, 13))
    def test_halts_with_closed_form_step_count(self, n):
        trace = pda_run(n)
        assert trace.outcome is RunOutcome.EMPTY_STACK_HALT
        assert trace.steps == 2 ** (n + 1) - 2
        assert len(trace.emitted) == 2 ** n - 1

    @pytest.mark.parametrize("n", range(2, 11))
    def test_stack_depth_stays_bounded(self, n):
        m = build_hanoi_pda(n)
        stack = (m.start_stack,)
        deepest = 1
        while stack:
            (stack,) = step(m, stack)
            deepest = max(deepest, len(stack))
        assert deepest <= 2 * n - 1

    def test_step_limit_outcome_mid_solution(self):
        trace = run_to_empty_stack(build_hanoi_pda(3), (), step_limit=3)
        assert trace.outcome is RunOutcome.STEP_LIMIT
        assert trace.steps == 3

    def test_every_step_limit_stops_where_single_steps_stop(self):
        # at 6 discs every task's run is recorded and replayed, and most
        # limits land inside one, which must then be taken step by step
        m = build_hanoi_pda(6)
        stack = (m.start_stack,)
        emitted, prefixes = [], [()]
        while stack:
            if stack[0] in m.observable:
                emitted.append(stack[0])
            (stack,) = step(m, stack)
            prefixes.append(tuple(emitted))
        assert len(prefixes) == 127
        for limit in range(1, 127):
            outcome = RunOutcome.EMPTY_STACK_HALT if limit == 126 else RunOutcome.STEP_LIMIT
            trace = run_to_empty_stack(m, (), step_limit=limit)
            assert trace == (limit, prefixes[limit], outcome)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_machine_is_deterministic(self, n):
        assert is_deterministic(build_hanoi_pda(n))


class TestEngineAgreement:
    @pytest.mark.parametrize("n", range(1, 13))
    def test_grammar_pda_recursive_agree(self, n):
        word = grammar_word(n)
        assert pda_run(n).emitted == word
        assert recursive_solve(HanoiInstance(n)) == word

    @pytest.mark.parametrize("n", range(1, 13))
    def test_a_derived_word_joins_to_the_closed_form_text(self, n):
        assert " ".join(grammar_word(n)) == " ".join(move_at(n, k).code for k in range(1, 2 ** n))

    @pytest.mark.parametrize("n", range(1, 11))
    def test_streaming_matches_materialized(self, n):
        collected = []
        count = derive_streaming(
            build_hanoi_grammar(n), collected.append, step_limit=grammar_step_limit(n)
        )
        assert tuple(collected) == grammar_word(n)
        assert count == 2 ** n - 1

    @pytest.mark.parametrize("n", range(1, 11))
    def test_derivation_length_law(self, n):
        derivation = derive_full(build_hanoi_grammar(n), step_limit=grammar_step_limit(n))
        assert derivation.steps == 2 ** n - 1

    @pytest.mark.parametrize("n", range(1, 11))
    def test_intermediate_forms_hold_at_most_n_nonterminals(self, n):
        g = build_hanoi_grammar(n)
        form = (g.start,)
        while form is not None:
            assert sum(1 for sym in form if sym not in g.terminals) <= n
            form = derive_step(g, form)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_proper_prefixes_leave_puzzle_unsolved(self, n):
        word = grammar_word(n)
        state = initial_state(n)
        for mv in word[:-1]:
            state = apply_move(state, mv)
            assert not is_solved(state, n)
        assert is_solved(apply_move(state, word[-1]), n)


class TestRecursiveSolve:
    def test_base_case(self):
        assert recursive_solve(HanoiInstance(1)) == (MoveSymbol(1, 3),)

    def test_two_discs(self):
        assert recursive_solve(HanoiInstance(2)) == (
            MoveSymbol(1, 2), MoveSymbol(1, 3), MoveSymbol(2, 3),
        )

    @pytest.mark.parametrize("n", [1, 4, 9])
    def test_length_law(self, n):
        assert len(recursive_solve(HanoiInstance(n))) == 2 ** n - 1

    def test_long_solutions_reuse_the_six_move_objects(self):
        # Keeps a 2^n - 1 move list at pointer cost instead of one
        # allocation per move, which is what makes --unsafe-no-cap viable.
        moves = recursive_solve(HanoiInstance(12))
        assert len({id(m) for m in moves}) <= 6

    @pytest.mark.parametrize("n", [1, 2, 11])
    def test_returns_the_canonical_moves(self, n):
        assert all(mv is MoveSymbol.of(mv.src, mv.dst) for mv in recursive_solve(HanoiInstance(n)))

    @pytest.mark.parametrize("n", [1, 2, 3, 12, 13, 14])
    def test_chunks_are_the_closed_form_word(self, n):
        chunks = []
        recursive_chunks(n, chunks.append)
        assert [code for chunk in chunks for code in chunk] == [
            move_at(n, k).code for k in range(1, 2 ** n)]
        assert all(len(chunk) == 4096 for chunk in chunks[:-1])
        assert 0 < len(chunks[-1]) < 4096

    def test_rejects_zero_discs(self):
        with pytest.raises(InvalidDiscCount):
            recursive_chunks(0, print)

    def test_a_tower_deeper_than_the_interpreters_recursion_runs(self):
        # The stack holds one frame per disc, not one call: 5,000 discs
        # nest far past sys.getrecursionlimit().
        class Enough(Exception):
            pass

        def first_chunk(chunk):
            first.extend(chunk)
            raise Enough

        first = []
        with pytest.raises(Enough):
            recursive_chunks(5000, first_chunk)
        assert first == [move_at(5000, k).code for k in range(1, len(first) + 1)]

    def test_chunks_hold_no_word(self):
        # The 18-disc word's 262,143 codes take over 2 MB in one list.
        count = 0

        def counting(chunk):
            nonlocal count
            count += len(chunk)

        tracemalloc.start()
        try:
            recursive_chunks(18, counting)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert count == 2 ** 18 - 1
        assert peak < 200_000


class TestBfsOptimal:
    def test_single_disc(self):
        assert bfs_optimal(1) == BfsResult((MoveSymbol(1, 3),), 1)

    def test_three_discs_unique_shortest(self):
        sequence, count = bfs_optimal(3)
        assert len(sequence) == 7
        assert count == 1

    @pytest.mark.parametrize("n", range(1, 9))
    def test_matches_grammar_word(self, n):
        result = bfs_optimal(n)
        assert result.sequence == grammar_word(n)
        assert result.shortest_path_count == 1

    def test_cap(self):
        with pytest.raises(CapExceeded):
            bfs_optimal(11)

    def test_cap_is_adjustable(self):
        with pytest.raises(CapExceeded):
            bfs_optimal(4, max_discs=3)
        assert len(bfs_optimal(4, max_discs=None).sequence) == 15

    def test_rejects_zero_discs(self):
        with pytest.raises(InvalidDiscCount):
            bfs_optimal(0)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_matches_the_checked_reference(self, n):
        assert bfs_optimal(n) == reference_bfs(n)

    def test_holds_one_byte_per_position(self):
        # Two lists of 3^10 entries peak at 1.1 MB; 59,049 bytes and the
        # current and next layers stay near 0.3 MB.
        tracemalloc.start()
        try:
            bfs_optimal(10)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 500_000

    @pytest.mark.parametrize("n", [9, 10])
    def test_matches_the_closed_form_where_the_high_digits_decide(self, n):
        """At 9 and 10 discs a peg left unseen by the low six digits takes
        its top disc from the higher ones, on many positions of the search."""
        expected = tuple(move_at(n, k) for k in range(1, 2 ** n))
        assert bfs_optimal(n) == BfsResult(expected, 1)


@st.composite
def positions(draw, n):
    """A position of n discs. The low six discs and the others each sit on
    a drawn set of one to three pegs, so the draws include the towers,
    positions with one or two empty pegs, and low digits that leave a peg
    unseen."""
    digits = []
    for count in (min(n, 6), max(n - 6, 0)):
        pegs = sorted(draw(st.sets(st.integers(0, 2), min_size=1)))
        digits += draw(st.lists(st.sampled_from(pegs), min_size=count, max_size=count))
    return sum(peg * 3 ** d for d, peg in enumerate(digits))


def successors(legal_moves, position):
    """The position's (move, next position) pairs, as the search reads
    them from legal_moves."""
    return [(mv, position + delta) for mv, delta in legal_moves(position)]


def searched(n, source):
    """Distances and shortest-path counts of every position from source,
    rebuilt from _breadth_first's layers, and the marks it leaves."""
    size = 3 ** n
    dist, ways, near = [-1] * size, [0] * size, bytearray(size)
    for distance, (layer, counts) in enumerate(_breadth_first(_legal_moves(n), source, near)):
        for position in layer:
            assert dist[position] == -1  # in one layer only
            dist[position], ways[position] = distance, counts.get(position, 1)
        assert set(counts) <= set(layer) and 1 not in counts.values()
    return dist, ways, near


def test_a_count_above_one_passes_to_a_newly_found_position():
    # 0 -> {1, 2} -> 3 -> 4: 3 is reached two ways, and 4, found from 3
    # alone, inherits its count of 2
    graph = {0: (1, 2), 1: (3,), 2: (3,), 3: (4,), 4: ()}

    def legal_moves(position):
        return [(None, succ - position) for succ in graph[position]]

    layers = [(list(layer), dict(ways))
              for layer, ways in _breadth_first(legal_moves, 0, bytearray(5))]
    assert layers == [([0], {}), ([1, 2], {}), ([3], {3: 2}), ([4], {4: 2})]


class TestIntegerPositions:
    @settings(max_examples=200)
    @given(n=st.integers(min_value=1, max_value=8), data=st.data())
    def test_legal_moves_follow_apply_move(self, n, data):
        """Along a random legal walk, each position's successors decode to
        the states apply_move reaches, in PEG_PAIRS order, and the moves
        apply_move rejects have no successor."""
        moves = _legal_moves(n)
        position, state = 0, initial_state(n)
        for _ in range(data.draw(st.integers(min_value=0, max_value=60))):
            expected = []
            for mv in ALL_MOVES:
                try:
                    expected.append((mv, apply_move(state, mv)))
                except IllegalMove:
                    pass
            got = successors(moves, position)
            assert [(mv, decode_position(n, succ)) for mv, succ in got] == expected
            pick = data.draw(st.integers(min_value=0, max_value=len(got) - 1))
            position, state = got[pick][1], expected[pick][1]

    @settings(max_examples=300)
    @given(data=st.data())
    def test_legal_moves_agree_with_the_digit_by_digit_reading(self, data):
        """The search's successors equal the oracle's, at 1 to 20 discs,
        over several positions that share one relation and its list of low
        digits."""
        n = data.draw(st.integers(min_value=1, max_value=20))
        moves, expected = _legal_moves(n), digit_legal_moves(n)
        for position in data.draw(st.lists(positions(n), min_size=1, max_size=30)):
            assert successors(moves, position) == expected(position)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_legal_moves_agree_with_the_digit_by_digit_reading_everywhere(self, n):
        moves, expected = _legal_moves(n), digit_legal_moves(n)
        for position in range(3 ** n):
            assert successors(moves, position) == expected(position)

    @pytest.mark.parametrize("n, first", [(7, 7), (8, 7), (9, 7), (9, 9)])
    def test_uniform_low_digits_read_the_higher_ones(self, n, first):
        """The low six discs all on one peg, and the first disc off it at 7
        or 9: the relation lists no answer for these low digits, so it reads
        the higher ones. With no disc off that peg the position is a tower,
        which the next test takes at 1 to 20 discs."""
        moves, expected = _legal_moves(n), digit_legal_moves(n)
        for peg in range(3):
            for off in {0, 1, 2} - {peg}:
                pegs = [peg] * (first - 1) + [(off + d) % 3 for d in range(n - first + 1)]
                position = sum(q * 3 ** d for d, q in enumerate(pegs))
                assert successors(moves, position) == expected(position)
                assert len(expected(position)) == 3

    @pytest.mark.parametrize("n", range(1, 21))
    def test_towers_have_two_moves_of_the_smallest_disc(self, n):
        moves, expected = _legal_moves(n), digit_legal_moves(n)
        for tower in (0, (3 ** n - 1) // 2, 3 ** n - 1):
            assert successors(moves, tower) == expected(tower)
            assert len(expected(tower)) == 2

    @pytest.mark.parametrize("n", range(1, 7))
    def test_path_counts_sum_over_every_shortest_predecessor(self, n):
        """Per-position distances and shortest-path counts equal the checked
        reference's. From the start tower every count is 1, so other
        sources are searched too: there some positions have two."""
        size = 3 ** n
        states = [decode_position(n, position) for position in range(size)]
        sources = range(size) if n <= 4 else range(0, size, size // 20)
        most = 0
        for source in sources:
            dist, ways, near = searched(n, source)
            ref_dist, ref_ways = reference_path_counts(states[source])
            assert dict(zip(states, dist)) == ref_dist
            assert dict(zip(states, ways)) == ref_ways
            assert near == bytes(d % 3 + 1 for d in dist)
            most = max(most, *ways)
        assert most == (1 if n == 1 else 2)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_distances_and_path_counts_are_symmetric(self, n):
        """The search from s gives at t the distance and count that the
        search from t gives at s. bfs_optimal relies on this to count
        start->goal paths with one search from the goal; both towers have
        count 1, so no end-to-end test could tell ways[start] from
        ways[goal]. Sources as in the test above, so counts of 2 occur."""
        size = 3 ** n
        sources = range(size) if n <= 4 else range(0, size, size // 20)
        search = {s: searched(n, s)[:2] for s in sources}
        most = 0
        for s, (dist, ways) in search.items():
            for t in sources:
                assert (dist[t], ways[t]) == (search[t][0][s], search[t][1][s])
                most = max(most, ways[t])
        assert most == (1 if n == 1 else 2)


def test_step_limit_helpers_cover_the_real_costs():
    for n in range(1, 20):
        assert grammar_step_limit(n) > 2 ** n - 1
        assert pda_step_limit(n) > 2 ** (n + 1) - 2
