"""Board model: moves, states, legality, and replay validation."""

import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hanoilang.constructions import HanoiInstance, recursive_solve
from hanoilang.hanoi import (
    Board,
    HanoiNonterminal,
    InvalidDiscCount,
    MoveParseError,
    MoveSymbol,
    validate_sequence,
)
from oracle import (
    DiscCountMismatch,
    EmptySource,
    HanoiState,
    LargerOnSmaller,
    apply_move,
    initial_state,
    is_solved,
)

ALL_MOVES = [MoveSymbol(i, j) for i in (1, 2, 3) for j in (1, 2, 3) if i != j]


def legal_moves(state):
    out = []
    for mv in ALL_MOVES:
        src = state.peg(mv.src)
        if not src:
            continue
        dst = state.peg(mv.dst)
        if dst and dst[-1] < src[-1]:
            continue
        out.append(mv)
    return out


class TestMoveSymbol:
    def test_code_round_trip(self):
        for mv in ALL_MOVES:
            assert MoveSymbol.parse(mv.code) == mv

    def test_str_matches_code(self):
        assert str(MoveSymbol(1, 3)) == "p13"

    def test_inverse(self):
        assert MoveSymbol(2, 3).inverse() == MoveSymbol(3, 2)

    @pytest.mark.parametrize("bad", ["", "p", "p1", "p11", "p14", "p03", "q13", "p131", "P13"])
    def test_parse_rejects_garbage(self, bad):
        with pytest.raises(MoveParseError):
            MoveSymbol.parse(bad)

    def test_same_peg_rejected(self):
        with pytest.raises(ValueError):
            MoveSymbol(2, 2)

    def test_peg_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            MoveSymbol(0, 3)
        with pytest.raises(ValueError):
            MoveSymbol(1, 4)

    def test_ordering_is_lexicographic(self):
        assert sorted(ALL_MOVES) == [
            MoveSymbol(1, 2), MoveSymbol(1, 3), MoveSymbol(2, 1),
            MoveSymbol(2, 3), MoveSymbol(3, 1), MoveSymbol(3, 2),
        ]

    def test_of_returns_the_shared_instance(self):
        # Million-move solutions rely on this to stay within memory.
        assert MoveSymbol.of(1, 3) is MoveSymbol.of(1, 3)
        assert MoveSymbol.parse("p13") is MoveSymbol.of(1, 3)
        assert MoveSymbol.of(3, 1).inverse() is MoveSymbol.of(1, 3)

    def test_of_equals_a_fresh_instance(self):
        assert MoveSymbol.of(2, 3) == MoveSymbol(2, 3)
        assert hash(MoveSymbol.of(2, 3)) == hash(MoveSymbol(2, 3))

    @pytest.mark.parametrize("src,dst", [(1, 1), (0, 3), (1, 4)])
    def test_of_rejects_bad_pegs(self, src, dst):
        with pytest.raises(ValueError):
            MoveSymbol.of(src, dst)

    def test_str_is_cached_per_instance(self):
        mv = MoveSymbol.of(1, 2)
        assert str(mv) is str(mv)

    def test_code_is_not_part_of_identity(self):
        assert repr(MoveSymbol(1, 3)) == "MoveSymbol(src=1, dst=3)"
        assert MoveSymbol(1, 3) < MoveSymbol(2, 1)
        with pytest.raises(TypeError):
            MoveSymbol(1, 3, "p13")


class TestHanoiNonterminal:
    def test_str(self):
        assert str(HanoiNonterminal(1, 2, 4)) == "h12(4)"

    def test_parse_round_trip(self):
        sym = HanoiNonterminal(2, 3, 7)
        assert HanoiNonterminal.parse(str(sym)) == sym

    def test_size_must_be_positive(self):
        with pytest.raises(ValueError):
            HanoiNonterminal(1, 2, 0)


class TestHanoiState:
    def test_initial_state(self):
        state = initial_state(3)
        assert state.pegs == ((3, 2, 1), (), ())
        assert state.n_discs == 3

    def test_initial_state_rejects_zero(self):
        with pytest.raises(InvalidDiscCount):
            initial_state(0)

    def test_duplicate_disc_rejected(self):
        with pytest.raises(ValueError):
            HanoiState(((2, 1), (1,), ()))

    def test_inverted_order_rejected(self):
        with pytest.raises(ValueError):
            HanoiState(((1, 2), (), ()))

    def test_wrong_peg_count_rejected(self):
        with pytest.raises(ValueError):
            HanoiState(((1,), ()))

    def test_peg_accessor_is_one_based(self):
        state = HanoiState(((2,), (1,), ()))
        assert state.peg(1) == (2,)
        assert state.peg(2) == (1,)
        assert state.peg(3) == ()


class TestApplyMove:
    def test_moves_top_disc(self):
        state = apply_move(initial_state(2), MoveSymbol(1, 2))
        assert state.pegs == ((2,), (1,), ())

    def test_is_pure(self):
        before = initial_state(2)
        apply_move(before, MoveSymbol(1, 2))
        assert before == initial_state(2)

    def test_empty_source_rejected(self):
        with pytest.raises(EmptySource):
            apply_move(initial_state(2), MoveSymbol(2, 3))

    def test_larger_on_smaller_rejected(self):
        state = apply_move(initial_state(2), MoveSymbol(1, 2))
        with pytest.raises(LargerOnSmaller):
            apply_move(state, MoveSymbol(1, 2))

    def test_illegal_moves_are_value_errors(self):
        # callers that just want "bad move" can catch the broad class
        with pytest.raises(ValueError):
            apply_move(initial_state(1), MoveSymbol(3, 1))


class TestIsSolved:
    def test_initial_is_not_solved(self):
        assert not is_solved(initial_state(4), 4)

    def test_all_on_target_is_solved(self):
        assert is_solved(HanoiState(((), (), (2, 1))), 2)

    def test_disc_count_mismatch_raises(self):
        with pytest.raises(DiscCountMismatch):
            is_solved(initial_state(3), 4)


class TestValidateSequence:
    def test_empty_sequence_is_legal_but_unsolved(self):
        report = validate_sequence(2, [])
        assert report.legal
        assert not report.final_solved
        assert report.moves_checked == 0

    def test_solving_sequence(self):
        moves = [MoveSymbol(1, 2), MoveSymbol(1, 3), MoveSymbol(2, 3)]
        report = validate_sequence(2, moves)
        assert report.legal and report.final_solved
        assert report.failing_index is None
        assert report.moves_checked == 3

    def test_illegal_move_reported_with_index(self):
        report = validate_sequence(2, [MoveSymbol(1, 3), MoveSymbol(1, 3)])
        assert not report.legal
        assert report.failing_index == 1
        assert report.failure_reason == "larger-on-smaller"
        assert not report.final_solved
        assert report.moves_checked == 2

    def test_empty_source_reason(self):
        report = validate_sequence(3, [MoveSymbol(2, 1)])
        assert report.failure_reason == "empty-source"
        assert report.failing_index == 0

    def test_truthiness_tracks_legality(self):
        assert validate_sequence(1, [MoveSymbol(1, 3)])
        assert not validate_sequence(1, [MoveSymbol(2, 3)])

    def test_rejects_zero_discs(self):
        with pytest.raises(InvalidDiscCount):
            validate_sequence(0, [])

    def test_memory_is_bounded_by_the_moves_not_the_tower(self):
        moves = [MoveSymbol.of(1, 3), MoveSymbol.of(1, 2)]
        tracemalloc.start()
        try:
            report = validate_sequence(10**7, moves)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report == validate_sequence(3, moves)
        assert (report.legal, report.final_solved, report.moves_checked) == (True, False, 2)
        assert peak < 1_000_000


# ---------------------------------------------------------------------------
# Property tests: the board invariants hold under any legal random walk, and
# illegal moves are always rejected.
# ---------------------------------------------------------------------------

@settings(max_examples=200)
@given(n_discs=st.integers(min_value=1, max_value=6), data=st.data())
def test_random_legal_walk_preserves_invariants(n_discs, data):
    state = initial_state(n_discs)
    for step in range(data.draw(st.integers(min_value=0, max_value=40))):
        options = legal_moves(state)
        assert options, "a Hanoi position always has a legal move"
        state = apply_move(state, data.draw(st.sampled_from(options), label=f"move {step}"))
        # HanoiState.__post_init__ re-checks the invariants on every
        # construction; getting here means they held.
        assert state.n_discs == n_discs


@settings(max_examples=200)
@given(n_discs=st.integers(min_value=1, max_value=6), data=st.data())
def test_illegal_moves_always_rejected(n_discs, data):
    state = initial_state(n_discs)
    # walk a few legal moves first so we test rejection from varied positions
    for _ in range(data.draw(st.integers(min_value=0, max_value=15))):
        state = apply_move(state, data.draw(st.sampled_from(legal_moves(state))))
    illegal = [mv for mv in ALL_MOVES if mv not in legal_moves(state)]
    if not illegal:
        return
    mv = data.draw(st.sampled_from(illegal))
    with pytest.raises((EmptySource, LargerOnSmaller)):
        apply_move(state, mv)


@settings(max_examples=200)
@given(n_discs=st.integers(min_value=1, max_value=6), data=st.data())
def test_reverse_move_restores_state(n_discs, data):
    state = initial_state(n_discs)
    for _ in range(data.draw(st.integers(min_value=0, max_value=20))):
        state = apply_move(state, data.draw(st.sampled_from(legal_moves(state))))
    mv = data.draw(st.sampled_from(legal_moves(state)))
    assert apply_move(apply_move(state, mv), mv.inverse()) == state


def checked_replay(n_discs, moves):
    """The report validate_sequence must give, by replaying through the
    fully checked apply_move / is_solved."""
    labels = {EmptySource: "empty-source", LargerOnSmaller: "larger-on-smaller"}
    state = initial_state(n_discs)
    for i, mv in enumerate(moves):
        try:
            state = apply_move(state, mv)
        except (EmptySource, LargerOnSmaller) as err:
            return (False, i, labels[type(err)], False, i + 1)
    return (True, None, None, is_solved(state, n_discs), len(moves))


@settings(max_examples=300)
@given(n_discs=st.integers(min_value=1, max_value=6), data=st.data())
def test_validate_agrees_with_stepwise_replay(n_discs, data):
    """validate_sequence replays on a fast mutable board; it must agree with
    replaying by hand through the checked HanoiState. Input: a legal walk
    (random, or a prefix of the optimal word so that some walks end
    solved) with one illegal move injected at a random position, or none.
    """
    optimal = recursive_solve(HanoiInstance(n_discs))
    follow_optimal = data.draw(st.booleans(), label="follow the optimal word")
    length = data.draw(st.integers(min_value=0, max_value=len(optimal) if follow_optimal else 40))
    states = [initial_state(n_discs)]
    moves = []
    for i in range(length):
        mv = optimal[i] if follow_optimal else data.draw(st.sampled_from(legal_moves(states[-1])))
        moves.append(mv)
        states.append(apply_move(states[-1], mv))
    bad_at = data.draw(st.none() | st.integers(min_value=0, max_value=length), label="illegal at")
    if bad_at is not None:
        illegal = [mv for mv in ALL_MOVES if mv not in legal_moves(states[bad_at])]
        moves.insert(bad_at, data.draw(st.sampled_from(illegal)))
    report = validate_sequence(n_discs, moves)
    assert (
        report.legal, report.failing_index, report.failure_reason,
        report.final_solved, report.moves_checked,
    ) == checked_replay(n_discs, moves)


@settings(max_examples=200)
@given(n_discs=st.integers(min_value=1, max_value=6), data=st.data())
def test_board_play_tracks_apply_move(n_discs, data):
    """Any moves, legal or not: the board follows the checked state, and an
    illegal move returns its label and leaves the board unchanged."""
    board = Board(n_discs)
    state = initial_state(n_discs)
    for _ in range(data.draw(st.integers(min_value=0, max_value=30))):
        mv = data.draw(st.sampled_from(ALL_MOVES))
        expected = None
        try:
            state = apply_move(state, mv)
        except EmptySource:
            expected = "empty-source"
        except LargerOnSmaller:
            expected = "larger-on-smaller"
        assert board.play(mv) == expected
        assert tuple(map(tuple, board.pegs)) == state.pegs
        assert board.solved() == is_solved(state, n_discs)
