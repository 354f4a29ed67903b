"""Board model: moves, states, legality, replay validation, and the
closed form of the optimal word."""

import copy
import pickle
import tracemalloc
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hanoilang.constructions import (
    HanoiInstance,
    build_hanoi_grammar,
    grammar_step_limit,
    recursive_solve,
)
from hanoilang.grammar import _derive
from hanoilang.hanoi import (
    Board,
    HanoiNonterminal,
    InvalidDiscCount,
    MoveParseError,
    MoveSymbol,
    move_at,
    state_at,
    validate_sequence,
)
from oracle import (
    DiscCountMismatch,
    EmptySource,
    HanoiState,
    LargerOnSmaller,
    apply_move,
    checked_departure,
    checked_replay,
    initial_state,
    is_solved,
    optimal_position,
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

    def test_of_equals_a_fresh_instance(self):
        assert MoveSymbol.of(2, 3) == MoveSymbol(2, 3)
        assert hash(MoveSymbol.of(2, 3)) == hash(MoveSymbol(2, 3))

    @pytest.mark.parametrize("src,dst", [(1, 1), (0, 3), (1, 4)])
    def test_of_rejects_bad_pegs(self, src, dst):
        with pytest.raises(ValueError):
            MoveSymbol.of(src, dst)

    @pytest.mark.parametrize("src, dst", [(mv.src, mv.dst) for mv in ALL_MOVES])
    def test_a_move_equals_hashes_and_orders_as_its_text(self, src, dst):
        mv, text = MoveSymbol(src, dst), f"p{src}{dst}"
        assert mv == text and text == mv and hash(mv) == hash(text)
        assert (mv.src, mv.dst, mv.code) == (src, dst, text)
        assert type(mv.code) is str and type(mv.src) is int and type(mv.dst) is int
        with pytest.raises(AttributeError):
            mv.src = dst
        for other in ALL_MOVES:
            assert (mv < other) == (text < other.code) == ((src, dst) < (other.src, other.dst))

    @pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy, *(
        lambda mv, protocol=protocol: pickle.loads(pickle.dumps(mv, protocol))
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1))])
    def test_pickle_and_copy_give_back_an_equal_move(self, clone):
        for mv in ALL_MOVES:
            back = clone(mv)
            assert type(back) is MoveSymbol and back == mv
            assert (back.src, back.dst) == (mv.src, mv.dst)

    def test_a_move_is_no_tuple(self):
        assert MoveSymbol(1, 3) != (1, 3)
        assert not isinstance(MoveSymbol(1, 3), tuple)

    def test_code_is_not_part_of_identity(self):
        assert repr(MoveSymbol(1, 3)) == "MoveSymbol(src=1, dst=3)"
        assert MoveSymbol(1, 3) < MoveSymbol(2, 1)
        with pytest.raises(TypeError):
            MoveSymbol(1, 3, "p13")


class TestHanoiNonterminal:
    def test_str(self):
        assert str(HanoiNonterminal(1, 2, 4)) == "h12(4)"

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
    assert apply_move(apply_move(state, mv), MoveSymbol.of(mv.dst, mv.src)) == state


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
@given(
    n_discs=st.integers(min_value=1, max_value=6) | st.integers(min_value=65, max_value=70),
    data=st.data(),
)
def test_board_run_tracks_apply_move(n_discs, data):
    """Any codes, fed to Board.run in random chunks: the board follows the
    checked state, and an illegal move sets played to its index and reason
    to its label and leaves the board unchanged; the walk then goes on
    from a fresh board given the legal moves so far. Above 64 discs the
    board lays out only the top 64, which no walk of this length can tell
    from the full tower."""
    board = Board(n_discs)
    state = initial_state(n_discs)
    legal = []

    def laid_out(state):
        return tuple(tuple(d for d in peg if d <= 64) for peg in state.pegs)

    for _ in range(data.draw(st.integers(min_value=0, max_value=10))):
        chunk = data.draw(st.lists(st.sampled_from(ALL_MOVES), max_size=6))
        reason = None
        for mv in chunk:
            try:
                state = apply_move(state, mv)
            except EmptySource:
                reason = "empty-source"
            except LargerOnSmaller:
                reason = "larger-on-smaller"
            else:
                legal.append(mv.code)
                continue
            break
        board.run(" ".join(mv.code for mv in chunk))
        assert (board.played, board.reason) == (len(legal), reason)
        assert tuple(map(tuple, board.pegs)) == laid_out(state)
        assert board.solved() == is_solved(state, n_discs)
        if reason is not None:
            board = Board(n_discs)
            board.run(" ".join(legal))


def test_a_board_takes_no_codes_after_its_first_illegal_move():
    """played counts the legal moves, on the optimal word and off it. After
    the first illegal move, later codes, legal ones too, change nothing."""
    board = Board(3)
    for chunk, played in (("p13", 1), ("p12 p32", 3)):  # the word's first moves
        board.run(chunk)
        assert (board.played, board.departure) == (played, None)
    board.run("p23 p12 p31")  # the word goes on p13; then disc 3 onto disc 2
    assert (board.played, board.reason, board.departure) == (4, "larger-on-smaller", 3)
    pegs, report = tuple(map(tuple, board.pegs)), board.report()
    assert (pegs, tuple(report)) == (((3,), (2,), (1,)), (False, 4, "larger-on-smaller", False, 5))
    for codes in ("p31", "p12", " ".join(CODES)):
        board.run(codes)
        assert (board.played, board.reason, board.departure) == (4, "larger-on-smaller", 3)
        assert (tuple(map(tuple, board.pegs)), board.report()) == (pegs, report)


# ---------------------------------------------------------------------------
# The closed form of the optimal word, and Board's check against it.
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n_discs", range(1, 11))
def test_closed_form_follows_the_recursive_word_at_every_move(n_discs):
    state = initial_state(n_discs)
    assert state_at(n_discs, 0) == state.pegs
    for k, mv in enumerate(recursive_solve(HanoiInstance(n_discs)), 1):
        assert move_at(n_discs, k) is mv
        state = apply_move(state, mv)
        assert state_at(n_discs, k) == state.pegs


@settings(max_examples=300)
@given(n_discs=st.integers(min_value=11, max_value=64) | st.just(100), data=st.data())
def test_each_closed_form_move_leads_to_the_next_position(n_discs, data):
    last = 2 ** n_discs - 2
    k = data.draw(st.integers(min_value=0, max_value=last)
                  | st.sampled_from([0, 1, 4094, 4095, 4096, 2 ** 63, last]).filter(lambda k: k <= last))
    state = HanoiState(state_at(n_discs, k))
    assert state == optimal_position(n_discs, k)
    assert apply_move(state, move_at(n_discs, k + 1)) == HanoiState(state_at(n_discs, k + 1))


@pytest.mark.parametrize("call", [
    lambda: move_at(3, 0), lambda: move_at(3, 8), lambda: move_at(64, 2 ** 64),
    lambda: state_at(3, -1), lambda: state_at(3, 8), lambda: state_at(100, 2 ** 100),
    lambda: move_at(0, 1), lambda: state_at(0, 0),
])
def test_closed_form_rejects_an_index_outside_the_word(call):
    with pytest.raises(ValueError, match="outside"):
        call()


@cache
def optimal_codes(n_discs):
    """The optimal word's codes from the grammar, not the closed form."""
    codes = []
    _derive(build_hanoi_grammar(n_discs), codes.extend, grammar_step_limit(n_discs))
    return tuple(codes)


CODES = [mv.code for mv in ALL_MOVES]
FAULTS = ("none", "substitution", "deletion", "insertion", "truncation", "extension")
# The board checks the word against the 3 * 4,096-move period of its 12
# smallest discs' moves, with a larger disc's move at each index 4,095 + 4,096 t.
BLOCK_EDGES = (4094, 4095, 4096, 4097, 8190, 8191)


def draw_faulted_word(data, n_discs, edges=()):
    """The optimal word with one fault at an index drawn near the block
    edges or the given ones, or anywhere: a substitution (legal or not),
    deletion, insertion, truncation, or moves past 2^n - 1. Returns the
    codes and the fault's index."""
    word = list(optimal_codes(n_discs))
    kind = data.draw(st.sampled_from(FAULTS), label="fault")
    if kind in ("none", "extension"):
        at = len(word)
    else:
        near = [i for i in (0, *BLOCK_EDGES, *edges, len(word) - 1) if i < len(word)]
        at = data.draw(st.sampled_from(near) | st.integers(0, len(word) - 1), label="at")
    other = data.draw(st.sampled_from([c for c in CODES if at == len(word) or c != word[at]]),
                      label="code")
    if kind == "substitution":
        word[at] = other
    elif kind == "deletion":
        del word[at]
    elif kind == "insertion":
        word.insert(at, other)
    elif kind == "truncation":
        del word[at:]
    elif kind == "extension":
        word += [other] * data.draw(st.integers(1, 3), label="extra moves")
    return word, at


def draw_chunks(data, codes, at):
    """codes cut at random places, and at a drawn subset of the fault's
    index, its neighbours and the block edges."""
    edges = data.draw(st.sets(st.sampled_from([at - 1, at, at + 1, *BLOCK_EDGES])), label="edges")
    cuts = data.draw(st.lists(st.integers(0, len(codes)), max_size=8), label="cuts")
    cuts = sorted({0, len(codes), *(c for c in (*edges, *cuts) if 0 <= c <= len(codes))})
    return [codes[a:b] for a, b in zip(cuts, cuts[1:])]


def replay_in_chunks(n_discs, chunks, fault):
    """Feed chunks to a fresh Board as verify does, checking its pegs
    against the recursion while it follows the optimal word, which it
    must do up to the fault's index; returns the report's fields."""
    board = Board(n_discs)
    fed = 0
    for chunk in chunks:
        board.run(" ".join(chunk))
        fed += len(chunk)
        if fed <= fault:  # every code so far is the optimal word's
            assert board.departure is None
        if board.departure is None:
            assert board.played == fed
            assert HanoiState(board.pegs) == optimal_position(n_discs, board.played)
    return tuple(board.report())


def substituted(codes, *indices):
    codes = list(codes)
    for at in indices:
        codes[at] = "p12" if codes[at] != "p12" else "p13"
    return codes


@pytest.mark.parametrize("edit, departure", [
    pytest.param(list, None, id="whole word"),
    pytest.param(lambda w: substituted(w, 4096), 4096, id="at a chunk seam"),
    pytest.param(lambda w: substituted(w, 4095), 4095, id="before a chunk seam"),
    pytest.param(lambda w: substituted(w, 5000, 300), 300, id="the first of two"),
    pytest.param(lambda w: [*w, "p12"], 8191, id="long by one"),
    pytest.param(lambda w: list(w[:-1]), None, id="short by one"),
])
def test_board_departure_is_where_the_checked_model_leaves_the_word(edit, departure):
    codes, board = edit(optimal_codes(13)), Board(13)
    for start in range(0, len(codes), 4096):
        board.run(" ".join(codes[start:start + 4096]))
        assert board.departure in (None, departure)
    assert board.departure == checked_departure(13, codes) == departure


@settings(max_examples=250, deadline=None)
@given(n_discs=st.integers(min_value=1, max_value=13), data=st.data())
def test_board_on_a_faulted_optimal_word_agrees_with_the_checked_replay(n_discs, data):
    codes, at = draw_faulted_word(data, n_discs)
    report = replay_in_chunks(n_discs, draw_chunks(data, codes, at), at)
    assert report == checked_replay(n_discs, list(map(MoveSymbol.parse, codes)))


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_board_on_a_faulted_20_disc_word_agrees_with_the_checked_replay(data):
    """Faults at sampled indices of the 20-disc word, the last 4,096-move
    block edges among them. The oracle replays from the recursion's
    position a little before the fault, and the word stops 200 moves
    after it, so the checked replay stays short."""
    turn = data.draw(st.integers(1, 255), label="block")
    codes, at = draw_faulted_word(data, 20, edges=(4096 * turn - 1, 4096 * turn))
    codes, start = codes[:at + 200], max(0, at - 100)
    report = replay_in_chunks(20, draw_chunks(data, codes, at), at)
    assert report == checked_replay(20, list(map(MoveSymbol.parse, codes[start:])), start)


@settings(deadline=None)
@given(n_discs=st.integers(1, 70), data=st.data())
def test_the_word_the_board_compares_with_is_the_closed_form(n_discs, data):
    """Board._word against move_at, on windows that start near the
    block edges, the ends of the 3 * 4,096-move period, or the word's
    end (or move 2^64 - 1, where the board stops), and may span a
    period."""
    last = (1 << min(n_discs, 64)) - 1
    edges = [e for e in (0, *BLOCK_EDGES, 12286, 12287, 12288, 24575, last - 1) if e < last]
    start = data.draw(st.sampled_from(edges) | st.integers(0, last - 1), label="start")
    count = data.draw(st.integers(0, 13000), label="count")
    expected = [move_at(n_discs, k + 1).code for k in range(start, min(start + count, last))]
    assert "".join(Board(n_discs)._word(4 * start, 4 * count, " ")).split() == expected
