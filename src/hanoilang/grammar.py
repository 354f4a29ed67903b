"""Generic context-free grammar types and derivation engines.

Symbols are terminal/nonterminal tags around opaque, hashable payloads;
the engines never look inside a payload. Derivation is leftmost: when a
form has several nonterminals, the leftmost one is rewritten, and when a
nonterminal has several productions, the first registered one is applied.
derive_full and derive_streaming run _unwind, the one loop that the
automaton's runner in pda.py shares, on an integer table that each
Grammar compiles once. It hands terminals over in chunks and replays the
recorded runs of small symbols from a bounded cache, where each run is
built from the recorded runs of what the symbol pushes. derive_step
stays symbolic and is their reference. Language enumeration
explores every rewrite position and production, so it is not limited to
the leftmost strategy.
"""

from collections import namedtuple
from collections.abc import Callable

TERMINAL = "terminal"
NONTERMINAL = "nonterminal"


class GrammarError(ValueError):
    """Malformed grammar detected at construction time."""


class NoApplicableProduction(RuntimeError):
    """A leftmost nonterminal exists but no production rewrites it."""


class StepLimitExceeded(RuntimeError):
    """Derivation did not finish within the allowed number of rewrites."""


class Symbol(namedtuple("Symbol", "kind payload")):
    """Tagged grammar symbol. Equal iff tag and payload are both equal."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace too goes through __new__

    def __new__(cls, kind: str, payload: object):
        if kind not in (TERMINAL, NONTERMINAL):
            raise GrammarError(f"unknown symbol kind {kind!r}")
        return super().__new__(cls, kind, payload)

    @property
    def is_terminal(self) -> bool:
        return self.kind == TERMINAL

    def __str__(self) -> str:
        return str(self.payload)


def terminal(payload) -> Symbol:
    return Symbol(TERMINAL, payload)


def nonterminal(payload) -> Symbol:
    return Symbol(NONTERMINAL, payload)


# A sentential form is a plain tuple of symbols; () is the empty word.
SententialForm = tuple[Symbol, ...]


def format_form(form) -> str:
    """Render a form as space-separated payload text; the empty form is 'ε'."""
    return " ".join(str(sym) for sym in form) if form else "ε"


class Production(namedtuple("Production", "lhs rhs")):
    """Rewrite rule lhs -> rhs with a single nonterminal on the left."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace too goes through __new__

    def __new__(cls, lhs: Symbol, rhs):
        if lhs.is_terminal:
            raise GrammarError(f"production lhs must be a nonterminal, got {lhs}")
        return super().__new__(cls, lhs, tuple(rhs))

    def __str__(self) -> str:
        return f"{self.lhs} -> {format_form(self.rhs)}"


class Grammar:
    """Immutable grammar with an insertion-ordered production index by lhs.
    Equal only to itself, as a Pda is."""

    __slots__ = ("terminals", "nonterminals", "start", "productions", "_by_lhs", "_compiled")

    def __init__(self, terminals, nonterminals, start: Symbol, productions):
        fields = (frozenset(terminals), frozenset(nonterminals), start, tuple(productions))
        for name, value in zip(self.__slots__, fields):
            object.__setattr__(self, name, value)
        for sym in self.terminals:
            if not sym.is_terminal:
                raise GrammarError(f"{sym} is tagged nonterminal but listed as terminal")
        for sym in self.nonterminals:
            if sym.is_terminal:
                raise GrammarError(f"{sym} is tagged terminal but listed as nonterminal")
        shared = {s.payload for s in self.terminals} & {s.payload for s in self.nonterminals}
        if shared:
            raise GrammarError(
                "payloads used as both terminal and nonterminal: "
                + ", ".join(sorted(map(str, shared)))
            )
        if self.start not in self.nonterminals:
            raise GrammarError(f"start symbol {self.start} is not a listed nonterminal")
        vocabulary = self.terminals | self.nonterminals
        index: dict[Symbol, list] = {}
        for prod in self.productions:
            if prod.lhs not in self.nonterminals:
                raise GrammarError(f"production lhs {prod.lhs} is not a listed nonterminal")
            for sym in prod.rhs:
                if sym not in vocabulary:
                    raise GrammarError(f"production {prod} uses unknown symbol {sym}")
            index.setdefault(prod.lhs, []).append(prod)
        object.__setattr__(
            self, "_by_lhs", {lhs: tuple(prods) for lhs, prods in index.items()}
        )
        # The derivation's table for _unwind: each symbol is an id 0..; a
        # terminal pops and reports its payload in 0 steps, a nonterminal
        # pushes its first production's rhs in 1 step (no move without a
        # production). symbols[id] names a stuck nonterminal.
        symbols = list(self.nonterminals | self.terminals)
        ids = {sym: i for i, sym in enumerate(symbols)}
        moves = [tuple(ids[s] for s in reversed(index[sym][0].rhs)) if sym in index
                 else () if sym.is_terminal else None for sym in symbols]
        effects = [((sym.payload,), 0) if sym.is_terminal else ((), 1) for sym in symbols]
        object.__setattr__(self, "_compiled", ((ids[self.start], moves, effects), symbols))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def productions_for(self, sym: Symbol) -> tuple:
        """Productions with this lhs, in registration order."""
        return self._by_lhs.get(sym, ())


# The engines hand payloads to a sink in lists of about this many items,
# and the command line writes in the same size. The cache of recorded runs
# holds at most _CACHE_CHUNKS * _CHUNK items, so no table makes it grow
# past that.
_CHUNK = 4096
_CACHE_CHUNKS = 16


def _unwind(table, sink: Callable[[list], None], step_limit: int) -> tuple[int, int, int | None]:
    """The one loop of the derivation and of the automaton's runner.

    table is (start symbol, moves, effects). A stack of symbol ids, the
    start symbol alone at first, is unwound from its top: the move
    moves[top] is the pushed ids, reversed for a list stack, or None,
    and taking it pops top, costs and reports what effects[top] gives, as
    (() or (payload,), steps). The reported payloads, the table's own
    objects, go to sink in lists of _CHUNK to 2 * _CHUNK - 1 items, the
    last one shorter, also when the run stops; sink may keep a list.
    Returns (steps, payloads handed over, stop): stop is None when the
    stack emptied, else the symbol whose move is None or costs more steps
    than are left.

    The machine reads no input and has one state, so a symbol on top
    always unwinds to the same payloads in the same steps. At a visit
    where the recorded runs of its pushed symbols cover that run, a run
    of at most _CHUNK payloads is recorded while the cache has room; it
    is replayed whenever the steps left cover it, and otherwise the
    symbol takes one move.
    """
    if step_limit < 1:
        raise ValueError(f"step_limit must be >= 1, got {step_limit}")
    start, moves, effects = table
    chunk, room = _CHUNK, _CACHE_CHUNKS * _CHUNK
    # runs[id] is None while unknown, the recorded (payloads, steps), or
    # False once it will not be recorded. An attempt that meets an unknown
    # part fails again until another run is decided, so failed[id] keeps
    # the count of decided runs at its last failure.
    runs: list = [None] * len(moves)
    failed: dict = {}
    decided = 0
    stack = [start]
    pop, extend = stack.pop, stack.extend
    buffer: list = []
    left, handed = step_limit, 0
    # Each pass ends with the unconditional backward jump at which CPython
    # 3.11 counts warm-up, so the loop is specialized within its first
    # call; under `while stack:` it ran about twice as slowly until the
    # eighth call.
    while True:
        if not stack:
            top = None
            break
        top = pop()
        run = runs[top]
        push = moves[top]
        if run is None and push is not None and failed.get(top) != decided:
            parts = [effects[top]]
            for symbol in reversed(push):
                run = runs[symbol]
                if not run:  # None: not yet known; False: so this one is not recorded
                    break
                parts.append(run)
            else:
                size = sum(len(part[0]) for part in parts)
                if size > chunk or size > room:
                    run = False
                else:
                    room -= size
                    run = (sum((part[0] for part in parts), ()), sum(part[1] for part in parts))
            if run is None:
                failed[top] = decided
            else:
                runs[top] = run
                decided += 1
        if run and run[1] <= left:
            buffer += run[0]
            left -= run[1]
        else:
            items, cost = effects[top]
            if push is None or cost > left:
                break
            buffer += items
            left -= cost
            extend(push)
        if len(buffer) >= chunk:
            sink(buffer)
            handed += len(buffer)
            buffer = []
    if buffer:
        sink(buffer)
    return step_limit - left, handed + len(buffer), top


class Derivation(namedtuple("Derivation", "word steps")):
    """A finished leftmost derivation: the terminal word (as payloads,
    leftmost first) and the number of direct derivations it took."""

    __slots__ = ()


def derive_step(grammar: Grammar, form) -> SententialForm | None:
    """One direct derivation at the leftmost nonterminal.

    Returns the rewritten form, or None when the form is all-terminal and
    no rewrite is possible. Applies the first registered production of the
    leftmost nonterminal.
    """
    for i, sym in enumerate(form):
        if not sym.is_terminal:
            options = grammar.productions_for(sym)
            if not options:
                raise NoApplicableProduction(f"no production rewrites {sym}")
            return tuple(form[:i]) + options[0].rhs + tuple(form[i + 1 :])
    return None


def _derive(grammar: Grammar, sink: Callable[[list], None], step_limit: int) -> tuple[int, int]:
    """The leftmost derivation, run by _unwind on the grammar's table.

    Rewrites with the first production, as derive_step does, and hands the
    terminals' payloads, as the grammar holds them, to sink as _unwind
    does. The items derived so far are handed over before a
    StepLimitExceeded, which takes precedence, or a
    NoApplicableProduction, so sink has then seen what derive_step emits
    up to the failing rewrite. Returns (steps, emitted).

    A nonterminal always derives the same word in the same number of
    rewrites, so the words of small nonterminals are recorded bottom-up
    from those of their right-hand sides and replayed (see _unwind).
    """
    table, symbols = grammar._compiled
    steps, emitted, stop = _unwind(table, sink, step_limit)
    if stop is None:
        return steps, emitted
    if steps >= step_limit:
        raise StepLimitExceeded(f"derivation exceeded {step_limit} rewrites")
    raise NoApplicableProduction(f"no production rewrites {symbols[stop]}")


def derive_full(grammar: Grammar, step_limit: int) -> Derivation:
    """Leftmost rewrites from the start symbol until only terminals remain.

    Materializes the whole word. step_limit also bounds its length, to at
    most step_limit times the longest right-hand side.
    """
    word: list = []
    steps, _ = _derive(grammar, word.extend, step_limit)
    return Derivation(tuple(word), steps)


def derive_streaming(grammar: Grammar, sink: Callable[[object], None], step_limit: int) -> int:
    """Leftmost derivation that hands each terminal payload to sink.

    Payloads arrive in chunks of a few thousand, not the moment their
    terminal becomes leftmost. Memory holds the part of the sentential
    form not yet rewritten, one chunk, and a cache of small words bounded
    by a fixed number of chunks, not the word. Emits the same sequence as
    derive_full, and on a failure every payload before the failing
    rewrite. Returns the number of terminals emitted.
    """
    def hand_over(payloads: list) -> None:
        for payload in payloads:
            sink(payload)

    return _derive(grammar, hand_over, step_limit)[1]


def enumerate_language(grammar: Grammar, max_derivation_length: int) -> set:
    """Every terminal word reachable within the given number of direct
    derivations, exploring all rewrite positions and all productions.

    Breadth-first over sentential forms with global deduplication; words
    are returned as tuples of terminal payloads. Nonterminals without
    productions simply dead-end their branch.
    """
    if max_derivation_length < 1:
        raise ValueError(f"bound must be >= 1, got {max_derivation_length}")
    start: SententialForm = (grammar.start,)
    seen = {start}
    frontier = [start]
    words = set()
    for _ in range(max_derivation_length):
        successors = []
        for form in frontier:
            for i, sym in enumerate(form):
                if sym.is_terminal:
                    continue
                for prod in grammar.productions_for(sym):
                    rewritten = form[:i] + prod.rhs + form[i + 1 :]
                    if rewritten in seen:
                        continue
                    seen.add(rewritten)
                    if all(s.is_terminal for s in rewritten):
                        words.add(tuple(s.payload for s in rewritten))
                    else:
                        successors.append(rewritten)
        if not successors:
            break
        frontier = successors
    return words
