"""Generic context-free grammar types and derivation engines.

Symbols are terminal/nonterminal tags around opaque, hashable payloads;
the engines never look inside a payload. Derivation is leftmost: when a
form has several nonterminals, the leftmost one is rewritten, and when a
nonterminal has several productions, the first registered one is applied.
derive_full and derive_streaming share one loop over an integer table
that each Grammar compiles once; it hands terminals over in chunks and
replays the words of small nonterminals from a bounded cache, where each
word is built from the recorded words of its right-hand side.
derive_step stays symbolic and is their reference. Language enumeration
explores every rewrite position and production, so it is not limited to
the leftmost strategy.
"""

from collections import namedtuple
from typing import Any, Callable

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

    def __new__(cls, kind: str, payload: Any):
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
    Equal to another Grammar with the same four fields."""

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
        # The derivation loop's table. Nonterminals are ids 0..; rules[id] is
        # the first production's rhs as ids, reversed for a work stack (None
        # without one). Terminals are negative ids: payloads[id].
        nonterminals = list(self.nonterminals)
        terminals = list(self.terminals)
        ids = {sym: i for i, sym in enumerate(nonterminals)}
        ids.update((sym, i - len(terminals)) for i, sym in enumerate(terminals))
        rules = [
            tuple(ids[sym] for sym in reversed(index[nt][0].rhs)) if nt in index else None
            for nt in nonterminals
        ]
        payloads = [sym.payload for sym in terminals]
        object.__setattr__(self, "_compiled", (ids[self.start], rules, payloads, nonterminals))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __eq__(self, other):
        if type(other) is not Grammar:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def _key(self) -> tuple:
        return self.terminals, self.nonterminals, self.start, self.productions

    def productions_for(self, sym: Symbol) -> tuple:
        """Productions with this lhs, in registration order."""
        return self._by_lhs.get(sym, ())


# Derived payloads reach a sink in lists of about this many items; the
# automaton's runner and the command line hand over and write in the same
# size. The derivation's cache of small words holds at most
# _CACHE_CHUNKS * _CHUNK items, so no grammar makes it grow past that.
_CHUNK = 4096
_CACHE_CHUNKS = 16


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


def _derive(grammar: Grammar, sink: Callable[[list], None], step_limit: int,
            translate: Callable[[Any], Any] | None = None) -> tuple[int, int]:
    """The one leftmost derivation loop, on the grammar's compiled table.

    Rewrites with the first production, as derive_step does, and hands the
    terminal payloads, each mapped once through translate, to sink in
    lists of _CHUNK to 2 * _CHUNK - 1 items, the last one shorter; sink
    may keep a list. The items derived so far are handed over before a
    StepLimitExceeded or NoApplicableProduction, so sink has then seen
    what derive_step emits up to the failing rewrite. Returns (steps,
    emitted).

    A nonterminal always derives the same word in the same number of
    rewrites: the concatenation of its rhs symbols' words, in one rewrite
    more than theirs. At a visit where every rhs symbol is a terminal or
    has a recorded word, a word of at most _CHUNK items is recorded while
    the cache has room, and it is replayed when the rewrites left cover
    its step count; otherwise the nonterminal is expanded step by step.
    """
    if step_limit < 1:
        raise ValueError(f"step_limit must be >= 1, got {step_limit}")
    start, rules, payloads, nonterminals = grammar._compiled
    chunk, room = _CHUNK, _CACHE_CHUNKS * _CHUNK
    items = payloads if translate is None else [translate(p) for p in payloads]
    # The pending part of the form is a work stack, leftmost symbol on top.
    # words[id] is None while a nonterminal's word is unknown, the recorded
    # (items, steps), or False once it will not be recorded.
    words: list = [None] * len(rules)
    pending = [start]
    pop, extend = pending.pop, pending.extend
    buffer: list = []
    steps = handed = 0
    while pending:
        top = pop()
        if top < 0:
            buffer.append(items[top])
        else:
            word = words[top]
            rhs = rules[top]
            if word is None and rhs is not None:
                parts = [((items[s],), 0) if s < 0 else words[s] for s in reversed(rhs)]
                if all(parts):
                    size = sum(len(part) for part, _ in parts)
                    if size > chunk or size > room:
                        word = False
                    else:
                        built, count = (), 1
                        for part, part_steps in parts:
                            built += part
                            count += part_steps
                        word = built, count
                        room -= size
                    words[top] = word
                elif False in parts:  # a part too long to record makes it too long
                    words[top] = False
            if word and steps + word[1] <= step_limit:
                buffer += word[0]
                steps += word[1]
            else:
                if steps >= step_limit or rhs is None:
                    if buffer:
                        sink(buffer)
                    if steps >= step_limit:
                        raise StepLimitExceeded(f"derivation exceeded {step_limit} rewrites")
                    raise NoApplicableProduction(f"no production rewrites {nonterminals[top]}")
                extend(rhs)
                steps += 1
                continue
        if len(buffer) >= chunk:
            sink(buffer)
            handed += len(buffer)
            buffer = []
    if buffer:
        sink(buffer)
    return steps, handed + len(buffer)


def derive_full(grammar: Grammar, step_limit: int) -> Derivation:
    """Leftmost rewrites from the start symbol until only terminals remain.

    Materializes the whole word. step_limit also bounds its length, to at
    most step_limit times the longest right-hand side.
    """
    word: list = []
    steps, _ = _derive(grammar, word.extend, step_limit)
    return Derivation(tuple(word), steps)


def derive_streaming(grammar: Grammar, sink: Callable[[Any], None], step_limit: int) -> int:
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
