"""The query oracle: substring/prefix membership over a hidden string.

Reconstruction code only ever sees an :class:`Oracle`; the hidden string is
never exposed. Every query is counted, including repeated identical ones:
each query method and each native cursor's ``probe`` and ``first`` update
the oracle's stats in place, so that each is one Python call; ``step`` asks
and charges through ``first`` and, only on a hit, also advances.
"""
from __future__ import annotations

from dataclasses import dataclass

from .automaton import SuffixAutomaton
from .text import Text


@dataclass(slots=True)
class QueryStats:
    """Exact accounting of every query an oracle ever answered."""

    substring_queries: int = 0
    prefix_queries: int = 0
    total_queried_symbols: int = 0
    max_query_length: int = 0

    @property
    def total_queries(self) -> int:
        return self.substring_queries + self.prefix_queries


class Oracle:
    """Holds a hidden string; answers substring and prefix membership.

    Reconstruction algorithms interact with the hidden string only through
    queries, asked directly or through a :func:`cursor`.
    """

    __slots__ = ("_hidden", "sigma", "_stats")

    def __init__(self, hidden: Text):
        if len(hidden) == 0:
            raise ValueError("hidden string must be nonempty")
        self._hidden = hidden.symbols
        self.sigma = hidden.sigma
        self._stats = QueryStats()

    def __len__(self) -> int:
        return len(self._hidden)

    def contains_substring(self, q) -> bool:
        """Is q a substring of the hidden string? q may be Text or bytes-like."""
        if isinstance(q, Text):
            q = q.symbols
        st = self._stats
        st.substring_queries += 1
        st.total_queried_symbols += len(q)
        if len(q) > st.max_query_length:
            st.max_query_length = len(q)
        return self._hidden.find(q) >= 0

    def is_prefix(self, q) -> bool:
        """Is q a prefix of the hidden string?"""
        if isinstance(q, Text):
            q = q.symbols
        st = self._stats
        st.prefix_queries += 1
        st.total_queried_symbols += len(q)
        if len(q) > st.max_query_length:
            st.max_query_length = len(q)
        return self._hidden.startswith(q)

    def stats(self) -> QueryStats:
        st = self._stats
        return QueryStats(st.substring_queries, st.prefix_queries,
                          st.total_queried_symbols, st.max_query_length)


class _Right:
    """Substring queries known + t: t is walked from the state of known in the
    suffix automaton of the hidden string (Blumer et al. 1985), whose state s
    has the transition dict nxt[s]: c -> target, with no key for no
    transition. The automaton is fetched, and known walked, when the cursor
    is made. State -1 means known does not occur."""

    __slots__ = ("_stats", "_known", "_nxt", "_state")

    def __init__(self, o: Oracle, known: bytes):
        self._stats = o._stats
        self._known = bytearray(known)
        self._nxt = SuffixAutomaton.of(o._hidden).next
        self._state = self._walk(0, known)

    def _walk(self, s: int, t) -> int:
        """The state reached from s by reading t, or -1."""
        if s < 0:
            return s
        nxt = self._nxt
        for c in t:
            s = nxt[s].get(c, -1)
            if s < 0:
                return s
        return s

    def probe(self, t) -> bool:
        st = self._stats
        length = len(self._known) + len(t)
        st.substring_queries += 1
        st.total_queried_symbols += length
        if length > st.max_query_length:
            st.max_query_length = length
        return self._walk(self._state, t) >= 0

    def first(self, symbols, mid=b"") -> int:
        # the smallest index of the state's transitions (fewer than 3 on average)
        i = -1
        s = self._walk(self._state, mid) if mid else self._state
        if s >= 0:
            for c in self._nxt[s]:
                if c in symbols:
                    j = symbols.index(c)
                    if j < i or i < 0:
                        i = j
        times = i + 1 or len(symbols)
        if times:
            st = self._stats
            length = len(self._known) + len(mid) + 1
            st.substring_queries += times
            st.total_queried_symbols += length * times
            if length > st.max_query_length:
                st.max_query_length = length
        return i

    def step(self, symbols) -> int:
        # a hit is a transition of the current state: take it, no second walk
        i = self.first(symbols)
        if i >= 0:
            c = symbols[i]
            self._known.append(c)
            self._state = self._nxt[self._state][c]
        return i

    def advance(self, t) -> None:
        self._known += t
        self._state = self._walk(self._state, t)

    def result(self) -> bytes:
        return bytes(self._known)


class _Prefix:
    """Queries known + t that hold when known + t is a prefix of `hay`: one
    compare of t at len(known). Over the hidden string these are prefix
    queries; over its reverse, the left side's substring queries
    reverse(t) + known with t and known held reversed, which agree with
    prefix queries there because `cursor` takes this path only when
    reverse(known) occurs there nowhere or only at position 0."""

    __slots__ = ("_stats", "_hay", "_left", "_known", "_k", "_ok")

    def __init__(self, o: Oracle, hay: bytes, left: bool, known: bytes):
        self._stats = o._stats
        self._hay = hay
        self._left = left
        self._known = bytearray(known)
        self._k = len(known)  # len(self._known)
        self._ok = hay.startswith(known)

    def probe(self, t) -> bool:
        st = self._stats
        k = self._k
        length = k + len(t)
        if self._left:
            st.substring_queries += 1
        else:
            st.prefix_queries += 1
        st.total_queried_symbols += length
        if length > st.max_query_length:
            st.max_query_length = length
        return self._ok and self._hay.startswith(t, k)

    def first(self, symbols, mid=b"") -> int:
        hay = self._hay
        k = self._k
        length = k + len(mid) + 1
        i = -1
        if self._ok and length <= len(hay) and hay.startswith(mid, k):
            c = hay[length - 1]  # the one symbol that extends known + mid
            if c in symbols:
                i = symbols.index(c)
        times = i + 1 or len(symbols)
        if times:
            st = self._stats
            if self._left:
                st.substring_queries += times
            else:
                st.prefix_queries += times
            st.total_queried_symbols += length * times
            if length > st.max_query_length:
                st.max_query_length = length
        return i

    def step(self, symbols) -> int:
        i = self.first(symbols)
        if i >= 0:  # known + symbols[i] is a prefix of hay, so _ok still holds
            self._known.append(symbols[i])
            self._k += 1
        return i

    def advance(self, t) -> None:
        self._ok = self._ok and self._hay.startswith(t, self._k)
        self._known += t
        self._k += len(t)

    def result(self) -> bytes:
        return bytes(self._known[::-1] if self._left else self._known)


class _Full:
    """Full-query cursor: each probe builds the whole query, known + t, or
    reverse(t) + known on the left side (t in the reversed orientation of the
    native left cursor), as new bytes and asks it through `query`
    (contains_substring or is_prefix), so the callee may keep it."""

    __slots__ = ("_query", "_left", "_known")

    def __init__(self, query, left: bool, known: bytes):
        self._query = query
        self._left = left
        self._known = bytes(known)

    def _join(self, t) -> bytes:
        return bytes(t[::-1]) + self._known if self._left else self._known + t

    def probe(self, t) -> bool:
        return bool(self._query(self._join(t)))

    def first(self, symbols, mid=b"") -> int:
        for i, c in enumerate(symbols):
            if self.probe(mid + bytes((c,))):
                return i
        return -1

    def step(self, symbols) -> int:
        i = self.first(symbols)
        if i >= 0:
            self.advance(bytes((symbols[i],)))
        return i

    def advance(self, t) -> None:
        self._known = self._join(t)

    def result(self) -> bytes:
        return self._known


_SIDES = ("right", "left", "prefix")


def cursor(o, side: str, known: bytes = b""):
    """A cursor over `o` holding the verified string `known`, for side
    "right" (substring queries known + t), "left" (substring queries
    reverse(t) + known) or "prefix" (prefix queries known + t).

    ``probe(t)`` is one query of ``len(known) + len(t)`` symbols.
    ``first(symbols, mid=b"")`` asks the probes ``mid + c`` for each ``c`` in
    ``symbols``, in order, and returns the index of the first true one, or
    -1, charging one query of ``len(known) + len(mid) + 1`` symbols per
    symbol tried. ``step(symbols)`` asks, charges and returns what
    ``first(symbols)`` does and, only on a hit, extends known by the symbol
    found. ``advance(t)`` extends known and asks nothing; ``result()``
    returns known.

    Only an object whose class is exactly Oracle gets a native cursor, which
    keeps the match state of known and charges its own queries: a probe takes
    time linear in t; ``first`` takes time linear in ``mid`` plus the reached
    automaton state's transitions (fewer than three on average), each looked
    up in ``symbols``, on the right side, and one compare and one lookup in
    ``symbols`` on the prefix side; it never iterates over ``symbols``, and
    neither does ``step``, whose right cursor moves along the transition it
    read. The native left cursor is the prefix cursor over the reversed
    hidden string, so it serves a `known` that occurs nowhere or only as a
    prefix, the only kind a left phase starts from; any other `known` gets
    the full-query cursor below, on a plain Oracle too. Any other object (a
    wrapper, or a subclass that overrides the query methods) is asked each
    full query as new bytes, in order and ``first`` and ``step`` included,
    through its contains_substring or is_prefix, with the same answers and
    counts, and may keep it.
    """
    if side not in _SIDES:
        raise ValueError(f"unknown cursor side {side!r}; expected one of {', '.join(_SIDES)}")
    if type(o) is Oracle:
        if side == "right":
            return _Right(o, known)
        if side == "prefix":
            return _Prefix(o, o._hidden, False, known)
        rh, rk = o._hidden[::-1], known[::-1]
        if rh.find(rk, 1) < 0:
            return _Prefix(o, rh, True, rk)
    return _Full(o.is_prefix if side == "prefix" else o.contains_substring, side == "left", known)
