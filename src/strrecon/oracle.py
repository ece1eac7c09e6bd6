"""The query oracle: substring/prefix membership over a hidden string.

Reconstruction code only ever sees an :class:`Oracle`; the hidden string is
never exposed. Every query is counted, including repeated identical ones: a
native cursor's ``probe`` charges itself, so that a probe is one Python call,
and every other query is charged through ``Oracle._count``.
"""
from __future__ import annotations

from dataclasses import dataclass

from .automaton import SuffixAutomaton
from .text import Text


@dataclass
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

    def _count(self, kind: str, length: int, times: int = 1) -> None:
        """Charge `times` queries of `kind` ("substring" or "prefix"), each
        of `length` symbols; times=0 charges nothing."""
        st = self._stats
        if kind == "prefix":
            st.prefix_queries += times
        else:
            st.substring_queries += times
        st.total_queried_symbols += length * times
        if times and length > st.max_query_length:
            st.max_query_length = length

    def contains_substring(self, q) -> bool:
        """Is q a substring of the hidden string? q may be Text or bytes-like."""
        if isinstance(q, Text):
            q = q.symbols
        self._count("substring", len(q))
        return self._hidden.find(q) >= 0

    def is_prefix(self, q) -> bool:
        """Is q a prefix of the hidden string?"""
        if isinstance(q, Text):
            q = q.symbols
        self._count("prefix", len(q))
        return self._hidden.startswith(q)

    def stats(self) -> QueryStats:
        return QueryStats(**vars(self._stats))


class _Right:
    """Substring queries known + t: t is walked from the state of known in the
    suffix automaton of the hidden string (Blumer et al. 1985), reading its
    transition rows as they are: nxt[s][c], 0 for no transition (the root is
    never a target), and no transition for a symbol at or past the row width.
    The automaton is fetched, and known walked, when the cursor is made.
    State -1 means known does not occur."""

    __slots__ = ("_o", "_known", "_nxt", "_state")

    def __init__(self, o: Oracle, known: bytes):
        self._o = o
        self._known = bytearray(known)
        self._nxt = SuffixAutomaton.of(o._hidden).next
        self._state = self._walk(0, known)

    def _walk(self, s: int, t) -> int:
        """The state reached from s by reading t, or -1."""
        if s < 0:
            return s
        nxt = self._nxt
        width = len(nxt[0])
        for c in t:
            if c >= width:
                return -1
            s = nxt[s][c]
            if not s:
                return -1
        return s

    def probe(self, t) -> bool:
        st = self._o._stats
        length = len(self._known) + len(t)
        st.substring_queries += 1
        st.total_queried_symbols += length
        if length > st.max_query_length:
            st.max_query_length = length
        s = self._state
        if s < 0:
            return False
        nxt = self._nxt
        try:  # a symbol at or past the row width has no transition
            for c in t:
                s = nxt[s][c]
                if not s:
                    return False
        except IndexError:
            return False
        return True

    def first(self, symbols) -> int:
        s = self._state
        if s >= 0:
            row = self._nxt[s]
            width = len(row)
            for i, c in enumerate(symbols):
                if c < width and row[c]:
                    self._o._count("substring", len(self._known) + 1, i + 1)
                    return i
        self._o._count("substring", len(self._known) + 1, len(symbols))
        return -1

    def advance(self, t) -> None:
        self._known += t
        self._state = self._walk(self._state, t)

    def result(self) -> bytes:
        return bytes(self._known)


class _Left:
    """Substring queries reverse(t) + known, t in the reversed orientation of
    a grow loop that works on reverse(known): the cursor keeps the reversed
    hidden string and the positions where reverse(known) ends in it, so a
    probe is one startswith of t per position. Once forward growth is stuck,
    known occurs exactly once (reconstruct's forward-stuck soundness)."""

    __slots__ = ("_o", "_rh", "_rev", "_ends")

    def __init__(self, o: Oracle, known: bytes):
        self._o = o
        self._rh = rh = o._hidden[::-1]
        self._rev = bytearray(known[::-1])
        self._ends = ends = []
        p = rh.find(self._rev)
        while p >= 0:
            ends.append(p + len(known))
            p = rh.find(self._rev, p + 1)

    def probe(self, t) -> bool:
        st = self._o._stats
        length = len(self._rev) + len(t)
        st.substring_queries += 1
        st.total_queried_symbols += length
        if length > st.max_query_length:
            st.max_query_length = length
        rh = self._rh
        for a in self._ends:
            if rh.startswith(t, a):
                return True
        return False

    def first(self, symbols) -> int:
        rh = self._rh
        after = {rh[a] for a in self._ends if a < len(rh)}
        for i, c in enumerate(symbols):
            if c in after:
                self._o._count("substring", len(self._rev) + 1, i + 1)
                return i
        self._o._count("substring", len(self._rev) + 1, len(symbols))
        return -1

    def advance(self, t) -> None:
        self._ends = [a + len(t) for a in self._ends if self._rh.startswith(t, a)]
        self._rev += t

    def result(self) -> bytes:
        return bytes(self._rev[::-1])


class _Prefix:
    """Prefix queries known + t: one compare of t at len(known)."""

    __slots__ = ("_o", "_known", "_ok")

    def __init__(self, o: Oracle, known: bytes):
        self._o = o
        self._known = bytearray(known)
        self._ok = o._hidden.startswith(known)

    def probe(self, t) -> bool:
        st = self._o._stats
        k = len(self._known)
        length = k + len(t)
        st.prefix_queries += 1
        st.total_queried_symbols += length
        if length > st.max_query_length:
            st.max_query_length = length
        return self._ok and self._o._hidden.startswith(t, k)

    def first(self, symbols) -> int:
        k = len(self._known)
        hidden = self._o._hidden
        if self._ok and k < len(hidden):
            c = hidden[k]
            for i, x in enumerate(symbols):
                if x == c:
                    self._o._count("prefix", k + 1, i + 1)
                    return i
        self._o._count("prefix", k + 1, len(symbols))
        return -1

    def advance(self, t) -> None:
        self._ok = self._ok and self._o._hidden.startswith(t, len(self._known))
        self._known += t

    def result(self) -> bytes:
        return bytes(self._known)


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

    def first(self, symbols) -> int:
        for i, c in enumerate(symbols):
            if self.probe(bytes((c,))):
                return i
        return -1

    def advance(self, t) -> None:
        self._known = self._join(t)

    def result(self) -> bytes:
        return self._known


_NATIVE = {"right": _Right, "left": _Left, "prefix": _Prefix}


def cursor(o, side: str, known: bytes = b""):
    """A cursor over `o` holding the verified string `known`, for side
    "right" (substring queries known + t), "left" (substring queries
    reverse(t) + known) or "prefix" (prefix queries known + t).

    ``probe(t)`` is one query of ``len(known) + len(t)`` symbols.
    ``first(symbols)`` asks the one-symbol probes of ``symbols`` in order and
    returns the index of the first true one, or -1, charging one query of
    ``len(known) + 1`` symbols per symbol tried. ``advance(t)`` extends
    known and asks nothing; ``result()`` returns known.

    Only an object whose class is exactly Oracle gets a native cursor, which
    keeps the match state of known: a probe takes time linear in t, ``first``
    linear in ``symbols``. Any other object (a wrapper, or a subclass that
    overrides the query methods) is asked each full query as new bytes, in
    order and ``first`` included, through its contains_substring or
    is_prefix, with the same answers and counts, and may keep it.
    """
    if side not in _NATIVE:
        raise ValueError(f"unknown cursor side {side!r}; expected one of {', '.join(_NATIVE)}")
    if type(o) is Oracle:
        return _NATIVE[side](o, known)
    return _Full(o.is_prefix if side == "prefix" else o.contains_substring, side == "left", known)
