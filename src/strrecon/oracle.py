"""The query oracle: substring/prefix membership over a hidden string.

Reconstruction code only ever sees an :class:`Oracle`; the hidden string is
never exposed. Every query is counted, including repeated identical ones.
"""
from __future__ import annotations

from dataclasses import dataclass

from .text import Text

# Locality cache tuning for the membership engine. Queries shorter than
# _MIN_ANCHOR_LEN go straight to the C-level scan; longer successful queries
# are remembered together with all their occurrence positions so that later
# queries extending them are answered by checking a handful of positions.
_MIN_ANCHOR_LEN = 12
_MAX_ANCHOR_OCC = 32
_CACHE_SLOTS = 4


@dataclass
class QueryStats:
    """Exact accounting of every query an oracle ever answered."""

    substring_queries: int = 0
    prefix_queries: int = 0
    total_queried_symbols: int = 0
    max_query_length: int = 0

    def snapshot(self) -> "QueryStats":
        return QueryStats(
            self.substring_queries,
            self.prefix_queries,
            self.total_queried_symbols,
            self.max_query_length,
        )

    @property
    def total_queries(self) -> int:
        return self.substring_queries + self.prefix_queries


class _ScanEngine:
    """Substring membership over a fixed text.

    Answers are always those of a brute-force scan. The implementation uses
    bytes.find (worst-case linear two-way search) plus a small cache of
    recently matched queries and their occurrence positions: a query that
    extends a cached one on either side is resolved by filtering those
    positions instead of rescanning the text.
    """

    __slots__ = ("text", "n", "_anchors")

    def __init__(self, text: bytes):
        self.text = text
        self.n = len(text)
        # list of (query bytes, tuple of start positions), newest first
        self._anchors: list[tuple[bytes, tuple[int, ...]]] = []

    def contains(self, q) -> bool:
        m = len(q)
        n = self.n
        if m == 0:
            return True
        if m > n:
            return False
        text = self.text
        if m >= _MIN_ANCHOR_LEN:
            anchors = self._anchors
            for idx, (key, occ) in enumerate(anchors):
                k = len(key)
                if k > m:
                    continue
                if q.startswith(key):
                    tail = bytes(q[k:])
                    hits = tuple(
                        p for p in occ if text[p + k : p + m] == tail
                    )
                elif q.endswith(key):
                    shift = m - k
                    head = bytes(q[:shift])
                    hits = tuple(
                        p - shift
                        for p in occ
                        if p >= shift and text[p - shift : p] == head
                    )
                else:
                    continue
                if idx:
                    anchors.insert(0, anchors.pop(idx))
                if hits:
                    self._remember(bytes(q), hits)
                    return True
                return False
            # no usable anchor: scan, and seed the cache on success
            p = text.find(q)
            if p < 0:
                return False
            occ_list = [p]
            while len(occ_list) <= _MAX_ANCHOR_OCC:
                p = text.find(q, p + 1)
                if p < 0:
                    break
                occ_list.append(p)
            if len(occ_list) <= _MAX_ANCHOR_OCC:
                self._remember(bytes(q), tuple(occ_list))
            return True
        return text.find(q) >= 0

    def _remember(self, key: bytes, occ: tuple[int, ...]) -> None:
        anchors = self._anchors
        for i, (k, _) in enumerate(anchors):
            if k == key:
                del anchors[i]
                break
        anchors.insert(0, (key, occ))
        del anchors[_CACHE_SLOTS:]


class Oracle:
    """Holds a hidden string; answers substring and prefix membership.

    The matching engine is built once at construction; reconstruction
    algorithms interact with the hidden string only through queries.
    """

    __slots__ = ("_hidden", "sigma", "_stats", "_engine")

    def __init__(self, hidden: Text):
        if len(hidden) == 0:
            raise ValueError("hidden string must be nonempty")
        self._hidden = hidden.symbols
        self.sigma = hidden.sigma
        self._stats = QueryStats()
        self._engine = _ScanEngine(self._hidden)

    def __len__(self) -> int:
        return len(self._hidden)

    def contains_substring(self, q) -> bool:
        """Is q a substring of the hidden string? q may be Text or bytes-like."""
        if isinstance(q, Text):
            q = q.symbols
        st = self._stats
        st.substring_queries += 1
        m = len(q)
        st.total_queried_symbols += m
        if m > st.max_query_length:
            st.max_query_length = m
        return self._engine.contains(q)

    def is_prefix(self, q) -> bool:
        """Is q a prefix of the hidden string?"""
        if isinstance(q, Text):
            q = q.symbols
        st = self._stats
        st.prefix_queries += 1
        m = len(q)
        st.total_queried_symbols += m
        if m > st.max_query_length:
            st.max_query_length = m
        return self._hidden[:m] == q

    def stats(self) -> QueryStats:
        return self._stats.snapshot()
