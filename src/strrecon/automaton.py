"""Suffix automaton: a linear-size index of all substrings of a string.

Transitions are stored once, as one ``array("i")`` row per state indexed by
symbol value; every row is ``max(data) + 1`` slots wide, and 0 means "no
transition" (the root is never a target). Two users read the rows as they
are: :mod:`strrecon.measures`, which also needs, for every substring, the
end position of its first occurrence; and the oracle's right cursor
(:mod:`strrecon.oracle`), which walks each probe from the state of the known
string.
"""
from __future__ import annotations

from array import array


class SuffixAutomaton:
    """Suffix automaton (Blumer et al. 1985) of ``data``, a string of
    integer symbols (bytes values), built online in one pass."""

    def __init__(self, data: bytes):
        empty = array("i", [0]) * (max(data, default=0) + 1)
        nxt = [empty[:]]
        link = [-1]
        length = [0]
        # end index (0-based, inclusive) of the occurrence that created the
        # state; clones start at a sentinel and receive their true minimum
        # via finalize_min_end().
        end = [-1]
        last = 0
        for pos, c in enumerate(data):
            cur = len(nxt)
            nxt.append(empty[:])
            link.append(0)
            length.append(pos + 1)
            end.append(pos)
            p = last
            while p >= 0 and not nxt[p][c]:
                nxt[p][c] = cur
                p = link[p]
            if p >= 0:
                q = nxt[p][c]
                if length[p] + 1 == length[q]:
                    link[cur] = q
                else:
                    clone = len(nxt)
                    nxt.append(nxt[q][:])
                    link.append(link[q])
                    length.append(length[p] + 1)
                    end.append(-2)  # filled in by finalize_min_end
                    while p >= 0 and nxt[p][c] == q:
                        nxt[p][c] = clone
                        p = link[p]
                    link[q] = link[cur] = clone
            last = cur
        self.next: list[array] = nxt
        self.link = link
        self.length = length
        self._end = end
        self._min_end: list[int] | None = None

    def finalize_min_end(self) -> list[int]:
        """For each state, the minimum end position over all its occurrences."""
        if self._min_end is not None:
            return self._min_end
        INF = 1 << 60
        me = [e if e >= 0 else INF for e in self._end]
        order = sorted(range(1, len(self.next)), key=self.length.__getitem__, reverse=True)
        link = self.link
        for v in order:
            p = link[v]
            if p >= 0 and me[v] < me[p]:
                me[p] = me[v]
        self._min_end = me
        return me
