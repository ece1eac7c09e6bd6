"""Suffix automaton: a linear-size index of all substrings of a string.

Used as the factorization engine in :mod:`strrecon.measures`: it knows, for
every substring, the end position of its first occurrence. It also backs the
oracle's right cursors (:mod:`strrecon.oracle`), which flatten its
transitions into one array and walk each probe from the state of the known
string.
"""
from __future__ import annotations


class SuffixAutomaton:
    """Online suffix automaton over integer symbols (bytes values)."""

    def __init__(self, data: bytes = b""):
        self.next: list[dict[int, int]] = [{}]
        self.link: list[int] = [-1]
        self.length: list[int] = [0]
        # end index (0-based, inclusive) of the occurrence that created the
        # state; clones start at a sentinel and receive their true minimum
        # via finalize_min_end().
        self._end: list[int] = [-1]
        self.last = 0
        self._min_end: list[int] | None = None
        for c in data:
            self.append(c)

    def append(self, c: int) -> None:
        nxt, link, length, end = self.next, self.link, self.length, self._end
        cur = len(nxt)
        pos = length[self.last]  # 0-based index of the appended symbol
        nxt.append({})
        link.append(-1)
        length.append(pos + 1)
        end.append(pos)
        p = self.last
        while p >= 0 and c not in nxt[p]:
            nxt[p][c] = cur
            p = link[p]
        if p == -1:
            link[cur] = 0
        else:
            q = nxt[p][c]
            if length[p] + 1 == length[q]:
                link[cur] = q
            else:
                clone = len(nxt)
                nxt.append(dict(nxt[q]))
                link.append(link[q])
                length.append(length[p] + 1)
                end.append(-2)  # filled in by finalize_min_end
                while p >= 0 and nxt[p].get(c) == q:
                    nxt[p][c] = clone
                    p = link[p]
                link[q] = clone
                link[cur] = clone
        self.last = cur
        self._min_end = None

    def finalize_min_end(self) -> list[int]:
        """For each state, the minimum end position over all its occurrences."""
        if self._min_end is not None:
            return self._min_end
        n_states = len(self.next)
        INF = 1 << 60
        me = [e if e >= 0 else INF for e in self._end]
        order = sorted(range(1, n_states), key=self.length.__getitem__, reverse=True)
        link = self.link
        for v in order:
            p = link[v]
            if p >= 0 and me[v] < me[p]:
                me[p] = me[v]
        self._min_end = me
        return me
