"""Suffix automaton: a linear-size index of all substrings of a string.

Transitions are stored once, as one ``array("i")`` row per state indexed by
symbol value; every row is ``max(data) + 1`` slots wide, and 0 means "no
transition" (the root is never a target). The per-state suffix links and
lengths, and the end positions of first occurrences, are ``array("i")``
columns as well.

One build serves every reader of the same string: :mod:`strrecon.measures`,
which also needs, for every substring, the end position of its first
occurrence, and every right cursor of the oracle (:mod:`strrecon.oracle`),
which walks each probe from the state of the known string. The class keeps
the automaton it built last, and only that one, until the next build;
:meth:`SuffixAutomaton.of` returns it for an equal string, so a string that
is measured and then reconstructed is indexed once.
"""
from __future__ import annotations

from array import array


class SuffixAutomaton:
    """Suffix automaton (Blumer et al. 1985) of ``data``, a string of
    integer symbols (bytes values), built online in one pass. ``data`` keeps
    the string as immutable bytes."""

    _last: SuffixAutomaton | None = None  # the most recent build

    @classmethod
    def of(cls, data: bytes) -> SuffixAutomaton:
        """The most recent build if its string equals ``data``, else a new one."""
        # no lock: a build never changes after __init__, so a racing build
        # that replaces _last leaves `last` whole and correct for its string
        last = cls._last
        if last is not None and (data is last.data or data == last.data):
            return last
        return cls(data)

    def __init__(self, data: bytes):
        SuffixAutomaton._last = None  # let the last build go before this one
        data = bytes(data)
        empty = array("i", [0]) * (max(data, default=0) + 1)
        nxt = [empty[:]]
        link = [-1]
        length = [0]
        clones = []  # every other state v ends its first occurrence at length[v] - 1
        last = 0
        for pos, c in enumerate(data):
            cur = len(nxt)
            nxt.append(empty[:])
            link.append(0)
            length.append(pos + 1)
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
                    clones.append(clone)
                    while p >= 0 and nxt[p][c] == q:
                        nxt[p][c] = clone
                        p = link[p]
                    link[q] = link[cur] = clone
            last = cur
        self.data = data
        self.next: list[array] = nxt
        # the columns grow as lists, which are faster to append to and to
        # index; each is dropped as soon as its compact copy exists
        self.link = array("i", link)
        del link
        self.length = array("i", length)
        del length
        self._clones = array("i", clones)
        self._min_end: array | None = None
        SuffixAutomaton._last = self

    def finalize_min_end(self) -> array:
        """For each state, the minimum end position over all its occurrences."""
        if self._min_end is not None:
            return self._min_end
        # a state created at position i ends there; the root and the clones
        # start at len(data), above every position, and receive their minimum
        me = [l - 1 for l in self.length]
        me[0] = len(self.data)
        for v in self._clones:
            me[v] = len(self.data)
        order = sorted(range(1, len(me)), key=self.length.__getitem__, reverse=True)
        link = self.link
        for v in order:
            p = link[v]
            if me[v] < me[p]:
                me[p] = me[v]
        self._min_end = array("i", me)
        return self._min_end
