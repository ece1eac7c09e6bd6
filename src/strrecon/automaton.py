"""Suffix automaton: a linear-size index of all substrings of a string.

Transitions are stored once, as one ``dict`` per state mapping a symbol to
its target state; a symbol with no key has no transition. Memory therefore
follows the transitions (at most 3n - 4, Blumer et al. 1985), not the
alphabet, and a dict of ints is never tracked by the garbage collector.
Besides the dicts, a build keeps one ``array("i")`` column, filled as it
builds: the end position of each state's first occurrence.

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
        if last is not None and data == last.data:
            return last
        return cls(data)

    def __init__(self, data: bytes):
        SuffixAutomaton._last = None  # let the last build go before this one
        data = bytes(data)
        nxt: list[dict[int, int]] = [{}]
        # suffix links, lengths and first-occurrence ends; only the last is kept
        link = [-1]
        length = [0]
        first = [0]
        last = 0
        for pos, c in enumerate(data):
            cur = len(nxt)
            nxt.append({})
            link.append(0)
            length.append(pos + 1)
            first.append(pos)  # a new state first ends here
            p = last
            while p >= 0 and c not in nxt[p]:
                nxt[p][c] = cur
                p = link[p]
            if p >= 0:
                q = nxt[p][c]
                if length[p] + 1 == length[q]:
                    link[cur] = q
                else:
                    clone = len(nxt)
                    nxt.append(nxt[q].copy())
                    link.append(link[q])
                    length.append(length[p] + 1)
                    first.append(first[q])  # a clone first ends where q does
                    while p >= 0 and nxt[p].get(c) == q:
                        nxt[p][c] = clone
                        p = link[p]
                    link[q] = link[cur] = clone
            last = cur
        self.data = data
        self.next = nxt
        self._min_end = array("i", first)
        SuffixAutomaton._last = self

    def finalize_min_end(self) -> array:
        """For each state, the minimum end position over all its occurrences:
        the column the build filled; this computes nothing."""
        return self._min_end
