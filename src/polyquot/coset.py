"""Systematic coset enumeration over involutory generators.

Felsch-style: definitions are made in first-undefined order and every table
entry pushed onto a deduction stack is scanned against all relator rotations
through it before the next definition.  Coset numbering is therefore a pure
function of the presentation and subgroup words.  Since every generator is an
involution the alphabet needs no inverses and each table column of a closed
table is an involutory permutation of the cosets.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .presentations import Presentation, Word, normalize_relators

DEFAULT_MAX_COSETS = 10**6

CLOSED = "closed"
EXCEEDED = "exceeded-limit"


class RelatorMismatch(Exception):
    """A closed coset table's permutations break a relator of its presentation."""


@dataclass
class CosetTable:
    """Result of an enumeration.  Coset 0 is the subgroup itself."""

    presentation: Presentation
    subgroup_words: tuple[Word, ...]
    table: np.ndarray  # cosets x rank, meaningful only when closed
    status: str
    cosets_defined: int  # total definitions made, including dead cosets

    @property
    def rank(self) -> int:
        return self.presentation.rank

    @property
    def n_cosets(self) -> int:
        return self.table.shape[0]

    @property
    def is_closed(self) -> bool:
        return self.status == CLOSED

    def column(self, x: int) -> np.ndarray:
        """Permutation of cosets induced by generator x."""
        return self.table[:, x]


class _Enumerator:
    def __init__(self, pres: Presentation, max_cosets: int):
        self.rank = pres.rank
        self.max_cosets = max_cosets
        self.table = [[-1] * self.rank]  # -1 = undefined
        self.p = [0]
        self.deductions: list[tuple[int, int]] = []
        # relator rotations (of the word and its reverse) indexed by first letter
        self.edp: list[list[Word]] = [[] for _ in range(self.rank)]
        rots = set()
        for rel in normalize_relators(pres.relators):
            for w in (rel, rel[::-1]):
                for i in range(len(w)):
                    rots.add(w[i:] + w[:i])
        for w in sorted(rots):
            self.edp[w[0]].append(w)

    # -- union-find over cosets ------------------------------------------

    def rep(self, k: int) -> int:
        p = self.p
        r = k
        while p[r] != r:
            r = p[r]
        while p[k] != r:
            p[k], k = r, p[k]
        return r

    def _merge(self, a: int, b: int, queue):
        a, b = self.rep(a), self.rep(b)
        if a != b:
            lo, hi = min(a, b), max(a, b)
            self.p[hi] = lo
            queue.append(hi)

    def _coincidence(self, a: int, b: int):
        table = self.table
        queue: deque[int] = deque()
        self._merge(a, b, queue)
        while queue:
            gamma = queue.popleft()
            for x in range(self.rank):
                delta = table[gamma][x]
                if delta == -1:
                    continue
                table[delta][x] = -1
                self.deductions.append((delta, x))
                mu, nu = self.rep(gamma), self.rep(delta)
                if table[mu][x] != -1:
                    self._merge(nu, table[mu][x], queue)
                elif table[nu][x] != -1:
                    self._merge(mu, table[nu][x], queue)
                else:
                    table[mu][x] = nu
                    table[nu][x] = mu

    # -- scanning ---------------------------------------------------------

    def _scan(self, alpha: int, word: Word, fill: bool = False):
        """Scan `word` from alpha forwards and backwards.  A scan that closes
        gives a coincidence, one with a single gap a deduction.  A longer gap
        gives nothing, unless `fill`: then the next coset forward is defined
        and the scan runs again."""
        table = self.table
        while True:
            f, i = alpha, 0
            b, j = alpha, len(word) - 1
            while i <= j and table[f][word[i]] != -1:
                f = table[f][word[i]]
                i += 1
            if i > j:
                if f != b:
                    self._coincidence(f, b)
                return
            while j >= i and table[b][word[j]] != -1:
                b = table[b][word[j]]
                j -= 1
            if j < i:
                self._coincidence(f, b)
            elif j == i:
                table[f][word[i]] = b
                table[b][word[i]] = f
                self.deductions.append((f, word[i]))
            elif fill:
                self._define(f, word[i])
                continue
            return

    def _define(self, alpha: int, x: int):
        if len(self.table) >= self.max_cosets:
            raise _Overflow
        beta = len(self.table)
        self.table.append([-1] * self.rank)
        self.p.append(beta)
        self.table[alpha][x] = beta
        self.table[beta][x] = alpha
        self.deductions.append((alpha, x))

    def _process_deductions(self):
        table = self.table
        while self.deductions:
            alpha, x = self.deductions.pop()
            if self.p[alpha] == alpha:
                for w in self.edp[x]:
                    self._scan(alpha, w)
                    if self.p[alpha] != alpha:
                        break
            if self.p[alpha] != alpha:
                continue
            beta = table[alpha][x]
            if beta != -1 and self.p[beta] == beta:
                for w in self.edp[x]:
                    self._scan(beta, w)
                    if self.p[beta] != beta:
                        break

    def run(self, subgroup_words) -> tuple[str, list[list[int]], int]:
        try:
            for w in subgroup_words:
                if w:
                    self._scan(0, tuple(w), fill=True)
                    self._process_deductions()
            alpha = 0
            while alpha < len(self.table):
                if self.p[alpha] == alpha:
                    for x in range(self.rank):
                        if self.p[alpha] != alpha:
                            break
                        if self.table[alpha][x] == -1:
                            self._define(alpha, x)
                            self._process_deductions()
                alpha += 1
        except _Overflow:
            return EXCEEDED, [], len(self.table)
        live = [a for a in range(len(self.table)) if self.p[a] == a]
        renum = {a: i for i, a in enumerate(live)}
        rows = [[renum[self.table[a][x]] for x in range(self.rank)] for a in live]
        return CLOSED, rows, len(self.table)


class _Overflow(Exception):
    pass


def coset_enumeration(pres: Presentation, subgroup_words=(), max_cosets: int = DEFAULT_MAX_COSETS) -> CosetTable:
    """Enumerate cosets of the subgroup generated by `subgroup_words`.

    Returns a CosetTable with status `closed`, or `exceeded-limit` when more
    than `max_cosets` cosets would have to be defined (a reportable outcome,
    not an exception).
    """
    if max_cosets < 1:
        raise ValueError("max_cosets must be >= 1")
    words = tuple(tuple(w) for w in subgroup_words)
    status, rows, defined = _Enumerator(pres, max_cosets).run(words)
    if status == CLOSED:
        arr = np.array(rows, dtype=np.int32).reshape(len(rows), pres.rank)
    else:
        arr = np.empty((0, pres.rank), dtype=np.int32)
    return CosetTable(pres, words, arr, status, defined)


def perm_rep(table: CosetTable):
    """Marked permutation group induced on the cosets of a closed table.

    A table of the trivial subgroup is the group acting regularly on itself,
    which is what a MarkedGroup is: element j is the one sending coset 0 (the
    subgroup) to coset j.  A table over a subgroup that is not normal gives a
    non-regular action, which the MarkedGroup rejects when first used."""
    from .permgroups import MarkedGroup

    if not table.is_closed:
        raise ValueError(f"coset table is not closed (status {table.status!r})")
    gens = [np.array(table.column(x), dtype=np.int32) for x in range(table.rank)]
    g = MarkedGroup(table.n_cosets, gens)
    rel = broken_relator(gens, table.presentation.relators)
    if rel is not None:
        raise RelatorMismatch(f"relator {rel} not satisfied by the induced permutations")
    return g


def broken_relator(gens, relators):
    """The first relator that the generator permutations do not satisfy, or
    None when they satisfy them all."""
    for rel in relators:
        img = start = np.arange(len(gens[0]))
        for x in rel:
            img = gens[x][img]
        if not np.array_equal(img, start):
            return rel
    return None
