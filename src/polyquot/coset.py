"""Systematic coset enumeration over involutory generators.

Felsch-style: definitions are made in first-undefined order and every table
entry pushed onto a deduction stack is scanned against all relator rotations
through it before the next definition.  Coset numbering is therefore a pure
function of the presentation and subgroup words.  Since every generator is an
involution the alphabet needs no inverses and each table column of a closed
table is an involutory permutation of the cosets.

Storage.  The working table is one flat `array('i')` column per generator,
`cols[x][alpha]` being alpha·x or -1 while undefined; the union-find parents
`p` and the deduction stack (one array of cosets, one of generators) are
`array('i')` too, about 20 bytes per defined coset in all.  Each relator
rotation is bound once to its tuple of columns, so a scan reads
`wc[i][alpha]` with no indexing by letter.  The closing step renumbers the
live cosets with numpy straight from these buffers.

One scan per deduction.  A deduction (alpha, x), with alpha·x = beta, is
scanned at alpha only, against `edp[x]`: the rotations of the relators and of
their reverses that start with x.  This covers the scans at beta too.  A
relator cycle through the edge alpha–beta read from beta, beta -x-> alpha
-v-> beta, is read backwards from alpha as alpha -x-> beta -v'-> alpha, with
v' the reverse of v: every letter is an involution, so walking an edge
backwards reads the same letter.  That word x·v' is a rotation of the
reversed relator and starts with x, so it is in `edp[x]`.  A scan runs both
ways from its start until it meets a gap, and alpha and beta are joined by a
defined edge, so both scans see the same gaps and make the same deduction or
coincidence.  Emptying the stack after a definition reaches the least table
closed under these deductions and coincidences, whatever order the scans come
in, and a class of merged cosets keeps its least member; so the coset
numbering, the definition order and `cosets_defined` are those of a scan at
both ends.
"""

from __future__ import annotations

from array import array
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
        self.cols = [array("i", [-1]) for _ in range(self.rank)]  # -1 = undefined
        self.p = array("i", [0])
        self.ded_coset = array("i")
        self.ded_gen = array("i")
        # relator rotations (of the word and its reverse) indexed by first
        # letter, each with the table columns it reads
        self.edp: list[list[tuple[Word, tuple[array, ...]]]] = [[] for _ in range(self.rank)]
        rots = set()
        for rel in normalize_relators(pres.relators):
            for w in (rel, rel[::-1]):
                for i in range(len(w)):
                    rots.add(w[i:] + w[:i])
        for w in sorted(rots):
            self.edp[w[0]].append((w, self._columns(w)))

    def _columns(self, word: Word) -> tuple[array, ...]:
        return tuple(self.cols[x] for x in word)

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
        queue: deque[int] = deque()
        self._merge(a, b, queue)
        while queue:
            gamma = queue.popleft()
            for x, col in enumerate(self.cols):
                delta = col[gamma]
                if delta == -1:
                    continue
                col[delta] = -1
                self.ded_coset.append(delta)
                self.ded_gen.append(x)
                mu, nu = self.rep(gamma), self.rep(delta)
                if col[mu] != -1:
                    self._merge(nu, col[mu], queue)
                elif col[nu] != -1:
                    self._merge(mu, col[nu], queue)
                else:
                    col[mu] = nu
                    col[nu] = mu

    # -- scanning ---------------------------------------------------------

    def _scan(self, alpha: int, word: Word, wc: tuple[array, ...], fill: bool = False):
        """Scan `word`, whose columns are `wc`, from alpha forwards and
        backwards.  A scan that closes gives a coincidence, one with a single
        gap a deduction.  A longer gap gives nothing, unless `fill`: then the
        next coset forward is defined and the scan runs again."""
        while True:
            f, i = alpha, 0
            b, j = alpha, len(word) - 1
            while i <= j:
                nxt = wc[i][f]
                if nxt == -1:
                    break
                f = nxt
                i += 1
            if i > j:
                if f != b:
                    self._coincidence(f, b)
                return
            while j >= i:
                nxt = wc[j][b]
                if nxt == -1:
                    break
                b = nxt
                j -= 1
            if j < i:
                self._coincidence(f, b)
            elif j == i:
                col = wc[i]
                col[f] = b
                col[b] = f
                self.ded_coset.append(f)
                self.ded_gen.append(word[i])
            elif fill:
                self._define(f, word[i])
                continue
            return

    def _define(self, alpha: int, x: int):
        beta = len(self.p)
        if beta >= self.max_cosets:
            raise _Overflow
        for col in self.cols:
            col.append(-1)
        self.p.append(beta)
        self.cols[x][alpha] = beta
        self.cols[x][beta] = alpha
        self.ded_coset.append(alpha)
        self.ded_gen.append(x)

    def _process_deductions(self):
        p, ded_coset, ded_gen, edp = self.p, self.ded_coset, self.ded_gen, self.edp
        while ded_coset:
            alpha = ded_coset.pop()
            x = ded_gen.pop()
            if p[alpha] != alpha:
                continue
            for w, wc in edp[x]:
                self._scan(alpha, w, wc)
                if p[alpha] != alpha:
                    break

    def run(self, subgroup_words) -> tuple[str, np.ndarray, int]:
        p, cols = self.p, self.cols
        try:
            for w in subgroup_words:
                if w:
                    self._scan(0, w, self._columns(w), fill=True)
                    self._process_deductions()
            alpha = 0
            while alpha < len(p):
                if p[alpha] == alpha:
                    for x, col in enumerate(cols):
                        if p[alpha] != alpha:
                            break
                        if col[alpha] == -1:
                            self._define(alpha, x)
                            self._process_deductions()
                alpha += 1
        except _Overflow:
            return EXCEEDED, np.empty((0, self.rank), dtype=np.int32), len(p)
        return CLOSED, self._live_table(), len(p)

    def _live_table(self) -> np.ndarray:
        """The live cosets' rows, renumbered 0, 1, ... in coset order."""
        n = len(self.p)
        live = np.flatnonzero(np.frombuffer(self.p, dtype=np.int32) == np.arange(n))
        renum = np.empty(n, dtype=np.int32)
        renum[live] = np.arange(len(live), dtype=np.int32)
        table = np.empty((len(live), self.rank), dtype=np.int32)
        for x, col in enumerate(self.cols):
            table[:, x] = renum[np.frombuffer(col, dtype=np.int32)[live]]
        return table


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
    for w in words:
        for g in w:
            if not 0 <= g < pres.rank:
                raise ValueError(f"generator index {g} out of range in subgroup word {w} "
                                 f"(rank {pres.rank})")
    status, table, defined = _Enumerator(pres, max_cosets).run(words)
    return CosetTable(pres, words, table, status, defined)


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
