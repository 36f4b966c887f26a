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

from .permgroups import DEFAULT_ORDER_LIMIT, MarkedGroup, regular_from_action
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
        # letter, each with the table columns it reads; a word u^k has only
        # the |u| rotations of its least period u
        self.edp: list[list[tuple[Word, tuple[array, ...]]]] = [[] for _ in range(self.rank)]
        rots = set()
        for rel in normalize_relators(pres.relators):
            n = len(rel)
            d = next(d for d in range(1, n + 1) if n % d == 0 and rel[d:] == rel[:n - d])
            for w in (rel, rel[::-1]):
                for i in range(d):
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
    if not table.is_closed:
        raise ValueError(f"coset table is not closed (status {table.status!r})")
    gens = [np.array(table.column(x), dtype=np.int32) for x in range(table.rank)]
    g = MarkedGroup(table.n_cosets, gens)
    rel = broken_relator(gens, table.presentation.relators)
    if rel is not None:
        raise RelatorMismatch(f"relator {rel} not satisfied by the induced permutations")
    return g


def lift_from_parabolics(pres: Presentation, parabolics,
                         max_cosets: int = DEFAULT_MAX_COSETS) -> tuple[MarkedGroup | None, int]:
    """The group G of `pres` as its regular action, lifted from its actions on
    the cosets of parabolic subgroups side by side, or None; with the cosets
    the enumerations defined.

    `parabolics` lists pairs (J, f): the parabolic H_J = <s_j : j in J> is a
    quotient of a group F_J of order f whose relators are among those of
    `pres`, so |H_J| <= f and |G| = d_J*|H_J| <= d_J*f, d_J the index.  Each
    H_J is enumerated with at most min(max_cosets, DEFAULT_ORDER_LIMIT)
    cosets, since a larger table cannot lift, and b is the least d_J*f over
    the tables that close.  `regular_from_action` then runs on the disjoint
    union of the closed tables' actions, whose image P is a quotient of G.
    An orbit of exactly b tuples of points gives b <= |P| <= |G| <= b: the
    union action is faithful, the tuple is a base, and the parabolic that
    attains b is F_J, uncollapsed.  The points are numbered alternately from
    the tables, so that the base tuple (0, ..., m-1) meets all of them; a
    tuple drawn from one table only can be no base of a faithful union.
    The elements are numbered breadth-first in G itself, whatever the
    action, which the tests check against `perm_rep` of the trivial
    subgroup's table.  A lifted group must satisfy every relator, else
    RelatorMismatch, as in `perm_rep`: the certificate presumes true coset
    tables.  None when no table closes, b is over the cap, or the orbit is
    not b tuples.
    """
    cap = min(max_cosets, DEFAULT_ORDER_LIMIT)
    tables, bound, defined = [], cap + 1, 0
    for idx, f in parabolics:
        table = coset_enumeration(pres, [(j,) for j in idx], max_cosets=cap)
        defined += table.cosets_defined
        if table.is_closed:
            tables.append(table)
            bound = min(bound, table.n_cosets * f)
    if bound > cap:
        return None, defined
    g = regular_from_action(_interleaved_union(tables), bound)
    if g is not None:
        rel = broken_relator(g.gens, pres.relators)
        if rel is not None:
            raise RelatorMismatch(f"relator {rel} not satisfied by the lifted permutations")
    return g, defined


def _interleaved_union(tables) -> list[np.ndarray]:
    """Generator permutations of the disjoint union of closed tables' actions.
    Coset i of table t is the point at slot i*k + t, k tables, so the points
    run alternately through the tables: coset 0 of each, then coset 1 of
    each, and so on until the shorter tables run out."""
    k = len(tables)
    slot = np.concatenate([np.arange(t.n_cosets) * k + i for i, t in enumerate(tables)])
    point = np.empty(len(slot), dtype=np.int32)
    point[np.argsort(slot)] = np.arange(len(slot), dtype=np.int32)
    offsets = np.cumsum([0] + [t.n_cosets for t in tables[:-1]])
    perms = []
    for x in range(tables[0].rank):
        img = np.concatenate([t.column(x) + off for t, off in zip(tables, offsets)])
        perm = np.empty_like(point)
        perm[point] = point[img]
        perms.append(perm)
    return perms


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
