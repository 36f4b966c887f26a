"""Systematic coset enumeration over involutory generators.

Felsch-style: definitions are made in first-undefined order and every table
entry pushed onto a deduction stack is scanned against all relator rotations
through it before the next definition.  Coset numbering is therefore a pure
function of the presentation and the subgroup's generators.  Every subgroup
enumerated is a parabolic <s_j : j in J>, given by J, so each s_j need only
fix coset 0: no subgroup word is filled.  Since every generator is an
involution the alphabet needs no inverses and each table column of a closed
table is an involutory permutation of the cosets.

Storage.  The working table is one flat `array('i')` column per generator,
`cols[x][alpha]` being alpha·x or -1 while undefined; the union-find parents
`p` and the deduction stack (one array of cosets, one of generators) are
`array('i')` too, about 20 bytes per defined coset in all.  The columns and
`p` grow in steps, not a coset at a time: when the cosets defined reach the
rows allocated, each column gains a block of -1 and `p` the block's own
numbers, about an eighth of the rows so far but at least 64, and never past
`max_cosets`.  So a run cut by the budget ends with exactly `max_cosets`
rows, and a closed run trims them to the cosets defined: either way
`len(p)` is `cosets_defined`.  Each relator rotation is bound once to its
tuple of columns, so a scan reads `wc[i][alpha]` with no indexing by letter.
The closing step renumbers the live cosets with numpy straight from these
buffers.

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
both ends.  A coincidence pushes a deduction for each edge it moves, at the
edge's live end mu: a deduction at a coset merged away is skipped when
popped, so one pushed at the dead end would leave the moved edge unscanned.
An edge a coincidence keeps in place needs no new scan; the merge it causes
instead moves the other coset's edges, each with its deduction.

One loop.  `_Enumerator.run` is the whole closing phase: it binds its locals
once, makes each definition, empties the deduction stack and walks each
rotation of `edp[x]` inline.  A scan's forward walk mostly stops after a
letter or two, because a Felsch table has few defined entries beyond the
newest coset: in the first 200,000 definitions of case 20 over its facet
subgroup, 1.18 million of 1.58 million scans stop after one letter.  A
Python call per scan would cost more than the scan, so a scan reaches a
Python call only through `_coincidence`, which is rare (66 times in those
200,000 definitions).  Every rotation in `edp[x]` starts with x, so a
deduction's first edge alpha·x is read once for all of them.  A deduction
fills only entries that were undefined, so a defined alpha·x stays as it
is until a coincidence, and an undefined one is read afresh by each scan
from alpha.  After a coincidence alpha·x is read again: the coincidence can
merge it away and move alpha's x-edge, and a value kept across it sends the
scans that follow to a dead coset.  A forward walk that stops leaves at
least one letter, so the backward walk makes its first read before its
loop, with no bound test.  The main loop defines an entry only when the
stack is empty, so the deduction it would push is the very next one popped:
it is scanned at once instead, in the same order, with no push and pop.
"""

from __future__ import annotations

from array import array
from collections import deque
from dataclasses import dataclass

import numpy as np

from .permgroups import DEFAULT_ORDER_LIMIT, MarkedGroup, regular_from_action
from .presentations import Presentation, Word, cyclic_forms, normalize_relators

DEFAULT_MAX_COSETS = 10**6

CLOSED = "closed"
EXCEEDED = "exceeded-limit"


class RelatorMismatch(Exception):
    """A closed coset table's permutations break a relator of its presentation."""


@dataclass
class CosetTable:
    """Result of an enumeration.  Coset 0 is the subgroup itself."""

    presentation: Presentation
    subgroup: tuple[int, ...]  # J, the generators of the parabolic <s_j : j in J>
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
            forms, k = cyclic_forms(rel)
            rots.update(w * k for w in forms)
        for w in sorted(rots):
            self.edp[w[0]].append((w, tuple(self.cols[x] for x in w)))

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
                mu, nu = self.rep(gamma), self.rep(delta)
                if col[mu] != -1:
                    self._merge(nu, col[mu], queue)
                elif col[nu] != -1:
                    self._merge(mu, col[nu], queue)
                else:
                    col[mu] = nu
                    col[nu] = mu
                    self.ded_coset.append(mu)
                    self.ded_gen.append(x)

    # -- the enumeration ---------------------------------------------------

    def run(self, subgroup) -> tuple[str, np.ndarray, int]:
        """Fix coset 0 under each subgroup generator in turn, then define the
        first undefined entry of the first live coset until none is left,
        emptying the deduction stack after each generator and each such
        definition.

        A generator j with 0·j undefined gets 0·j = 0 and the deduction
        (0, j); one with 0·j = beta != 0 gives the coincidence of beta with
        0.  Each other step scans the rotations `edp[y]` from one coset a,
        for a deduction (a, y), popped or that of the main loop's definition
        just made.  A scan runs forwards and backwards until it meets a gap.
        One that closes gives a coincidence, one with a single gap a
        deduction, a longer gap nothing.  A definition first grows the
        buffers by a step when they are full, or ends the run when they hold
        `max_cosets` rows; a closed run trims them to the cosets defined."""
        p, cols, rank = self.p, self.cols, self.rank
        ded_coset = self.ded_coset
        pop_coset, pop_gen = ded_coset.pop, self.ded_gen.pop
        push_coset, push_gen = ded_coset.append, self.ded_gen.append
        coincidence, grow = self._coincidence, self._grow
        # each rotation with the index of its last letter
        scans = [[(w, wc, len(w) - 1) for w, wc in row] for row in self.edp]
        gens = list(reversed(subgroup))  # J's generators still to treat, the next one last
        alpha = x = 0  # the next table entry the main loop looks at
        n = cap = len(p)  # cosets defined, and the rows allocated
        while True:
            if ded_coset:
                a = pop_coset()
                y = pop_gen()
                if p[a] != a:
                    continue
                rots = scans[y]
            elif gens:
                y = gens.pop()
                beta = cols[y][0]
                if beta == -1:
                    cols[y][0] = 0
                    push_coset(0)
                    push_gen(y)
                elif beta:
                    coincidence(beta, 0)
                continue
            else:
                while alpha < n:
                    if p[alpha] == alpha:
                        while x < rank and cols[x][alpha] != -1:
                            x += 1
                        if x < rank:
                            break
                    alpha += 1
                    x = 0
                else:
                    for buf in (p, *cols):
                        del buf[n:]
                    return CLOSED, self._live_table(), n
                if n == cap:
                    cap = grow(n)
                    if n == cap:
                        return EXCEEDED, np.empty((0, rank), dtype=np.int32), n
                a, y = alpha, x
                col = cols[y]
                col[a] = n
                col[n] = a
                n += 1
                x += 1
                rots = scans[y]
            # every word in rots starts with y: walk its first edge once,
            # and again after a coincidence, which may move it
            f0, i0 = cols[y][a], 1
            if f0 == -1:
                f0, i0 = a, 0
            for w, wc, j in rots:
                f, i = f0, i0
                while i <= j:
                    nxt = wc[i][f]
                    if nxt == -1:
                        break
                    f = nxt
                    i += 1
                else:
                    if f != a:
                        coincidence(f, a)
                        if p[a] != a:
                            break
                        f0, i0 = cols[y][a], 1
                        if f0 == -1:
                            f0, i0 = a, 0
                    continue
                # here j >= i: the backward walk's first read needs no test
                b = wc[j][a]
                if b == -1:
                    b = a
                else:
                    j -= 1
                    while j >= i:
                        nxt = wc[j][b]
                        if nxt == -1:
                            break
                        b = nxt
                        j -= 1
                if j > i:  # a gap of two or more letters
                    continue
                if j == i:
                    col = wc[i]
                    col[f] = b
                    col[b] = f
                    push_coset(f)
                    push_gen(w[i])
                else:
                    coincidence(f, b)
                    if p[a] != a:
                        break
                    f0, i0 = cols[y][a], 1
                    if f0 == -1:
                        f0, i0 = a, 0

    def _grow(self, n: int) -> int:
        """Append rows n, n+1, ... to the columns, undefined, and to the
        parents, each its own class: about n/8 rows but at least 64, and no
        more than the budget leaves.  Returns the rows now allocated, n
        itself once the budget is spent."""
        step = min(max(64, n >> 3), self.max_cosets - n)
        block = array("i", [-1]) * step
        for col in self.cols:
            col.extend(block)
        self.p.extend(range(n, n + step))
        return n + step

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


def coset_enumeration(pres: Presentation, subgroup=(), max_cosets: int = DEFAULT_MAX_COSETS) -> CosetTable:
    """Enumerate cosets of the parabolic subgroup <s_j : j in subgroup>, the
    trivial subgroup by default.

    Returns a CosetTable with status `closed`, or `exceeded-limit` when more
    than `max_cosets` cosets would have to be defined (a reportable outcome,
    not an exception).
    """
    if not isinstance(max_cosets, int) or max_cosets < 1:
        raise ValueError("max_cosets must be an integer >= 1")
    subgroup = tuple(subgroup)
    for j in subgroup:
        if not (isinstance(j, int) and 0 <= j < pres.rank):
            raise ValueError(f"subgroup generator {j!r} is no generator index "
                             f"(rank {pres.rank})")
    status, table, defined = _Enumerator(pres, max_cosets).run(subgroup)
    return CosetTable(pres, subgroup, table, status, defined)


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
        table = coset_enumeration(pres, idx, max_cosets=cap)
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
