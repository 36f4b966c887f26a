"""Independent brute-force oracles for the test suite.

Everything here works on plain tuples with hand-rolled closure loops, kept
deliberately separate from the library's table-based algorithms so the two
routes can disagree.  The exceptions are earlier library code kept as
references: the list-of-lists coset enumerator, the quotient search's
weaker element mask, which reads a group's multiplication table, and the
table's unchunked composition; and, at the end, tools built on the library
that only tests use.
"""

import copy
from array import array
from collections import deque
from functools import cache
from itertools import combinations, permutations, product

import numpy as np

from polyquot.permgroups import (DEFAULT_SUBGROUP_BOUND, MarkedGroup, Subgroup, _bfs_tree,
                                 _class_transversal, _conjugate_class_rows,
                                 enumerate_subgroups_within)
from polyquot.polytopes import _certificate_from, is_regular
from polyquot.presentations import Presentation, Word, normalize_relators


def perm_mul(p, q):
    """Apply p then q."""
    return tuple(q[i] for i in p)


def perm_inv(p):
    out = [0] * len(p)
    for i, j in enumerate(p):
        out[j] = i
    return tuple(out)


def mulclose(gens, limit=100000):
    """All products of the generators, by breadth-first word closure."""
    gens = [tuple(g) for g in gens]
    n = len(gens[0]) if gens else 0
    ident = tuple(range(n))
    elems = {ident}
    frontier = [ident]
    while frontier:
        new = []
        for p in frontier:
            for g in gens:
                q = perm_mul(p, g)
                if q not in elems:
                    if len(elems) >= limit:
                        raise RuntimeError("closure limit hit")
                    elems.add(q)
                    new.append(q)
        frontier = new
    return elems


def brute_force_products(degree, gens):
    """A group's elements in lexicographic order and its products, by brute
    force: (elems, index, rmul, inv, gen_ids) with rmul[j][i] the index of
    elems[i] * elems[j]."""
    gens = [tuple(int(x) for x in g) for g in gens]
    elems = sorted(mulclose(gens)) if gens else [tuple(range(degree))]
    index = {e: i for i, e in enumerate(elems)}
    rmul = [[index[perm_mul(a, b)] for a in elems] for b in elems]
    inv = [index[perm_inv(e)] for e in elems]
    return elems, index, rmul, inv, [index[g] for g in gens]


def intersection_condition(g):
    """The intersection condition by its first formula: each parabolic a
    frozenset of Python ints, generated through g's multiplication table
    (`closure_ids` of the generator ids)."""
    subsets = [s for r in range(g.rank + 1) for s in combinations(range(g.rank), r)]
    para = {s: frozenset(int(e) for e in g.closure_ids([g.gen_ids[i] for i in s]))
            for s in subsets}
    return all(len(para[a] & para[b]) == len(para[tuple(sorted(set(a) & set(b)))])
               for a in subsets for b in subsets)


def signed_permutation_group(n):
    """Symmetries of the n-cube as permutations of the 2n facet directions.

    Point i and point i+n are opposite; elements permute the n axes and flip
    any subset of them.  |group| = 2^n n!.
    """
    pts = 2 * n
    out = set()
    for axes in permutations(range(n)):
        for signs in product((0, 1), repeat=n):
            img = [0] * pts
            for i in range(n):
                j = axes[i]
                img[i] = j + n * signs[i]
                img[i + n] = j + n * (1 - signs[i])
            out.add(tuple(img))
    return out


def full_icosahedral_order():
    """|±A_5| derived from the even permutations of five objects."""
    a5 = [p for p in permutations(range(5)) if _parity(p) == 0]
    return 2 * len(a5)


def _parity(p):
    seen = [False] * len(p)
    par = 0
    for s in range(len(p)):
        if seen[s]:
            continue
        length = 0
        x = s
        while not seen[x]:
            seen[x] = True
            x = p[x]
            length += 1
        par ^= (length - 1) & 1
    return par


def _index_table(elems):
    """The group's own multiplication table, for fast exhaustive search."""
    order = sorted(elems)
    index = {e: i for i, e in enumerate(order)}
    mul = [[index[perm_mul(a, b)] for b in order] for a in order]
    inv = [index[perm_inv(e)] for e in order]
    ident = index[tuple(range(len(order[0])))]
    return order, index, mul, inv, ident


def brute_force_subgroups(elems, allowed=None):
    """Every subgroup of a group given as a set of tuple permutations, or,
    given a set `allowed` of its elements, every subgroup inside that set.

    Exhaustive extension: every known subgroup is extended by every (allowed)
    element, and a subgroup with an element outside `allowed` is dropped.
    Every subgroup of an allowed subgroup is allowed, so nothing is lost.
    Subgroups are returned as frozensets of tuple permutations.
    """
    order, index, mul, inv, ident = _index_table(elems)
    n = len(order)
    ok = [allowed is None or x in allowed for x in order]

    def close(gens):
        seen = {ident}
        queue = [ident]
        while queue:
            x = queue.pop()
            row = mul[x]
            for g in gens:
                y = row[g]
                if y not in seen:
                    seen.add(y)
                    queue.append(y)
        return frozenset(seen)

    trivial = frozenset([ident])
    gens_of = {trivial: ()}
    frontier = [trivial]
    while frontier:
        new = []
        for sub in frontier:
            gens = gens_of[sub]
            for e in range(n):
                if e in sub or not ok[e]:
                    continue
                bigger = close(gens + (e,))
                if bigger not in gens_of and all(ok[x] for x in bigger):
                    gens_of[bigger] = gens + (e,)
                    new.append(bigger)
        frontier = new
    return {frozenset(order[i] for i in sub) for sub in gens_of}


def conjugacy_partition(subgroups, elems):
    """Partition a set of subgroups (frozensets) into conjugacy classes."""
    order, index, mul, inv, ident = _index_table(elems)
    as_ids = {frozenset(index[x] for x in h) for h in subgroups}
    remaining = set(as_ids)
    classes = []
    while remaining:
        h = next(iter(remaining))
        cls = set()
        for g in range(len(order)):
            gi = inv[g]
            img = frozenset(mul[mul[gi][x]][g] for x in h)
            cls.add(img)
        classes.append(cls)
        remaining -= cls
    return classes


def all_starts_certificate(adj):
    """The flag-graph certificate by exhaustive scan: (header + the
    lexicographically least BFS relabelling over every start flag, number of
    starts whose relabelling equals flag 0's).

    `adj` lists the adjacency involutions as flag sequences; the bytes use the
    library's layout (a repr'd (rank, flags) header, then int64 labels) so the
    two can be compared directly.
    """
    adj = [[int(x) for x in a] for a in adj]
    n = len(adj[0]) if adj else 1
    header = repr((len(adj), n)).encode()
    if not adj:
        return header, 1
    certs = [_bfs_relabelling(adj, s) for s in range(n)]
    return header + min(certs), certs.count(certs[0])


@cache
def _catalog_certificates():
    """The certificate of each polytope `catalog.identify` can name, mapped
    to its name; a later entry with the same certificate overwrites an
    earlier one, so {2,2} is hosohedron(2)."""
    from polyquot.catalog import dihedron, hosohedron, rank3_catalog

    entries = rank3_catalog() + [f(k) for k in range(2, 7) for f in (dihedron, hosohedron)]
    return {all_starts_certificate(e.polytope().adj)[0]: e.name for e in entries}


def catalog_name_by_certificate(p):
    """The catalog name of a polytope by certificate lookup, the reference for
    `catalog.identify`: the entry whose polytope has p's canonical
    certificate, or `unrecognized:{type}`."""
    name = _catalog_certificates().get(all_starts_certificate(p.adj)[0])
    return name or "unrecognized:{" + ",".join(map(str, p.schlafli_type())) + "}"


def _bfs_relabelling(adj, start):
    """Label flags in BFS order (neighbours by rank, parents by label) and
    list each adjacency's images in the new labels."""
    label = {start: 0}
    queue = deque([start])
    order = []
    while queue:
        f = queue.popleft()
        order.append(f)
        for a in adj:
            if a[f] not in label:
                label[a[f]] = len(label)
                queue.append(a[f])
    return array("q", [label[a[f]] for a in adj for f in order]).tobytes()


def incidence_mats(counts, pairs_per_level):
    """Boolean incidence matrices between consecutive ranks, from the
    incident (rank-k face, rank-(k+1) face) pairs of each rank k."""
    mats = [np.zeros((counts[k], counts[k + 1]), dtype=bool) for k in range(len(pairs_per_level))]
    for m, pairs in zip(mats, pairs_per_level):
        for a, b in pairs:
            m[a, b] = True
    return mats


def strongly_connected(counts, mats):
    """Whether every section of rank >= 2 of a ranked poset is connected, by
    one union-find per section.

    `counts[k]` is the number of rank-k faces and `mats[k][a][b]` says whether
    rank-k face a lies below rank-(k+1) face b, as in `Polytope`; the least
    and greatest faces are added here.  Faces are (chain index, face) pairs,
    chain index 0 being the least face and the last the greatest.
    """
    sizes = [1] + list(counts) + [1]
    top = len(sizes) - 1
    covers = {}  # (t, a) -> faces at index t + 1 above face a at index t
    for t in range(top):
        for a in range(sizes[t]):
            covers[(t, a)] = [
                (t + 1, b) for b in range(sizes[t + 1])
                if t == 0 or t == top - 1 or mats[t - 1][a][b]]
    above = {(top, 0): set()}
    for t in range(top - 1, -1, -1):
        for a in range(sizes[t]):
            above[(t, a)] = set().union(*([{c} | above[c] for c in covers[(t, a)]]))
    for lower, ups in above.items():
        for upper in ups:
            if upper[0] - lower[0] < 3:
                continue
            members = [f for f in ups if f[0] < upper[0] and upper in above[f]]
            parent = {f: f for f in members}

            def find(x):
                while parent[x] != x:
                    parent[x] = parent[parent[x]]
                    x = parent[x]
                return x

            for f in members:
                for c in covers[f]:
                    if c in parent:
                        parent[find(c)] = find(f)
            if len({find(f) for f in members}) != 1:
                return False
    return True


def orbit_minima(perms, n):
    """The least point of each point's orbit under the group the permutations
    generate, by breadth-first search along every permutation and its inverse."""
    steps = [[] for _ in range(n)]
    for p in perms:
        for x in range(n):
            steps[x].append(p[x])
            steps[p[x]].append(x)
    out = [None] * n
    for s in range(n):
        if out[s] is not None:
            continue
        orbit = {s}
        queue = deque([s])
        while queue:
            for y in steps[queue.popleft()]:
                if y not in orbit:
                    orbit.add(y)
                    queue.append(y)
        for x in orbit:
            out[x] = min(orbit)
    return out


def _least_member_classes(n, pairs):
    """Union-find over range(n): each point's label is the least member of
    its class in the finest partition joining every pair."""
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for x, y in pairs:
        rx, ry = find(x), find(y)
        if rx != ry:  # the root of a class stays its least member
            parent[max(rx, ry)] = min(rx, ry)
    return [find(x) for x in range(n)]


def orbit_join_quotient(adj, left):
    """The face poset of P/N by joining partitions of P's flags.

    `adj[i][w]` is the flag i-adjacent to flag w of P and `left[k][w]` the
    flag n_k * w for each element n_k of N.  A rank-i face of P/N is a class
    of the finest partition holding every N-orbit and every rank-i face of P
    (flags joined by the adjacencies other than i); faces are numbered by
    least flag.  Returns (counts, incidences, chains): the incident pairs of
    rank-i and rank-(i+1) faces, per i, and the faces of each N-orbit's
    flags, one tuple per orbit in order of least flag.
    """
    n, rank = len(adj[0]), len(adj)
    orbit = _least_member_classes(n, ((w, l[w]) for l in left for w in range(n)))
    faces = []
    for i in range(rank):
        joined = [(w, orbit[w]) for w in range(n)]
        joined += [(w, a[w]) for j, a in enumerate(adj) if j != i for w in range(n)]
        label = _least_member_classes(n, joined)
        number = {f: k for k, f in enumerate(sorted(set(label)))}
        faces.append([number[f] for f in label])
    counts = [len(set(f)) for f in faces]
    incidences = [{(faces[i][w], faces[i + 1][w]) for w in range(n)} for i in range(rank - 1)]
    chains = [tuple(f[w] for f in faces) for w in sorted(set(orbit))]
    return counts, incidences, chains


def maximal_chain_count(counts, incidences):
    """The number of maximal chains of a ranked poset given by its incident
    pairs of consecutive ranks."""
    ways = [1] * counts[0]
    for i, pairs in enumerate(incidences):
        up = [0] * counts[i + 1]
        for a, b in pairs:
            up[b] += ways[a]
        ways = up
    return sum(ways)


class ReferenceEnumerator:
    """The Felsch coset enumerator as polyquot had it before its table became
    flat int32 columns: the table is a list of rows, and each deduction is
    scanned at both of its ends.  Slow,
    but it is the ground truth that the flat-column enumerator with one scan
    per deduction must match table for table, coset number for coset number.
    A coincidence pushes a deduction for every edge it touches, at the live
    end, where the library pushes one only for each edge it moves.
    `run` returns (status, rows, cosets_defined); after an overflow `table`
    and `p` hold the prefix."""

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
                mu, nu = self.rep(gamma), self.rep(delta)
                self.deductions.append((nu, x))  # at a live coset: a dead one is skipped
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
            raise _ReferenceOverflow
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
        except _ReferenceOverflow:
            return "exceeded-limit", [], len(self.table)
        live = [a for a in range(len(self.table)) if self.p[a] == a]
        renum = {a: i for i, a in enumerate(live)}
        rows = [[renum[self.table[a][x]] for x in range(self.rank)] for a in live]
        return "closed", rows, len(self.table)


class _ReferenceOverflow(Exception):
    pass


def generator_pair_mask(g):
    """The quotient search's earlier, weaker element mask, kept as a
    reference: the elements of a MarkedGroup with no conjugate equal to some
    s_i or to some s_i*s_j with |i-j| >= 2 (the identity always allowed).
    Each such target lies in the coset s_i*G_i, so this mask contains
    `quotients.semisparse_allowed_mask`."""
    R = g.rmul
    inv = g.inv_ids
    gids = g.gen_ids
    targets = [int(t) for t in gids]
    for i in range(g.rank):
        for j in range(i + 2, g.rank):
            targets.append(int(g.mul(gids[i], gids[j])))
    bad = np.zeros(g.order, dtype=bool)
    xs = np.arange(g.order)
    for t in targets:
        bad[np.unique(R[xs, R[t][inv[xs].astype(np.int64)]])] = True
    ok = ~bad
    ok[0] = True
    return ok


def unchunked_table(g):
    """A MarkedGroup's multiplication table composed as the library did
    before it gathered in bounded chunks, kept as a reference: row 0 is the
    identity and row j = s_k[row i] along the breadth-first tree, one
    fancy-indexed gather per level and generator."""
    n = g.degree
    dtype = np.int16 if n < 2**15 else np.int32
    gens = [s.astype(dtype) for s in g.gens]
    R = np.empty((n, n), dtype=dtype)
    R[0] = np.arange(n)
    for k, parent, child in _bfs_tree(g.gens, n):
        R[child] = gens[k][R[parent]]
    return R


def passes_full_regularity_check(g) -> bool:
    """Whether a MarkedGroup's generators act regularly, by the library's full
    check run on a copy whose `_regular` flag is cleared: the ground truth for
    the groups that a constructor marks regular without running it."""
    h = copy.copy(g)
    h._regular = False
    try:
        h._check_regular()
    except ValueError:
        return False
    return True


def all_cyclic_forms(word) -> set:
    """Every rotation of the word and of its reverse, one per start."""
    w = tuple(word)
    return {r[i:] + r[:i] for r in (w, w[::-1]) for i in range(len(r))}


def least_cyclic_form(word):
    """The least of `all_cyclic_forms`, the word itself when it is empty."""
    return min(all_cyclic_forms(word), default=tuple(word))


# ---------------------------------------------------------------------------
# tools built on the library, used by tests only


def subgroup(g, gen_ids):
    """The Subgroup of a MarkedGroup generated by the given element ids."""
    gen_ids = tuple(int(x) for x in gen_ids)
    return Subgroup(g, g.closure_ids(gen_ids), gen_ids)


def enumerate_subgroups(g, order_bound=DEFAULT_SUBGROUP_BOUND):
    """One representative per conjugacy class of subgroups, with class sizes:
    `enumerate_subgroups_within` over an all-true mask."""
    return enumerate_subgroups_within(g, np.ones(g.order, dtype=bool), order_bound)


def are_conjugate(g, h1, h2):
    """(True, witness id) if some x conjugates h1 onto h2, else (False, None)."""
    if h1.order != h2.order:
        return False, None
    trans = _class_transversal(g, h1)
    rows = _conjugate_class_rows(g, h1.elem_ids, trans)
    target = h2.elem_ids.astype(rows.dtype)
    hits = np.flatnonzero((rows == target).all(axis=1))
    if hits.size:
        return True, int(trans[hits[0]])
    return False, None


def ditope_group(facet):
    """Group of the ditope over a rank-3 catalog facet: the facet group Γ
    times the swap of the two copies, as a rank-4 marked group acting
    regularly on the 2|Γ| points 2w + c, w an element of Γ and c a copy.
    Γ's generators right-multiply w and the swap flips c."""
    g = facet.group()
    pts = np.arange(2 * g.order)
    w, c = np.divmod(pts, 2)
    return MarkedGroup(len(pts), [2 * s[w] + c for s in g.gens] + [pts ^ 1])


def aut_order(p):
    """|Aut(p)|: the flag count when p is regular, else the number of start
    flags whose certificate run equals flag 0's."""
    if is_regular(p):
        return p.n_flags
    adj = [a.tolist() for a in p.adj]
    base = _certificate_from(adj, 0)
    return sum(_certificate_from(adj, s) == base for s in range(p.n_flags))


def read_presentation(text):
    """The `rank` and `rel` lines of the presentation text format, read back."""
    fields = [line.split() for line in text.splitlines() if not line.startswith("#")]
    rank = next(int(f[1]) for f in fields if f[0] == "rank")
    return Presentation(rank, tuple(tuple(map(int, f[1:])) for f in fields if f[0] == "rel"))
