"""Marked permutation groups, with dense multiplication tables built on demand.

A MarkedGroup is a finite group together with its ordered list of
distinguished involutory generators (the s_i of a string group), given by its
right-regular action: the generators are image arrays on range(n), n the group
order, and a point j stands for the one element sending point 0 to j.  Every
group the package builds reaches it that way: the closed coset table of the
trivial subgroup is exactly such an action, and `regular_from_action` builds
it from another faithful action, as the orbit of a base: an orbit of a known
bound on the group order certifies the bound exact and the base one (Sims,
Computational methods in the study of permutation groups, 1970; Holt, Eick &
O'Brien, Handbook of Computational Group Theory, 2005, sections 4.4 and 5).
An action on as many points as the bound takes point 0 as its base, numbered
through an index array; a smaller one a tuple of points, each tuple one
int64 key, numbered through a dict.  Either way the members are numbered in
order of first appearance, breadth-first from the base, so the numbering is
that of the group itself, not of the action.
Permutations act on the right, so the product a*b applies a first, and
element j's image array is the row of the multiplication table that
right-multiplies by j: element i times element j sends 0 to
elem_j[elem_i[0]] = elem_j[i].  The image arrays of a regular action already
differ at point 0, so numbering the elements by the point they send 0 to is
the lexicographic order of their image arrays, and element ids, subgroup
representatives and report orderings are reproducible across runs.
Membership of a permutation p is one row comparison, against row p[0].

The regularity check and the table follow one breadth-first tree of points:
point 0 is the root, and a point j = s_k(i) first met from i is a child of i.
Along the tree, row 0 is the identity and row j = s_k[row i].  Then row j
sends 0 to j, so row j is some element of the group sending 0 to j, and the
only one when the action is regular.  Regularity is checked exactly: the
breadth-first search must reach every point, and the maps
c_k(j) = row_j[s_k(0)] must commute with every s_m.  The check needs only
these rank columns, never the rows: c_k(0) = s_k(0), and c_k(j) = s(c_k(i))
along a tree edge j = s(i), since row j is s[row i].  If the tests pass, let
h be an element fixing 0 and y any point, and take c = c_k1...c_km with
c(0) = s_km...s_k1(0) = y, by commuting.  c commutes with the generators,
hence with h, so h(y) = h(c(0)) = c(h(0)) = c(0) = y: h is the identity, the
transitive action has trivial point stabilisers, and so it is regular.
Conversely, in a regular action row_j[s_k(0)] is the point that s_k * elem_j
sends 0 to, so c_k is left multiplication by s_k: it commutes with every
right multiplication.  The c_k are then involutions too, so testing that
adds nothing (Holt, Eick & O'Brien, Handbook of Computational Group Theory,
2005, section 4: a transitive group with a transitive centraliser is
regular).  Generators that do not act regularly raise ValueError before any
element id is handed out.  Two constructors prove regularity as they build,
so their groups skip the check: `regular_from_action`, whose orbit of
exactly `order` members makes the base's stabiliser trivial, and
`MarkedGroup.parabolic_group`, a subgroup of a regular action acting on its
own orbit of point 0.  The check runs only on generators handed in from
outside, such as the trivial subgroup's coset table in `coset.perm_rep`.

The facts that need no products come from the permutations in O(n * rank):
the order, the generators' ids and the parabolic subgroups.  An element h
sends 0 to its own id, so the orbit of point 0 under <s_j : j in J> is
{h(0) : h in <s_j : j in J>}, the parabolic's element ids.  The n x n table
is composed only when a product, an inverse or a membership test is first
asked for.

Subgroup classes come from two moves, the zuppo form of Neubüser's cyclic
extension method (Neubüser, Numer. Math. 2, 1960; Holt, Eick & O'Brien,
Handbook of Computational Group Theory, 2005, section 10).  A class
representative H is extended to H u Hc for each c in N(H) outside H with c^2
in H (index 2), and, only when H is odd-generated, joined with each cyclic
subgroup of odd prime-power order (an odd zuppo).  For a subgroup K let O(K)
be the subgroup generated by K's elements of odd order.  The two moves reach
every class of subgroups whose elements all lie in a conjugation-closed mask:

- O(K) is normal in K, its generating set being closed under conjugation.
  Every element's odd part is a power of it lying in O(K), so every element
  of K/O(K) has 2-power order and K/O(K) is a 2-group.  A 2-group has a chain
  of subgroups, each normal of index 2 in the next, so index-2 extensions
  climb from O(K) to K.
- An odd-order element is a product of commuting powers of odd prime-power
  order, so O(K) is generated by odd zuppos z1, z2, ....  The chain
  <z1> < <z1, z2> < ... reaches O(K) through odd-generated subgroups only.
- An index-2 extension K = H u Hc is never odd-generated: an odd-order
  element maps to an odd-order element of K/H = C2, so it lies in H.  So the
  joins, from the trivial class on, produce exactly the odd-generated
  classes, and a class's flag "found by a join" is "odd-generated".
- The mask is an element condition, so every intermediate subgroup of an
  allowed K is allowed.

A class representative H is generated by its recorded generators, so the
join of H with <z> is the closure of those generators and z: one frontier
BFS of table gathers.

A subgroup's class is its orbit under the maps y -> s_k*y*s_k, which
generate conjugation (Holt, Eick & O'Brien, section 4.1), found breadth-first
with each member's generators carried along.  The normaliser of the least
member, the representative, is the set of y with y^-1*x*y in it for each
generator x, and every class is checked against |class| * |N(H)| = |G|.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

DEFAULT_ORDER_LIMIT = 20000
DEFAULT_SUBGROUP_BOUND = 10000
_GATHER_ENTRIES = 2**18  # table entries composed per gather in MarkedGroup._build_tables


class BoundExceeded(Exception):
    """A configured resource bound was hit: a reportable outcome, not a bug."""


# ---------------------------------------------------------------------------
# permutation helpers (permutations are integer image arrays; p maps i to p[i])

def as_perm(images, degree: int | None = None) -> np.ndarray:
    p = np.asarray(images, dtype=np.int32)
    if p.ndim != 1:
        raise ValueError("a permutation is a 1-d image array")
    if degree is not None and len(p) != degree:
        raise ValueError(f"expected degree {degree}, got {len(p)}")
    if not np.array_equal(np.sort(p), np.arange(len(p))):
        raise ValueError("image array is not a bijection")
    return p


def is_involution(p: np.ndarray) -> bool:
    return bool(np.array_equal(p[p], np.arange(len(p))))


def orbit_min_labels(perms, n: int) -> np.ndarray:
    """lab[x] = least point of the orbit of x under the group the permutations
    (image arrays on range(n)) generate.

    Min-label propagation along every permutation, then pointer jumping
    (lab = lab[lab]): lab[x] is always a point of x's orbit no larger than x,
    so the labels only fall, and they stop exactly when each is constant on
    its orbit, which makes it the orbit's least point.
    """
    lab = np.arange(n)
    while True:
        nl = lab
        for p in perms:
            nl = np.minimum(nl, nl[p])
        nl = nl[nl]
        if np.array_equal(nl, lab):
            return lab
        lab = nl


def _bfs_tree(perms, n: int):
    """The breadth-first tree of point 0's orbit under the permutations (image
    arrays on range(n)): yields (k, parents, children), one triple per level
    and permutation, children = perms[k][parents] being the points first met
    there.  A parent is always yielded as a child before its own children."""
    seen = np.zeros(n, dtype=bool)
    seen[0] = True
    frontier = np.zeros(1, dtype=np.int64)
    while frontier.size:
        new = []
        for k, p in enumerate(perms):
            img = p[frontier]
            fresh = ~seen[img]
            child = img[fresh]
            seen[child] = True
            new.append(child)
            yield k, frontier[fresh], child
        frontier = np.concatenate(new) if new else frontier[:0]


def _orbit_of_zero(perms, n: int) -> np.ndarray:
    """Sorted points of point 0's orbit under the permutations."""
    seen = np.zeros(n, dtype=bool)
    seen[0] = True
    frontier = np.zeros(1, dtype=np.int64)
    while frontier.size:
        new = []
        for p in perms:
            img = p[frontier]
            fresh = img[~seen[img]]
            if fresh.size:
                seen[fresh] = True
                new.append(fresh)
        # p is a bijection and `seen` is updated after each permutation, so
        # the pieces of a level are already disjoint
        frontier = np.concatenate(new) if new else frontier[:0]
    return np.flatnonzero(seen).astype(np.int32)


def _base_length(d: int) -> int:
    """The longest tuple of points of range(d) that one int64 key holds, d at
    most: the least of d and the largest m with d^m < 2^63."""
    m = 1
    while m < d and d ** (m + 1) < 2**63:
        m += 1
    return m


def regular_from_action(perms, order: int) -> "MarkedGroup | None":
    """The regular action of the group the permutations generate, when the
    orbit of a base has exactly `order` members, else None; the caller
    knows `order` to bound the group's order from above.  An action on
    `order` points takes the one point 0 as its base; any other takes the
    tuple (0, ..., m-1), m being `_base_length` of the degree.

    The orbit has |P| / |stabiliser of the base| members, P the group the
    permutations generate, so an orbit of a known upper bound on |P| proves
    that bound is |P| and that the base is one.  The orbit is then the
    group's right-regular action: its members are numbered by a breadth-first
    search from the base, level by level, in order of first appearance with
    (member, generator) scanned in row-major order, and generator k sends
    member j to the number of member j's image under permutation k.  A point
    is numbered through an index array over the `order` points; a tuple is
    one exact int64 key, the digits of its points in base d, and one dict
    from key to number dedupes the images.  Member j stands for the element
    taking the base to it, and the numbering depends only on which words in
    the generators are equal in P, not on the action or the base.

    The group comes back marked regular, without `MarkedGroup`'s check: its
    points are the `order` members of the orbit, on which P acts
    transitively, and an orbit of |P| points leaves the base's stabiliser,
    hence every point's, trivial.
    """
    d = len(perms[0])
    if d == order:
        return _regular_from_point(perms, order)
    m = _base_length(d)
    weights = d ** np.arange(m, dtype=np.int64)
    start = int(np.arange(m, dtype=np.int64) @ weights)
    number = {start: 0}
    frontier = [start]  # keys of one BFS level, the members numbered from n0
    gens = np.empty((len(perms), order), dtype=np.int32)
    n0 = 0
    while frontier:
        tuples = np.array(frontier, dtype=np.int64)[:, None] // weights % d
        img = np.stack([p[tuples] @ weights for p in perms], axis=1)  # member x generator
        fresh = []
        ids = []
        for key in img.ravel().tolist():
            j = number.get(key)
            if j is None:
                j = number[key] = len(number)
                fresh.append(key)
            ids.append(j)
        if len(number) > order:
            return None
        gens[:, n0:n0 + len(frontier)] = np.array(ids, dtype=np.int32).reshape(img.shape).T
        n0 += len(frontier)
        frontier = fresh
    if len(number) < order:
        return None
    return _proved_regular(order, list(gens))


def _regular_from_point(perms, order: int) -> "MarkedGroup | None":
    """`regular_from_action` on the base (0,) of an action on `order` points:
    the same numbering, each level's new points numbered in order of first
    appearance through the index array."""
    perms = np.stack(perms)
    rank = len(perms)
    number = np.full(order, -1)
    number[0] = 0
    frontier = np.zeros(1, dtype=np.int64)  # points of one BFS level, numbered from n0
    gens = np.empty((rank, order), dtype=np.int32)
    n0, n = 0, 1
    while frontier.size:
        img = perms[:, frontier].T.ravel()  # member x generator
        new = img[number[img] < 0]
        first = np.unique(new, return_index=True)[1]
        first.sort()
        fresh = new[first]
        number[fresh] = np.arange(n, n + fresh.size)
        n += fresh.size
        gens[:, n0:n0 + frontier.size] = number[img].reshape(frontier.size, rank).T
        n0 += frontier.size
        frontier = fresh
    if n < order:
        return None
    return _proved_regular(order, list(gens))


def _proved_regular(degree: int, gens) -> "MarkedGroup":
    """A MarkedGroup on generators that its caller has proved to act
    regularly, so it skips the regularity check; an action over the order
    limit is still refused with BoundExceeded when first used."""
    g = MarkedGroup(degree, gens)
    g._regular = degree <= DEFAULT_ORDER_LIMIT
    return g


def _ids_key(ids) -> bytes:
    return np.ascontiguousarray(ids, dtype=np.int32).tobytes()


def _is_odd_prime_power(n: int) -> bool:
    """Whether n = p^k for an odd prime p and k >= 1."""
    if n < 3 or n % 2 == 0:
        return False
    p = 3
    while n % p:
        p += 2
    while n % p == 0:
        n //= p
    return n == 1


# ---------------------------------------------------------------------------


class MarkedGroup:
    """A group's right-regular action, with ordered distinguished involutory
    generators: element j is the one sending point 0 to j."""

    def __init__(self, degree: int, gens):
        if degree < 1:
            raise ValueError("degree must be >= 1")
        self.degree = degree
        self.gens = [as_perm(g, degree) for g in gens]
        for i, g in enumerate(self.gens):
            if not is_involution(g):
                raise ValueError(f"generator {i} does not square to the identity")
        self._regular = False      # set by _check_regular, or by a constructor's proof
        self._rmul = None          # _rmul[j][i] = id of elem_i * elem_j = elem_j[i]
        self._inv = None
        self._conj_maps = None
        self._elem_orders = None
        self._intersection = None  # kept by polytopes.intersection_condition
        self._parabolic_ids = {}   # kept by parabolic
        self._parabolics = {}      # kept by quotients._parabolic

    @property
    def rank(self) -> int:
        return len(self.gens)

    # -- facts from the permutations -------------------------------------------

    def _check_regular(self):
        """Check that the action is regular (see the module docstring) on the
        columns c_k(j) = row_j[s_k(0)], composed along the breadth-first tree:
        c_k(0) = s_k(0) and c_k(s(i)) = s(c_k(i)) for a tree edge i -> s(i)."""
        if self._regular:
            return
        n = self.degree
        if n > DEFAULT_ORDER_LIMIT:
            raise BoundExceeded(
                f"a regular action on {n} points exceeds enumeration limit {DEFAULT_ORDER_LIMIT}")
        cols = np.empty((self.rank, n), dtype=np.int32)
        cols[:, 0] = [s[0] for s in self.gens]
        reached = 1
        for k, parent, child in _bfs_tree(self.gens, n):
            cols[:, child] = self.gens[k][cols[:, parent]]
            reached += child.size
        if reached < n:
            raise ValueError(f"the generators do not act transitively on {n} points")
        if not all(np.array_equal(c[s], s[c]) for c in cols for s in self.gens):
            raise ValueError("the generators do not act regularly: a point stabiliser "
                             "is nontrivial")
        self._regular = True

    @property
    def order(self) -> int:
        self._check_regular()
        return self.degree

    @property
    def gen_ids(self) -> list[int]:
        self._check_regular()
        return [int(s[0]) for s in self.gens]

    def parabolic(self, gen_indices) -> "Subgroup":
        """Subgroup generated by a subset of the distinguished generators: the
        orbit of point 0 under them, since element x lies in it exactly when
        point x does.  Computed once per index tuple; the ids are read-only."""
        js = tuple(int(i) for i in gen_indices)
        perms = [self.gens[i] for i in js]
        if js not in self._parabolic_ids:
            self._check_regular()
            ids = _orbit_of_zero(perms, self.degree)
            ids.flags.writeable = False
            self._parabolic_ids[js] = ids  # not the Subgroup: it would hold a cycle back to self
        return Subgroup(self, self._parabolic_ids[js], tuple(int(s[0]) for s in perms))

    def parabolic_group(self, gen_indices) -> "MarkedGroup":
        """The parabolic subgroup acting on itself: its point k, and so its
        element k, is its k-th least element id here.  It comes back marked
        regular: the subgroup H acts transitively on the orbit of point 0,
        its own element ids, and a point stabiliser in H lies in one of this
        regular action, which is trivial."""
        ids = self.parabolic(gen_indices).elem_ids
        pos = np.empty(self.order, dtype=np.int32)
        pos[ids] = np.arange(len(ids))
        return _proved_regular(len(ids), [pos[self.gens[i][ids]] for i in gen_indices])

    # -- the table, built on first use ----------------------------------------

    def _build_tables(self):
        """Compose row j = s_k[row i] along the breadth-first tree.

        A level's rows are gathered with np.take, faster than fancy indexing
        by the int16 rows, but np.take first casts its whole index block to
        intp: one wide level at once would hold an intp copy of its parent
        rows, four times their int16 size, and raise the peak memory.  The
        rows are therefore composed in chunks of at most _GATHER_ENTRIES
        table entries (2 MB of intp indices)."""
        if self._rmul is not None:
            return
        self._check_regular()
        n = self.degree
        dtype = np.int16 if n < 2**15 else np.int32
        gens = [s.astype(dtype) for s in self.gens]
        R = np.empty((n, n), dtype=dtype)
        R[0] = np.arange(n)
        step = max(1, _GATHER_ENTRIES // n)
        for k, parent, child in _bfs_tree(self.gens, n):
            for a in range(0, parent.size, step):
                R[child[a:a + step]] = np.take(gens[k], R[parent[a:a + step]])
        self._rmul = R
        self._inv = np.argmin(R, axis=1).astype(dtype)

    @property
    def elements(self) -> np.ndarray:
        """elements[j] = image array of element j; the same array as rmul."""
        self._build_tables()
        return self._rmul

    def element_id(self, perm) -> int:
        """Id of a permutation, or -1 if it is not in the group."""
        p = as_perm(perm)
        if len(p) != self.degree:
            raise ValueError(f"permutation acts on {len(p)} points, group degree is {self.degree}")
        j = int(p[0])
        return j if np.array_equal(self.elements[j], p) else -1

    @property
    def rmul(self) -> np.ndarray:
        """rmul[j][i] = id of elem_i * elem_j (right multiplication by j)."""
        self._build_tables()
        return self._rmul

    @property
    def inv_ids(self) -> np.ndarray:
        self._build_tables()
        return self._inv

    def mul(self, a, b):
        """Product of elements by id; either argument may be an id array."""
        return self.rmul[b, a]

    def inverse(self, a):
        return self.inv_ids[a]

    def conj(self, a, g):
        """g^-1 * a * g, by ids (a may be an array)."""
        return self.mul(self.mul(self.inverse(g), a), g)

    @property
    def conj_maps(self) -> list[np.ndarray]:
        """conj_maps[k][y] = s_k * y * s_k, by ids, computed once."""
        if self._conj_maps is None:
            R = self.rmul
            self._conj_maps = [R[s][R[:, s]] for s in self.gen_ids]  # R[x, s] = s*x
        return self._conj_maps

    @property
    def element_orders(self) -> np.ndarray:
        if self._elem_orders is None:
            n = self.order
            orders = np.zeros(n, dtype=np.int32)
            orders[0] = 1
            cur = np.arange(n)
            k = 1
            while (orders == 0).any():
                k += 1
                cur = self.rmul[np.arange(n), cur]
                hit = (cur == 0) & (orders == 0)
                orders[hit] = k
            self._elem_orders = orders
        return self._elem_orders

    # -- subgroups -------------------------------------------------------------

    def closure_ids(self, gen_ids) -> np.ndarray:
        """Sorted element ids of the subgroup generated by the given ids."""
        R = self.rmul
        return _orbit_of_zero([R[int(g)] for g in gen_ids], self.degree)


@dataclass
class Subgroup:
    """Subgroup of a MarkedGroup, stored as sorted element ids."""

    parent: MarkedGroup
    elem_ids: np.ndarray
    gen_ids: tuple[int, ...] = ()

    def __post_init__(self):
        self.elem_ids = np.unique(np.asarray(self.elem_ids, dtype=np.int32))

    @property
    def order(self) -> int:
        return len(self.elem_ids)

    def key(self) -> bytes:
        return _ids_key(self.elem_ids)


# ---------------------------------------------------------------------------
# group operations


def product_set_intersect(h: Subgroup, a: Subgroup, b: Subgroup) -> np.ndarray:
    """Element ids of h lying in the product set a*b (not generally a group)."""
    g = h.parent
    if a.parent is not g or b.parent is not g:
        raise ValueError("subgroups have different parent groups")
    prods = np.unique(g.rmul[np.ix_(b.elem_ids, a.elem_ids)])
    return np.intersect1d(h.elem_ids, prods)


def _class_orbit(g: MarkedGroup, ids: np.ndarray, gen_ids) -> tuple[np.ndarray, tuple[int, ...]]:
    """The class of the subgroup with sorted element ids `ids` and generators
    `gen_ids`, the orbit of ids under `MarkedGroup.conj_maps` (see the module
    docstring): its members' sorted ids as the rows of a lexicographically
    sorted array, and the generators carried to the first member."""
    rows, gens = [np.asarray(ids, dtype=np.int32)], [np.asarray(gen_ids, dtype=np.int64)]
    seen = {_ids_key(rows[0])}
    for row, gen in zip(rows, gens):  # the lists grow as the orbit is met
        for c in g.conj_maps:
            img = np.sort(c[row])
            if _ids_key(img) not in seen:
                seen.add(_ids_key(img))
                rows.append(img)
                gens.append(c[gen])
    members = np.stack(rows).astype(np.int32)
    lex = np.lexsort(members.T[::-1])
    return members[lex], tuple(int(x) for x in gens[lex[0]])


def conjugates(g: MarkedGroup, h: Subgroup) -> list[Subgroup]:
    """The full conjugacy class of h, deduplicated, canonically ordered."""
    members, _ = _class_orbit(g, h.elem_ids, h.gen_ids)
    return [Subgroup(g, row) for row in members]


# ---------------------------------------------------------------------------
# subgroup-class lattice


@dataclass
class SubgroupClass:
    rep: Subgroup
    members: np.ndarray  # every member's sorted ids, a lex-sorted row each; rep's comes first

    @property
    def order(self) -> int:
        return self.rep.order

    @property
    def size(self) -> int:
        return len(self.members)


class _Zuppos:
    """Allowed cyclic subgroups of odd prime-power order, with the
    conjugation action."""

    def __init__(self, g: MarkedGroup, allowed: np.ndarray):
        orders = g.element_orders
        self.gen_elem: list[int] = []
        self.of_elem = np.full(g.order, -1, dtype=np.int64)
        odd_pp = [o for o in np.unique(orders).tolist() if _is_odd_prime_power(o)]
        for e in map(int, np.flatnonzero(allowed & np.isin(orders, odd_pp))):  # ascending ids
            o = int(orders[e])
            if self.of_elem[e] >= 0:
                continue
            ids = np.empty(o, dtype=np.int32)
            x = 0
            for k in range(o):
                ids[k] = x
                x = int(g.rmul[e, x])
            ids.sort()
            if not allowed[ids].all():
                continue
            z = len(self.gen_elem)
            self.gen_elem.append(e)
            gens_mask = orders[ids] == o
            self.of_elem[ids[gens_mask]] = z


def require_subgroup_bound(g: MarkedGroup, order_bound: int):
    """Raise BoundExceeded before a subgroup search of too large a group."""
    if g.order > order_bound:
        raise BoundExceeded(
            f"group order {g.order} exceeds subgroup-enumeration bound {order_bound}")


def enumerate_subgroups_within(g: MarkedGroup, allowed: np.ndarray,
                               order_bound: int = DEFAULT_SUBGROUP_BOUND) -> list[SubgroupClass]:
    """One representative per conjugacy class of the subgroups whose elements
    all lie in the `allowed` mask, with class sizes, listed by (order,
    elements); a representative is the lexicographically least sorted
    element-id list of its class.  The mask must be closed under conjugation,
    and a subgroup of an allowed subgroup is allowed, so index-2 extensions
    from every class and odd-zuppo joins from the odd-generated ones reach
    every class inside it (see the module docstring)."""
    if not allowed[0]:
        raise ValueError("the identity must be allowed")
    require_subgroup_bound(g, order_bound)
    R = g.rmul
    n = g.order
    zup = _Zuppos(g, allowed)

    member_key_to_class: dict[bytes, int] = {}
    classes: list[SubgroupClass] = []
    normalizers: list[np.ndarray] = []
    odd_generated: list[bool] = []
    queue = deque()

    def register(ids: np.ndarray, gen_ids: tuple[int, ...], odd: bool):
        """Record and queue the class of `ids`, unless it is known; `odd`
        says whether it is odd-generated, that is, found by a join."""
        if _ids_key(ids) in member_key_to_class:
            return
        members, rep_gen_ids = _class_orbit(g, ids, gen_ids)
        in_rep = np.zeros(n, dtype=bool)
        in_rep[members[0]] = True
        norm = np.arange(n)  # N(rep): the y conjugating each of rep_gen_ids into rep
        for x in rep_gen_ids:
            norm = norm[in_rep[g.conj(x, norm)]]
        if len(members) * len(norm) != n:
            raise AssertionError(f"|class| {len(members)} x normaliser order {len(norm)} != {n}")
        cls = len(classes)
        classes.append(SubgroupClass(Subgroup(g, members[0], rep_gen_ids), members))
        normalizers.append(norm)
        odd_generated.append(odd)
        member_key_to_class.update((row.tobytes(), cls) for row in members)
        queue.append(cls)

    register(np.array([0], dtype=np.int32), (), True)

    def coset_reduced(cands: np.ndarray, H: np.ndarray) -> np.ndarray:
        """Keep one candidate per coset H*c: the first one met."""
        mins = R[np.ix_(cands, H)].min(axis=1)
        first = np.unique(mins, return_index=True)[1]
        return cands[np.sort(first)]

    while queue:
        cls = queue.popleft()
        H = classes[cls].rep.elem_ids
        h_gens = classes[cls].rep.gen_ids
        N = normalizers[cls]
        in_H = np.zeros(n, dtype=bool)
        in_H[H] = True
        # index-2 extensions H u Hc: c in N(H) \ H with c^2 in H
        outside = N[~in_H[N] & allowed[N]]
        for c in coset_reduced(outside[in_H[R[outside, outside]]], H):
            K = np.union1d(H, R[c][H])
            if allowed[K].all():
                register(K, h_gens + (int(c),), False)
        if not odd_generated[cls]:
            continue
        # odd-zuppo joins, one per N(H)-orbit of zuppos
        seen_orbit = np.zeros(len(zup.gen_elem), dtype=bool)
        for z, e in enumerate(zup.gen_elem):
            if seen_orbit[z]:
                continue
            seen_orbit[zup.of_elem[g.conj(e, N)]] = True
            if in_H[e]:  # <e> lies in the subgroup H exactly when e does
                continue
            gens2 = h_gens + (e,)
            K = g.closure_ids(gens2)  # H = <h_gens>, so K = <H, e>
            if allowed[K].all():
                register(K, gens2, True)

    return sorted(classes, key=lambda c: (c.order, tuple(c.rep.elem_ids)))
