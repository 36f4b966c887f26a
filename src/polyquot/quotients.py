"""Semisparse subgroups, quotient polytopes and classification reports.

A regular polytope P with group W has the elements of W as flags, the
i-adjacency being right multiplication by s_i, and its rank-i faces are the
cosets w*G_i with G_i = <s_j : j != i>.  A subgroup N acts on the left by
automorphisms, since left and right multiplication commute, and P/N
identifies the faces in one N-orbit: its rank-i faces are the double cosets
N*w*G_i, two faces being incident when the double cosets meet.  The orbit
flag graph builds exactly that poset.  Its flags are the orbits N*w, and
N*w -> N*w*s_i is a well-defined i-adjacency.  The rank-i face through N*w,
its orbit under the other adjacencies, is the set of orbits N*w*x with x in
G_i, whose union is N*w*G_i.  Faces of the flag graph are numbered by least
flag and flags by least element, so each face is numbered by the least
element of its double coset.

Ground truth for semisparseness is the direct definition on that poset: test
the polytopality axioms and require its maximal chains to biject with the
orbits.  It runs once per nontrivial candidate class.  The trivial class
needs none: P/1 is P, and a string C-group is the group of a regular
polytope whose flags are its elements (McMullen & Schulte, Abstract Regular
Polytopes, 2002, Thm 2E11), which `require_polytope_group` certifies before
the search.  The candidate search is a subgroup-lattice search restricted
to the elements with no conjugate in any coset s_i*G_i.  A semisparse N has
no such element: if w^-1*n*w = s_i*h with n in N and h in G_i, the flags
N*w and N*w*s_i have the same i-face N*w*G_i, and, s_i lying in every other
G_j, the same face at every rank, so the i-adjacency has a fixed point or
two orbits induce one chain.  The condition is elementwise and closed under
conjugation, so the restriction loses nothing (see
`semisparse_allowed_mask`).  The product-set criterion (valid when the
vertex figure has no proper quotients) is implemented as a fast path and
cross-checked against the ground truth.

Regularity and normality are read from the conjugacy class size (Hartley,
All polytopes are quotients, and isomorphic polytopes are quotients by
conjugate subgroups, Discrete Comput. Geom. 21, 1999).  Let phi be an
automorphism of the orbit flag graph of P/N, with phi(N) = N*x.  phi commutes
with every adjacency N*w -> N*w*s_i and the s_i generate W, so
phi(N*w) = N*x*w for every w.  That map is well defined exactly when N*n*w =
N*w gives N*x*n*w = N*x*w for every n in N, that is when x*N*x^-1 = N; for
such x it is a bijection (x^-1 gives its inverse) commuting with every
adjacency.  Two elements x, x' give the same map exactly when N*x = N*x', and
x -> phi composes as a homomorphism, so Aut(P/N) is N_W(N)/N.  The class of
N has |W : N_W(N)| members and P/N has |W : N| flags, so |Aut(P/N)| = flags /
class size.  An automorphism fixing one flag fixes every flag of the
connected flag graph, so P/N is regular (Aut(P/N) transitive on the flags)
exactly when |Aut(P/N)| = flags: when the class size is 1, that is when N is
normal.

Facets and vertex figures come from the group, not from built sections
(McMullen & Schulte, Abstract Regular Polytopes, 2002).  Let F = <s0,s1,s2>.

- The facet of P/N through the flag N*x is F/M with M = F ∩ x^-1 N x.  Its
  flags are the orbits N*x*f, f in F, and i-adjacency (i < 3) is right
  multiplication by s_i.  N*x*f = N*x*f' exactly when f' f^-1 lies in
  x^-1 N x, that is when M*f = M*f', so M*f -> N*x*f is a bijection from the
  right cosets of M in F onto the facet's flags that commutes with every
  adjacency: the facet's flag graph is the orbit flag graph of F by M.  The
  facet is a section of a polytope whose flags are its maximal chains, so
  F/M is a polytope whose flags are its chains and M is semisparse in F.
  Vertex figures are the same with V = <s1,s2,s3> and the flag N*x's vertex.
- Two facets F/M and F/M' are isomorphic exactly when M and M' are
  conjugate in F.  Their flag graphs are F's actions on the right cosets
  of M and of M', the generators acting as the adjacencies, and an
  isomorphism of flag graphs commutes with the generators, hence is an
  equivalence of the two actions.  Transitive actions are equivalent exactly
  when their point stabilisers, M and f^-1 M' f, are conjugate.
- P/N is section regular exactly when all its facets lie in one class of
  section regular F-quotients, and all its vertex figures in one class of
  section regular V-quotients.  Diamonds are all alike, and
  each remaining proper section is a polygon lying in a facet (rank pairs
  (-1,2) and (0,3)) or in a vertex figure ((0,3) and (1,4)).  So one facet
  class whose polygons agree and one vertex-figure class whose polygons
  agree make every such pair one class; conversely a second facet class or
  two polygons of different sizes in one facet break it, and so do their
  vertex-figure counterparts.

A polygon is fixed by its flag count, so an F-quotient is section regular
when its 2-faces have one flag count and so do its vertex figures.  Each
rank-3 parabolic's semisparse classes are therefore named once per group,
in a table keyed by every member of every class, and the facet through N*x
is named by one lookup of F ∩ x^-1 N x, one x per double coset N*x*F.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from . import catalog
from .permgroups import (DEFAULT_SUBGROUP_BOUND, MarkedGroup, Subgroup,
                         SubgroupClass, conjugates, enumerate_subgroups_within,
                         orbit_min_labels, product_set_intersect, require_subgroup_bound)
from .polytopes import Polytope, is_polytopal, require_polytope_group


# ---------------------------------------------------------------------------
# quotient construction


def quotient_candidate(g: MarkedGroup, n_ids: np.ndarray) -> tuple[Polytope, np.ndarray]:
    """The orbit flag graph of P/N and the faces it derives, with the least
    element of each flag orbit.

    Flags are the left orbits N*w, numbered by least element id, so flag k is
    N*least[k]; the i-adjacency is N*w -> N*w*s_i.  The adjacencies are not
    validated: a subgroup that is not semisparse can give fixed points.
    """
    require_polytope_group(g)
    R = g.rmul
    lab = R[:, n_ids.astype(np.int64)].min(axis=1)  # least id of N*w; R[w, n] = n*w
    reps = np.unique(lab)
    orbit = np.searchsorted(reps, lab)
    return Polytope([orbit[R[gid][reps]].astype(np.int32) for gid in g.gen_ids]), reps


def _defect(q: Polytope) -> str | None:
    """None if the candidate is a polytope whose maximal chains biject with
    its flags, the N-orbits (the subgroup is semisparse); otherwise the first
    failed requirement.  An accepted candidate's flag graph is validated.

    Once the poset is a polytope and distinct orbits induce distinct chains,
    every chain is induced by an orbit.  Let N*w induce the chain C, with
    faces N*w*G_k, and let X be the other rank-i face between C's faces A
    (rank i-1) and B (rank i+1) that the diamond axiom gives.  A consecutive
    incidence is read off an orbit, so X = N*w*g*G_i for some g in G_{i-1} and
    X = N*w*h*G_i for some h in G_{i+1} (G_{-1} = G_rank = G, for the
    virtual faces).  By the string property the parts
    of g in <s_0..s_{i-2}> and of h in <s_{i+2}..> lie in G_i, so we may take
    g = b in U = <s_i..> and h in D = <s_0..s_i>.  Then w*h = n*w*b*d*u with
    n in N, d in <s_0..s_{i-1}> and u in <s_{i+1}..>, so the orbit
    N*w*(h*d^-1) = N*w*(b*u) keeps C's faces below rank i (b*u in U) and
    above it (h*d^-1 in D) and has X at rank i.  So the induced chains are
    closed under chain adjacency, and a strongly connected poset is strongly
    flag-connected (McMullen & Schulte, Abstract Regular Polytopes, 2B10):
    they are all of its maximal chains.
    """
    ok, why = is_polytopal(q.counts, q.mats)
    if not ok:
        return why
    if len(np.unique(q.face_of_flag, axis=0)) != q.n_flags:
        return "flags: distinct orbits induce the same maximal chain"
    q.validate()
    return None


def is_semisparse(g: MarkedGroup, n: Subgroup) -> bool:
    return _defect(quotient_candidate(g, n.elem_ids)[0]) is None


def quotient_polytope(g: MarkedGroup, n: Subgroup) -> Polytope:
    """Quotient of the regular polytope with group g by a semisparse
    subgroup; flags are the orbits.

    Rejects non-semisparse subgroups, naming the failed axiom.
    """
    q, _ = quotient_candidate(g, n.elem_ids)
    why = _defect(q)
    if why is not None:
        raise ValueError(f"subgroup of order {n.order} is not semisparse: {why}")
    return q


# ---------------------------------------------------------------------------
# semisparse subgroup search


def semisparse_allowed_mask(g: MarkedGroup) -> np.ndarray:
    """Elements with no conjugate in any coset s_i*G_i, G_i = <s_j : j != i>.

    Take the flag N*w of P/N.  Its i-face is N*w*G_i, and its i-neighbour
    N*w*s_i has the i-face N*w*s_i*G_i.  s_i lies in every G_j with j != i,
    so if the two i-faces are equal, the two flags share their face at every
    rank.  Then either the i-adjacency has a fixed point, or two orbits
    induce one chain; either way N is not semisparse.  The two i-faces are
    equal exactly when w*s_i = n*w*h for some n in N and h in G_i, that is
    when w^-1*n*w = s_i*h^-1 lies in s_i*G_i.  So a semisparse N contains no
    conjugate of any element of s_i*G_i.  That is an element condition
    closed under conjugation, as `enumerate_subgroups_within` needs.  It
    forbids the conjugates of s_i = s_i*1 and of s_i*s_j (|i-j| >= 2, s_j in
    G_i), the fixed-point and collapsed-diamond cases.  A string C-group has
    s_i outside G_i, so the identity is allowed.

    The forbidden elements are the conjugacy classes (the orbits of the maps
    x -> s*x*s) that meet one of the sets s_i*G_i, which together hold at
    most rank*max|G_i| elements.
    """
    R = g.rmul
    lab = orbit_min_labels([R[s][R[:, s]] for s in g.gen_ids], g.order)  # R[x, s] = s*x
    bad = np.zeros(g.order, dtype=bool)
    for i, s in enumerate(g.gen_ids):
        g_i = g.parabolic([j for j in range(g.rank) if j != i]).elem_ids
        bad[lab[R[g_i, s]]] = True
    return ~bad[lab]


def _semisparse_candidates(g: MarkedGroup, order_bound: int):
    """Each semisparse class with its quotient polytope and the least element
    of each flag orbit.  The string C-group conditions, which the mask's
    proof needs, are checked before the table is built.

    The trivial class is accepted on that certificate: a string C-group is
    the group of the regular polytope whose flags are its elements, the
    i-adjacency being right multiplication by s_i (McMullen & Schulte,
    Abstract Regular Polytopes, 2002, Thm 2E11), and that is exactly the
    candidate of N = 1.  The mask allows the identity, as
    `enumerate_subgroups_within` requires, only when no s_i lies in G_i, so
    no adjacency has a fixed point.  The ground truth runs once per
    nontrivial class of the masked lattice."""
    require_polytope_group(g)
    require_subgroup_bound(g, order_bound)
    allowed = semisparse_allowed_mask(g)
    for cls in enumerate_subgroups_within(g, allowed, order_bound):
        q, least = quotient_candidate(g, cls.rep.elem_ids)
        if cls.order == 1 or _defect(q) is None:
            yield cls, q, least


def semisparse_classes(g: MarkedGroup,
                       order_bound: int = DEFAULT_SUBGROUP_BOUND) -> list[SubgroupClass]:
    """One representative per conjugacy class of semisparse subgroups."""
    return [cls for cls, _, _ in _semisparse_candidates(g, order_bound)]


# ---------------------------------------------------------------------------
# the rank-3 parabolics and their quotient classes


def _parabolic(g: MarkedGroup, js: tuple[int, ...]) -> dict[bytes, tuple[int, str, bool]]:
    """The class table of P_J = <s_j : j in J>, built once per group.

    Every member of each semisparse P_J-class is a key: the sorted ids in g
    of its elements (P_J's k-th element is g's k-th least id in P_J, so the
    map keeps the order).  A key maps to the class number, the quotient's
    catalog name and whether its polygons agree, so a subset of P_J is named
    by one lookup and has no key unless it is a semisparse subgroup."""
    if js not in g._parabolics:
        sub = g.parabolic_group(js)
        ids = g.parabolic(js).elem_ids
        table = {}
        for k, (cls, q, _) in enumerate(_semisparse_candidates(sub, DEFAULT_SUBGROUP_BOUND)):
            polygons_agree = all(len(np.unique(np.bincount(q.face_of_flag[:, i]))) == 1
                                 for i in (0, q.rank - 1))
            entry = (k, catalog.identify(q), polygons_agree)
            for m in conjugates(sub, cls.rep):
                table[Subgroup(g, ids[m.elem_ids]).key()] = entry
        g._parabolics[js] = table
    return g._parabolics[js]


# ---------------------------------------------------------------------------
# fast path: the product-set criterion


def is_semisparse_product_criterion(w: MarkedGroup, n: Subgroup) -> bool:
    """Fast-path criterion, valid when the vertex figure has no proper
    quotients: every conjugate of n meets <s0,s1,s2><s1,s2,s3> in a semisparse
    subgroup of <s0,s1,s2>."""
    if w.rank != 4:
        raise ValueError("product-set criterion applies to rank-4 groups")
    a = w.parabolic([0, 1, 2])
    b = w.parabolic([1, 2, 3])
    facet = _parabolic(w, (0, 1, 2))
    for conj in conjugates(w, n):
        # a meet outside <s0,s1,s2>, or no semisparse subgroup of it, has no key
        if Subgroup(w, product_set_intersect(conj, a, b)).key() not in facet:
            return False
    return True


# ---------------------------------------------------------------------------
# classification reports


@dataclass
class QuotientRecord:
    subgroup: Subgroup
    class_size: int
    polytope: Polytope
    is_normal: bool
    is_regular: bool
    is_section_regular: bool
    facet_classes: dict[str, int]
    vfig_classes: dict[str, int]
    type_symbol: tuple[int, ...]

    @property
    def subgroup_order(self) -> int:
        return self.subgroup.order

    def to_json(self) -> dict:
        return {
            "subgroup_order": self.subgroup_order,
            "class_size": self.class_size,
            "normal": self.is_normal,
            "regular": self.is_regular,
            "section_regular": self.is_section_regular,
            "type": list(self.type_symbol),
            "facet_classes": dict(sorted(self.facet_classes.items())),
            "vfig_classes": dict(sorted(self.vfig_classes.items())),
            "face_counts": list(self.polytope.counts),
        }


@dataclass
class ClassificationReport:
    universal: str
    group_order: int
    records: list[QuotientRecord]

    @property
    def total_quotients(self) -> int:
        return len(self.records)

    @property
    def regular_count(self) -> int:
        return sum(1 for r in self.records if r.is_regular)

    @property
    def section_regular_count(self) -> int:
        return sum(1 for r in self.records if r.is_section_regular)

    @property
    def mixed_facet_count(self) -> int:
        return sum(1 for r in self.records if len(r.facet_classes) > 1)

    def to_json(self) -> dict:
        return {
            "universal": self.universal,
            "group_order": self.group_order,
            "total_quotients": self.total_quotients,
            "regular": self.regular_count,
            "section_regular": self.section_regular_count,
            "mixed_facets": self.mixed_facet_count,
            "quotients": [r.to_json() for r in self.records],
        }


def classify_quotients(g: MarkedGroup, universal_name: str,
                       order_bound: int = DEFAULT_SUBGROUP_BOUND) -> ClassificationReport:
    """Classify every quotient of the regular polytope with group g.

    Facets and vertex figures are named, and section regularity decided,
    from the classes of the rank-3 parabolics (see the module docstring);
    no section of a quotient is built.  The records come in the lattice's
    order: by subgroup order, then the representative's element ids."""
    require_polytope_group(g)
    if g.rank != 4:
        raise ValueError(f"quotients are classified for rank-4 groups, not rank {g.rank}")
    parabolics = [(_parabolic(g, js), np.isin(np.arange(g.order), g.parabolic(js).elem_ids),
                   rank) for js, rank in (((0, 1, 2), 3), ((1, 2, 3), 0))]
    records = []
    for cls, qp, least in _semisparse_candidates(g, order_bound):
        normal = regular = cls.size == 1  # Aut(P/N) = N_W(N)/N, module docstring
        n_ids = cls.rep.elem_ids
        names, sect_reg = [], True
        for table, in_p, rank in parabolics:
            first = np.unique(qp.face_of_flag[:, rank], return_index=True)[1]
            conj = g.conj(n_ids, least[first][:, None])  # x^-1 N x, a row per face
            faces = [table[Subgroup(g, row[in_p[row]]).key()] for row in conj]
            names.append(dict(Counter(name for _, name, _ in faces)))
            sect_reg &= len({k for k, _, _ in faces}) == 1 and faces[0][2]
        records.append(QuotientRecord(
            subgroup=cls.rep,
            class_size=cls.size,
            polytope=qp,
            is_normal=normal,
            is_regular=regular,
            is_section_regular=sect_reg,
            facet_classes=names[0],
            vfig_classes=names[1],
            type_symbol=qp.schlafli_type(),
        ))
    return ClassificationReport(universal_name, g.order, records)


def quotient_lattice_dot(report: ClassificationReport, g: MarkedGroup) -> str:
    """DOT graph of the further-quotient relation between quotient classes.

    P/N2 is a further quotient of P/N1 when N1 is contained in a conjugate of
    N2; edges are the covering pairs of that partial order.
    """
    recs = report.records
    k = len(recs)
    conj_sets: list[list[frozenset]] = []
    for r in recs:
        conj_sets.append([frozenset(int(x) for x in c.elem_ids)
                          for c in conjugates(g, r.subgroup)])
    le = np.zeros((k, k), dtype=bool)
    for i, r1 in enumerate(recs):
        s1 = frozenset(int(x) for x in r1.subgroup.elem_ids)
        for j, r2 in enumerate(recs):
            le[i, j] = any(s1 <= c for c in conj_sets[j])
    lines = ["digraph quotients {", "  rankdir=BT;"]
    for i, r in enumerate(recs):
        label = f"N{i}: |N|={r.subgroup_order}" + (" regular" if r.is_regular else "")
        lines.append(f'  q{i} [label="{label}"];')
    for i in range(k):
        for j in range(k):
            if i != j and le[i, j]:
                # covering edge: no intermediate class
                if not any(m != i and m != j and le[i, m] and le[m, j] for m in range(k)):
                    lines.append(f"  q{i} -> q{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"
