"""The rank-3 building blocks: spherical and projective polyhedra plus the
degenerate dihedron/hosohedron families, with their presentations, realized
groups and polytopes, the ditope construction, and naming by relators.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .coset import broken_relator, coset_enumeration, lift_from_parabolics, perm_rep
from .permgroups import (DEFAULT_ORDER_LIMIT, BoundExceeded, MarkedGroup, is_involution,
                         orbit_min_labels)
from .polytopes import Polytope, polytope_from_group
from .presentations import Presentation, Word, power_word


@dataclass(frozen=True)
class SchlafliSymbol:
    entries: tuple[int, ...]

    def __post_init__(self):
        if any(e < 2 for e in self.entries):
            raise ValueError(f"Schläfli entries must be >= 2: {self.entries}")

    @property
    def rank(self) -> int:
        return len(self.entries) + 1

    def reversed(self) -> "SchlafliSymbol":
        return SchlafliSymbol(self.entries[::-1])

    def __str__(self) -> str:
        return "{" + ",".join(str(e) for e in self.entries) + "}"


def coxeter_presentation(symbol: SchlafliSymbol) -> Presentation:
    """String Coxeter presentation: (s_i s_{i+1])^{p_i}, commuting otherwise."""
    rank = symbol.rank
    rels = [power_word((i, i + 1), p) for i, p in enumerate(symbol.entries)]
    for i in range(rank):
        for j in range(i + 2, rank):
            rels.append(power_word((i, j), 2))
    return Presentation(rank, tuple(rels))


def petrie_relator(r: int) -> Word:
    return power_word((0, 1, 2), r)


def with_petrie(pres: Presentation, r: int) -> Presentation:
    """Append the relator (s_0 s_1 s_2)^r to a rank-3 presentation."""
    if pres.rank != 3:
        raise ValueError("Petrie relator applies to rank-3 presentations")
    if r < 2:
        raise ValueError("Petrie length must be >= 2")
    return pres.with_relators([petrie_relator(r)])


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    symbol: SchlafliSymbol
    extra_relators: tuple[Word, ...]
    expected_order: int
    kind: str  # spherical | projective | degenerate
    dual_name: str

    def presentation(self) -> Presentation:
        return coxeter_presentation(self.symbol).with_relators(self.extra_relators)

    def group(self) -> MarkedGroup:
        return _realize_group(self)

    def polytope(self) -> Polytope:
        return _realize_polytope(self)


_GROUPS: dict[str, MarkedGroup] = {}
_POLYTOPES: dict[str, Polytope] = {}


def _realize_group(entry: CatalogEntry) -> MarkedGroup:
    """The entry's group, lifted from its actions on the cosets of <s0,s1>
    and <s1,s2>, dihedral of orders at most 2p and 2q for an entry {p,q}
    (see `lift_from_parabolics`), else from the trivial subgroup's coset
    table; an order the marked group would refuse is refused before
    enumerating."""
    if entry.name not in _GROUPS:
        if entry.expected_order > DEFAULT_ORDER_LIMIT:
            raise BoundExceeded(f"{entry.name}: group order {entry.expected_order} "
                                f"exceeds enumeration limit {DEFAULT_ORDER_LIMIT}")
        pres = entry.presentation()
        p, q = entry.symbol.entries
        g, _ = lift_from_parabolics(pres, [((0, 1), 2 * p), ((1, 2), 2 * q)])
        if g is None:
            g = perm_rep(coset_enumeration(pres))
        if g.order != entry.expected_order:
            raise AssertionError(
                f"{entry.name}: realized order {g.order} != expected {entry.expected_order}")
        _GROUPS[entry.name] = g
    return _GROUPS[entry.name]


def _realize_polytope(entry: CatalogEntry) -> Polytope:
    if entry.name not in _POLYTOPES:
        _POLYTOPES[entry.name] = polytope_from_group(entry.group())
    return _POLYTOPES[entry.name]


def _entry(name, entries, extra, order, kind, dual_name) -> CatalogEntry:
    return CatalogEntry(name, SchlafliSymbol(tuple(entries)), tuple(extra), order, kind, dual_name)


_SPHERICAL = [
    _entry("tetrahedron", (3, 3), (), 24, "spherical", "tetrahedron"),
    _entry("cube", (4, 3), (), 48, "spherical", "octahedron"),
    _entry("octahedron", (3, 4), (), 48, "spherical", "cube"),
    _entry("dodecahedron", (5, 3), (), 120, "spherical", "icosahedron"),
    _entry("icosahedron", (3, 5), (), 120, "spherical", "dodecahedron"),
]

_PROJECTIVE = [
    _entry("hemicube", (4, 3), (petrie_relator(3),), 24, "projective", "hemicross"),
    _entry("hemicross", (3, 4), (petrie_relator(3),), 24, "projective", "hemicube"),
    _entry("hemidodecahedron", (5, 3), (petrie_relator(5),), 60, "projective", "hemi-icosahedron"),
    _entry("hemi-icosahedron", (3, 5), (petrie_relator(5),), 60, "projective", "hemidodecahedron"),
]

_CENTRAL_QUOTIENT = {
    "cube": "hemicube",
    "octahedron": "hemicross",
    "dodecahedron": "hemidodecahedron",
    "icosahedron": "hemi-icosahedron",
}


def rank3_catalog(degenerate: bool = False) -> list[CatalogEntry]:
    """The five spherical and four projective rank-3 polytopes, then with
    `degenerate` the dihedra {p,2} and the hosohedra {2,p} for p = 2..6."""
    extra = [f(p) for f in (dihedron, hosohedron) for p in range(2, 7)] if degenerate else []
    return list(_SPHERICAL) + list(_PROJECTIVE) + extra


def dihedron(p: int) -> CatalogEntry:
    """{p,2}: two p-gonal faces glued edge to edge."""
    return _entry(f"dihedron({p})", (p, 2), (), 4 * p, "degenerate", f"hosohedron({p})")


def hosohedron(p: int) -> CatalogEntry:
    """{2,p}: p digonal faces around an axis."""
    return _entry(f"hosohedron({p})", (2, p), (), 4 * p, "degenerate", f"dihedron({p})")


_NAME_RE = re.compile(r"^(dihedron|hosohedron)\((\d+)\)$")


def entry_by_name(name: str) -> CatalogEntry:
    for e in rank3_catalog():
        if e.name == name:
            return e
    m = _NAME_RE.match(name)
    p = int(m.group(2)) if m else 0
    if p >= 2:
        return dihedron(p) if m.group(1) == "dihedron" else hosohedron(p)
    raise KeyError(f"unknown catalog entry {name!r}")


def central_quotient(entry: CatalogEntry) -> CatalogEntry:
    """The projective polytope obtained by killing the central inversion."""
    if entry.kind != "spherical":
        raise ValueError(f"{entry.name} is not spherical")
    if entry.name == "tetrahedron":
        raise ValueError("the tetrahedron has no central inversion")
    return entry_by_name(_CENTRAL_QUOTIENT[entry.name])


def central_inversion(g: MarkedGroup) -> int:
    """Element id of the unique central involution; raises if absent."""
    central = []
    for x in range(1, g.order):
        if all(g.mul(x, gid) == g.mul(gid, x) for gid in g.gen_ids):
            central.append(x)
    invs = [x for x in central if g.mul(x, x) == 0]
    if len(invs) != 1:
        raise ValueError(f"expected exactly one central involution, found {len(invs)}")
    return invs[0]


def central_quotient_group(entry: CatalogEntry) -> MarkedGroup:
    """Explicit quotient of a spherical group by its central inversion.

    Cross-check for the Petrie-relator realization of the projective entries.
    """
    g = entry.group()
    w = central_inversion(g)
    n = g.order
    ids = np.arange(n)
    lab = np.minimum(ids, g.mul(w, ids))  # coset {x, wx} labelled by its least id
    uniq = np.unique(lab)
    gens = []
    for gid in g.gen_ids:
        img_label = lab[g.rmul[gid][uniq]]
        gens.append(np.searchsorted(uniq, img_label).astype(np.int32))
    return MarkedGroup(len(uniq), gens)


def ditope_group(facet: CatalogEntry) -> MarkedGroup:
    """Group of the ditope over a rank-3 facet: the facet group Γ times the
    swap of the two copies, as a rank-4 marked group acting regularly on the
    2|Γ| points 2w + c, w an element of Γ and c a copy.  Γ's generators
    right-multiply w and the swap flips c."""
    if facet.symbol.rank != 3:
        raise ValueError("ditope needs a rank-3 facet")
    g = facet.group()
    pts = np.arange(2 * g.order)
    w, c = np.divmod(pts, 2)
    return MarkedGroup(len(pts), [2 * s[w] + c for s in g.gens] + [pts ^ 1])


def build_ditope(facet: CatalogEntry) -> Polytope:
    """Rank-4 ditope {p,q,2}: two copies of a rank-3 facet glued facewise."""
    return polytope_from_group(ditope_group(facet))


# -- identification of small polytopes against the catalog -------------------


def identify(p: Polytope) -> str:
    """Catalog name of a rank-3 polytope, or `unrecognized:{type}`.

    p is entry e when its adjacencies are involutions generating a transitive
    group (the flag graph is connected) that satisfy e's relators on
    e.expected_order = |Γ(e)| flags.  The group they generate is then a
    quotient of Γ(e) transitive on |Γ(e)| flags, so it is Γ(e) acting
    regularly, and the flag graph is e's.  Both preconditions are needed: the
    relators leave s_i^2 implicit, and two disjoint hemicubes satisfy the
    cube's relators on 48 flags.  Only {2,2} is two entries, named by the
    last, hosohedron(2)."""
    adj = p.adj
    if p.rank == 3 and all(map(is_involution, adj)) and not orbit_min_labels(adj, p.n_flags).any():
        for e in reversed(rank3_catalog(degenerate=True)):
            if p.n_flags == e.expected_order and broken_relator(adj, e.presentation().relators) is None:
                return e.name
    return "unrecognized:{" + ",".join(map(str, p.schlafli_type())) + "}"


_UNRECOGNIZED_RE = re.compile(r"^unrecognized:\{(.*)\}$")


def identified_dual(name: str) -> str:
    """The name `identify` gives the dual of a polytope it names `name`.

    The catalog is closed under duality, so a catalog name goes to the name
    of its dual entry, given as `identify` gives it: by the last entry with
    the same presentation, so {2,2}, self-dual, stays hosohedron(2).  The
    dual of an unrecognized polytope is unrecognized, of the reversed type;
    any other name, such as a group that is no polytope, is kept."""
    m = _UNRECOGNIZED_RE.match(name)
    if m:
        return "unrecognized:{" + ",".join(reversed(m.group(1).split(","))) + "}"
    try:
        d = entry_by_name(entry_by_name(name).dual_name)
    except KeyError:
        return name
    pres = d.presentation()
    return next((e.name for e in reversed(rank3_catalog(degenerate=True))
                 if e.presentation() == pres), d.name)
