"""Universal polytopes from rank-3 facets and vertex figures.

The group of the universal polytope with facet K and vertex figure L is
presented by the string Coxeter relators of the combined type plus K's extra
relators on (s_0,s_1,s_2) and L's extra relators on (s_1,s_2,s_3).  The
group is finite for every desk-scale case here.  It is built from its actions
on the cosets of the facet and the vertex-figure parabolics side by side
when they certify themselves faithful (see `build_universal`), and from the
coset table of the trivial subgroup otherwise.  The outcome is classified by
comparing the parabolic subgroups against the prescribed facet and
vertex-figure groups and checking the intersection condition.  The Table 1
classification builds and classifies one case of each dual pair: the dual's
presentation is the reversal of its partner's, its group the partner's with
the generators reversed, and its outcome rendered from the partner's facts
dualised (see `derive_reversed`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import catalog
from .catalog import CatalogEntry, SchlafliSymbol, coxeter_presentation, identified_dual
from .coset import DEFAULT_MAX_COSETS, EXCEEDED, coset_enumeration, lift_from_parabolics, perm_rep
from .permgroups import DEFAULT_ORDER_LIMIT, BoundExceeded, MarkedGroup, regular_from_action
from .polytopes import Polytope, intersection_condition, polytope_from_group
from .presentations import Presentation, Word, cyclic_forms, normalize_relators

EXISTS = "exists"
COLLAPSED = "collapsed"
NOT_POLYTOPAL = "not-polytopal"
INCONCLUSIVE = "inconclusive"  # facet-coset path only: closure it cannot certify

PROBE = 4096  # cosets each word is traced on before the full coset table

# Built from the trivial subgroup's table although its two parabolics lift it
# from 4 + 4 cosets: perfbench/test_checks.py traces this build and pins the
# 96 cosets of that table.  Drop the entry when that test is re-pinned.
TRIVIAL_ROUTE = frozenset({"{hemicube,hemicross}"})


@dataclass(frozen=True)
class AmalgamSpec:
    facet: CatalogEntry
    vfig: CatalogEntry

    def __post_init__(self):
        if self.facet.symbol.rank != 3 or self.vfig.symbol.rank != 3:
            raise ValueError("amalgam needs rank-3 facet and vertex figure")
        p, q = self.facet.symbol.entries
        q2, r = self.vfig.symbol.entries
        if q != q2:
            raise ValueError(
                f"incompatible symbols: facet {self.facet.symbol} needs vertex figure of type "
                f"{{{q},r}}, got {self.vfig.symbol}")

    @property
    def type_symbol(self) -> SchlafliSymbol:
        p, q = self.facet.symbol.entries
        _, r = self.vfig.symbol.entries
        return SchlafliSymbol((p, q, r))

    @property
    def name(self) -> str:
        return f"{{{self.facet.name},{self.vfig.name}}}"


def amalgam_presentation(spec: AmalgamSpec) -> Presentation:
    pres = coxeter_presentation(spec.type_symbol)
    extra = list(spec.facet.extra_relators)
    extra += [tuple(g + 1 for g in rel) for rel in spec.vfig.extra_relators]
    return pres.with_relators(extra)


def reversed_presentation(pres: Presentation) -> Presentation:
    """The presentation with its generators reversed, s_i -> s_{r-1-i}.

    For a string group this is duality: the group of the dual polytope is the
    same group with its generators in reverse order (McMullen & Schulte,
    Abstract Regular Polytopes, 2002, section 2E), so the reversal of
    {K, L}'s presentation presents {L*, K*}."""
    r = pres.rank
    return Presentation(r, tuple(tuple(r - 1 - g for g in rel) for rel in pres.relators))


def canonical_relator(word: Word) -> Word:
    """The least rotation of the word or of its reverse.  Over involutory
    generators the reverse is the inverse, and a rotation a conjugate, so
    they all have the same normal closure.  For word = u^k it is the least
    of `cyclic_forms` to the power k, since powers of words of one length
    compare as the words do."""
    forms, k = cyclic_forms(tuple(word))
    return min(forms) * k


def presentation_key(pres: Presentation):
    """The rank and the set of canonical relators: presentations with the
    same key present the same group on the same generators."""
    return pres.rank, frozenset(map(canonical_relator, normalize_relators(pres.relators)))


@dataclass
class UniversalResult:
    spec: AmalgamSpec
    outcome: str  # exists | collapsed | not-polytopal | exceeded-limit
    group: MarkedGroup | None = None
    facet_subgroup_order: int | None = None
    vfig_subgroup_order: int | None = None
    collapse_detail: str | None = None
    cosets_defined: int | None = None
    order_reconstructed: int | None = None  # stretch path: index x facet order
    # the facts the outcome is rendered from (see `_render`): `identify`'s
    # name of each collapsed parabolic, and the intersection condition,
    # evaluated only when neither collapsed
    facet_collapse_name: str | None = None
    vfig_collapse_name: str | None = None
    intersection: bool | None = None
    _polytope: Polytope | None = None

    @property
    def order(self) -> int | None:
        return self.group.order if self.group is not None else None

    def polytope(self) -> Polytope:
        if self.outcome != EXISTS:
            raise ValueError(f"no universal polytope: outcome is {self.outcome}")
        if self._polytope is None:
            self._polytope = polytope_from_group(self.group)
        return self._polytope


def build_universal(spec: AmalgamSpec, max_cosets: int = DEFAULT_MAX_COSETS) -> UniversalResult:
    """Build the amalgam group and classify the outcome.

    `collapsed` when a parabolic subgroup is a proper quotient of the
    prescribed facet or vertex-figure group; `not-polytopal` when the
    parabolics are full but the intersection condition fails.

    The group is lifted once from its actions on the cosets of both rank-3
    parabolics, facet and vertex figure, side by side (see
    `coset.lift_from_parabolics`).  The amalgam's relators contain those of
    the prescribed groups F, so each parabolic is a quotient of its F and
    the group has at most d*|F| elements, d the index; an orbit of the least
    such bound proves the union action faithful, its tuple a base and that
    parabolic uncollapsed.  The other parabolic's order is read off the
    group, as is every order when the trivial subgroup is enumerated instead
    because the certificate fails, or for the amalgams in TRIVIAL_ROUTE.
    Both routes number the elements in the same order on every Table 1 case
    and every closed pair of catalog entries, and so does the third route,
    a dual case's group derived from its partner's in `classify_table1`;
    the tests check all three.

    `max_cosets` bounds every enumeration, and also the lifted order: the
    group is lifted only when the least d*|F| is within it and within the
    order limit, so each parabolic's enumeration stops at the lesser of the
    two.  A lifted group must satisfy every relator, else RelatorMismatch,
    as in `perm_rep`.  `cosets_defined` is the sum over the enumerations
    run.  `exceeded-limit` when the trivial enumeration needs more than
    `max_cosets` cosets.  A catalog entry over the order limit is refused
    first, with BoundExceeded: its partner is a hosohedron or dihedron, and
    the universal a Coxeter group, D_p x D_r or [2,p,2], over the limit too.
    """
    spec.facet.require_order_limit()
    spec.vfig.require_order_limit()
    pres = amalgam_presentation(spec)
    g, defined = None, 0
    if spec.name not in TRIVIAL_ROUTE:
        g, defined = lift_from_parabolics(
            pres, [((0, 1, 2), spec.facet.expected_order), ((1, 2, 3), spec.vfig.expected_order)],
            max_cosets)
    if g is None:
        table = coset_enumeration(pres, max_cosets=max_cosets)
        defined += table.cosets_defined
        if table.status == EXCEEDED:
            return UniversalResult(spec, EXCEEDED, cosets_defined=defined)
        g = perm_rep(table)
    return _classify(spec, g, defined)


def _classify(spec: AmalgamSpec, g: MarkedGroup, defined: int) -> UniversalResult:
    """The facts for the amalgam's group g, rendered by `_render`: its
    parabolic orders, the name of each parabolic that collapsed below its
    prescribed order, and the intersection condition when neither did."""
    facet_order = g.parabolic([0, 1, 2]).order
    vfig_order = g.parabolic([1, 2, 3]).order
    res = UniversalResult(spec, EXISTS, g, facet_order, vfig_order, cosets_defined=defined)
    if facet_order < spec.facet.expected_order:
        res.facet_collapse_name = _parabolic_name(g, (0, 1, 2))
    if vfig_order < spec.vfig.expected_order:
        res.vfig_collapse_name = _parabolic_name(g, (1, 2, 3))
    if res.facet_collapse_name is None and res.vfig_collapse_name is None:
        res.intersection = intersection_condition(g)
    return _render(res)


def _render(res: UniversalResult) -> UniversalResult:
    """Set the outcome and `collapse_detail` of res, built as exists, from
    its facts: collapsed when a parabolic has a collapse name, else
    not-polytopal when the intersection condition fails."""
    spec = res.spec
    detail = []
    if res.facet_collapse_name is not None:
        detail.append(
            f"facet subgroup collapsed to order {res.facet_subgroup_order} "
            f"({res.facet_collapse_name}), expected {spec.facet.expected_order} ({spec.facet.name})")
    if res.vfig_collapse_name is not None:
        detail.append(
            f"vertex-figure subgroup collapsed to order {res.vfig_subgroup_order} "
            f"({res.vfig_collapse_name}), expected {spec.vfig.expected_order} ({spec.vfig.name})")
    if detail:
        res.outcome, res.collapse_detail = COLLAPSED, "; ".join(detail)
    elif not res.intersection:
        res.outcome = NOT_POLYTOPAL
        res.collapse_detail = "parabolic orders match but the intersection condition fails"
    return res


def _parabolic_name(g: MarkedGroup, idx) -> str:
    """Identify the polytope of a rank-3 parabolic subgroup, if it is one."""
    h = g.parabolic_group(idx)
    try:
        return catalog.identify(polytope_from_group(h))
    except ValueError:
        return f"a group of order {h.order}"


# ---------------------------------------------------------------------------
# the 22-case table


@dataclass(frozen=True)
class CaseSpec:
    number: int
    facet_name: str
    vfig_name: str

    def amalgam(self) -> AmalgamSpec:
        return AmalgamSpec(catalog.entry_by_name(self.facet_name), catalog.entry_by_name(self.vfig_name))


TABLE1: list[CaseSpec] = [
    CaseSpec(1, "tetrahedron", "hemicross"),
    CaseSpec(2, "tetrahedron", "hemi-icosahedron"),
    CaseSpec(3, "octahedron", "hemicube"),
    CaseSpec(4, "hemicross", "hemicube"),
    CaseSpec(5, "hemicross", "cube"),
    CaseSpec(6, "icosahedron", "hemidodecahedron"),
    CaseSpec(7, "hemi-icosahedron", "hemidodecahedron"),
    CaseSpec(8, "hemi-icosahedron", "dodecahedron"),
    CaseSpec(9, "hemicube", "tetrahedron"),
    CaseSpec(10, "cube", "hemicross"),
    CaseSpec(11, "hemicube", "hemicross"),
    CaseSpec(12, "hemicube", "octahedron"),
    CaseSpec(13, "cube", "hemi-icosahedron"),
    CaseSpec(14, "hemicube", "hemi-icosahedron"),
    CaseSpec(15, "hemicube", "icosahedron"),
    CaseSpec(16, "hemidodecahedron", "tetrahedron"),
    CaseSpec(17, "dodecahedron", "hemicross"),
    CaseSpec(18, "hemidodecahedron", "hemicross"),
    CaseSpec(19, "hemidodecahedron", "octahedron"),
    CaseSpec(20, "dodecahedron", "hemi-icosahedron"),
    CaseSpec(21, "hemidodecahedron", "hemi-icosahedron"),
    CaseSpec(22, "hemidodecahedron", "icosahedron"),
]

# cases whose enumeration over the trivial subgroup is far beyond desk scale
LARGE_CASES = (20, 22)


def case_spec(number: int) -> CaseSpec:
    return TABLE1[number - 1]


def reversal_partners() -> dict[int, int | None]:
    """Each Table 1 case's dual partner, or None: the first earlier case
    whose `presentation_key` is that of the case's `reversed_presentation`."""
    first_with_key, partners = {}, {}
    for case in TABLE1:
        pres = amalgam_presentation(case.amalgam())
        partners[case.number] = first_with_key.get(presentation_key(reversed_presentation(pres)))
        first_with_key.setdefault(presentation_key(pres), case.number)
    return partners


def classify_table1(max_cosets: int = DEFAULT_MAX_COSETS,
                    stretch: bool = False) -> dict[int, UniversalResult]:
    """One UniversalResult per Table 1 case.

    A case with a reversal partner (see `reversal_partners`) is its dual,
    and its result is derived from the partner's by `derive_reversed`, not
    built; a partner that gives nothing to derive from leaves the case to its
    own route.
    Cases 20 and 22 exceed any desk-scale trivial-subgroup enumeration; they
    are reported as exceeded-limit without burning the full coset budget.
    With stretch=True case 20 is enumerated over its facet subgroup (see
    `build_universal_over_facet`), and case 22 is derived from it when that
    run finds the polytope; its own facet-subgroup index, 600,415,200 / 60 =
    10,006,920, is over STRETCH_MAX_COSETS.  `max_cosets`, the run's
    `RunConfig.max_cosets`, bounds every enumeration, case 20's included.
    `table1` and verify's Workspace read every case from here; `build`,
    `quotients` and `export` build their pair with `build_universal`.
    """
    out: dict[int, UniversalResult] = {}
    partners = reversal_partners()
    for case in TABLE1:
        spec = case.amalgam()
        partner = partners[case.number]
        derived = derive_reversed(spec, out[partner]) if partner is not None else None
        if derived is not None:
            out[case.number] = derived
        elif case.number == 20 and stretch:
            out[case.number] = build_universal_over_facet(case, max_cosets=max_cosets)
        elif case.number in LARGE_CASES:
            out[case.number] = UniversalResult(spec, EXCEEDED, cosets_defined=0)
        else:
            out[case.number] = build_universal(spec, max_cosets=max_cosets)
    return out


def derive_reversed(spec: AmalgamSpec, partner: UniversalResult) -> UniversalResult | None:
    """The result for `spec` from that of a partner whose presentation is
    the reversal of spec's, with no second classification; None when the
    partner has neither a group nor an order from the facet-coset path.

    Reversing the generators is duality: it swaps the facet and
    vertex-figure parabolics and takes each to its dual (McMullen & Schulte,
    Abstract Regular Polytopes, 2002, section 2E), and it keeps the
    intersection condition, whose parabolic pairs it permutes.  Every
    catalog entry's extra relators use all three of its generators, so the
    relators on s_0, s_1, s_2 are the prescribed facet's, and spec's facet
    presents the partner's vertex figure reversed: the prescribed orders
    swap too.  So the parabolic orders are the partner's swapped, each
    collapse name is the `catalog.identified_dual` of the partner's other
    one, the intersection condition carries over, and `_render`, which
    renders built cases too, gives the outcome and detail.  The group is the partner's with its
    generators reversed, rebuilt by `regular_from_action` from the partner's
    regular action on the one-point base (0,) with no enumeration
    (`cosets_defined` is 0); it numbers the elements by words alone, so its
    generator permutations are those of `build_universal(spec)`.  A
    facet-coset result keeps its outcome and order, with the two parabolic
    orders swapped.
    """
    if partner.group is not None:
        g = partner.group
        facet_name, vfig_name = (name and identified_dual(name) for name in
                                 (partner.vfig_collapse_name, partner.facet_collapse_name))
        return _render(UniversalResult(
            spec, EXISTS, regular_from_action(g.gens[::-1], g.order),
            partner.vfig_subgroup_order, partner.facet_subgroup_order, cosets_defined=0,
            facet_collapse_name=facet_name, vfig_collapse_name=vfig_name,
            intersection=partner.intersection))
    if partner.outcome == EXISTS and partner.order_reconstructed is not None:
        return UniversalResult(spec, EXISTS, None, partner.vfig_subgroup_order,
                               partner.facet_subgroup_order, cosets_defined=0,
                               order_reconstructed=partner.order_reconstructed)
    return None


def build_universal_over_facet(case: CaseSpec, max_cosets: int) -> UniversalResult:
    """Enumerate a large case over its facet subgroup (cosets = facets).

    The group order is index times the facet group order.  That needs the
    coset action to be faithful; since the action's kernel is the core of the
    facet parabolic, faithfulness holds exactly when the facet group's words
    act pairwise distinctly on the cosets, which also certifies that the
    parabolic is uncollapsed.  When the words are not pairwise distinct the
    method cannot tell collapse from an unfaithful action and the outcome is
    reported as `inconclusive` rather than guessed.  An enumeration over
    `max_cosets`, which every caller sets, reports exceeded-limit.
    """
    spec = case.amalgam()
    pres = amalgam_presentation(spec)
    table = coset_enumeration(pres, subgroup_words=[(0,), (1,), (2,)], max_cosets=max_cosets)
    if table.status == EXCEEDED:
        return UniversalResult(spec, EXCEEDED, cosets_defined=table.cosets_defined)
    facet_group = spec.facet.group()
    vfig_group = spec.vfig.group()
    cols = [table.column(x) for x in range(4)]
    res = UniversalResult(spec, EXISTS, None, None, None, cosets_defined=table.cosets_defined)
    distinct_f = _distinct_action_count(cols, _element_words(facet_group))
    res.facet_subgroup_order = distinct_f
    if distinct_f < facet_group.order:
        res.outcome = INCONCLUSIVE
        res.collapse_detail = (
            f"only {distinct_f} of {facet_group.order} facet words act distinctly: "
            "parabolic collapse and unfaithful action are indistinguishable here")
        return res
    # faithful action established; every parabolic order is now measured exactly
    vfig_words = [tuple(x + 1 for x in w) for w in _element_words(vfig_group)]
    distinct_v = _distinct_action_count(cols, vfig_words)
    res.vfig_subgroup_order = distinct_v
    if distinct_v < vfig_group.order:
        res.outcome = COLLAPSED
        res.collapse_detail = (
            f"vertex-figure subgroup collapsed to order {distinct_v}, "
            f"expected {vfig_group.order} ({spec.vfig.name})")
        return res
    res.order_reconstructed = table.n_cosets * facet_group.order
    return res


def _element_words(g: MarkedGroup) -> list[tuple[int, ...]]:
    """A word in the distinguished generators for every element, by BFS on
    the regular action: x times generator i is gens[i][x], read with no table."""
    words = {0: ()}
    queue = [0]
    while queue:
        nxt = []
        for x in queue:
            for i, s in enumerate(g.gens):
                y = int(s[x])
                if y not in words:
                    words[y] = words[x] + (i,)
                    nxt.append(y)
        queue = nxt
    return [words[i] for i in range(g.order)]


def _trace_points(cols, word, points):
    out = np.asarray(points, dtype=np.int32)
    for x in word:
        out = cols[x][out].astype(np.int32, copy=False)
    return out


def _distinct_action_count(cols, words) -> int:
    """Number of distinct permutations the words of a group F's elements
    induce on the cosets.

    The amalgam's relators contain F's, so the words induce a homomorphism
    F -> Sym(cosets), and the distinct actions number |F| divided by its
    kernel, the words fixing every coset.  Each word is traced on a probe
    prefix of PROBE cosets, and on every coset only if it fixes the prefix.
    """
    n = len(cols[0])
    prefix = np.arange(min(PROBE, n), dtype=np.int32)
    allpts = np.arange(n, dtype=np.int32)
    kernel = sum(1 for w in words
                 if np.array_equal(_trace_points(cols, w, prefix), prefix)
                 and np.array_equal(_trace_points(cols, w, allpts), allpts))
    return len(words) // kernel


# ---------------------------------------------------------------------------
# twisting construction


def twisted_over(entry: CatalogEntry) -> MarkedGroup:
    """Group 2^v ⋊ Γ(K) for a rank-3 entry K with v vertices, as its regular
    action.

    Γ(K) acts by conjugation on the generators of 2^v exactly as on the
    vertices of K.  Distinguished generators: the coordinate flip at the base
    vertex (the vertex of flag 0), followed by the generators of Γ(K).  The
    points are the pairs (x, w), x a set of vertices (a v-bit mask) and w an
    element of Γ(K), numbered x*|Γ(K)| + w: s0 flips w's vertex in x, and
    Γ(K)'s generators right-multiply w.  The flips at w's vertex, conjugated
    by Γ(K), are the flips at each vertex, one for each coset of the vertex
    stabiliser <s1,s2>, so the group has 2^v*|Γ(K)| elements and acts
    regularly.  A domain larger than the order limit raises BoundExceeded
    before anything is built.
    """
    if entry.symbol.rank != 3:
        raise ValueError("twisting needs a rank-3 entry")
    g = entry.group()
    p = entry.polytope()
    vertex_of_flag = p.face_of_flag[:, 0]
    m = g.order
    degree = m << p.counts[0]
    if degree > DEFAULT_ORDER_LIMIT:
        raise BoundExceeded(
            f"2^{p.counts[0]}*{m} points exceed enumeration limit {DEFAULT_ORDER_LIMIT}")
    x, w = np.divmod(np.arange(degree), m)
    gens = [(x ^ (1 << vertex_of_flag[w])) * m + w]
    gens += [x * m + s[w] for s in g.gens]
    return MarkedGroup(degree, gens)
