import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from polyquot import amalgam, coset, permgroups, polytopes
from polyquot.amalgam import (COLLAPSED, EXISTS, INCONCLUSIVE, LARGE_CASES, NOT_POLYTOPAL,
                              AmalgamSpec, CaseSpec, TABLE1, UniversalResult,
                              amalgam_presentation, build_universal,
                              build_universal_over_facet, canonical_relator, case_spec,
                              classify_table1, derive_reversed, presentation_key,
                              reversal_partners, reversed_presentation, twisted_over)
from polyquot.catalog import entry_by_name, petrie_relator, rank3_catalog
from polyquot.coset import (EXCEEDED, _interleaved_union, broken_relator, coset_enumeration,
                            lift_from_parabolics, perm_rep)
from polyquot.permgroups import DEFAULT_ORDER_LIMIT, regular_from_action
from polyquot.polytopes import are_isomorphic, dual, polytope_from_group
from polyquot.presentations import power_word

from oracles import least_cyclic_form


def test_spec_validation():
    with pytest.raises(ValueError, match="incompatible"):
        AmalgamSpec(entry_by_name("cube"), entry_by_name("cube"))
    spec = AmalgamSpec(entry_by_name("cube"), entry_by_name("hemicross"))
    assert spec.type_symbol.entries == (4, 3, 4)


def test_presentation_case10():
    pres = amalgam_presentation(case_spec(10).amalgam())
    assert pres.rank == 4
    # one extra relator: the vertex figure's, shifted onto (s1,s2,s3)
    assert power_word((1, 2, 3), 3) in pres.relators
    assert petrie_relator(3) not in pres.relators


def test_presentation_eleven_cell():
    pres = amalgam_presentation(case_spec(7).amalgam())
    assert power_word((0, 1, 2), 5) in pres.relators
    assert power_word((1, 2, 3), 5) in pres.relators


def test_presentation_spherical_pair_is_plain_coxeter():
    spec = AmalgamSpec(entry_by_name("cube"), entry_by_name("octahedron"))
    pres = amalgam_presentation(spec)
    from polyquot.catalog import SchlafliSymbol, coxeter_presentation
    assert set(pres.relators) == set(coxeter_presentation(SchlafliSymbol((4, 3, 4))).relators)


def test_case7_exists(ws):
    r = ws.universal(7)
    assert r.outcome == EXISTS
    assert r.order == 660
    assert r.facet_subgroup_order == 60 and r.vfig_subgroup_order == 60


def test_case8_collapses_to_eleven_cell(ws):
    r = ws.universal(8)
    assert r.outcome == COLLAPSED
    assert r.vfig_subgroup_order == 60  # hemidodecahedron, not dodecahedron
    assert "hemidodecahedron" in r.collapse_detail
    assert r.order == 660
    # the closed group is the 11-cell's: same polytope as case 7
    assert are_isomorphic(polytope_from_group(r.group), ws.universal(7).polytope())


def test_case6_also_lands_on_the_eleven_cell(ws):
    r = ws.universal(6)
    assert r.outcome == COLLAPSED
    assert are_isomorphic(polytope_from_group(r.group), ws.universal(7).polytope())


def test_case13_exists(ws):
    r = ws.universal(13)
    assert r.outcome == EXISTS
    assert r.order == 2**6 * 60 == 3840
    p = r.polytope()
    assert p.counts[-1] == 80 and p.counts[0] == 64


def test_classify_table1_desk_scale(ws):
    results = classify_table1()
    for case in (1, 2, 3, 4, 5, 6, 8, 9, 14, 15, 16, 17, 18):
        assert results[case].outcome == COLLAPSED, case
    assert results[7].order == 660
    assert results[10].order == 192
    assert results[11].order == 96
    assert results[12].order == 192
    assert results[13].order == 3840
    assert results[19].order == 3840
    assert results[21].order == 3420
    for case in (20, 22):
        assert results[case].outcome == EXCEEDED
    # finiteness at implemented scale: every desk case closes
    for case in list(range(1, 20)) + [21]:
        assert results[case].outcome != EXCEEDED


def test_classify_table1_builds_no_multiplication_table():
    """Table 1 needs only the orders, the parabolics and the intersection
    condition, which come from the generator permutations."""
    results = classify_table1()
    groups = [r.group for r in results.values() if r.group is not None]
    assert len(groups) == 20
    assert all(g._rmul is None for g in groups)


def test_build_universal_memory():
    """Case 13's group has 3840 elements: its table alone would take 29 MB."""
    spec = case_spec(13).amalgam()
    tracemalloc.start()
    try:
        res = build_universal(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.order == 3840
    assert peak < 4 * 2**20


def test_table1_dual_references():
    partners = {n: p for n, p in reversal_partners().items() if p is not None}
    assert partners == {5: 3, 8: 6, 9: 1, 12: 10, 16: 2, 17: 15, 18: 14, 19: 13, 22: 20}


def test_dual_pair_10_12(ws):
    p10 = ws.universal(10).polytope()
    p12 = ws.universal(12).polytope()
    assert are_isomorphic(dual(p10), p12)


def test_dual_pair_13_19(ws):
    p13 = ws.universal(13).polytope()
    p19 = ws.universal(19).polytope()
    assert are_isomorphic(dual(p13), p19)


def test_twisted_hemicross(ws):
    tg = twisted_over(entry_by_name("hemicross"))
    assert tg.order == 2**3 * 24 == 192
    assert are_isomorphic(polytope_from_group(tg), ws.universal(10).polytope())


def test_twisted_hemi_icosahedron():
    tg = twisted_over(entry_by_name("hemi-icosahedron"))
    assert tg.order == 2**6 * 60


def test_twisted_needs_rank3():
    from polyquot.catalog import CatalogEntry, SchlafliSymbol

    rank4 = CatalogEntry("fake", SchlafliSymbol((4, 3, 3)), (), 384, "spherical", "fake")
    with pytest.raises(ValueError):
        twisted_over(rank4)


def test_collapse_monotone_under_budget(ws):
    # once closed, a collapsed case stays collapsed with a bigger budget
    spec = case_spec(8).amalgam()
    r1 = build_universal(spec, max_cosets=10**5)
    r2 = build_universal(spec, max_cosets=10**6)
    assert r1.outcome == r2.outcome == COLLAPSED
    assert r1.order == r2.order


def test_exceeded_limit_reported():
    spec = case_spec(13).amalgam()
    r = build_universal(spec, max_cosets=100)
    assert r.outcome == EXCEEDED
    assert r.group is None


def test_facet_and_vfig_sections_match_prescription(ws):
    from polyquot.polytopes import section

    for case in (7, 10, 11, 13):
        r = ws.universal(case)
        spec = r.spec
        p = r.polytope()
        facet = section(p, (3, 0), None)
        assert are_isomorphic(facet, spec.facet.polytope())
        vfig = section(p, None, (0, 0))
        assert are_isomorphic(vfig, spec.vfig.polytope())


def test_facet_coset_path_on_faithful_small_case():
    # case 7 over its facet subgroup: 11 cosets, simple group, faithful action
    res = build_universal_over_facet(case_spec(7), max_cosets=10**4)
    assert res.outcome == EXISTS
    assert res.order_reconstructed == res.order == 11 * 60 == 660
    assert res.facet_subgroup_order == 60 and res.vfig_subgroup_order == 60
    assert res.intersection is True and res.collapse_detail is None


def test_facet_coset_path_reports_inconclusive_when_unfaithful():
    # case 10's facet parabolic has a big core: the method must not guess
    res = build_universal_over_facet(case_spec(10), max_cosets=10**4)
    assert res.outcome == INCONCLUSIVE
    assert res.order_reconstructed is None
    assert res.facet_subgroup_order == 6  # 48 facet words over a kernel of 8


def test_facet_coset_path_detects_vfig_collapse():
    # case 8 = {3,5}_5 facets with {5,3} prescribed: over the facet subgroup
    # the action is faithful (the 11-cell group is simple) and the collapse of
    # the vertex figure to the hemidodecahedron is certified exactly
    res = build_universal_over_facet(case_spec(8), max_cosets=10**4)
    assert res.outcome == COLLAPSED
    assert res.vfig_subgroup_order == 60 and res.intersection is None
    assert res.collapse_detail == ("vertex-figure subgroup collapsed to order 60 "
                                   "(a group of order 60), expected 120 (dodecahedron)")


@pytest.mark.parametrize("n, swaps, outcome, intersection", [
    # the simplex {3,3,3}, S5 on its 5 facets: F fixes coset 0, and 6 of V's
    # 24 words fix it, |<s1,s2>| = 6
    (5, [(1, 2), (2, 3), (3, 4), (4, 0)], EXISTS, True),
    # no catalog pair fails the check, so a fake table adds a coset 0 that
    # every generator fixes, as though V lay in F: F and V still act
    # faithfully, and all 24 of V's words fix coset 0
    (6, [(1, 2), (2, 3), (3, 4), (4, 5)], NOT_POLYTOPAL, False),
])
def test_facet_coset_path_checks_the_intersection_condition(monkeypatch, n, swaps, outcome,
                                                            intersection):
    cols = []
    for a, b in swaps:
        col = np.arange(n)
        col[[a, b]] = b, a
        cols.append(col)
    table = SimpleNamespace(status=coset.CLOSED, cosets_defined=n, n_cosets=n,
                            column=cols.__getitem__)
    monkeypatch.setattr(amalgam, "coset_enumeration",
                        lambda pres, subgroup, max_cosets: table)
    res = build_universal_over_facet(CaseSpec(0, "tetrahedron", "tetrahedron"), max_cosets=10)
    assert (res.outcome, res.intersection, res.order) == (outcome, intersection, n * 24)
    assert (res.facet_subgroup_order, res.vfig_subgroup_order) == (24, 24)
    assert res.collapse_detail == (None if intersection else
                                   "parabolic orders match but the intersection condition fails")


def test_facet_coset_path_agrees_with_build_universal_on_catalog_pairs():
    # every pair whose facet parabolic acts faithfully on few enough cosets:
    # the intersection condition from the words fixing coset 0 is the one
    # `build_universal` checks on the whole group
    entries = rank3_catalog(degenerate=True)
    pairs = [(f, v) for f in entries for v in entries
             if f.symbol.entries[1] == v.symbol.entries[0]]
    checked = []
    for f, v in pairs:
        res = build_universal_over_facet(CaseSpec(0, f.name, v.name), max_cosets=10**4)
        if res.outcome in (EXCEEDED, INCONCLUSIVE):
            continue
        built = build_universal(AmalgamSpec(f, v))
        assert (res.outcome, res.intersection, res.order) == (
            built.outcome, built.intersection, built.order), (f.name, v.name)
        assert (res.facet_subgroup_order, res.vfig_subgroup_order) == (
            built.facet_subgroup_order, built.vfig_subgroup_order), (f.name, v.name)
        if res.intersection is not None:
            checked.append((f.name, v.name))
    assert len(pairs) == 91 and len(checked) == 10
    assert {("hemi-icosahedron", "hemidodecahedron"), ("cube", "hemi-icosahedron"),
            ("hemidodecahedron", "octahedron"),
            ("hemidodecahedron", "hemi-icosahedron")} <= set(checked)  # cases 7, 13, 19, 21


def test_not_polytopal_facet_coset_partner_derives_a_not_polytopal_dual():
    partner = UniversalResult(case_spec(20).amalgam(), NOT_POLYTOPAL, None, 120, 60,
                              order_reconstructed=600415200, intersection=False)
    r = derive_reversed(case_spec(22).amalgam(), partner)
    assert (r.outcome, r.order, r.group, r.cosets_defined) == (NOT_POLYTOPAL, 600415200, None, 0)
    assert (r.facet_subgroup_order, r.vfig_subgroup_order, r.intersection) == (60, 120, False)
    assert r.collapse_detail == "parabolic orders match but the intersection condition fails"


@pytest.mark.parametrize("name", ["dodecahedron", "hemi-icosahedron"])
def test_element_words_read_the_generators_and_build_no_table(monkeypatch, name):
    from polyquot import catalog

    monkeypatch.setattr(catalog, "_GROUPS", {})
    g = entry_by_name(name).group()
    words = amalgam._element_words(g)
    assert g._rmul is None and len(words) == g.order
    for j, w in enumerate(words):
        x = 0
        for i in w:
            x = g.gens[i][x]
        assert x == j


def test_stretch_case22_exceeds_budget():
    res = build_universal_over_facet(case_spec(22), max_cosets=10**4)
    assert res.outcome == EXCEEDED


def test_stretch_table1_enumerates_only_case20_over_its_facet(monkeypatch):
    # case 22 is never enumerated: it is derived from case 20, and an
    # exceeded case 20 leaves nothing to derive, so case 22 is exceeded too
    over_facet = []

    def fake_enumeration(pres, subgroup=(), max_cosets=0):
        over_facet.append(pres)
        return SimpleNamespace(status=EXCEEDED, cosets_defined=0)

    monkeypatch.setattr(amalgam, "coset_enumeration", fake_enumeration)
    monkeypatch.setattr(amalgam, "build_universal",
                        lambda spec, max_cosets: amalgam.UniversalResult(spec, EXISTS))
    results = classify_table1(stretch=True)
    assert over_facet == [amalgam_presentation(case_spec(20).amalgam())]
    assert results[22].outcome == EXCEEDED and results[22].cosets_defined == 0


def test_stretch_table1_derives_case22_from_an_existing_case20(monkeypatch):
    case20 = amalgam.UniversalResult(case_spec(20).amalgam(), EXISTS, None, 120, 60,
                                     cosets_defined=5003460, order_reconstructed=600415200,
                                     intersection=True)
    monkeypatch.setattr(amalgam, "build_universal_over_facet", lambda case, max_cosets: case20)
    monkeypatch.setattr(amalgam, "build_universal",
                        lambda spec, max_cosets: amalgam.UniversalResult(spec, EXISTS))
    r = classify_table1(stretch=True)[22]
    assert r.spec == case_spec(22).amalgam() and r.group is None
    assert (r.outcome, r.order, r.cosets_defined) == (EXISTS, 600415200, 0)
    assert (r.facet_subgroup_order, r.vfig_subgroup_order, r.intersection) == (60, 120, True)


def test_polytope_of_a_result_without_a_group_is_refused():
    # case 20 from the facet-coset path, and case 22 derived from it, exist
    # with an order but no group
    case20 = UniversalResult(case_spec(20).amalgam(), EXISTS, None, 120, 60,
                             order_reconstructed=600415200, intersection=True)
    case22 = derive_reversed(case_spec(22).amalgam(), case20)
    for res in (case20, case22):
        assert (res.outcome, res.group, res.order) == (EXISTS, None, 600415200)
        with pytest.raises(ValueError, match="the result holds no group"):
            res.polytope()


# ---------------------------------------------------------------------------
# duality as the reversal of a presentation

REVERSAL_PAIRS = [(1, 9), (2, 16), (3, 5), (6, 8), (10, 12), (13, 19), (14, 18), (15, 17),
                  (20, 22)]
SELF_REVERSED = [4, 7, 11, 21]
DERIVED_CASES = [5, 8, 9, 12, 16, 17, 18, 19]


def test_canonical_relator():
    assert canonical_relator((1, 2, 0)) == (0, 1, 2)
    assert canonical_relator((0, 2, 1)) == (0, 1, 2)  # the reverse of a rotation
    assert canonical_relator((3, 2, 1) * 3) == (1, 2, 3) * 3
    assert canonical_relator((2, 0, 2, 0)) == (0, 2, 0, 2)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 3), max_size=6), st.integers(1, 5))
def test_canonical_relator_is_the_least_cyclic_form(period, k):
    word = tuple(period) * k
    assert canonical_relator(word) == least_cyclic_form(word)


def test_reversal_pairs_come_from_the_presentations():
    keys = {c.number: presentation_key(amalgam_presentation(c.amalgam())) for c in TABLE1}
    partners = {}
    for c in TABLE1:
        rev = presentation_key(reversed_presentation(amalgam_presentation(c.amalgam())))
        partners[c.number] = [n for n, k in keys.items() if k == rev]
    expected = {n: [n] for n in SELF_REVERSED}
    for a, b in REVERSAL_PAIRS:
        expected[a], expected[b] = [b], [a]
    assert partners == dict(sorted(expected.items()))


def test_reversal_is_an_involution():
    entries = rank3_catalog(degenerate=True)
    for pres in ([amalgam_presentation(c.amalgam()) for c in TABLE1]
                 + [e.presentation() for e in entries]):
        assert reversed_presentation(reversed_presentation(pres)) == pres
    # on rank 3 it takes each entry to its dual
    for e in entries:
        assert (presentation_key(reversed_presentation(e.presentation()))
                == presentation_key(entry_by_name(e.dual_name).presentation())), e.name


def test_extra_relators_use_every_generator():
    # so an amalgam's relators on s_0, s_1, s_2 are its facet's, and a
    # derived case's prescribed orders are its partner's swapped
    assert all(set(rel) == {0, 1, 2}
               for e in rank3_catalog(degenerate=True) for rel in e.extra_relators)


@pytest.fixture(scope="module")
def table1_results():
    return classify_table1()


@pytest.mark.parametrize("case", DERIVED_CASES)
def test_derived_case_equals_a_built_one(table1_results, case):
    spec = case_spec(case).amalgam()
    derived, built = table1_results[case], build_universal(spec)
    assert derived.cosets_defined == 0
    assert (derived.outcome, derived.order) == (built.outcome, built.order)
    assert derived.facet_subgroup_order == built.facet_subgroup_order
    assert derived.vfig_subgroup_order == built.vfig_subgroup_order
    assert derived.collapse_detail == built.collapse_detail
    assert _same_gens(derived.group, built.group)
    assert broken_relator(derived.group.gens, amalgam_presentation(spec).relators) is None


def test_classify_table1_enumerates_only_the_cases_it_builds(monkeypatch):
    calls = _enumerated_subgroups(monkeypatch)
    checked = []
    real = permgroups._bfs_tree

    def spy(perms, n):
        checked.append(perms)
        return real(perms, n)

    monkeypatch.setattr(permgroups, "_bfs_tree", spy)
    results = classify_table1()
    assert len(calls) == 26
    # the regularity check runs only on the trivial-subgroup route's groups
    assert len(checked) == 4
    assert all(p is results[c].group.gens for p, c in zip(checked, (2, 3, 4, 11)))


def test_classify_table1_classifies_no_derived_group(monkeypatch):
    # a derived case's orders, names and outcome come from its partner's facts
    seen = []

    def spy(module, name):
        real = getattr(module, name)

        def wrapper(g, *args):
            seen.append(g)
            return real(g, *args)
        monkeypatch.setattr(module, name, wrapper)

    spy(permgroups.MarkedGroup, "parabolic")
    spy(amalgam, "intersection_condition")
    spy(polytopes, "intersection_condition")
    spy(amalgam, "_parabolic_name")
    results = classify_table1()
    derived = [results[c].group for c in DERIVED_CASES]
    assert all(g is not None for g in derived)
    assert not any(g is h for g in seen for h in derived)
    # the spies see the built cases' groups
    assert all(any(g is results[c].group for g in seen) for c in (6, 10, 13))


# ---------------------------------------------------------------------------
# the group lifted from both parabolics' coset actions side by side


def _trivial_subgroup_group(spec):
    """The ground truth: the regular action read off the trivial subgroup's
    coset table."""
    return perm_rep(coset_enumeration(amalgam_presentation(spec), max_cosets=DEFAULT_ORDER_LIMIT))


def _same_gens(g, h):
    return len(g.gens) == len(h.gens) and all(np.array_equal(a, b) for a, b in zip(g.gens, h.gens))


def _enumerated_subgroups(monkeypatch):
    """Record the subgroup generators of every enumeration build_universal runs:
    the parabolics' in `lift_from_parabolics`, the trivial subgroup's here."""
    calls = []
    real = coset.coset_enumeration

    def spy(pres, subgroup=(), **kwargs):
        calls.append(tuple(subgroup))
        return real(pres, subgroup, **kwargs)

    monkeypatch.setattr(coset, "coset_enumeration", spy)
    monkeypatch.setattr(amalgam, "coset_enumeration", spy)
    return calls


@pytest.mark.parametrize("case", [c.number for c in TABLE1 if c.number not in LARGE_CASES])
def test_built_group_is_the_trivial_subgroup_table(ws, case):
    assert _same_gens(ws.universal(case).group, _trivial_subgroup_group(case_spec(case).amalgam()))


def test_built_group_is_the_trivial_subgroup_table_on_catalog_pairs(monkeypatch):
    calls = _enumerated_subgroups(monkeypatch)
    entries = rank3_catalog(degenerate=True)
    closed = lifted = 0
    for k in entries:
        for v in entries:
            if k.symbol.entries[1] != v.symbol.entries[0]:
                continue
            spec = AmalgamSpec(k, v)
            table = coset_enumeration(amalgam_presentation(spec), max_cosets=DEFAULT_ORDER_LIMIT)
            if table.status == EXCEEDED:
                continue
            closed += 1
            calls.clear()
            assert _same_gens(build_universal(spec).group, perm_rep(table)), spec.name
            lifted += () not in calls
    assert (closed, lifted) == (84, 52)


def test_lift_refuses_a_parabolic_with_a_core():
    # case 10's facet parabolic has a kernel of 8 on its 4 cosets
    spec = case_spec(10).amalgam()
    table = coset_enumeration(amalgam_presentation(spec), (0, 1, 2))
    assert table.n_cosets == 4
    cols = [table.column(x) for x in range(4)]
    assert regular_from_action(cols, table.n_cosets * spec.facet.expected_order) is None


def test_lift_refuses_a_tuple_that_is_no_base(monkeypatch):
    # case 7 acts faithfully on its 11 facets, but one facet's orbit is 11 points
    spec = case_spec(7).amalgam()
    table = coset_enumeration(amalgam_presentation(spec), (0, 1, 2))
    cols = [table.column(x) for x in range(4)]
    assert regular_from_action(cols, 600) is None  # an orbit larger than `order`
    assert regular_from_action(cols, 660).order == 660
    monkeypatch.setattr(permgroups, "_base_length", lambda d: 1)
    assert regular_from_action(cols, 660) is None


def test_short_orbit_falls_through_to_the_trivial_subgroup(monkeypatch):
    calls = _enumerated_subgroups(monkeypatch)
    monkeypatch.setattr(permgroups, "_base_length", lambda d: 1)
    spec = case_spec(7).amalgam()
    res = build_universal(spec)
    assert calls == [(0, 1, 2), (1, 2, 3), ()]
    assert res.outcome == EXISTS and res.cosets_defined == 11 + 11 + 660
    assert _same_gens(res.group, _trivial_subgroup_group(spec))


LIFTED_CASES = [1, 6, 7, 8, 9, 10, 12, 13, 14, 15, 17, 18, 19, 21]
TRIVIAL_CASES = [2, 3, 4, 5, 16]


@pytest.mark.parametrize("case", LIFTED_CASES)
def test_lifted_cases_enumerate_no_trivial_subgroup(monkeypatch, case):
    calls = _enumerated_subgroups(monkeypatch)
    res = build_universal(case_spec(case).amalgam())
    assert () not in calls and res.group is not None


@pytest.mark.parametrize("case", TRIVIAL_CASES)
def test_unlifted_cases_enumerate_the_trivial_subgroup(monkeypatch, case):
    calls = _enumerated_subgroups(monkeypatch)
    res = build_universal(case_spec(case).amalgam())
    assert calls == [(0, 1, 2), (1, 2, 3), ()] and res.group is not None


def test_case11_still_enumerates_the_trivial_subgroup(monkeypatch):
    # case 11 is in TRIVIAL_ROUTE: its build enumerates only the trivial
    # subgroup, though its parabolics would lift it
    calls = _enumerated_subgroups(monkeypatch)
    spec = case_spec(11).amalgam()
    assert spec.name in amalgam.TRIVIAL_ROUTE
    res = build_universal(spec)
    assert calls == [()]
    assert res.order == 96 and res.cosets_defined == 96


def test_case11_lifts_from_both_parabolics():
    # each parabolic of case 11 alone has a nontrivial core, 4 cosets and a
    # bound of 4 * 24 = 96; side by side the two actions are faithful
    spec = case_spec(11).amalgam()
    pres = amalgam_presentation(spec)
    g, defined = lift_from_parabolics(pres, [((0, 1, 2), 24), ((1, 2, 3), 24)])
    assert g.order == 96 and defined == 4 + 4
    assert _same_gens(g, _trivial_subgroup_group(spec))


def test_union_orbit_one_short_of_its_bound_is_refused():
    # case 11's union action on 4 + 4 cosets has an orbit of 96 tuples
    pres = amalgam_presentation(case_spec(11).amalgam())
    tables = [coset_enumeration(pres, idx) for idx in ((0, 1, 2), (1, 2, 3))]
    union = _interleaved_union(tables)
    assert regular_from_action(union, 96).order == 96
    assert regular_from_action(union, 97) is None
    # the same through the lift: a claimed |F| of 25 makes the bound 4 * 25 = 100
    assert lift_from_parabolics(pres, [((0, 1, 2), 25), ((1, 2, 3), 25)]) == (None, 8)


def test_interleaved_union_alternates_the_tables():
    pres = amalgam_presentation(case_spec(7).amalgam())
    facets = coset_enumeration(pres, (0, 1, 2))  # 11 cosets
    trivial = coset_enumeration(pres, (0, 1, 2, 3))  # 1 coset
    union = _interleaved_union([facets, trivial])
    # facet coset 0 is point 0, the one coset of the whole group point 1,
    # and facet coset i >= 1 point i + 1
    assert all(s[1] == 1 for s in union)
    for x, s in enumerate(union):
        assert np.array_equal(s[[0] + list(range(2, 12))],
                              [c if c == 0 else c + 1 for c in facets.column(x)])


def test_budget_bounds_the_lifted_order():
    # case 7's 660 elements are lifted from 11 + 11 cosets only when the
    # budget allows 660
    spec = case_spec(7).amalgam()
    assert build_universal(spec, max_cosets=660).cosets_defined == 11 + 11
    res = build_universal(spec, max_cosets=659)
    assert res.outcome == EXCEEDED and res.group is None
