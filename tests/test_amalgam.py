import tracemalloc
from types import SimpleNamespace

import pytest

from polyquot import amalgam
from polyquot.amalgam import (COLLAPSED, EXISTS, AmalgamSpec, TABLE1,
                              amalgam_presentation, build_universal,
                              build_universal_over_facet, case_spec,
                              classify_table1, twisted_over)
from polyquot.catalog import entry_by_name, petrie_relator
from polyquot.coset import EXCEEDED
from polyquot.polytopes import are_isomorphic, dual, polytope_from_group
from polyquot.presentations import power_word


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
    duals = {c.number: c.dual_of for c in TABLE1 if c.dual_of}
    assert duals == {9: 1, 12: 10, 16: 2, 17: 15, 18: 14, 19: 13, 22: 20}


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
    assert res.order_reconstructed == 11 * 60 == 660
    assert res.facet_subgroup_order == 60 and res.vfig_subgroup_order == 60


def test_facet_coset_path_reports_inconclusive_when_unfaithful():
    # case 10's facet parabolic has a big core: the method must not guess
    from polyquot.amalgam import INCONCLUSIVE

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
    assert res.vfig_subgroup_order == 60


def test_stretch_case22_exceeds_budget():
    res = build_universal_over_facet(case_spec(22), max_cosets=10**4)
    assert res.outcome == EXCEEDED


def test_stretch_table1_enumerates_only_case20_over_its_facet(monkeypatch):
    # case 22's facet-subgroup index (10,006,920) is over the stretch budget
    over_facet = []

    def fake_enumeration(pres, subgroup_words=(), max_cosets=0):
        over_facet.append(pres)
        return SimpleNamespace(status=EXCEEDED, cosets_defined=0)

    monkeypatch.setattr(amalgam, "coset_enumeration", fake_enumeration)
    monkeypatch.setattr(amalgam, "build_universal",
                        lambda spec, max_cosets: amalgam.UniversalResult(spec, EXISTS))
    results = classify_table1(stretch=True)
    assert over_facet == [amalgam_presentation(case_spec(20).amalgam())]
    assert results[22].outcome == EXCEEDED and results[22].cosets_defined == 0
