import json
from collections import Counter

import numpy as np
import pytest

from polyquot.amalgam import build_universal, case_spec, classify_table1
from polyquot.catalog import entry_by_name, identified_dual, identify, rank3_catalog
from polyquot.permgroups import (BoundExceeded, MarkedGroup, conjugates, enumerate_subgroups,
                                 enumerate_subgroups_within,
                                 product_set_intersect)
from polyquot.polytopes import (are_isomorphic, is_polytopal, is_regular,
                                polytope_from_group, section, section_profile)
from polyquot.quotients import (_defect, classify_quotients,
                                is_semisparse, is_semisparse_product_criterion,
                                quotient_candidate, quotient_lattice_dot,
                                quotient_polytope, semisparse_allowed_mask,
                                semisparse_classes, semisparse_diagnostic)

from oracles import (catalog_name_by_certificate, generator_pair_mask, incidence_mats,
                     maximal_chain_count, orbit_join_quotient)


@pytest.fixture(scope="module")
def cube():
    return entry_by_name("cube").group()


@pytest.fixture(scope="module")
def cube_p(cube):
    return polytope_from_group(cube)


@pytest.fixture(scope="module")
def xyz(cube):
    s0, s1, s2 = cube.gen_ids
    x = s0
    y = cube.mul(cube.mul(s1, x), s1)
    z = cube.mul(cube.mul(s2, y), s2)
    return x, y, z


def test_cube_semisparse_list(cube, xyz):
    x, y, z = xyz
    classes = semisparse_classes(cube)
    assert len(classes) == 4
    profile = sorted((c.order, c.size, len(conjugates(cube, c.rep)) == 1) for c in classes)
    assert profile == [(1, 1, True), (2, 1, True), (2, 3, False), (4, 1, True)]
    # the named subgroups land in the right classes
    xy, yz = cube.mul(x, y), cube.mul(y, z)
    xyz_ = cube.mul(xy, z)
    found = {c.key() for cls in classes for c in conjugates(cube, cls.rep)}
    for gens in ([xy], [yz], [xyz_], [xy, yz], []):
        assert cube.subgroup(gens).key() in found


def test_individual_semisparse_checks(cube, xyz):
    x, y, z = xyz
    assert is_semisparse(cube, cube.subgroup([]))        # trivial
    assert is_semisparse(cube, cube.subgroup([cube.mul(x, y)]))
    assert not is_semisparse(cube, cube.subgroup([x]))   # a reflection


def test_cube_quotient_identifications(cube, xyz):
    x, y, z = xyz
    xyz_ = cube.mul(cube.mul(x, y), z)
    hemi = quotient_polytope(cube, cube.subgroup([xyz_]))
    assert are_isomorphic(hemi, entry_by_name("hemicube").polytope())
    q23 = quotient_polytope(cube, cube.subgroup([cube.mul(x, y), cube.mul(y, z)]))
    assert are_isomorphic(q23, entry_by_name("hosohedron(3)").polytope())


def test_trivial_quotient_is_identity(cube, cube_p):
    q = quotient_polytope(cube, cube.subgroup([]))
    assert are_isomorphic(q, cube_p)


def test_rejection_diagnostic(cube):
    h = cube.subgroup([cube.gen_ids[0]])
    why = semisparse_diagnostic(cube, h)
    assert why is not None
    with pytest.raises(ValueError, match="not semisparse"):
        quotient_polytope(cube, h)


def _oracle_defect(counts, incidences, chains):
    """The semisparse defect of the oracle's poset, by the same rules."""
    ok, why = is_polytopal(counts, incidence_mats(counts, incidences))
    if not ok:
        return why
    if len(set(chains)) != len(chains):
        return "flags: distinct orbits induce the same maximal chain"
    if maximal_chain_count(counts, incidences) != len(chains):
        return "flags: quotient has maximal chains not induced by any orbit"
    return None


@pytest.mark.parametrize("source", ["cube", "case7", "case10", "case21-masked"])
def test_quotient_candidate_matches_orbit_join_oracle(ws, source):
    if source == "cube":
        g = entry_by_name("cube").group()
    else:
        g = ws.universal(int(source[4:6])).group
    if source.endswith("masked"):
        classes = enumerate_subgroups_within(g, semisparse_allowed_mask(g))
    else:
        classes = enumerate_subgroups(g)
    R = g.rmul
    adj = [R[gid].tolist() for gid in g.gen_ids]
    accepted = 0
    for cls in classes:
        ids = cls.rep.elem_ids
        counts, incidences, chains = orbit_join_quotient(adj, [R[:, n].tolist() for n in ids])
        q, least = quotient_candidate(g, ids)
        assert q.counts == counts, ids
        assert np.array_equal(least, np.unique(R[:, ids].min(axis=1))), ids
        for m, pairs in zip(q.mats, incidences):
            assert set(zip(*np.nonzero(m))) == pairs, ids
        why = _oracle_defect(counts, incidences, chains)
        assert semisparse_diagnostic(g, cls.rep) == why, ids
        accepted += why is None
    assert accepted == {"cube": 4, "case7": 1, "case10": 4, "case21-masked": 1}[source]


def _ground_truth_classes(g, classes):
    """(size, representative ids) of each class whose quotient passes `_defect`."""
    return [(c.size, c.rep.elem_ids.tolist()) for c in classes
            if _defect(quotient_candidate(g, c.rep.elem_ids)[0]) is None]


@pytest.mark.parametrize("source", [f"case{c}" for c in (7, 10, 11, 12, 13, 19, 21)]
                         + [e.name for e in rank3_catalog(degenerate=True)])
def test_semisparse_mask_loses_no_class(ws, source):
    """The mask lies inside the reference mask, is a union of conjugacy
    classes, and keeps every semisparse class: those the ground truth accepts
    on the unmasked lattice, or, for cases 13 and 19, whose unmasked lattices
    are too large for tier-1, on the reference mask's lattice."""
    g = ws.universal(int(source[4:])).group if source.startswith("case") \
        else entry_by_name(source).group()
    allowed, reference = semisparse_allowed_mask(g), generator_pair_mask(g)
    assert not (allowed & ~reference).any()
    R = g.rmul
    for s in g.gen_ids:
        assert np.array_equal(allowed[R[s][R[:, s]]], allowed)  # x -> s*x*s
    universe = (enumerate_subgroups_within(g, reference) if source in ("case13", "case19")
                else enumerate_subgroups(g))
    found = [(c.size, c.rep.elem_ids.tolist()) for c in semisparse_classes(g)]
    assert found == _ground_truth_classes(g, universe)


def test_non_string_group_is_rejected():
    g = entry_by_name("cube").group()
    bad = MarkedGroup(g.degree, [g.gens[1], g.gens[0], g.gens[2]])
    with pytest.raises(ValueError, match="not a string group"):
        semisparse_classes(bad)
    assert bad._rmul is None  # refused before the mask builds the table
    with pytest.raises(ValueError, match="not a string group"):
        classify_quotients(bad, "swapped cube")


def test_hemicube_has_no_proper_quotients():
    g = entry_by_name("hemicube").group()
    assert len(semisparse_classes(g)) == 1


def test_case10_quotients(ws):
    rep = ws.report(10)
    assert rep.total_quotients == 4
    assert rep.regular_count == 3
    # the quotient list mirrors the cube's: trivial, <ab> (x3), center, V4
    assert sorted((r.subgroup_order, r.class_size) for r in rep.records) == \
        [(1, 1), (2, 1), (2, 3), (4, 1)]
    # {{2,3},{3,4}_3}: hosohedral facets, hemicross vertex figures
    hoso = [r for r in rep.records if set(r.facet_classes) == {"hosohedron(3)"}]
    assert len(hoso) == 1 and hoso[0].is_regular
    assert set(hoso[0].vfig_classes) == {"hemicross"}


def test_case10_central_quotient_is_case11(ws):
    rep = ws.report(10)
    central = [r for r in rep.records
               if r.subgroup_order == 2 and r.class_size == 1][0]
    assert len(conjugates(ws.universal(10).group, central.subgroup)) == 1
    assert are_isomorphic(central.polytope, ws.universal(11).polytope())


def test_case11_no_proper_quotients(ws):
    assert ws.report(11).total_quotients == 1


def test_fast_path_agrees_with_ground_truth_on_192(ws):
    g = ws.universal(10).group
    for cls in enumerate_subgroups(g):
        assert (is_semisparse(g, cls.rep) ==
                is_semisparse_product_criterion(g, cls.rep)), cls.rep.elem_ids


def test_regular_iff_normal_on_reports(ws):
    """The record's regularity and normality, read from the class size, agree
    with the conjugates counted and with regularity by certificates."""
    for case in (7, 10, 11, 12, 13, 19, 21):
        g = ws.universal(case).group
        for r in ws.report(case).records:
            normal = len(conjugates(g, r.subgroup)) == 1
            assert (r.is_regular == r.is_normal == (r.class_size == 1) == normal
                    == is_regular(r.polytope)), (case, r.subgroup_order)
            if r.is_regular:
                assert r.is_section_regular


def test_aut_order_is_flags_over_class_size(ws):
    """|Aut(P/N)| = |N_W(N)/N| = flags / class size, the automorphisms
    counted by certificates."""
    records = [r for case in (7, 10, 11, 12, 21) for r in ws.report(case).records]
    small13 = [r for r in ws.report(13).records if r.polytope.n_flags <= 240]
    assert len(small13) == 9 and sum(not r.is_regular for r in small13) == 8
    for r in records + small13:
        assert r.polytope.aut_order == r.polytope.n_flags // r.class_size, r.subgroup_order
    assert any(r.class_size == 3 and r.polytope.aut_order == 32 for r in ws.report(10).records)


def test_quotient_facet_counts_bounded(ws):
    for case in (10, 11):
        up = ws.universal(case).polytope()
        for r in ws.report(case).records:
            assert r.polytope.counts[-1] <= up.counts[-1]


def test_conjugate_subgroups_give_isomorphic_quotients_192(ws):
    g = ws.universal(10).group
    for cls in semisparse_classes(g):
        qs = [quotient_polytope(g, c) for c in conjugates(g, cls.rep)]
        for q in qs[1:]:
            assert are_isomorphic(qs[0], q)


def test_all_quotients_pass_axioms(ws):
    for case in (10, 11):
        for r in ws.report(case).records:
            ok, why = is_polytopal(r.polytope.counts, r.polytope.mats)
            assert ok, why


def _record_facts(r, dual=False):
    """A quotient record's order, class size, regularity flags, facet and
    vertex-figure classes, type and face counts; with `dual`, those of the
    dual quotient: classes swapped and dualised, type and counts reversed."""
    classes = [sorted(r.facet_classes.items()), sorted(r.vfig_classes.items())]
    shape = [tuple(r.type_symbol), tuple(r.polytope.counts)]
    if dual:
        classes = [sorted((identified_dual(n), k) for n, k in c) for c in classes[::-1]]
        shape = [t[::-1] for t in shape]
    return (r.subgroup_order, r.class_size, r.is_regular, r.is_section_regular,
            *map(tuple, classes), *shape)


@pytest.mark.parametrize("case,partner", [(12, 10), (19, 13), (7, 7), (11, 11), (21, 21)])
def test_dual_cases_have_dual_reports(ws, case, partner):
    # {L*, K*} is {K, L} with its generators reversed, so its quotients are
    # the duals of {K, L}'s; both reports are built directly
    assert (Counter(_record_facts(r) for r in ws.report(case).records)
            == Counter(_record_facts(r, dual=True) for r in ws.report(partner).records))


def test_report_json_schema(ws):
    rep = ws.report(10)
    js = rep.to_json()
    assert set(js) == {"universal", "group_order", "total_quotients", "regular",
                       "section_regular", "mixed_facets", "quotients"}
    row = js["quotients"][0]
    assert set(row) == {"subgroup_order", "class_size", "normal", "regular",
                        "section_regular", "type", "facet_classes",
                        "vfig_classes", "face_counts"}
    # deterministic serialization
    assert json.dumps(js, sort_keys=True) == json.dumps(rep.to_json(), sort_keys=True)


def test_report_ordering(ws):
    rep = ws.report(10)
    keys = [(r.subgroup_order, tuple(r.subgroup.elem_ids)) for r in rep.records]
    assert keys == sorted(keys)


def test_quotient_lattice_dot(ws):
    rep = ws.report(10)
    dot = quotient_lattice_dot(rep, ws.universal(10).group)
    assert dot.count("q0") >= 1 and "->" in dot


def test_ground_truth_runs_once_per_lattice_class(ws, monkeypatch):
    from polyquot import quotients as pq

    enumerate_within, quotient_candidate = pq.enumerate_subgroups_within, pq.quotient_candidate
    defect = pq._defect
    calls = {"classes": 0, "candidates": 0, "defects": 0}

    def counting_lattice(*args, **kwargs):
        classes = enumerate_within(*args, **kwargs)
        calls["classes"] += len(classes)
        return classes

    def counting_candidate(*args, **kwargs):
        calls["candidates"] += 1
        return quotient_candidate(*args, **kwargs)

    def counting_defect(*args, **kwargs):
        calls["defects"] += 1
        return defect(*args, **kwargs)

    g = ws.universal(13).group
    ws.report(13)  # the parabolics' class tables, so that only g's lattice is counted
    monkeypatch.setattr(pq, "enumerate_subgroups_within", counting_lattice)
    monkeypatch.setattr(pq, "quotient_candidate", counting_candidate)
    monkeypatch.setattr(pq, "_defect", counting_defect)
    assert pq.classify_quotients(g, "case13").total_quotients == 70
    # every class gets a candidate; the ground truth runs on the 76 nontrivial
    # ones and rejects 7, the trivial class being certified by the C-group checks
    assert calls == {"classes": 77, "candidates": 77, "defects": 76}


@pytest.mark.parametrize("source", [f"case{c}" for c in (7, 10, 11, 12, 13, 19, 21)]
                         + [e.name for e in rank3_catalog(degenerate=True)])
def test_trivial_class_passes_the_ground_truth(ws, source):
    """The search accepts the trivial class without `_defect`, on the string
    C-group certificate; the ground truth accepts it too, for every desk
    universal, both of its rank-3 parabolic groups, and every catalog group."""
    if source.startswith("case"):
        g = ws.universal(int(source[4:])).group
        groups = [g, g.parabolic_group((0, 1, 2)), g.parabolic_group((1, 2, 3))]
    else:
        groups = [entry_by_name(source).group()]
    for h in groups:
        q, least = quotient_candidate(h, np.array([0]))
        assert _defect(q) is None
        assert np.array_equal(least, np.arange(h.order))
        assert all(np.array_equal(a, s) for a, s in zip(q.adj, h.gens))


def test_case10_builds_no_section(ws, monkeypatch):
    from polyquot import polytopes, quotients as pq

    calls = []
    for name in ("section", "section_profile"):
        real = getattr(polytopes, name)

        def counting(*args, name=name, real=real):
            calls.append(name)
            return real(*args)

        monkeypatch.setattr(polytopes, name, counting)
    g = ws.universal(10).group
    monkeypatch.setattr(g, "_parabolics", {})  # the class tables are built in the call
    rep = pq.classify_quotients(g, "case10")
    assert rep.total_quotients == 4
    assert calls == []


def test_case10_certifies_no_quotient(ws, monkeypatch):
    """Regularity comes from the class size and names from the relators:
    no certificate runs, on a quotient or on a parabolic's quotient."""
    from polyquot import polytopes, quotients as pq

    ranks = []
    real = polytopes._certificate_from

    def counting(adj, start):
        ranks.append(len(adj))
        return real(adj, start)

    monkeypatch.setattr(polytopes, "_certificate_from", counting)
    g = ws.universal(10).group
    monkeypatch.setattr(g, "_parabolics", {})  # the class tables are built in the call
    rep = pq.classify_quotients(g, "case10")
    assert (rep.total_quotients, rep.regular_count) == (4, 3)
    assert ranks == []


def test_classification_realizes_no_catalog_polytope(monkeypatch):
    from polyquot import catalog

    monkeypatch.setattr(catalog, "_GROUPS", {})
    monkeypatch.setattr(catalog, "_POLYTOPES", {})
    classify_table1()
    g = build_universal(case_spec(10).amalgam()).group
    assert classify_quotients(g, "case10").total_quotients == 4
    assert catalog._GROUPS == {} and catalog._POLYTOPES == {}


def test_subgroup_bound_fires_before_the_table():
    g = build_universal(case_spec(10).amalgam()).group
    with pytest.raises(BoundExceeded) as err:
        classify_quotients(g, "case10", 100)
    assert str(err.value) == "group order 192 exceeds subgroup-enumeration bound 100"
    assert g._rmul is None


@pytest.mark.parametrize("case", [7, 10, 11, 12, 13, 19, 21])
def test_identify_on_parabolic_quotients(ws, case):
    """identify names every accepted quotient of the rank-3 parabolics as the
    certificate registry does."""
    g = ws.universal(case).group
    for js in ((0, 1, 2), (1, 2, 3)):
        sub = g.parabolic_group(js)
        for cls in semisparse_classes(sub):
            q = quotient_polytope(sub, cls.rep)
            assert identify(q) == catalog_name_by_certificate(q)


@pytest.mark.parametrize("case", [7, 10, 11, 12, 13, 19, 21])
def test_section_classes_match_built_sections(ws, case):
    """The names and section regularity that classify_quotients reads off the
    parabolics' class tables agree with the facets and vertex figures built
    as sections of each quotient."""
    for r in ws.report(case).records:
        q = r.polytope
        facets = [section(q, (3, f), None) for f in range(q.counts[3])]
        vfigs = [section(q, None, (0, v)) for v in range(q.counts[0])]
        assert r.facet_classes == dict(Counter(map(identify, facets)))
        assert r.vfig_classes == dict(Counter(map(identify, vfigs)))
        assert r.is_section_regular == section_profile(q).is_section_regular()


@pytest.mark.parametrize("case", [10, 12])
def test_identify_on_built_sections(ws, case):
    """identify names every built facet and vertex figure of the quotients,
    the nonregular ones included, as the certificate registry does."""
    names = set()
    for r in ws.report(case).records:
        q = r.polytope
        for s in ([section(q, (3, f), None) for f in range(q.counts[3])]
                  + [section(q, None, (0, v)) for v in range(q.counts[0])]):
            assert identify(s) == catalog_name_by_certificate(s)
            names.add(identify(s))
    assert any(n.startswith("unrecognized:") for n in names)


def test_product_criterion_rejects_a_meet_outside_the_facet_group(ws):
    g = ws.universal(10).group
    s3 = g.gen_ids[3]
    n = g.subgroup([s3])
    facet_group = g.parabolic([0, 1, 2])
    meet = product_set_intersect(n, facet_group, g.parabolic([1, 2, 3]))
    assert s3 in meet and s3 not in facet_group.elem_ids
    assert not is_semisparse_product_criterion(g, n)
    assert not is_semisparse(g, n)


def test_rank3_group_is_rejected(cube):
    with pytest.raises(ValueError, match="rank-4 groups, not rank 3"):
        classify_quotients(cube, "cube")
