from collections import defaultdict
from functools import cache
from itertools import combinations

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import oracles
from polyquot import permgroups
from polyquot.amalgam import build_universal, case_spec
from polyquot.catalog import (SchlafliSymbol, coxeter_presentation, dihedron, entry_by_name,
                              hosohedron)
from polyquot.coset import coset_enumeration, perm_rep
from polyquot.permgroups import MarkedGroup
from polyquot.polytopes import (Polytope, are_isomorphic, dual, flag_graph_from_group,
                                flag_graph_dot, hasse_dot, intersection_condition,
                                is_polytopal, is_regular, polytope_from_group,
                                polytope_json, section, section_profile)
from polyquot.quotients import quotient_candidate, quotient_polytope

from oracles import (all_starts_certificate, aut_order, enumerate_subgroups, incidence_mats,
                     strongly_connected, subgroup)


@pytest.fixture(scope="module")
def cube_p():
    return entry_by_name("cube").polytope()


def test_flag_counts(cube_p, ws):
    assert cube_p.n_flags == 48
    assert ws.universal(7).polytope().n_flags == 660


def test_rank_one_flag_graph():
    g = MarkedGroup(2, [np.array([1, 0])])
    p = polytope_from_group(g)
    assert p.n_flags == 2 and p.rank == 1


def test_face_counts(cube_p):
    assert cube_p.counts == [8, 12, 6]
    assert entry_by_name("hemicube").polytope().counts == [4, 6, 3]


def test_eleven_cell_faces(ws):
    assert ws.universal(7).polytope().counts == [11, 55, 55, 11]


def test_flag_graph_roundtrip():
    for name in ("cube", "hemicube", "hemi-icosahedron"):
        g = entry_by_name(name).group()
        p = Polytope(flag_graph_from_group(g))
        p2 = Polytope(p.adj)
        assert are_isomorphic(p, p2)


def test_is_polytopal_cube(cube_p):
    ok, why = is_polytopal(cube_p.counts, cube_p.mats)
    assert ok and why is None


def test_is_polytopal_diamond_violation():
    # an edge with three vertices under it
    counts = [3, 1]
    ok, why = is_polytopal(counts, incidence_mats(counts, [[(0, 0), (1, 0), (2, 0)]]))
    assert not ok and why.startswith("diamond")


def test_is_polytopal_diagnoses_ranked_failure():
    counts = [2, 2]
    # second edge has nothing below
    ok, why = is_polytopal(counts, incidence_mats(counts, [[(0, 0), (1, 0)]]))
    assert not ok and why.startswith("ranked")


def test_is_polytopal_disconnected():
    # two disjoint digons: diamond and ranked pass, connectivity fails
    ok, why = is_polytopal(*TWO_DIGONS)
    assert not ok and why.startswith("connected")


def _poset_of_cells(cells, ditope=False):
    """The faces of simplices glued along shared vertices: every nonempty
    proper vertex subset of a cell, incident when one contains the other.
    With `ditope`, two facets over all of it are added on top."""
    ranks = [sorted({frozenset(s) for c in cells for s in combinations(sorted(c), r)}, key=sorted)
             for r in range(1, max(len(c) for c in cells))]
    if ditope:
        ranks.append([frozenset().union(*cells)] * 2)
    pairs = [[(a, b) for a, x in enumerate(lo) for b, y in enumerate(up) if x <= y]
             for lo, up in zip(ranks, ranks[1:])]
    counts = [len(r) for r in ranks]
    return counts, incidence_mats(counts, pairs)


TWO_DIGONS = ([4, 4], incidence_mats(
    [4, 4], [[(0, 0), (1, 0), (0, 1), (1, 1), (2, 2), (3, 2), (2, 3), (3, 3)]]))
TETRAHEDRON = [{0, 1, 2, 3}]
PINCHED = [{0, 1, 2, 3}, {0, 4, 5, 6}]  # two tetrahedra sharing vertex 0


@pytest.mark.parametrize("cells, ditope, ok", [
    (TETRAHEDRON, False, True),
    (TETRAHEDRON, True, True),
    # every axiom holds but the vertex figure of 0, two triangles
    (PINCHED, False, False),
    # the same vertex figure as the middle section between vertex 0 and a
    # facet; every section reaching the least or greatest face is connected
    (PINCHED, True, False),
])
def test_connectivity_alone_fails(cells, ditope, ok):
    poset = _poset_of_cells(cells, ditope)
    assert strongly_connected(*poset) == ok
    expected = (True, None) if ok else (False, "connected: some section of rank >= 2 is disconnected")
    assert is_polytopal(*poset) == expected


@cache
def _connectivity_posets():
    """Hand-built posets and every quotient candidate of the cube."""
    posets = [_poset_of_cells(c, d) for c in (TETRAHEDRON, PINCHED) for d in (False, True)]
    posets.append(TWO_DIGONS)
    g = entry_by_name("cube").group()
    for c in enumerate_subgroups(g):
        q = quotient_candidate(g, c.rep.elem_ids)[0]
        posets.append((q.counts, q.mats))
    return posets


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_polytopal_invariant_under_face_relabelling(data):
    counts, mats0 = data.draw(st.sampled_from(_connectivity_posets()))
    sigma = [np.array(data.draw(st.permutations(range(c)))) for c in counts]
    mats = []
    for k, m in enumerate(mats0):
        r = np.empty_like(m)
        r[np.ix_(sigma[k], sigma[k + 1])] = m  # face a of rank k becomes sigma[k][a]
        mats.append(r)
    ok, why = is_polytopal(counts, mats)
    ok0, why0 = is_polytopal(counts, mats0)
    axiom = (why or "").split(":")[0]  # a diamond reason quotes the first bad count met
    assert (ok, axiom) == (ok0, (why0 or "").split(":")[0])
    if axiom in ("", "connected"):
        assert ok == strongly_connected(counts, mats)


def test_quotient_by_reflection_rejected():
    g = entry_by_name("cube").group()
    h = subgroup(g, [g.gen_ids[0]])
    with pytest.raises(ValueError, match="not semisparse"):
        quotient_polytope(g, h)


def test_intersection_condition_catalog():
    for name in ("cube", "hemicube", "hemi-icosahedron", "dodecahedron"):
        assert intersection_condition(entry_by_name(name).group())


def _coxeter_plus(entries, extra, max_cosets=2000):
    """The closed coset table of a string Coxeter group with one extra relator."""
    pres = coxeter_presentation(SchlafliSymbol(entries)).with_relators([extra])
    return coset_enumeration(pres, max_cosets=max_cosets)


@pytest.mark.parametrize("entries, extra, order", [
    ((3, 3), (0, 1, 0, 1, 2, 1), 6),  # s2 = s0: <s0,s1> ∩ <s1,s2> is all six elements
    ((4, 3), (0, 1, 0, 2), 4),        # s2 = s0 s1 s0
])
def test_intersection_condition_fails_on_non_c_groups(entries, extra, order):
    g = perm_rep(_coxeter_plus(entries, extra))
    assert g.order == order
    assert not intersection_condition(g)
    assert not oracles.intersection_condition(g)


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_intersection_condition_against_the_oracle(data):
    """Prop. 2E16's recursion over contiguous ranges against every pair of
    parabolics, on string groups: Coxeter groups of rank 3 or 4 with one
    extra relator."""
    rank = data.draw(st.integers(3, 4))
    entries = tuple(data.draw(st.integers(2, 5)) for _ in range(rank - 1))
    extra = tuple(data.draw(st.lists(st.integers(0, rank - 1), min_size=3, max_size=7)))
    table = _coxeter_plus(entries, extra)
    assume(table.is_closed and table.n_cosets <= 800)
    g = perm_rep(table)
    assert intersection_condition(g) == oracles.intersection_condition(g)


def test_reordered_generators_fail_string_check():
    g = entry_by_name("cube").group()
    bad = MarkedGroup(g.degree, [g.gens[1], g.gens[0], g.gens[2]])
    with pytest.raises(ValueError, match="commuting relator"):
        flag_graph_from_group(bad)


def test_case10_sections(ws):
    p = ws.universal(10).polytope()
    facet = section(p, (3, 0), None)
    assert are_isomorphic(facet, entry_by_name("cube").polytope())
    vfig = section(p, None, (0, 0))
    assert are_isomorphic(vfig, entry_by_name("hemicross").polytope())


def test_adjacent_rank_section_is_point(cube_p):
    # F/G with rank(F) = rank(G)+1: the unique rank-0 polytope
    v = int(cube_p.face_of_flag[0, 0])
    e = int(cube_p.face_of_flag[0, 1])
    s = section(cube_p, (1, e), (0, v))
    assert s.rank == 0 and s.n_flags == 1


def test_section_incompatible_faces(cube_p):
    with pytest.raises(ValueError):
        section(cube_p, (0, 0), (1, 0))


def test_is_regular(cube_p):
    assert is_regular(cube_p)


def test_digonal_prism_not_regular():
    g = entry_by_name("cube").group()
    s0, s1, _ = g.gen_ids
    x = s0
    y = g.mul(g.mul(s1, x), s1)
    dp = quotient_polytope(g, subgroup(g, [g.mul(x, y)]))
    assert dp.n_flags == 24
    # brute-force poset automorphism count (independent oracle) is 8
    assert aut_order(dp) == _poset_automorphisms(dp) == 8
    assert not is_regular(dp)


def _poset_automorphisms(p):
    from collections import Counter
    from itertools import permutations
    from math import factorial

    nv, ne, nf = p.counts
    ve, ef = p.mats
    sig = [(frozenset(np.flatnonzero(ve[:, e]).tolist()),
            frozenset(np.flatnonzero(ef[e]).tolist())) for e in range(ne)]
    count = 0
    for vp in permutations(range(nv)):
        for fp in permutations(range(nf)):
            src = Counter(sig)
            dst = Counter((frozenset(vp[v] for v in vs), frozenset(fp[f] for f in fs))
                          for vs, fs in sig)
            if src == dst:
                m = 1
                for k in src.values():
                    m *= factorial(k)
                count += m
    return count


def test_aut_order_equals_flag_count_for_regular(cube_p):
    assert aut_order(cube_p) == cube_p.n_flags


def test_dual_examples(cube_p):
    assert are_isomorphic(dual(cube_p), entry_by_name("octahedron").polytope())
    assert are_isomorphic(dual(dual(cube_p)), cube_p)


def test_isomorphism_examples(cube_p):
    assert are_isomorphic(cube_p, dual(entry_by_name("octahedron").polytope()))
    assert not are_isomorphic(entry_by_name("hemicube").polytope(),
                              entry_by_name("hemicross").polytope())


def test_quotients_by_conjugate_subgroups_are_isomorphic():
    from polyquot.permgroups import conjugates
    from polyquot.quotients import semisparse_classes

    g = entry_by_name("cube").group()
    for cls in semisparse_classes(g):
        quotients = [quotient_polytope(g, c) for c in conjugates(g, cls.rep)]
        for q in quotients[1:]:
            assert are_isomorphic(quotients[0], q)


def test_schlafli_type(cube_p):
    assert cube_p.schlafli_type() == (4, 3)


def test_section_profile_summary(cube_p):
    prof = section_profile(cube_p)
    assert prof.is_section_regular()
    assert all(len(v) == 1 for v in prof.classes.values())


def test_universal_13_section_regular(ws):
    assert section_profile(ws.universal(13).polytope()).is_section_regular()


def test_57_cell_regular(ws):
    assert is_regular(ws.universal(21).polytope())


def test_exports(cube_p):
    js = polytope_json(cube_p)
    assert js["face_counts"] == [8, 12, 6]
    assert js["regular"] is True
    dot = hasse_dot(cube_p)
    assert "least" in dot and "greatest" in dot and "->" in dot
    fdot = flag_graph_dot(cube_p)
    assert "--" in fdot and "color=" in fdot


def test_facet_vertex_count_identities(ws):
    # facet count = order / |<s0..s_{n-2}>|, vertex count = order / |<s1..s_{n-1}>|
    for case in (7, 10, 13):
        r = ws.universal(case)
        p = r.polytope()
        g = r.group
        facet_stab = g.parabolic(range(g.rank - 1))
        vertex_stab = g.parabolic(range(1, g.rank))
        assert p.counts[-1] == g.order // facet_stab.order
        assert p.counts[0] == g.order // vertex_stab.order


def test_intersection_condition_evaluated_once_per_group(monkeypatch):
    calls, orbits = [], []
    parabolic, orbit_of_zero = MarkedGroup.parabolic, permgroups._orbit_of_zero

    def counting(self, gen_indices):
        calls.append(tuple(gen_indices))
        return parabolic(self, gen_indices)

    def counting_orbit(perms, n):
        orbits.append(len(perms))
        return orbit_of_zero(perms, n)

    monkeypatch.setattr(MarkedGroup, "parabolic", counting)
    monkeypatch.setattr(permgroups, "_orbit_of_zero", counting_orbit)
    res = build_universal(case_spec(11).amalgam())
    during_build = len(calls), len(orbits)
    polytope_from_group(res.group)
    # the facet and vertex-figure parabolics, then one per contiguous range
    # of at most 3 of the 4 generators: (), 4 singles, 3 pairs, 2 triples
    ranges = {tuple(range(lo, lo + n)) for n in range(4) for lo in range(5 - n)}
    assert calls[:2] == [(0, 1, 2), (1, 2, 3)]
    assert sorted(calls[2:]) == sorted(ranges)
    # the group keeps each parabolic: the two maximal ones are computed once
    assert sorted(orbits) == sorted(len(r) for r in ranges)
    assert during_build == (2 + 10, 10)
    assert (len(calls), len(orbits)) == during_build


# -- certificates against the all-starts oracle ---------------------------------


def _polytopes(ws, data):
    """A quotient of case 7, 10 or 11, or a dihedron or hosohedron."""
    quotients = [r.polytope for case in (7, 10, 11) for r in ws.report(case).records]
    degenerate = st.builds(lambda family, p: family(p).polytope(),
                           st.sampled_from([dihedron, hosohedron]), st.integers(2, 12))
    return data.draw(st.one_of(st.sampled_from(quotients), degenerate))


@cache
def _oracle(p):
    return all_starts_certificate(p.adj)


@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_certificate_invariant_under_relabelling(ws, data):
    p = _polytopes(ws, data)
    q = _relabelled(p, data)
    assert q.certificate == p.certificate
    assert (is_regular(q), aut_order(q)) == (is_regular(p), aut_order(p))


def _relabelled(p, data):
    """p with its flags renumbered by a drawn permutation."""
    sigma = np.array(data.draw(st.permutations(range(p.n_flags))))
    adj = []
    for a in p.adj:
        b = np.empty_like(a)
        b[sigma] = sigma[a]  # flag x becomes sigma[x]
        adj.append(b)
    return Polytope(adj)


@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_double_dual_is_isomorphic(ws, data):
    p = _polytopes(ws, data)
    assert are_isomorphic(dual(dual(_relabelled(p, data))), p)


@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_certificate_and_regularity_agree_with_oracle(ws, data):
    p = _polytopes(ws, data)
    cert, ties = _oracle(p)
    assert p.certificate == cert
    assert aut_order(p) == ties
    assert is_regular(p) == (ties == p.n_flags)


def _faces(p, rank):
    """Arguments naming every face of a rank, the virtual ones as None."""
    if rank in (-1, p.rank):
        return [None]
    return [(rank, f) for f in range(p.counts[rank])]


@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_polygon_classes_match_oracle_certificates(ws, data):
    p = _polytopes(ws, data)
    prof = section_profile(p)
    for i in range(-1, p.rank - 2):
        j = i + 3
        flags_by_cert = defaultdict(list)
        for up in _faces(p, j):
            for lo in _faces(p, i):
                try:
                    s = section(p, up, lo)
                except ValueError:  # not incident
                    continue
                flags_by_cert[all_starts_certificate(s.adj)[0]].append(s.n_flags)
        assert all(len(set(flags)) == 1 for flags in flags_by_cert.values())
        assert {flags[0]: len(flags) for flags in flags_by_cert.values()} == prof.classes[(i, j)]
