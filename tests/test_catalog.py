import numpy as np
import pytest

from polyquot import catalog
from polyquot.catalog import (SchlafliSymbol, central_quotient, central_quotient_group,
                              coxeter_presentation, dihedron, entry_by_name, hosohedron,
                              identified_dual, identify, rank3_catalog)
from polyquot.coset import broken_relator, coset_enumeration, lift_from_parabolics, perm_rep
from polyquot.permgroups import is_involution, orbit_min_labels
from polyquot.polytopes import (Polytope, are_isomorphic, dual, polytope_from_group,
                                section_profile)
from polyquot.presentations import power_word
from polyquot.quotients import semisparse_classes

from oracles import catalog_name_by_certificate, ditope_group


def _lift_entries():
    """Every catalog entry, plus the dihedra and hosohedra up to p = 59: a
    tuple of <s0,s1> cosets alone is no base of hosohedron(p) from p = 15."""
    entries = {e.name: e for e in rank3_catalog(degenerate=True)}
    entries.update((f(p).name, f(p)) for f in (dihedron, hosohedron) for p in range(2, 60))
    return list(entries.values())


@pytest.mark.parametrize("entry", _lift_entries(), ids=lambda e: e.name)
def test_lifted_group_is_the_trivial_subgroup_table(entry):
    pres = entry.presentation()
    p, q = entry.symbol.entries
    g, _ = lift_from_parabolics(pres, [((0, 1), 2 * p), ((1, 2), 2 * q)])
    if entry.symbol.entries == (2, 2):
        # s1 lies in both parabolics and fixes every coset: the union action
        # is not faithful
        assert g is None
    else:
        h = perm_rep(coset_enumeration(pres))
        assert g.order == entry.expected_order
        assert all(np.array_equal(a, b) for a, b in zip(g.gens, h.gens))


@pytest.mark.parametrize("entry, trivial", [(hosohedron(20), False), (dihedron(2), True)],
                         ids=["hosohedron(20)", "dihedron(2)"])
def test_realized_group_enumerates_the_trivial_subgroup_only_when_the_lift_fails(
        monkeypatch, entry, trivial):
    calls = []
    real = catalog.coset_enumeration

    def spy(pres, subgroup=(), **kwargs):
        calls.append(tuple(subgroup))
        return real(pres, subgroup, **kwargs)

    monkeypatch.setattr(catalog, "coset_enumeration", spy)
    monkeypatch.setattr(catalog, "_GROUPS", {})
    assert entry.group().order == entry.expected_order
    assert calls == ([()] if trivial else [])


def test_symbol_validation():
    with pytest.raises(ValueError):
        SchlafliSymbol((1, 3))


def test_coxeter_presentation_shape():
    pres = coxeter_presentation(SchlafliSymbol((4, 3)))
    assert pres.rank == 3
    assert power_word((0, 1), 4) in pres.relators
    assert power_word((1, 2), 3) in pres.relators
    assert power_word((0, 2), 2) in pres.relators


def test_coxeter_digon():
    pres = coxeter_presentation(SchlafliSymbol((2,)))
    assert perm_rep(coset_enumeration(pres)).order == 4


def test_coxeter_535_shape():
    pres = coxeter_presentation(SchlafliSymbol((5, 3, 5)))
    assert pres.rank == 4


@pytest.mark.parametrize("name,order", [
    ("tetrahedron", 24), ("cube", 48), ("octahedron", 48),
    ("dodecahedron", 120), ("icosahedron", 120),
    ("hemicube", 24), ("hemicross", 24),
    ("hemidodecahedron", 60), ("hemi-icosahedron", 60),
])
def test_catalog_orders(name, order):
    assert entry_by_name(name).group().order == order


def test_central_quotient_mapping():
    assert central_quotient(entry_by_name("cube")).name == "hemicube"
    assert central_quotient(entry_by_name("icosahedron")).name == "hemi-icosahedron"
    with pytest.raises(ValueError):
        central_quotient(entry_by_name("tetrahedron"))
    with pytest.raises(ValueError):
        central_quotient(entry_by_name("hemicube"))


@pytest.mark.parametrize("name", ["cube", "octahedron", "dodecahedron", "icosahedron"])
def test_central_quotient_isomorphic_to_petrie_realization(name):
    e = entry_by_name(name)
    q = central_quotient_group(e)
    proj = central_quotient(e)
    assert q.order == proj.group().order == e.group().order // 2
    assert are_isomorphic(polytope_from_group(q), proj.polytope())
    # surjections both ways: each group's generators satisfy the other's relators
    _assert_relators_hold(proj.presentation(), q)
    _assert_relators_hold(proj.presentation(), proj.group())


def _assert_relators_hold(pres, g):
    import numpy as np

    start = np.arange(g.degree)
    for rel in pres.relators:
        img = start
        for x in rel:
            img = g.gens[x][img]
        assert np.array_equal(img, start), rel


def test_rank3_catalog_contents():
    cat = rank3_catalog()
    assert len(cat) == 9
    assert sum(1 for e in cat if e.kind == "spherical") == 5
    assert sum(1 for e in cat if e.kind == "projective") == 4
    assert entry_by_name("hemicross").group().order == 24


def test_degenerate_families():
    assert dihedron(3).group().order == 12
    assert hosohedron(3).group().order == 12
    assert dihedron(5).symbol.entries == (5, 2)
    assert hosohedron(5).symbol.entries == (2, 5)
    with pytest.raises(KeyError):
        entry_by_name("frobnitz")
    assert entry_by_name("dihedron(4)").expected_order == 16


def test_duality_pairs():
    for e in rank3_catalog():
        d = entry_by_name(e.dual_name)
        assert d.symbol.entries == e.symbol.entries[::-1]
        assert d.expected_order == e.expected_order
        assert are_isomorphic(dual(e.polytope()), d.polytope())


@pytest.mark.parametrize("entry", rank3_catalog(degenerate=True) + [dihedron(7), hosohedron(8)],
                         ids=lambda e: e.name)
def test_identified_dual_names_the_dual_polytope(entry):
    # {2,2} is hosohedron(2) on both sides, and dihedron(7) and hosohedron(8)
    # are past the catalog: unrecognized, of the reversed type
    p = entry.polytope()
    assert identified_dual(identify(p)) == identify(dual(p))


def test_identified_dual_keeps_other_names():
    assert identified_dual("unrecognized:{7,2}") == "unrecognized:{2,7}"
    assert identified_dual("a group of order 12") == "a group of order 12"
    assert identified_dual("dihedron(2)") == "hosohedron(2)"


def test_ditope_over_hemicube():
    p = polytope_from_group(ditope_group(entry_by_name("hemicube")))
    assert p.schlafli_type() == (4, 3, 2)
    assert p.counts[-1] == 2
    facets_are_hemicubes = are_isomorphic(
        entry_by_name("hemicube").polytope(),
        _facet_section(p, 0))
    assert facets_are_hemicubes


def _facet_section(p, i):
    from polyquot.polytopes import section
    return section(p, (p.rank - 1, i), None)


def test_ditope_has_no_proper_quotients():
    g = ditope_group(entry_by_name("hemidodecahedron"))
    assert len(semisparse_classes(g)) == 1


def test_ditope_dual_type():
    p = polytope_from_group(ditope_group(entry_by_name("hemicube")))
    assert dual(p).schlafli_type() == (2, 3, 4)


@pytest.mark.parametrize("name", [e.name for e in rank3_catalog()])
def test_projective_entries_have_no_proper_quotients(name):
    e = entry_by_name(name)
    if e.kind != "projective":
        pytest.skip("spherical entries do have quotients")
    assert len(semisparse_classes(e.group())) == 1


def test_section_regularity_of_catalog():
    for e in rank3_catalog():
        assert section_profile(e.polytope()).is_section_regular()


def test_identify():
    """Every nameable entry is named as the certificate registry names it:
    itself, except that {2,2} is hosohedron(2)."""
    for e in rank3_catalog(degenerate=True):
        p = e.polytope()
        assert identify(p) == catalog_name_by_certificate(p)
        assert identify(p) == ("hosohedron(2)" if e.name == "dihedron(2)" else e.name)


def test_identify_needs_a_connected_flag_graph():
    """Two disjoint hemicubes satisfy the cube's relators on 48 flags."""
    adj = entry_by_name("hemicube").polytope().adj
    two = Polytope([np.concatenate([a, a + len(a)]) for a in adj])
    assert broken_relator(two.adj, entry_by_name("cube").presentation().relators) is None
    assert identify(two) == catalog_name_by_certificate(two) == "unrecognized:{4,3}"


def test_identify_needs_involutions():
    """Replacing s2 by s0 s1 s0 s2 s1, of order 4, keeps the tetrahedron's
    relators and a transitive action on 24 flags."""
    e = entry_by_name("tetrahedron")
    adj = e.polytope().adj
    z = np.arange(len(adj[0]))
    for x in (0, 1, 0, 2, 1):
        z = adj[x][z]
    p = Polytope([adj[0], adj[1], z])
    assert broken_relator(p.adj, e.presentation().relators) is None
    assert not is_involution(z) and not orbit_min_labels(p.adj, p.n_flags).any()
    assert identify(p) == catalog_name_by_certificate(p)
    assert identify(p).startswith("unrecognized:")
