import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from polyquot import permgroups
from polyquot.catalog import (SchlafliSymbol, coxeter_presentation, entry_by_name,
                              petrie_relator, rank3_catalog)
from polyquot.coset import coset_enumeration, lift_from_parabolics, perm_rep
from polyquot.amalgam import classify_table1, twisted_over
from polyquot.permgroups import (BoundExceeded, MarkedGroup, conjugates,
                                 enumerate_subgroups_within, orbit_min_labels,
                                 product_set_intersect, regular_from_action)
from polyquot.polytopes import intersection_condition
from polyquot.quotients import semisparse_allowed_mask

import oracles
from oracles import (are_conjugate, brute_force_products, brute_force_subgroups,
                     conjugacy_partition, ditope_group, enumerate_subgroups, mulclose,
                     orbit_minima, perm_mul, subgroup)


def realize(entries, petrie=None):
    pres = coxeter_presentation(SchlafliSymbol(tuple(entries)))
    if petrie:
        pres = pres.with_relators([petrie_relator(petrie)])
    return perm_rep(coset_enumeration(pres))


@pytest.fixture(scope="module")
def cube():
    return entry_by_name("cube").group()


@pytest.fixture(scope="module")
def cube_xyz(cube):
    s0, s1, s2 = cube.gen_ids
    x = s0
    y = cube.mul(cube.mul(s1, x), s1)
    z = cube.mul(cube.mul(s2, y), s2)
    return x, y, z


def test_generators_must_be_involutions():
    with pytest.raises(ValueError):
        MarkedGroup(3, [np.array([1, 2, 0])])


def test_group_order_examples(ws):
    assert ws.universal(7).group.order == 660  # the 11-cell
    assert MarkedGroup(1, []).order == 1
    assert ws.universal(10).group.order == 192


def test_order_limit(monkeypatch):
    g = entry_by_name("dodecahedron").group()
    monkeypatch.setattr(permgroups, "DEFAULT_ORDER_LIMIT", 10)
    with pytest.raises(BoundExceeded):
        MarkedGroup(g.degree, g.gens).order


def test_order_limit_is_exact(monkeypatch):
    tet = entry_by_name("tetrahedron").group()
    monkeypatch.setattr(permgroups, "DEFAULT_ORDER_LIMIT", 24)
    assert MarkedGroup(tet.degree, tet.gens).order == 24
    monkeypatch.setattr(permgroups, "DEFAULT_ORDER_LIMIT", 23)
    with pytest.raises(BoundExceeded):
        MarkedGroup(tet.degree, tet.gens).order


def test_twisted_over_a_large_domain_builds_nothing():
    entry = entry_by_name("dodecahedron")
    entry.group(), entry.polytope()  # 2^20 * 120 points
    tracemalloc.start()
    try:
        with pytest.raises(BoundExceeded):
            twisted_over(entry)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_is_member(cube):
    ident = np.arange(cube.degree)
    assert cube.element_id(ident) >= 0
    assert cube.element_id(cube.gens[1][cube.gens[0]]) >= 0  # s0*s1
    # a 3-cycle on points fixed by nothing in the group's image set
    outside = np.arange(cube.degree)
    outside[[0, 1, 2]] = [1, 2, 0]
    assert not cube.element_id(outside) >= 0
    with pytest.raises(ValueError):
        cube.element_id(np.arange(cube.degree + 1))


def test_element_order_and_inverse(cube):
    orders = cube.element_orders
    ident = tuple(range(cube.degree))
    for e in range(cube.order):
        assert cube.mul(e, cube.inverse(e)) == 0
        p = tuple(cube.elements[e].tolist())
        q, k = p, 1
        while q != ident:
            q, k = perm_mul(q, p), k + 1
        assert orders[e] == k


def test_element_orders_computed_once(cube):
    assert cube.element_orders is cube.element_orders


def _transposition(degree, a, b):
    p = np.arange(degree)
    p[[a, b]] = [b, a]
    return p


def _symmetric_on_tail(degree):
    """Sym of the points from 16 on, as adjacent transpositions: every element
    fixes points 0-15."""
    return MarkedGroup(degree, [_transposition(degree, a, a + 1) for a in range(16, degree - 1)])


def _non_regular_groups(ws):
    w = ws.universal(10).group
    return {
        "case10-facet-gens": MarkedGroup(w.degree, w.gens[:3]),  # 48 on 192 points
        "s4-on-4-points": MarkedGroup(4, [_transposition(4, a, a + 1) for a in range(3)]),
        "s4-on-a-tail": _symmetric_on_tail(20),
    }


@pytest.mark.parametrize("name", ["case10-facet-gens", "s4-on-4-points", "s4-on-a-tail"])
def test_non_regular_generators_raise(ws, name):
    g = _non_regular_groups(ws)[name]
    for read in (lambda: g.order, lambda: g.elements, lambda: g.rmul, lambda: g.inv_ids,
                 lambda: g.gen_ids, lambda: g.element_id(np.arange(g.degree)),
                 lambda: g.parabolic((0,)), lambda: g.parabolic_group((0,)),
                 lambda: intersection_condition(g)):
        with pytest.raises(ValueError, match="do not act"):
            read()


def _assert_proved_regular(g):
    assert g._regular, "the constructor's proof should mark the group regular"
    assert oracles.passes_full_regularity_check(g)


def test_certified_groups_pass_the_full_check():
    """Every group that `regular_from_action` or `parabolic_group` marks
    regular without the check: the Table 1 groups, their rank-3 parabolic
    groups and the catalog's groups."""
    groups = [r.group for r in classify_table1().values() if r.group is not None]
    assert len(groups) == 20
    for g in groups:
        assert oracles.passes_full_regularity_check(g)
        for js in ((0, 1, 2), (1, 2, 3)):
            _assert_proved_regular(g.parabolic_group(js))
    for entry in rank3_catalog(degenerate=True):
        _assert_proved_regular(entry.group())


@pytest.mark.parametrize("name", ["cube", "hemi-icosahedron", "dihedron(5)"])
def test_one_point_base_numbers_as_a_tuple_does(name):
    # a regular action on `order` points takes the base (0,); two copies of
    # it side by side take a tuple, and the numbering is the same
    g = entry_by_name(name).group()
    rev, n = g.gens[::-1], g.order
    one_point = regular_from_action(rev, n)
    two_copies = regular_from_action([np.concatenate([p, p + n]) for p in rev], n)
    _assert_proved_regular(one_point)
    assert all(np.array_equal(a, b) for a, b in zip(one_point.gens, two_copies.gens))


def test_one_point_orbit_short_of_the_order_is_refused():
    # Klein's four-group on 4 points, intransitively: point 0's orbit is {0, 1}
    perms = [np.array([1, 0, 2, 3]), np.array([0, 1, 3, 2])]
    assert regular_from_action(perms, 4) is None


def _coxeter_order(p, q):
    """|[p,q]|, the flags of {p,q}, or None when the group is infinite."""
    d = 4 - (p - 2) * (q - 2)
    return 8 * p * q // d if d > 0 else None


@st.composite
def _coxeter_plus_one_relator(draw):
    """A Coxeter presentation of rank 3 or 4 with one extra relator, and its
    parabolics with bounds on their orders: the dihedral <s0,s1>, <s1,s2> at
    rank 3, the finite rank-3 <s0,s1,s2>, <s1,s2,s3> at rank 4."""
    rank = draw(st.sampled_from([3, 4]))
    if rank == 3:
        entries = draw(st.tuples(st.integers(2, 6), st.integers(2, 6)))
        parabolics = [((0, 1), 2 * entries[0]), ((1, 2), 2 * entries[1])]
    else:
        entries = draw(st.tuples(st.integers(2, 5), st.integers(2, 5), st.integers(2, 5)).filter(
            lambda e: _coxeter_order(*e[:2]) and _coxeter_order(*e[1:])))
        parabolics = [((0, 1, 2), _coxeter_order(*entries[:2])),
                      ((1, 2, 3), _coxeter_order(*entries[1:]))]
    word = draw(st.lists(st.integers(0, rank - 1), min_size=2, max_size=5))
    power = draw(st.integers(1, 6))
    pres = coxeter_presentation(SchlafliSymbol(entries)).with_relators([tuple(word) * power])
    return pres, parabolics


@given(_coxeter_plus_one_relator())
@settings(max_examples=30, deadline=None)
def test_lifted_groups_pass_the_full_check(case):
    pres, parabolics = case
    g, _ = lift_from_parabolics(pres, parabolics, max_cosets=2000)
    assume(g is not None)
    _assert_proved_regular(g)
    for js, _ in parabolics:
        _assert_proved_regular(g.parabolic_group(js))


def _assert_parabolics_match_table(g, monkeypatch):
    """Every parabolic, read from the generator permutations, against the
    closure of its generator ids through the table, and the intersection
    condition against its frozenset formula."""
    gids = g.gen_ids
    for r in range(g.rank + 1):
        for js in combinations(range(g.rank), r):
            para = g.parabolic(js)
            assert np.array_equal(para.elem_ids, g.closure_ids([gids[i] for i in js])), js
            assert para.gen_ids == tuple(gids[i] for i in js)
    monkeypatch.setattr(g, "_intersection", None)
    holds = intersection_condition(g)
    assert holds == oracles.intersection_condition(g)
    return holds


@pytest.mark.parametrize("case", [6, 7, 8, 10, 11, 12, 13, 19, 21])
def test_parabolics_against_table_closure(ws, monkeypatch, case):
    assert _assert_parabolics_match_table(ws.universal(case).group, monkeypatch)


@pytest.mark.parametrize("entries, petrie, holds", [
    ((4, 4), 2, False), ((3, 6), 2, False), ((3, 4), 4, False),
    ((6, 3), 4, True), ((4, 4), 4, True)])
def test_parabolics_against_table_closure_petrie(monkeypatch, entries, petrie, holds):
    """Petrie quotients on both sides of the intersection condition."""
    assert _assert_parabolics_match_table(realize(entries, petrie), monkeypatch) == holds


def test_parabolic_group_against_brute_force_products(ws):
    """The case-10 facet parabolic acting on itself has the products of its
    generators acting on the universal's 192 points, and its element k is
    the parabolic's k-th least element of the universal group."""
    w = ws.universal(10).group
    h = w.parabolic_group((0, 1, 2))
    elems, _, rmul, inv, gen_ids = brute_force_products(w.degree, w.gens[:3])
    assert h.order == len(elems) == 48
    assert np.array_equal(h.rmul, np.array(rmul))
    assert np.array_equal(h.inv_ids, np.array(inv))
    assert h.gen_ids == gen_ids
    assert [w.element_id(e) for e in elems] == list(w.parabolic((0, 1, 2)).elem_ids)


def _oracle_groups(ws):
    return {
        "cube": entry_by_name("cube").group(),
        "case10-facet-parabolic-group": ws.universal(10).group.parabolic_group((0, 1, 2)),
        "twisted-hemicross": twisted_over(entry_by_name("hemicross")),  # 2^3 * 24 points
        "ditope-hemicube": ditope_group(entry_by_name("hemicube")),
        "trivial": MarkedGroup(1, []),
    }


@pytest.mark.parametrize("name", ["cube", "case10-facet-parabolic-group",
                                  "twisted-hemicross", "ditope-hemicube", "trivial"])
def test_tables_against_brute_force_products(ws, name):
    g = _oracle_groups(ws)[name]
    elems, index, rmul, inv, gen_ids = brute_force_products(g.degree, g.gens)
    assert np.array_equal(g.elements, np.array(elems))
    assert np.array_equal(g.rmul, np.array(rmul))
    assert np.array_equal(g.inv_ids, np.array(inv))
    assert g.gen_ids == gen_ids
    for i, e in enumerate(elems):
        assert g.element_id(e) == i
        # a member with two images swapped, usually a non-member next to it
        near = list(e)
        near[0], near[-1] = near[-1], near[0]
        assert g.element_id(near) == index.get(tuple(near), -1)
    rng = np.random.default_rng(0)
    for _ in range(20):
        p = rng.permutation(g.degree)
        assert g.element_id(p) == index.get(tuple(int(x) for x in p), -1)
    with pytest.raises(ValueError):
        g.element_id(np.arange(g.degree + 1))


@pytest.mark.parametrize("case", [13, 21])
def test_table_with_levels_wider_than_a_gather_chunk(ws, case):
    """A fresh table of a group whose breadth-first levels span several
    gather chunks: its defining identities, and the unchunked composition."""
    src = ws.universal(case).group
    g = MarkedGroup(src.degree, src.gens)
    n = g.degree
    step = max(1, permgroups._GATHER_ENTRIES // n)
    assert max(parent.size for _, parent, _ in permgroups._bfs_tree(g.gens, n)) > step
    R, inv = g.rmul, g.inv_ids
    assert np.array_equal(R[0], np.arange(n))
    for s in g.gens:
        assert np.array_equal(R[s], s[R])  # row s_k(j) is s_k[row j]
    assert np.array_equal(np.sort(R, axis=1), np.broadcast_to(np.arange(n), (n, n)))
    assert (R[np.arange(n), inv] == 0).all()
    assert np.array_equal(R, oracles.unchunked_table(g))


def test_enumerate_subgroups_c2():
    from polyquot.presentations import Presentation

    g = perm_rep(coset_enumeration(Presentation(1, ())))
    classes = enumerate_subgroups(g)
    assert [(c.order, c.size) for c in classes] == [(1, 1), (2, 1)]


def test_enumerate_subgroups_s3():
    g = realize([3])
    classes = enumerate_subgroups(g)
    assert sorted(c.order for c in classes) == [1, 2, 3, 6]


def _assert_classes_match_brute_force(g, classes, allowed=None):
    """The classes' members are exactly the oracle's subgroups, and the
    classes are the oracle's conjugacy classes."""
    elems = mulclose([s.tolist() for s in g.gens])
    perms = [tuple(row) for row in g.elements.tolist()]
    all_subs = brute_force_subgroups(
        elems, None if allowed is None else {perms[i] for i in np.flatnonzero(allowed)})
    members = [frozenset(perms[i] for i in h.elem_ids)
               for c in classes for h in conjugates(g, c.rep)]
    assert set(members) == all_subs
    assert sum(c.size for c in classes) == len(members) == len(all_subs)
    assert len(classes) == len(conjugacy_partition(all_subs, elems))


def test_cube_subgroups_against_brute_force(cube):
    _assert_classes_match_brute_force(cube, enumerate_subgroups(cube))


def test_subgroup_bound():
    g = entry_by_name("cube").group()
    with pytest.raises(BoundExceeded):
        enumerate_subgroups(g, order_bound=10)


def test_enumerate_subgroups_canonical_order(cube):
    classes = enumerate_subgroups(cube)
    keys = [(c.order, tuple(c.rep.elem_ids)) for c in classes]
    assert keys == sorted(keys)


def test_are_conjugate_xy_yz(cube, cube_xyz):
    x, y, z = cube_xyz
    hxy = subgroup(cube, [cube.mul(x, y)])
    hyz = subgroup(cube, [cube.mul(y, z)])
    ok, witness = are_conjugate(cube, hxy, hyz)
    assert ok
    conj = np.sort(cube.conj(hxy.elem_ids, witness))
    assert np.array_equal(conj, hyz.elem_ids)


def test_are_conjugate_self(cube, cube_xyz):
    x, y, _ = cube_xyz
    h = subgroup(cube, [cube.mul(x, y)])
    ok, witness = are_conjugate(cube, h, h)
    assert ok


def test_not_conjugate_same_order(cube, cube_xyz):
    # <xy> and <xyz> both have order 2; decided by exhaustive conjugation
    x, y, z = cube_xyz
    hxy = subgroup(cube, [cube.mul(x, y)])
    hxyz = subgroup(cube, [cube.mul(cube.mul(x, y), z)])
    assert hxy.order == hxyz.order == 2
    ok, _ = are_conjugate(cube, hxy, hxyz)
    assert not ok
    # oracle: conjugate by every element
    for g in range(cube.order):
        assert not np.array_equal(np.sort(cube.conj(hxy.elem_ids, g)), hxyz.elem_ids)


def test_conjugates_counts(cube, cube_xyz):
    x, y, z = cube_xyz
    xyz = cube.mul(cube.mul(x, y), z)
    assert len(conjugates(cube, subgroup(cube, [xyz]))) == 1  # central
    assert len(conjugates(cube, subgroup(cube, []))) == 1
    assert len(conjugates(cube, subgroup(cube, [cube.mul(x, y)]))) == 3


def test_intersections(cube, cube_xyz):
    x, y, z = cube_xyz
    hxy = subgroup(cube, [cube.mul(x, y)])
    hyz = subgroup(cube, [cube.mul(y, z)])
    assert len(np.intersect1d(hxy.elem_ids, hxy.elem_ids)) == 2
    assert len(np.intersect1d(hxy.elem_ids, hyz.elem_ids)) == 1
    whole = subgroup(cube, cube.gen_ids)
    assert list(product_set_intersect(hxy, whole, whole)) == list(hxy.elem_ids)


def test_product_set_is_a_set_not_a_group(cube):
    # <s0> * <s1> has 4 elements but is not a subgroup; intersecting the
    # whole group with it just returns those 4 products
    a = subgroup(cube, [cube.gen_ids[0]])
    b = subgroup(cube, [cube.gen_ids[1]])
    whole = subgroup(cube, cube.gen_ids)
    prods = product_set_intersect(whole, a, b)
    assert len(prods) == 4


def test_conjugacy_is_equivalence_on_cube_classes(cube):
    classes = enumerate_subgroups(cube)
    reps = [c.rep for c in classes]
    for h in reps:
        assert are_conjugate(cube, h, h)[0]
    for h1 in reps:
        for h2 in reps:
            assert are_conjugate(cube, h1, h2)[0] == are_conjugate(cube, h2, h1)[0]
            # distinct class representatives are never conjugate
            if h1 is not h2:
                assert not are_conjugate(cube, h1, h2)[0]


@given(st.sampled_from([(3, 3), (4, 3), (2, 5), (3, 4)]), st.data())
@settings(max_examples=20, deadline=None)
def test_class_size_divides_order(symbol, data):
    g = realize(list(symbol))
    seed = data.draw(st.lists(st.integers(1, g.order - 1), min_size=1, max_size=2))
    h = subgroup(g, seed)
    cls = conjugates(g, h)
    assert g.order % len(cls) == 0
    for c in cls:
        assert c.order == h.order


def test_order_matches_brute_force_closure():
    # every catalog group is well under the order-240 oracle bound
    for name in ("tetrahedron", "cube", "octahedron", "dodecahedron", "icosahedron",
                 "hemicube", "hemicross", "hemidodecahedron", "hemi-icosahedron"):
        g = entry_by_name(name).group()
        assert g.order == len(mulclose([np.asarray(x) for x in g.gens]))


@pytest.mark.parametrize("name", ["tetrahedron", "hemicube", "hemicross",
                                  "cube", "octahedron",
                                  "hemidodecahedron", "hemi-icosahedron",
                                  "dodecahedron", "icosahedron"]
                         # order 4p; at p = 9 the cyclic subgroups of order 9
                         # need a zuppo of odd prime-power, not prime, order
                         + [f"{family}({p})" for family in ("dihedron", "hosohedron")
                            for p in range(2, 16)])
def test_subgroup_classes_against_brute_force_catalog(name):
    g = entry_by_name(name).group()
    _assert_classes_match_brute_force(g, enumerate_subgroups(g))


def _assert_masked_lattice(g, allowed, subgroups, classes):
    found = enumerate_subgroups_within(g, allowed)
    assert (sum(c.size for c in found), len(found)) == (subgroups, classes)
    _assert_classes_match_brute_force(g, found, allowed)


@pytest.mark.parametrize("case, subgroups, classes", [(10, 140, 30), (11, 31, 6)])
def test_masked_lattice_against_brute_force(ws, case, subgroups, classes):
    """Inside the reference mask, which allows far more than the search's."""
    g = ws.universal(case).group
    _assert_masked_lattice(g, oracles.generator_pair_mask(g), subgroups, classes)


@pytest.mark.parametrize("case, subgroups, classes", [(10, 6, 4), (11, 1, 1), (12, 6, 4)])
def test_semisparse_mask_lattice_against_brute_force(ws, case, subgroups, classes):
    g = ws.universal(case).group
    _assert_masked_lattice(g, semisparse_allowed_mask(g), subgroups, classes)


def test_conjugacy_transitive(cube, cube_xyz):
    x, y, z = cube_xyz
    h1 = subgroup(cube, [cube.mul(x, y)])
    h2 = subgroup(cube, [cube.mul(y, z)])
    h3 = subgroup(cube, [cube.mul(x, z)])
    assert are_conjugate(cube, h1, h2)[0]
    assert are_conjugate(cube, h2, h3)[0]
    assert are_conjugate(cube, h1, h3)[0]


@given(st.integers(1, 40).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(st.permutations(range(n)), max_size=4))))
@settings(max_examples=60, deadline=None)
def test_orbit_min_labels_against_bfs(case):
    n, perms = case
    lab = orbit_min_labels([np.array(p) for p in perms], n)
    assert lab.tolist() == orbit_minima(perms, n)
