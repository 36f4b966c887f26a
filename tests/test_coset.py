import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from polyquot import coset
from polyquot.amalgam import LARGE_CASES, TABLE1, amalgam_presentation, case_spec
from polyquot.catalog import (SchlafliSymbol, coxeter_presentation, petrie_relator,
                              rank3_catalog)
from polyquot.coset import (CLOSED, EXCEEDED, CosetTable, RelatorMismatch,
                            coset_enumeration, perm_rep)
from polyquot.presentations import Presentation, normalize_relators

from oracles import (ReferenceEnumerator, mulclose, signed_permutation_group,
                     full_icosahedral_order)


def cox(*entries):
    return coxeter_presentation(SchlafliSymbol(tuple(entries)))


def test_cube_order_against_signed_permutations():
    # the {4,3} group is the symmetry group of the 3-cube
    table = coset_enumeration(cox(4, 3))
    assert table.status == CLOSED
    assert table.n_cosets == len(signed_permutation_group(3)) == 48


def test_rank_one():
    table = coset_enumeration(Presentation(1, ()))
    assert table.n_cosets == 2


def test_hemidodecahedron():
    # {5,3} with the length-5 extra relator: half the icosahedral group
    pres = cox(5, 3).with_relators([petrie_relator(5)])
    table = coset_enumeration(pres)
    assert table.n_cosets == full_icosahedral_order() // 2 == 60


def test_exceeded_limit_is_reported():
    table = coset_enumeration(cox(4, 3), max_cosets=10)
    assert table.status == EXCEEDED
    assert table.cosets_defined == 10


def test_max_cosets_validation():
    with pytest.raises(ValueError):
        coset_enumeration(cox(4, 3), max_cosets=0)


@pytest.mark.parametrize("word", [(-1,), (3,)])
def test_subgroup_word_letters_are_checked(word):
    # rank 3: -1 would index the last column, 3 no column at all
    with pytest.raises(ValueError, match=rf"generator index {word[0]} .* \(rank 3\)"):
        coset_enumeration(cox(4, 3), subgroup_words=[(0,), word])


def test_subgroup_enumeration_counts_faces():
    # cosets of <s0,s1> in the cube group = the 6 squares
    table = coset_enumeration(cox(4, 3), subgroup_words=[(0,), (1,)])
    assert table.n_cosets == 6


def test_perm_rep_regular():
    g = perm_rep(coset_enumeration(cox(4, 3)))
    assert g.degree == 48 and g.order == 48


def test_perm_rep_rank_one_transposition():
    g = perm_rep(coset_enumeration(Presentation(1, ())))
    assert g.degree == 2
    assert list(g.gens[0]) == [1, 0]


def test_perm_rep_hemioctahedron():
    pres = cox(3, 4).with_relators([petrie_relator(3)])
    assert perm_rep(coset_enumeration(pres)).order == 24


def test_perm_rep_rejects_open_table():
    table = coset_enumeration(cox(4, 3), max_cosets=10)
    with pytest.raises(ValueError):
        perm_rep(table)


# the finite {p,q} string groups, small enough for closure oracles
FINITE_SYMBOLS = [(2, 2), (2, 3), (2, 4), (2, 5), (3, 2), (4, 2), (5, 2),
                  (3, 3), (3, 4), (4, 3), (3, 5), (5, 3)]


@pytest.mark.parametrize("symbol", FINITE_SYMBOLS)
def test_order_matches_word_closure(symbol):
    table = coset_enumeration(cox(*symbol))
    closure = mulclose([table.column(x) for x in range(table.rank)])
    assert table.n_cosets == len(closure)


@given(st.sampled_from(FINITE_SYMBOLS), st.data())
@settings(max_examples=40, deadline=None)
def test_closed_table_invariants(symbol, data):
    pres = cox(*symbol)
    nwords = data.draw(st.integers(0, 2))
    words = [tuple(data.draw(st.integers(0, 2)) for _ in range(data.draw(st.integers(1, 4))))
             for _ in range(nwords)]
    table = coset_enumeration(pres, subgroup_words=words)
    assert table.status == CLOSED
    n = table.n_cosets
    idx = np.arange(n)
    # every generator column is an involutory permutation of the cosets
    for x in range(table.rank):
        col = table.column(x)
        assert np.array_equal(np.sort(col), idx)
        assert np.array_equal(col[col], idx)
    # every relator traces back to the start from every coset
    for rel in pres.relators:
        img = idx
        for x in rel:
            img = table.column(x)[img]
        assert np.array_equal(img, idx)
    # coset count x subgroup order = group order
    total = coset_enumeration(pres).n_cosets
    assert total % n == 0


@given(st.sampled_from(FINITE_SYMBOLS))
@settings(max_examples=12, deadline=None)
def test_determinism(symbol):
    t1 = coset_enumeration(cox(*symbol))
    t2 = coset_enumeration(cox(*symbol))
    assert np.array_equal(t1.table, t2.table)


def test_perm_rep_rejects_a_table_that_breaks_a_relator():
    # two cosets swapped by every generator: the even Coxeter relators hold,
    # the Petrie relator (s0 s1 s2)^3 of odd length does not
    pres = cox(4, 3).with_relators([petrie_relator(3)])
    table = CosetTable(pres, (), np.array([[1, 1, 1], [0, 0, 0]], dtype=np.int32), CLOSED, 2)
    with pytest.raises(RelatorMismatch, match="not satisfied"):
        perm_rep(table)


def _assert_matches_reference(pres, words=()):
    table = coset_enumeration(pres, subgroup_words=words)
    status, rows, defined = ReferenceEnumerator(pres, coset.DEFAULT_MAX_COSETS).run(words)
    assert (table.status, table.cosets_defined) == (status, defined)
    assert table.table.tolist() == rows
    return table


# cosets each closed Table 1 enumeration defines, dead ones included, as the
# reference enumerator defines them
TABLE1_COSETS_DEFINED = {1: 81, 2: 347, 3: 98, 4: 58, 5: 103, 6: 2950, 7: 660,
                         8: 3015, 9: 88, 10: 192, 11: 96, 12: 192, 13: 3842,
                         14: 202, 15: 281, 16: 338, 17: 261, 18: 197, 19: 3841,
                         21: 3420}


@pytest.mark.parametrize("number", [c.number for c in TABLE1 if c.number not in LARGE_CASES])
def test_table1_against_reference_enumerator(number):
    table = _assert_matches_reference(amalgam_presentation(case_spec(number).amalgam()))
    assert table.status == CLOSED
    assert table.cosets_defined == TABLE1_COSETS_DEFINED[number]


@given(st.sampled_from(FINITE_SYMBOLS), st.data())
@settings(max_examples=60, deadline=None)
def test_finite_symbols_against_reference_enumerator(symbol, data):
    # a Coxeter relator reversed is one of its own rotations; a Petrie
    # relator's reverse is not, so it needs the reversed rotations in `edp`
    petrie = data.draw(st.sampled_from([(), (petrie_relator(3),), (petrie_relator(5),)]))
    words = data.draw(st.lists(st.lists(st.integers(0, 2), min_size=1, max_size=5)
                               .map(tuple), max_size=3))
    _assert_matches_reference(cox(*symbol).with_relators(petrie), words)


def _assert_edp_is_every_rotation(pres):
    # `edp` rotates a relator only by its least period; the set must be that
    # of every rotation of every relator and of its reverse
    naive = {w[i:] + w[:i] for rel in normalize_relators(pres.relators)
             for w in (rel, rel[::-1]) for i in range(len(w))}
    edp = coset._Enumerator(pres, 10).edp
    assert [w for x in range(pres.rank) for w, _ in edp[x]] == sorted(naive)


@pytest.mark.parametrize("pres", [e.presentation() for e in rank3_catalog(degenerate=True)]
                         + [amalgam_presentation(c.amalgam()) for c in TABLE1])
def test_relator_rotations_match_every_rotation(pres):
    _assert_edp_is_every_rotation(pres)


@given(rels=st.lists(st.lists(st.integers(0, 2), min_size=1, max_size=12).map(tuple),
                     min_size=1, max_size=3))
@settings(max_examples=100, deadline=None)
def test_rotations_of_any_relators(rels):
    # words such as 01010, whose border 010 is no period dividing the length
    _assert_edp_is_every_rotation(Presentation(3, tuple(rels)))


CASE20_FACET_WORDS = [(0,), (1,), (2,)]


def test_case20_prefix_against_reference_enumerator():
    # cut at 20,000 cosets the table is open: compare the live cosets and
    # their rows as numbered, after the same closure
    pres = amalgam_presentation(case_spec(20).amalgam())
    ours = coset._Enumerator(pres, 20_000)
    ref = ReferenceEnumerator(pres, 20_000)
    assert ours.run(CASE20_FACET_WORDS)[0] == ref.run(CASE20_FACET_WORDS)[0] == EXCEEDED
    assert len(ours.p) == len(ref.p) == 20_000
    live = [a for a in range(20_000) if ref.p[a] == a]
    assert [a for a in range(20_000) if ours.p[a] == a] == live
    assert [[col[a] for col in ours.cols] for a in live] == [ref.table[a] for a in live]


def test_table_memory_per_coset():
    # flat int32 columns, parents and deduction stack: about 21 B per coset,
    # where a list of lists takes about 154 B
    pres = amalgam_presentation(case_spec(20).amalgam())
    tracemalloc.start()
    try:
        table = coset_enumeration(pres, CASE20_FACET_WORDS, max_cosets=10_000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert table.cosets_defined == 10_000
    assert peak <= 32 * table.cosets_defined
