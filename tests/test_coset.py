import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from polyquot.catalog import SchlafliSymbol, coxeter_presentation, petrie_relator
from polyquot.coset import (CLOSED, EXCEEDED, CosetTable, RelatorMismatch,
                            coset_enumeration, perm_rep)
from polyquot.presentations import Presentation

from oracles import mulclose, signed_permutation_group, full_icosahedral_order


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
    assert table.cosets_defined >= 10


def test_max_cosets_validation():
    with pytest.raises(ValueError):
        coset_enumeration(cox(4, 3), max_cosets=0)


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
