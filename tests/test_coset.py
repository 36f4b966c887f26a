import hashlib
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from polyquot import coset
from polyquot.amalgam import LARGE_CASES, TABLE1, amalgam_presentation, case_spec
from polyquot.catalog import (SchlafliSymbol, coxeter_presentation, petrie_relator,
                              rank3_catalog)
from polyquot.coset import (CLOSED, EXCEEDED, CosetTable, RelatorMismatch,
                            coset_enumeration, perm_rep)
from polyquot.presentations import Presentation, normalize_relators

from oracles import (ReferenceEnumerator, all_cyclic_forms, mulclose, signed_permutation_group,
                     full_icosahedral_order)


def cox(*entries):
    return coxeter_presentation(SchlafliSymbol(tuple(entries)))


def test_scans_read_every_cyclic_form_of_each_relator_once():
    # edp[x] lists, sorted, each distinct rotation of a relator or of its
    # reverse that starts with x, bound to the columns it reads
    for pres in ([amalgam_presentation(c.amalgam()) for c in TABLE1]
                 + [e.presentation() for e in rank3_catalog(degenerate=True)]):
        e = coset._Enumerator(pres, 10)
        forms = sorted(set().union(*map(all_cyclic_forms, normalize_relators(pres.relators))))
        assert [[w for w, _ in row] for row in e.edp] == [
            [w for w in forms if w[0] == x] for x in range(pres.rank)]
        assert all(c is e.cols[x] for row in e.edp for w, wc in row for x, c in zip(w, wc))


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
    # a budget that is no integer is refused like one below 1, not taken
    # as a bound to compare with
    for max_cosets in (0, -3, 30.5, 48.0, "48"):
        with pytest.raises(ValueError, match="max_cosets must be an integer >= 1"):
            coset_enumeration(cox(4, 3), max_cosets=max_cosets)


@pytest.mark.parametrize("pres, max_cosets, status", [
    (cox(4, 3), 48, CLOSED), (cox(4, 3), 47, EXCEEDED),
    (Presentation(1, ()), 2, CLOSED), (Presentation(1, ()), 1, EXCEEDED),
])
def test_buffers_end_at_the_cosets_defined(pres, max_cosets, status):
    # {4,3} defines exactly its 48 cosets and rank 1 its 2: a budget of
    # that many closes, one less is cut there; the buffers grow in steps
    # but never past the budget, and a closed run trims them
    e = coset._Enumerator(pres, max_cosets)
    outcome, _, defined = e.run(())
    assert (outcome, defined) == (status, max_cosets)
    assert len(e.p) == max_cosets
    assert [len(col) for col in e.cols] == [max_cosets] * pres.rank


@pytest.mark.parametrize("word", [(-1,), (3,), ((0, 1),)])
def test_subgroup_word_letters_are_checked(word):
    # rank 3: -1 would index the last column, 3 no column at all, and a
    # word (0, 1) given the old way is no generator index
    with pytest.raises(ValueError, match=rf"subgroup generator {re.escape(repr(word[0]))} .* \(rank 3\)"):
        coset_enumeration(cox(4, 3), (0, *word))


def test_subgroup_enumeration_counts_faces():
    # cosets of <s0,s1> in the cube group = the 6 squares
    table = coset_enumeration(cox(4, 3), (0, 1))
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
    subgroup = data.draw(st.lists(st.integers(0, 2), max_size=4))
    table = coset_enumeration(pres, subgroup)
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
    g = perm_rep(coset_enumeration(pres))
    assert n * g.parabolic(subgroup).order == g.order


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


@pytest.mark.parametrize("entries, extra, order", [
    ((3, 5), (2, 2, 0, 0, 1), 1),        # s1 = 1, so s0 = s2 = 1 too
    ((4, 3, 5), (2, 3, 3, 1, 1), 2),     # s2 = 1, so s1 = s3 = 1: <s0>
])
def test_coincidence_at_a_dead_coset_keeps_its_deduction(entries, extra, order):
    """A coincidence that moves an edge of a coset already merged away (a
    fixed point of the dead coset, say) must still scan the moved edge: these
    enumerations once closed with tables that break (s1 s2)^5 or (s2 s3)^5."""
    pres = cox(*entries).with_relators([extra])
    assert perm_rep(_assert_matches_reference(pres)).order == order


def _assert_matches_reference(pres, subgroup=(), max_cosets=coset.DEFAULT_MAX_COSETS):
    """The enumeration's status, cosets defined and closed table are the
    reference's, and so are its live cosets and their rows as numbered, which
    is the whole state when the budget cuts the run and the table is open.
    The reference fills general subgroup words; the parabolic <s_j : j in J>
    is the words (j,)."""
    subgroup = tuple(subgroup)
    ours, ref = coset._Enumerator(pres, max_cosets), ReferenceEnumerator(pres, max_cosets)
    status, table, defined = ours.run(subgroup)
    assert (status, table.tolist(), defined) == ref.run([(j,) for j in subgroup])
    assert len(ours.p) == len(ref.p) == defined
    live = [a for a in range(defined) if ref.p[a] == a]
    assert [a for a in range(defined) if ours.p[a] == a] == live
    assert [[col[a] for col in ours.cols] for a in live] == [ref.table[a] for a in live]
    return CosetTable(pres, subgroup, table, status, defined)


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
    subgroup = data.draw(st.lists(st.integers(0, 2), max_size=4))
    _assert_matches_reference(cox(*symbol).with_relators(petrie), subgroup)


@st.composite
def _coxeter_plus_relator(draw):
    """A rank-3 or rank-4 Coxeter presentation, one extra relator of 3-8
    letters, and the trivial subgroup or a maximal parabolic."""
    rank = draw(st.sampled_from([3, 4]))
    entries = tuple(draw(st.integers(2, 6)) for _ in range(rank - 1))
    extra = tuple(draw(st.lists(st.integers(0, rank - 1), min_size=3, max_size=8)))
    drop = draw(st.sampled_from([None, *range(rank)]))
    subgroup = () if drop is None else tuple(j for j in range(rank) if j != drop)
    return entries, extra, subgroup


@given(_coxeter_plus_relator(), st.integers(1, 3000))
@settings(max_examples=150, deadline=None)
# an enumerator that keeps alpha·x across a coincidence, after alpha·x has
# been merged away, defines 10 cosets where these define 9, or breaks the
# table of <s1>'s cosets
@example(((4, 3), (2, 0, 1, 1, 2, 2, 0, 0), ()), 3000)
@example(((5, 3), (0, 2, 2, 2, 0, 0, 1, 1), ()), 3000)
@example(((5, 4, 4), (3, 0, 3, 3, 2, 1), (1,)), 3000)
def test_coxeter_plus_relator_against_reference_enumerator(case, max_cosets):
    # a budget anywhere up to 3000 cuts the run at any place relative to
    # the steps in which the table grows
    entries, extra, subgroup = case
    _assert_matches_reference(cox(*entries).with_relators([extra]), subgroup, max_cosets=max_cosets)


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


CASE20_FACET = (0, 1, 2)


def test_case20_prefix_against_reference_enumerator():
    table = _assert_matches_reference(amalgam_presentation(case_spec(20).amalgam()),
                                      CASE20_FACET, max_cosets=20_000)
    assert (table.status, table.cosets_defined) == (EXCEEDED, 20_000)


def test_case20_stretch_prefix_state():
    # the stretch-prefix benchmark's enumeration, pinned so that a faster
    # enumerator must do the same work: the parents and the four columns
    # (native int32) at the 200,000-coset cut
    pres = amalgam_presentation(case_spec(20).amalgam())
    ours = coset._Enumerator(pres, 200_000)
    status, _, defined = ours.run(CASE20_FACET)
    assert (status, defined) == (EXCEEDED, 200_000)
    assert sum(ours.p[a] == a for a in range(defined)) == 199_925
    digest = hashlib.sha256(b"".join(bytes(a) for a in (ours.p, *ours.cols))).hexdigest()
    assert digest == "24a7aecb739fc72f5b1b0e9ff221a8d9fb978c64079a83ac4340daaada98b83c"


def test_table_memory_per_coset():
    # flat int32 columns, parents and deduction stack: about 21 B per coset,
    # where a list of lists takes about 154 B
    pres = amalgam_presentation(case_spec(20).amalgam())
    tracemalloc.start()
    try:
        table = coset_enumeration(pres, CASE20_FACET, max_cosets=10_000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert table.cosets_defined == 10_000
    assert peak <= 32 * table.cosets_defined
