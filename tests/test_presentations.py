import pytest
from hypothesis import given, settings, strategies as st

from polyquot.presentations import Presentation, cyclic_forms, format_presentation, power_word

from oracles import all_cyclic_forms, read_presentation


def test_power_word():
    assert power_word((0, 1), 4) == (0, 1, 0, 1, 0, 1, 0, 1)


def test_cyclic_forms():
    # (s1 s2 s3)^5: the 6 rotations of the period and of its reverse
    assert cyclic_forms((1, 2, 3) * 5) == (
        [(1, 2, 3), (2, 3, 1), (3, 1, 2), (3, 2, 1), (2, 1, 3), (1, 3, 2)], 5)
    assert cyclic_forms((0, 2, 0, 2)) == ([(0, 2), (2, 0), (2, 0), (0, 2)], 2)
    assert cyclic_forms(()) == ([()], 1)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 3), min_size=1, max_size=6), st.integers(1, 4))
def test_cyclic_forms_are_every_rotation_of_the_word_and_its_reverse(period, k):
    word = tuple(period) * k
    forms, e = cyclic_forms(word)
    assert len(forms[0]) * e == len(word)
    assert {w * e for w in forms} == all_cyclic_forms(word)


def test_validation():
    with pytest.raises(ValueError):
        Presentation(2, ((0, 2),))
    with pytest.raises(ValueError):
        Presentation(0, ())


def test_roundtrip():
    pres = Presentation(3, ((0, 1, 0, 1), (1, 2, 1, 2, 1, 2), (0, 2, 0, 2)))
    text = format_presentation(pres, comment="a string group")
    assert read_presentation(text) == pres
