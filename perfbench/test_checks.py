"""Tests of the benchmark's own checks and tracer.

    python3 -m pytest perfbench -q

Every check must pass a correct summary and fail a wrong one.  The summaries
here are written by hand from the facts in checks.py, so these tests run in
a fraction of a second and never run the pipeline.
"""

import copy
import sys
from pathlib import Path

import pytest

import checks
from tracing import METRICS, Tracer

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def _quotient(order, n, regular, vfigs=None, counts=None):
    return {"subgroup_order": n, "flags": order // n, "regular": regular,
            "section_regular": regular, "normal": regular, "reported_normal": regular,
            "vfigs": vfigs or {"hemi-icosahedron": 1}, "face_counts": counts or []}


def case13_summary():
    order = checks.CASE13_ORDER
    qs = [_quotient(order, 1, True), _quotient(order, 2, True), _quotient(order, 4, True)]
    qs += [_quotient(order, 2, False) for _ in range(checks.CASE13_QUOTIENTS - 3)]
    return {"outcome": "exists", "order": order, "quotients": qs}


def regular_summary(q):
    order = checks.l2_order(q)
    return {"outcome": "exists", "order": order,
            "quotients": [_quotient(order, 1, True, counts=checks.FACE_COUNTS[q])]}


def table1_rows():
    rows = {}
    for case, (facet, vfig, outcome, order) in checks.TABLE1.items():
        full = outcome == "exists"
        rows[case] = {"facet": facet, "vfig": vfig,
                      "outcome": "collapsed" if outcome == "none" else outcome,
                      "order": order,
                      "facet_order": checks.BLOCK_ORDER[facet] if full else 1,
                      "vfig_order": checks.BLOCK_ORDER[vfig] if full else 1}
        if outcome == "exceeded-limit":
            rows[case]["facet_order"] = rows[case]["vfig_order"] = None
    return rows


def test_correct_summaries_pass():
    assert checks.check_quotients_case13(case13_summary(), vfig_quotients=1) == []
    assert checks.check_quotients_regular(regular_summary(11), 11) == []
    assert checks.check_quotients_regular(regular_summary(19), 19) == []
    assert checks.check_table1(table1_rows()) == []
    budget = 1000
    assert checks.check_stretch_prefix(
        {"outcome": "exceeded-limit", "cosets_defined": budget}, budget) == []


def _spoil(summary, path, value):
    out = copy.deepcopy(summary)
    node = out
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return out


@pytest.mark.parametrize("path, value", [
    (("order",), 3841),
    (("outcome",), "collapsed"),
    (("quotients", 5, "regular"), True),           # regular, N not normal
    (("quotients", 5, "reported_normal"), True),   # program's normality is wrong
    (("quotients", 0, "regular"), False),          # 2 regular, N normal but not regular
    (("quotients", 3, "flags"), 3840),             # not |G|/|N| flags
    (("quotients", 4, "vfigs"), {"hemi-icosahedron": 1, "hemidodecahedron": 1}),
])
def test_case13_wrong_answers_fail(path, value):
    assert checks.check_quotients_case13(_spoil(case13_summary(), path, value), 1)


def test_case13_vertex_figure_with_a_proper_quotient_fails():
    assert checks.check_quotients_case13(case13_summary(), vfig_quotients=2)


def test_case13_sixty_nine_quotients_fail():
    s = case13_summary()
    s["quotients"].pop()
    assert checks.check_quotients_case13(s, 1)


@pytest.mark.parametrize("q, path, value", [
    (11, ("order",), 661),
    (19, ("quotients", 0, "face_counts"), [57, 171, 171, 56]),
    (19, ("quotients", 0, "section_regular"), False),
    (11, ("quotients", 0, "normal"), False),       # a non-normal regular record
    (19, ("quotients", 0, "flags"), 1710),
])
def test_regular_wrong_answers_fail(q, path, value):
    assert checks.check_quotients_regular(_spoil(regular_summary(q), path, value), q)


def test_regular_second_quotient_fails():
    s = regular_summary(11)
    s["quotients"].append(_quotient(s["order"], 2, False))
    assert checks.check_quotients_regular(s, 11)


@pytest.mark.parametrize("path, value", [
    ((7, "outcome"), "collapsed"),
    ((13, "order"), 1920),
    ((19, "order"), 1920),              # also breaks duality with case 13
    ((9, "order"), 48),                 # dual of case 1 with another order
    ((21, "facet_order"), 30),          # exists, but its facet group collapsed
    ((6, "order"), 60),
    ((20, "outcome"), "exists"),
    ((2, "outcome"), "exists"),
    ((3, "facet"), "cube"),
])
def test_table1_wrong_answers_fail(path, value):
    assert checks.check_table1(_spoil(table1_rows(), path, value))


def test_table1_collapsed_with_full_parabolics_fails():
    rows = table1_rows()
    rows[1]["facet_order"], rows[1]["vfig_order"] = 24, 24
    assert checks.check_table1(rows)


def test_table1_missing_case_fails():
    rows = table1_rows()
    del rows[22]
    assert checks.check_table1(rows)


def test_stretch_prefix_wrong_answers_fail():
    budget = 1000
    assert checks.check_stretch_prefix({"outcome": "exists", "cosets_defined": budget}, budget)
    assert checks.check_stretch_prefix(
        {"outcome": "exceeded-limit", "cosets_defined": budget - 1}, budget)
    closed = checks.CASE20_FACETS
    assert checks.check_stretch_prefix({"outcome": "exists", "cosets_defined": closed}, closed)


def test_self_time_excludes_child_spans():
    t = Tracer()
    t.begin_op()
    # outer 0..10 s with a child 1..5 s; one more top-level span 10..11 s
    t.spans = [["coset.enum", 0.0, 10.0, -1, 4.0], ["permgroups.table", 1.0, 5.0, 0, 0.0],
               ["permgroups.table", 10.0, 11.0, -1, 0.0]]
    t.counts["coset.cosets_defined"] = 300
    t.end_op(0, "op", 11.5)
    m = t.round_metrics(0, 12.0)
    assert m["coset.enum_s"] == 6.0
    assert m["permgroups.table_s"] == 5.0
    assert m["coset.cosets_per_s"] == 50.0
    assert m["trace.unattributed_s"] == 1.0


def test_tracer_wraps_and_restores_a_small_case():
    from polyquot import amalgam, catalog, coset

    originals = (amalgam.build_universal, amalgam.coset_enumeration, catalog.coset_enumeration)
    t = Tracer()
    t.install()
    try:
        assert amalgam.coset_enumeration is coset.coset_enumeration is not originals[1]
        t.begin_op()
        res = amalgam.build_universal(amalgam.case_spec(11).amalgam())
        t.end_op(0, "case 11", 1.0)
    finally:
        t.uninstall()
    assert (amalgam.build_universal, amalgam.coset_enumeration,
            catalog.coset_enumeration) == originals
    assert res.order == 96
    m = t.layer_metrics([(0, 1.0)], [1.0])
    assert set(m) == set(METRICS) and not t.absent
    assert m["coset.cosets_defined"]["value"] >= 96
    assert m["amalgam.build_s"]["value"] > 0 and m["permgroups.elements_s"]["value"] > 0


def test_missing_name_is_reported_absent(monkeypatch):
    from polyquot import quotients

    monkeypatch.delattr(quotients, "semisparse_allowed_mask")
    t = Tracer()
    t.install()
    t.uninstall()
    assert t.absent == {"quotients.mask_s"}
    t.begin_op()
    t.end_op(0, "nothing", 1.0)
    assert "quotients.mask_s" not in t.layer_metrics([(0, 1.0)], [1.0])
