"""The acceptance suite: one test per criterion, each printing a row per check.

Run with `pytest tests/test_acceptance.py -v -s` to see the rows, or
`polyquot verify` for the same table from the CLI.  Criterion 13, the
large-scale stretch run, gives rows only in a stretch run: it is
`polyquot verify --case 13 --stretch`, about 26 s and a 312 MB peak on a
2-core machine, and its rows never fail the suite.
"""

import pytest

from polyquot.verify import CRITERIA, Workspace, criterion_13


def _run(ws, num):
    rows = CRITERIA[num][1](ws)
    failures = []
    for row in rows:
        status = "PASS" if row.ok else "FAIL"
        print(f"[{status}] criterion {row.criterion:2d}: {row.name}: "
              f"expected {row.expected!r}, got {row.actual!r}")
        if not row.ok:
            failures.append(row)
    assert not failures, [f"{r.name}: expected {r.expected!r}, got {r.actual!r}"
                          for r in failures]


@pytest.mark.parametrize("num", sorted(CRITERIA))
def test_criterion(ws, num):
    _run(ws, num)


def test_criterion_13_rows_from_an_existing_case20(monkeypatch):
    """The stretch rows without the stretch run: case 22's order is derived
    from case 20's by `classify_table1`."""
    from polyquot import amalgam
    from polyquot.amalgam import EXISTS, UniversalResult, case_spec
    from polyquot.config import RunConfig

    case20 = UniversalResult(case_spec(20).amalgam(), EXISTS, None, 120, 60,
                             order_reconstructed=600415200, intersection=True)
    monkeypatch.setattr(amalgam, "build_universal_over_facet", lambda case, max_cosets: case20)
    rows = criterion_13(Workspace(RunConfig(stretch=True)))
    assert [(r.name, r.actual, r.source, r.ok) for r in rows] == [
        ("case 20 facet-coset index", 5003460, "stretch", True),
        ("case 20 group order", 600415200, "stretch", True),
        ("case 20 intersection condition", True, "stretch", True),
        ("case 22 group order", 600415200, "stretch", True),
    ]


def test_criterion_13_has_no_rows_outside_a_stretch_run(ws):
    assert criterion_13(ws) == []
