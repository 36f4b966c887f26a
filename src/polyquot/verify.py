"""The acceptance checks: every classification claim as an expected/actual row.

Each criterion is a function returning CheckRows; the Workspace memoizes the
heavy artifacts (one `classify_table1` call, quotient reports) so the rows can
be run individually or all together with shared work.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import catalog
from .amalgam import (EXISTS, COLLAPSED, NOT_POLYTOPAL, amalgam_presentation, case_spec,
                      classify_table1, twisted_over)
from .config import RunConfig
from .coset import EXCEEDED, broken_relator
from .permgroups import BoundExceeded
from .polytopes import (are_isomorphic, dual, is_polytopal, is_regular,
                        polytope_from_group, section)
from .quotients import classify_quotients, quotient_candidate, semisparse_classes

# quotient classes of each desk-scale universal, by Table 1 case number
EXPECTED_QUOTIENTS = {7: 1, 10: 4, 11: 1, 12: 4, 13: 70, 19: 70, 21: 1}

# the two large cases, quoted from the published classification, never
# computed: (quotients, regular, section regular)
PAPER_QUOTED = {20: (145, 3, 70), 22: (145, 3, 70)}

# quotients shared between universals get counted once per containing case:
# the self-dual universal of case 21 is also a quotient in cases 20 and 22,
# and the self-dual universal of case 11 is also a quotient in cases 10 and 12
SHARED_QUOTIENTS = {
    "case-21 universal": (20, 21, 22),
    "case-11 universal": (10, 11, 12),
}

# degenerate universal polytopes that are not quotients of any nondegenerate
# one (the other four degenerate universals coincide with quotients above)
DEGENERATE_EXTRAS = [
    "{{2,4},{4,3}_3}",
    "{{2,5},{5,3}_5}",
    "dual of {{2,4},{4,3}_3}",
    "dual of {{2,5},{5,3}_5}",
]


@dataclass
class CheckRow:
    criterion: int
    name: str
    expected: object
    actual: object
    source: str = "computed"

    @property
    def ok(self) -> bool:
        return self.expected == self.actual


class Workspace:
    """Memoized heavy artifacts shared across criteria: the run's one
    `classify_table1` call, made on first need, and the quotient reports."""

    def __init__(self, config: RunConfig | None = None):
        self.config = config or RunConfig()
        self._table1 = None
        self._report = {}

    def build(self, case: int):
        """The case's Table 1 result, whatever its outcome."""
        if self._table1 is None:
            self._table1 = classify_table1(self.config.max_cosets, stretch=self.config.stretch)
        return self._table1[case]

    def universal(self, case: int):
        """The case's Table 1 result, for a criterion that needs its group or
        polytope: BoundExceeded names a case that hit the coset budget."""
        r = self.build(case)
        if r.outcome == EXCEEDED:
            raise BoundExceeded(f"case {case}: coset enumeration exceeded the limit "
                                f"of {self.config.max_cosets} cosets")
        return r

    def report(self, case: int):
        if case not in self._report:
            r = self.universal(case)
            self._report[case] = classify_quotients(
                r.group, f"case{case}", self.config.subgroup_order_bound)
        return self._report[case]


def criterion_1(ws: Workspace) -> list[CheckRow]:
    """Catalog group orders."""
    rows = []
    expected = {"tetrahedron": 24, "cube": 48, "octahedron": 48,
                "dodecahedron": 120, "icosahedron": 120,
                "hemicube": 24, "hemicross": 24,
                "hemidodecahedron": 60, "hemi-icosahedron": 60}
    for name, order in expected.items():
        rows.append(CheckRow(1, f"order of {name}", order,
                             catalog.entry_by_name(name).group().order))
    for spherical in ("cube", "octahedron", "dodecahedron", "icosahedron"):
        e = catalog.entry_by_name(spherical)
        q = catalog.central_quotient(e)
        cq = catalog.central_quotient_group(e)
        rows.append(CheckRow(1, f"central quotient of {spherical}",
                             e.group().order // 2, cq.order))
        rows.append(CheckRow(1, f"central quotient of {spherical} is {q.name}", q.name,
                             catalog.identify(polytope_from_group(cq))))
    return rows


def criterion_2(ws: Workspace) -> list[CheckRow]:
    """The cube's semisparse classes and quotients."""
    g = catalog.entry_by_name("cube").group()
    p = polytope_from_group(g)
    classes = semisparse_classes(g, ws.config.subgroup_order_bound)
    rows = [CheckRow(2, "cube semisparse class count", 4, len(classes))]
    profile = sorted((c.order, c.size, c.size == 1) for c in classes)
    rows.append(CheckRow(2, "cube semisparse classes (order, size, normal)",
                         [(1, 1, True), (2, 1, True), (2, 3, False), (4, 1, True)],
                         profile))
    # the classes passed the ground truth: build each quotient, check none again
    q = {(c.order, c.size): quotient_candidate(g, c.rep.elem_ids)[0] for c in classes}
    rows.append(CheckRow(2, "cube/trivial is the cube itself", True,
                         are_isomorphic(q[(1, 1)], p)))
    rows.append(CheckRow(2, "cube/<xyz> is the hemicube", True,
                         are_isomorphic(q[(2, 1)], catalog.entry_by_name("hemicube").polytope())))
    hoso = catalog.entry_by_name("hosohedron(3)").polytope()
    rows.append(CheckRow(2, "cube/<xy,yz> is {2,3}", True, are_isomorphic(q[(4, 1)], hoso)))
    rows.append(CheckRow(2, "cube/<xy> is the digonal prism (4,6,4; nonregular)",
                         ([4, 6, 4], False), (q[(2, 3)].counts, is_regular(q[(2, 3)]))))
    return rows


def criterion_3(ws: Workspace) -> list[CheckRow]:
    """The hemicube has no proper quotients."""
    g = catalog.entry_by_name("hemicube").group()
    return [CheckRow(3, "hemicube quotient count", 1,
                     len(semisparse_classes(g, ws.config.subgroup_order_bound)))]


def criterion_4(ws: Workspace) -> list[CheckRow]:
    """Case 10: order, twisting cross-check, the four quotients."""
    r = ws.universal(10)
    rows = [CheckRow(4, "case 10 outcome", EXISTS, r.outcome),
            CheckRow(4, "case 10 group order", 192, r.order)]
    tg = twisted_over(catalog.entry_by_name("hemicross"))
    rows.append(CheckRow(4, "twisted group over hemicross: order", 192, tg.order))
    rows.append(CheckRow(4, "twisted polytope isomorphic to universal", True,
                         are_isomorphic(polytope_from_group(tg), r.polytope())))
    rep = ws.report(10)
    rows.append(CheckRow(4, "case 10 quotient classes", EXPECTED_QUOTIENTS[10],
                         rep.total_quotients))
    rows.append(CheckRow(4, "case 10 regular quotients", 3, rep.regular_count))
    digonal = [q for q in rep.records if not q.is_regular]
    ok_digon = (len(digonal) == 1 and
                all("digon-prism" == _facet_shape(q) for q in digonal))
    rows.append(CheckRow(4, "one nonregular quotient, facets digonal prisms",
                         True, ok_digon))
    hoso = [q for q in rep.records
            if q.is_regular and set(q.facet_classes) == {"hosohedron(3)"}]
    rows.append(CheckRow(4, "the regular {{2,3},{3,4}_3} appears", 1, len(hoso)))
    return rows


def _facet_shape(q) -> str:
    pol = q.polytope
    shapes = set()
    for f in range(pol.counts[pol.rank - 1]):
        s = section(pol, (pol.rank - 1, f), None)
        if s.counts == [4, 6, 4] and s.n_flags == 24:
            shapes.add("digon-prism")
        else:
            shapes.add("other")
    return "digon-prism" if shapes == {"digon-prism"} else "other"


def criterion_5(ws: Workspace) -> list[CheckRow]:
    r = ws.universal(11)
    rep = ws.report(11)
    return [CheckRow(5, "case 11 group order", 96, r.order),
            CheckRow(5, "case 11 quotient classes", EXPECTED_QUOTIENTS[11],
                     rep.total_quotients)]


def criterion_6(ws: Workspace) -> list[CheckRow]:
    r = ws.universal(7)
    p = r.polytope()
    rep = ws.report(7)
    return [CheckRow(6, "11-cell group order", 660, r.order),
            CheckRow(6, "11-cell facet count", 11, p.counts[-1]),
            CheckRow(6, "11-cell self-dual", True, are_isomorphic(p, dual(p))),
            CheckRow(6, "11-cell proper quotients", EXPECTED_QUOTIENTS[7],
                     rep.total_quotients)]


def criterion_7(ws: Workspace) -> list[CheckRow]:
    r = ws.universal(21)
    p = r.polytope()
    rep = ws.report(21)
    rows = [CheckRow(7, "57-cell group order", 3420, r.order),
            CheckRow(7, "57-cell facet count", 57, p.counts[-1]),
            CheckRow(7, "57-cell self-dual", True, are_isomorphic(p, dual(p))),
            CheckRow(7, "57-cell proper quotients", EXPECTED_QUOTIENTS[21],
                     rep.total_quotients)]
    pres20 = amalgam_presentation(case_spec(20).amalgam())
    rows.append(CheckRow(7, "57-cell group satisfies case-20 presentation", True,
                         broken_relator(r.group.gens, pres20.relators) is None))
    return rows


def criterion_8(ws: Workspace) -> list[CheckRow]:
    """Case 13, the heaviest desk-scale case: 2^6⋊A_5 of order 2^6*60."""
    r = ws.universal(13)
    p = r.polytope()
    rep = ws.report(13)
    rows = [CheckRow(8, "case 13 group order (2^6 * 60)", 2**6 * 60, r.order),
            CheckRow(8, "case 13 facet count", 80, p.counts[-1]),
            CheckRow(8, "case 13 vertex count", 64, p.counts[0]),
            CheckRow(8, "case 13 quotient classes", EXPECTED_QUOTIENTS[13],
                     rep.total_quotients),
            CheckRow(8, "case 13 regular quotients", 3, rep.regular_count)]
    same_type = [q for q in rep.records if not q.is_regular
                 and set(q.facet_classes) == {"cube"}
                 and set(q.vfig_classes) == {"hemi-icosahedron"}]
    rows.append(CheckRow(8, "further nonregular of type {{4,3},{3,5}_5}", 9, len(same_type)))
    mixed = [q for q in rep.records if set(q.facet_classes) == {"cube", "hemicube"}]
    rows.append(CheckRow(8, "mixed cube/hemicube quotients", 8, len(mixed)))
    rows.append(CheckRow(8, "mixed quotients all of type {4,3,5}", True,
                         all(q.type_symbol == (4, 3, 5) for q in mixed)))
    rows.append(CheckRow(8, "mixed quotients not section regular", True,
                         not any(q.is_section_regular for q in mixed)))
    return rows


def criterion_9(ws: Workspace) -> list[CheckRow]:
    """Nonexistence: collapses, including the two that collapse to the 11-cell."""
    rows = []
    for case in (1, 2, 3, 4, 5, 14, 15):
        r = ws.universal(case)
        rows.append(CheckRow(9, f"case {case} reports no polytope", True,
                             r.outcome in (COLLAPSED, NOT_POLYTOPAL)))
    for case in (6, 8):
        r = ws.universal(case)
        rows.append(CheckRow(9, f"case {case} collapses", COLLAPSED, r.outcome))
        rows.append(CheckRow(9, f"case {case} collapsed group is the 11-cell's", 660, r.order))
    return rows


def criterion_10(ws: Workspace) -> list[CheckRow]:
    """Polytopality of everything built; regular iff normal on every class,
    regularity decided by certificates on each quotient."""
    rows = []
    poly_ok = True
    reg_ok = True
    for case in (7, 10, 11, 12, 13, 19, 21):
        rep = ws.report(case)
        up = ws.universal(case).polytope()
        ok, why = is_polytopal(up.counts, up.mats)
        poly_ok &= ok
        for q in rep.records:
            ok, why = is_polytopal(q.polytope.counts, q.polytope.mats)
            poly_ok &= ok
            reg_ok &= (is_regular(q.polytope) == q.is_regular == q.is_normal
                       == (q.class_size == 1))
    rows.append(CheckRow(10, "all universals and quotients pass the axiom suite", True, poly_ok))
    rows.append(CheckRow(10, "is_regular iff subgroup normal on every class", True, reg_ok))
    return rows


def criterion_11(ws: Workspace) -> list[CheckRow]:
    """Finiteness at implemented scale: every case 1-19, 21 closes."""
    closed = True
    for case in list(range(1, 20)) + [21]:
        closed &= (ws.build(case).outcome != EXCEEDED)
    return [CheckRow(11, "cases 1-19, 21 close under default bounds", True, closed)]


def criterion_12(ws: Workspace) -> list[CheckRow]:
    """The classification totals: the desk-scale reports plus the quoted
    cases, each shared quotient counted once; the abstract's grand total adds
    the degenerate universals that are not quotients."""
    counts = [(r.total_quotients, r.regular_count, r.section_regular_count)
              for r in map(ws.report, sorted(EXPECTED_QUOTIENTS))]
    total, regular, section_regular = map(sum, zip(*counts, *PAPER_QUOTED.values()))
    # every case of a shared quotient is computed or quoted, so each shared
    # quotient is counted once per case after its first
    over = sum(len(cases) - 1 for cases in SHARED_QUOTIENTS.values())
    return [
        CheckRow(12, "total quotients", 437, total - over, source="computed+paper"),
        CheckRow(12, "regular quotients", 17, regular - over, source="computed+paper"),
        CheckRow(12, "section regular quotients", 169, section_regular - over,
                 source="computed+paper"),
        CheckRow(12, "per-case sum with multiplicity", 441, total, source="computed+paper"),
        CheckRow(12, "abstract total (437 + 4 degenerate)", 441,
                 total - over + len(DEGENERATE_EXTRAS), source="computed+paper"),
    ]


def criterion_13(ws: Workspace) -> list[CheckRow]:
    """Stretch: case 20 over its facet subgroup and its dual case 22, read
    from the Workspace's stretch `classify_table1` call: case 20's index,
    order and intersection condition, and case 22's order; no rows unless
    the run is a stretch run, and never fails the suite."""
    if not ws.config.stretch:
        return []
    res = ws.build(20)
    if res.outcome != EXISTS:
        return [CheckRow(13, "case 20 stretch outcome", EXISTS, res.outcome, source="stretch")]
    return [
        CheckRow(13, "case 20 facet-coset index", 5003460,
                 res.order // res.facet_subgroup_order, source="stretch"),
        CheckRow(13, "case 20 group order", 600415200, res.order, source="stretch"),
        CheckRow(13, "case 20 intersection condition", True, res.intersection,
                 source="stretch"),
        CheckRow(13, "case 22 group order", 600415200, ws.build(22).order, source="stretch"),
    ]


CRITERIA = {
    1: ("catalog group orders", criterion_1),
    2: ("cube semisparse classes and quotients", criterion_2),
    3: ("hemicube has no proper quotients", criterion_3),
    4: ("case 10 universal, twisting, four quotients", criterion_4),
    5: ("case 11 universal and its single quotient", criterion_5),
    6: ("case 7: the 11-cell", criterion_6),
    7: ("case 21: the 57-cell", criterion_7),
    8: ("case 13: 70 quotients", criterion_8),
    9: ("nonexistence and collapse cases", criterion_9),
    10: ("polytopality and regularity/normality", criterion_10),
    11: ("finiteness under default bounds", criterion_11),
    12: ("aggregate classification totals", criterion_12),
    13: ("stretch: case 20 over its facet subgroup, and case 22", criterion_13),
}


def run_criteria(ws: Workspace | None = None, only: int | None = None) -> list[CheckRow]:
    ws = ws or Workspace()
    rows: list[CheckRow] = []
    for num, (desc, fn) in sorted(CRITERIA.items()):
        if only is not None and num != only:
            continue
        rows.extend(fn(ws))
    return rows
