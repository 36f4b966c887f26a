"""Checks on the benchmark's results, against facts known apart from the program.

Each check takes a plain summary of one operation's result (built in
`workloads.py`) and returns the list of what is wrong with it; an empty list
means the result is correct.  The expected values come from the paper's
Table 1 and from the structure of the groups, never from a saved run.
"""

from __future__ import annotations

# Orders of the rank-3 building blocks: the string Coxeter groups [3,3], [4,3]
# and [5,3] have orders 24, 48 and 120; a projective polyhedron's group is the
# quotient by the central inversion, half of its spherical cover's.
BLOCK_ORDER = {
    "tetrahedron": 24, "cube": 48, "octahedron": 48,
    "dodecahedron": 120, "icosahedron": 120,
    "hemicube": 24, "hemicross": 24, "hemidodecahedron": 60, "hemi-icosahedron": 60,
}

# duality of the building blocks; the dual of {K, L} is {L*, K*}
DUAL = {
    "tetrahedron": "tetrahedron", "cube": "octahedron", "octahedron": "cube",
    "dodecahedron": "icosahedron", "icosahedron": "dodecahedron",
    "hemicube": "hemicross", "hemicross": "hemicube",
    "hemidodecahedron": "hemi-icosahedron", "hemi-icosahedron": "hemidodecahedron",
}


def l2_order(q: int) -> int:
    """Order of L_2(q) = PSL(2, q) for an odd prime q: q(q^2 - 1)/2."""
    return q * (q * q - 1) // 2


# The 11-cell's group is L_2(11) and the 57-cell's is L_2(19).  Case 10's
# group is 2^3 ⋊ [3,4]_3 (2^v over the hemicross's 3 vertices), case 13's is
# 2^6 ⋊ A_5 (over the hemi-icosahedron's 6 vertices); case 11's group is the
# quotient of case 10's by a normal subgroup of order 2, and 12 and 19 are the
# duals of 10 and 13.
ELEVEN_CELL = l2_order(11)
FIFTY_SEVEN_CELL = l2_order(19)
CASE13_ORDER = 2**6 * 60

# Table 1 of the paper, case -> (facet, vertex figure, outcome, group order).
# "none" is a case with no universal polytope (the amalgam collapses, or its
# parabolics are full but the intersection condition fails); its order is
# given only where the paper names the collapsed group.  Cases 20 and 22
# (order 600,415,200) are beyond a desk-scale enumeration over the trivial
# subgroup, and `polyquot table1` reports them as exceeded-limit.
NONE, EXISTS, COLLAPSED, EXCEEDED = "none", "exists", "collapsed", "exceeded-limit"
TABLE1 = {
    1: ("tetrahedron", "hemicross", NONE, None),
    2: ("tetrahedron", "hemi-icosahedron", NONE, None),
    3: ("octahedron", "hemicube", NONE, None),
    4: ("hemicross", "hemicube", NONE, None),
    5: ("hemicross", "cube", NONE, None),
    6: ("icosahedron", "hemidodecahedron", COLLAPSED, ELEVEN_CELL),
    7: ("hemi-icosahedron", "hemidodecahedron", EXISTS, ELEVEN_CELL),
    8: ("hemi-icosahedron", "dodecahedron", COLLAPSED, ELEVEN_CELL),
    9: ("hemicube", "tetrahedron", NONE, None),
    10: ("cube", "hemicross", EXISTS, 2**3 * 24),
    11: ("hemicube", "hemicross", EXISTS, 2**3 * 24 // 2),
    12: ("hemicube", "octahedron", EXISTS, 2**3 * 24),
    13: ("cube", "hemi-icosahedron", EXISTS, CASE13_ORDER),
    14: ("hemicube", "hemi-icosahedron", NONE, None),
    15: ("hemicube", "icosahedron", NONE, None),
    16: ("hemidodecahedron", "tetrahedron", NONE, None),
    17: ("dodecahedron", "hemicross", NONE, None),
    18: ("hemidodecahedron", "hemicross", NONE, None),
    19: ("hemidodecahedron", "octahedron", EXISTS, CASE13_ORDER),
    20: ("dodecahedron", "hemi-icosahedron", EXCEEDED, None),
    21: ("hemidodecahedron", "hemi-icosahedron", EXISTS, FIFTY_SEVEN_CELL),
    22: ("hemidodecahedron", "icosahedron", EXCEEDED, None),
}

# The paper's count for case 13: 70 quotient classes, 3 of them regular.
CASE13_QUOTIENTS, CASE13_REGULAR = 70, 3

# face counts (vertices, edges, faces, cells) of the 11-cell and the 57-cell
FACE_COUNTS = {11: [11, 55, 55, 11], 19: [57, 171, 171, 57]}

# facets of case 20's universal polytope: the index of its facet subgroup
CASE20_FACETS = 5_003_460


def check_quotients_case13(s: dict, vfig_quotients: int) -> list[str]:
    """Case 13, {cube, hemi-icosahedron}: group, quotient count, every quotient.

    `vfig_quotients` is the number of semisparse classes of the
    hemi-icosahedron's own group.
    """
    bad = []
    if s["outcome"] != EXISTS or s["order"] != CASE13_ORDER:
        bad.append(f"case 13: outcome {s['outcome']}, order {s['order']}; "
                   f"expected exists, order {CASE13_ORDER}")
    qs = s["quotients"]
    if len(qs) != CASE13_QUOTIENTS:
        bad.append(f"case 13: {len(qs)} quotient classes, expected {CASE13_QUOTIENTS}")
    regular = sum(q["regular"] for q in qs)
    if regular != CASE13_REGULAR:
        bad.append(f"case 13: {regular} regular quotients, expected {CASE13_REGULAR}")
    bad += _each_quotient("case 13", s["order"], qs)
    for i, q in enumerate(qs):
        if set(q["vfigs"]) != {"hemi-icosahedron"}:
            bad.append(f"case 13: quotient {i} has vertex figures {sorted(q['vfigs'])}")
    if vfig_quotients != 1:
        bad.append(f"the hemi-icosahedron has {vfig_quotients} quotient classes, "
                   "expected 1 (itself)")
    return bad


def check_quotients_regular(s: dict, q: int) -> list[str]:
    """The universal of order q(q^2-1)/2 has one quotient: itself, regular."""
    name = f"L_2({q}) case"
    bad = []
    if s["outcome"] != EXISTS or s["order"] != l2_order(q):
        bad.append(f"{name}: outcome {s['outcome']}, order {s['order']}; "
                   f"expected exists, order {l2_order(q)}")
    qs = s["quotients"]
    if len(qs) != 1:
        bad.append(f"{name}: {len(qs)} quotient classes, expected 1")
    bad += _each_quotient(name, s["order"], qs)
    for quo in qs:
        if not (quo["regular"] and quo["section_regular"]):
            bad.append(f"{name}: the quotient is not regular and section regular")
        if quo["face_counts"] != FACE_COUNTS[q]:
            bad.append(f"{name}: face counts {quo['face_counts']}, expected {FACE_COUNTS[q]}")
    return bad


def _each_quotient(name: str, order: int, qs: list[dict]) -> list[str]:
    """Every quotient P/N has |G|/|N| flags, and is regular exactly when N is normal."""
    bad = []
    for i, q in enumerate(qs):
        if q["flags"] * q["subgroup_order"] != order:
            bad.append(f"{name}: quotient {i} has {q['flags']} flags, "
                       f"|G|/|N| = {order}/{q['subgroup_order']}")
        if q["regular"] != q["normal"]:
            bad.append(f"{name}: quotient {i} regular={q['regular']} "
                       f"but N normal={q['normal']}")
        if q["reported_normal"] != q["normal"]:
            bad.append(f"{name}: quotient {i} reports normal={q['reported_normal']}, "
                       f"N normal={q['normal']}")
    return bad


def check_table1(rows: dict[int, dict]) -> list[str]:
    """Each case against the paper's Table 1, duality, and the parabolic orders."""
    bad = []
    if sorted(rows) != sorted(TABLE1):
        bad.append(f"table 1 has cases {sorted(rows)}")
        return bad
    by_blocks = {(r["facet"], r["vfig"]): c for c, r in rows.items()}
    for case, (facet, vfig, outcome, order) in TABLE1.items():
        r = rows[case]
        where = f"case {case}"
        if (r["facet"], r["vfig"]) != (facet, vfig):
            bad.append(f"{where}: {{{r['facet']},{r['vfig']}}}, expected {{{facet},{vfig}}}")
            continue
        full_facet = r["facet_order"] == BLOCK_ORDER[facet]
        full_vfig = r["vfig_order"] == BLOCK_ORDER[vfig]
        if outcome == NONE:
            if r["outcome"] not in ("collapsed", "not-polytopal"):
                bad.append(f"{where}: outcome {r['outcome']}, expected no polytope")
        elif r["outcome"] != outcome:
            bad.append(f"{where}: outcome {r['outcome']}, expected {outcome}")
        if order is not None and r["order"] != order:
            bad.append(f"{where}: order {r['order']}, expected {order}")
        if r["outcome"] == EXISTS and not (full_facet and full_vfig):
            bad.append(f"{where}: exists with parabolic orders "
                       f"{r['facet_order']}, {r['vfig_order']}")
        if r["outcome"] == COLLAPSED and full_facet and full_vfig:
            bad.append(f"{where}: collapsed with full parabolic orders")
        dual = by_blocks.get((DUAL[vfig], DUAL[facet]))
        if dual is None:
            bad.append(f"{where}: its dual {{{DUAL[vfig]},{DUAL[facet]}}} is not in the table")
        elif rows[dual]["order"] != r["order"]:
            bad.append(f"{where}: order {r['order']}, its dual case {dual} "
                       f"has order {rows[dual]['order']}")
    return bad


def check_stretch_prefix(s: dict, budget: int) -> list[str]:
    """A budget below the index cannot close: the run must stop at the budget."""
    bad = []
    if budget >= CASE20_FACETS:
        bad.append(f"budget {budget} is not below the index {CASE20_FACETS}")
    if s["outcome"] != EXCEEDED or s["cosets_defined"] != budget:
        bad.append(f"stretch prefix: outcome {s['outcome']} after {s['cosets_defined']} "
                   f"cosets, expected {EXCEEDED} after {budget}")
    return bad
