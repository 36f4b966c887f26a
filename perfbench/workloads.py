"""The workloads: the public calls that the CLI and the stretch script make.

An operation is one such call, as one command runs it: `polyquot quotients`
for one case, `polyquot table1`, or the case-20 enumeration over the facet
subgroup cut short by a coset budget.  Each operation returns a plain summary
of its result, and the workload's check (from `checks.py`) says what is wrong
with it.  Every input is a fixed presentation from Table 1, so no workload
draws anything from the seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

# called through their modules, so that the tracer's wrappers are seen
from polyquot import amalgam, catalog, quotients as pq
from polyquot.amalgam import TABLE1, case_spec
from polyquot.config import RunConfig

import checks

# Cosets the stretch prefix may define: far below case 20's index of
# 5,003,460, so the enumeration is always cut short at exactly this count.
STRETCH_BUDGET = 200_000


@dataclass
class Operation:
    label: str
    run: Callable[[], dict]
    check: Callable[[dict], list[str]]


def reset_caches():
    """Forget what the package memoizes across calls, so that every operation
    starts as cold as a fresh `polyquot` process."""
    for name in ("_GROUPS", "_POLYTOPES"):
        memo = getattr(catalog, name, None)
        if isinstance(memo, dict):
            memo.clear()
    if hasattr(catalog, "_IDENT"):
        catalog._IDENT = None


def _is_normal(g, elem_ids) -> bool:
    """N is normal iff conjugation by every generator maps its set of
    permutations onto itself (computed on the permutations, not the table)."""
    perms = g.elements[np.asarray(elem_ids, dtype=np.int64)]
    own = np.unique(perms, axis=0)
    for s in g.gens:
        conj = s[perms[:, s]]  # s x s, as image arrays
        if not np.array_equal(np.unique(conj, axis=0), own):
            return False
    return True


def quotients(spec) -> dict:
    """`polyquot quotients` for one amalgam, summarised for the checks."""
    cfg = RunConfig()
    res = amalgam.build_universal(spec, max_cosets=cfg.max_cosets)
    out = {"outcome": res.outcome, "order": res.order, "quotients": []}
    if res.group is None:
        return out
    report = pq.classify_quotients(res.group, spec.name, cfg.subgroup_order_bound)
    for r in report.records:
        out["quotients"].append({
            "subgroup_order": r.subgroup_order,
            "flags": r.polytope.n_flags,
            "regular": r.is_regular,
            "section_regular": r.is_section_regular,
            "reported_normal": r.is_normal,
            "normal": _is_normal(res.group, r.subgroup.elem_ids),
            "vfigs": dict(r.vfig_classes),
            "face_counts": list(r.polytope.counts),
        })
    return out


def table1() -> dict:
    """`polyquot table1`: the 22 cases, without the stretch run."""
    cfg = RunConfig()
    results = amalgam.classify_table1(max_cosets=cfg.max_cosets, stretch=cfg.stretch)
    rows = {}
    for case in TABLE1:
        r = results[case.number]
        rows[case.number] = {
            "facet": case.facet_name,
            "vfig": case.vfig_name,
            "outcome": r.outcome,
            "order": r.order if r.group is not None else r.order_reconstructed,
            "facet_order": r.facet_subgroup_order,
            "vfig_order": r.vfig_subgroup_order,
        }
    return rows


def stretch_prefix(case) -> dict:
    """`scripts/stretch_case20.py` with the coset budget set to STRETCH_BUDGET."""
    res = amalgam.build_universal_over_facet(case, max_cosets=STRETCH_BUDGET)
    return {"outcome": res.outcome, "cosets_defined": res.cosets_defined}


def operations(workload: str) -> list[Operation]:
    """Build a workload's inputs, the amalgams of its cases, and its operations."""
    if workload == "quotients-case13":
        spec = case_spec(13).amalgam()
        # a fact the check needs, computed once here so that it stays out of
        # the measured rounds and the layer counters
        vfig_quotients = len(pq.semisparse_classes(spec.vfig.group()))
        return [Operation("case 13", partial(quotients, spec),
                          partial(checks.check_quotients_case13,
                                  vfig_quotients=vfig_quotients))]
    if workload == "quotients-regular":
        return [Operation(f"case {case}", partial(quotients, case_spec(case).amalgam()),
                          partial(checks.check_quotients_regular, q=q))
                for case, q in ((7, 11), (21, 19))]
    if workload == "table1":
        return [Operation("table1", table1, checks.check_table1)]
    if workload == "stretch-prefix":
        return [Operation("case 20 prefix", partial(stretch_prefix, case_spec(20)),
                          partial(checks.check_stretch_prefix, budget=STRETCH_BUDGET))]
    raise ValueError(f"unknown workload {workload!r}")
