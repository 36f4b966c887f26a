"""Per-layer spans and counters for the traced run.

The tracer wraps public functions and properties of polyquot from outside the
package.  `install()` rebinds every module attribute that refers to a wrapped
function (so `from .coset import coset_enumeration` in other modules is
covered too) and replaces the wrapped class attributes; `uninstall()` puts the
originals back.  Spans stay in memory as plain lists and are written out once,
by `dump()`, when the run ends.

A span's self time is its duration minus the durations of its direct child
spans; every per-layer time is a sum of self times, so no second is counted
twice.  A wrapped name that the package no longer has is reported as absent:
the metrics that depend on it are left out and the run goes on.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
import weakref
from collections import defaultdict

# (module, attribute, how, span name, metrics it feeds)
#   call:  time every call of a module-level function
#   first: time the first access, per instance, of a class attribute; targets
#          sharing a span name share one set of instances already seen
TARGETS = [
    ("coset", "coset_enumeration", "call", "coset.enum",
     ("coset.enum_s", "coset.cosets_defined", "coset.cosets_per_s", "coset.live_ratio")),
    ("amalgam", "build_universal", "call", "amalgam.build", ("amalgam.build_s",)),
    ("amalgam", "build_universal_over_facet", "call", "amalgam.build", ("amalgam.build_s",)),
    ("permgroups", "MarkedGroup.order", "first", "permgroups.elements", ("permgroups.elements_s",)),
    ("permgroups", "MarkedGroup.elements", "first", "permgroups.elements", ("permgroups.elements_s",)),
    ("permgroups", "MarkedGroup.element_id", "first", "permgroups.elements", ("permgroups.elements_s",)),
    ("permgroups", "MarkedGroup.rmul", "first", "permgroups.table", ("permgroups.table_s",)),
    ("permgroups", "MarkedGroup.inv_ids", "first", "permgroups.table", ("permgroups.table_s",)),
    ("permgroups", "enumerate_subgroups_within", "call", "permgroups.lattice",
     ("permgroups.lattice_s", "permgroups.classes")),
    ("polytopes", "intersection_condition", "call", "polytopes.intersection",
     ("polytopes.intersection_s",)),
    ("polytopes", "flag_graph_from_group", "call", "polytopes.flag_graph",
     ("polytopes.flag_graph_s",)),
    ("polytopes", "is_regular", "call", "polytopes.regular", ("polytopes.regular_s",)),
    ("polytopes", "section_profile", "call", "polytopes.section_profile",
     ("polytopes.section_profile_s",)),
    ("polytopes", "section", "call", "polytopes.section",
     ("polytopes.section_s", "polytopes.sections")),
    ("polytopes", "Polytope.certificate", "first", "polytopes.certificate",
     ("polytopes.certificate_s",)),
    ("polytopes", "is_polytopal", "call", "polytopes.polytopal", ("polytopes.polytopal_s",)),
    ("quotients", "semisparse_allowed_mask", "call", "quotients.mask", ("quotients.mask_s",)),
    ("quotients", "is_semisparse", "call", "quotients.filter",
     ("quotients.filter_s", "quotients.candidates", "quotients.accepted", "quotients.accept_ratio")),
    ("quotients", "quotient_polytope", "call", "quotients.quotient_polytope",
     ("quotients.quotient_polytope_s",)),
    ("catalog", "identify", "call", "catalog.identify",
     ("catalog.identify_s", "catalog.identify_calls")),
]

# every per-layer metric, with its unit, in the order they are reported
METRICS = {
    "coset.enum_s": "s",
    "coset.cosets_defined": "count",
    "coset.cosets_per_s": "1/s",
    "coset.live_ratio": "ratio",
    "permgroups.elements_s": "s",
    "permgroups.table_s": "s",
    "permgroups.lattice_s": "s",
    "permgroups.classes": "count",
    "polytopes.intersection_s": "s",
    "polytopes.flag_graph_s": "s",
    "polytopes.regular_s": "s",
    "polytopes.section_profile_s": "s",
    "polytopes.section_s": "s",
    "polytopes.sections": "count",
    "polytopes.certificate_s": "s",
    "polytopes.polytopal_s": "s",
    "quotients.mask_s": "s",
    "quotients.filter_s": "s",
    "quotients.quotient_polytope_s": "s",
    "quotients.candidates": "count",
    "quotients.accepted": "count",
    "quotients.accept_ratio": "ratio",
    "catalog.identify_s": "s",
    "catalog.identify_calls": "count",
    "amalgam.build_s": "s",
    "trace.overhead_s": "s",
    "trace.unattributed_s": "s",
}


def _count_cosets(tracer, table):
    defined = getattr(table, "cosets_defined", 0)
    tracer.counts["coset.cosets_defined"] += defined
    if getattr(table, "is_closed", False):
        tracer.counts["coset.closed_defined"] += defined
        tracer.counts["coset.closed_live"] += table.n_cosets


def _count_classes(tracer, classes):
    tracer.counts["permgroups.classes"] += len(classes)


def _count_section(tracer, _section):
    tracer.counts["polytopes.sections"] += 1


def _count_candidate(tracer, accepted):
    tracer.counts["quotients.candidates"] += 1
    tracer.counts["quotients.accepted"] += bool(accepted)


def _count_identify(tracer, _name):
    tracer.counts["catalog.identify_calls"] += 1


HOOKS = {
    "coset_enumeration": _count_cosets,
    "enumerate_subgroups_within": _count_classes,
    "section": _count_section,
    "is_semisparse": _count_candidate,
    "identify": _count_identify,
}


class Tracer:
    """Spans and counters of one run, grouped by operation."""

    def __init__(self):
        self.ops: list[dict] = []   # one record per traced operation
        self.spans: list[list] = []  # [name, start, end, parent index, child time]
        self.counts: dict[str, int] = defaultdict(int)
        self.absent: set[str] = set()
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        self._seen: dict[str, weakref.WeakSet] = defaultdict(weakref.WeakSet)

    # -- wrapping ------------------------------------------------------------

    def install(self):
        import polyquot  # noqa: F401  (loads every module the targets name)

        for module_name, attr, how, name, feeds in TARGETS:
            module = sys.modules.get(f"polyquot.{module_name}")
            owner, _, member = attr.rpartition(".")
            holder = getattr(module, owner, None) if owner else module
            if holder is None or member not in vars(holder):
                self.absent.update(feeds)
                continue
            original = vars(holder)[member]
            if how == "first":
                self._replace(holder, member, self._first_access(original, name))
            else:
                self._rebind(original, self._wrap_call(original, name, HOOKS.get(member)))

    def uninstall(self):
        for holder, member, original in reversed(self._undo):
            setattr(holder, member, original)
        self._undo.clear()

    def _replace(self, holder, member, new):
        self._undo.append((holder, member, vars(holder)[member]))
        setattr(holder, member, new)

    def _rebind(self, original, new):
        for module_name, module in list(sys.modules.items()):
            if module_name == "polyquot" or module_name.startswith("polyquot."):
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._replace(module, key, new)

    def _wrap_call(self, fn, name, hook):
        tracer = self

        def timed(*args, **kwargs):
            result = tracer._timed(name, fn, args, kwargs)
            if hook is not None:
                hook(tracer, result)
            return result
        return timed

    def _first_access(self, attr, name):
        getter = attr.fget if isinstance(attr, property) else attr
        seen = self._seen[name]
        tracer = self

        def first(obj, *args, **kwargs):
            if obj in seen:
                return getter(obj, *args, **kwargs)
            seen.add(obj)
            return tracer._timed(name, getter, (obj,) + args, kwargs)
        return property(first) if isinstance(attr, property) else first

    def _timed(self, name, fn, args, kwargs):
        spans = self.spans
        parent = self._stack[-1] if self._stack else -1
        record = [name, 0.0, 0.0, parent, 0.0]
        self._stack.append(len(spans))
        spans.append(record)
        record[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = record[2] = time.perf_counter()
            self._stack.pop()
            if parent >= 0:
                spans[parent][4] += end - record[1]

    # -- operations ------------------------------------------------------------

    def begin_op(self):
        self.spans = []
        self.counts = defaultdict(int)
        self._stack = []

    def end_op(self, round_no: int, label: str, wall: float):
        self_s: dict[str, float] = defaultdict(float)
        top = 0.0
        for name, start, end, parent, child in self.spans:
            self_s[name] += end - start - child
            if parent < 0:
                top += end - start
        self.ops.append({"round": round_no, "op": label, "wall_s": wall, "top_level_s": top,
                         "self_s": dict(self_s), "counts": dict(self.counts),
                         "spans": self.spans})

    # -- results -----------------------------------------------------------------

    def round_metrics(self, round_no: int, round_wall: float) -> dict[str, float]:
        """Per-layer values of one traced round, summed over its operations."""
        ops = [op for op in self.ops if op["round"] == round_no]
        t: dict[str, float] = defaultdict(float)
        c: dict[str, int] = defaultdict(int)
        for op in ops:
            for k, v in op["self_s"].items():
                t[k] += v
            for k, v in op["counts"].items():
                c[k] += v
        enum_s = t["coset.enum"]
        out = {
            "coset.enum_s": enum_s,
            "coset.cosets_defined": c["coset.cosets_defined"],
            "coset.cosets_per_s": c["coset.cosets_defined"] / enum_s if enum_s else 0.0,
            "coset.live_ratio": (c["coset.closed_live"] / c["coset.closed_defined"]
                                 if c["coset.closed_defined"] else 0.0),
            "permgroups.classes": c["permgroups.classes"],
            "polytopes.sections": c["polytopes.sections"],
            "quotients.candidates": c["quotients.candidates"],
            "quotients.accepted": c["quotients.accepted"],
            "quotients.accept_ratio": (c["quotients.accepted"] / c["quotients.candidates"]
                                       if c["quotients.candidates"] else 0.0),
            "catalog.identify_calls": c["catalog.identify_calls"],
            "trace.unattributed_s": round_wall - sum(op["top_level_s"] for op in ops),
        }
        for metric in METRICS:
            if metric.endswith("_s") and metric not in out and not metric.startswith("trace."):
                out[metric] = t[metric[:-2]]
        return out

    def layer_metrics(self, traced: list[tuple[int, float]], untraced_walls: list[float]) -> dict:
        """Median over the traced rounds of every per-layer metric that exists.

        `traced` holds (round number, round wall time) of the traced rounds.
        """
        per_round = [self.round_metrics(r, wall) for r, wall in traced]
        out = {}
        for metric, unit in METRICS.items():
            if metric in self.absent:
                continue
            if metric == "trace.overhead_s":
                value = (statistics.median(w for _, w in traced)
                         - statistics.median(untraced_walls))
            else:  # a count stays a whole number
                median = statistics.median_low if unit == "count" else statistics.median
                value = median(m[metric] for m in per_round)
            out[metric] = {"value": value, "unit": unit}
        return out

    def dump(self, path):
        """Write every operation's spans, self times and counters as JSON."""
        with open(path, "w") as fh:
            json.dump({"absent": sorted(self.absent), "ops": self.ops}, fh)
