"""Command-line front end.

Exit codes: 0 success, 1 verification mismatch, 2 resource bound exceeded,
3 usage error.  JSON output is emitted with sorted keys so identical inputs
produce byte-identical reports.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import catalog
from .amalgam import EXISTS, AmalgamSpec, TABLE1, build_universal, classify_table1
from .config import RunConfig
from .coset import EXCEEDED, RelatorMismatch
from .permgroups import BoundExceeded
from .polytopes import flag_graph_dot, hasse_dot, polytope_json
from .presentations import format_presentation
from .quotients import classify_quotients, quotient_lattice_dot
from .verify import CRITERIA, EXPECTED_QUOTIENTS, Workspace, run_criteria


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


_BOUNDS = {
    "--max-cosets": {"type": int, "default": None},
    "--subgroup-bound": {"type": int, "default": None},
    "--stretch": {"action": "store_true"},
}


def _add_options(p, bounds=(), formats=()):
    """The options a subcommand reads: the named bounds, --format if it has
    formats to choose from, and --output-path."""
    for name in bounds:
        p.add_argument(name, **_BOUNDS[name])
    if formats:
        p.add_argument("--format", choices=formats, default="text")
    p.add_argument("--output-path", default=None)


def _config(args) -> RunConfig:
    bounds = {"max_cosets": getattr(args, "max_cosets", None),
              "subgroup_order_bound": getattr(args, "subgroup_bound", None)}
    try:
        return RunConfig(stretch=getattr(args, "stretch", False),
                         **{k: v for k, v in bounds.items() if v is not None})
    except ValueError as e:
        raise UsageError(str(e))


def _emit(text: str, args):
    if args.output_path:
        try:
            with open(args.output_path, "w") as fh:
                fh.write(text)
        except OSError as e:
            raise UsageError(f"cannot write {args.output_path}: {e.strerror}")
    else:
        sys.stdout.write(text)


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def cmd_catalog(args) -> int:
    entries = catalog.rank3_catalog(args.degenerate)
    if args.format == "json":
        data = [{"name": e.name, "symbol": list(e.symbol.entries), "order": e.expected_order,
                 "class": e.kind, "dual": e.dual_name} for e in entries]
        _emit(_dumps(data), args)
    else:
        lines = [f"{'name':20s} {'symbol':8s} {'order':>6s}  {'class':11s} dual"]
        for e in entries:
            lines.append(f"{e.name:20s} {str(e.symbol):8s} {e.expected_order:6d}  {e.kind:11s} {e.dual_name}")
        _emit("\n".join(lines) + "\n", args)
    return 0


def cmd_dump_presentations(args) -> int:
    outdir = args.output_dir
    try:
        os.makedirs(outdir, exist_ok=True)
        for e in catalog.rank3_catalog(degenerate=True):
            fname = e.name.replace("(", "_").replace(")", "") + ".pres"
            with open(os.path.join(outdir, fname), "w") as fh:
                fh.write(format_presentation(e.presentation(), comment=f"{e.name} {e.symbol}"))
    except OSError as e:
        raise UsageError(f"cannot write presentations to {outdir}: {e.strerror}")
    sys.stdout.write(f"wrote presentations to {outdir}\n")
    return 0


def _amalgam_from_args(args) -> AmalgamSpec:
    try:
        facet = catalog.entry_by_name(args.facet)
        vfig = catalog.entry_by_name(args.vfig)
    except KeyError as e:
        raise UsageError(e.args[0])
    try:
        return AmalgamSpec(facet, vfig)
    except ValueError as e:
        raise UsageError(str(e))


def cmd_build(args) -> int:
    cfg = _config(args)
    spec = _amalgam_from_args(args)
    res = build_universal(spec, max_cosets=cfg.max_cosets)
    data = {
        "universal": spec.name,
        "type": list(spec.type_symbol.entries),
        "outcome": res.outcome,
        "group_order": res.order,
        "facet_subgroup_order": res.facet_subgroup_order,
        "vfig_subgroup_order": res.vfig_subgroup_order,
        "collapse_detail": res.collapse_detail,
    }
    if res.outcome == EXISTS:
        p = res.polytope()
        data["face_counts"] = list(p.counts)
    if args.format == "json":
        _emit(_dumps(data), args)
    else:
        lines = [f"universal {spec.name} of type {spec.type_symbol}: {res.outcome}"]
        if res.order is not None:
            lines.append(f"  group order {res.order}")
        if res.outcome == EXISTS:
            lines.append(f"  face counts {data['face_counts']}")
        if res.collapse_detail:
            lines.append(f"  {res.collapse_detail}")
        _emit("\n".join(lines) + "\n", args)
    return 2 if res.outcome == EXCEEDED else 0


def _existing_universal(args, cfg: RunConfig):
    """(the universal the options name, 0), or (None, exit code) with the
    reason on stderr: 2 when coset enumeration hit its limit, else 1."""
    res = build_universal(_amalgam_from_args(args), max_cosets=cfg.max_cosets)
    if res.outcome == EXCEEDED:
        sys.stderr.write("coset enumeration exceeded the limit\n")
        return None, 2
    if res.outcome != EXISTS:
        sys.stderr.write(f"universal does not exist: {res.outcome}; {res.collapse_detail}\n")
        return None, 1
    return res, 0


def cmd_quotients(args) -> int:
    cfg = _config(args)
    res, code = _existing_universal(args, cfg)
    if code:
        return code
    report = classify_quotients(res.group, res.spec.name, cfg.subgroup_order_bound)
    if args.format == "dot":
        _emit(quotient_lattice_dot(report, res.group), args)
        return 0
    if args.format == "json":
        _emit(_dumps(report.to_json()), args)
        return 0
    case_no = next((c.number for c in TABLE1
                    if (c.facet_name, c.vfig_name) == (args.facet, args.vfig)), None)
    lines = [f"{res.spec.name}: {report.total_quotients} quotient classes, "
             f"{report.regular_count} regular, {report.section_regular_count} section regular"]
    if case_no in EXPECTED_QUOTIENTS:
        lines.append(f"  expected (case {case_no}): {EXPECTED_QUOTIENTS[case_no]} quotients")
    for r in report.records:
        lines.append(f"  |N|={r.subgroup_order:3d} x{r.class_size:2d} "
                     f"{'regular ' if r.is_regular else ''}"
                     f"type {r.type_symbol} facets {dict(sorted(r.facet_classes.items()))}")
    _emit("\n".join(lines) + "\n", args)
    return 0


def cmd_table1(args) -> int:
    cfg = _config(args)
    results = classify_table1(max_cosets=cfg.max_cosets, stretch=cfg.stretch)
    rows = []
    for case in TABLE1:
        r = results[case.number]
        rows.append({
            "case": case.number,
            "facet": case.facet_name,
            "vfig": case.vfig_name,
            "dual_of": r.dual_of,
            "outcome": r.outcome,
            "group_order": r.order,
            "detail": r.collapse_detail,
        })
    if args.format == "json":
        _emit(_dumps(rows), args)
    else:
        lines = []
        for row in rows:
            dual = f" (dual of {row['dual_of']})" if row["dual_of"] else ""
            order = row["group_order"] if row["group_order"] is not None else "-"
            lines.append(f"case {row['case']:2d}: {row['outcome']:14s} order {order:>10} "
                         f"{{{row['facet']},{row['vfig']}}}{dual}")
            if row["detail"]:
                lines.append(f"          {row['detail']}")
        _emit("\n".join(lines) + "\n", args)
    return 0


def cmd_verify(args) -> int:
    cfg = _config(args)
    only = args.case
    # criterion 13 is the stretch run: --case 13 needs --stretch, no other --case takes it
    if only is not None and (only not in CRITERIA or (only == 13) != cfg.stretch):
        with_stretch = " with --stretch" if cfg.stretch else ""
        raise UsageError(f"no criterion {only}{with_stretch}: choose 1-12, or 13 with --stretch")
    ws = Workspace(cfg)
    rows = run_criteria(ws, only=only)
    lines = []
    failed = 0
    for row in rows:
        status = "PASS" if row.ok else "FAIL"
        if not row.ok and row.source != "stretch":
            failed += 1
        lines.append(f"[{status}] criterion {row.criterion:2d}: {row.name}: "
                     f"expected {row.expected!r}, got {row.actual!r} ({row.source})")
    _emit("\n".join(lines) + "\n", args)
    return 1 if failed else 0


def cmd_export(args) -> int:
    cfg = _config(args)
    if args.entry:
        if args.facet or args.vfig or args.max_cosets is not None:
            raise UsageError("export --entry reads no --facet, --vfig or --max-cosets")
        try:
            p = catalog.entry_by_name(args.entry).polytope()
        except KeyError as e:
            raise UsageError(e.args[0])
        name = args.entry
    else:
        if not (args.facet and args.vfig):
            raise UsageError("export needs --entry or both --facet and --vfig")
        res, code = _existing_universal(args, cfg)
        if code:
            return code
        p = res.polytope()
        name = "universal"
    what = args.what
    if what == "hasse":
        _emit(hasse_dot(p, name.replace("-", "_").replace("(", "_").replace(")", "")), args)
    elif what == "flags":
        _emit(flag_graph_dot(p), args)
    else:
        _emit(_dumps(polytope_json(p)), args)
    return 0


def main(argv=None) -> int:
    parser = _Parser(prog="polyquot", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("catalog", help="list the rank-3 building blocks")
    p.add_argument("--degenerate", action="store_true")
    _add_options(p, formats=("text", "json"))
    p.set_defaults(fn=cmd_catalog)

    p = sub.add_parser("dump-presentations", help="write presentation files for every entry")
    p.add_argument("--output-dir", required=True)
    p.set_defaults(fn=cmd_dump_presentations)

    p = sub.add_parser("build", help="build a universal polytope from facet and vertex figure")
    p.add_argument("--facet", required=True)
    p.add_argument("--vfig", required=True)
    _add_options(p, ("--max-cosets",), ("text", "json"))
    p.set_defaults(fn=cmd_build)

    p = sub.add_parser("quotients", help="classify the quotients of a universal polytope")
    p.add_argument("--facet", required=True)
    p.add_argument("--vfig", required=True)
    _add_options(p, ("--max-cosets", "--subgroup-bound"), ("text", "json", "dot"))
    p.set_defaults(fn=cmd_quotients)

    p = sub.add_parser("table1", help="run all 22 classification cases")
    _add_options(p, ("--max-cosets", "--stretch"), ("text", "json"))
    p.set_defaults(fn=cmd_table1)

    p = sub.add_parser("verify", help="run the acceptance criteria")
    p.add_argument("--case", type=int, default=None, help="restrict to one criterion")
    _add_options(p, ("--max-cosets", "--subgroup-bound", "--stretch"))
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("export", help="DOT/JSON exports of polytopes")
    p.add_argument("--entry", default=None)
    p.add_argument("--facet", default=None)
    p.add_argument("--vfig", default=None)
    p.add_argument("--what", choices=("hasse", "flags", "json"), default="json")
    _add_options(p, ("--max-cosets",))
    p.set_defaults(fn=cmd_export)

    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except UsageError as e:
        sys.stderr.write(f"usage error: {e}\n")
        return 3
    except BoundExceeded as e:
        sys.stderr.write(f"bound exceeded: {e}\n")
        return 2
    except RelatorMismatch as e:
        sys.stderr.write(f"verification mismatch: {e}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
