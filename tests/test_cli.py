import json
import sys

import numpy as np
import pytest

from polyquot.catalog import rank3_catalog
from polyquot.cli import main
from polyquot.config import STRETCH_MAX_COSETS, RunConfig
from polyquot.coset import coset_enumeration

from oracles import read_presentation


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_catalog_lists_nine(capsys):
    code, out, _ = run(capsys, "catalog")
    assert code == 0
    assert len(out.strip().splitlines()) == 10  # header + 9 entries


def test_catalog_degenerate_flag(capsys):
    code, out, _ = run(capsys, "catalog", "--degenerate")
    assert code == 0
    assert "dihedron(3)" in out and "hosohedron(5)" in out


def test_catalog_json_deterministic(capsys):
    code, out1, _ = run(capsys, "catalog", "--format", "json")
    code, out2, _ = run(capsys, "catalog", "--format", "json")
    assert code == 0 and out1 == out2
    data = json.loads(out1)
    assert len(data) == 9


def test_build_eleven_cell(capsys):
    code, out, _ = run(capsys, "build", "--facet", "hemi-icosahedron",
                       "--vfig", "hemidodecahedron")
    assert code == 0
    assert "exists" in out and "660" in out


def test_build_collapsed_case15(capsys):
    code, out, _ = run(capsys, "build", "--facet", "hemicube", "--vfig", "icosahedron")
    assert code == 0
    assert "collapsed" in out


def test_build_incompatible(capsys):
    code, _, err = run(capsys, "build", "--facet", "cube", "--vfig", "cube")
    assert code == 3
    assert "incompatible" in err


def test_build_unknown_name(capsys):
    code, _, err = run(capsys, "build", "--facet", "frobnitz", "--vfig", "cube")
    assert code == 3
    assert err == "usage error: unknown catalog entry 'frobnitz'\n"


def test_export_unknown_entry(capsys):
    code, _, err = run(capsys, "export", "--entry", "nope")
    assert code == 3
    assert err == "usage error: unknown catalog entry 'nope'\n"


@pytest.mark.parametrize("argv, name", [
    (("build", "--facet", "hosohedron(1)", "--vfig", "cube"), "hosohedron(1)"),
    (("export", "--entry", "dihedron(1)"), "dihedron(1)"),
])
def test_degenerate_name_below_two_is_usage_error(capsys, argv, name):
    code, out, err = run(capsys, *argv)
    assert code == 3 and out == ""
    assert err == f"usage error: unknown catalog entry {name!r}\n"


@pytest.mark.parametrize("p", [6000, 300000])
def test_export_entry_above_order_limit_is_refused_before_enumerating(capsys, p):
    code, out, err = run(capsys, "export", "--entry", f"dihedron({p})")
    assert code == 2 and out == ""
    assert err.startswith(f"bound exceeded: dihedron({p}): group order {4 * p} exceeds")


@pytest.mark.parametrize("argv", [("build",), ("quotients",), ("export", "--what", "json")])
@pytest.mark.parametrize("p", [99999999999, 3000000])
def test_amalgam_entry_above_order_limit_is_refused_before_enumerating(capsys, argv, p):
    code, out, err = run(capsys, *argv, "--facet", f"dihedron({p})", "--vfig", "hosohedron(3)")
    assert code == 2 and out == ""
    assert err.startswith(f"bound exceeded: dihedron({p}): group order {4 * p} exceeds")


def test_build_long_relator_hits_coset_budget(capsys):
    # (s0 s1)^5000, at the order limit, has two distinct rotations, not 20000
    code, out, _ = run(capsys, "build", "--facet", "dihedron(5000)", "--vfig", "hosohedron(2)",
                       "--max-cosets", "1000")
    assert code == 2 and "exceeded-limit" in out


def test_build_exceeded_exit_code(capsys, monkeypatch):
    code, out, _ = run(capsys, "build", "--facet", "cube",
                       "--vfig", "hemi-icosahedron", "--max-cosets", "100")
    assert code == 2


def test_budget_bounds_the_lifted_order_not_the_trivial_enumeration(capsys):
    # case 6's 660 elements come from 11 facet and 11 vertex-figure cosets;
    # the trivial subgroup would need 2950 cosets
    code, out, _ = run(capsys, "build", "--facet", "icosahedron", "--vfig", "hemidodecahedron",
                       "--max-cosets", "1000")
    assert code == 0 and ": collapsed" in out and "group order 660" in out


def test_stretch_run_keeps_a_given_coset_budget(capsys):
    # the full stretch run enumerates 5,337,342 cosets; with a budget of 1000
    # it stops at once, and an outcome other than exists fails no criterion
    code, out, _ = run(capsys, "verify", "--case", "13", "--stretch", "--max-cosets", "1000")
    assert code == 0
    assert out == ("[FAIL] criterion 13: case 20 stretch outcome: "
                   "expected 'exists', got 'exceeded-limit' (stretch)\n")


def test_stretch_table1_keeps_a_given_coset_budget(capsys):
    code, out, _ = run(capsys, "table1", "--stretch", "--max-cosets", "1000",
                       "--format", "json")
    assert code == 0
    by_case = {r["case"]: r for r in json.loads(out)}
    assert by_case[20]["outcome"] == by_case[22]["outcome"] == "exceeded-limit"


@pytest.mark.parametrize("max_cosets, expected", [(None, STRETCH_MAX_COSETS), (1000, 1000)])
def test_stretch_budget_is_the_default_only(max_cosets, expected):
    assert RunConfig(max_cosets=max_cosets, stretch=True).max_cosets == expected


def test_quotients_case10_json(capsys):
    code, out, _ = run(capsys, "quotients", "--facet", "cube", "--vfig", "hemicross",
                       "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["total_quotients"] == 4 and data["regular"] == 3


def test_quotients_text_mentions_expected(capsys):
    code, out, _ = run(capsys, "quotients", "--facet", "cube", "--vfig", "hemicross")
    assert code == 0
    assert "expected (case 10): 4" in out


def test_table1_json(capsys):
    code, out, _ = run(capsys, "table1", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 22
    by_case = {r["case"]: r for r in rows}
    assert by_case[7]["outcome"] == "exists"
    assert by_case[20]["outcome"] == "exceeded-limit"


def test_table1_computes_the_dual_partners_once(capsys, monkeypatch):
    calls = _count_calls(monkeypatch, "reversal_partners")
    code, out, _ = run(capsys, "table1", "--format", "json")
    assert code == 0 and len(calls) == 1
    # case 22's partner is recorded although an exceeded case 20 gives it nothing to derive from
    assert {r["case"]: r["dual_of"] for r in json.loads(out)}[22] == 20


def test_verify_single_criterion(capsys):
    code, out, _ = run(capsys, "verify", "--case", "1")
    assert code == 0
    assert "PASS" in out and "FAIL" not in out


@pytest.mark.parametrize("case", ["99", "0", "13"])
def test_verify_unknown_criterion_is_usage_error(capsys, case):
    code, out, err = run(capsys, "verify", "--case", case)
    assert code == 3 and out == ""
    assert err == f"usage error: no criterion {case}: choose 1-12, or 13 with --stretch\n"


@pytest.mark.parametrize("case", range(1, 13))
def test_verify_stretch_with_another_criterion_is_usage_error(capsys, case):
    code, out, err = run(capsys, "verify", "--case", str(case), "--stretch")
    assert code == 3 and out == ""
    assert err == (f"usage error: no criterion {case} with --stretch: "
                   "choose 1-12, or 13 with --stretch\n")


def _count_calls(monkeypatch, name):
    """Count the calls of an amalgam function through every binding of it in
    the package, so that a call through any module's import is counted."""
    from polyquot import amalgam

    calls, original = [], getattr(amalgam, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module_name, module in list(sys.modules.items()):
        if module_name.startswith("polyquot") and getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, counted)
    return calls


def test_full_stretch_verify_builds_case20_once(capsys, monkeypatch):
    # and each desk case once: one classify_table1 call, whose 12 builds
    # are the cases it does not derive from a partner or skip as large
    from polyquot import amalgam

    calls = []
    case20 = amalgam.UniversalResult(amalgam.case_spec(20).amalgam(), amalgam.EXISTS, None,
                                     120, 60, order_reconstructed=600415200,
                                     intersection=True)

    def over_facet(case, max_cosets):
        calls.append((case.number, max_cosets))
        return case20

    monkeypatch.setattr(amalgam, "build_universal_over_facet", over_facet)
    table1_calls = _count_calls(monkeypatch, "classify_table1")
    builds = _count_calls(monkeypatch, "build_universal")
    code, out, _ = run(capsys, "verify", "--stretch")
    assert code == 0 and calls == [(20, STRETCH_MAX_COSETS)]
    assert len(table1_calls) == 1 and len(builds) == 12
    assert "[FAIL]" not in out
    assert [line for line in out.splitlines() if "criterion 13" in line] == [
        "[PASS] criterion 13: case 20 facet-coset index: expected 5003460, got 5003460 (stretch)",
        "[PASS] criterion 13: case 20 group order: expected 600415200, got 600415200 (stretch)",
        "[PASS] criterion 13: case 20 intersection condition: expected True, got True (stretch)",
        "[PASS] criterion 13: case 22 group order: expected 600415200, got 600415200 (stretch)",
    ]


def test_export_entry_json(capsys):
    code, out, _ = run(capsys, "export", "--entry", "hemicube", "--what", "json")
    assert code == 0
    data = json.loads(out)
    assert data["face_counts"] == [4, 6, 3]


def test_export_hasse(capsys):
    code, out, _ = run(capsys, "export", "--entry", "hemicube", "--what", "hasse")
    assert code == 0
    assert out.startswith("digraph")


def test_export_needs_target(capsys):
    code, _, err = run(capsys, "export", "--what", "json")
    assert code == 3


def test_dump_presentations_roundtrip(tmp_path, capsys):
    code, _, _ = run(capsys, "dump-presentations", "--output-dir", str(tmp_path))
    assert code == 0
    entries = {e.name.replace("(", "_").replace(")", "") + ".pres": e
               for e in rank3_catalog(degenerate=True)}
    assert sorted(f.name for f in tmp_path.iterdir()) == sorted(entries) and len(entries) == 19
    for fname, e in entries.items():
        pres = read_presentation((tmp_path / fname).read_text())
        assert pres == e.presentation(), fname
        assert coset_enumeration(pres).n_cosets == e.expected_order, fname


def test_output_path(tmp_path, capsys):
    out_file = tmp_path / "cat.json"
    code, out, _ = run(capsys, "catalog", "--format", "json",
                       "--output-path", str(out_file))
    assert code == 0 and out == ""
    assert json.loads(out_file.read_text())


def test_output_path_in_a_missing_directory_is_usage_error(tmp_path, capsys):
    code, out, err = run(capsys, "catalog", "--format", "json",
                         "--output-path", str(tmp_path / "missing" / "cat.json"))
    assert code == 3 and out == "" and err.startswith("usage error:")


def test_output_dir_that_is_a_file_is_usage_error(tmp_path, capsys):
    a_file = tmp_path / "a_file"
    a_file.write_text("")
    code, out, err = run(capsys, "dump-presentations", "--output-dir", str(a_file))
    assert code == 3 and out == "" and err.startswith("usage error:")


def test_negative_max_cosets_is_usage_error(capsys):
    code, _, err = run(capsys, "build", "--facet", "cube", "--vfig", "hemicross",
                       "--max-cosets", "-1")
    assert code == 3 and err.startswith("usage error:")


def test_zero_max_cosets_is_usage_error(capsys):
    code, _, err = run(capsys, "build", "--facet", "cube", "--vfig", "hemicross",
                       "--max-cosets", "0")
    assert code == 3 and err.startswith("usage error:")


def test_negative_subgroup_bound_is_usage_error(capsys):
    code, _, err = run(capsys, "quotients", "--facet", "cube", "--vfig", "hemicross",
                       "--subgroup-bound", "-5")
    assert code == 3 and err.startswith("usage error:")


CASE10 = ("--facet", "cube", "--vfig", "hemicross")


@pytest.mark.parametrize("argv", [
    ("catalog", "--max-cosets", "7"),
    ("catalog", "--subgroup-bound", "5"),
    ("catalog", "--stretch"),
    ("build", *CASE10, "--subgroup-bound", "5"),
    ("build", *CASE10, "--stretch"),
    ("quotients", *CASE10, "--stretch"),
    ("table1", "--subgroup-bound", "5"),
    ("verify", "--format", "json"),
    ("export", "--entry", "hemicube", "--subgroup-bound", "5"),
    ("export", "--entry", "hemicube", "--stretch"),
    ("export", "--entry", "hemicube", "--format", "text"),
    ("export", "--entry", "cube", *CASE10),
    ("export", "--entry", "cube", "--max-cosets", "5"),
], ids=lambda argv: " ".join(a for a in argv if a not in CASE10))
def test_option_the_subcommand_does_not_read_is_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 3 and out == "" and err.startswith("usage error:")


def test_table1_text(capsys):
    code, out, _ = run(capsys, "table1")
    assert code == 0
    assert sum(line.startswith("case") for line in out.splitlines()) == 22


def test_quotients_case10_dot(capsys):
    code, out, _ = run(capsys, "quotients", *CASE10, "--format", "dot")
    assert code == 0 and out.startswith("digraph quotients")
    assert sum("[label=" in line for line in out.splitlines()) == 4


@pytest.mark.parametrize("criterion", [4, 5, 6, 7, 8, 9, 10, 12])
def test_verify_criterion_over_the_coset_budget_is_a_bound(capsys, criterion):
    code, out, err = run(capsys, "verify", "--case", str(criterion), "--max-cosets", "10")
    assert code == 2 and out == ""
    assert err.startswith("bound exceeded: case ") and "Traceback" not in err


@pytest.mark.parametrize("criterion", [2, 3])
def test_verify_cube_criteria_keep_the_subgroup_bound(capsys, criterion):
    code, out, err = run(capsys, "verify", "--case", str(criterion), "--subgroup-bound", "5")
    assert code == 2 and out == ""
    assert err.startswith("bound exceeded: group order ")


def test_quotients_exceeded_coset_budget(capsys):
    code, _, err = run(capsys, "quotients", "--facet", "cube", "--vfig", "hemi-icosahedron",
                       "--max-cosets", "100")
    assert code == 2 and err == "coset enumeration exceeded the limit\n"


def test_export_exceeded_coset_budget(capsys):
    code, out, err = run(capsys, "export", *CASE10, "--max-cosets", "10")
    assert code == 2 and out == "" and err == "coset enumeration exceeded the limit\n"


def test_quotients_of_a_collapsed_case(capsys):
    code, _, err = run(capsys, "quotients", "--facet", "hemicube", "--vfig", "icosahedron")
    assert code == 1 and err.startswith("universal does not exist: collapsed")


def test_quotients_subgroup_bound_exceeded(capsys):
    code, out, err = run(capsys, "quotients", *CASE10, "--subgroup-bound", "100")
    assert code == 2 and out == ""
    assert err == "bound exceeded: group order 192 exceeds subgroup-enumeration bound 100\n"


def test_build_case11_json(capsys):
    code, out, _ = run(capsys, "build", "--facet", "hemicube", "--vfig", "hemicross",
                       "--format", "json")
    assert code == 0 and json.loads(out)["group_order"] == 96


def test_export_universal_flag_graph(capsys):
    code, out, _ = run(capsys, "export", *CASE10, "--what", "flags")
    assert code == 0 and out.startswith("graph flags")
    assert out.count(" -- ") == 384  # 192 flags, 4 adjacencies


def test_export_universal_json(capsys):
    code, out, _ = run(capsys, "export", *CASE10, "--what", "json")
    assert code == 0 and json.loads(out)["face_counts"] == [8, 12, 12, 4]


def test_relator_mismatch_is_a_verification_failure(capsys, monkeypatch):
    from polyquot import amalgam, coset
    from polyquot.coset import CLOSED, CosetTable

    def two_swapped_cosets(pres, subgroup=(), max_cosets=None):
        # breaks the odd-length Petrie relator of the hemicross vertex figure
        rows = np.array([[1] * pres.rank, [0] * pres.rank], dtype=np.int32)
        return CosetTable(pres, (), rows, CLOSED, 2)

    # the parabolics' two swapped cosets lift nothing, so the trivial subgroup's do
    monkeypatch.setattr(coset, "coset_enumeration", two_swapped_cosets)
    monkeypatch.setattr(amalgam, "coset_enumeration", two_swapped_cosets)
    code, _, err = run(capsys, "build", "--facet", "cube", "--vfig", "hemicross")
    assert code == 1
    assert err.startswith("verification mismatch:") and "Traceback" not in err


def test_lifted_relator_mismatch_is_a_verification_failure(capsys, monkeypatch):
    from polyquot import amalgam, coset
    from polyquot.coset import CLOSED, CosetTable

    # case 7's 11 facets, given for both parabolics of {15,2,15} (prescribed
    # groups of order 60 each), lift to case 7's group of order 660 = 11 * 60,
    # which breaks the relator (s1 s2)^2: s1 s2 has order 5 there
    case7 = amalgam.case_spec(7).amalgam()
    facets = coset.coset_enumeration(amalgam.amalgam_presentation(case7), (0, 1, 2))
    rows = facets.table.copy()

    def case7_facets(pres, subgroup=(), max_cosets=None):
        return CosetTable(pres, tuple(subgroup), rows, CLOSED, len(rows))

    monkeypatch.setattr(coset, "coset_enumeration", case7_facets)
    code, _, err = run(capsys, "build", "--facet", "dihedron(15)", "--vfig", "hosohedron(15)")
    assert code == 1
    assert err.startswith("verification mismatch:") and "Traceback" not in err
