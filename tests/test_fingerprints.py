"""The JSON reports stay byte-identical across refactors.

sha256 of `polyquot quotients --facet F --vfig V --format json` for each
desk-scale case and of `polyquot table1 --format json`, as recorded in
CHANGES.md.  The quotient reports come from the session workspace, so nothing
is classified twice.  The reports do not show the representatives' generators,
so the masked subgroup lattice that the quotient search walks is fingerprinted
too: class sizes, representative element ids and generator ids.
"""

import hashlib
import json

import pytest

from polyquot.amalgam import case_spec
from polyquot.cli import _dumps, main
from polyquot.permgroups import enumerate_subgroups_within
from polyquot.quotients import semisparse_allowed_mask

QUOTIENTS_SHA256 = {
    7: "3f7a36da9bbd9f8791b9ddd93a2e98e444d4f19a98d73a55111d2127316bb875",
    10: "8810ffb9bfed5be00a445f01ec2b7fd95224a94b27da63bc35fb754ca0df4ad2",
    11: "0688af2c109b4869c5c37b8f4151c3e43b2c16e736e2984927717e6d056374c2",
    12: "26b0c4026b1821df04d87cee84822debfe4ce1c694d25ff6dab0fd5dd85ccd19",
    13: "01eed961de4649cf35cc23d4fa1b5774064495181b370694d5597af04d9e354a",
    19: "2a726e97faff0da9ad9014d160aad7f09a36c4115c4cd1b59c22472bf6364c7e",
    21: "9a64d39fac405eac901d262c642eb35bd793fa89772205cb9493ad8a0c34d1ce",
}
TABLE1_SHA256 = "eb5e80dfed0a06b3fa74fd3404423455fef5d1dfed467d7fc8d0b03657366042"
MASKED_LATTICE_SHA256 = {
    7: "4263b9045f343a92f0e6093ed86e096d53a193efaefc64a958c7f7878eeb7954",
    10: "4d1d9ea72078f63caf8a85024d02f657ac46c2db531b34e5945b2f1ceb5fa4b2",
    11: "fb3d3f03278715d114f44f7798c7cad89e442803d11614133a8f960426c679ed",
    12: "a5ec9f303cffc5c9fdea1b9e5bff4b51cfb2362b70dc7f8c0ae465a4faa375e8",
    13: "df7b9054e98aca3df257b82d2ea726acdd811f421cfb969ea0698083a7768c46",
    21: "454d84a19129563892097843234155b6bcc0e69457321c1cedc0b6f0ff13d462",
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("case", sorted(QUOTIENTS_SHA256))
def test_quotients_json_fingerprint(ws, case):
    js = ws.report(case).to_json()
    js["universal"] = case_spec(case).amalgam().name  # the CLI's name for the report
    assert _sha256(_dumps(js)) == QUOTIENTS_SHA256[case]


def test_table1_json_fingerprint(capsys):
    assert main(["table1", "--format", "json"]) == 0
    assert _sha256(capsys.readouterr().out) == TABLE1_SHA256


@pytest.mark.parametrize("case", sorted(MASKED_LATTICE_SHA256))
def test_masked_lattice_fingerprint(ws, case):
    g = ws.universal(case).group
    classes = enumerate_subgroups_within(g, semisparse_allowed_mask(g))
    rows = [[c.size, c.rep.elem_ids.tolist(), list(c.rep.gen_ids)] for c in classes]
    assert _sha256(json.dumps(rows)) == MASKED_LATTICE_SHA256[case]
