"""The JSON and DOT reports stay byte-identical across refactors.

sha256 of `polyquot quotients --facet F --vfig V --format json` and
`--format dot` for each desk-scale case and of `polyquot table1 --format
json`, as recorded in CHANGES.md.  The quotient reports come from the session
workspace, so nothing is classified twice.  The masked subgroup lattice that
the quotient search walks is fingerprinted too, by class sizes and
representative element ids, and so is the lattice inside the earlier, weaker
reference mask `oracles.generator_pair_mask`, whose pins predate the current
mask.  The generators recorded with a representative follow the search's
path, so they are not pinned; each class is checked to be generated by them,
which is what the normaliser test needs.
"""

import hashlib
import json

import numpy as np
import pytest

from polyquot.amalgam import case_spec
from polyquot.cli import _dumps, main
from polyquot.permgroups import enumerate_subgroups_within
from polyquot.quotients import quotient_lattice_dot, semisparse_allowed_mask

from oracles import generator_pair_mask

QUOTIENTS_SHA256 = {
    7: "3f7a36da9bbd9f8791b9ddd93a2e98e444d4f19a98d73a55111d2127316bb875",
    10: "8810ffb9bfed5be00a445f01ec2b7fd95224a94b27da63bc35fb754ca0df4ad2",
    11: "0688af2c109b4869c5c37b8f4151c3e43b2c16e736e2984927717e6d056374c2",
    12: "26b0c4026b1821df04d87cee84822debfe4ce1c694d25ff6dab0fd5dd85ccd19",
    13: "01eed961de4649cf35cc23d4fa1b5774064495181b370694d5597af04d9e354a",
    19: "2a726e97faff0da9ad9014d160aad7f09a36c4115c4cd1b59c22472bf6364c7e",
    21: "9a64d39fac405eac901d262c642eb35bd793fa89772205cb9493ad8a0c34d1ce",
}
QUOTIENTS_DOT_SHA256 = {
    7: "d2d9eea271292a03480dd84e27368fb230f9bec3e53baa50928b1e7768b7732e",
    10: "8001d8435cefede431f0f1e1d05fbe0b584c936e66366a1d7f108b6c619592c9",
    11: "d2d9eea271292a03480dd84e27368fb230f9bec3e53baa50928b1e7768b7732e",
    12: "8001d8435cefede431f0f1e1d05fbe0b584c936e66366a1d7f108b6c619592c9",
    13: "517d28ead4ca210eaf2f50fc8a83ecd6c7467b8f81221f1a720c77fe504de99a",
    19: "db1c42202c674c2f768a0f94a466f7b5084c1c667166c485ef7299a47b4df244",
    21: "d2d9eea271292a03480dd84e27368fb230f9bec3e53baa50928b1e7768b7732e",
}
TABLE1_SHA256 = "f9b5c20b712901a3850d739c3b81d9126471331352d27de16a5538beeabee49e"
MASKED_LATTICE_SHA256 = {
    7: "8e5cca544e764412dc8b41d5034f3ac6c066a064cd9e204a48d1c018943529db",
    10: "e12cbec2975b151c05def7cd885635d0c222984106819a3205d969690d63d2eb",
    11: "8e5cca544e764412dc8b41d5034f3ac6c066a064cd9e204a48d1c018943529db",
    12: "6e9eeceb880b0e3a1d7dd59d23c12d21af92dfd82741a52b329b0e85f63776b1",
    13: "ee84d1c87eb584d1486afeaab66049e9f8c8c808d595dec853d8a71d3ddb2c6a",
    19: "691ec56e95090d25d63e9c8a1f8913b4dc32ec4615c1ebdca31a9ef534d4be55",
    21: "85c339081ba1dab37d4bc322f32a04234ecd9f4af059310f50ec43726bc8ada0",
}
REFERENCE_MASK_LATTICE_SHA256 = {  # inside oracles.generator_pair_mask
    7: "e153e001d02e805c771be40d77376489ba164e9874ad3fd81a9e450ca55096e8",
    10: "a8da9f3850f6f887e56706a4f121d5fc7753715da66ff68b5ca9907050deb0f3",
    11: "02eb964b6289dc0b06892db82e7e46ba06c961baf68f46b054005bd95ad9b8d1",
    12: "3869eecbc6d95d7f609d71340a32d6bc18a0707cfced61daedea3e2e7fd495d4",
    13: "efa6a97e80f0e0d3d42ffa626121c61a6e7afccd83efdf7a724e7ab732dc0129",
    19: "c8ac69c6a18aefd104b450f998b7c4e289b3ea65c679519c97ea0954dc2949b9",
    21: "8780b688937b841f5413aab65f3898e215385755c3eefcf7a42fecc845b2a813",
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("case", sorted(QUOTIENTS_SHA256))
def test_quotients_json_fingerprint(ws, case):
    js = ws.report(case).to_json()
    js["universal"] = case_spec(case).amalgam().name  # the CLI's name for the report
    assert _sha256(_dumps(js)) == QUOTIENTS_SHA256[case]


@pytest.mark.parametrize("case", sorted(QUOTIENTS_DOT_SHA256))
def test_quotients_dot_fingerprint(ws, case):
    dot = quotient_lattice_dot(ws.report(case), ws.universal(case).group)
    assert _sha256(dot) == QUOTIENTS_DOT_SHA256[case]


def test_table1_json_fingerprint(capsys):
    assert main(["table1", "--format", "json"]) == 0
    assert _sha256(capsys.readouterr().out) == TABLE1_SHA256


def _assert_lattice_fingerprint(g, allowed, sha256):
    classes = enumerate_subgroups_within(g, allowed)
    rows = [[c.size, c.rep.elem_ids.tolist()] for c in classes]
    assert _sha256(json.dumps(rows)) == sha256
    for c in classes:  # the normaliser test reads the recorded generators
        assert np.array_equal(g.closure_ids(c.rep.gen_ids), c.rep.elem_ids)


@pytest.mark.parametrize("case", sorted(REFERENCE_MASK_LATTICE_SHA256))
def test_masked_lattice_fingerprint(ws, case):
    g = ws.universal(case).group
    _assert_lattice_fingerprint(g, generator_pair_mask(g), REFERENCE_MASK_LATTICE_SHA256[case])


@pytest.mark.parametrize("case", sorted(MASKED_LATTICE_SHA256))
def test_semisparse_mask_lattice_fingerprint(ws, case):
    g = ws.universal(case).group
    _assert_lattice_fingerprint(g, semisparse_allowed_mask(g), MASKED_LATTICE_SHA256[case])
