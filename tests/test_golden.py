"""Pinned report bytes: `certify --json` on every bundled candidate at bounds 8 and 16,
on two of them re-presented with 16 generators at bound 8, `compare-qu --json
--bound 16` on two pairs of candidates whose sides differ, and `snf --json` on a
16-generator relation matrix.

The files in tests/golden/ are the canonical reports. Any change to them is a
change of behaviour and must be argued, never regenerated to get a pass.
"""

import pathlib

import pytest

from lamprigid import cli

ROOT = pathlib.Path(__file__).resolve().parents[1]
CANDIDATES = ("free_rank1", "free_rank2_p3", "mixed_free_torsion", "torsion_only")


@pytest.mark.parametrize("bound", [8, 16])
@pytest.mark.parametrize("name", CANDIDATES)
def test_certify_report_matches_golden(name, bound, capsys):
    code = cli.main(["certify", str(ROOT / "candidates" / f"{name}.json"),
                     "--qu-bound", str(bound), "--json"])
    assert code == (1 if name == "torsion_only" else 0)
    expected = (ROOT / "tests" / "golden" / f"{name}_b{bound}.json").read_text()
    assert capsys.readouterr().out == expected


# The bundled modules have at most 2 generators; these re-present two of them
# with 16 (tests/data/disguised16_*.json), so SNF elimination, its determinant
# certificates and the law check work on wide, sparse matrices.
@pytest.mark.parametrize("name", ["free_rank2_p3", "torsion_only"])
def test_disguised_certify_report_matches_golden(name, capsys):
    code = cli.main(["certify", str(ROOT / "tests" / "data" / f"disguised16_{name}.json"),
                     "--qu-bound", "8", "--json"])
    assert code == (1 if name == "torsion_only" else 0)
    expected = (ROOT / "tests" / "golden" / f"disguised16_{name}_b8.json").read_text()
    assert capsys.readouterr().out == expected


# Both sides have classes of their own, over different fields; and a left-only
# difference where the right side's classes are a subset of the left's.
COMPARISONS = (("free_rank1", "free_rank2_p3"), ("mixed_free_torsion", "torsion_only"))


@pytest.mark.parametrize("left,right", COMPARISONS)
def test_compare_qu_report_matches_golden(left, right, capsys):
    code = cli.main(["compare-qu", str(ROOT / "candidates" / f"{left}.json"),
                     str(ROOT / "candidates" / f"{right}.json"), "--bound", "16", "--json"])
    assert code == 0
    expected = (ROOT / "tests" / "golden" / f"compare_{left}_{right}_b16.json").read_text()
    assert capsys.readouterr().out == expected


# The relation matrix of tests/data/disguised16_free_rank2_p3.json as a matrix
# JSON. The certify reports print only the rows of U that form phi; this pins
# all of U, D and V.
def test_snf_matches_golden(capsys):
    matrix = ROOT / "tests" / "data" / "disguised16_free_rank2_p3_relations.json"
    code = cli.main(["snf", str(matrix), "--json"])
    assert code == 0
    expected = (ROOT / "tests" / "golden" / "snf_disguised16_free_rank2_p3.json").read_text()
    assert capsys.readouterr().out == expected
