import json
import os
import pathlib
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles

from lamprigid import (
    CandidateGroup,
    FieldSpec,
    FpPoly,
    ModulePresentation,
    PolyMatrix,
    abelianization_check,
    certify,
    choose_m,
    decompose,
    rank_check,
)
from lamprigid import cli, jsonio, laurent_modules, pipeline, wreath
from lamprigid.errors import CertificateError, InvalidInput

F2 = FieldSpec(2)
F3 = FieldSpec(3)


def poly(field, *coeffs):
    return FpPoly(field, tuple(coeffs))


def mixed_candidate():
    pres = ModulePresentation.make(F2, 2, [[FpPoly.zero(F2)], [poly(F2, 1, 1, 1)]])
    return CandidateGroup(F2, 1, pres)


def torsion_candidate():
    pres = ModulePresentation.make(F2, 1, [[poly(F2, 1, 1)]])
    return CandidateGroup(F2, 1, pres)


class TestAbelianizationCheck:
    def test_free_modules_pass(self):
        for n in (1, 2, 3):
            check = abelianization_check(CandidateGroup.free(F3, n))
            assert check.passed and check.coinvariant_dimension == n

    def test_mixed_candidate_dimension(self):
        # 1 free coordinate + deg gcd(x^2 + x + 1, x - 1) = 1 + 0
        check = abelianization_check(mixed_candidate())
        assert check.passed and check.coinvariant_dimension == 1

    def test_torsion_candidate_passes_here(self):
        # dimension 1 matches n; this candidate fails later, at the rank check
        check = abelianization_check(torsion_candidate())
        assert check.passed and check.coinvariant_dimension == 1

    def test_wrong_rank_fails(self):
        check = abelianization_check(CandidateGroup(F2, 2, ModulePresentation.free(F2, 1)))
        assert not check.passed


class TestChooseM:
    def test_no_torsion_p2(self):
        assert choose_m(decompose(ModulePresentation.free(F2, 1))) == 3

    def test_quadratic_torsion_p2(self):
        assert choose_m(decompose(mixed_candidate().presentation)) == 5

    def test_linear_torsion_p3(self):
        pres = ModulePresentation.make(F3, 1, [[poly(F3, 2, 1)]])
        assert choose_m(decompose(pres)) == 4

    def test_never_divisible_by_p(self):
        for pres in (ModulePresentation.free(F2, 1), ModulePresentation.free(F3, 2),
                     mixed_candidate().presentation):
            m = choose_m(decompose(pres))
            dec = decompose(pres)
            assert m % pres.field.p != 0
            assert m >= dec.torsion_degree_sum + 2


class TestRankCheck:
    def test_equal_rank_passes(self):
        check = rank_check(decompose(ModulePresentation.free(F2, 1)), 1, 3)
        assert check.passed and check.inequality_holds

    def test_torsion_only_fails_with_inequality_display(self):
        check = rank_check(decompose(torsion_candidate().presentation), 1, 4)
        assert not check.passed
        assert (check.inequality_lhs, check.inequality_rhs) == (4, 2)
        assert not check.inequality_holds

    def test_surplus_rank_passes(self):
        check = rank_check(decompose(ModulePresentation.free(F2, 2)), 1, 3)
        assert check.passed and check.free_rank == 2

    def test_pass_is_consistent_with_inequality(self):
        # whenever r >= n the displayed inequality cannot contradict the verdict
        for pres, n in [(ModulePresentation.free(F2, 1), 1),
                        (ModulePresentation.free(F3, 3), 2),
                        (mixed_candidate().presentation, 1)]:
            dec = decompose(pres)
            check = rank_check(dec, n, choose_m(dec))
            if check.passed:
                assert check.inequality_holds


class TestCertify:
    def test_free_candidate_full_pass(self):
        report = certify(CandidateGroup.free(F2, 1), qu_bound=8)
        assert report.certified and report.failed_stage is None
        phi = report.epimorphism.phi
        assert phi.rows == phi.cols == 1 and str(phi.entry(0, 0)) == "1"
        assert report.qu_comparison.equal

    def test_mixed_candidate_full_pass(self):
        report = certify(mixed_candidate(), qu_bound=8)
        assert report.certified
        assert report.chosen_m == 5
        assert report.epimorphism.phi.entry(0, 1).is_zero

    def test_torsion_candidate_fails_at_rank(self):
        report = certify(torsion_candidate(), qu_bound=8)
        assert not report.certified
        assert report.failed_stage == "rank_check"
        assert report.rank_check is not None and not report.rank_check.passed
        assert report.epimorphism is None
        assert not report.qu_comparison.equal
        assert report.qu_comparison.witness is not None

    def test_wrong_abelianization_skips_rank(self):
        report = certify(CandidateGroup(F2, 2, ModulePresentation.free(F2, 1)), qu_bound=4)
        assert report.failed_stage == "abelianization_check"
        assert report.rank_check is None and report.epimorphism is None
        out = json.loads(jsonio.canonical_dumps(jsonio.report_to_json(report)))
        assert out["rank_check"] is None and out["epimorphism"] is None
        assert out["ab_check"] == {"passed": False, "coinvariant_dimension": 1, "expected_rank": 2}

    def test_stage_consistency(self):
        for candidate in (CandidateGroup.free(F2, 1), mixed_candidate(), torsion_candidate()):
            report = certify(candidate, qu_bound=4)
            if report.epimorphism is not None:
                assert report.rank_check.passed
                assert report.ab_check.passed

    def test_one_snf_of_the_relations_per_certify(self, monkeypatch):
        path = pathlib.Path(__file__).resolve().parents[1] / "candidates" / "free_rank1.json"
        candidate = jsonio.parse_candidate(json.loads(path.read_text()))
        snf = laurent_modules.smith_normal_form
        sources = []

        def counting(m):
            sources.append(m)
            return snf(m)

        monkeypatch.setattr(laurent_modules, "smith_normal_form", counting)
        assert certify(candidate, qu_bound=8).certified
        assert sum(m is candidate.presentation.relations for m in sources) == 1

    def test_no_snf_of_phi_per_certify(self, monkeypatch):
        snf = laurent_modules.smith_normal_form
        sources = []

        def counting(m):
            sources.append(m)
            return snf(m)

        monkeypatch.setattr(laurent_modules, "smith_normal_form", counting)
        report = certify(mixed_candidate(), qu_bound=4)
        assert report.certified
        assert sum(m is report.epimorphism.phi for m in sources) == 0

    @pytest.mark.parametrize("path, rank_passed", [
        ("candidates/free_rank1.json", True), ("candidates/mixed_free_torsion.json", True),
        ("candidates/torsion_only.json", False),
        ("tests/data/disguised16_free_rank2_p3.json", True),
        ("tests/data/disguised128_free_rank1.json", True),
    ], ids=lambda v: pathlib.Path(v).stem if isinstance(v, str) else None)
    def test_snf_calls_per_certify(self, monkeypatch, path, rank_passed):
        # the relations' SNF alone: it certifies phi too, and the lamp side of
        # the quotient comparison is read as n zeros
        path = pathlib.Path(__file__).resolve().parents[1] / path
        candidate = jsonio.parse_candidate(json.loads(path.read_text()))
        snf = laurent_modules.smith_normal_form
        sources = []

        def counting(m):
            sources.append(m)
            return snf(m)

        for module in [m for key, m in sys.modules.items() if key.startswith("lamprigid")]:
            if getattr(module, "smith_normal_form", None) is snf:
                monkeypatch.setattr(module, "smith_normal_form", counting)
        report = certify(candidate, qu_bound=8)
        assert report.rank_check.passed == rank_passed
        assert len(sources) == 1

    @pytest.mark.parametrize("path", [
        "candidates/free_rank1.json", "candidates/free_rank2_p3.json",
        "candidates/mixed_free_torsion.json", "tests/data/disguised16_free_rank2_p3.json",
        "tests/data/disguised128_free_rank1.json", "tests/data/large_p.json",
    ], ids=lambda path: pathlib.Path(path).stem)
    def test_recorded_phi_passes_the_oracles(self, path):
        # phi has no certificate of its own, so check it outside the library's SNF:
        # it kills every relator and the oracle elimination of phi has an all-unit
        # diagonal, so it is onto. torsion_only records no phi (free rank 0).
        path = pathlib.Path(__file__).resolve().parents[1] / path
        candidate = jsonio.parse_candidate(json.loads(path.read_text()))
        phi = certify(candidate, qu_bound=2).epimorphism.phi
        assert oracles.list_matrix_mul(phi, candidate.presentation.relations).is_zero
        _, d, _ = oracles.fppoly_smith(phi)
        diag = [d.entry(i, i) for i in range(min(d.rows, d.cols))]
        assert len(diag) == candidate.n
        assert all(not f.is_zero and f.strip_x().degree == 0 for f in diag)

    def test_reports_byte_identical(self):
        a = jsonio.canonical_dumps(jsonio.report_to_json(certify(mixed_candidate(), seed=5)))
        b = jsonio.canonical_dumps(jsonio.report_to_json(certify(mixed_candidate(), seed=5)))
        assert a == b

    def test_large_prime_candidate_certified(self, capsys):
        # p = 10^18 + 3: the law check's sums leave int64 and must stay exact
        path = pathlib.Path(__file__).resolve().parents[1] / "tests" / "data" / "large_p.json"
        assert cli.main(["certify", str(path), "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["certified"] is True

    @pytest.mark.parametrize("bound", ["8", "16"])
    @pytest.mark.parametrize("p", [2 ** 63 + 29, 2 ** 64 + 13])
    def test_prime_past_int64_certified(self, p, bound, capsys):
        # p > bound leaves only the zero module, whose arrays are empty; p must
        # still never be converted to int64 there
        def free_rank1(q):
            return json.dumps({"p": q, "n": 1, "presentation": {"generators": 1, "relations": []}})

        def output(*argv):
            assert cli.main(list(argv)) == 0
            return json.loads(capsys.readouterr().out)

        assert output("certify", free_rank1(p), "--qu-bound", bound, "--json")["certified"] is True
        assert output("compare-qu", free_rank1(p), free_rank1(10 ** 18 + 3), "--bound", bound,
                      "--json")["equal"] is True
        assert output("quotients", free_rank1(p), "--bound", bound, "--json") \
            == output("quotients", free_rank1(10 ** 18 + 3), "--bound", bound, "--json")


_INCONSISTENT_REPORT_SCRIPT = """
import dataclasses
import json
from lamprigid import CandidateGroup, FieldSpec, certify
from lamprigid.errors import CertificateError

report = certify(CandidateGroup.free(FieldSpec(2), 1), qu_bound=4)
inconsistent = {
    "epimorphism dropped": {"epimorphism": None},
    "abelianization failed": {"ab_check": dataclasses.replace(report.ab_check, passed=False)},
}
result = {"debug": __debug__}
for name, change in inconsistent.items():
    try:
        dataclasses.replace(report, **change)
        result[name] = "accepted"
    except CertificateError as exc:
        result[name] = str(exc)
print(json.dumps(result))
"""


def test_inconsistent_report_rejected_under_optimize():
    proc = subprocess.run([sys.executable, "-O", "-c", _INCONSISTENT_REPORT_SCRIPT],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {
        "debug": False,
        "epimorphism dropped": "epimorphism recorded iff the rank check passed",
        "abelianization failed": "rank check passed after a failed abelianization check",
    }


class TestJsonSchemas:
    def test_candidate_round_trip(self):
        data = {"p": 2, "n": 1, "presentation": {
            "generators": 2,
            "relations": [[[]], [[[0, 1], [1, 1], [2, 1]]]]}}
        candidate = jsonio.parse_candidate(data)
        assert candidate.presentation.generators == 2
        assert jsonio.parse_candidate(jsonio.candidate_to_json(candidate)).presentation \
            == candidate.presentation

    def test_laurent_literals_in_relations(self):
        data = {"p": 2, "n": 1, "presentation": {
            "generators": 1, "relations": [[[[-1, 1], [1, 1]]]]}}
        candidate = jsonio.parse_candidate(data)
        dec = decompose(candidate.presentation)
        assert dec.invariant_factors == (poly(F2, 1, 0, 1),)

    def test_cancelled_laurent_terms_do_not_scale_a_row(self):
        # row 0 is x^-1 + x^-1 + x = x over F_2, so it keeps its exponents; row 1
        # is x^-2 + 2x^-3 + x over F_3, whose zero x^-3 term does not count either
        rows = {2: [[[[-1, 1], [-1, 1], [1, 1]]], [[[-2, 1], [1, 1]]]],
                3: [[[[1, 1]]], [[[-2, 1], [-3, 3], [1, 1]]]]}
        expected = {2: [[[[1, 1]]], [[[0, 1], [3, 1]]]], 3: [[[[1, 1]]], [[[0, 1], [3, 1]]]]}
        for p in (2, 3):
            data = {"p": p, "generators": 2, "relations": rows[p]}
            pres = jsonio.parse_presentation(data)
            assert jsonio.presentation_to_json(pres)["relations"] == expected[p]

    def test_malformed_inputs_rejected(self):
        bad_inputs = [
            {"p": 4, "n": 1, "presentation": {"generators": 1, "relations": []}},
            {"p": 2, "presentation": {"generators": 1, "relations": []}},
            {"p": 2, "n": 1, "presentation": {"generators": 0, "relations": []}},
            {"p": 2, "n": 1, "presentation": {"generators": 2, "relations": [[[]]]}},
            {"p": 2, "n": 1, "presentation": {"p": 3, "generators": 1, "relations": []}},
            {"p": 2, "n": 1, "presentation": {"generators": 1, "relations": [[[[0]]]]}},
            {"p": 2, "n": 1, "presentation": {"generators": 3, "relations": [[]] * 5}},
            {"p": 2, "n": 1, "presentation": {"generators": 3, "relations": [[]] * 2}},
        ]
        for data in bad_inputs:
            with pytest.raises(InvalidInput):
                jsonio.parse_candidate(data)
        # no relations, or one empty row per generator, is the free module
        for relations in ([], [[]] * 3):
            pres = jsonio.parse_presentation({"p": 2, "generators": 3, "relations": relations})
            assert pres == ModulePresentation.free(F2, 3)

    def test_matrix_round_trip(self):
        data = {"p": 3, "rows": 1, "cols": 2, "entries": [[[[0, 2]], [[1, 1], [0, 1]]]]}
        m = jsonio.parse_matrix(data)
        assert jsonio.parse_matrix(jsonio.matrix_to_json(m)).entries == m.entries


def standard_dumps(value):
    return json.dumps(value, sort_keys=True, indent=2) + "\n"


# escapes, control characters, non-ASCII text and the characters of the layout
json_strings = st.text(st.one_of(st.sampled_from('"\\[]{},: \n\t\x00\x1f\x7fé中\U0001f600\ud800'),
                                 st.characters()))
json_values = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(),
              st.integers(10 ** 99, 10 ** 130).flatmap(lambda v: st.sampled_from([v, -v])),
              json_strings),
    lambda inner: st.one_of(st.lists(inner, max_size=5),
                            st.dictionaries(json_strings, inner, max_size=5)),
    max_leaves=40)


class TestCanonicalDumps:
    @settings(max_examples=150, deadline=None)
    @given(json_values)
    @example(0)
    @example(-(10 ** 120))
    @example('a"b\\c\\"')
    @example([])
    @example({})
    @example({"": [[], {}, [{}]], "[": {"]": ",:"}})
    def test_equals_the_standard_library(self, value):
        assert jsonio.canonical_dumps(value) == standard_dumps(value)

    def test_peak_memory_within_half_again_of_the_standard_library(self):
        golden = pathlib.Path(__file__).resolve().parent / "golden" / "free_rank2_p3_b16.json"
        payload = [json.loads(golden.read_text())] * 40  # about 0.9 MB of text
        peaks = []
        for dumps in (standard_dumps, jsonio.canonical_dumps):
            tracemalloc.start()
            try:
                text = dumps(payload)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert len(text) > 800_000
        assert peaks[1] <= 1.5 * peaks[0], peaks


def first_coefficient_bumped(phi):
    c = phi.coeffs.copy()
    c[0, 0, 0] += 1  # PolyMatrix reduces it mod p
    return PolyMatrix(phi.field, c)


# The last has a row more than the free rank: that is the program's fault too (3), not
# epimorphism_to_free's AlgebraError (2) for a request it cannot meet.
PHI_CORRUPTIONS = [
    first_coefficient_bumped,
    lambda phi: PolyMatrix.zeros(phi.field, phi.rows, phi.cols),
    lambda phi: PolyMatrix(phi.field, np.concatenate([phi.coeffs, phi.coeffs[:, :1]], axis=1)),
    lambda phi: PolyMatrix(phi.field, np.concatenate([phi.coeffs, phi.coeffs])),
]
PHI_CORRUPTION_IDS = ["one-coefficient", "all-zero", "extra-column", "past-the-free-rank"]


@pytest.mark.parametrize("corrupt", PHI_CORRUPTIONS, ids=PHI_CORRUPTION_IDS)
def test_corrupted_phi_rejected_by_the_wrapper(corrupt):
    pres = mixed_candidate().presentation
    phi = corrupt(laurent_modules.epimorphism_to_free(pres, 1))
    with pytest.raises(CertificateError,
                       match="phi is not the certified projection onto the free coordinates"):
        wreath.build_lamplighter_epimorphism(pres, phi)


def run_cli(*args, stdin=None):
    return subprocess.run(
        [sys.executable, "-m", "lamprigid.cli", *args],
        capture_output=True, text=True, input=stdin, timeout=600)


class TestCli:
    def test_help_exits_zero(self):
        assert run_cli("snf", "--help").returncode == 0
        assert run_cli("--help").returncode == 0

    def test_snf_inline(self):
        res = run_cli("snf", '{"p":2,"rows":1,"cols":1,"entries":[[[[1,1],[0,1]]]]}', "--json")
        assert res.returncode == 0
        assert json.loads(res.stdout)["diag"] == [[[0, 1], [1, 1]]]

    def test_decompose_file(self, tmp_path):
        path = tmp_path / "pres.json"
        path.write_text('{"p":2,"generators":1,"relations":[[[[0,1],[1,1],[2,1]]]]}')
        res = run_cli("decompose", str(path), "--json")
        assert res.returncode == 0
        out = json.loads(res.stdout)
        assert out["free_rank"] == 0 and out["torsion_orders"] == [4]

    def test_wreath_subcommands(self):
        elem = '{"lamps":[[0,[1]]],"shift":1}'
        res = run_cli("wreath", "mul", elem, elem, "--p", "2", "--json")
        assert res.returncode == 0
        assert json.loads(res.stdout) == {"lamps": [[0, [1]], [1, [1]]], "shift": 2}
        res = run_cli("wreath", "inv", elem, "--p", "2", "--json")
        assert json.loads(res.stdout) == {"lamps": [[-1, [1]]], "shift": -1}
        res = run_cli("wreath", "abelianize", '{"lamps":[[0,[1]],[3,[1]]],"shift":5}',
                      "--p", "2", "--json")
        assert json.loads(res.stdout) == {"lamp_sum": [0], "shift": 5}

    def test_quotients_bound_four(self):
        res = run_cli("quotients", "candidates/free_rank1.json", "--bound", "4", "--json")
        assert res.returncode == 0
        names = {cls["name"] for cls in json.loads(res.stdout)["classes"]}
        assert names == {"1", "C2", "C3", "C4", "C2 x C2"}

    def test_compare_qu_witness(self):
        res = run_cli("compare-qu", "candidates/torsion_only.json",
                      "candidates/free_rank1.json", "--bound", "8", "--json")
        assert res.returncode == 0
        out = json.loads(res.stdout)
        assert not out["equal"] and out["witness"]["side"] == "right"

    def test_certify_exit_codes(self):
        assert run_cli("certify", "candidates/free_rank1.json", "--qu-bound", "4").returncode == 0
        assert run_cli("certify", "candidates/torsion_only.json", "--qu-bound", "4").returncode == 1

    def test_input_error_exit_code(self):
        res = run_cli("certify", '{"p":4,"n":1,"presentation":{"generators":1}}')
        assert res.returncode == 2
        assert "input error" in res.stderr
        # p at the bound where primality stops being decided
        res = run_cli("certify", '{"p":3317044064679887385961981,"n":1,'
                      '"presentation":{"generators":1}}')
        assert res.returncode == 2
        assert "too large" in res.stderr
        assert run_cli("certify", "/nonexistent/file.json").returncode == 2
        # all-empty relation rows must still be one per generator
        res = run_cli("decompose", '{"p":2,"generators":3,"relations":[[],[],[],[],[]]}')
        assert res.returncode == 2
        assert res.stderr == "input error: 'relations' must have one row per generator (3)\n"
        # exponents are checked before a dense polynomial is built
        res = run_cli("snf", '{"p":2,"rows":1,"cols":1,"entries":[[[[400000000,1]]]]}')
        assert res.returncode == 2
        assert res.stderr.startswith("input error: exponent 400000000 exceeds the limit")
        assert res.stderr.count("\n") == 1
        res = run_cli("certify", '{"p":2,"n":1,"presentation":{"generators":1,'
                      '"relations":[[[[-400000000,1],[0,1]]]]}}')
        assert res.returncode == 2
        assert res.stderr.startswith("input error: exponent -400000000 exceeds the limit")
        assert res.stderr.count("\n") == 1

    def test_dimension_limits_are_input_errors(self, capsys):
        # checked before any matrix is built: limit + 1 empty relation rows allocate nothing
        g, r = jsonio.MAX_GENERATORS + 1, jsonio.MAX_RELATORS + 1
        cases = [
            (["certify", json.dumps({"p": 2, "n": 1, "presentation": {
                "generators": g, "relations": [[]] * g}})], f"'generators' {g}"),
            (["certify", json.dumps({"p": 2, "n": 1, "presentation": {
                "generators": 1, "relations": [[[]] * r]}})], f"the number of relators {r}"),
            (["certify", json.dumps({"p": 2, "n": g, "presentation": {"generators": 1}})],
             f"'n' {g}"),
            (["snf", json.dumps({"p": 2, "rows": g, "cols": 0, "entries": [[]] * g})],
             f"'rows' {g}"),
            (["snf", json.dumps({"p": 2, "rows": 1, "cols": r, "entries": [[[]] * r]})],
             f"'cols' {r}"),
        ]
        # a relation row that is not a list is malformed input, not a crash
        assert cli.main(["certify", '{"p":2,"n":1,"presentation":{"generators":1,"relations":[5]}}']) == 2
        assert capsys.readouterr().err == "input error: all relation rows must be lists\n"
        for argv, what in cases:
            assert cli.main(argv) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"input error: {what} exceeds the limit") and err.count("\n") == 1
        # at the limit the dimensions are accepted
        text = json.dumps({"p": 2, "n": 1, "presentation": {
            "generators": g - 1, "relations": [[]] * (g - 1)}})
        assert jsonio.parse_candidate(json.loads(text)).presentation.generators == g - 1

    def test_usage_error(self):
        assert run_cli("certify").returncode == 2

    @pytest.mark.parametrize("group", [["--p", "4"], ["--p", "1"], ["--p", "2", "--n", "0"],
                                       ["--p", "2", "--base", "0"], ["--p", "2", "--base", "x"],
                                       ["--p", "2", "--n", "129"]])
    def test_wreath_bad_group_is_input_error(self, group, capsys):
        elem = '{"lamps":[],"shift":1}'
        code = cli.main(["wreath", "mul", elem, elem, *group])
        err = capsys.readouterr().err
        assert code == 2
        assert "Traceback" not in err
        assert err.startswith("input error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("command, content", [
        ("snf", b"[" * 200_000),  # the decoder raises RecursionError far below this depth
        ("certify", b'{"p": 1' + b"0" * 5000 + b', "n": 1}'),  # past the 4300-digit limit
        ("certify", '{"p": 2, "n": 1, "note": "\u00e9"}'.encode("latin-1")),
    ], ids=["deep-nesting", "long-integer", "not-utf8"])
    def test_unreadable_json_is_input_error(self, command, content, tmp_path, capsys):
        path = tmp_path / "input.json"
        path.write_bytes(content)
        code = cli.main([command, str(path)])
        err = capsys.readouterr().err
        assert code == 2, err
        assert err.startswith("input error: cannot read JSON from ") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["snf", "[" * 100_000],
        ["snf", json.dumps({"p": 2, "rows": 1, "cols": 1, "entries": [[[[0] * 50_000]]]})],
        ["wreath", "inv", json.dumps({"lamps": [[0] * 50_000], "shift": 0}), "--p", "2"],
        ["snf", "a" * 100_000],
    ], ids=["inline-json", "long-term", "long-lamp-entry", "long-path"])
    def test_long_input_gives_short_message(self, argv, capsys):
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error: ") and err.count("\n") == 1
        assert len(err.encode()) <= 300

    @pytest.mark.parametrize("argv, code", [
        (["certify", "candidates/free_rank1.json", "--json"], 0),
        (["certify", "candidates/torsion_only.json"], 1),
        (["quotients", "candidates/free_rank1.json", "--bound", "16"], 0),
        (["snf", "tests/data/disguised16_free_rank2_p3_relations.json"], 0),
    ], ids=["certify-json", "certify-uncertified", "quotients", "snf"])
    def test_closed_stdout_keeps_exit_code(self, argv, code):
        # the reader of stdout has quit before the first write, as `| head` may
        root = pathlib.Path(__file__).resolve().parents[1]
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run([sys.executable, "-m", "lamprigid.cli", argv[0], str(root / argv[1]),
                                   *argv[2:]], stdout=write_end, stderr=subprocess.PIPE, timeout=600)
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (code, b"")

    def test_certificate_failure_exit_code(self, monkeypatch, capsys):
        # the batched candidate law without its x^k twist: the input is valid,
        # so the failed law check is the program's fault, not malformed input
        def untwisted(x, y, p):
            return (x[0] + y[0]) % p, x[1], x[2] + y[2]

        monkeypatch.setattr(wreath, "candidate_mul", untwisted)
        path = pathlib.Path(__file__).resolve().parents[1] / "candidates" / "free_rank1.json"
        code = cli.main(["certify", str(path), "--qu-bound", "4"])
        assert code == 3
        assert capsys.readouterr().err == (
            "internal error: certificate failed: homomorphism law failed on a sampled pair\n")

    @pytest.mark.parametrize("corrupt", PHI_CORRUPTIONS, ids=PHI_CORRUPTION_IDS)
    def test_corrupted_phi_is_a_certificate_failure(self, corrupt, monkeypatch, capsys):
        # phi is the program's own on every CLI path, so a phi that fails its
        # epimorphism check is a broken certificate (3), not bad input (2)
        intact = pipeline.epimorphism_to_free
        monkeypatch.setattr(pipeline, "epimorphism_to_free",
                            lambda pres, n: corrupt(intact(pres, n)))
        path = pathlib.Path(__file__).resolve().parents[1] / "candidates" / "mixed_free_torsion.json"
        code = cli.main(["certify", str(path), "--json"])
        err = capsys.readouterr().err
        assert code == 3, err
        assert err.count("\n") == 1 and err.startswith("internal error: certificate failed: ")

    def test_unexpected_exception_exit_code(self, monkeypatch, capsys):
        # an exception outside AlgebraError is the program's fault: exit 4, one
        # line, never exit 1, which would read as "not certified"
        def broken(*args, **kwargs):
            raise RuntimeError("stage exploded")

        monkeypatch.setattr(cli, "certify", broken)
        path = pathlib.Path(__file__).resolve().parents[1] / "candidates" / "free_rank1.json"
        code = cli.main(["certify", str(path)])
        err = capsys.readouterr().err
        assert code == 4
        assert err.splitlines() == ["internal error: RuntimeError: stage exploded"]
        assert "Traceback" not in err

    def test_certify_json_deterministic(self):
        args = ("certify", "candidates/mixed_free_torsion.json", "--qu-bound", "4",
                "--seed", "11", "--json")
        first, second = run_cli(*args), run_cli(*args)
        assert first.returncode == 0
        assert first.stdout == second.stdout
        report = json.loads(first.stdout)
        assert report["certified"] is True
        assert report["chosen_m"] == 5
