import json
import pathlib
import random
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lamprigid import FieldSpec, FpPoly, PolyMatrix, determinant, is_unimodular, matrix_mul, smith_normal_form
from lamprigid import cli, polymatrix
from lamprigid.errors import AlgebraError, CertificateError
from lamprigid.jsonio import parse_candidate, parse_matrix

from oracles import (
    determinantal_divisor_diag,
    entries_matrix,
    fppoly_smith,
    leibniz_determinant,
    list_matrix_mul,
    random_matrix,
    random_poly,
)

F2 = FieldSpec(2)
F3 = FieldSpec(3)
F5 = FieldSpec(5)


def poly(field, *coeffs):
    return FpPoly(field, tuple(coeffs))


def mat(field, rows):
    return PolyMatrix.from_rows(field, [[poly(field, *e) for e in row] for row in rows])


class TestMatrixMul:
    def test_identity(self):
        rng = random.Random(3)
        a = random_matrix(rng, F3, 3, 3, 2)
        assert matrix_mul(a, PolyMatrix.identity(F3, 3)).entries == a.entries

    def test_single_entry(self):
        # [[x]] * [[x + 1]] = [[x^2 + x]]
        prod = matrix_mul(mat(F2, [[(0, 1)]]), mat(F2, [[(1, 1)]]))
        assert prod.entry(0, 0) == poly(F2, 0, 1, 1)

    def test_zero(self):
        rng = random.Random(4)
        a = random_matrix(rng, F2, 2, 3, 2)
        assert matrix_mul(a, PolyMatrix.zeros(F2, 3, 2)).is_zero

    def test_shape_mismatch(self):
        with pytest.raises(AlgebraError, match="cannot multiply 2x3 by 2x3"):
            matrix_mul(PolyMatrix.zeros(F2, 2, 3), PolyMatrix.zeros(F2, 2, 3))

    def test_field_mismatch(self):
        with pytest.raises(AlgebraError, match="mixed fields in matrix product"):
            matrix_mul(PolyMatrix.identity(F2, 2), PolyMatrix.identity(F3, 2))

    @pytest.mark.parametrize("p", [2 ** 31 - 1, 3037000493])
    def test_products_stay_int64_at_the_boundary_primes(self, p):
        # an int64 residue mod p takes only 2 (p = 2^31 - 1) or 1 (p = 3037000493)
        # products of residues, so each inner sum runs in pieces reduced in between;
        # entries with every coefficient p - 1 make every product as large as it can be
        field, rng = FieldSpec(p), random.Random(p)
        top = FpPoly(field, (p - 1,) * 4)
        for a, b in [(random_matrix(rng, field, 6, 5, 3), random_matrix(rng, field, 5, 4, 3)),
                     (entries_matrix(field, 5, 5, [top] * 25),) * 2]:
            assert polymatrix._mul_sums(a.coeffs, b.coeffs, p).dtype == np.int64
            assert matrix_mul(a, b) == list_matrix_mul(a, b)


def _sparse_matrices(rng):
    """Matrices up to 6x6 on which Bareiss skips the updates with a zero multiplier.

    Unit triangular, permutation, near-identity and 70%-zero matrices keep unit
    pivots; a non-unit pivot after unit ones takes the full update, and diag(x + 1,
    1, ..., 1), whose Bareiss pivots all equal x + 1, the skip path with prev != 1.
    """
    def sparse(field, n, zero_share):
        return [[FpPoly.zero(field) if rng.random() < zero_share
                 else random_poly(rng, field, 2) for _ in range(n)] for _ in range(n)]

    def clear_below(rows, k):
        # unit columns 0..k-1, zero below the diagonal: the first k pivots are 1
        for j in range(k):
            rows[j][j] = FpPoly.one(rows[j][j].field)
            for i in range(j + 1, len(rows)):
                rows[i][j] = FpPoly.zero(rows[i][j].field)
        return rows

    out = []
    for field in (F2, F3, F5):
        for n in range(1, 7):
            triangular = clear_below(sparse(field, n, 0.5), n)
            lower = [list(col) for col in zip(*triangular)]
            perm = rng.sample(range(n), n)
            permutation = [[FpPoly.one(field) if j == perm[i] else FpPoly.zero(field)
                            for j in range(n)] for i in range(n)]
            near_identity = PolyMatrix.identity(field, n).to_lists()
            for _ in range(2):
                near_identity[rng.randrange(n)][rng.randrange(n)] = random_poly(rng, field, 2)
            k = rng.randrange(n)
            late_pivot = clear_below(sparse(field, n, 0.7), k)
            late_pivot[k][k] = poly(field, rng.randrange(field.p), 1)
            diagonal = PolyMatrix.identity(field, n).to_lists()
            diagonal[0][0] = poly(field, 1, 1)  # every later Bareiss pivot is x + 1 too
            for rows in (triangular, lower, permutation, near_identity,
                         sparse(field, n, 0.7), late_pivot, diagonal):
                out.append(PolyMatrix.from_rows(field, rows))
    return out


class TestUnimodular:
    def test_identity(self):
        assert is_unimodular(PolyMatrix.identity(F5, 3))

    def test_single_x(self):
        assert not is_unimodular(mat(F2, [[(0, 1)]]))
        # the identity with one x on the diagonal: Bareiss skips every other update
        for field in (F2, F3, F5):
            for n in range(1, 7):
                for i in range(n):
                    rows = PolyMatrix.identity(field, n).to_lists()
                    rows[i][i] = poly(field, 0, 1)
                    assert not is_unimodular(PolyMatrix.from_rows(field, rows)), (n, i)

    def test_upper_triangular_unit(self):
        assert is_unimodular(mat(F2, [[(1,), (0, 1)], [(), (1,)]]))

    def test_not_square(self):
        with pytest.raises(AlgebraError, match="determinant of a 2x3 matrix"):
            is_unimodular(PolyMatrix.zeros(F2, 2, 3))

    def test_determinant_2x2(self):
        # det [[x, 1], [1, x]] = x^2 - 1
        m = mat(F3, [[(0, 1), (1,)], [(1,), (0, 1)]])
        assert determinant(m) == poly(F3, 2, 0, 1)

    def test_inexact_division_is_a_certificate_failure(self, monkeypatch):
        # the second step divides x^4 by prev = x; a numerator off by 1 where the
        # divisor is not a unit leaves remainder 1
        m = mat(F2, [[(0, 1), (1,), ()], [(1,), (0, 1), (1,)], [(), (1,), (0, 1)]])
        divmod_ = polymatrix.poly_divmod
        monkeypatch.setattr(polymatrix, "poly_divmod", lambda a, b: divmod_(
            a + FpPoly.one(F2) if b.degree > 0 else a, b))
        with pytest.raises(CertificateError, match="Bareiss division is not exact"):
            determinant(m)

    def test_determinant_matches_leibniz_oracle(self):
        rng = random.Random(17)
        # zero pivots at steps 0 and 1: [[0, 1, 0], [0, 0, 1], [x, 0, 0]] has det x
        cases = [PolyMatrix.zeros(F2, 0, 0), PolyMatrix.zeros(F3, 0, 0),
                 mat(F3, [[(), (1,), ()], [(), (), (1,)], [(0, 1), (), ()]])]
        for field in (F2, F3):
            for n in range(1, 5):
                for trial in range(12):
                    rows = random_matrix(rng, field, n, n, 2).to_lists()
                    if trial % 3 == 1 and n > 1:
                        rows[-1] = list(rows[0])  # singular: a repeated row
                    if trial % 3 == 2:
                        rows[0][0] = FpPoly.zero(field)  # zero leading pivot
                    cases.append(PolyMatrix.from_rows(field, rows))
        cases += _sparse_matrices(random.Random(29))
        for m in cases:
            assert determinant(m) == leibniz_determinant(m), m


class TestSmithNormalForm:
    def test_identity(self):
        dec = smith_normal_form(PolyMatrix.identity(F2, 3))
        assert [str(d) for d in dec.diag] == ["1", "1", "1"]

    def test_coprime_diagonal(self):
        # diag(x + 1, x) over F_2: d1 = gcd = 1, d1 d2 = det = x^2 + x
        m = mat(F2, [[(1, 1), ()], [(), (0, 1)]])
        dec = smith_normal_form(m)
        assert dec.diag == (poly(F2, 1), poly(F2, 0, 1, 1))

    def test_repeated_diagonal_untouched(self):
        m = mat(F3, [[(0, 1), ()], [(), (0, 1)]])
        dec = smith_normal_form(m)
        assert dec.diag == (poly(F3, 0, 1), poly(F3, 0, 1))

    def test_empty_and_degenerate_shapes(self):
        for rows, cols in [(0, 0), (0, 3), (3, 0), (1, 1)]:
            dec = smith_normal_form(PolyMatrix.zeros(F2, rows, cols))
            assert dec.d.rows == rows and dec.d.cols == cols
            assert all(d.is_zero for d in dec.diag)

    def test_zero_matrix(self):
        dec = smith_normal_form(PolyMatrix.zeros(F3, 2, 2))
        assert dec.diag == (FpPoly.zero(F3), FpPoly.zero(F3))

    def test_randomized_certificates(self):
        rng = random.Random(42)
        for _ in range(120):
            field = rng.choice([F2, F3, F5])
            rows, cols = rng.randint(1, 4), rng.randint(1, 4)
            m = random_matrix(rng, field, rows, cols, 3)
            dec = smith_normal_form(m)  # construction re-verifies U M V = D etc.
            assert matrix_mul(matrix_mul(dec.u, m), dec.v).entries == dec.d.entries
            assert is_unimodular(dec.u) and is_unimodular(dec.v)

    def test_determinantal_divisor_oracle(self):
        rng = random.Random(77)
        for _ in range(60):
            field = rng.choice([F2, F3, F5])
            rows, cols = rng.randint(1, 3), rng.randint(1, 3)
            m = random_matrix(rng, field, rows, cols, 3)
            assert list(smith_normal_form(m).diag) == determinantal_divisor_diag(m)

    def test_idempotence(self):
        rng = random.Random(9)
        for _ in range(40):
            m = random_matrix(rng, F2, 3, 3, 2)
            d = smith_normal_form(m).d
            assert smith_normal_form(d).diag == smith_normal_form(m).diag

    def test_permutation_invariance(self):
        rng = random.Random(11)
        for _ in range(40):
            field = rng.choice([F2, F3])
            m = random_matrix(rng, field, 3, 3, 2)
            diag = smith_normal_form(m).diag
            rows = m.to_lists()
            rng.shuffle(rows)
            permuted = [row[:] for row in rows]
            cols = list(range(3))
            rng.shuffle(cols)
            permuted = [[row[c] for c in cols] for row in permuted]
            assert smith_normal_form(PolyMatrix.from_rows(field, permuted)).diag == diag

    def test_divisibility_chain_with_torsion_mix(self):
        # [[x+1, x], [0, x+1]] over F_2 appears as a module presentation later;
        # its normal form must obey the chain.
        m = mat(F2, [[(1, 1), (0, 1)], [(), (1, 1)]])
        dec = smith_normal_form(m)
        d1, d2 = dec.diag
        assert d1.divides(d2)


DATA = pathlib.Path(__file__).resolve().parent / "data"
LARGE_P = FieldSpec(10 ** 18 + 3)
WIDE_P = FieldSpec(2 ** 64 + 13)


class TestValueSemantics:
    """A PolyMatrix is equal to, and hashes like, every other PolyMatrix of the
    same field, shape and entries, however its coefficient array was made."""

    @pytest.mark.parametrize("field,dtype", [(F2, "int64"), (LARGE_P, "object"),
                                             (WIDE_P, "object")])
    def test_equal_however_built(self, field, dtype):
        p = field.p
        # diag(1, x + p - 1) plus an entry p - 1: already in Smith normal form but
        # for that entry, which the pivot 1 clears
        built = mat(field, [[(1,), ()], [(p - 1,), (p - 1, 1)]])
        literal = [[[[0, 1 + p]], [[3, p], [0, 0]]],
                   [[[0, -1]], [[0, p - 1], [1, 1], [4, 2 * p]]]]
        parsed = parse_matrix({"p": p, "rows": 2, "cols": 2, "entries": literal})
        wide = np.zeros((2, 2, 7), dtype=object)
        wide[:, :, :built.coeffs.shape[2]] = built.coeffs
        padded = PolyMatrix(field, wide + 3 * p)  # extra zero slices, residues unreduced
        dec = smith_normal_form(built)
        diagonal = mat(field, [[(1,), ()], [(), (p - 1, 1)]])
        assert str(built.coeffs.dtype) == dtype
        for m in (parsed, padded):
            assert m == built and hash(m) == hash(built)
            assert m.coeffs.shape == built.coeffs.shape == (2, 2, 2)
        assert dec.d == diagonal and hash(dec.d) == hash(diagonal)
        assert dec.v == PolyMatrix.identity(field, 2)
        assert hash(dec.v) == hash(PolyMatrix.identity(field, 2))
        assert dec.u == mat(field, [[(1,), ()], [(1,), (1,)]])
        assert len({built, parsed, padded}) == 1
        assert built != diagonal and hash(built) != hash(diagonal)

    def test_field_and_shape_are_part_of_the_value(self):
        assert mat(F2, [[(1,)]]) != mat(F3, [[(1,)]])
        assert PolyMatrix.zeros(F2, 0, 3) != PolyMatrix.zeros(F2, 3, 0)
        assert PolyMatrix.zeros(F2, 1, 2) != PolyMatrix.zeros(F2, 2, 1)

    def test_array_is_read_only(self):
        m = mat(F3, [[(1, 2)]])
        with pytest.raises(ValueError):
            m.coeffs[0, 0, 0] = 0


def matches_fppoly_oracle(m):
    """The array elimination gives the FpPoly elimination's U, D and V entry for
    entry, and matrix_mul the list product, on U * m and m * V."""
    dec = smith_normal_form(m)
    u, d, v = fppoly_smith(m)
    assert (dec.u.entries, dec.d.entries, dec.v.entries) == (u.entries, d.entries, v.entries)
    assert matrix_mul(u, m).entries == list_matrix_mul(u, m).entries
    assert matrix_mul(m, v).entries == list_matrix_mul(m, v).entries


@st.composite
def poly_matrices(draw):
    field = draw(st.sampled_from([F2, F3, F5, LARGE_P]))
    rows, cols = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    coeffs = st.lists(st.integers(0, field.p - 1), max_size=4)
    entries = draw(st.lists(coeffs, min_size=rows * cols, max_size=rows * cols))
    array = np.zeros((rows * cols, 4), dtype=object)
    for k, c in enumerate(entries):
        array[k, :len(c)] = c
    return PolyMatrix(field, array.reshape(rows, cols, 4))


class TestAgainstFpPolyOracle:
    @pytest.mark.parametrize("name", ["free_rank2_p3", "torsion_only"])
    def test_disguised_relation_matrices(self, name):
        text = (DATA / f"disguised16_{name}.json").read_text()
        matches_fppoly_oracle(parse_candidate(json.loads(text)).presentation.relations)

    def test_random_14x14_over_f2(self):
        # transform entries reach degree 123
        matches_fppoly_oracle(random_matrix(random.Random(14), F2, 14, 14, 3))

    @settings(max_examples=80, deadline=None)
    @given(poly_matrices())
    def test_random_matrices(self, m):
        matches_fppoly_oracle(m)

    def test_empty_shapes(self):
        for field in (F2, LARGE_P):
            for rows, cols in [(0, 0), (0, 4), (4, 0)]:
                matches_fppoly_oracle(PolyMatrix.zeros(field, rows, cols))

    @pytest.mark.parametrize("p, terms", [(2 ** 31 - 1, 2), (3037000493, 1)])
    def test_int64_boundary_primes(self, p, terms):
        # an int64 residue mod p takes `terms` products of residues before it must be
        # reduced; every entry has degree 1 to 5, so pivots are not constants, quotients
        # are up to 5 wide and an update adds several products to one coefficient
        field, rng = FieldSpec(p), random.Random(p)
        assert polymatrix._int64_terms(p) == terms
        for rows, cols in [(3, 3), (4, 3), (3, 4), (4, 4)]:
            entries = [FpPoly(field, tuple(rng.randrange(p) for _ in range(rng.randint(1, 5)))
                             + (rng.randrange(1, p),)) for _ in range(rows * cols)]
            matches_fppoly_oracle(entries_matrix(field, rows, cols, entries))

    def test_remainder_repivots(self, monkeypatch):
        # over F_3 the pivot x + 1 leaves x = (x + 1) - 1 below it and x^2 = (x + 1)(x - 1) + 1
        # beside it: both remainders are nonzero, and a constant is the next pivot
        m = mat(F3, [[(1, 1), (0, 0, 1)], [(0, 1), (2, 0, 1)]])
        dirty, clear = [], polymatrix._Worker.clear

        def recorded(self, cols, t):
            dirty.append(clear(self, cols, t))
            return dirty[-1]

        monkeypatch.setattr(polymatrix._Worker, "clear", recorded)
        matches_fppoly_oracle(m)
        assert dirty[:2] == [True, True]

    def test_quotient_with_zero_slices(self, monkeypatch):
        # the pivot 1 has x^300 below it and 2x^299 beside it: each of those quotients
        # has one nonzero slice among at least 300
        m = PolyMatrix.from_terms(F5, 3, 3, [(0, 0, 0, 1), (1, 0, 300, 1), (0, 2, 299, 2),
                                             (1, 1, 0, 3), (1, 2, 1, 1), (2, 1, 2, 4), (2, 2, 0, 1)])
        widths, sub = [], polymatrix._Worker.sub

        def recorded(self, cols, targets, q, sources):
            widths.append((q.shape[2], int(q.any(axis=(0, 1)).sum())))
            sub(self, cols, targets, q, sources)

        monkeypatch.setattr(polymatrix._Worker, "sub", recorded)
        matches_fppoly_oracle(m)
        assert [n for _, n in widths[:2]] == [1, 1] and min(w for w, _ in widths[:2]) >= 300

    @pytest.mark.parametrize("m", [
        # diag(x + 1, x): the pivot x + 1 does not divide x
        mat(F2, [[(1, 1), ()], [(), (0, 1)]]),
        # the pivot x + 1 has clear lines and divides neither x^2 nor x in the trailing block
        mat(F3, [[(1, 1), (), ()], [(), (0, 0, 1), (0, 1)], [(), (), (2, 1)]]),
        # the pivot x clears the x below and beside it, then does not divide x + 1
        mat(LARGE_P, [[(0, 1), (0, 1), ()], [(), (1, 1), ()], [(0, 1), (0, 1), (1, 0, 1)]]),
    ], ids=["f2_diagonal", "f3", "large_p"])
    def test_undivided_row_added_to_pivot_row(self, monkeypatch, m):
        # with clear lines, a pivot that does not divide the whole trailing block gets
        # the first row holding a non-multiple added to its row: one sub with q = -1
        added, sub = [], polymatrix._Worker.sub

        def recorded(self, cols, targets, q, sources):
            if not cols and q.shape == (1, 1, 1) and q[0, 0, 0] == -1:
                added.append((list(targets), list(sources)))
            sub(self, cols, targets, q, sources)

        monkeypatch.setattr(polymatrix._Worker, "sub", recorded)
        matches_fppoly_oracle(m)
        assert added[:1] == [([0], [1])]


def test_snf_at_the_largest_legal_exponent():
    # 16x16 identity over F_2 with x^4096 at (0, 1): products skip the all-zero
    # degree slices, so one high-degree entry does not cost as if every entry had it
    proc = subprocess.run([sys.executable, "-m", "lamprigid.cli", "snf",
                           str(DATA / "snf_identity16_x4096.json"), "--json"],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["diag"] == [[[0, 1]]] * 16


# Each case builds a SmithDecomposition that must fail its certificate; the
# script runs under python -O, where a bare assert would let all of them pass.
_CORRUPTED_SNF_SCRIPT = """
import json
from lamprigid import FieldSpec, FpPoly, PolyMatrix, matrix_mul, smith_normal_form
from lamprigid.errors import CertificateError
from lamprigid.polymatrix import SmithDecomposition

F2, F3 = FieldSpec(2), FieldSpec(3)

def mat(field, rows):
    return PolyMatrix.from_rows(field, [[FpPoly(field, e) for e in row] for row in rows])

def claimed(m, u=None, v=None):
    # m claimed as its own normal form, with identity transforms by default
    return dict(source=m, u=u or PolyMatrix.identity(m.field, m.rows), d=m,
                v=v or PolyMatrix.identity(m.field, m.cols))

source = mat(F2, [[(0, 1), (1,)], [(), (1, 1)]])
snf = smith_normal_form(source)
x = FpPoly(F2, (0, 1))

def bumped(m, k, poly):
    # m with poly added to its k-th entry in row-major order
    rows = m.to_lists()
    rows[k // m.cols][k % m.cols] += poly
    return PolyMatrix.from_rows(m.field, rows)

bad_u = bumped(snf.u, 0, x)
bad_v = bumped(snf.v, 3, x)
singular = mat(F2, [[(0, 1), ()], [(), (1,)]])
three = mat(F3, [[(1, 1), (2,), ()], [(), (0, 1), (1,)], [(2,), (), (1, 0, 1)]])

def x_in_v(i):
    # V is the identity with x at (i, i), D = M*V, so only V's certificate fails
    rows = PolyMatrix.identity(F3, 3).to_lists()
    rows[i][i] = FpPoly(F3, (0, 1))
    v = PolyMatrix.from_rows(F3, rows)
    d = matrix_mul(three, v)
    return dict(source=three, u=PolyMatrix.identity(F3, 3), d=d, v=v)

cases = {
    "corrupted U": dict(source=source, u=bad_u, d=snf.d, v=snf.v),
    "corrupted V": dict(source=source, u=snf.u, d=snf.d, v=bad_v),
    # D has no shape check of its own: U*M*V is 2x2, so a 3x2 D differs from it
    "D with an extra zero row": dict(source=source, u=snf.u, v=snf.v, d=PolyMatrix.from_rows(
        F2, snf.d.to_lists() + [[FpPoly.zero(F2)] * 2])),
    "singular U": claimed(PolyMatrix.zeros(F2, 2, 2), u=singular),
    "singular V": claimed(PolyMatrix.zeros(F2, 2, 2), v=singular),
    "off-diagonal D": claimed(mat(F2, [[(1,), (1,)], [(), (1,)]])),
    "broken chain": claimed(mat(F2, [[(0, 1), ()], [(), (1, 1)]])),
    "non-monic diagonal": claimed(mat(F3, [[(2,)]])),
    "zero before nonzero": claimed(mat(F2, [[(), ()], [(), (1,)]])),
    **{f"x in V at {i}": x_in_v(i) for i in range(3)},
}

# p = 10^18 + 3: products of residues overflow int64, so the arrays hold
# Python integers (object); each corruption adds p - 1 times a power of x
PL = FieldSpec(10 ** 18 + 3)
large = mat(PL, [[(3, 1), (PL.p - 2,), ()], [(), (0, 1), (7, PL.p - 1)], [(1, 1), (), (5,)]])
large_snf = smith_normal_form(large)
minus_x = FpPoly(PL, (0, PL.p - 1))

large_fields = dict(source=large, u=large_snf.u, d=large_snf.d, v=large_snf.v)
cases.update({
    "large p: corrupted U": {**large_fields, "u": bumped(large_snf.u, 1, minus_x)},
    "large p: corrupted V": {**large_fields, "v": bumped(large_snf.v, 5, FpPoly(PL, (PL.p - 1,)))},
    "large p: corrupted D": {**large_fields, "d": bumped(large_snf.d, 3, minus_x)},
})
outcome = {"debug": __debug__, "large p dtype": str(large.coeffs.dtype)}
for name, fields in cases.items():
    try:
        SmithDecomposition(**fields)
        outcome[name] = "accepted"
    except CertificateError as exc:
        outcome[name] = str(exc)
print(json.dumps(outcome))
"""


def test_corrupted_snf_rejected_under_optimize():
    proc = subprocess.run([sys.executable, "-O", "-c", _CORRUPTED_SNF_SCRIPT],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {
        "debug": False,
        "corrupted U": "U*M*V != D",
        "corrupted V": "U*M*V != D",
        "D with an extra zero row": "U*M*V != D",
        "singular U": "U is not unimodular",
        "singular V": "V is not unimodular",
        "off-diagonal D": "D has off-diagonal entries",
        "broken chain": "divisibility chain broken",
        "non-monic diagonal": "diagonal entry not monic",
        "zero before nonzero": "nonzero diagonal entry after a zero one",
        "x in V at 0": "V is not unimodular",
        "x in V at 1": "V is not unimodular",
        "x in V at 2": "V is not unimodular",
        "large p dtype": "object",
        "large p: corrupted U": "U*M*V != D",
        "large p: corrupted V": "U*M*V != D",
        "large p: corrupted D": "U*M*V != D",
    }


@pytest.mark.parametrize("axis, message", [(1, "U has the wrong shape"),
                                           (0, "V has the wrong shape")])
def test_misshapen_transform_exits_three(monkeypatch, capsys, axis, message):
    """A zero column appended to the worker's grid makes U R x (R + 1), a zero row
    makes V (C + 1) x C. matrix_mul would refuse either product as a bad request
    (exit 2), so the shape checks run first and the fault exits 3."""
    normalize = polymatrix._Worker.normalize_monic

    def padded(self):
        normalize(self)
        shape = list(self.g.shape)
        shape[axis] = 1
        self.g = np.concatenate([self.g, np.zeros(shape, self.g.dtype)], axis=axis)

    monkeypatch.setattr(polymatrix._Worker, "normalize_monic", padded)
    assert cli.main(["snf", str(DATA / "disguised16_free_rank2_p3_relations.json"), "--json"]) == 3
    assert capsys.readouterr().err == f"internal error: certificate failed: {message}\n"
