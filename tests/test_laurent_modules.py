import json
import pathlib
import random
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lamprigid import (
    FieldSpec,
    FpPoly,
    LaurentPoly,
    ModulePresentation,
    PolyMatrix,
    build_lamplighter_epimorphism,
    decompose,
    epimorphism_to_free,
    finite_truncation,
    matrix_mul,
    quotient_dim,
    smith_normal_form,
    torsion_quotient_order,
)
from lamprigid import jsonio, laurent_modules
from lamprigid.errors import AlgebraError, CertificateError
from lamprigid.fppoly import x_pow_minus_one
from lamprigid.laurent_modules import FiniteTruncation, block_companion
from lamprigid.pipeline import choose_m

from oracles import (
    brute_monic_divisors,
    random_poly,
    truncation_dim_by_rank,
    verified_residue_count,
)

F2 = FieldSpec(2)
F3 = FieldSpec(3)


def poly(field, *coeffs):
    return FpPoly(field, tuple(coeffs))


def presentation(field, generators, rows):
    return ModulePresentation.make(
        field, generators, [[poly(field, *e) for e in row] for row in rows])


def assert_images_satisfy_relators(pres, trunc):
    """sum_j rel[j, c](A) image_j = 0 over F_p for every relator column c, A the
    truncation's x-action, evaluated one power of A at a time."""
    p, d = pres.field.p, trunc.dim
    action = np.array(trunc.x_action, dtype=np.int64).reshape(d, d)
    for c in range(pres.relations.cols):
        total = np.zeros(d, dtype=np.int64)
        for j, image in enumerate(trunc.generator_images):
            power_v = np.array(image, dtype=np.int64)
            for coeff in pres.relations.entry(j, c).coeffs:
                total = (total + coeff * power_v) % p
                power_v = action @ power_v % p
        assert not total.any(), (c, total)


def random_presentation(rng, field, max_gens=3, max_relators=3, max_deg=3):
    g = rng.randint(1, max_gens)
    c = rng.randint(0, max_relators)
    rows = [[random_poly(rng, field, max_deg) for _ in range(c)] for _ in range(g)]
    return ModulePresentation.make(field, g, rows if c else None)


class TestDecompose:
    def test_free_module(self):
        for n in (1, 2, 3):
            dec = decompose(ModulePresentation.free(F2, n))
            assert dec.free_rank == n
            assert dec.invariant_factors == ()

    def test_cached_smith_keeps_equality_and_hash(self):
        a, b = (presentation(F2, 2, [[(1, 1), (0, 1)], [(), (1, 1)]]) for _ in range(2))
        snf = a.smith
        assert a.smith is snf and "smith" not in vars(b)
        assert a == b and b == a and hash(a) == hash(b)

    def test_single_torsion_factor(self):
        dec = decompose(presentation(F2, 1, [[(1, 1, 1)]]))
        assert dec.free_rank == 0
        assert dec.invariant_factors == (poly(F2, 1, 1, 1),)

    def test_two_by_two_against_minor_oracle(self):
        pres = presentation(F2, 2, [[(1, 1), (0, 1)], [(), (1, 1)]])
        dec = decompose(pres)
        assert dec.free_rank == 0
        # determinantal-divisor oracle: d1 = gcd of entries, d1 d2 = det
        from oracles import determinantal_divisor_diag
        diag = determinantal_divisor_diag(pres.relations)
        expected = tuple(d.strip_x().monic() for d in diag if d.degree >= 1)
        assert dec.invariant_factors == expected

    def test_x_power_units_are_stripped(self):
        # relator x^2 (x + 1) e_1: the x^2 is a unit of the Laurent ring
        dec = decompose(presentation(F2, 1, [[(0, 0, 1, 1)]]))
        assert dec.invariant_factors == (poly(F2, 1, 1),)

    def test_laurent_relations_cleared(self):
        neg = LaurentPoly(F2, -1, FpPoly.one(F2)) + LaurentPoly(F2, 1, FpPoly.one(F2))
        pres = ModulePresentation.make(F2, 1, [[neg]])
        assert all(not e.is_zero or True for e in pres.relations.entries)
        dec = decompose(pres)
        # x^-1 + x = x^-1 (1 + x^2) = unit * (x+1)^2
        assert dec.invariant_factors == (poly(F2, 1, 0, 1),)

    def test_rows_must_match_generators(self):
        x = poly(F2, 0, 1)
        for rows in ([[x]], [[x], [x, x]], [[], [x]]):
            with pytest.raises(ValueError):
                ModulePresentation.make(F2, 2, rows)

    def test_empty_rows_count_too(self):
        # no relator column, so only the number of rows is there to check
        with pytest.raises(ValueError, match="one per generator"):
            ModulePresentation.make(F2, 3, [[]] * 5)
        assert ModulePresentation.make(F2, 3, [[]] * 3) == ModulePresentation.free(F2, 3)

    def test_unimodular_presentation_invariance(self):
        rng = random.Random(21)
        for _ in range(40):
            field = rng.choice([F2, F3])
            pres = random_presentation(rng, field)
            if pres.relations.cols == 0:
                continue
            dec = decompose(pres)
            # left-multiply relations by a random elementary row operation
            rows = pres.relations.to_lists()
            g = pres.generators
            if g >= 2:
                i, j = rng.sample(range(g), 2)
                f = random_poly(rng, field, 2)
                rows[i] = [a + f * b for a, b in zip(rows[i], rows[j])]
            scrambled = ModulePresentation.make(field, g, rows)
            dec2 = decompose(scrambled)
            assert (dec.free_rank, dec.invariant_factors) == (dec2.free_rank, dec2.invariant_factors)


class TestQuotientDim:
    def test_free_rank_one(self):
        dec = decompose(ModulePresentation.free(F2, 1))
        assert quotient_dim(dec, 3) == 3

    def test_torsion_gcd(self):
        dec = decompose(presentation(F2, 1, [[(1, 1)]]))
        # gcd(x + 1, x^3 - 1) = x + 1 over F_2
        assert quotient_dim(dec, 3) == 1

    def test_coinvariants_at_m_equal_one(self):
        dec = decompose(presentation(F2, 2, [[()], [(1, 1, 1)]]))
        # r + #{i : (x - 1) | f_i}: 1 + 0
        assert quotient_dim(dec, 1) == 1
        dec2 = decompose(presentation(F2, 1, [[(1, 1)]]))
        assert quotient_dim(dec2, 1) == 1

    def test_invalid_m(self):
        dec = decompose(ModulePresentation.free(F2, 1))
        with pytest.raises(AlgebraError, match="m = 0"):
            quotient_dim(dec, 0)


class TestTorsionOrder:
    def test_worked_example(self):
        assert torsion_quotient_order(poly(F2, 1, 1, 1)) == 4

    def test_unit_quotient(self):
        assert torsion_quotient_order(FpPoly.one(F3)) == 1

    def test_f3_cubic_with_residue_oracle(self):
        f = poly(F3, 1, 2, 0, 1)
        assert torsion_quotient_order(f) == 27
        assert verified_residue_count(f) == 27

    def test_errors(self):
        with pytest.raises(AlgebraError, match="quotient by zero is the whole ring"):
            torsion_quotient_order(FpPoly.zero(F2))
        with pytest.raises(AlgebraError, match=r"f\(0\) must be nonzero"):
            torsion_quotient_order(poly(F2, 0, 1))

    def test_residue_oracle_small_degrees(self):
        rng = random.Random(33)
        for _ in range(40):
            field = rng.choice([F2, F3])
            f = random_poly(rng, field, 5)
            if f.is_zero or f.constant_term == 0:
                continue
            f = f.monic()
            assert torsion_quotient_order(f) == verified_residue_count(f)


class TestEpimorphismToFree:
    def test_free_gives_identity(self):
        pres = ModulePresentation.free(F3, 2)
        phi = epimorphism_to_free(pres, 2)
        assert phi.entries == PolyMatrix.identity(F3, 2).entries

    def test_projection_to_first_free_coordinate(self):
        pres = ModulePresentation.free(F2, 2)
        phi = epimorphism_to_free(pres, 1)
        assert phi.rows == 1 and phi.cols == 2
        assert matrix_mul(phi, pres.relations).is_zero

    def test_torsion_summand_killed(self):
        pres = presentation(F2, 2, [[()], [(1, 1, 1)]])
        phi = epimorphism_to_free(pres, 1)
        assert matrix_mul(phi, pres.relations).is_zero
        diag = smith_normal_form(phi).diag
        assert all(d.degree == 0 for d in diag)
        # generator 2 carries the torsion and must map to zero
        assert phi.entry(0, 1).is_zero

    def test_wrong_shape_rejected(self):
        with pytest.raises(CertificateError,
                           match="phi is not the certified projection onto the free coordinates"):
            build_lamplighter_epimorphism(ModulePresentation.free(F2, 2),
                                          PolyMatrix.identity(F2, 1))

    def test_rank_deficient(self):
        pres = presentation(F2, 1, [[(1, 1)]])
        with pytest.raises(AlgebraError, match="free rank 0 < target rank 1"):
            epimorphism_to_free(pres, 1)


class TestFiniteTruncation:
    def test_free_rank_one_cycle(self):
        t = finite_truncation(ModulePresentation.free(F2, 1), 3)
        assert t.dim == 3
        # basis 1, x, x^2 of the cyclic quotient: the action is a 3-cycle
        assert t.x_action == ((0, 0, 1), (1, 0, 0), (0, 1, 0))

    def test_m_equal_one_is_coinvariants(self):
        pres = presentation(F2, 2, [[()], [(1, 1, 1)]])
        t = finite_truncation(pres, 1)
        assert t.dim == quotient_dim(decompose(pres), 1) == 1
        assert t.x_action == ((1,),)

    def test_single_torsion_small(self):
        t = finite_truncation(presentation(F2, 1, [[(1, 1)]]), 2)
        assert t.dim == 1

    def test_invalid_m(self):
        with pytest.raises(AlgebraError, match="m = 0"):
            finite_truncation(ModulePresentation.free(F2, 1), 0)

    def test_action_power_is_identity(self):
        rng = random.Random(55)
        for _ in range(25):
            field = rng.choice([F2, F3])
            pres = random_presentation(rng, field)
            m = rng.randint(1, 5)
            t = finite_truncation(pres, m)
            action = np.array(t.x_action, dtype=np.int64).reshape(t.dim, t.dim)
            power = np.eye(t.dim, dtype=np.int64)
            for _ in range(m):
                power = power @ action % field.p
            assert (power == np.eye(t.dim, dtype=np.int64)).all()

    def test_formula_versus_truncation_dimension(self):
        rng = random.Random(66)
        for _ in range(60):
            field = rng.choice([F2, F3])
            pres = random_presentation(rng, field)
            dec = decompose(pres)
            for m in range(1, 7):
                trunc = finite_truncation(pres, m)
                assert trunc.dim == quotient_dim(dec, m) == truncation_dim_by_rank(pres, m)
                assert_images_satisfy_relators(pres, trunc)

    @pytest.mark.parametrize("name", ["free_rank1", "free_rank2_p3", "mixed_free_torsion",
                                      "torsion_only"])
    def test_candidate_images_satisfy_relators(self, name):
        path = pathlib.Path(__file__).resolve().parents[1] / "candidates" / f"{name}.json"
        pres = jsonio.parse_candidate(json.loads(path.read_text())).presentation
        trunc = finite_truncation(pres, choose_m(decompose(pres)))
        assert trunc.dim == truncation_dim_by_rank(pres, trunc.m)
        assert_images_satisfy_relators(pres, trunc)

    def test_one_normal_form_per_truncation(self, monkeypatch):
        """With pres.smith cached, the only SNF is the span certificate's, of
        [images as columns | xI - A]."""
        pres = presentation(F2, 2, [[(1, 1), ()], [(), (1, 0, 1)]])
        assert pres.smith.diag
        calls = []
        snf = laurent_modules.smith_normal_form
        monkeypatch.setattr(laurent_modules, "smith_normal_form",
                            lambda matrix: calls.append(matrix.coeffs.shape[:2]) or snf(matrix))
        trunc = finite_truncation(pres, 4)
        assert trunc.dim == 3
        assert calls == [(trunc.dim, trunc.dim + pres.generators)]

    @given(st.integers(1, 3), st.integers(1, 6), st.data())
    @settings(max_examples=60, deadline=None)
    def test_generator_images_span(self, gens, m, data):
        rng = random.Random(data.draw(st.integers(0, 10 ** 6)))
        pres = random_presentation(rng, F2, max_gens=gens)
        finite_truncation(pres, m)  # spanning and order assertions run at build

    def test_certificate_matches_brute_force_oracle(self):
        """The truncation certificate accepts iff A^m = I (numpy powers) and the
        x-stable span of the images, closed by search over all p^d vectors, is F_p^d."""
        rng = random.Random(19)
        outcomes = set()
        for _ in range(150):
            field = rng.choice([F2, F3])
            p, m = field.p, rng.randint(1, 4)
            if rng.random() < 0.5:  # block companions of divisors of x^m - 1 have A^m = I
                divisors = [f for f in brute_monic_divisors(x_pow_minus_one(field, m)) if f.degree]
                chain = []
                for h in rng.choices(divisors, k=rng.randint(1, 3)):
                    if sum(int(f.degree) for f in chain + [h]) <= 4:
                        chain.append(h)
                action = block_companion(chain)
            else:
                d = rng.randint(1, 4)
                action = [[rng.randrange(p) for _ in range(d)] for _ in range(d)]
            d = len(action)
            images = [tuple(rng.randrange(p) for _ in range(d)) for _ in range(rng.randint(0, 2))]
            a = np.array(action, dtype=np.int64)
            power = np.eye(d, dtype=np.int64)
            for _ in range(m):
                power = power @ a % p
            closure, frontier = {(0,) * d}, [(0,) * d]
            while frontier:
                v = np.array(frontier.pop(), dtype=np.int64)
                for w in [a @ v % p] + [(v + g) % p for g in np.array(images, dtype=np.int64)]:
                    if (w := tuple(w.tolist())) not in closure:
                        closure.add(w)
                        frontier.append(w)
            if not (power == np.eye(d, dtype=np.int64)).all():
                expected = "x-action does not have order dividing m"
            elif len(closure) < p ** d:
                expected = "generator images fail to span the truncation"
            else:
                expected = "accepted"
            try:
                FiniteTruncation(field, m, d, tuple(map(tuple, action)), tuple(images))
                got = "accepted"
            except CertificateError as exc:
                got = str(exc)
            assert got == expected, (p, m, action, images)
            outcomes.add(got)
        assert outcomes == {"accepted", "x-action does not have order dividing m",
                            "generator images fail to span the truncation"}

    def test_wide_prime_truncation(self):
        # residue products past 2^63 put the certificate's matrices on the object dtype
        field = FieldSpec(10 ** 18 + 3)
        minus_one = field.p - 1
        swap_signs = ((minus_one, 0), (0, 1))  # x acts as diag(-1, 1): x^2 = 1
        FiniteTruncation(field, 2, 2, swap_signs, ((1, 1),))
        with pytest.raises(CertificateError, match="order dividing m"):
            FiniteTruncation(field, 1, 2, swap_signs, ((1, 1),))
        with pytest.raises(CertificateError, match="fail to span"):
            FiniteTruncation(field, 2, 2, swap_signs, ((minus_one, 0),))


_CORRUPTED_MODULES_SCRIPT = """
import json
from lamprigid import laurent_modules as lm
from lamprigid.errors import CertificateError
from lamprigid.fppoly import FieldSpec, FpPoly

F2, F3 = FieldSpec(2), FieldSpec(3)
x_plus_1, x2_x_1 = FpPoly(F2, (1, 1)), FpPoly(F2, (1, 1, 1))
free = lm.ModulePresentation.free(F2, 1)
real_dim = lm.quotient_dim

cases = {
    "negative rank": lambda: lm.ModuleDecomposition(F2, -1, ()),
    "unit factor": lambda: lm.ModuleDecomposition(F2, 0, (FpPoly(F2, (1,)),)),
    "non-monic factor": lambda: lm.ModuleDecomposition(F3, 0, (FpPoly(F3, (1, 2)),)),
    "factor x": lambda: lm.ModuleDecomposition(F2, 0, (FpPoly(F2, (0, 1)),)),
    "broken chain": lambda: lm.ModuleDecomposition(F2, 0, (x_plus_1, x2_x_1)),
    "ragged action": lambda: lm.FiniteTruncation(F2, 1, 2, ((1, 0), (0,)), ((1, 0),)),
    "action order": lambda: lm.FiniteTruncation(F3, 1, 1, ((2,),), ((1,),)),
    "no span": lambda: lm.FiniteTruncation(F2, 1, 1, ((1,),), ((0,),)),
    "partial span": lambda: lm.FiniteTruncation(F2, 1, 2, ((1, 0), (0, 1)), ((1, 0),)),
    "image length": lambda: lm.FiniteTruncation(F2, 1, 1, ((1,),), ((1, 0),)),
    "order m": lambda: lm.FiniteTruncation(F2, -1, 1, ((1,),), ((1,),)),
    "span through the action": lambda: lm.FiniteTruncation(F2, 3, 2, ((0, 1), (1, 1)), ((1, 0),)),
    "dimension": lambda: (setattr(lm, "quotient_dim", lambda dec, m: real_dim(dec, m) + 1),
                          lm.finite_truncation(free, 3)),
}
outcome = {"debug": __debug__}
for name, build in cases.items():
    try:
        build()
        outcome[name] = "accepted"
    except CertificateError as exc:
        outcome[name] = str(exc)
print(json.dumps(outcome))
"""


def test_corrupted_modules_rejected_under_optimize():
    proc = subprocess.run([sys.executable, "-O", "-c", _CORRUPTED_MODULES_SCRIPT],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {
        "debug": False,
        "negative rank": "negative free rank",
        "unit factor": "unit or zero invariant factor",
        "non-monic factor": "unit or zero invariant factor",
        "factor x": "invariant factor divisible by x",
        "broken chain": "invariant factor chain broken",
        "ragged action": "x-action is not a dim x dim matrix",
        "action order": "x-action does not have order dividing m",
        "no span": "generator images fail to span the truncation",
        "partial span": "generator images fail to span the truncation",
        "image length": "generator image is not a vector of length dim",
        "order m": "truncation order m is not positive",
        "span through the action": "accepted",
        "dimension": "truncation dimension disagrees with the rank formula",
    }
