import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lamprigid import (
    FieldSpec,
    FpPoly,
    LaurentPoly,
    laurent_canonicalize,
    poly_divmod,
    poly_gcd_ext,
)
from lamprigid import fppoly
from lamprigid.errors import AlgebraError, CertificateError
from lamprigid.fppoly import NEG_INF, PRIMALITY_LIMIT, is_prime

from oracles import brute_monic_divisors, random_poly, trial_division_is_prime

F2 = FieldSpec(2)
F3 = FieldSpec(3)
F5 = FieldSpec(5)


def poly(field, *coeffs):
    return FpPoly(field, tuple(coeffs))


class TestFieldSpec:
    def test_primality_enforced(self):
        for bad in (0, 1, 4, 6, 9, 15):
            with pytest.raises(ValueError):
                FieldSpec(bad)
        for good in (2, 3, 5, 7, 11, 97):
            assert FieldSpec(good).p == good

    def test_miller_rabin_matches_trial_division(self):
        assert all(is_prime(n) == trial_division_is_prime(n) for n in range(10 ** 5))

    def test_strong_pseudoprimes_rejected(self):
        assert not is_prime(3215031751)  # strong pseudoprime to the bases 2, 3, 5, 7
        assert not is_prime(3825123056546413051)  # ... and to every prime base up to 23
        assert FieldSpec(10 ** 18 + 3).p == 10 ** 18 + 3

    def test_undecided_modulus_raises(self):
        # the limit itself is a strong pseudoprime to all 13 bases
        with pytest.raises(ValueError, match="too large"):
            FieldSpec(PRIMALITY_LIMIT)
        assert not is_prime(2 * PRIMALITY_LIMIT)


class TestFpPolyBasics:
    def test_trailing_zeros_stripped(self):
        assert poly(F2, 1, 1, 0, 0).coeffs == (1, 1)
        assert poly(F2, 0, 0).coeffs == ()

    def test_coefficients_reduced(self):
        assert poly(F3, 4, 5, 6).coeffs == (1, 2)

    def test_zero_degree_is_minus_infinity(self):
        z = FpPoly.zero(F2)
        assert z.degree == NEG_INF
        assert z.degree < poly(F2, 1).degree

    def test_mul_example(self):
        # x * (x + 1) = x^2 + x over F_2
        assert poly(F2, 0, 1) * poly(F2, 1, 1) == poly(F2, 0, 1, 1)

    def test_field_mismatch(self):
        with pytest.raises(AlgebraError, match="mixed moduli 2 and 3"):
            poly(F2, 1) + poly(F3, 1)


class TestDivmod:
    def test_worked_example(self):
        # (x^2 + x + 1) / (x + 1) over F_2: q = x, r = 1
        a, b = poly(F2, 1, 1, 1), poly(F2, 1, 1)
        q, r = poly_divmod(a, b)
        assert q == poly(F2, 0, 1)
        assert r == poly(F2, 1)
        assert q * b + r == a  # direct expansion

    def test_division_by_unit(self):
        f = poly(F3, 2, 0, 1)
        q, r = poly_divmod(f, FpPoly.one(F3))
        assert q == f and r.is_zero

    def test_zero_dividend(self):
        q, r = poly_divmod(FpPoly.zero(F2), poly(F2, 1, 1))
        assert q.is_zero and r.is_zero

    def test_division_by_zero(self):
        with pytest.raises(AlgebraError, match="division by the zero polynomial"):
            poly_divmod(poly(F2, 1), FpPoly.zero(F2))

    def test_round_trip_randomized(self):
        rng = random.Random(101)
        for _ in range(2000):
            field = rng.choice([F2, F3, F5])
            a = random_poly(rng, field, 6)
            b = random_poly(rng, field, 4)
            if b.is_zero:
                continue
            q, r = poly_divmod(a, b)
            assert q * b + r == a
            assert r.degree < b.degree


def corrupt_first_division(monkeypatch, corrupt):
    """Make fppoly.poly_divmod return corrupt(q, r) in place of its first (q, r)."""
    calls, divmod_ = [], fppoly.poly_divmod

    def corrupted(a, b):
        calls.append(None)
        q, r = divmod_(a, b)
        return corrupt(q, r) if len(calls) == 1 else (q, r)

    monkeypatch.setattr(fppoly, "poly_divmod", corrupted)


class TestGcd:
    def test_worked_example_f2(self):
        # gcd(x^2 + 1, x + 1) = x + 1 over F_2
        g, u, v = poly_gcd_ext(poly(F2, 1, 0, 1), poly(F2, 1, 1))
        assert g == poly(F2, 1, 1)
        # oracle: every common monic divisor found exhaustively divides g
        common = set(map(tuple, (d.coeffs for d in brute_monic_divisors(poly(F2, 1, 0, 1))))) \
            & set(map(tuple, (d.coeffs for d in brute_monic_divisors(poly(F2, 1, 1)))))
        assert max(common, key=len) == g.coeffs

    def test_gcd_with_zero(self):
        f = poly(F3, 2, 2)
        g, u, v = poly_gcd_ext(f, FpPoly.zero(F3))
        assert g == f.monic()
        assert v.is_zero
        assert u * f == g

    def test_factorization_example(self):
        # x^3 + 1 = (x + 1)(x^2 + x + 1) over F_2, checked by expansion
        assert poly(F2, 1, 1) * poly(F2, 1, 1, 1) == poly(F2, 1, 0, 0, 1)
        g, _, _ = poly_gcd_ext(poly(F2, 1, 0, 0, 1), poly(F2, 1, 1, 1))
        assert g == poly(F2, 1, 1, 1)

    def test_both_zero(self):
        with pytest.raises(AlgebraError, match=r"gcd\(0, 0\) is undefined"):
            poly_gcd_ext(FpPoly.zero(F2), FpPoly.zero(F2))

    def test_soundness_randomized(self):
        rng = random.Random(7)
        for _ in range(1500):
            field = rng.choice([F2, F3])
            a = random_poly(rng, field, 6)
            b = random_poly(rng, field, 6)
            if a.is_zero and b.is_zero:
                continue
            g, u, v = poly_gcd_ext(a, b)
            assert u * a + v * b == g
            assert g.divides(a) and g.divides(b)

    def test_wrong_quotient_fails_the_bezout_certificate(self, monkeypatch):
        # x^3 + x + 1 = x (x^2 + 1) + 1: a quotient of x + 1 instead of x leaves the
        # remainders, and so g = 1, but not u and v
        corrupt_first_division(monkeypatch, lambda q, r: (q + FpPoly.one(F2), r))
        with pytest.raises(CertificateError, match="Bezout certificate failed"):
            poly_gcd_ext(poly(F2, 1, 1, 0, 1), poly(F2, 1, 0, 1))

    def test_lost_remainder_fails_the_divisibility_check(self, monkeypatch):
        # a first remainder read as 0 stops at g = b with u = 0 and v = 1, which
        # satisfy Bezout; only the divisibility check sees that b does not divide a
        corrupt_first_division(monkeypatch, lambda q, r: (q, FpPoly.zero(F2)))
        with pytest.raises(CertificateError, match="gcd does not divide its inputs"):
            poly_gcd_ext(poly(F2, 1, 1, 0, 1), poly(F2, 1, 0, 1))

    def test_maximality_against_exhaustive_divisors(self):
        rng = random.Random(13)
        for _ in range(60):
            field = rng.choice([F2, F3])
            a = random_poly(rng, field, 6)
            b = random_poly(rng, field, 6)
            if a.is_zero or b.is_zero:
                continue
            g, _, _ = poly_gcd_ext(a, b)
            for d in brute_monic_divisors(a):
                if d.divides(b):
                    assert d.divides(g)


class TestRingAxioms:
    def test_axioms_randomized_bulk(self):
        rng = random.Random(2024)
        for _ in range(10_000):
            field = rng.choice([F2, F3, F5])
            a = random_poly(rng, field, 5)
            b = random_poly(rng, field, 5)
            c = random_poly(rng, field, 5)
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a + b == b + a
            assert a * b == b * a

    @given(st.integers(0, 2 ** 12 - 1), st.integers(0, 2 ** 12 - 1), st.integers(0, 2 ** 12 - 1))
    @settings(max_examples=300, deadline=None)
    def test_axioms_hypothesis_f2(self, na, nb, nc):
        def from_bits(n):
            return FpPoly(F2, tuple((n >> i) & 1 for i in range(12)))
        a, b, c = from_bits(na), from_bits(nb), from_bits(nc)
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


class TestLaurent:
    def test_canonicalize_negative_shift(self):
        f = laurent_canonicalize(F2, [(-1, 1), (1, 1)])
        assert f.shift == -1
        assert f.body == poly(F2, 1, 0, 1)

    def test_canonicalize_cancellation(self):
        assert laurent_canonicalize(F2, [(0, 1), (0, 1)]).is_zero

    def test_canonicalize_f3_monomial(self):
        f = laurent_canonicalize(F3, [(3, 2)])
        assert f.shift == 3 and f.body == poly(F3, 2)

    @given(st.lists(st.tuples(st.integers(-6, 6), st.integers(-10, 10)), max_size=12),
           st.randoms(use_true_random=False))
    @settings(max_examples=300, deadline=None)
    def test_canonicalize_idempotent_and_order_free(self, terms, rnd):
        f = laurent_canonicalize(F3, terms)
        assert laurent_canonicalize(F3, f.terms()) == f
        shuffled = list(terms)
        rnd.shuffle(shuffled)
        assert laurent_canonicalize(F3, shuffled) == f

    def test_arithmetic_matches_term_model(self):
        rng = random.Random(5)
        for _ in range(500):
            t1 = [(rng.randint(-4, 4), rng.randrange(3)) for _ in range(rng.randint(0, 5))]
            t2 = [(rng.randint(-4, 4), rng.randrange(3)) for _ in range(rng.randint(0, 5))]
            f, g = laurent_canonicalize(F3, t1), laurent_canonicalize(F3, t2)
            assert (f + g) == laurent_canonicalize(F3, t1 + t2)
            prod_terms = [(e1 + e2, c1 * c2) for e1, c1 in t1 for e2, c2 in t2]
            assert (f * g) == laurent_canonicalize(F3, prod_terms)

    def test_zero_forces_zero_shift(self):
        assert LaurentPoly(F2, 17, FpPoly.zero(F2)).shift == 0
