"""Exact arithmetic in F_p, the polynomial ring F_p[x], and the Laurent ring F_p[x^(+-1)].

Polynomials are immutable tuples of least nonnegative residues in ascending
degree order, with the trailing coefficient nonzero (the zero polynomial is the
empty tuple). Laurent values are kept in the canonical form x^shift * body with
body(0) != 0, which fixes the unit ambiguity c * x^k once and for all: equality
in the Laurent ring is literal equality of canonical forms.

The degree of the zero polynomial is a genuine minus-infinity marker, never -1,
so degree comparisons in the division algorithm need no special cases.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Union

from .errors import AlgebraError, require

NEG_INF = float("-inf")

Degree = Union[int, float]


PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

PRIMALITY_LIMIT = 3317044064679887385961981
"""Miller-Rabin to the bases PRIME_BASES is deterministic below this bound
(Sorenson and Webster, "Strong pseudoprimes to twelve prime bases", Math. Comp. 2017)."""


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test.

    Raises ValueError for an n at or above PRIMALITY_LIMIT that has no factor
    in PRIME_BASES, where the test would no longer be a proof.
    """
    if n < 2:
        return False
    for q in PRIME_BASES:
        if n % q == 0:
            return n == q
    if n >= PRIMALITY_LIMIT:
        raise ValueError(f"modulus {n} is too large: primality is decided below "
                         f"{PRIMALITY_LIMIT} only")
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in PRIME_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class FieldSpec:
    """The prime field F_p."""

    p: int

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError(f"modulus {self.p} is not prime")

    def inv(self, a: int) -> int:
        return pow(a % self.p, -1, self.p)


def _check_fields(a: "FpPoly | LaurentPoly", b: "FpPoly | LaurentPoly") -> None:
    if a.field != b.field:
        raise AlgebraError(f"mixed moduli {a.field.p} and {b.field.p}")


@dataclass(frozen=True)
class FpPoly:
    """Dense polynomial over F_p, coefficients ascending, trailing one nonzero."""

    field: FieldSpec
    coeffs: tuple[int, ...]

    def __post_init__(self):
        p = self.field.p
        cs = [c % p for c in self.coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    @classmethod
    def zero(cls, field: FieldSpec) -> "FpPoly":
        return cls(field, ())

    @classmethod
    def one(cls, field: FieldSpec) -> "FpPoly":
        return cls(field, (1,))

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> Degree:
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    @property
    def leading_coefficient(self) -> int:
        return self.coeffs[-1] if self.coeffs else 0

    @property
    def constant_term(self) -> int:
        return self.coeffs[0] if self.coeffs else 0

    def coefficient(self, i: int) -> int:
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return 0

    @property
    def low_degree(self) -> int:
        """Index of the lowest nonzero coefficient; 0 for the zero polynomial."""
        for i, c in enumerate(self.coeffs):
            if c:
                return i
        return 0

    @property
    def is_monic(self) -> bool:
        return self.leading_coefficient == 1

    def monic(self) -> "FpPoly":
        if self.is_zero or self.is_monic:
            return self
        return self * self.field.inv(self.leading_coefficient)

    def strip_x(self) -> "FpPoly":
        """Drop the maximal x^k factor (a unit in the Laurent ring)."""
        if self.is_zero:
            return self
        return FpPoly(self.field, self.coeffs[self.low_degree:])

    def __bool__(self) -> bool:
        return not self.is_zero

    def __add__(self, other: "FpPoly") -> "FpPoly":
        _check_fields(self, other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = (out[i] + c) % self.field.p
        return FpPoly(self.field, tuple(out))

    def __neg__(self) -> "FpPoly":
        p = self.field.p
        return FpPoly(self.field, tuple((-c) % p for c in self.coeffs))

    def __sub__(self, other: "FpPoly") -> "FpPoly":
        return self + (-other)

    def __mul__(self, other: "FpPoly | int") -> "FpPoly":
        p = self.field.p
        if isinstance(other, int):
            return FpPoly(self.field, tuple((c * other) % p for c in self.coeffs))
        _check_fields(self, other)
        if self.is_zero or other.is_zero:
            return FpPoly.zero(self.field)
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] = (out[i + j] + a * b) % p
        return FpPoly(self.field, tuple(out))

    __rmul__ = __mul__

    def __floordiv__(self, other: "FpPoly") -> "FpPoly":
        return poly_divmod(self, other)[0]

    def __mod__(self, other: "FpPoly") -> "FpPoly":
        return poly_divmod(self, other)[1]

    def divides(self, other: "FpPoly") -> bool:
        if self.is_zero:
            return other.is_zero
        return poly_divmod(other, self)[1].is_zero

    def __str__(self) -> str:
        parts = []
        for e, c in enumerate(self.coeffs):
            if c:
                head = "" if c == 1 else str(c)
                parts.append(str(c) if e == 0 else f"{head}x" if e == 1 else f"{head}x^{e}")
        return " + ".join(parts) or "0"


def poly_divmod(a: FpPoly, b: FpPoly) -> tuple[FpPoly, FpPoly]:
    """Euclidean division a = q*b + r with deg r < deg b."""
    _check_fields(a, b)
    if b.is_zero:
        raise AlgebraError("division by the zero polynomial")
    if a.is_zero or a.degree < b.degree:
        return FpPoly.zero(a.field), a
    p = a.field.p
    inv_lead = a.field.inv(b.leading_coefficient)
    rem = list(a.coeffs)
    db = len(b.coeffs) - 1
    quo = [0] * (len(rem) - db)
    for i in range(len(rem) - 1, db - 1, -1):
        c = rem[i]
        if c:
            q = (c * inv_lead) % p
            quo[i - db] = q
            for j, bc in enumerate(b.coeffs):
                rem[i - db + j] = (rem[i - db + j] - q * bc) % p
    return FpPoly(a.field, tuple(quo)), FpPoly(a.field, tuple(rem[:db]))


def poly_gcd_ext(a: FpPoly, b: FpPoly) -> tuple[FpPoly, FpPoly, FpPoly]:
    """Extended gcd: returns monic g and u, v with u*a + v*b = g.

    The Bezout certificate is re-verified before returning.
    """
    _check_fields(a, b)
    if a.is_zero and b.is_zero:
        raise AlgebraError("gcd(0, 0) is undefined")
    field = a.field
    r0, r1 = a, b
    s0, s1 = FpPoly.one(field), FpPoly.zero(field)
    t0, t1 = FpPoly.zero(field), FpPoly.one(field)
    while not r1.is_zero:
        q, r = poly_divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    lead_inv = field.inv(r0.leading_coefficient)
    g, u, v = r0 * lead_inv, s0 * lead_inv, t0 * lead_inv
    require((u * a + v * b) == g, "Bezout certificate failed")
    require(g.divides(a) and g.divides(b), "gcd does not divide its inputs")
    return g, u, v


def poly_gcd(a: FpPoly, b: FpPoly) -> FpPoly:
    return poly_gcd_ext(a, b)[0]


def x_pow_minus_one(field: FieldSpec, m: int) -> FpPoly:
    """The polynomial x^m - 1."""
    if m < 1:
        raise ValueError("m must be positive")
    return FpPoly(field, (field.p - 1,) + (0,) * (m - 1) + (1,))


@dataclass(frozen=True)
class LaurentPoly:
    """Element of F_p[x^(+-1)] in the canonical form x^shift * body, body(0) != 0."""

    field: FieldSpec
    shift: int
    body: FpPoly

    def __post_init__(self):
        if self.body.field != self.field:
            raise AlgebraError("body lives over a different field")
        if self.body.is_zero:
            object.__setattr__(self, "shift", 0)
        else:
            low = self.body.low_degree
            if low:
                object.__setattr__(self, "shift", self.shift + low)
                object.__setattr__(self, "body", self.body.strip_x())

    @classmethod
    def zero(cls, field: FieldSpec) -> "LaurentPoly":
        return cls(field, 0, FpPoly.zero(field))

    @property
    def is_zero(self) -> bool:
        return self.body.is_zero

    def coefficient(self, e: int) -> int:
        return self.body.coefficient(e - self.shift)

    def terms(self) -> list[tuple[int, int]]:
        return [(self.shift + i, c) for i, c in enumerate(self.body.coeffs) if c]

    def __bool__(self) -> bool:
        return not self.is_zero

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        _check_fields(self, other)
        return laurent_canonicalize(self.field, self.terms() + other.terms())

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        _check_fields(self, other)
        return LaurentPoly(self.field, self.shift + other.shift, self.body * other.body)


def laurent_canonicalize(field: FieldSpec, raw: Iterable[tuple[int, int]]) -> LaurentPoly:
    """Canonical Laurent form from raw (exponent, coefficient) pairs.

    Duplicate exponents are summed mod p and zero terms dropped; the result is
    x^shift * body with body(0) != 0. Idempotent and independent of term order.
    """
    acc: dict[int, int] = {}
    for e, c in raw:
        acc[e] = (acc.get(e, 0) + c) % field.p
    acc = {e: c for e, c in acc.items() if c}
    if not acc:
        return LaurentPoly.zero(field)
    low = min(acc)
    top = max(acc)
    body = FpPoly(field, tuple(acc.get(low + i, 0) for i in range(top - low + 1)))
    return LaurentPoly(field, low, body)
