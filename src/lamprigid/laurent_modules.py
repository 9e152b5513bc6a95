"""Finitely generated modules over the Laurent ring F_p[x^(+-1)].

A module is presented by a relation matrix: N = R^g / column-span(relations),
where R is the Laurent ring. Since x is a unit of R, Laurent entries can be
cleared to plain polynomials by scaling rows with powers of x, which is an
automorphism of R^g; presentations are canonicalized this way at construction.

The structure theory runs through the Smith normal form of the relation
matrix: the diagonal gives the invariant factors once x-powers (units) are
stripped, and the change-of-basis transform U materializes the abstract
isomorphism onto a product of a free module and cyclic torsion quotients.
That explicit transform is what makes the projection onto free coordinates
constructive rather than an existence statement. The normal form and the
decomposition are computed once per presentation (ModulePresentation.smith,
.decomposition) and shared by every stage, the finite truncations included.
The projection onto the free coordinates needs no certificate of its own: the
relations' certified normal form proves it kills the relations and is onto.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import AlgebraError, require
from .fppoly import FieldSpec, FpPoly, LaurentPoly, poly_gcd, x_pow_minus_one
from .polymatrix import PolyMatrix, SmithDecomposition, matrix_mul, smith_normal_form


@dataclass(frozen=True)
class ModulePresentation:
    """N = R^g / column-span(relations); columns of the relation matrix are relators."""

    field: FieldSpec
    generators: int
    relations: PolyMatrix

    def __post_init__(self):
        if self.generators < 1:
            raise ValueError("at least one generator required")
        if self.relations.rows != self.generators:
            raise ValueError("relation matrix must have one row per generator")
        if self.relations.field != self.field:
            raise ValueError("relation matrix over a different field")

    @classmethod
    def make(cls, field: FieldSpec, generators: int,
             rows: list[list[FpPoly | LaurentPoly]] | None) -> "ModulePresentation":
        """Build from possibly-Laurent rows, clearing denominators by unit row scaling."""
        if rows and (len(rows) != generators or any(len(row) != len(rows[0]) for row in rows)):
            raise ValueError("relation rows must be one per generator, all of one length")
        return cls.from_terms(field, generators, len(rows[0]) if rows else 0, [
            (i, j, e, c) for i, row in enumerate(rows or ()) for j, f in enumerate(row)
            for e, c in (f.terms() if isinstance(f, LaurentPoly) else enumerate(f.coeffs))])

    @classmethod
    def from_terms(cls, field: FieldSpec, generators: int, relators: int,
                   terms: list[tuple[int, int, int, int]]) -> "ModulePresentation":
        """Relations summing c x^e over the terms (generator i, relator j, e, c), e of
        any sign. Row i is scaled by x^lift, lift the least k >= 0 with no negative
        exponent left once equal (i, j, e) are summed mod p: a unit row scaling."""
        acc: dict[tuple[int, int, int], int] = {}
        for i, j, e, c in terms:
            acc[i, j, e] = (acc.get((i, j, e), 0) + c) % field.p
        lift = [0] * generators
        for (i, _, e), c in acc.items():
            lift[i] = max(lift[i], -e if c else 0)
        lifted = [(i, j, e + lift[i], c) for (i, j, e), c in acc.items() if c]
        return cls(field, generators, PolyMatrix.from_terms(field, generators, relators, lifted))

    @classmethod
    def free(cls, field: FieldSpec, rank: int) -> "ModulePresentation":
        return cls(field, rank, PolyMatrix.zeros(field, rank, 0))

    @cached_property
    def smith(self) -> SmithDecomposition:
        """Certified SNF of the relations; frozen fields keep the cache valid."""
        return smith_normal_form(self.relations)

    @cached_property
    def decomposition(self) -> ModuleDecomposition:
        """Invariant-factor decomposition read from the diagonal of self.smith."""
        nonzero = [d for d in self.smith.diag if not d.is_zero]
        factors = tuple(f for f in (d.strip_x().monic() for d in nonzero) if f.degree >= 1)
        return ModuleDecomposition(self.field, self.generators - len(nonzero), factors)


@dataclass(frozen=True)
class ModuleDecomposition:
    """Free rank plus the invariant-factor chain f_1 | ... | f_s.

    Each factor is monic, nonconstant, satisfies f(0) != 0 (x-powers are units
    and have been stripped), and divides the next one.
    """

    field: FieldSpec
    free_rank: int
    invariant_factors: tuple[FpPoly, ...]

    def __post_init__(self):
        require(self.free_rank >= 0, "negative free rank")
        for f in self.invariant_factors:
            require(f.is_monic and f.degree >= 1, "unit or zero invariant factor")
            require(f.constant_term != 0, "invariant factor divisible by x")
        for f, g in zip(self.invariant_factors, self.invariant_factors[1:]):
            require(f.divides(g), "invariant factor chain broken")

    @property
    def torsion_degree_sum(self) -> int:
        return sum(int(f.degree) for f in self.invariant_factors)


def decompose(pres: ModulePresentation) -> ModuleDecomposition:
    """Invariant-factor decomposition of pres, computed once per presentation."""
    return pres.decomposition


def quotient_dim(dec: ModuleDecomposition, m: int) -> int:
    """dim over F_p of N / (x^m - 1) N, computed from the decomposition.

    Equals free_rank * m plus the degree of gcd(f_i, x^m - 1) summed over the
    invariant factors.
    """
    if m < 1:
        raise AlgebraError(f"m = {m}")
    xm1 = x_pow_minus_one(dec.field, m)
    total = dec.free_rank * m
    for f in dec.invariant_factors:
        total += int(poly_gcd(f, xm1).degree)
    return total


def torsion_quotient_order(f: FpPoly) -> int:
    """Order of the quotient of the Laurent ring by f: p^deg(f) for f(0) != 0."""
    if f.is_zero:
        raise AlgebraError("quotient by zero is the whole ring")
    if f.constant_term == 0:
        raise AlgebraError("strip the x-power unit first: f(0) must be nonzero")
    return f.field.p ** int(f.degree)


def epimorphism_to_free(pres: ModulePresentation, n: int) -> PolyMatrix:
    """Surjection N -> R^n given by an n x g matrix applied to generator coordinates.

    The map is the composition of the Smith change of basis with the projection
    onto the n free coordinates of lowest index (torsion summands go to zero).
    """
    if n < 1:
        raise ValueError("target rank must be positive")
    r = pres.decomposition.free_rank
    if r < n:
        raise AlgebraError(f"free rank {r} < target rank {n}: no surjection onto R^{n}")
    # The SNF certificate puts no nonzero diagonal entry after a zero one and rows past
    # the diagonal are free, so the free rows of U are its last r. D is zero there and V
    # is invertible, so phi kills the relations; U is unimodular, so phi is onto.
    return PolyMatrix(pres.field, pres.smith.u.coeffs[pres.generators - r:][:n])


@dataclass(frozen=True)
class FiniteTruncation:
    """Explicit model of N / (x^m - 1) N as an F_p space with an x-action.

    Basis vectors are monomials x^j inside each cyclic summand of the Smith
    form, ordered by (summand index, degree). Certified on build: A^m = I for the
    action matrix A (square-and-multiply with matrix_mul), and the images span
    F_p^d as an x-stable space, i.e. the certified Smith normal form of
    [images as columns | xI - A] has only unit invariant factors, as F_p^d with
    x acting by A is the cokernel of xI - A.
    """

    field: FieldSpec
    m: int
    dim: int
    x_action: tuple[tuple[int, ...], ...]
    generator_images: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        d = self.dim
        require(self.m >= 1, "truncation order m is not positive")
        require(len(self.x_action) == d and all(len(r) == d for r in self.x_action),
                "x-action is not a dim x dim matrix")
        require(all(len(g) == d for g in self.generator_images),
                "generator image is not a vector of length dim")
        if not d:
            return
        action = PolyMatrix(self.field, np.array(self.x_action, dtype=object)[:, :, None])
        power, base, k = PolyMatrix.identity(self.field, d), action, self.m
        while k:
            if k & 1:
                power = matrix_mul(power, base)
            base, k = matrix_mul(base, base), k >> 1
        require(power == PolyMatrix.identity(self.field, d),
                "x-action does not have order dividing m")
        g = len(self.generator_images)
        bordered = np.zeros((d, d + g, 2), dtype=object)
        bordered[:, g:, 0] = -action.coeffs[:, :, 0]
        bordered[range(d), range(g, g + d), 1] = 1
        bordered[:, :g, 0] = np.array(self.generator_images, dtype=object).reshape(g, d).T
        diag = smith_normal_form(PolyMatrix(self.field, bordered)).diag
        require(all(f.degree == 0 for f in diag), "generator images fail to span the truncation")


def block_companion(chain: list[FpPoly]) -> list[list[int]]:
    """Multiplication-by-x matrix on the direct sum of the F_p[x]/(h) along the
    chain, basis 1, x, ..., x^(deg h - 1) in each summand; units add nothing."""
    dim = sum(int(h.degree) for h in chain)
    action = [[0] * dim for _ in range(dim)]
    offset = 0
    for h in chain:
        e = int(h.degree)
        p = h.field.p
        for j in range(e - 1):
            action[offset + j + 1][offset + j] = 1
        for i in range(e):
            action[offset + i][offset + e - 1] = (-h.coefficient(i)) % p
        offset += e
    return action


def finite_truncation(pres: ModulePresentation, m: int) -> FiniteTruncation:
    """Basis, x-action and generator images of N / (x^m - 1) N.

    Read off the certified U * relations * V = D of pres.smith: N is the sum of the
    R/(d_i), d_i = 0 past D's diagonal, generator j mapping to column j of U. So the
    quotient is the sum of the F_p[x]/(h_i), h_i = gcd(d_i, x^m - 1), a divisor chain
    as the d_i are, and generator j maps to column j of U reduced mod each h_i.
    """
    if m < 1:
        raise AlgebraError(f"m = {m}")
    field, snf, xm1 = pres.field, pres.smith, x_pow_minus_one(pres.field, m)
    annihilators = [poly_gcd(d, xm1) for d in snf.diag]
    annihilators += [xm1] * (pres.generators - len(annihilators))
    dim = sum(int(h.degree) for h in annihilators)
    images = []
    for j in range(pres.generators):
        vec = []
        for i, h in enumerate(annihilators):
            rem = snf.u.entry(i, j) % h
            vec += [rem.coefficient(k) for k in range(int(h.degree))]
        images.append(tuple(vec))

    trunc = FiniteTruncation(field=field, m=m, dim=dim,
                             x_action=tuple(map(tuple, block_companion(annihilators))),
                             generator_images=tuple(images))
    require(dim == quotient_dim(decompose(pres), m),
            "truncation dimension disagrees with the rank formula")
    return trunc
