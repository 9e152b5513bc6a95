"""Matrices over F_p[x] and Smith normal form with unimodular transform certificates.

A PolyMatrix is its coefficient array C[i, j, e], the coefficient of x^e in
entry (i, j), kept canonical: residues mod p, no zero top degree slice, int64
while residue products fit and Python integers beyond. Products and the
elimination work on these arrays; FpPoly entries are built only on request.

The normal form routine follows the classical Euclidean strategy: pick a
nonzero entry of minimal degree as pivot, clear its row and column by division
steps (remainders strictly drop the minimal degree, so this terminates), then
repair the divisibility chain with extended-gcd 2x2 block transforms on
adjacent diagonal pairs, all as in-place updates of one array (see _Worker).
Every decomposition re-verifies U*M*V = D, the unimodularity of U and V, and the
chain d_i | d_{i+1} at construction, so a returned value is a certificate.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import AlgebraError, require
from .fppoly import FieldSpec, FpPoly, poly_divmod, poly_gcd_ext


@dataclass(frozen=True, eq=False)
class PolyMatrix:
    """Matrix over F_p[x] held as its canonical, read-only coefficient array
    coeffs[i, j, e] (see the module docstring); equality and hash are by value."""

    field: FieldSpec
    coeffs: np.ndarray

    def __post_init__(self):
        p, dtype = self.field.p, np.int64 if _int64_terms(self.field.p) > 0 else object
        c = np.asarray(self.coeffs)
        if c.ndim != 3:
            raise AlgebraError(f"expected a coefficient array C[i, j, e], got {c.ndim} axes")
        c = (c.astype(object) if object in (dtype, c.dtype) else c) % p
        top = c.any(axis=(0, 1)).nonzero()[0]
        c = c[..., :top[-1] + 1].astype(dtype) if top.size else np.zeros(c.shape[:2] + (1,), dtype)
        c.flags.writeable = False
        object.__setattr__(self, "coeffs", c)

    @classmethod
    def from_rows(cls, field: FieldSpec, rows: Sequence[Sequence[FpPoly]]) -> "PolyMatrix":
        c = len(rows[0]) if rows else 0
        if any(len(row) != c for row in rows):
            raise AlgebraError("ragged rows")
        if any(e.field != field for row in rows for e in row):
            raise AlgebraError("matrix entry over a different field")
        return cls.from_terms(field, len(rows), c, [
            (i, j, e, v) for i, row in enumerate(rows) for j, f in enumerate(row)
            for e, v in enumerate(f.coeffs)])

    @classmethod
    def from_terms(cls, field: FieldSpec, rows: int, cols: int,
                   terms: list[tuple[int, int, int, int]]) -> "PolyMatrix":
        """The matrix whose entry (i, j) sums c x^e over the terms (i, j, e, c), e >= 0."""
        coeffs = np.zeros((rows, cols, 1 + max([0] + [e for _, _, e, _ in terms])), dtype=object)
        for i, j, e, c in terms:
            coeffs[i, j, e] += c
        return cls(field, coeffs)

    @classmethod
    def identity(cls, field: FieldSpec, n: int) -> "PolyMatrix":
        return cls(field, np.eye(n, dtype=np.int64)[:, :, None])

    @classmethod
    def zeros(cls, field: FieldSpec, rows: int, cols: int) -> "PolyMatrix":
        return cls(field, np.zeros((rows, cols, 1), dtype=np.int64))

    rows = property(lambda self: self.coeffs.shape[0])
    cols = property(lambda self: self.coeffs.shape[1])

    @functools.cached_property
    def entries(self) -> tuple[FpPoly, ...]:  # row-major, built on first use
        poly = functools.cache(lambda e: FpPoly(self.field, e))  # equal entries share one FpPoly
        return tuple(map(poly, map(tuple, self.coeffs.reshape(-1, self.coeffs.shape[2]).tolist())))

    def entry(self, i: int, j: int) -> FpPoly:
        return FpPoly(self.field, tuple(self.coeffs[i, j].tolist()))

    def row(self, i: int) -> tuple[FpPoly, ...]:
        return self.entries[i * self.cols:(i + 1) * self.cols]

    def to_lists(self) -> list[list[FpPoly]]:
        return [list(self.row(i)) for i in range(self.rows)]

    @property
    def is_zero(self) -> bool:
        return not self.coeffs.any()

    def is_diagonal(self) -> bool:
        return not self.coeffs[~np.eye(self.rows, self.cols, dtype=bool)].any()

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, PolyMatrix) and self.field == other.field
                and np.array_equal(self.coeffs, other.coeffs))

    def __hash__(self) -> int:
        # tolist() gives Python integers for both dtypes; an object array's bytes are pointers
        return hash((self.field, self.coeffs.shape, tuple(self.coeffs.ravel().tolist())))

    def __str__(self) -> str:
        return "\n".join("[" + ", ".join(str(e) for e in self.row(i)) + "]" for i in range(self.rows))


def _int64_terms(p: int) -> int:
    """How many products of residues an int64 residue mod p can take on, the most k with
    k * (p - 1)^2 + p < 2^63; below 1, arrays hold Python integers (object) instead."""
    return (2 ** 63 - 1 - p) // (p - 1) ** 2


def _mul_sums(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """Product of coefficient arrays a[i, k, e] and b[k, j, f], not yet reduced mod p:
    one numpy matrix product per nonzero degree slice of a. An output coefficient
    sums at most cols(a) * min(widths) products, which fixes the exact dtype."""
    (rows, inner, wa), (_, cols, wb) = a.shape, b.shape
    dtype = np.int64 if inner * min(wa, wb) <= _int64_terms(p) else object
    a, flat = a.astype(dtype, copy=False), b.astype(dtype, copy=False).reshape(inner, cols * wb)
    out = np.zeros((rows, cols, wa + wb - 1), dtype=dtype)
    for e in np.flatnonzero(a.any(axis=(0, 1))):
        out[:, :, e:e + wb] += (a[:, :, e] @ flat).reshape(rows, cols, wb)
    return out


def matrix_mul(a: PolyMatrix, b: PolyMatrix) -> PolyMatrix:
    """Exact matrix product, computed on coefficient arrays."""
    if a.field != b.field:
        raise AlgebraError("mixed fields in matrix product")
    if a.cols != b.rows:
        raise AlgebraError(f"cannot multiply {a.rows}x{a.cols} by {b.rows}x{b.cols}")
    return PolyMatrix(a.field, _mul_sums(a.coeffs, b.coeffs, a.field.p))


def determinant(m: PolyMatrix) -> FpPoly:
    """Determinant by Bareiss fraction-free elimination (Bareiss 1968).

    After step k each entry of the trailing block is a (k+1)x(k+1) minor of m,
    so dividing by the previous pivot is exact over F_p[x]; every division is
    checked. A zero pivot is replaced by a row swap, which flips the sign.

    Step k sets a[i][j] to (a[i][j]*piv - a[i][k]*a[k][j]) / prev. When piv
    equals prev and a[i][k] or a[k][j] is zero, that is a[i][j]*piv/prev =
    a[i][j], so the update is skipped: the whole row i when a[i][k] is zero,
    the entry (i, j) when a[k][j] is zero. Every other division is computed
    and checked. Transforms that stay close to unit triangular, as in SNF
    certificates, skip almost every update.
    """
    if m.rows != m.cols:
        raise AlgebraError(f"determinant of a {m.rows}x{m.cols} matrix")
    n = m.rows
    a = m.to_lists()
    prev, sign = FpPoly.one(m.field), 1
    for k in range(n):
        if not a[k][k]:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return FpPoly.zero(m.field)
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        piv = a[k][k]
        same = piv == prev
        for i in range(k + 1, n):
            if same and not a[i][k]:
                continue
            for j in range(k + 1, n):
                if same and not a[k][j]:
                    continue
                q, r = poly_divmod(a[i][j] * piv - a[i][k] * a[k][j], prev)
                require(r.is_zero, "Bareiss division is not exact")
                a[i][j] = q
        prev = piv
    return prev if sign > 0 else -prev


def is_unimodular(m: PolyMatrix) -> bool:
    """True iff det(m) is a nonzero constant, i.e. m is invertible over F_p[x]."""
    return determinant(m).degree == 0


@dataclass(frozen=True)
class SmithDecomposition:
    """Certified factorization U * source * V = D with D diagonal.

    Construction re-runs the full certificate: the product identity, the
    unimodularity of both transforms, diagonality, monic normalization and the
    divisibility chain on diag (zeros, if any, sit at the end). U and V are checked
    square ahead of matrix_mul, which rejects other shapes as a bad request (exit 2);
    D then equals U * source * V, and so has its shape.
    """

    source: PolyMatrix
    u: PolyMatrix
    d: PolyMatrix
    v: PolyMatrix

    @functools.cached_property
    def diag(self) -> tuple[FpPoly, ...]:
        """D's diagonal entries, the invariant factors of source."""
        return tuple(self.d.entry(i, i) for i in range(min(self.d.rows, self.d.cols)))

    def __post_init__(self):
        m = self.source
        require(self.u.rows == self.u.cols == m.rows, "U has the wrong shape")
        require(self.v.rows == self.v.cols == m.cols, "V has the wrong shape")
        require(matrix_mul(matrix_mul(self.u, m), self.v) == self.d, "U*M*V != D")
        require(is_unimodular(self.u), "U is not unimodular")
        require(is_unimodular(self.v), "V is not unimodular")
        require(self.d.is_diagonal(), "D has off-diagonal entries")
        nonzero = [di for di in self.diag if not di.is_zero]
        require(not any(di.is_zero for di in self.diag[:len(nonzero)]),
                "nonzero diagonal entry after a zero one")
        require(all(di.is_monic for di in nonzero), "diagonal entry not monic")
        require(all(f.divides(g) for f, g in zip(nonzero, nonzero[1:])),
                "divisibility chain broken")


class _Worker:
    """Elimination on the coefficient array g of [[M, I], [I, 0]]. Row operations
    on the first R rows multiply [M | I] on the left, column operations on the
    first C columns multiply [M ; I] on the right, so g stays [[U M V, U], [V, 0]].
    A column operation is a row operation on the transpose of g. Every operation is
    one in-place update, sub, of the targets' entries in the lines where a source is
    nonzero, by one broadcast product per nonzero quotient slice and source; those
    entries alone are reduced mod p, after at most `limit` products each."""

    def __init__(self, m: PolyMatrix):
        self.field, self.R, self.C, a = m.field, m.rows, m.cols, m.coeffs
        self.g = np.zeros((m.rows + m.cols, m.cols + m.rows, a.shape[2]), dtype=a.dtype)
        self.g[:m.rows, :m.cols] = a
        self.g[:m.rows, m.cols:, 0] = np.eye(m.rows, dtype=a.dtype)
        self.g[m.rows:, :m.cols, 0] = np.eye(m.cols, dtype=a.dtype)
        self.limit = _int64_terms(m.field.p) if a.dtype == np.int64 else math.inf

    def view(self, cols: bool) -> np.ndarray:
        return self.g.transpose(1, 0, 2) if cols else self.g

    def sub(self, cols: bool, targets, q: np.ndarray, sources) -> None:
        """Rows (or columns) targets -= q * rows (or columns) sources, q[i, k, e]; the
        sources are read first. g widens only when a product outgrows it."""
        src = self.view(cols)[sources]
        nonzero, slices = src.any(axis=0), q.any(axis=(0, 1)).nonzero()[0].tolist()
        lines = nonzero.any(axis=1).nonzero()[0]
        if not lines.size or not slices:
            return
        width = 1 + int(nonzero.any(axis=0).nonzero()[0][-1])
        if (extra := slices[-1] + width - self.g.shape[2]) > 0:
            zeros = np.zeros(self.g.shape[:2] + (extra,), self.g.dtype)
            self.g = np.concatenate([self.g, zeros], axis=2)
        view, at = self.view(cols), (np.asarray(targets)[:, None], lines)
        block, src = view[at], src[..., :width].take(lines, axis=1)
        for n, (e, k) in enumerate(itertools.product(slices, range(len(src))), 1):
            block[:, :, e:e + width] -= q[:, k, e, None, None] * src[k]
            if n % self.limit == 0:  # never for object entries: limit is inf
                block %= self.field.p
        view[at] = block % self.field.p

    def clear(self, cols: bool, t: int) -> bool:
        """Reduce the entries after the pivot in its column (or row) of M mod the pivot
        in one update; True if a remainder is nonzero. The quotients are the line times
        1/pivot for a constant pivot, else one long division of the trimmed line."""
        p, line = self.field.p, self.view(cols)[t + 1:self.C if cols else self.R, t]
        rows = line.any(axis=1).nonzero()[0]
        piv = self.g[t, t, :self.g[t, t].nonzero()[0][-1] + 1]
        deg, inv, line = len(piv) - 1, self.field.inv(int(piv[-1])), line[rows]  # a copy
        if deg == 0:  # no remainder
            self.sub(cols, t + 1 + rows, (line if inv == 1 else line * inv % p)[:, None], [t])
            return False
        rem = line[:, :line.any(axis=0).nonzero()[0].max(initial=-1) + 1]
        q = np.zeros((len(rem), 1, max(rem.shape[1] - deg, 0)), dtype=rem.dtype)
        for k in range(rem.shape[1] - 1, deg - 1, -1):
            q[:, 0, k - deg] = rem[:, k] * inv % p
            rem[:, k - deg:k + 1] = (rem[:, k - deg:k + 1] - q[:, :, k - deg] * piv) % p
        self.sub(cols, t + 1 + rows, q, [t])
        return bool(rem.any())

    def pivot(self, t: int) -> tuple[int, int] | None:
        """Nonzero entry of minimal degree in the trailing submatrix, lowest (row, col) on ties."""
        deg = self.degrees(self.g[t:self.R, t:self.C])
        at = np.where(deg >= 0, deg, self.g.shape[2]).argmin()  # zero entries rank last
        if deg.flat[at] < 0:
            return None
        i, j = divmod(int(at), deg.shape[1])
        return t + i, t + j

    def diagonalize(self) -> None:
        """Euclidean elimination. Clearing the pivot's column subtracts multiples
        of the pivot row from the rows below it and never writes the pivot row, so
        every quotient can be read before the first update and the whole column is
        cleared in one update, with the same result as one row at a time. The pivot
        column is then fixed in the same way while the row is cleared."""
        t = 0
        while t < min(self.R, self.C):
            pos = self.pivot(t)
            if pos is None:
                break
            while True:
                for cols, j in (False, pos[0]), (True, pos[1]):  # swap into place
                    if j != t:
                        self.view(cols)[[t, j]] = self.view(cols)[[j, t]]
                dirty = [self.clear(cols, t) for cols in (False, True)]  # column, then row
                if not any(dirty):
                    break
                pos = self.pivot(t)  # a remainder has strictly smaller degree
            t += 1

    @staticmethod
    def degrees(block: np.ndarray) -> np.ndarray:
        """Degrees of the entries of a block of g, -1 for a zero entry."""
        return ((block != 0) * np.arange(1, block.shape[-1] + 1)).max(axis=-1, initial=0) - 1

    def repair_chain(self) -> None:
        one = FpPoly.one(self.field)
        q = lambda rows: PolyMatrix.from_rows(self.field, rows).coeffs
        k, changed = np.arange(min(self.R, self.C)), True
        while changed:
            changed = False
            deg = self.degrees(self.g[k, k])
            for i in range(len(k) - 1):
                # zeros stay last: diagonalize leaves them there, and a gcd step keeps g, ab/g
                # nonzero; a constant divides every entry
                if deg[i + 1] < 0 or deg[i] == 0:
                    continue
                a, b = (FpPoly(self.field, tuple(self.g[j, j].tolist())) for j in (i, i + 1))
                if a.divides(b):
                    continue
                g, u, v = poly_gcd_ext(a, b)
                # [[a,0],[0,b]] -> [[g,0],[0,ab/g]]: col_i += col_(i+1), then rows i, i+1
                # times [[u, v], [-b/g, a/g]], then col_(i+1) -= (vb/g) col_i
                self.sub(True, [i], q([[-one]]), [i + 1])
                self.sub(False, [i, i + 1], q([[one - u, -v], [b // g, one - a // g]]), [i, i + 1])
                self.sub(True, [i + 1], q([[(v * b) // g]]), [i])
                deg, changed = self.degrees(self.g[k, k]), True

    def normalize_monic(self) -> None:
        k = np.arange(min(self.R, self.C))
        lead = self.g[k, k, self.degrees(self.g[k, k])]  # a zero entry reads its top slice, 0
        for i in np.flatnonzero(lead > 1):  # row i of [M | I] times 1/lead; products fit the dtype
            self.g[i] = self.g[i] * self.field.inv(int(lead[i])) % self.field.p


def smith_normal_form(m: PolyMatrix) -> SmithDecomposition:
    """Diagonalize m over F_p[x] with certified unimodular transforms.

    diag is the unique monic invariant-factor sequence of m, zeros last.
    """
    w = _Worker(m)
    w.diagonalize()
    w.repair_chain()
    w.normalize_monic()
    R, C = m.rows, m.cols
    d, u, v = (PolyMatrix(m.field, c) for c in (w.g[:R, :C], w.g[:R, C:], w.g[R:, :C]))
    return SmithDecomposition(source=m, u=u, d=d, v=v)
