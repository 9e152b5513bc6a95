"""Matrices over F_p[x] and Smith normal form with unimodular transform certificates.

The normal form routine follows the classical Euclidean strategy: pick a
nonzero entry of minimal degree as pivot, clear its row and column by division
steps (remainders strictly drop the minimal degree, so this terminates), then
repair the divisibility chain with extended-gcd 2x2 block transforms on
adjacent diagonal pairs. Every decomposition re-verifies U*M*V = D, the
unimodularity of U and V, and the chain d_i | d_{i+1} at construction time, so
a returned value is a certificate, not just an answer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import FieldMismatch, NotSquare, ShapeMismatch, require
from .fppoly import FieldSpec, FpPoly, poly_divmod, poly_gcd_ext


@dataclass(frozen=True)
class PolyMatrix:
    """Row-major dense matrix with FpPoly entries."""

    field: FieldSpec
    rows: int
    cols: int
    entries: tuple[FpPoly, ...]

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ShapeMismatch("negative dimensions")
        if len(self.entries) != self.rows * self.cols:
            raise ShapeMismatch(
                f"expected {self.rows * self.cols} entries, got {len(self.entries)}"
            )
        for e in self.entries:
            if e.field != self.field:
                raise FieldMismatch("matrix entry over a different field")

    @classmethod
    def from_rows(cls, field: FieldSpec, rows: Sequence[Sequence[FpPoly]]) -> "PolyMatrix":
        r = len(rows)
        c = len(rows[0]) if rows else 0
        if any(len(row) != c for row in rows):
            raise ShapeMismatch("ragged rows")
        return cls(field, r, c, tuple(e for row in rows for e in row))

    @classmethod
    def identity(cls, field: FieldSpec, n: int) -> "PolyMatrix":
        one, zero = FpPoly.one(field), FpPoly.zero(field)
        return cls(field, n, n, tuple(one if i == j else zero for i in range(n) for j in range(n)))

    @classmethod
    def zeros(cls, field: FieldSpec, rows: int, cols: int) -> "PolyMatrix":
        return cls(field, rows, cols, (FpPoly.zero(field),) * (rows * cols))

    def entry(self, i: int, j: int) -> FpPoly:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[FpPoly, ...]:
        return self.entries[i * self.cols:(i + 1) * self.cols]

    def column(self, j: int) -> tuple[FpPoly, ...]:
        return tuple(self.entry(i, j) for i in range(self.rows))

    def to_lists(self) -> list[list[FpPoly]]:
        return [list(self.row(i)) for i in range(self.rows)]

    @property
    def is_zero(self) -> bool:
        return all(e.is_zero for e in self.entries)

    def is_diagonal(self) -> bool:
        return all(
            self.entry(i, j).is_zero
            for i in range(self.rows)
            for j in range(self.cols)
            if i != j
        )

    def __str__(self) -> str:
        return "\n".join("[" + ", ".join(str(e) for e in self.row(i)) + "]" for i in range(self.rows))


def matrix_mul(a: PolyMatrix, b: PolyMatrix) -> PolyMatrix:
    """Exact matrix product."""
    if a.field != b.field:
        raise FieldMismatch("mixed fields in matrix product")
    if a.cols != b.rows:
        raise ShapeMismatch(f"cannot multiply {a.rows}x{a.cols} by {b.rows}x{b.cols}")
    zero = FpPoly.zero(a.field)
    out = []
    for i in range(a.rows):
        arow = a.row(i)
        for j in range(b.cols):
            acc = zero
            for k in range(a.cols):
                if arow[k] and b.entry(k, j):
                    acc = acc + arow[k] * b.entry(k, j)
            out.append(acc)
    return PolyMatrix(a.field, a.rows, b.cols, tuple(out))


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
        raise NotSquare(f"determinant of a {m.rows}x{m.cols} matrix")
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
    divisibility chain on diag (zeros, if any, sit at the end).
    """

    source: PolyMatrix
    u: PolyMatrix
    d: PolyMatrix
    v: PolyMatrix
    diag: tuple[FpPoly, ...]

    def __post_init__(self):
        m = self.source
        require(self.u.rows == self.u.cols == m.rows, "U has the wrong shape")
        require(self.v.rows == self.v.cols == m.cols, "V has the wrong shape")
        require(self.d.rows == m.rows and self.d.cols == m.cols, "D has the wrong shape")
        require(matrix_mul(matrix_mul(self.u, m), self.v).entries == self.d.entries,
                "U*M*V != D")
        require(is_unimodular(self.u), "U is not unimodular")
        require(is_unimodular(self.v), "V is not unimodular")
        require(self.d.is_diagonal(), "D has off-diagonal entries")
        k = min(m.rows, m.cols)
        require(len(self.diag) == k, "diag has the wrong length")
        require(all(self.d.entry(i, i) == self.diag[i] for i in range(k)), "diag differs from D")
        seen_zero = False
        for i, di in enumerate(self.diag):
            if di.is_zero:
                seen_zero = True
                continue
            require(not seen_zero, "nonzero diagonal entry after a zero one")
            require(di.is_monic, "diagonal entry not monic")
            if i + 1 < k and not self.diag[i + 1].is_zero:
                require(di.divides(self.diag[i + 1]), "divisibility chain broken")


class _Worker:
    """Mutable elimination state accumulating the transforms eagerly."""

    def __init__(self, m: PolyMatrix):
        self.field = m.field
        self.R, self.C = m.rows, m.cols
        self.a = m.to_lists()
        self.u = PolyMatrix.identity(m.field, m.rows).to_lists()
        self.v = PolyMatrix.identity(m.field, m.cols).to_lists()

    def row_swap(self, i: int, j: int) -> None:
        self.a[i], self.a[j] = self.a[j], self.a[i]
        self.u[i], self.u[j] = self.u[j], self.u[i]

    def col_swap(self, i: int, j: int) -> None:
        for row in self.a:
            row[i], row[j] = row[j], row[i]
        for row in self.v:
            row[i], row[j] = row[j], row[i]

    def row_sub(self, i: int, j: int, q: FpPoly) -> None:
        """row_i -= q * row_j, leaving the entries opposite a zero of row_j as they are"""
        if q.is_zero:
            return
        self.a[i] = [e - q * f if f else e for e, f in zip(self.a[i], self.a[j])]
        self.u[i] = [e - q * f if f else e for e, f in zip(self.u[i], self.u[j])]

    def col_sub(self, i: int, j: int, q: FpPoly) -> None:
        """col_i -= q * col_j, leaving the entries opposite a zero of col_j as they are"""
        if q.is_zero:
            return
        for grid in (self.a, self.v):
            for row in grid:
                if row[j]:
                    row[i] = row[i] - q * row[j]

    def col_add(self, i: int, j: int, q: FpPoly) -> None:
        self.col_sub(i, j, -q)

    def row_scale(self, i: int, c: int) -> None:
        self.a[i] = [e * c for e in self.a[i]]
        self.u[i] = [e * c for e in self.u[i]]

    def row_pair_transform(self, i: int, j: int, a11: FpPoly, a12: FpPoly,
                           a21: FpPoly, a22: FpPoly) -> None:
        """(row_i, row_j) <- (a11*row_i + a12*row_j, a21*row_i + a22*row_j)"""
        for grid in (self.a, self.u):
            ri, rj = grid[i], grid[j]
            grid[i] = [a11 * e + a12 * f for e, f in zip(ri, rj)]
            grid[j] = [a21 * e + a22 * f for e, f in zip(ri, rj)]

    def pivot(self, t: int) -> tuple[int, int] | None:
        """Nonzero entry of minimal degree in the trailing submatrix, lowest (row, col) on ties."""
        best = None
        best_deg = None
        for i in range(t, self.R):
            for j in range(t, self.C):
                e = self.a[i][j]
                if e:
                    if best_deg is None or e.degree < best_deg:
                        best, best_deg = (i, j), e.degree
        return best

    def diagonalize(self) -> None:
        t = 0
        while t < min(self.R, self.C):
            pos = self.pivot(t)
            if pos is None:
                break
            while True:
                i, j = pos
                if i != t:
                    self.row_swap(t, i)
                if j != t:
                    self.col_swap(t, j)
                dirty = False
                piv = self.a[t][t]
                for i in range(t + 1, self.R):
                    if self.a[i][t]:
                        q, r = poly_divmod(self.a[i][t], piv)
                        self.row_sub(i, t, q)
                        if r:
                            dirty = True
                for j in range(t + 1, self.C):
                    if self.a[t][j]:
                        q, r = poly_divmod(self.a[t][j], piv)
                        self.col_sub(j, t, q)
                        if r:
                            dirty = True
                if not dirty:
                    break
                pos = self.pivot(t)  # a remainder has strictly smaller degree
            t += 1

    def repair_chain(self) -> None:
        k = min(self.R, self.C)
        one = FpPoly.one(self.field)
        changed = True
        while changed:
            changed = False
            for i in range(k - 1):
                a, b = self.a[i][i], self.a[i + 1][i + 1]
                if a.is_zero and not b.is_zero:
                    self.row_swap(i, i + 1)
                    self.col_swap(i, i + 1)
                    changed = True
                    continue
                if a.is_zero or b.is_zero:
                    continue
                if poly_divmod(b, a)[1].is_zero:
                    continue
                g, u, v = poly_gcd_ext(a, b)
                # [[a,0],[0,b]] -> [[g,0],[0,ab/g]] by unimodular block moves
                self.col_add(i, i + 1, one)
                self.row_pair_transform(i, i + 1, u, v, -(b // g), a // g)
                self.col_sub(i + 1, i, (v * b) // g)
                changed = True

    def normalize_monic(self) -> None:
        for i in range(min(self.R, self.C)):
            e = self.a[i][i]
            if e and not e.is_monic:
                self.row_scale(i, self.field.inv(e.leading_coefficient))


def smith_normal_form(m: PolyMatrix) -> SmithDecomposition:
    """Diagonalize m over F_p[x] with certified unimodular transforms.

    diag is the unique monic invariant-factor sequence of m, zeros last.
    """
    w = _Worker(m)
    w.diagonalize()
    w.repair_chain()
    w.normalize_monic()
    field = m.field
    d = PolyMatrix.from_rows(field, w.a) if m.rows else PolyMatrix.zeros(field, 0, m.cols)
    u = PolyMatrix.from_rows(field, w.u) if m.rows else PolyMatrix.identity(field, 0)
    v = PolyMatrix.from_rows(field, w.v) if m.cols else PolyMatrix.identity(field, 0)
    diag = tuple(w.a[i][i] for i in range(min(m.rows, m.cols)))
    return SmithDecomposition(source=m, u=u, d=d, v=v, diag=diag)


def stack_columns(field: FieldSpec, blocks: Iterable[PolyMatrix]) -> PolyMatrix:
    """Horizontal concatenation [B1 | B2 | ...]; all blocks share the row count."""
    blocks = list(blocks)
    rows = blocks[0].rows
    if any(b.rows != rows for b in blocks):
        raise ShapeMismatch("row counts differ")
    out_rows = []
    for i in range(rows):
        row: list[FpPoly] = []
        for b in blocks:
            row.extend(b.row(i))
        out_rows.append(row)
    return PolyMatrix.from_rows(field, out_rows) if rows else PolyMatrix.zeros(
        field, 0, sum(b.cols for b in blocks))
