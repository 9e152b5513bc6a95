"""Matrices over F_p[x] and Smith normal form with unimodular transform certificates.

The normal form routine follows the classical Euclidean strategy: pick a
nonzero entry of minimal degree as pivot, clear its row and column by division
steps (remainders strictly drop the minimal degree, so this terminates), then
repair the divisibility chain with extended-gcd 2x2 block transforms on
adjacent diagonal pairs. Every decomposition re-verifies U*M*V = D, the
unimodularity of U and V, and the chain d_i | d_{i+1} at construction time, so
a returned value is a certificate, not just an answer.

Products and the elimination run on coefficient arrays C[i, j, e], the
coefficient of x^e in entry (i, j): int64 while no intermediate sum can reach
2^63, Python integers beyond. Elimination clears a pivot's column, then its
row, in one batched update each, as one row or column at a time would.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

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

    @classmethod
    def from_coeffs(cls, field: FieldSpec, coeffs: np.ndarray) -> "PolyMatrix":
        """Unpack C[i, j, e], the coefficient of x^e in entry (i, j)."""
        rows, cols, width = coeffs.shape
        poly = functools.cache(lambda e: FpPoly(field, e))  # equal entries share one FpPoly
        return cls(field, rows, cols, tuple(map(poly, map(tuple, coeffs.reshape(-1, width).tolist()))))

    def to_coeffs(self, dtype=None) -> np.ndarray:
        """Pack as C[i, j, e], the coefficient of x^e in entry (i, j), of width one more
        than the largest degree; int64 by default where residue products fit, else object."""
        width = max([1] + [len(e.coeffs) for e in self.entries])
        out = np.zeros((self.rows * self.cols, width), dtype=dtype or _exact_dtype(self.field.p, 1))
        for k, e in enumerate(self.entries):
            out[k, :len(e.coeffs)] = e.coeffs
        return out.reshape(self.rows, self.cols, width)

    def entry(self, i: int, j: int) -> FpPoly:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[FpPoly, ...]:
        return self.entries[i * self.cols:(i + 1) * self.cols]

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


def _exact_dtype(p: int, terms: int):
    """int64 while a residue plus `terms` products of residues stays below 2^63, else object."""
    return np.int64 if terms * (p - 1) ** 2 + p < 2 ** 63 else object


def _mul_sums(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """Product of coefficient arrays a[i, k, e] and b[k, j, f], not yet reduced mod p:
    one numpy matrix product per degree slice of a. An output coefficient sums at
    most cols(a) * min(widths) products, which fixes the exact dtype."""
    (rows, inner, wa), (_, cols, wb) = a.shape, b.shape
    dtype = _exact_dtype(p, inner * min(wa, wb))
    a, flat = a.astype(dtype, copy=False), b.astype(dtype, copy=False).reshape(inner, cols * wb)
    out = np.zeros((rows, cols, wa + wb - 1), dtype=dtype)
    for e in range(wa):
        out[:, :, e:e + wb] += (a[:, :, e] @ flat).reshape(rows, cols, wb)
    return out


def matrix_mul(a: PolyMatrix, b: PolyMatrix) -> PolyMatrix:
    """Exact matrix product, computed on coefficient arrays."""
    if a.field != b.field:
        raise FieldMismatch("mixed fields in matrix product")
    if a.cols != b.rows:
        raise ShapeMismatch(f"cannot multiply {a.rows}x{a.cols} by {b.rows}x{b.cols}")
    return PolyMatrix.from_coeffs(a.field, _mul_sums(a.to_coeffs(), b.to_coeffs(), a.field.p) % a.field.p)


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


def _sub_rows(grid: np.ndarray, targets, q: np.ndarray, sources, p: int) -> np.ndarray:
    """grid, widened as needed, with rows targets minus q * rows sources (read first)."""
    delta = _mul_sums(q, grid[sources], p)
    extra = delta.shape[2] - grid.shape[2]
    grid = grid.astype(delta.dtype, copy=False)
    if extra > 0:
        grid = np.concatenate([grid, np.zeros(grid.shape[:2] + (extra,), grid.dtype)], axis=2)
    grid[targets, :, :delta.shape[2]] -= delta
    grid[targets] %= p
    return grid


class _Worker:
    """Elimination on the coefficient array g of [[M, I], [I, 0]]. Row operations
    on the first R rows multiply [M | I] on the left, column operations on the
    first C columns multiply [M ; I] on the right, so g stays [[U M V, U], [V, 0]].
    A column operation is a row operation on the transpose of g."""

    def __init__(self, m: PolyMatrix):
        self.field, self.R, self.C = m.field, m.rows, m.cols
        a = m.to_coeffs()
        self.g = np.zeros((m.rows + m.cols, m.cols + m.rows, a.shape[2]), dtype=a.dtype)
        self.g[:m.rows, :m.cols] = a
        self.g[:m.rows, m.cols:, 0] = np.eye(m.rows, dtype=a.dtype)
        self.g[m.rows:, :m.cols, 0] = np.eye(m.cols, dtype=a.dtype)

    def poly(self, coeffs: np.ndarray) -> FpPoly:
        return FpPoly(self.field, tuple(coeffs.tolist()))

    def view(self, cols: bool) -> np.ndarray:
        return self.g.transpose(1, 0, 2) if cols else self.g

    def swap(self, cols: bool, i: int, j: int) -> None:
        view = self.view(cols)
        view[[i, j]] = view[[j, i]]

    def sub(self, cols: bool, targets, q: Sequence[Sequence[FpPoly]], sources) -> None:
        """Rows (or columns) targets -= q * rows (or columns) sources."""
        qc = PolyMatrix.from_rows(self.field, q).to_coeffs()
        g = _sub_rows(self.view(cols), targets, qc, sources, self.field.p)
        self.g = g.transpose(1, 0, 2) if cols else g

    def clear(self, cols: bool, t: int, piv: FpPoly) -> bool:
        """Reduce the entries after the pivot in its column (or row) of M mod piv in
        one batched update; True if a remainder is nonzero."""
        zero, end = FpPoly.zero(self.field), self.C if cols else self.R
        line = self.view(cols)[t + 1:end, t]
        qr = [poly_divmod(self.poly(e), piv) if nonzero else (zero, zero)
              for e, nonzero in zip(line, line.any(axis=1))]
        if any(q for q, _ in qr):
            self.sub(cols, slice(t + 1, end), [[q] for q, _ in qr], [t])
        return any(r for _, r in qr)

    def pivot(self, t: int) -> tuple[int, int] | None:
        """Nonzero entry of minimal degree in the trailing submatrix, lowest (row, col) on ties."""
        block = self.g[t:self.R, t:self.C]
        top = ((block != 0) * np.arange(1, block.shape[2] + 1)).max(axis=2, initial=0)  # degree + 1
        if not top.any():
            return None
        i, j = np.unravel_index(np.argmin(np.where(top > 0, top, top.max() + 1)), top.shape)
        return t + int(i), t + int(j)

    def diagonalize(self) -> None:
        """Euclidean elimination. Clearing the pivot's column subtracts multiples
        of the pivot row from the rows below it and never writes the pivot row, so
        every quotient can be read before the first update and the whole column is
        cleared in one batched update, with the same result as one row at a time.
        The pivot column is then fixed in the same way while the row is cleared."""
        t = 0
        while t < min(self.R, self.C):
            pos = self.pivot(t)
            if pos is None:
                break
            while True:
                self.swap(False, t, pos[0])
                self.swap(True, t, pos[1])
                piv = self.poly(self.g[t, t])
                dirty = [self.clear(cols, t, piv) for cols in (False, True)]  # column, then row
                # drop the all-zero top degree slices
                self.g = self.g[..., :1 + max(np.flatnonzero(self.g.any(axis=(0, 1))), default=0)]
                if not any(dirty):
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
                a, b = self.poly(self.g[i, i]), self.poly(self.g[i + 1, i + 1])
                if a.is_zero and not b.is_zero:
                    self.swap(False, i, i + 1)
                    self.swap(True, i, i + 1)
                    changed = True
                    continue
                if a.is_zero or b.is_zero or a.divides(b):
                    continue
                g, u, v = poly_gcd_ext(a, b)
                # [[a,0],[0,b]] -> [[g,0],[0,ab/g]]: col_i += col_(i+1), then rows i, i+1
                # times [[u, v], [-b/g, a/g]], then col_(i+1) -= (vb/g) col_i
                self.sub(True, [i], [[-one]], [i + 1])
                self.sub(False, [i, i + 1], [[one - u, -v], [b // g, one - a // g]], [i, i + 1])
                self.sub(True, [i + 1], [[(v * b) // g]], [i])
                changed = True

    def normalize_monic(self) -> None:
        for i in range(min(self.R, self.C)):
            lead = self.poly(self.g[i, i]).leading_coefficient  # 0 for a zero entry
            if lead > 1:  # row i of [M | I] times 1/lead; residue products fit the dtype
                self.g[i] = self.g[i] * self.field.inv(lead) % self.field.p


def smith_normal_form(m: PolyMatrix) -> SmithDecomposition:
    """Diagonalize m over F_p[x] with certified unimodular transforms.

    diag is the unique monic invariant-factor sequence of m, zeros last.
    """
    w = _Worker(m)
    w.diagonalize()
    w.repair_chain()
    w.normalize_monic()
    R, C = m.rows, m.cols
    d, u, v = (PolyMatrix.from_coeffs(m.field, c)
               for c in (w.g[:R, :C], w.g[:R, C:], w.g[R:, :C]))
    diag = tuple(d.entry(i, i) for i in range(min(m.rows, m.cols)))
    return SmithDecomposition(source=m, u=u, d=d, v=v, diag=diag)


def stack_columns(field: FieldSpec, blocks: Iterable[PolyMatrix]) -> PolyMatrix:
    """Horizontal concatenation [B1 | B2 | ...]; all blocks share the row count."""
    blocks = list(blocks)
    rows = blocks[0].rows
    if any(b.rows != rows for b in blocks):
        raise ShapeMismatch("row counts differ")
    return PolyMatrix(field, rows, sum(b.cols for b in blocks),
                      tuple(e for i in range(rows) for b in blocks for e in b.row(i)))
