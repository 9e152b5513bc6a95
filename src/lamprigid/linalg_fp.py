"""Dense linear algebra mod p on small matrices (lists of int rows).

Everything here operates on plain Python lists; dimensions stay in the dozens,
so clarity beats vectorization. Matrices act on column vectors: (A @ v)[i] =
sum_j A[i][j] * v[j].
"""

from __future__ import annotations

from typing import Sequence

Matrix = list[list[int]]
Vector = list[int]


def identity(d: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(d)] for i in range(d)]


def mat_vec(a: Sequence[Sequence[int]], v: Sequence[int], p: int) -> Vector:
    return [sum(ai * vi for ai, vi in zip(row, v)) % p for row in a]


def mat_mul(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]], p: int) -> Matrix:
    cols = len(b[0]) if b else 0
    return [
        [sum(row[k] * b[k][j] for k in range(len(b))) % p for j in range(cols)]
        for row in a
    ]


def mat_pow(a: Sequence[Sequence[int]], k: int, p: int) -> Matrix:
    d = len(a)
    out = identity(d)
    base = [list(r) for r in a]
    while k:
        if k & 1:
            out = mat_mul(out, base, p)
        base = mat_mul(base, base, p)
        k >>= 1
    return out


def rref(rows: Sequence[Sequence[int]], p: int) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form; returns (nonzero rows, pivot column indices)."""
    work = [list(r) for r in rows]
    if not work:
        return [], []
    cols = len(work[0])
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        pivot_row = None
        for i in range(r, len(work)):
            if work[i][c] % p:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        work[r], work[pivot_row] = work[pivot_row], work[r]
        inv = pow(work[r][c], -1, p)
        work[r] = [(e * inv) % p for e in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c] % p:
                f = work[i][c]
                work[i] = [(e - f * g) % p for e, g in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
        if r == len(work):
            break
    return work[:r], pivots

