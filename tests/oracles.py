"""Independent brute-force oracles used to cross-check the library.

Everything here deliberately avoids the code paths it checks: divisor searches
are exhaustive coefficient enumerations, invariant factors come from gcds of
explicitly enumerated minors, residue counting walks the actual quotient
module, and the small-group catalog is built from first-principles tables.
Extension tables are filled one (row residue, column residue) block at a time,
group laws are checked one pair at a time, element orders modulo a subgroup
advance one power at a time and twist classes are covered one coset at a time.
The lattice route to bounded quotient sets reaches every quotient as G / K
over normal subgroups K, not as a cyclic extension as the library does.
"""

from __future__ import annotations

import random
from itertools import combinations, permutations, product
from typing import Sequence

import numpy as np

from lamprigid import (
    FieldSpec,
    FiniteGroupTable,
    FpPoly,
    LaurentPoly,
    ModulePresentation,
    PolyMatrix,
    decompose,
    determinant,
    laurent_canonicalize,
    poly_divmod,
    poly_gcd,
    poly_gcd_ext,
    x_pow_minus_one,
)
from lamprigid.errors import AlgebraError
from lamprigid.laurent_modules import block_companion
from lamprigid.quotients import (
    QuComparison,
    QuSet,
    _dominated_chains,
    _vector_grid,
    cyclic_table,
    direct_product_table,
    enumerate_normal_subgroups,
    isomorphic,
    quotient_table,
    semidirect_table,
    subgroup_closure,
    truncated_qu,
)
from lamprigid.wreath import (
    LAW_CHUNK,
    Batch,
    GeneratorImages,
    LamplighterSpec,
    VerifiedGroupEpi,
    WreathElement,
    element,
)

CandidateElement = tuple[tuple[LaurentPoly, ...], int]
"""Element (a, k) of the candidate group, a given by generator coefficients."""


def all_polys(field: FieldSpec, max_deg: int):
    """Every polynomial of degree <= max_deg (including zero)."""
    p = field.p
    for coeffs in product(range(p), repeat=max_deg + 1):
        yield FpPoly(field, coeffs)


def monic_polys(field: FieldSpec, deg: int):
    for tail in product(range(field.p), repeat=deg):
        yield FpPoly(field, tuple(tail) + (1,))


def brute_monic_divisors(f: FpPoly) -> list[FpPoly]:
    """All monic divisors of f, by trying every monic polynomial up to deg f."""
    assert not f.is_zero
    out = []
    for d in range(int(f.degree) + 1):
        for g in monic_polys(f.field, d):
            if g.divides(f):
                out.append(g)
    return out


def random_poly(rng: random.Random, field: FieldSpec, max_deg: int) -> FpPoly:
    deg = rng.randint(-1, max_deg)
    if deg < 0:
        return FpPoly.zero(field)
    coeffs = [rng.randrange(field.p) for _ in range(deg)] + [rng.randrange(1, field.p)]
    return FpPoly(field, tuple(coeffs))


def entries_matrix(field: FieldSpec, rows: int, cols: int, entries) -> PolyMatrix:
    """The PolyMatrix of row-major FpPoly entries, of any shape, 0 x k and k x 0 too."""
    return PolyMatrix.from_terms(field, rows, cols, [
        (k // cols, k % cols, e, c) for k, f in enumerate(entries) for e, c in enumerate(f.coeffs)])


def random_matrix(rng: random.Random, field: FieldSpec, rows: int, cols: int,
                  max_deg: int) -> PolyMatrix:
    return entries_matrix(field, rows, cols,
                          [random_poly(rng, field, max_deg) for _ in range(rows * cols)])


def leibniz_determinant(m: PolyMatrix) -> FpPoly:
    """Determinant as the signed sum over all permutations (Leibniz formula)."""
    n = m.rows
    total = FpPoly.zero(m.field)
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i, j in combinations(range(n), 2))
        term = FpPoly.one(m.field)
        for i in range(n):
            term = term * m.entry(i, perm[i])
        total = total - term if inversions % 2 else total + term
    return total


def determinantal_divisor_diag(m: PolyMatrix) -> list[FpPoly]:
    """Invariant factors from gcds of k x k minors, enumerated exhaustively."""
    k_max = min(m.rows, m.cols)
    field = m.field
    out: list[FpPoly] = []
    prev = FpPoly.one(field)
    for k in range(1, k_max + 1):
        gcd_k = FpPoly.zero(field)
        for rows in combinations(range(m.rows), k):
            for cols in combinations(range(m.cols), k):
                sub = PolyMatrix.from_rows(
                    field, [[m.entry(i, j) for j in cols] for i in rows])
                minor = determinant(sub)
                if minor.is_zero:
                    continue
                if gcd_k.is_zero:
                    gcd_k = minor.monic()
                else:
                    from lamprigid import poly_gcd
                    gcd_k = poly_gcd(gcd_k, minor)
        if gcd_k.is_zero:
            out.extend(FpPoly.zero(field) for _ in range(k_max - len(out)))
            break
        q, r = poly_divmod(gcd_k, prev)
        assert r.is_zero, "determinantal divisors do not divide each other"
        out.append(q.monic())
        prev = gcd_k
    return out


# --- Smith normal form on FpPoly entries ------------------------------------
# The list-of-FpPoly elimination and matrix product that the coefficient-array
# code of lamprigid.polymatrix replaced, one polynomial operation at a time.

def list_matrix_mul(a: PolyMatrix, b: PolyMatrix) -> PolyMatrix:
    """Exact matrix product, one FpPoly entry at a time."""
    if a.field != b.field:
        raise AlgebraError("mixed fields in matrix product")
    if a.cols != b.rows:
        raise AlgebraError(f"cannot multiply {a.rows}x{a.cols} by {b.rows}x{b.cols}")
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
    return entries_matrix(a.field, a.rows, b.cols, out)


class FpPolyWorker:
    """Mutable elimination state accumulating the transforms eagerly, on FpPoly entries."""

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


def fppoly_smith(m: PolyMatrix) -> tuple[PolyMatrix, PolyMatrix, PolyMatrix]:
    """(U, D, V) of the FpPoly elimination, without the certificate."""
    w = FpPolyWorker(m)
    w.diagonalize()
    w.repair_chain()
    w.normalize_monic()
    field = m.field
    d = PolyMatrix.from_rows(field, w.a) if m.rows else PolyMatrix.zeros(field, 0, m.cols)
    u = PolyMatrix.from_rows(field, w.u) if m.rows else PolyMatrix.identity(field, 0)
    v = PolyMatrix.from_rows(field, w.v) if m.cols else PolyMatrix.identity(field, 0)
    return u, d, v


_RESIDUE_GRIDS: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}


def _residue_grid(p: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    got = _RESIDUE_GRIDS.get((p, d))
    if got is None:
        count = p ** d
        vecs = np.zeros((count, d), dtype=np.min_scalar_type(p * p))  # holds (p-1)^2 + p-1
        for j in range(d):
            vecs[:, j] = (np.arange(count) // (p ** j)) % p
        radix = p ** np.arange(d, dtype=np.int64)
        got = (vecs, radix)
        _RESIDUE_GRIDS[(p, d)] = got
    return got


def verified_residue_count(f: FpPoly) -> int:
    """Count the residues of the Laurent ring mod f by explicit enumeration.

    Representatives are all polynomials of degree < deg f. The x-action
    (companion matrix) is checked to be a bijection on them, which also
    certifies closure under x^(-1); positive powers of x computed by repeated
    action are cross-checked against direct division.
    """
    assert not f.is_zero and f.constant_term != 0
    p = f.field.p
    d = int(f.degree)
    if d == 0:
        return 1
    comp = np.zeros((d, d), dtype=np.int64)
    for j in range(d - 1):
        comp[j + 1, j] = 1
    for i in range(d):
        comp[i, d - 1] = (-f.coefficient(i)) % p
    count = p ** d
    vecs, radix = _residue_grid(p, d)
    # comp moves coordinate i to i + 1 and adds the last coordinate times its
    # last column: every residue's image without an int64 matrix product
    image_vecs = vecs[:, -1:] * comp[:, -1].astype(vecs.dtype)
    image_vecs[:, 1:] += vecs[:, :-1]
    image_vecs %= p
    images = image_vecs @ radix
    # count images in 0..count-1: every residue is hit iff the action is a bijection
    assert np.bincount(images, minlength=count).all(), "x-action is not a bijection on residues"
    vec = np.zeros(d, dtype=np.int64)
    vec[0] = 1
    for i in range(1, 2 * d + 1):
        vec = comp @ vec % p
        direct = poly_divmod(FpPoly(f.field, (0,) * i + (1,)), f)[1]
        assert list(vec) == [direct.coefficient(j) for j in range(d)], \
            "iterated x-action disagrees with direct reduction"
    return count


# --- small-group catalog (orders 1..8, complete up to isomorphism) ------------

def _s3_table() -> FiniteGroupTable:
    perms = sorted(product(range(3), repeat=3))
    perms = [p for p in perms if sorted(p) == [0, 1, 2]]
    index = {p: i for i, p in enumerate(perms)}
    mul = np.zeros((6, 6), dtype=np.int32)
    for a in perms:
        for b in perms:
            composed = tuple(a[b[i]] for i in range(3))
            mul[index[a], index[b]] = index[composed]
    return FiniteGroupTable.build(mul)


def _q8_table() -> FiniteGroupTable:
    # basis symbols e, i, j, k with sign; index = symbol * 2 + (sign < 0)
    rules = {
        ("e", "e"): (1, "e"), ("e", "i"): (1, "i"), ("e", "j"): (1, "j"), ("e", "k"): (1, "k"),
        ("i", "e"): (1, "i"), ("j", "e"): (1, "j"), ("k", "e"): (1, "k"),
        ("i", "i"): (-1, "e"), ("j", "j"): (-1, "e"), ("k", "k"): (-1, "e"),
        ("i", "j"): (1, "k"), ("j", "k"): (1, "i"), ("k", "i"): (1, "j"),
        ("j", "i"): (-1, "k"), ("k", "j"): (-1, "i"), ("i", "k"): (-1, "j"),
    }
    symbols = ["e", "i", "j", "k"]
    mul = np.zeros((8, 8), dtype=np.int32)
    for si, a in enumerate(symbols):
        for sa in (1, -1):
            for sj, b in enumerate(symbols):
                for sb in (1, -1):
                    sign, sym = rules[(a, b)]
                    sign *= sa * sb
                    ia = si * 2 + (sa < 0)
                    ib = sj * 2 + (sb < 0)
                    mul[ia, ib] = symbols.index(sym) * 2 + (sign < 0)
    return FiniteGroupTable.build(mul)


def _d4_table() -> FiniteGroupTable:
    return semidirect_table(FieldSpec(2), [[0, 1], [1, 0]], 2)


def small_group_catalog() -> list[tuple[str, FiniteGroupTable]]:
    """All groups of order <= 8 up to isomorphism (14 classes)."""
    c = cyclic_table
    return [
        ("C1", c(1)),
        ("C2", c(2)),
        ("C3", c(3)),
        ("C4", c(4)),
        ("C2xC2", direct_product_table(c(2), c(2))),
        ("C5", c(5)),
        ("C6", c(6)),
        ("S3", _s3_table()),
        ("C7", c(7)),
        ("C8", c(8)),
        ("C4xC2", direct_product_table(c(4), c(2))),
        ("C2xC2xC2", direct_product_table(direct_product_table(c(2), c(2)), c(2))),
        ("D4", _d4_table()),
        ("Q8", _q8_table()),
    ]


def associative_by_cube(mul: np.ndarray) -> bool:
    """(a b) c == a (b c) for every triple, one row a at a time."""
    mul = np.asarray(mul)
    return all(np.array_equal(mul[mul[a]], mul[a][mul]) for a in range(len(mul)))


def element_orders_by_powers(table: FiniteGroupTable) -> list[int]:
    """The order of each element, by multiplying it by itself until the identity."""
    orders = []
    for g in range(table.order):
        k, x = 1, g
        while x != table.identity:
            x = int(table.mul[x, g])
            k += 1
        orders.append(k)
    return orders


def abelian_invariants_by_quotients(table: FiniteGroupTable) -> tuple[int, ...]:
    """Invariant factors d_1 | ... | d_k of G/G', through explicit quotient tables.

    G/G' is built as a coset table; then an element of largest order spans a
    direct summand, so its order is the largest factor and the rest are the
    factors of the quotient table by its cyclic subgroup, found recursively.
    """
    commutators = {int(table.mul[table.mul[table.mul[a, b], table.inverse[a]],
                                 table.inverse[b]])
                   for a in range(table.order) for b in range(table.order)}
    derived = subgroup_closure(table, sorted(commutators))
    return _abelian_factors(quotient_table(table, frozenset(int(x) for x in derived)))


def _abelian_factors(table: FiniteGroupTable) -> tuple[int, ...]:
    if table.order == 1:
        return ()
    orders = element_orders_by_powers(table)
    exponent = max(orders)
    pick = orders.index(exponent)
    cyclic = {table.identity}
    x = int(table.mul[table.identity, pick])
    while x != table.identity:
        cyclic.add(x)
        x = int(table.mul[x, pick])
    return _abelian_factors(quotient_table(table, frozenset(cyclic))) + (exponent,)


def all_subgroups(table: FiniteGroupTable) -> list[frozenset[int]]:
    """Exhaustive subgroup enumeration by closing extensions one element at a time."""
    trivial = frozenset({table.identity})
    found = {trivial}
    frontier = [trivial]
    while frontier:
        sub = frontier.pop()
        for g in range(table.order):
            if g in sub:
                continue
            bigger = frozenset(int(x) for x in subgroup_closure(table, sorted(sub | {g})))
            if bigger not in found:
                found.add(bigger)
                frontier.append(bigger)
    return sorted(found, key=lambda s: (len(s), sorted(s)))


def brute_normal_subgroups(table: FiniteGroupTable) -> list[frozenset[int]]:
    out = []
    for sub in all_subgroups(table):
        members = np.array(sorted(sub), dtype=np.int64)
        conj_ok = True
        for h in range(table.order):
            conj = table.mul[table.mul[h, members], table.inverse[h]]
            if not set(int(x) for x in conj) <= sub:
                conj_ok = False
                break
        if conj_ok:
            out.append(sub)
    return out


# --- group tables one block at a time, group laws one pair at a time -----------

def semidirect_table_by_blocks(field: FieldSpec, action: list[list[int]], m: int,
                               twist: Sequence[int] | None = None) -> FiniteGroupTable:
    """Table of the cyclic extension of Z/mZ by F_p^d with t acting by A = action
    and t^m = a = twist:

        (v, i)(w, j) = (v + A^i w + [i + j >= m] a, (i + j) mod m).

    This is a group iff A^m = I and A a = a; both are checked. The zero twist
    (the default) gives the split product F_p^d x| Z/mZ.

    Elements are encoded in mixed radix as index = vector_index * m + residue,
    with vector_index = sum_i v_i p^i.
    """
    p = field.p
    d = len(action)
    count = p ** d
    order = count * m
    a_np = np.array(action, dtype=np.int64).reshape(d, d)
    twist_np = np.array([0] * d if twist is None else twist, dtype=np.int64) % p
    if twist_np.shape != (d,):
        raise ValueError(f"twist has length {twist_np.size}, expected {d}")
    if not np.array_equal(a_np @ twist_np % p, twist_np):
        raise ValueError("twist is not fixed by the action")
    vecs, radix = _vector_grid(p, d)
    act_idx = np.zeros((m, count), dtype=np.int64)
    power = np.eye(d, dtype=np.int64)
    for k in range(m):
        act_idx[k] = (vecs @ power.T % p) @ radix
        power = power @ a_np % p
    if not np.array_equal(power, np.eye(d, dtype=np.int64)):
        raise ValueError(f"action does not have order dividing {m}")
    wrap = ((vecs + twist_np) % p) @ radix
    table = np.zeros((order, order), dtype=np.int32)
    sum_idx = np.zeros((count, count), dtype=np.int64)
    if d:
        chunk = max(1, (1 << 22) // (count * d))
        for start in range(0, count, chunk):
            end = min(start + chunk, count)
            sum_idx[start:end] = ((vecs[start:end, None, :] + vecs[None, :, :]) % p) @ radix
    cosets = np.arange(count) * m
    for k in range(m):
        block = sum_idx[:, act_idx[k]]  # block[i, j] = index(vec_i + A^k vec_j)
        wrapped = wrap[block]           # the same plus the twist a
        for l in range(m):
            part = wrapped if k + l >= m else block
            table[(cosets + k)[:, None], (cosets + l)[None, :]] = part * m + (k + l) % m
    return FiniteGroupTable.build(table)


def orders_modulo_by_iteration(table: FiniteGroupTable, member: np.ndarray) -> np.ndarray:
    """Least k >= 1 with g^k in the subgroup with mask member, for every g:
    all powers advance by one multiplication per k."""
    everyone = np.arange(table.order)
    orders = np.zeros(table.order, dtype=np.int64)
    power, k = everyone, 1
    while not orders.all():
        orders[(orders == 0) & member[power]] = k
        power, k = table.mul[power, everyone], k + 1
    orders.flags.writeable = False
    return orders


def generators_by_closure(table: FiniteGroupTable) -> tuple[int, ...]:
    """Each the least element outside the subgroup the earlier ones generate,
    the subgroup taken by product closure instead of Light's right-multiplication walk."""
    gens: list[int] = []
    while True:
        inside = np.zeros(table.order, dtype=bool)
        inside[subgroup_closure(table, gens)] = True
        if inside.all():
            return tuple(gens)
        gens.append(int(np.argmin(inside)))


def twist_classes_by_cover(field: FieldSpec, action: list[list[int]], m: int
                           ) -> list[tuple[int, ...]]:
    """One twist from each class of H^2(C_m, M) = M^x / N_m M, N_m = 1 + A + ... + A^(m-1):
    the fixed vectors in index order, each one not yet covered starting a class
    and covering its coset of the norm image."""
    p = field.p
    d = len(action)
    vecs, radix = _vector_grid(p, d)
    a_np = np.array(action, dtype=np.int64).reshape(d, d)
    norm = np.zeros((d, d), dtype=np.int64)
    power = np.eye(d, dtype=np.int64)
    for _ in range(m):
        norm = (norm + power) % p
        power = power @ a_np % p
    fixed = np.flatnonzero((vecs @ a_np.T % p == vecs).all(axis=1))
    norm_image = vecs[np.unique(vecs @ norm.T % p @ radix)]
    covered = np.zeros(len(vecs), dtype=bool)
    reps = []
    for k in fixed:
        if not covered[k]:
            reps.append(tuple(int(a) for a in vecs[k]))
            covered[((vecs[k] + norm_image) % p) @ radix] = True
    return reps


def respects_law_by_dicts(g_table: FiniteGroupTable, h_table: FiniteGroupTable,
                          mapping: dict[int, int]) -> bool:
    """f(ab) = f(a) f(b) for every pair a, b in the domain of f = mapping, one
    pair at a time; a product outside the domain fails."""
    for a, fa in mapping.items():
        for b, fb in mapping.items():
            if mapping.get(int(g_table.mul[a, b])) != int(h_table.mul[fa, fb]):
                return False
    return True


# --- bounded quotient sets through normal-subgroup lattices -------------------

def _keep_new_class(kept: list[FiniteGroupTable], table: FiniteGroupTable) -> bool:
    """Append table to kept unless an isomorphic table is already there."""
    if any(isomorphic(table, other) for other in kept):
        return False
    kept.append(table)
    return True


def small_divisors_by_trial_division(modulus: FpPoly, max_degree: int) -> list[FpPoly]:
    """Monic divisors of the modulus with degree in 1..max_degree, sorted by
    (degree, coeffs), by trial division of every monic polynomial."""
    field = modulus.field
    out = []
    for deg in range(1, max_degree + 1):
        for tail in product(range(field.p), repeat=deg):
            h = FpPoly(field, tuple(tail) + (1,))
            if h.divides(modulus):
                out.append(h)
    out.sort(key=lambda h: (h.degree, h.coeffs))
    return out


def orders_of_x_by_powers(field: FieldSpec, max_degree: int) -> list[tuple[FpPoly, int]]:
    """Each monic h with degree in 1..max_degree and h(0) != 0, sorted by
    (degree, coeffs), with the order of x mod h: the least k >= 1 with
    x^k = 1 mod h, walking x, x^2, ... in FpPoly arithmetic."""
    x, one, out = FpPoly(field, (0, 1)), FpPoly.one(field), []
    for deg in range(1, max_degree + 1):
        for tail in product(range(1, field.p), *[range(field.p)] * (deg - 1)):
            h = FpPoly(field, tail + (1,))
            power, order = x % h, 1
            while power != one:
                power, order = (power * x) % h, order + 1
            out.append((h, order))
    out.sort(key=lambda entry: (entry[0].degree, entry[0].coeffs))
    return out


def lattice_qu(source, bound: int) -> QuSet:
    """Bounded quotient set of N x| Z by searching normal-subgroup lattices.

    A quotient in which the translation image has order m factors through the
    truncation at m, so m ranges over 1..bound. For each m, the kernel meets
    the base in a submodule whose quotient module has dimension at most
    log_p(bound); those quotient modules are enumerated as dominated divisor
    chains of x^m - 1 and each resulting small semidirect product is searched
    through its full normal-subgroup lattice. Shares only the module
    enumeration with truncated_qu; the groups themselves come from kernels
    rather than from cyclic extensions, and the classes are kept by pairwise
    isomorphism tests rather than by the library's classifier. An integer-base
    lamp group enters as a free presentation of R^n.
    """
    pres = (ModulePresentation.free(source.field, source.n)
            if isinstance(source, LamplighterSpec) else source)
    field = pres.field
    p = field.p
    dec = decompose(pres)
    cmax = 0
    while p ** (cmax + 1) <= bound:
        cmax += 1
    kept: list[FiniteGroupTable] = []
    for m in range(1, bound + 1):
        xm1 = x_pow_minus_one(field, m)
        base_chain = [g for g in (poly_gcd(f, xm1) for f in dec.invariant_factors)
                      if g.degree >= 1]
        base_chain.extend([xm1] * dec.free_rank)
        divisors = small_divisors_by_trial_division(xm1, min(cmax, m))
        seen_modules: list[FiniteGroupTable] = []
        for chain in _dominated_chains(base_chain, divisors, cmax, {}):
            table = semidirect_table(field, block_companion(chain), m)
            if not _keep_new_class(seen_modules, table):
                continue
            for normal in enumerate_normal_subgroups(table):
                if table.order // len(normal) <= bound:
                    _keep_new_class(kept, quotient_table(table, normal))
    kept.sort(key=lambda t: t.fingerprint.key())
    return QuSet(bound=bound, classes=tuple(kept))


def two_sided_compare_qu(left, right, bound: int) -> QuComparison:
    """compare_qu as two separate truncated_qu calls whose classes are matched
    across the sides by isomorphism tests, with no classification shared."""
    lset = truncated_qu(left, bound)
    rset = truncated_qu(right, bound)

    def missing_from(src: QuSet, dst: QuSet) -> list:
        return [table.fingerprint for table in src.classes
                if not any(table.fingerprint == other.fingerprint and isomorphic(table, other)
                           for other in dst.classes)]

    left_only = missing_from(lset, rset)
    right_only = missing_from(rset, lset)
    candidates = ([("left", fp) for fp in left_only]
                  + [("right", fp) for fp in right_only])
    return QuComparison(
        bound=bound,
        equal=not candidates,
        left_fingerprints=lset.fingerprints,
        right_fingerprints=rset.fingerprints,
        left_only=tuple(left_only),
        right_only=tuple(right_only),
        witness=min(candidates, key=lambda t: t[1].key()) if candidates else None,
    )


def trial_division_is_prime(n: int) -> bool:
    """Primality by trial division up to sqrt(n)."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


# --- the homomorphism law, one pair at a time, in LaurentPoly arithmetic --------

def law_pairs(field: FieldSpec, generators: int, samples: int, seed: int
              ) -> list[tuple[CandidateElement, CandidateElement]]:
    """The seeded pairs (a, b) the law check draws, as LaurentPoly coefficients.

    A scalar reading of the documented layout: for each batch of LAW_CHUNK
    pairs, drawn a_1, b_1, a_2, ..., one randbytes call holds, for each
    coefficient of exponent -2..3, a little-endian integer of as many bytes as
    p - 1 takes, reduced mod p; then one bit per coefficient, least
    significant bit of each byte first, keeping it when set; then a byte per
    element giving k = byte mod 7 - 3.
    """
    rng = random.Random(seed)
    p = field.p
    width = max(1, ((p - 1).bit_length() + 7) // 8)
    elements: list[CandidateElement] = []
    for start in range(0, samples, LAW_CHUNK):
        count = 2 * min(LAW_CHUNK, samples - start)
        size = count * generators * 6
        flags = (size + 7) // 8
        data = rng.randbytes(size * width + flags + count)
        for e in range(count):
            coeffs = []
            for j in range(generators):
                terms = []
                for col in range(6):
                    i = (e * generators + j) * 6 + col
                    value = int.from_bytes(data[width * i:width * (i + 1)], "little")
                    if data[size * width + i // 8] >> (i % 8) & 1:
                        terms.append((col - 2, value % p))
                coeffs.append(laurent_canonicalize(field, terms))
            elements.append((tuple(coeffs), data[size * width + flags + e] % 7 - 3))
    return list(zip(elements[0::2], elements[1::2]))


def laurent_candidate_mul(a: CandidateElement, b: CandidateElement) -> CandidateElement:
    """(a, k)(a', k') = (a + x^k a', k + k') in the module semidirect product."""
    coeffs, k = a
    coeffs2, k2 = b
    field = coeffs[0].field
    xk = LaurentPoly(field, k, FpPoly.one(field))
    return tuple(c + xk * c2 for c, c2 in zip(coeffs, coeffs2)), k + k2


def laurent_evaluate(epi: VerifiedGroupEpi, elem: CandidateElement) -> WreathElement:
    """(phi(a), k), phi applied entry by entry in the Laurent ring."""
    coeffs, k = elem
    field = epi.source.field
    out = []
    for i in range(epi.phi.rows):
        acc = LaurentPoly.zero(field)
        for j in range(epi.phi.cols):
            acc = acc + LaurentPoly(field, 0, epi.phi.entry(i, j)) * coeffs[j]
        out.append(acc)
    lamps: dict[int, list[int]] = {}
    for j, f in enumerate(out):
        for e, c in f.terms():
            lamps.setdefault(e, [0] * epi.target.n)[j] = c
    return element(epi.target, lamps.items(), k)


def lamp_elements(spec: LamplighterSpec, batch: Batch) -> list[WreathElement]:
    """The lamp-group elements of a batch, as canonical WreathElements."""
    coeffs, lo, shifts = batch
    return [element(spec, [(lo + e, [int(c) for c in col]) for e, col in enumerate(row.T)],
                    int(k))
            for row, k in zip(coeffs.transpose(1, 0, 2), shifts)]


def image_of_one(epi: VerifiedGroupEpi, elem: CandidateElement) -> WreathElement:
    """(phi(a), k) read off the law check's batch computation, epi._image, on a
    batch that holds elem alone."""
    coeffs, k = elem
    terms = [(j, e, c) for j, f in enumerate(coeffs) for e, c in f.terms()]
    lo = min((e for _, e, _ in terms), default=0)
    hi = max((e for _, e, _ in terms), default=0)
    dense = np.zeros((len(coeffs), 1, hi - lo + 1), dtype=epi.phi.coeffs.dtype)
    for j, e, c in terms:
        dense[j, 0, e - lo] = c
    return lamp_elements(epi.target, epi._image((dense, lo, np.array([k]))))[0]


def bfs_surjective(gi: GeneratorImages) -> bool:
    """Whether the images generate the whole finite target, by breadth-first
    closure of the generator set under right multiplication.

    Elements are dense (lamps, shift) arrays, and the wreath law
    (L, s)(L', s') = (L + x^s L', s + s'), with (x^s L)(i) = L(i - s), is
    written out here instead of taken from lamprigid.wreath. A whole frontier
    is multiplied by each generator at once.
    """
    spec = gi.target
    p, n, m = spec.field.p, spec.n, spec.base_order
    radix = p ** np.arange(m * n, dtype=np.int64)

    def dense(w: WreathElement) -> tuple[np.ndarray, int]:
        lamps = np.zeros((m, n), dtype=np.int64)
        for i, v in w.lamps:
            lamps[i] = v
        return lamps, w.shift % m

    generators = [dense(w) for w in gi.module_gen_images + (gi.t_image,)]
    seen = np.zeros(p ** (n * m) * m, dtype=bool)
    seen[0] = True
    lamps, shifts = np.zeros((1, m, n), dtype=np.int64), np.zeros(1, dtype=np.int64)
    while len(shifts):
        grown_lamps, grown_shifts = [], []
        for g_lamps, g_shift in generators:
            translated = g_lamps[(np.arange(m)[None, :] - shifts[:, None]) % m]
            grown_lamps.append((lamps + translated) % p)
            grown_shifts.append((shifts + g_shift) % m)
        lamps, shifts = np.concatenate(grown_lamps), np.concatenate(grown_shifts)
        codes = (lamps.reshape(len(shifts), m * n) @ radix) * m + shifts
        codes, first = np.unique(codes, return_index=True)
        fresh = ~seen[codes]
        seen[codes[fresh]] = True
        lamps, shifts = lamps[first[fresh]], shifts[first[fresh]]
    return bool(seen.all())


def substitute_x_power(f: FpPoly, s: int) -> FpPoly:
    """f(x^s) for s >= 0, term by term."""
    coeffs = [0] * (s * max(len(f.coeffs) - 1, 0) + 1)
    for e, c in enumerate(f.coeffs):
        coeffs[s * e] += c
    return FpPoly(f.field, tuple(coeffs))


def lamp_polynomials(w: WreathElement) -> list[FpPoly]:
    """The n coordinate polynomials of an element's lamps in a cyclic target: the
    lamp at index i, coordinate j, is the coefficient of x^i in coordinate j."""
    coords = [[0] * w.spec.base_order for _ in range(w.spec.n)]
    for i, v in w.lamps:
        for j, c in enumerate(v):
            coords[j][i] = c
    return [FpPoly(w.spec.field, tuple(c)) for c in coords]


def relator_images(gi: GeneratorImages) -> list[list[FpPoly]]:
    """The image of each relator column in the base of the cyclic target, as its n
    coordinate polynomials: sum_k r_k(x^sigma) L_k mod x^m - 1, r_k the column's
    entry in row k, sigma the t-image's shift and L_k the lamp polynomials of
    generator k's image (the lamp at index i, coordinate j, is the coefficient of
    x^i in coordinate j). Computed entry by entry in FpPoly arithmetic, where the
    library takes one product of coefficient arrays."""
    spec, rel = gi.target, gi.source.relations
    modulus = x_pow_minus_one(spec.field, spec.base_order)
    lamps = [lamp_polynomials(w) for w in gi.module_gen_images]
    images = []
    for col in range(rel.cols):
        acc = [FpPoly.zero(spec.field)] * spec.n
        for k in range(rel.rows):
            r = substitute_x_power(rel.entry(k, col), gi.t_image.shift)
            acc = [(a + r * lamp) % modulus for a, lamp in zip(acc, lamps[k])]
        images.append(acc)
    return images


def fp_rank(vectors: list[list[int]], p: int) -> int:
    """F_p rank of a list of equal-length vectors, by Gaussian elimination."""
    rows, rank = [list(v) for v in vectors], 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col] % p), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], -1, p)
        rows[rank] = [c * inv % p for c in rows[rank]]
        for i in range(rank + 1, len(rows)):
            rows[i] = [(a - rows[i][col] * b) % p for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def truncation_dim_by_rank(pres: ModulePresentation, m: int) -> int:
    """dim over F_p of N / (x^m - 1) N with no Smith normal form: x^m = 1 there, so the
    relators span the F_p-space of the columns times x^k, k < m, reduced mod x^m - 1
    in (F_p[x]/(x^m - 1))^g, of dimension g m. Coordinate j's x^e sits at j m + e."""
    g, p, rel = pres.generators, pres.field.p, pres.relations
    vectors = []
    for col in range(rel.cols):
        for k in range(m):
            v = [0] * (g * m)
            for j in range(g):
                for e, c in enumerate(rel.entry(j, col).coeffs):
                    v[j * m + (e + k) % m] += c
            vectors.append(v)
    return g * m - fp_rank(vectors, p)
