"""Brute-force finite-group layer: explicit tables, normal subgroups, quotients,
isomorphism testing, and order-bounded quotient sets of module semidirect
products.

Tables are numpy int32 arrays. build_tables verifies the group axioms of a list
of tables (associativity by Light's test on a generating set) and reads their
invariants in one pass per batch of similar-sized tables, laid end to end in one
flat array and read by blocks of whole rows; a bound-16 comparison is one batch,
and FiniteGroupTable.build a batch of one.

The bounded quotient sets of N x| Z are built without any subgroup search.
Every finite quotient is a cyclic extension E(M, d, a): M a quotient module of
N / (x^d - 1) N, a a fixed point of x on M, and t^d = a. Up to isomorphism the
extensions of C_d by M are classified by H^2(C_d, M) = M^x / N_d M with
N_d = 1 + x + ... + x^(d-1) (K. Brown, Cohomology of Groups, IV.3). Over the
polynomial ring each M is a sum of cyclic modules F_p[x]/(h) along a divisor chain
dominated by the truncation's own invariant chain, and H^2 is read off the chain
in closed form: one line per h with 1 <= v_(x-1)(h) < p^v_p(d). So enumerating
those chains and one a per class gives one table of order p^dim(M) * d <= B per
candidate quotient. One comparison reads the divisors of each x^d - 1 off one
table of orders of x, derives each chain enumeration, divisibility test, vector
grid and module once, and classifies each extension once: the tables of the
distinct keys (p, d, chain, a) of both sides are built in one pass, then sorted
into isomorphism classes by fingerprint and isomorphism test. The fingerprint
needs no quotient table: element orders, class sizes, and the invariant factors
of A = G/G' counted from powers g^k as |A[k]| = #{g : g^k in G'} / |G'|. The
lattice search remains for tests and tools.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from itertools import product
from typing import Sequence

import numpy as np

from .errors import AlgebraError, require
from .fppoly import FieldSpec, FpPoly
from .laurent_modules import (
    FiniteTruncation,
    ModulePresentation,
    block_companion,
    decompose,
)
from .wreath import LamplighterSpec

BOUND_CAP = 16
ORDER_CAP = 4096  # size guard on tables; quotient sets need order <= BOUND_CAP only
_BLOCK_ENTRIES = 512 ** 2
_BATCH_ENTRIES = 128 ** 2  # batches save numpy calls; past this, padding costs more


@dataclass(frozen=True, eq=False)
class FiniteGroupTable:
    """Multiplication table on indices 0..order-1, verified and read by build_tables."""

    order: int
    mul: np.ndarray
    identity: int
    inverse: np.ndarray
    generators: tuple[int, ...]  # each the least element outside what the earlier ones generate
    element_orders: np.ndarray  # least k >= 1 with g^k = e
    class_sizes: np.ndarray  # |G| over the centralizer's order
    fingerprint: "QuotientFingerprint"

    @classmethod
    def build(cls, mul: np.ndarray) -> "FiniteGroupTable":
        return build_tables([mul])[0]

    def element_order(self, g: int) -> int:
        return int(self.element_orders[g])


def _generators(mul: np.ndarray, e: int) -> list[int]:
    """The generating set Light's test checks. The g with (x g) y = x (g y)
    for all x, y include e and are closed under products:
    (x (a b)) y = ((x a) b) y = (x a) (b y) = x (a (b y)) = x ((a b) y) for two
    such a, b. So it suffices to check a set S whose products reach every
    element: each least element not reached from e by right multiplication by S
    joins S (at most log2(order) times in a group)."""
    order = len(mul)
    gens, reached = [], [x == e for x in range(order)]
    for g in range(order):
        if not reached[g]:
            gens.append(g)
            products = mul[:, gens].tolist()  # products[x][i] = x g_i
            stack = [x for x in range(order) if reached[x]]
            while stack:
                for y in products[stack.pop()]:
                    if not reached[y]:
                        reached[y] = True
                        stack.append(y)
    return gens


def build_tables(muls: Sequence[np.ndarray]) -> list[FiniteGroupTable]:
    """Verify a nonempty list of tables and read their invariants, in order of
    size by batches whose rows, padded to the batch's largest order, hold at most
    _BATCH_ENTRIES entries (a larger table is a batch alone)."""
    muls = [np.ascontiguousarray(m, dtype=np.int32) for m in muls]
    for m in muls:
        require(m.ndim == 2 and m.shape[0] == m.shape[1], "table is not square")
    batches, size = [[]], 0
    for t in sorted(range(len(muls)), key=lambda t: len(muls[t])):
        if batches[-1] and (size + len(muls[t])) * len(muls[t]) > _BATCH_ENTRIES:
            batches, size = batches + [[]], 0
        batches[-1].append(t)
        size += len(muls[t])
    built = {t: table for batch in batches
             for t, table in zip(batch, _build_batch([muls[t] for t in batch]))}
    return [built[t] for t in range(len(muls))]


def _build_batch(muls: list[np.ndarray]) -> list[FiniteGroupTable]:
    """One pass over tables laid end to end: g in table t is off[t] + g globally, and
    a b is flat[base[a] + b], for a batch of one table too.
    Each check runs on every table before the next: entries in range, a unique
    identity, also on the right, unique inverses, Light's test on _generators.
    Then centralizers give class sizes, G' is the normal closure of the generators'
    commutators, and powers by doubling give the orders of each g and of g G'."""
    orders = [len(m) for m in muls]
    off, entries = np.cumsum([0] + orders), np.cumsum([0] + [n * n for n in orders])
    tab = np.repeat(np.arange(len(muls)), orders)
    eoff, en, idx = off[tab], np.array(orders)[tab], np.arange(off[-1])
    base = entries[tab] + (idx - eoff) * en - eoff
    span = np.arange(max(orders))
    flat = np.empty(entries[-1], dtype=np.int32)
    for m, o, lo, hi in zip(muls, off.tolist(), entries[:-1].tolist(), entries[1:].tolist()):
        np.add(m.reshape(-1), o, out=flat[lo:hi])

    def mul(a, b) -> np.ndarray:
        return flat[base[a] + b]

    def blocks(widths: np.ndarray):  # slices of k rows, k * max(widths) <= _BLOCK_ENTRIES or k = 1
        step = max(1, _BLOCK_ENTRIES // int(widths.max()))
        return (slice(start, start + step) for start in range(0, len(widths), step))

    def count(hits: np.ndarray, n: np.ndarray) -> np.ndarray:  # over a row's first n entries
        return hits.sum(axis=1) - (hits.shape[1] - n) * hits[:, -1]

    def rows(a) -> tuple[np.ndarray, np.ndarray]:
        """Each b of a's table and a b, padded to a's widest table by repeating the last b."""
        cols = np.minimum(eoff[a][..., None] + span[:en[a].max()], (eoff + en - 1)[a][..., None])
        return cols, flat[base[a][..., None] + cols]

    require(((np.minimum.reduceat(flat, entries[:-1]) >= off[:-1])
             & (np.maximum.reduceat(flat, entries[:-1]) < off[1:])).all(),
            "table entry out of range")
    ident = np.zeros(len(idx), dtype=bool)
    for r in blocks(en):
        ident[r] = np.equal(*rows(r)).all(axis=1)
    require((np.bincount(tab[ident], minlength=len(muls)) == 1).all(),
            "table has no unique identity")
    e = np.flatnonzero(ident)
    e_el = e[tab]
    require(np.array_equal(mul(idx, e_el), idx), "identity fails on the right")
    inverse, sizes, unique = np.empty(len(idx), np.int32), np.empty(len(idx), np.int64), True
    for r in blocks(en):  # also class sizes, used once the table is a group
        cols, ax = rows(r)
        hits = ax == e_el[r, None]
        unique &= bool((count(hits, en[r]) == 1).all())
        inverse[r] = eoff[r] + hits.argmax(axis=1)
        xa = mul(cols, idx[r, None])
        sizes[r] = en[r] // count(ax == xa, en[r])  # |G| / |C(a)|; x = a counts
    require(unique, "some element lacks a unique inverse")
    gens = [_generators(m, int(g)) for m, g in zip(muls, e - off[:-1])]
    s = max(1, *map(len, gens))  # short rows of gen_idx repeat generators, or hold e
    gen_idx = off[:-1, None] + [((gs or [int(g)]) * s)[:s] for gs, g in zip(gens, e - off[:-1])]
    for r in blocks(en * s):  # [x, i, y]: (x g_i) y, x (g_i y)
        x, g = idx[r, None], gen_idx[tab[r]]
        require(np.array_equal(rows(mul(x, g))[1], mul(x[..., None], rows(g)[1])),
                "associativity fails")
    gi, gj, member = gen_idx[:, :, None], gen_idx[:, None, :], np.zeros(len(idx), dtype=bool)
    member[mul(mul(mul(gi, gj), inverse[gi]), inverse[gj])] = True  # [g_i, g_j]
    while True:  # close under products and conjugation by generators: member becomes G'
        m = np.flatnonzero(member)
        for r in blocks(en[m]):
            cols, ax = rows(m[r])
            member[np.where(member[cols], ax, m[r, None])] = True
        g = gen_idx[tab[m]]
        member[mul(mul(g, m[:, None]), inverse[g])] = True
        if member.sum() == m.size:
            break
    powers, h = np.empty((len(span) + 1, len(idx)), dtype=np.int32), 1
    powers[0], powers[1] = e_el, idx  # rows h + 1..h + k are g^h g^i, i = 1..k
    found = powers[1] == e_el  # the g of order <= h
    while h < len(span) and not found.all():
        k = min(h, len(span) - h)
        powers[h + 1:h + k + 1] = mul(powers[h], powers[1:k + 1])
        found |= (powers[h + 1:h + k + 1] == e_el).any(axis=0)
        h += k
    element_orders = (powers[1:h + 1] == e_el).argmax(axis=0) + 1
    a_orders = member[powers[1:h + 1]].argmax(axis=0) + 1  # order of g G' in A
    inverse -= eoff
    for arr in (inverse, element_orders, sizes, *muls):
        arr.flags.writeable = False
    by_table = element_orders[np.lexsort((element_orders, tab))].tolist()
    return [FiniteGroupTable(
        order=hi - lo, mul=muls[t], identity=int(e[t]) - lo, inverse=inverse[lo:hi],
        generators=tuple(gens[t]), element_orders=element_orders[lo:hi], class_sizes=sizes[lo:hi],
        fingerprint=QuotientFingerprint(
            order=hi - lo,
            abelian_invariants=_abelian_invariants(a_orders[lo:hi].tolist()),
            exponent=math.lcm(*set(by_table[lo:hi])),
            element_orders=tuple(by_table[lo:hi]),
            class_sizes=tuple(size for size, c in sorted(Counter(sizes[lo:hi].tolist()).items())
                              for _ in range(c // size))))
        for t, (lo, hi) in enumerate(zip(off[:-1].tolist(), off[1:].tolist()))]


def cyclic_table(n: int) -> FiniteGroupTable:
    idx = np.arange(n)
    return FiniteGroupTable.build((idx[:, None] + idx[None, :]) % n)


def direct_product_table(a: FiniteGroupTable, b: FiniteGroupTable) -> FiniteGroupTable:
    na, nb = a.order, b.order
    i = np.arange(na * nb)
    ai, bi = i // nb, i % nb
    mul = a.mul[np.ix_(ai, ai)] * nb + b.mul[np.ix_(bi, bi)]
    return FiniteGroupTable.build(mul)


def _vector_grid(p: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    """All p^d vectors of F_p^d, row k having index k = sum_i v_i p^i, and the radix."""
    return (np.indices((p,) * d).reshape(d, p ** d)[::-1].T.astype(np.int64),
            p ** np.arange(d, dtype=np.int64))


def _addition_table(p: int, d: int) -> np.ndarray:
    """int32 index of v + w for all v, w in F_p^d, built one digit (v_k + w_k) mod p
    at a time. With d = 0, p is never read: callers pass 1 for the zero space."""
    table = np.zeros((1, 1), dtype=np.int32)
    if d:
        digit = np.add.outer(np.arange(p, dtype=np.int32), np.arange(p, dtype=np.int32)) % p
        for k in range(d):
            table = (digit[:, None, :, None] * p ** k
                     + table[None, :, None, :]).reshape(p ** (k + 1), p ** (k + 1))
    return table


def _action_rows(p: int, grid: tuple[np.ndarray, np.ndarray], action: list[list[int]],
                 m: int) -> np.ndarray:
    """Rows k = 0..m holding the index of A^k v for every vector v of
    grid = _vector_grid(p, d), A = action. As there, pass 1 for p when d = 0."""
    vecs, radix = grid
    a_np = np.array(action, dtype=np.int64).reshape(len(action), len(action))
    rows = [np.arange(len(vecs)), vecs @ a_np.T % p @ radix]
    while len(rows) <= m:
        rows.append(rows[1][rows[-1]])
    return np.stack(rows[:m + 1])


def semidirect_table(field: FieldSpec, action: list[list[int]], m: int,
                     twist: Sequence[int] | None = None) -> FiniteGroupTable:
    """Table of the cyclic extension of Z/mZ by F_p^d with t acting by A = action
    and t^m = a = twist:

        (v, i)(w, j) = (v + A^i w + [i + j >= m] a, (i + j) mod m).

    This is a group iff A^m = I and A a = a; both are checked. The zero twist
    (the default) gives the split product F_p^d x| Z/mZ.

    Elements are encoded in mixed radix as index = vector_index * m + residue,
    with vector_index = sum_i v_i p^i.
    """
    d = len(action)
    p = field.p if d else 1  # F_p^0 is the zero space; 1 keeps the modulus inside int64
    if p ** d * m > ORDER_CAP:
        raise AlgebraError(f"order {p ** d * m} exceeds cap {ORDER_CAP}")
    a_np = np.array(action, dtype=np.int64).reshape(d, d)
    twist_np = np.array([0] * d if twist is None else twist, dtype=np.int64) % p
    if twist_np.shape != (d,):
        raise ValueError(f"twist has length {twist_np.size}, expected {d}")
    if not np.array_equal(a_np @ twist_np % p, twist_np):
        raise ValueError("twist is not fixed by the action")
    rows = _action_rows(p, _vector_grid(p, d), action, m)
    if not np.array_equal(rows[m], rows[0]):  # A^m fixes every vector: A^m = I
        raise ValueError(f"action does not have order dividing {m}")
    return FiniteGroupTable.build(_extension_mul(p, m, twist_np.tolist(), rows,
                                                 _addition_table(p, d)))


def _extension_mul(p: int, m: int, twist: Sequence[int], rows: np.ndarray,
                   sum_idx: np.ndarray) -> np.ndarray:
    """semidirect_table's array from _action_rows and _addition_table, unchecked: entry ((i, k),
    (j, l)) is index(vec_i + w) * m + (k + l) mod m, w = A^k vec_j, plus a if k + l >= m."""
    act = rows[:m]  # act[k, j]: A^k vec_j, an intp index as take wants
    residues = np.arange(m, dtype=np.int32)
    wraps = residues[:, None] + residues >= m
    wrap = sum_idx[:, sum(a * p ** i for i, a in enumerate(twist))]  # index(vec_j + a)
    table = np.empty((len(sum_idx), m, len(sum_idx), m), dtype=np.int32)  # C-ordered
    np.take(sum_idx, np.where(wraps[:, None, :], wrap[act][:, :, None], act[:, :, None]),
            axis=1, out=table, mode="clip")  # mode "raise" would buffer out
    res = residues[:, None] + residues  # (k + l) mod m
    res[wraps] -= m
    table *= m
    table += res[:, None, :]
    return table.reshape(len(sum_idx) * m, -1)


def build_group_table(trunc: FiniteTruncation, m: int) -> FiniteGroupTable:
    """Explicit table of (N / (x^m - 1) N) x| Z/mZ from a finite truncation."""
    require(trunc.m == m, "truncation was taken at a different m")
    return semidirect_table(trunc.field, [list(r) for r in trunc.x_action], m)


# --- subgroup machinery -------------------------------------------------------

def subgroup_closure(table: FiniteGroupTable, gens: list[int]) -> np.ndarray:
    """Sorted element array of the subgroup generated by gens: the closure of
    {e} and gens under products, each round squaring the set (a finite group's
    inverses are powers)."""
    member = np.arange(table.order) == table.identity
    member[np.asarray(gens, dtype=np.int64)] = True
    while True:
        idx = member.nonzero()[0]
        member[table.mul[idx[:, None], idx]] = True
        if member.sum() == idx.size:
            return idx


def _is_subgroup(table: FiniteGroupTable, members: np.ndarray) -> bool:
    mask = np.zeros(table.order, dtype=bool)
    mask[members] = True
    return bool(mask[table.identity]) and bool(
        mask[table.mul[np.ix_(members, members)]].all())


def _is_normal(table: FiniteGroupTable, members: np.ndarray) -> bool:
    mask = np.zeros(table.order, dtype=bool)
    mask[members] = True
    everyone = np.arange(table.order)
    left = table.mul[:, members]            # left[g, i] = g * n_i
    conj = table.mul[left, table.inverse[everyone][:, None]]
    return bool(mask[conj].all())


def enumerate_normal_subgroups(table: FiniteGroupTable) -> list[frozenset[int]]:
    """The full normal-subgroup lattice, via joins of one-element normal closures.

    Every normal subgroup is the join of the normal closures of its elements,
    and the product of two normal subgroups is already a subgroup, so closing
    the atom set under pairwise joins reaches a fixpoint at the full lattice.
    Each returned subset is re-verified to be subgroup- and conjugation-closed.
    """
    if table.order > ORDER_CAP:
        raise AlgebraError(f"order {table.order} exceeds cap {ORDER_CAP}")
    atoms: dict[bytes, tuple[np.ndarray, list[int]]] = {}
    seen = np.zeros(table.order, dtype=bool)
    for g in range(table.order):
        if not seen[g]:
            cls = np.unique(table.mul[table.mul[:, g], table.inverse])  # g's class
            seen[cls] = True
            members = subgroup_closure(table, list(cls))
            atoms.setdefault(members.tobytes(), (members, list(cls)))
    lattice: dict[bytes, tuple[np.ndarray, list[int]]] = {}
    trivial = np.array([table.identity], dtype=np.int64)
    lattice[trivial.tobytes()] = (trivial, [])
    for members, gens in atoms.values():
        lattice.setdefault(members.tobytes(), (members, gens))
    pending = list(lattice.values())
    while pending:
        members, gens = pending.pop()
        for amembers, agens in atoms.values():
            join = subgroup_closure(table, gens + agens)
            key = join.tobytes()
            if key not in lattice:
                entry = (join, gens + agens)
                lattice[key] = entry
                pending.append(entry)
    out = []
    for members, _ in lattice.values():
        require(_is_subgroup(table, members), "lattice member is not a subgroup")
        require(_is_normal(table, members), "lattice member is not normal")
        out.append(frozenset(int(x) for x in members))
    out.sort(key=lambda s: (len(s), sorted(s)))
    return out


def quotient_table(table: FiniteGroupTable, normal: frozenset[int] | set[int]) -> FiniteGroupTable:
    """Coset multiplication table of G / N."""
    members = np.array(sorted(normal), dtype=np.int64)
    if not _is_subgroup(table, members) or not _is_normal(table, members):
        raise AlgebraError("subset is not a normal subgroup")
    rep_of = table.mul[members].min(axis=0)  # rep_of[g] = min of the coset N g
    reps = np.unique(rep_of)
    return FiniteGroupTable.build(np.searchsorted(reps, rep_of[table.mul[np.ix_(reps, reps)]]))


# --- isomorphism invariants and testing ---------------------------------------

@dataclass(frozen=True)
class QuotientFingerprint:
    """Cheap isomorphism invariants used to pre-filter the backtracking search.
    The fields, with "name" = describe(), are the keys of each quotient class
    in the rigidity-report/1 JSON: renaming a field changes the schema."""

    order: int
    abelian_invariants: tuple[int, ...]
    exponent: int
    element_orders: tuple[int, ...]
    class_sizes: tuple[int, ...]

    def key(self) -> tuple:
        return (self.order, self.exponent, self.abelian_invariants,
                self.element_orders, self.class_sizes)

    def describe(self) -> str:
        if self.order == 1:
            return "1"
        if len(self.element_orders) == self.order and self.class_sizes == (1,) * self.order:
            return " x ".join(f"C{d}" for d in reversed(self.abelian_invariants))
        return (f"nonabelian(order={self.order}, exponent={self.exponent}, "
                f"ab={' x '.join(f'C{d}' for d in reversed(self.abelian_invariants)) or '1'})")


def fingerprint(table: FiniteGroupTable) -> QuotientFingerprint:
    """The table's fingerprint, which build_tables computed with the table."""
    return table.fingerprint


def _abelian_invariants(a_orders: list[int]) -> tuple[int, ...]:
    """Invariant factors of A = G/G' from the orders in A of the elements of G.
    With N(k) = #{g : ord(g G') | k} = |G'| |A[k]|, for each prime q,
    log_q(N(q^j) / N(q^(j-1))) cyclic factors of A have order at least q^j
    (Holt, Eick and O'Brien 2005, ch. 8)."""
    counts = Counter(a_orders)
    exponent = math.lcm(*counts)
    factors: list[int] = []  # largest first
    primes = [q for q in range(2, exponent + 1)
              if exponent % q == 0 and all(q % r for r in range(2, q))]
    for q in primes:
        ranks, k = [], q  # ranks[j - 1]: factors of order >= q^j
        while exponent % k == 0:
            n_k, n_below = (sum(c for a, c in counts.items() if j % a == 0) for j in (k, k // q))
            ranks.append(round(math.log(n_k // n_below, q)))
            k *= q
        factors += [1] * (ranks[0] - len(factors))
        for i in range(ranks[0]):
            factors[i] *= q ** sum(r > i for r in ranks)
    return tuple(reversed(factors))


def _hom_from_images(g_table: FiniteGroupTable, h_table: FiniteGroupTable,
                     gens: Sequence[int], images: list[int]) -> dict[int, int] | None:
    """Extend gen -> image to the generated subgroup S; None on conflict. The walk
    checks f(a g) = f(a) h_g for each reached a and generator g, so by induction on
    words (S is finite) f(a b) = f(a) f(b): the map returned is a homomorphism on S."""
    mapping = {g_table.identity: h_table.identity}
    frontier = [g_table.identity]
    while frontier:
        a = frontier.pop()
        b = mapping[a]
        for g, h in zip(gens, images):
            ag = int(g_table.mul[a, g])
            bh = int(h_table.mul[b, h])
            if ag in mapping:
                if mapping[ag] != bh:
                    return None
            else:
                mapping[ag] = bh
                frontier.append(ag)
    return mapping


def isomorphic(g_table: FiniteGroupTable, h_table: FiniteGroupTable) -> bool:
    """Fingerprint pre-filter, then backtracking over generator images to a bijective hom."""
    if g_table.order > ORDER_CAP or h_table.order > ORDER_CAP:
        raise AlgebraError(f"isomorphism test above the cap {ORDER_CAP}")
    if g_table.fingerprint != h_table.fingerprint:  # which holds the order
        return False
    if g_table.order == 1:
        return True
    gens = g_table.generators
    g_keys = list(zip(g_table.element_orders.tolist(), g_table.class_sizes.tolist()))
    h_candidates: dict[tuple[int, int], list[int]] = {}
    for h, key in enumerate(zip(h_table.element_orders.tolist(), h_table.class_sizes.tolist())):
        h_candidates.setdefault(key, []).append(h)

    def backtrack(i: int, images: list[int]) -> bool:
        for h in h_candidates.get(g_keys[gens[i]], []):
            trial = images + [h]
            mapping = _hom_from_images(g_table, h_table, gens[:i + 1], trial)
            if mapping is None:
                continue
            if i + 1 < len(gens):
                if backtrack(i + 1, trial):
                    return True
            elif len(mapping) == g_table.order and len(set(mapping.values())) == g_table.order:
                return True
        return False

    return backtrack(0, [])


# --- bounded quotient sets ----------------------------------------------------

@dataclass(frozen=True)
class QuSet:
    """Isomorphism classes of finite quotients up to the stated order bound."""

    bound: int
    classes: tuple[FiniteGroupTable, ...]

    @property
    def fingerprints(self) -> tuple[QuotientFingerprint, ...]:
        return tuple(t.fingerprint for t in self.classes)


def _base_chain(source: ModulePresentation | LamplighterSpec) -> tuple[FieldSpec, list[FpPoly]]:
    """The field and N's own invariant chain, 0 for each free summand: n zeros for
    the integer-base lamp group, where N = R^n, with no presentation to reduce."""
    if isinstance(source, LamplighterSpec):
        if source.is_cyclic:
            raise ValueError("quotient enumeration expects the integer-base group")
        return source.field, [FpPoly.zero(source.field)] * source.n
    dec = decompose(source)
    return source.field, list(dec.invariant_factors) + [FpPoly.zero(source.field)] * dec.free_rank


def _order_table(field: FieldSpec, bound: int) -> list[tuple[FpPoly, int]]:
    """Each monic h with h(0) != 0 and order of x mod h at most bound // p^deg(h),
    with that order, sorted by (degree, coeffs). Such an h divides x^d - 1 iff that
    order divides d (no h with h(0) = 0 does), and the h left out fit no d with
    p^deg(h) d <= bound, the order of an extension by F_p[x]/(h) and C_d."""
    p, table = field.p, []
    for deg in range(1, bound.bit_length()):  # p^deg <= bound only if deg < bit_length
        one, limit = (1,) + (0,) * (deg - 1), bound // p ** deg
        for tail in product(range(1, p), *[range(p)] * (deg - 1)) if limit else ():  # h(0) != 0
            power, order = one, 0
            while order < limit and (not order or power != one):  # power = x^order mod h
                power = tuple((a - power[-1] * t) % p for a, t in zip((0,) + power[:-1], tail))
                order += 1  # x^deg = -tail
            if power == one:
                table.append((FpPoly(field, tail + (1,)), order))
    return table


def _dominated_chains(base_chain: list[FpPoly], divisors: list[FpPoly], budget: int,
                      known: dict) -> list[list[FpPoly]]:
    """Ascending divisor chains h_1 | ... | h_k with sum deg <= budget that are
    dominated top-down by base_chain (h_{k-j} divides base_chain[s-1-j]).

    These parameterize exactly the quotient modules of the module with
    invariant chain base_chain that have dimension <= budget: a quotient of a
    torsion module over a principal ideal domain exists iff its j-th largest
    invariant factor divides the j-th largest one of the source. known holds
    each divisibility test made, by (h, g), for the caller to share.
    """
    s = len(base_chain)
    out: list[list[FpPoly]] = []

    def divides(h: FpPoly, g: FpPoly) -> bool:
        if (h, g) not in known:
            known[h, g] = h.divides(g)
        return known[h, g]

    def rec(top_down: list[FpPoly], left: int, slot: int) -> None:
        out.append(list(reversed(top_down)))
        if slot < 0 or left <= 0:
            return
        upper = top_down[-1] if top_down else None
        for h in divisors:
            if h.degree > left:
                continue
            if not divides(h, base_chain[slot]):
                continue
            if upper is not None and not divides(h, upper):
                continue
            rec(top_down + [h], left - int(h.degree), slot - 1)

    rec([], budget, s - 1)
    return out


def _twist_classes(chain: list[FpPoly], d: int, p: int) -> list[tuple[int, ...]]:
    """One twist from each class of H^2(C_d, M) = M^x / N_d M, N_d = 1 + x + ... + x^(d-1),
    for M the sum of the F_p[x]/(h), h in chain, in block_companion's basis.

    With d = d' p^k, p not dividing d', x^d - 1 = (x^d' - 1)^(p^k) and x^d' - 1 is
    squarefree, so x - 1 divides N_d exactly p^k - 1 times. F_p[x]/(h) has the
    fixed line of u = h / (x - 1) iff x - 1 | h, and N_d F_p[x]/(h) holds it iff
    (x - 1)^(p^k) | h. So H^2 is the sum of the lines with 1 <= v_(x-1)(h) < p^k,
    zero unless p | d. The summands lie on disjoint digit ranges and the other
    fixed lines in N_d M, so the sums of multiples of these u, in index order,
    are the least-index elements of the classes."""
    lines, dim, pk = [], 0, 1  # pk = p^k
    while d % (pk * p) == 0:
        pk *= p
    for h in chain:
        cs, v, u = h.coeffs, 0, ()
        while v < pk and sum(cs) % p == 0:  # x - 1 divides: synthetic division
            cs, v = [sum(cs[i + 1:]) % p for i in range(len(cs) - 1)], v + 1
            u = u or cs  # h / (x - 1)
        if 1 <= v < pk:
            lines.append((dim, u))
        dim += int(h.degree)
    twists = []
    for scalars in product(range(p), repeat=len(lines)):  # the last line's digits lead
        twist = [0] * dim
        for c, (offset, u) in zip(reversed(scalars), lines):
            twist[offset:offset + len(u)] = [c * a % p for a in u]
        twists.append(tuple(twist))
    return twists


def _extensions(source: ModulePresentation | LamplighterSpec, bound: int, pool: dict):
    """Yield (key, field, action, twist) for each E(M, d, a) that truncated_qu
    needs; the key (p, d, chain coefficients, twist) determines the table. The
    pool, one per _classify call, keeps by p the _order_table, by (p, d, c) the
    divisors of x^d - 1 of degree <= c, by (h, g) whether h | g, the dominated
    chains by (p, d, c, base chain coefficients), the vector grid and addition
    table of F_p^dim by (p, dim) (p = 1 for dim 0), and by module
    (p, d, chain coefficients) its _action_rows, addition table and twist classes."""
    # for h | x^d - 1, h | gcd(f, x^d - 1) iff h | f, so N's own chain serves every d
    field, base_chain = _base_chain(source)
    p = field.p
    if p not in pool:
        pool[p] = _order_table(field, bound)
    for d in range(1, bound + 1):
        c = 0
        while p ** (c + 1) * d <= bound:
            c += 1
        if (p, d, c) not in pool:
            pool[p, d, c] = [h for h, order in pool[p] if h.degree <= c and d % order == 0]
        chains = (p, d, c, tuple(f.coeffs for f in base_chain))
        if chains not in pool:
            pool[chains] = _dominated_chains(base_chain, pool[p, d, c], c, pool)
        for chain in pool[chains]:
            action = block_companion(chain)
            module = (p, d, tuple(h.coeffs for h in chain))
            if module not in pool:
                space = (p if action else 1, len(action))  # as in semidirect_table
                if space not in pool:
                    pool[space] = _vector_grid(*space), _addition_table(*space)
                pool[module] = (_action_rows(space[0], pool[space][0], action, d),
                                pool[space][1], _twist_classes(chain, d, p))
            for twist in pool[module][2]:
                yield module + (twist,), field, action, twist


def _classify(sources: Sequence[ModulePresentation | LamplighterSpec],
              bound: int) -> list[QuSet]:
    """The quotient set of each source, drawn from one pool of class
    representatives that lives for this call: the tables of all distinct keys
    are built in one build_tables pass, then each joins an isomorphic kept
    table of equal fingerprint, in the order the keys were met, or is kept."""
    if bound < 1 or bound > BOUND_CAP:
        raise AlgebraError(f"bound {bound} outside 1..{BOUND_CAP}")
    pool: dict = {}
    side_keys = [[key for key, *_ in _extensions(source, bound, pool)] for source in sources]
    keys = list(dict.fromkeys(key for side in side_keys for key in side))
    tables = build_tables([_extension_mul(k[0], k[1], k[3], *pool[k[:3]][:2]) for k in keys])
    rep_of, by_fingerprint = {}, {}  # key -> kept table; fingerprint key -> kept tables
    for key, table in zip(keys, tables):
        bucket = by_fingerprint.setdefault(table.fingerprint.key(), [])
        rep_of[key] = next((kept for kept in bucket if isomorphic(table, kept)), table)
        if rep_of[key] is table:
            bucket.append(table)
    return [QuSet(bound=bound, classes=tuple(sorted(dict.fromkeys(rep_of[k] for k in side),
                                                    key=lambda t: t.fingerprint.key())))
            for side in side_keys]


def truncated_qu(source: ModulePresentation | LamplighterSpec, bound: int) -> QuSet:
    """Every isomorphism class of quotients of order <= bound of N x| Z.

    In a finite quotient Q the image M of N is an abelian normal subgroup and
    Q / M is cyclic of some order d, generated by the image of t. Conjugation
    by t^d, an element of the abelian M, is trivial on M, so M is a quotient
    module of N / (x^d - 1) N, a = t^d lies in the fixed space M^x, and Q is
    the cyclic extension E(M, d, a) that semidirect_table builds with twist a.
    Conversely every E(M, d, a) is a quotient: send N onto M and t to (0, 1).

    Since |Q| = p^dim(M) * d, dim M is at most c(d), the largest c with
    p^c * d <= bound, and the possible M are the dominated divisor chains of
    the invariant chain of N / (x^d - 1) N with degree sum <= c(d). Replacing
    t by (v, 1) changes a by N_d v, N_d = 1 + x + ... + x^(d-1), so one a per
    class of H^2(C_d, M) = M^x / N_d M suffices (K. Brown, Cohomology of
    Groups, IV.3). Every table has order <= bound; the fingerprint and
    isomorphism dedupe merges the extensions that coincide.
    """
    return _classify((source,), bound)[0]


@dataclass(frozen=True)
class QuComparison:
    """Outcome of an order-bounded quotient-set comparison."""

    bound: int
    equal: bool
    left_fingerprints: tuple[QuotientFingerprint, ...]
    right_fingerprints: tuple[QuotientFingerprint, ...]
    left_only: tuple[QuotientFingerprint, ...]
    right_only: tuple[QuotientFingerprint, ...]
    witness: tuple[str, QuotientFingerprint] | None


def compare_qu(left: ModulePresentation | LamplighterSpec,
               right: ModulePresentation | LamplighterSpec,
               bound: int) -> QuComparison:
    """Equality of bounded quotient sets, or the smallest-order witness class.
    Both sides draw from one pool of class representatives, so a class is on
    one side only iff its representative is; no isomorphism test crosses sides."""
    lset, rset = _classify((left, right), bound)
    left_only = tuple(t.fingerprint for t in lset.classes if t not in rset.classes)
    right_only = tuple(t.fingerprint for t in rset.classes if t not in lset.classes)
    candidates = [("left", fp) for fp in left_only] + [("right", fp) for fp in right_only]
    return QuComparison(
        bound=bound,
        equal=not candidates,
        left_fingerprints=lset.fingerprints,
        right_fingerprints=rset.fingerprints,
        left_only=left_only,
        right_only=right_only,
        witness=min(candidates, key=lambda t: t[1].key()) if candidates else None,
    )


def admits_surjection_from_lamplighter(spec: LamplighterSpec,
                                       target: FiniteGroupTable) -> bool:
    """Brute-force search for a surjection from the integer-base lamp group.

    The free lamp group is presented by n lamp generators of order p whose
    translation conjugates pairwise commute; a surjection is a choice of n+1
    images satisfying those relations and generating the target.
    """
    if spec.is_cyclic:
        raise ValueError("expected the integer-base group")
    n = spec.n
    order = target.order
    lamp_candidates = [g for g in range(order)
                       if target.element_order(g) in (1, spec.field.p)]
    for tau in range(order):
        t_ord = target.element_order(tau)
        for alphas in product(lamp_candidates, repeat=n):
            conjugates = []
            ok = True
            for alpha in alphas:
                cur = alpha
                orbit = []
                for _ in range(t_ord):
                    orbit.append(cur)
                    cur = int(target.mul[int(target.mul[tau, cur]), target.inverse[tau]])
                conjugates.extend(orbit)
            for i, a in enumerate(conjugates):
                for b in conjugates[i + 1:]:
                    if target.mul[a, b] != target.mul[b, a]:
                        ok = False
                        break
                if not ok:
                    break
            if not ok:
                continue
            generated = subgroup_closure(target, list(alphas) + [tau])
            if generated.size == order:
                return True
    return False
