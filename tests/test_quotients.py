import itertools
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
    LamplighterSpec,
    ModulePresentation,
    admits_surjection_from_lamplighter,
    build_group_table,
    compare_qu,
    enumerate_normal_subgroups,
    fingerprint,
    finite_truncation,
    isomorphic,
    quotient_table,
    truncated_qu,
)
from lamprigid import jsonio, quotients
from lamprigid.errors import AlgebraError, CertificateError
from lamprigid.fppoly import FpPoly, x_pow_minus_one
from lamprigid.laurent_modules import block_companion
from lamprigid.quotients import (
    FiniteGroupTable,
    cyclic_table,
    direct_product_table,
    semidirect_table,
)

from oracles import (
    abelian_invariants_by_quotients,
    associative_by_cube,
    brute_normal_subgroups,
    element_orders_by_powers,
    generators_by_closure,
    lattice_qu,
    orders_modulo_by_iteration,
    orders_of_x_by_powers,
    respects_law_by_dicts,
    semidirect_table_by_blocks,
    small_divisors_by_trial_division,
    small_group_catalog,
    twist_classes_by_cover,
    two_sided_compare_qu,
)

F2 = FieldSpec(2)
F3 = FieldSpec(3)


def lamp_table(p, n, m):
    pres = ModulePresentation.free(FieldSpec(p), n)
    return build_group_table(finite_truncation(pres, m), m)


CANDIDATE_NAMES = ("free_rank1", "free_rank2_p3", "mixed_free_torsion", "torsion_only")
CANDIDATE_DIR = pathlib.Path(__file__).resolve().parents[1] / "candidates"


def bundled(name):
    return jsonio.parse_candidate(json.loads((CANDIDATE_DIR / f"{name}.json").read_text()))


def fingerprints_agree(source, bound):
    return truncated_qu(source, bound).fingerprints == lattice_qu(source, bound).fingerprints


def recorded_batches(monkeypatch):
    """Record the tables of each build_tables call, the one way quotient sets build tables."""
    batches = []
    original = quotients.build_tables

    def recording(muls):
        batches.append(original(muls))
        return batches[-1]

    monkeypatch.setattr(quotients, "build_tables", recording)
    return batches


@st.composite
def small_modules(draw):
    """Diagonal presentations over F_2 or F_3: free rank 0 or 1 plus one or two
    cyclic torsion summands of degree 1 to 3 with nonzero constant term."""
    field = draw(st.sampled_from([F2, F3]))
    free_rank, factors = draw(st.integers(0, 1)), draw(st.integers(1, 2))
    p = field.p
    diagonal = []
    for _ in range(factors):
        degree = draw(st.integers(1, 3))
        coeffs = ([draw(st.integers(1, p - 1))]
                  + [draw(st.integers(0, p - 1)) for _ in range(degree - 1)]
                  + [draw(st.integers(1, p - 1))])
        diagonal.append(FpPoly(field, tuple(coeffs)))
    gens = factors + free_rank
    rows = [[FpPoly.zero(field)] * factors for _ in range(gens)]
    for i, f in enumerate(diagonal):
        rows[i][i] = f
    return ModulePresentation.make(field, gens, rows)


class TestBuildGroupTable:
    def test_24_element_truncation(self):
        table = lamp_table(2, 1, 3)
        assert table.order == 24  # 2^3 * 3, axioms verified exhaustively on build

    def test_m_one_is_elementary_abelian(self):
        pres = ModulePresentation.make(
            F2, 2, [[FpPoly.zero(F2)], [FpPoly(F2, (1, 1, 1))]])
        table = build_group_table(finite_truncation(pres, 1), 1)
        assert table.order == 2
        assert fingerprint(table).abelian_invariants == (2,)

    def test_dimension_zero_gives_cyclic(self):
        table = semidirect_table(FieldSpec(5), [], 5)
        assert table.order == 5
        assert isomorphic(table, cyclic_table(5))

    def test_truncation_at_another_m_is_refused(self):
        # x^2 = 1 on F_2[x] / (x^2 - 1), so x^4 = 1 as well: without the check
        # the table of order 16 would be built from the wrong truncation
        trunc = finite_truncation(ModulePresentation.free(F2, 1), 2)
        with pytest.raises(CertificateError, match="truncation was taken at a different m"):
            build_group_table(trunc, 4)

    def test_order_cap(self, monkeypatch):
        # 2^12 * 2 = 8192 > ORDER_CAP: the guard raises before any numpy call
        monkeypatch.setattr(quotients, "np", None)
        identity = [[int(i == j) for j in range(12)] for i in range(12)]
        with pytest.raises(AlgebraError, match="8192 exceeds cap 4096"):
            semidirect_table(F2, identity, 2)


class TestTwistedTable:
    def test_non_split_extension_is_cyclic_four(self):
        # t^2 = a with a != 0: the split a = 0 table is C2 x C2, never C4
        twisted = semidirect_table(F2, [[1]], 2, twist=(1,))
        assert isomorphic(twisted, cyclic_table(4))
        assert not isomorphic(semidirect_table(F2, [[1]], 2), cyclic_table(4))

    def test_norm_image_twist_gives_the_split_group(self):
        # x swaps the coordinates; (1, 1) = N_2 (1, 0) is zero in H^2, so D4 again
        twisted = semidirect_table(F2, [[0, 1], [1, 0]], 2, twist=(1, 1))
        assert isomorphic(twisted, semidirect_table(F2, [[0, 1], [1, 0]], 2))

    def test_twist_outside_fixed_space_raises(self):
        with pytest.raises(ValueError, match="fixed"):
            semidirect_table(F2, [[0, 1], [1, 0]], 2, twist=(1, 0))

    def test_action_order_must_divide_m(self):
        with pytest.raises(ValueError, match="order dividing"):
            semidirect_table(F2, [[0, 1], [1, 0]], 3)

    def test_bound_sixteen_tables_stay_within_bound(self, monkeypatch):
        batches = recorded_batches(monkeypatch)
        for name in CANDIDATE_NAMES:
            truncated_qu(bundled(name).presentation, 16)
        orders = [table.order for batch in batches for table in batch]
        assert orders and max(orders) <= 16


@st.composite
def extension_data(draw):
    """(field, action, m, twist) for p in {2, 3, 5}, d in 0..3 and m in 1..12:
    A is a block companion matrix of divisors of x^m - 1 with its basis
    permuted, so A^m = I, and the twist is a random fixed point of A."""
    field = FieldSpec(draw(st.sampled_from([2, 3, 5])))
    d, m = draw(st.integers(0, 3)), draw(st.integers(1, 12))
    divisors = small_divisors_by_trial_division(x_pow_minus_one(field, m), 3)
    chain, left = [], d
    while left:  # x - 1 divides x^m - 1, so some divisor always fits
        h = draw(st.sampled_from([h for h in divisors if h.degree <= left]))
        chain.append(h)
        left -= int(h.degree)
    perm = draw(st.permutations(range(d)))
    action = np.array(block_companion(chain), dtype=np.int64).reshape(d, d)
    action = action[np.ix_(perm, perm)]
    vecs, _ = quotients._vector_grid(field.p, d)
    fixed = vecs[(vecs @ action.T % field.p == vecs).all(axis=1)]
    twist = fixed[draw(st.integers(0, len(fixed) - 1))]
    return field, action.tolist(), m, tuple(int(a) for a in twist)


@st.composite
def block_companion_data(draw):
    """(field, chain, m) for p in {2, 3, 5, 7} and m in 1..16 (so p^2 | m occurs):
    a chain of divisors of x^m - 1 with p^dim <= 64, in block_companion's basis."""
    field = FieldSpec(draw(st.sampled_from([2, 3, 5, 7])))
    m = draw(st.integers(1, 16))
    left = draw(st.integers(0, {2: 6, 3: 3, 5: 2, 7: 2}[field.p]))
    divisors = small_divisors_by_trial_division(x_pow_minus_one(field, m), left)
    chain = []
    while left:  # x - 1 divides x^m - 1, so some divisor always fits
        h = draw(st.sampled_from([h for h in divisors if h.degree <= left]))
        chain.append(h)
        left -= int(h.degree)
    return field, chain, m


class TestOrderTable:
    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_divisors_by_order_equal_trial_division(self, p):
        # h | x^d - 1 iff the order of x mod h divides d, for h(0) != 0, at every
        # (d, c) with p^c d <= 64, the divisor lists _extensions reads
        field = FieldSpec(p)
        table = quotients._order_table(field, 64)
        for d in range(1, 65):
            c_max = max(c for c in range(7) if p ** c * d <= 64)
            trial = small_divisors_by_trial_division(x_pow_minus_one(field, d), c_max)
            for c in range(c_max + 1):
                by_order = [h for h, order in table if h.degree <= c and d % order == 0]
                assert by_order == [h for h in trial if h.degree <= c], (d, c)

    @pytest.mark.parametrize("bound", [16, 64, 256])
    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_walk_stops_at_the_usable_orders(self, p, bound):
        # only an order of at most bound // p^deg(h) can divide a d that h fits
        field = FieldSpec(p)
        full = orders_of_x_by_powers(field, max(c for c in range(9) if p ** c <= bound))
        assert quotients._order_table(field, bound) == [
            (h, order) for h, order in full if order <= bound // p ** int(h.degree)]


class TestTableBuilderAgainstBlockOracle:
    @pytest.mark.parametrize("name", CANDIDATE_NAMES)
    def test_extension_keys_at_bound_sixteen(self, name):
        candidate = bundled(name)
        lamp = LamplighterSpec(candidate.field, candidate.n, None)
        for source in (candidate.presentation, lamp):
            for key, field, action, twist in quotients._extensions(source, 16, {}):
                built = semidirect_table(field, action, key[1], twist=twist)
                oracle = semidirect_table_by_blocks(field, action, key[1], twist=twist)
                assert np.array_equal(built.mul, oracle.mul), key

    @settings(max_examples=60, deadline=None)
    @given(extension_data())
    def test_random_extensions(self, data):
        field, action, m, twist = data
        built = semidirect_table(field, action, m, twist=twist)
        oracle = semidirect_table_by_blocks(field, action, m, twist=twist)
        assert np.array_equal(built.mul, oracle.mul)

    def test_order_1024_table(self):
        x4_minus_1 = x_pow_minus_one(F2, 4)
        action = block_companion([x4_minus_1, x4_minus_1])
        built = semidirect_table(F2, action, 4)
        assert built.order == 1024
        assert np.array_equal(built.mul, semidirect_table_by_blocks(F2, action, 4).mul)


@pytest.mark.parametrize("p, d", [(2, 0), (7, 0), (2, 1), (2, 4), (3, 3), (5, 2), (13, 1)])
def test_addition_table_matches_digit_sums(p, d):
    vecs, radix = quotients._vector_grid(p, d)
    expected = (vecs[:, None, :] + vecs[None, :, :]) % p @ radix
    table = quotients._addition_table(p, d)
    assert table.dtype == np.int32 and np.array_equal(table, expected)


class TestLawCheckAgainstPairOracle:
    def test_generator_images_over_catalog(self):
        # a conflict-free extension is a homomorphism with no law check of its
        # own (_hom_from_images' docstring); the oracle checks it pair by pair
        rng = random.Random(61)
        catalog = [table for _, table in small_group_catalog()]
        outcomes = set()
        for _ in range(400):
            g_table, h_table = rng.choice(catalog), rng.choice(catalog)
            gens = rng.sample(range(g_table.order), rng.randint(1, min(3, g_table.order)))
            images = [rng.randrange(h_table.order) for _ in gens]
            mapping = quotients._hom_from_images(g_table, h_table, gens, images)
            if mapping is not None:
                assert respects_law_by_dicts(g_table, h_table, mapping)
            outcomes.add(mapping is not None)
        assert outcomes == {True, False}


class TestNormalSubgroups:
    def test_cyclic_four(self):
        subs = enumerate_normal_subgroups(cyclic_table(4))
        assert sorted(len(s) for s in subs) == [1, 2, 4]

    def test_wreath_24_contains_base_and_ideals(self):
        table = lamp_table(2, 1, 3)
        subs = enumerate_normal_subgroups(table)
        sizes = sorted(len(s) for s in subs)
        # ideal lattice of the cyclic base module: orders 1, 2, 4, 8
        for ideal_order in (1, 2, 4, 8):
            assert ideal_order in sizes
        base = frozenset(int(v * 3) for v in range(8))  # shift-0 elements
        assert base in subs

    def test_trivial_and_whole_always_present(self):
        for table in (cyclic_table(6), lamp_table(2, 1, 2)):
            subs = enumerate_normal_subgroups(table)
            assert frozenset({table.identity}) in subs
            assert frozenset(range(table.order)) in subs

    def test_against_exhaustive_filter(self):
        tables = [cyclic_table(8), direct_product_table(cyclic_table(2), cyclic_table(4)),
                  lamp_table(2, 1, 2), lamp_table(2, 1, 3), lamp_table(3, 1, 2),
                  lamp_table(2, 1, 4)]
        for table in tables:
            assert table.order <= 64
            fast = set(enumerate_normal_subgroups(table))
            slow = set(brute_normal_subgroups(table))
            assert fast == slow

    def test_closure_properties(self):
        table = lamp_table(2, 1, 3)
        for sub in enumerate_normal_subgroups(table):
            members = np.array(sorted(sub))
            prods = table.mul[np.ix_(members, members)]
            assert set(int(x) for x in prods.ravel()) <= sub
            assert all(int(table.inverse[g]) in sub for g in sub)

    def test_unclosed_member_is_a_certificate_failure(self, monkeypatch):
        # gens and e, not closed: S3's transposition class gives {e, (12), (13), (23)}
        s3 = dict(small_group_catalog())["S3"]
        monkeypatch.setattr(quotients, "subgroup_closure",
                            lambda table, gens: np.union1d([table.identity], gens))
        with pytest.raises(CertificateError, match="lattice member is not a subgroup"):
            enumerate_normal_subgroups(s3)

    def test_non_normal_member_is_a_certificate_failure(self, monkeypatch):
        # the closure of the first generator only: S3's transposition class gives <(12)>
        s3, intact = dict(small_group_catalog())["S3"], quotients.subgroup_closure
        monkeypatch.setattr(quotients, "subgroup_closure",
                            lambda table, gens: intact(table, gens[:1]))
        with pytest.raises(CertificateError, match="lattice member is not normal"):
            enumerate_normal_subgroups(s3)


class TestQuotientTable:
    def test_trivial_kernel(self):
        table = cyclic_table(6)
        q = quotient_table(table, frozenset({0}))
        assert isomorphic(q, table)

    def test_full_kernel(self):
        table = cyclic_table(6)
        assert quotient_table(table, frozenset(range(6))).order == 1

    def test_wreath_by_base_is_cyclic_three(self):
        table = lamp_table(2, 1, 3)
        base = frozenset(int(v * 3) for v in range(8))
        q = quotient_table(table, base)
        assert isomorphic(q, cyclic_table(3))

    def test_not_normal(self):
        # a single reflection generates a non-normal order-2 subgroup of D4
        d4 = semidirect_table(F2, [[0, 1], [1, 0]], 2)
        reflection = None
        for g in range(8):
            if d4.element_order(g) == 2:
                sub = frozenset({0, g})
                try:
                    quotient_table(d4, sub)
                except AlgebraError as exc:
                    assert str(exc) == "subset is not a normal subgroup"
                    reflection = g
                    break
        assert reflection is not None


class TestFingerprint:
    def test_cyclic_versus_klein(self):
        c4 = fingerprint(cyclic_table(4))
        v4 = fingerprint(direct_product_table(cyclic_table(2), cyclic_table(2)))
        assert c4.element_orders == (1, 2, 4, 4)
        assert v4.element_orders == (1, 2, 2, 2)
        assert c4 != v4

    def test_dihedral_eight(self):
        d4 = fingerprint(semidirect_table(F2, [[0, 1], [1, 0]], 2))
        assert d4.exponent == 4
        assert d4.class_sizes == (1, 1, 2, 2, 2)
        assert d4.abelian_invariants == (2, 2)

    def test_trivial_group(self):
        fp = fingerprint(cyclic_table(1))
        assert fp.order == 1 and fp.exponent == 1 and fp.abelian_invariants == ()


def invariants_match_oracle(table):
    """Per-element orders and class sizes, and the invariant factors of G/G',
    against the power loop, explicit conjugates and quotient tables."""
    orders = element_orders_by_powers(table)
    assert table.element_orders.tolist() == orders
    assert [table.element_order(g) for g in range(table.order)] == orders
    for g in range(table.order):
        conjugates = table.mul[table.mul[:, g], table.inverse]
        assert table.class_sizes[g] == len(set(conjugates.tolist()))
    assert fingerprint(table).abelian_invariants == abelian_invariants_by_quotients(table)


def build_agrees_with_cube(mul) -> bool:
    """build accepts mul iff every triple associates; returns that verdict."""
    associative = associative_by_cube(mul)
    try:
        FiniteGroupTable.build(mul)
    except CertificateError as exc:
        assert str(exc) == "associativity fails" and not associative
        return False
    assert associative
    return True


def corrupted(table, rng):
    """The table with two entries of one row swapped, outside the identity's
    row and column: the identity and inverse checks still pass."""
    bad = np.array(table.mul)
    x, y1, y2 = rng.sample([g for g in range(table.order) if g != table.identity], 3)
    bad[x, [y1, y2]] = bad[x, [y2, y1]]
    return bad


class TestAssociativityAgainstCubeOracle:
    def test_small_group_catalog_and_corruptions(self):
        rng = random.Random(5)
        for _, table in small_group_catalog():
            assert build_agrees_with_cube(table.mul.copy())
            if table.order > 3:
                verdicts = [build_agrees_with_cube(corrupted(table, rng)) for _ in range(20)]
                assert not all(verdicts)

    @pytest.mark.parametrize("name", CANDIDATE_NAMES)
    def test_extension_tables_at_bound_sixteen(self, name):
        rng = random.Random(7)
        candidate = bundled(name)
        lamp = LamplighterSpec(candidate.field, candidate.n, None)
        for source in (candidate.presentation, lamp):
            for key, field, action, twist in quotients._extensions(source, 16, {}):
                table = semidirect_table(field, action, key[1], twist=twist)
                assert build_agrees_with_cube(table.mul.copy())
                if table.order > 3:
                    build_agrees_with_cube(corrupted(table, rng))


def cyclic_and_direct_products():
    tables = [cyclic_table(n) for n in (1, 2, 7, 12, 600)]
    tables += [direct_product_table(cyclic_table(a), cyclic_table(b))
               for a, b in ((2, 2), (2, 4), (3, 5), (4, 6), (2, 30))]
    catalog = dict(small_group_catalog())
    tables += [direct_product_table(catalog["S3"], catalog["Q8"]),
               direct_product_table(cyclic_table(3), catalog["D4"])]
    return tables


def extension_tables_at_bound_sixteen(name):
    """The bound-16 extension tables of a bundled candidate and of its lamp group."""
    candidate = bundled(name)
    lamp = LamplighterSpec(candidate.field, candidate.n, None)
    return [semidirect_table(field, action, key[1], twist=twist)
            for source in (candidate.presentation, lamp)
            for key, field, action, twist in quotients._extensions(source, 16, {})]


class TestGeneratingSetAgainstClosureOracle:
    @pytest.mark.parametrize("name", CANDIDATE_NAMES)
    def test_extension_tables_at_bound_sixteen(self, name):
        candidate = bundled(name)
        lamp = LamplighterSpec(candidate.field, candidate.n, None)
        for source in (candidate.presentation, lamp):
            for key, field, action, twist in quotients._extensions(source, 16, {}):
                table = semidirect_table(field, action, key[1], twist=twist)
                assert table.generators == generators_by_closure(table), key

    def test_cyclic_and_direct_products(self):
        for table in cyclic_and_direct_products():
            assert table.generators == generators_by_closure(table), table.order


def same_as_single_builds(muls):
    """build_tables on the whole list, each table against FiniteGroupTable.build alone."""
    batch = quotients.build_tables(muls)
    assert len(batch) == len(muls)
    for mul, table in zip(muls, batch):
        alone = FiniteGroupTable.build(mul)
        assert np.array_equal(table.mul, mul)
        assert (table.order, table.identity, table.generators) == \
            (alone.order, alone.identity, alone.generators)
        for name in ("inverse", "element_orders", "class_sizes"):
            assert np.array_equal(getattr(table, name), getattr(alone, name)), name
        assert table.fingerprint == alone.fingerprint
    return batch


class TestBatchAgainstSingleBuilds:
    def test_mixed_orders_against_oracles(self):
        tables = [cyclic_table(1)]
        for name in CANDIDATE_NAMES:
            tables += extension_tables_at_bound_sixteen(name)
        tables += [table for _, table in small_group_catalog()]
        tables += cyclic_and_direct_products()
        assert len({table.order for table in tables}) > 10
        for table in same_as_single_builds([table.mul for table in tables]):
            assert table.generators == generators_by_closure(table), table.order
            assert table.element_orders.tolist() == element_orders_by_powers(table)
            assert table.fingerprint.abelian_invariants == abelian_invariants_by_quotients(table)

    @settings(max_examples=25, deadline=None)
    @given(st.lists(extension_data(), min_size=1, max_size=4))
    def test_random_extension_batches(self, batch):
        same_as_single_builds([semidirect_table(field, action, m, twist=twist).mul
                               for field, action, m, twist in batch])

    def test_order_one_tables_only(self):
        # compare_qu at bound 1 builds only the trivial group
        batch = same_as_single_builds([np.zeros((1, 1), dtype=np.int32) for _ in range(3)])
        for table in batch:
            assert table.generators == () and table.fingerprint.describe() == "1"


class TestInvariantsAgainstQuotientOracle:
    def test_small_group_catalog(self):
        for _, table in small_group_catalog():
            invariants_match_oracle(table)

    @pytest.mark.parametrize("name", CANDIDATE_NAMES)
    def test_extension_tables_at_bound_sixteen(self, name):
        candidate = bundled(name)
        lamp = LamplighterSpec(candidate.field, candidate.n, None)
        for source in (candidate.presentation, lamp):
            for key, field, action, twist in quotients._extensions(source, 16, {}):
                invariants_match_oracle(semidirect_table(field, action, key[1], twist=twist))

    def test_direct_products_with_several_factors(self):
        c = cyclic_table
        catalog = dict(small_group_catalog())
        cases = [
            (direct_product_table(direct_product_table(c(2), c(4)), c(3)), (2, 12)),
            (catalog["C2xC2xC2"], (2, 2, 2)),
            (direct_product_table(catalog["C4xC2"], c(6)), (2, 2, 12)),
            (direct_product_table(catalog["S3"], c(2)), (2, 2)),
            (direct_product_table(catalog["Q8"], c(3)), (2, 6)),
            (direct_product_table(catalog["D4"], c(2)), (2, 2, 2)),
            # odd primes, and several primes in one factor
            (direct_product_table(c(3), c(9)), (3, 9)),
            (direct_product_table(direct_product_table(c(2), c(8)),
                                  direct_product_table(c(3), c(9))), (6, 72)),
            (direct_product_table(direct_product_table(catalog["S3"], c(3)), c(3)), (3, 6)),
        ]
        for table, factors in cases:
            assert fingerprint(table).abelian_invariants == factors
            invariants_match_oracle(table)


def orders_match_oracle(table):
    """Element orders against the one-power-at-a-time loop."""
    assert np.array_equal(table.element_orders,
                          orders_modulo_by_iteration(table, np.arange(table.order) == table.identity))


class TestReplacedLoopsAgainstOracles:
    def test_small_group_catalog(self):
        for _, table in small_group_catalog():
            orders_match_oracle(table)

    @pytest.mark.parametrize("name", CANDIDATE_NAMES)
    def test_extension_modules_and_tables_at_bound_sixteen(self, name):
        candidate = bundled(name)
        lamp = LamplighterSpec(candidate.field, candidate.n, None)
        for source in (candidate.presentation, lamp):
            pool = {}
            for key, field, action, twist in quotients._extensions(source, 16, pool):
                assert pool[key[:3]][2] == twist_classes_by_cover(field, action, key[1]), key
                orders_match_oracle(semidirect_table(field, action, key[1], twist=twist))

    @settings(max_examples=60, deadline=None)
    @given(block_companion_data())
    def test_random_block_companion_actions(self, data):
        field, chain, m = data
        action = block_companion(chain)
        twists = quotients._twist_classes(chain, m, field.p)
        assert twists == twist_classes_by_cover(field, action, m)
        orders_match_oracle(semidirect_table(field, action, m, twist=twists[-1]))

    def test_every_module_at_bound_sixty_four(self):
        # _extensions reads no BOUND_CAP; at bound 64 the twist classes of
        # modules with p^2 | d occur, for p = 2 and 3
        entries = []
        for name in CANDIDATE_NAMES:
            candidate = bundled(name)
            for source in (candidate.presentation, LamplighterSpec(candidate.field, candidate.n, None)):
                pool = {}
                modules = {key[:3]: (field, action) for key, field, action, _ in
                           quotients._extensions(source, 64, pool)}
                entries += [(module, pool[module][2], *modules[module]) for module in modules]
        assert len(entries) == 905
        assert {p for (p, d, _), twists, *_ in entries if len(twists) > 1 and d % p ** 2 == 0} == {2, 3}
        for module, twists, field, action in entries:
            assert twists == twist_classes_by_cover(field, action, module[1]), module


class TestIsomorphic:
    def test_reflexive_on_pool(self):
        for _, table in small_group_catalog():
            assert isomorphic(table, table)

    def test_cyclic_versus_klein(self):
        assert not isomorphic(cyclic_table(4),
                              direct_product_table(cyclic_table(2), cyclic_table(2)))

    def test_different_truncation_bases_same_group(self):
        # same group built from a free presentation and from an explicit
        # annihilator presentation of the cyclic base module
        t1 = lamp_table(2, 1, 3)
        pres = ModulePresentation.make(F2, 1, [[FpPoly(F2, (1, 0, 0, 1))]])
        t2 = build_group_table(finite_truncation(pres, 3), 3)
        assert isomorphic(t1, t2)

    def test_equal_fingerprint_not_isomorphic(self):
        # t acts on F_5^2 as the scalar 3 in the first group and, through
        # x^2 + 1's companion matrix, as diag(2, 3) up to a change of basis in the
        # second; the fingerprints agree, and only the search tells them apart
        F5 = FieldSpec(5)
        scalar = semidirect_table(F5, [[3, 0], [0, 3]], 4)
        companion = block_companion([FpPoly(F5, (1, 0, 1))])
        assert companion == [[0, 4], [1, 0]]
        rotation = semidirect_table(F5, companion, 4)
        assert scalar.fingerprint == rotation.fingerprint
        assert scalar.fingerprint.describe() == "nonabelian(order=100, exponent=20, ab=C4)"
        assert not isomorphic(scalar, rotation) and not isomorphic(rotation, scalar)
        assert isomorphic(rotation, semidirect_table(F5, [[2, 0], [0, 3]], 4))

    def test_catalog_pairwise_distinct(self):
        catalog = small_group_catalog()
        for i, (name1, g1) in enumerate(catalog):
            for name2, g2 in catalog[i + 1:]:
                assert not isomorphic(g1, g2), f"{name1} vs {name2}"

    def test_equivalence_relation_spot_checks(self):
        rng = random.Random(47)
        pool = [table for _, table in small_group_catalog()]
        pool.append(lamp_table(2, 1, 3))
        pool.append(lamp_table(3, 1, 2))
        for _ in range(60):
            a, b, c = rng.choice(pool), rng.choice(pool), rng.choice(pool)
            ab, bc, ac = isomorphic(a, b), isomorphic(b, c), isomorphic(a, c)
            assert isomorphic(b, a) == ab  # symmetric
            if ab and bc:
                assert ac  # transitive


EXPECTED_BOUND_4 = {("C1",), ("C2",), ("C3",), ("C4",), ("C2", "C2")}


class TestTruncatedQu:
    def test_bound_four_exact_set(self):
        qs = truncated_qu(ModulePresentation.free(F2, 1), 4)
        got = {tuple(f"C{d}" for d in reversed(fp.abelian_invariants)) or ("C1",)
               for fp in qs.fingerprints}
        assert got == EXPECTED_BOUND_4
        assert all(len(fp.element_orders) == fp.order for fp in qs.fingerprints)

    def test_bound_one_trivial(self):
        qs = truncated_qu(ModulePresentation.free(F3, 2), 1)
        assert len(qs.classes) == 1 and qs.classes[0].order == 1

    def test_bound_eight_contains_nonabelian_truncation(self):
        qs = truncated_qu(ModulePresentation.free(F2, 1), 8)
        d4 = semidirect_table(F2, [[0, 1], [1, 0]], 2)
        assert any(fp.order == 8 and isomorphic(t, d4)
                   for t, fp in zip(qs.classes, qs.fingerprints))

    def test_monotone_in_bound(self):
        pres = ModulePresentation.make(F2, 2, [[FpPoly.zero(F2)], [FpPoly(F2, (1, 1, 1))]])
        small = truncated_qu(pres, 4)
        large = truncated_qu(pres, 8)
        for t, fp in zip(small.classes, small.fingerprints):
            assert any(fp == lfp and isomorphic(t, lt)
                       for lt, lfp in zip(large.classes, large.fingerprints))

    def test_kernel_strategy_matches_surjection_search_bound_four(self):
        spec = LamplighterSpec(F2, 1, None)
        qs = truncated_qu(ModulePresentation.free(F2, 1), 4)
        for name, table in small_group_catalog():
            if table.order > 4:
                continue
            admitted = admits_surjection_from_lamplighter(spec, table)
            found = any(isomorphic(table, t) for t in qs.classes)
            assert admitted == found, name

    def test_bound_cap(self):
        with pytest.raises(AlgebraError, match=r"bound 17 outside 1\.\.16"):
            truncated_qu(ModulePresentation.free(F2, 1), 17)

    def test_cyclic_base_lamp_group_rejected(self):
        with pytest.raises(ValueError, match="integer-base group"):
            truncated_qu(LamplighterSpec(F2, 1, 3), 8)


class TestAgainstLatticeRoute:
    """The cyclic-extension route against the normal-subgroup lattice search."""

    @pytest.mark.parametrize("name", CANDIDATE_NAMES)
    def test_bundled_candidates_and_lamp_groups_bounds_one_to_eight(self, name):
        candidate = bundled(name)
        lamp = LamplighterSpec(candidate.field, candidate.n, None)
        for bound in range(1, 9):
            assert fingerprints_agree(candidate.presentation, bound), bound
            assert fingerprints_agree(lamp, bound), bound

    @pytest.mark.parametrize("name", ["free_rank1", "torsion_only"])
    @pytest.mark.parametrize("bound", [12, 16])
    def test_larger_bounds(self, name, bound):
        assert fingerprints_agree(bundled(name).presentation, bound)

    @given(small_modules(), st.integers(1, 8))
    @settings(max_examples=15, deadline=None)
    def test_random_small_modules(self, pres, bound):
        assert fingerprints_agree(pres, bound)


class TestCompareQu:
    def test_self_comparison_equal(self):
        for bound in (2, 4, 6):
            cmp = compare_qu(ModulePresentation.free(F2, 1),
                             ModulePresentation.free(F2, 1), bound)
            assert cmp.equal and cmp.witness is None

    def test_torsion_candidate_differs_at_eight(self):
        pres = ModulePresentation.make(F2, 1, [[FpPoly(F2, (1, 1))]])
        cmp = compare_qu(pres, ModulePresentation.free(F2, 1), 8)
        assert not cmp.equal
        side, fp = cmp.witness
        assert side == "right"  # only the lamp group has it
        assert fp.order == 8 and fp.class_sizes != (1,) * 8  # nonabelian witness

    def test_different_primes_differ_at_four(self):
        cmp = compare_qu(ModulePresentation.free(F2, 1),
                         ModulePresentation.free(F3, 1), 4)
        assert not cmp.equal
        side, fp = cmp.witness
        assert side == "left" and fp.abelian_invariants == (2, 2)

    @pytest.mark.parametrize("name", CANDIDATE_NAMES)
    def test_against_two_sided_route_lamp_groups(self, name):
        candidate = bundled(name)
        lamp = LamplighterSpec(candidate.field, candidate.n, None)
        for bound in range(1, 17):
            assert (compare_qu(candidate.presentation, lamp, bound)
                    == two_sided_compare_qu(candidate.presentation, lamp, bound)), bound

    @pytest.mark.parametrize("name", CANDIDATE_NAMES)
    def test_lamp_group_as_free_presentation(self, name):
        # the lamp side's chain of n zeros is the free module's, read with no SNF
        candidate = bundled(name)
        free = ModulePresentation.free(candidate.field, candidate.n)
        lamp = LamplighterSpec(candidate.field, candidate.n, None)
        assert (compare_qu(candidate.presentation, lamp, 16)
                == compare_qu(candidate.presentation, free, 16))

    @pytest.mark.parametrize("bound", [8, 16])
    def test_against_two_sided_route_candidate_pairs(self, bound):
        for left, right in itertools.product(CANDIDATE_NAMES, repeat=2):
            l_pres, r_pres = bundled(left).presentation, bundled(right).presentation
            assert (compare_qu(l_pres, r_pres, bound)
                    == two_sided_compare_qu(l_pres, r_pres, bound)), (left, right)

    @given(small_modules(), small_modules(), st.integers(1, 12))
    @settings(max_examples=15, deadline=None)
    def test_against_two_sided_route_random_modules(self, left, right, bound):
        assert compare_qu(left, right, bound) == two_sided_compare_qu(left, right, bound)

    def test_one_table_per_distinct_key_and_no_state_across_calls(self, monkeypatch):
        left = bundled("mixed_free_torsion").presentation
        right = LamplighterSpec(F2, 1, None)
        per_side = [[key for key, *_ in quotients._extensions(side, 16, {})]
                    for side in (left, right)]
        keys = set(per_side[0]) | set(per_side[1])
        assert len(keys) < len(per_side[0]) + len(per_side[1])  # the sides share keys
        batches = recorded_batches(monkeypatch)
        first = compare_qu(left, right, 16)
        assert [len(batch) for batch in batches] == [len(keys)]  # one pass for both sides
        second = compare_qu(left, right, 16)
        assert [len(batch) for batch in batches] == [len(keys), len(keys)]
        assert first == second

    def test_builds_no_quotient_table(self, monkeypatch):
        # fingerprints read their invariants inside each extension table, so
        # the only tables built are the extensions themselves
        def forbidden(*args, **kwargs):
            raise AssertionError("quotient_table called")

        monkeypatch.setattr(quotients, "quotient_table", forbidden)
        batches = recorded_batches(monkeypatch)
        pairs = [("free_rank1", "free_rank2_p3"), ("mixed_free_torsion", "torsion_only")]
        for left, right in pairs:
            compare_qu(bundled(left).presentation, bundled(right).presentation, 16)
        distinct_keys = [len({key for name in pair for key, *_ in
                              quotients._extensions(bundled(name).presentation, 16, {})})
                         for pair in pairs]
        assert [len(batch) for batch in batches] == distinct_keys and min(distinct_keys) > 0

    @pytest.mark.parametrize("left, right", [("free_rank1", "free_rank2_p3"),
                                             ("mixed_free_torsion", "torsion_only"),
                                             ("free_rank1", "lamp")])
    def test_one_twist_enumeration_per_module(self, monkeypatch, left, right):
        # the compare-qu golden pairs, whose second pair's sides share modules
        # (p, d, chain), and a candidate against its lamp group, which share every base chain
        candidate = bundled(left)
        sides = [candidate.presentation, LamplighterSpec(candidate.field, candidate.n, None)
                 if right == "lamp" else bundled(right).presentation]
        keys = {key for side in sides for key, *_ in quotients._extensions(side, 16, {})}
        modules = {key[:3] for key in keys}
        grids = {(key[0] if key[3] else 1, len(key[3])) for key in keys}  # F_p^0 reads no p
        calls = {name: [] for name in ("_vector_grid", "_addition_table", "_action_rows",
                                       "_twist_classes", "_order_table", "_dominated_chains")}
        for name in calls:
            def recording(*args, _name=name, _fn=getattr(quotients, name)):
                calls[_name].append(args)
                return _fn(*args)
            monkeypatch.setattr(quotients, name, recording)
        tests, divides = [], FpPoly.divides

        def recording_divides(h, g):
            tests.append((h, g))
            return divides(h, g)

        monkeypatch.setattr(FpPoly, "divides", recording_divides)
        compare_qu(*sides, 16)
        counts = {name: len(args) for name, args in calls.items() if name != "_dominated_chains"}
        assert counts == {"_vector_grid": len(grids), "_addition_table": len(grids),
                          "_action_rows": len(modules), "_twist_classes": len(modules),
                          "_order_table": len({key[0] for key in keys})}  # per p
        # one enumeration per (p, d, c) and distinct base chain; the call keeps one
        # divisor list per (p, d, c), so its id stands for (p, d, c)
        enumerated = [(id(divisors), tuple(h.coeffs for h in base), budget)
                      for base, divisors, budget, _ in calls["_dominated_chains"]]
        assert len(set(enumerated)) == len(enumerated) <= 32
        if right == "lamp":
            assert len(enumerated) == 16  # free_rank1's base chain is the lamp group's at every d
        # each test h | f against an invariant factor, and h | h' within a chain, is
        # made once per comparison, not once per d
        assert tests and len(set(tests)) == len(tests)

    def test_one_fingerprint_per_table(self, monkeypatch):
        made, original = [], quotients.QuotientFingerprint

        def counting(**fields):
            made.append(original(**fields))
            return made[-1]

        monkeypatch.setattr(quotients, "QuotientFingerprint", counting)
        batches = recorded_batches(monkeypatch)
        cmp = compare_qu(bundled("mixed_free_torsion").presentation,
                         LamplighterSpec(F2, 1, None), 8)
        assert cmp.equal
        tables = [table for batch in batches for table in batch]
        assert len(made) == len(tables) > 0
        assert {id(fp) for fp in made} == {id(table.fingerprint) for table in tables}


_BROKEN_TABLES_SCRIPT = """
import json
import sys
import numpy as np
from lamprigid.errors import CertificateError
from lamprigid.quotients import build_tables

cases = {
    "not square": np.zeros((2, 3)),
    "out of range": [[0, 2], [2, 0]],
    "two left identities": [[0, 1], [0, 1]],
    "left identity only": [[0, 1], [0, 0]],
    "monoid": [[0, 1], [1, 1]],
    "non-associative loop": [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3],
                             [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]],
}
# Tables spanning several blocks of rows in the associativity check, whose
# first block (10 rows at order 160, the identity row alone at order 400)
# associates: only a later block can reject them.
loop, idx = np.array(cases["non-associative loop"]), np.arange(160)
a, c = idx // 32, idx % 32
cases["loop x C32"] = loop[np.ix_(a, a)] * 32 + (c[:, None] + c[None, :]) % 32
cyclic = (np.arange(400)[:, None] + np.arange(400)[None, :]) % 400
cyclic[399, [200, 201]] = cyclic[399, [201, 200]]
cases["C400 with two entries swapped"] = cyclic
cyclic = (np.arange(600)[:, None] + np.arange(600)[None, :]) % 600
cyclic[599, [300, 301]] = cyclic[599, [301, 300]]
cases["C600 with two entries swapped"] = cyclic
# Valid tables and a corrupted bound-16 extension table, from standard input
given = json.loads(sys.stdin.read())
valid = [np.array(mul) for mul in given["valid"]]


def verdict(muls):
    try:
        build_tables(muls)
        return "accepted"
    except CertificateError as exc:
        return str(exc)


outcome = {"debug": __debug__, "valid tables": verdict(valid)}
for name, mul in cases.items():
    outcome[name] = verdict([np.array(mul)])
    outcome[name + ", after valid tables"] = verdict(valid + [np.array(mul)])
half = len(valid) // 2
outcome["corrupted extension, mid-batch"] = verdict(
    valid[:half] + [np.array(given["corrupted"])] + valid[half:])
print(json.dumps(outcome))
"""


def test_broken_tables_rejected_under_optimize():
    valid = extension_tables_at_bound_sixteen("free_rank1") + cyclic_and_direct_products()[:4]
    largest = max(extension_tables_at_bound_sixteen("free_rank2_p3"), key=lambda t: t.order)
    given = {"valid": [table.mul.tolist() for table in valid],
             "corrupted": corrupted(largest, random.Random(7)).tolist()}
    proc = subprocess.run([sys.executable, "-O", "-c", _BROKEN_TABLES_SCRIPT], input=json.dumps(given),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    messages = {
        "not square": "table is not square",
        "out of range": "table entry out of range",
        "two left identities": "table has no unique identity",
        "left identity only": "identity fails on the right",
        "monoid": "some element lacks a unique inverse",
        "non-associative loop": "associativity fails",
        "loop x C32": "associativity fails",
        "C400 with two entries swapped": "associativity fails",
        "C600 with two entries swapped": "associativity fails",
    }
    assert json.loads(proc.stdout) == {
        "debug": False,
        "valid tables": "accepted",
        **messages,
        **{name + ", after valid tables": message for name, message in messages.items()},
        "corrupted extension, mid-batch": "associativity fails",
    }
