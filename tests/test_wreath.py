import dataclasses
import json
import math
import pathlib
import random
import subprocess
import sys
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles

from lamprigid import (
    FieldSpec,
    FpPoly,
    GeneratorImages,
    LamplighterSpec,
    ModulePresentation,
    PolyMatrix,
    abelianize,
    build_lamplighter_epimorphism,
    build_group_table,
    cocycle_verify,
    element,
    epimorphism_to_free,
    finite_truncation,
    hom_from_generator_images,
    identity,
    laurent_canonicalize,
    wreath_inv,
    wreath_mul,
    wreath_pow,
    x_pow_minus_one,
)
from lamprigid import jsonio, wreath
from lamprigid.errors import AlgebraError, CertificateError
from lamprigid.wreath import (
    candidate_mul,
    delta,
    lamp_mul,
    shift_lamps,
    translation,
)

ROOT = pathlib.Path(__file__).resolve().parents[1]

F2 = FieldSpec(2)
F3 = FieldSpec(3)

L12 = LamplighterSpec(F2, 1, None)
W123 = LamplighterSpec(F2, 1, 3)


def poly(field, *coeffs):
    return FpPoly(field, tuple(coeffs))


def random_element(rng, spec):
    lamps = {}
    for _ in range(rng.randint(0, 4)):
        idx = rng.randint(-5, 5)
        vec = [rng.randrange(spec.field.p) for _ in range(spec.n)]
        lamps[idx] = vec
    shift = rng.randint(-6, 6)
    return element(spec, lamps, shift)


class TestGroupLaw:
    def test_shift_squares_the_lamp(self):
        a = element(L12, {0: [1]}, 1)
        assert wreath_mul(a, a) == element(L12, {0: [1], 1: [1]}, 2)

    def test_base_subgroup_is_abelian(self):
        a = element(L12, {0: [1], 2: [1]}, 0)
        b = element(L12, {1: [1], 2: [1]}, 0)
        assert wreath_mul(a, b) == wreath_mul(b, a) == element(L12, {0: [1], 1: [1]}, 0)

    def test_cyclic_cancellation(self):
        # (d0, 2)(d1, 2) in (Z/2) wr (Z/3): the shifted d1 lands on index 0
        a = element(W123, {0: [1]}, 2)
        b = element(W123, {1: [1]}, 2)
        assert wreath_mul(a, b) == element(W123, {}, 1)

    def test_cyclic_product_agrees_with_table(self):
        # brute-force check against the 24-element multiplication table
        trunc = finite_truncation(ModulePresentation.free(F2, 1), 3)
        table = build_group_table(trunc, 3)

        def encode(w):
            vec_idx = sum(dict(w.lamps).get(i, (0,) * w.spec.n)[0] * 2 ** i for i in range(3))
            return vec_idx * 3 + w.shift

        rng = random.Random(8)
        for _ in range(300):
            a, b = random_element(rng, W123), random_element(rng, W123)
            assert encode(wreath_mul(a, b)) == table.mul[encode(a), encode(b)]

    def test_spec_mismatch(self):
        with pytest.raises(AlgebraError, match="elements of different wreath products"):
            wreath_mul(identity(L12), identity(W123))

    def test_inverse_examples(self):
        assert wreath_inv(identity(L12)) == identity(L12)
        a = element(L12, {0: [1]}, 0)
        assert wreath_inv(a) == a  # exponent 2
        b = element(L12, {0: [1]}, 1)
        assert wreath_inv(b) == element(L12, {-1: [1]}, -1)
        assert wreath_mul(b, wreath_inv(b)) == identity(L12)

    def test_axioms_randomized(self):
        rng = random.Random(17)
        specs = [L12, W123, LamplighterSpec(F3, 2, None), LamplighterSpec(F3, 2, 4)]
        for _ in range(2000):
            spec = rng.choice(specs)
            a, b, c = (random_element(rng, spec) for _ in range(3))
            assert wreath_mul(wreath_mul(a, b), c) == wreath_mul(a, wreath_mul(b, c))
            assert wreath_mul(a, identity(spec)) == a
            assert wreath_mul(identity(spec), a) == a
            assert wreath_mul(a, wreath_inv(a)) == identity(spec)

    def test_base_elements_have_order_p(self):
        rng = random.Random(19)
        for spec in (L12, W123, LamplighterSpec(F3, 2, 5)):
            for _ in range(50):
                a = random_element(rng, spec)
                base = element(spec, dict(a.lamps), 0)
                assert wreath_pow(base, spec.field.p).is_identity

    def test_translation_order(self):
        t = translation(L12)
        for k in range(1, 12):
            assert wreath_pow(t, k).shift == k  # infinite order: shifts add
        tc = translation(W123)
        assert wreath_pow(tc, 3).is_identity
        assert not wreath_pow(tc, 1).is_identity


class TestAbelianize:
    def test_lamp_sum(self):
        a = element(L12, {0: [1], 3: [1]}, 5)
        assert abelianize(a) == ((0,), 5)  # 1 + 1 = 0 over F_2
        b = element(L12, {0: [1], 3: [1], 4: [1]}, 5)
        assert abelianize(b) == ((1,), 5)

    def test_identity(self):
        assert abelianize(identity(W123)) == ((0,), 0)

    def test_commutators_die(self):
        rng = random.Random(23)
        for spec in (L12, W123):
            for _ in range(300):
                a, b = random_element(rng, spec), random_element(rng, spec)
                comm = wreath_mul(wreath_mul(a, b), wreath_mul(wreath_inv(a), wreath_inv(b)))
                vec, shift = abelianize(comm)
                assert vec == (0,) * spec.n
                assert shift % (spec.base_order or 10 ** 9) == 0

    def test_homomorphism_property(self):
        rng = random.Random(29)
        p = F3.p
        spec = LamplighterSpec(F3, 2, 4)
        for _ in range(300):
            a, b = random_element(rng, spec), random_element(rng, spec)
            va, sa = abelianize(a)
            vb, sb = abelianize(b)
            vab, sab = abelianize(wreath_mul(a, b))
            assert vab == tuple((x + y) % p for x, y in zip(va, vb))
            assert sab == (sa + sb) % 4


def dictionary_accepts(spec, vec, w, sigma=1):
    """Whether w is the image of sum_j vec[j] . gen_j under the canonical map
    gen_j -> delta(0, j), t -> translation by sigma, as the relator check decides
    it: one more generator, sent to w, and the relator sum_j vec[j] gen_j - gen_n."""
    field = spec.field
    relations = PolyMatrix.from_rows(field, [[f] for f in vec] + [[-FpPoly.one(field)]])
    gi = GeneratorImages(source=ModulePresentation(field, spec.n + 1, relations), target=spec,
                         module_gen_images=(*(delta(spec, 0, j) for j in range(spec.n)), w),
                         t_image=translation(spec, sigma))
    try:
        hom_from_generator_images(gi)
    except AlgebraError:
        return False
    return True


class TestDictionary:
    """The coefficient dictionary, as hom_from_generator_images reads it."""

    def test_constant_is_delta_zero(self):
        one = [FpPoly.one(F2)]
        assert dictionary_accepts(W123, one, delta(W123, 0))
        assert not dictionary_accepts(W123, one, delta(W123, 1))
        assert not dictionary_accepts(W123, one, identity(W123))

    def test_quadratic_example(self):
        f = [poly(F2, 1, 0, 1)]
        assert dictionary_accepts(W123, f, element(W123, {0: [1], 2: [1]}))
        assert not dictionary_accepts(W123, f, element(W123, {0: [1], 1: [1]}))
        assert not dictionary_accepts(W123, f, delta(W123, 0))

    def test_round_trip(self):
        # the coefficient of x^i in coordinate j is the lamp value at (i, j), and
        # changing any one lamp value gives an element that is not the image
        rng = random.Random(31)
        spec = LamplighterSpec(F3, 2, 4)
        for _ in range(100):
            vec = [poly(F3, *[rng.randrange(3) for _ in range(4)]) for _ in range(2)]
            img = element(spec, {i: [f.coefficient(i) for f in vec] for i in range(4)})
            assert dictionary_accepts(spec, vec, img)
            i, j = rng.randrange(4), rng.randrange(2)
            lamps = {k: list(v) for k, v in img.lamps}
            lamps.setdefault(i, [0, 0])
            lamps[i][j] = (lamps[i][j] + rng.randrange(1, 3)) % 3
            assert not dictionary_accepts(spec, vec, element(spec, lamps))

    def test_multiplication_by_x_is_the_shift(self):
        # x acts by conjugation with the t-image: the image of f is read off
        # f(x^sigma) mod x^m - 1, and that of x f is it shifted by sigma
        rng = random.Random(37)
        for spec, sigma in ((W123, 1), (LamplighterSpec(F3, 2, 5), 1),
                            (LamplighterSpec(F3, 2, 5), 2)):
            m, p = spec.base_order, spec.field.p
            x, modulus = poly(spec.field, 0, 1), x_pow_minus_one(spec.field, m)
            for _ in range(60):
                vec = [poly(spec.field, *[rng.randrange(p) for _ in range(m)])
                       for _ in range(spec.n)]
                at_sigma = [oracles.substitute_x_power(f, sigma) % modulus for f in vec]
                img = element(spec, {i: [f.coefficient(i) for f in at_sigma] for i in range(m)})
                assert dictionary_accepts(spec, vec, img, sigma)
                assert dictionary_accepts(spec, [x * f for f in vec],
                                          shift_lamps(img, sigma), sigma)


def canonical_hom(t_lamps=None):
    pres = ModulePresentation.free(F2, 1)
    t_image = element(W123, t_lamps or {}, 1)
    gi = GeneratorImages(source=pres, target=W123,
                         module_gen_images=(delta(W123, 0),), t_image=t_image)
    return hom_from_generator_images(gi)


class TestVerifiedHom:
    def test_canonical_reduction_is_surjective(self):
        hom = canonical_hom()
        assert hom.surjective
        assert hom.sigma == 1

    def test_trivial_images_not_surjective(self):
        pres = ModulePresentation.free(F2, 1)
        gi = GeneratorImages(source=pres, target=W123,
                             module_gen_images=(identity(W123),),
                             t_image=translation(W123))
        hom = hom_from_generator_images(gi)
        assert not hom.surjective

    def test_shifted_image_rejected(self):
        pres = ModulePresentation.free(F2, 1)
        # an element of order 4 in (Z/2) wr (Z/4) necessarily has a shift
        w124 = LamplighterSpec(F2, 1, 4)
        bad = element(w124, {0: [1]}, 2)
        assert not wreath_pow(bad, 2).is_identity  # order 4
        gi = GeneratorImages(source=pres, target=w124,
                             module_gen_images=(bad,), t_image=translation(w124))
        with pytest.raises(AlgebraError, match="image of generator 0 has shift 2"):
            hom_from_generator_images(gi)

    def test_non_invertible_shift_rejected(self):
        pres = ModulePresentation.free(F2, 1)
        w124 = LamplighterSpec(F2, 1, 4)
        gi = GeneratorImages(source=pres, target=w124,
                             module_gen_images=(delta(w124, 0),),
                             t_image=element(w124, {}, 2))
        with pytest.raises(AlgebraError, match="t-image shift 2 is not invertible mod 4"):
            hom_from_generator_images(gi)

    def test_relator_violation(self):
        pres = ModulePresentation.make(F2, 1, [[poly(F2, 1, 1, 1)]])
        # x^2 + x + 1 does not kill d0 in (Z/2) wr (Z/3): image is d0+d1+d2
        gi = GeneratorImages(source=pres, target=W123,
                             module_gen_images=(delta(W123, 0),),
                             t_image=translation(W123))
        with pytest.raises(AlgebraError, match="relator 0 not satisfied"):
            hom_from_generator_images(gi)

    def test_torsion_candidate_admits_hom(self):
        # N = R/(x^3 - 1) maps onto the base of (Z/2) wr (Z/3)
        pres = ModulePresentation.make(F2, 1, [[poly(F2, 1, 0, 0, 1)]])
        gi = GeneratorImages(source=pres, target=W123,
                             module_gen_images=(delta(W123, 0),),
                             t_image=translation(W123))
        assert hom_from_generator_images(gi).surjective

    def test_nonstandard_unit_shift(self):
        pres = ModulePresentation.free(F2, 1)
        w125 = LamplighterSpec(F2, 1, 5)
        gi = GeneratorImages(source=pres, target=w125,
                             module_gen_images=(delta(w125, 0),),
                             t_image=element(w125, {}, 2))
        hom = hom_from_generator_images(gi)
        assert hom.sigma == 2 and hom.sigma_inverse == 3
        # normalized t-image has shift 1
        assert hom.normalized(wreath_pow(gi.t_image, 1)).shift == 1


class TestCocycle:
    def test_shift_only_hom_has_zero_section(self):
        hom = canonical_hom()
        report = cocycle_verify(hom, 9)
        values = dict(report.values)
        assert all(v.is_identity for v in values.values())

    def test_unrolled_recurrence(self):
        hom = canonical_hom(t_lamps={0: [1]})
        values = dict(cocycle_verify(hom, 9).values)
        assert values[0].is_identity
        assert values[1] == delta(W123, 0)
        assert values[2] == element(W123, {0: [1], 1: [1]}, 0)
        assert values[3] == element(W123, {0: [1], 1: [1], 2: [1]}, 0)
        assert values[6].is_identity  # 2 * g(3) = 0 over F_2

    def test_every_example_hom_passes_at_three_m(self):
        homs = [canonical_hom(), canonical_hom(t_lamps={0: [1]}),
                canonical_hom(t_lamps={1: [1], 2: [1]})]
        pres = ModulePresentation.free(F3, 2)
        w325 = LamplighterSpec(F3, 2, 5)
        gi = GeneratorImages(
            source=pres, target=w325,
            module_gen_images=(delta(w325, 0, 0), delta(w325, 0, 1)),
            t_image=element(w325, {2: [1, 2]}, 3))
        homs.append(hom_from_generator_images(gi))
        for hom in homs:
            m = hom.target.base_order
            report = cocycle_verify(hom, 3 * m)
            assert report.pairs_checked == (6 * m + 1) ** 2

    def test_wrong_normalizing_unit_is_a_certificate_failure(self):
        # the two base-order-5 homs of acceptance criterion 07; sigma_inverse is
        # computed, so a wrong one is a corrupted hom, not a rejected input
        w125, w325 = LamplighterSpec(F2, 1, 5), LamplighterSpec(F3, 2, 5)
        homs = [
            hom_from_generator_images(GeneratorImages(
                source=ModulePresentation.free(F2, 1), target=w125,
                module_gen_images=(delta(w125, 0),), t_image=element(w125, {3: [1]}, 2))),
            hom_from_generator_images(GeneratorImages(
                source=ModulePresentation.free(F3, 2), target=w325,
                module_gen_images=(delta(w325, 0, 0), delta(w325, 0, 1)),
                t_image=element(w325, {2: [1, 2]}, 3))),
        ]
        assert [(hom.sigma, hom.sigma_inverse) for hom in homs] == [(2, 3), (3, 2)]
        for hom in homs:
            for u in set(range(5)) - {hom.sigma_inverse}:
                with pytest.raises(CertificateError, match=r"cocycle identity failed at \("):
                    cocycle_verify(dataclasses.replace(hom, sigma_inverse=u), 15)

    @pytest.mark.parametrize("k", [2, 3])
    def test_section_corrupted_at_a_multiple_fails_a_pair(self, monkeypatch, k):
        # g(km) = k g(m) has no check of its own: the pairs imply it
        hom = canonical_hom(t_lamps={0: [1]})
        m, intact = hom.target.base_order, type(hom).section_lamp

        def corrupted(self, j):
            lamp = intact(self, j)
            return wreath_mul(lamp, delta(W123, 1)) if j == k * m else lamp

        monkeypatch.setattr(type(hom), "section_lamp", corrupted)
        with pytest.raises(CertificateError, match=r"cocycle identity failed at \("):
            cocycle_verify(hom, 3 * m)


NOT_CERTIFIED = "phi is not the certified projection onto the free coordinates"


class TestGroupEpimorphism:
    def test_free_identity_map(self):
        pres = ModulePresentation.free(F2, 1)
        phi = epimorphism_to_free(pres, 1)
        epi = build_lamplighter_epimorphism(pres, phi)
        a = (laurent_canonicalize(F2, [(0, 1), (2, 1)]),)
        img = oracles.image_of_one(epi, (a, 3))
        assert img == element(epi.target, {0: [1], 2: [1]}, 3)

    def test_torsion_killed_and_law_sampled(self):
        pres = ModulePresentation.make(F2, 2, [[FpPoly.zero(F2)], [poly(F2, 1, 1, 1)]])
        phi = epimorphism_to_free(pres, 1)
        epi = build_lamplighter_epimorphism(pres, phi)
        report = epi.law_check(samples=1000, seed=3)
        assert report.samples == 1000
        # the torsion generator maps to trivial lamps
        img = oracles.image_of_one(
            epi, ((laurent_canonicalize(F2, []), laurent_canonicalize(F2, [(0, 1)])), 0))
        assert img.is_identity

    def test_not_surjective_rejected(self):
        pres = ModulePresentation.free(F2, 1)
        # x is a unit of the Laurent ring, so [[x]] is onto, but it is not the
        # certified projection, which is [[1]]
        for phi in ([[poly(F2, 0, 1)]], [[poly(F2, 1, 1)]]):
            with pytest.raises(CertificateError, match=NOT_CERTIFIED):
                build_lamplighter_epimorphism(pres, PolyMatrix.from_rows(F2, phi))

    def test_relation_not_killed(self):
        # R/(1 + x) is torsion only: no phi is certified on it
        pres = ModulePresentation.make(F2, 1, [[poly(F2, 1, 1)]])
        phi = PolyMatrix.from_rows(F2, [[FpPoly.one(F2)]])
        with pytest.raises(CertificateError, match=NOT_CERTIFIED):
            build_lamplighter_epimorphism(pres, phi)

    def test_semidirect_law_on_random_samples(self):
        rng = random.Random(41)
        for _ in range(3):
            pres = ModulePresentation.free(F3, 2)
            phi = epimorphism_to_free(pres, 2)
            epi = build_lamplighter_epimorphism(pres, phi)
            epi.law_check(samples=300, seed=rng.randint(0, 10 ** 6))


def chain_presentation(field, generators):
    """R^g modulo e_(i+1) = (x + i) e_i: free of rank 1, its phi has degree g - 1."""
    rows = [[FpPoly.zero(field)] * (generators - 1) for _ in range(generators)]
    for i in range(generators - 1):
        rows[i][i] = -poly(field, i % field.p, 1)
        rows[i + 1][i] = FpPoly.one(field)
    return ModulePresentation.make(field, generators, rows)


# torsion_only has free rank 0, so no epimorphism and no law check.
LAW_CASES = ("free_rank1", "free_rank2_p3", "mixed_free_torsion", "disguised16", "large_p",
             "wide_p")


def law_case_epi(name):
    if name == "disguised16":
        pres, n = chain_presentation(F3, 16), 1
    else:
        path = (ROOT / "tests" / "data" / f"{name}.json" if name in ("large_p", "wide_p")
                else ROOT / "candidates" / f"{name}.json")
        candidate = jsonio.parse_candidate(json.loads(path.read_text()))
        pres, n = candidate.presentation, candidate.n
    return build_lamplighter_epimorphism(pres, epimorphism_to_free(pres, n))


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("name", LAW_CASES)
def test_batched_law_matches_laurent_oracle(name, seed, monkeypatch):
    """Every batch the law check draws holds the pairs of the scalar decoder,
    and both of its sides, and _image on each element alone, agree with
    LaurentPoly arithmetic pair by pair."""
    epi = law_case_epi(name)
    field, p = epi.source.field, epi.source.field.p
    assert (epi.phi.coeffs.dtype == object) == (name in ("large_p", "wide_p"))
    draw = wreath._draw_elements
    drawn = []

    def recording(*args):
        drawn.append(draw(*args))
        return drawn[-1]

    monkeypatch.setattr(wreath, "_draw_elements", recording)
    assert epi.law_check(samples=1000, seed=seed).samples == 1000

    pairs = oracles.law_pairs(field, epi.source.generators, 1000, seed)
    elements = [x for pair in pairs for x in pair]
    # coordinate-major: coeffs[j, b, e], one column of axis 1 per element
    assert [coeffs.shape[1] for coeffs, _, _ in drawn] == [256] * 7 + [208]
    assert all(coeffs.shape[0] == epi.source.generators for coeffs, _, _ in drawn)
    assert all(lo == -2 for _, lo, _ in drawn)
    assert [int(k) for _, _, shifts in drawn for k in shifts] == [k for _, k in elements]
    assert [[[int(c) for c in coeffs[j, b]] for j in range(coeffs.shape[0])]
            for coeffs, _, _ in drawn for b in range(coeffs.shape[1])] \
        == [[[f.coefficient(e) for e in range(-2, 4)] for f in a] for a, _ in elements]

    coeffs, lo, shifts = drawn[0]
    a = (coeffs[:, 0::2], lo, shifts[0::2])
    b = (coeffs[:, 1::2], lo, shifts[1::2])
    lhs = oracles.lamp_elements(epi.target, epi._image(candidate_mul(a, b, p)))
    rhs = oracles.lamp_elements(epi.target, lamp_mul(epi._image(a), epi._image(b), p))
    for (x, y), left, right in zip(pairs, lhs, rhs):
        fx, fy = oracles.laurent_evaluate(epi, x), oracles.laurent_evaluate(epi, y)
        assert oracles.image_of_one(epi, x) == fx and oracles.image_of_one(epi, y) == fy
        assert left == oracles.laurent_evaluate(epi, oracles.laurent_candidate_mul(x, y))
        assert right == wreath_mul(fx, fy) == left


@pytest.mark.parametrize("p", [2, 3, 251, 10 ** 18 + 3, 2 ** 64 + 13])
def test_law_draws_cover_residues_keep_flags_and_shifts(p, monkeypatch):
    """The draws of one default law check reach every residue of a small p and
    the top half of a large one, keep about half of the coefficients, and take
    every shift -3..3."""
    pres = ModulePresentation.free(FieldSpec(p), 1)
    epi = build_lamplighter_epimorphism(pres, epimorphism_to_free(pres, 1))
    draw = wreath._draw_elements
    drawn = []

    def recording(*args):
        drawn.append(draw(*args))
        return drawn[-1]

    monkeypatch.setattr(wreath, "_draw_elements", recording)
    epi.law_check()
    values = [int(c) for coeffs, _, _ in drawn for c in coeffs.ravel()]
    if p < 256:
        assert set(values) == set(range(p))
    else:
        assert max(values) >= 2 ** 32 and max(values) >= p // 2
    # a coefficient is zero when dropped, or kept with the value 0
    assert abs(values.count(0) / len(values) - (1 + 1 / p) / 2) < 0.02
    assert {int(k) for _, _, shifts in drawn for k in shifts} == set(range(-3, 4))


@pytest.mark.parametrize("p", [2, 257, 65537, 2 ** 31 - 1, 2 ** 61 - 1, 2 ** 64 + 13])
def test_law_draws_match_decoder_at_each_width(p, monkeypatch):
    """Residues of 1, 2, 3, 4, 8 and 9 bytes, decoded in uint8, uint16, uint32,
    uint32, uint64 and Python integers, give the scalar decoder's elements,
    including those of the short last chunk."""
    field = FieldSpec(p)
    pres = ModulePresentation.free(field, 2)
    epi = build_lamplighter_epimorphism(pres, epimorphism_to_free(pres, 2))
    draw = wreath._draw_elements
    drawn = []

    def recording(*args):
        drawn.append(draw(*args))
        return drawn[-1]

    monkeypatch.setattr(wreath, "_draw_elements", recording)
    epi.law_check(samples=300, seed=7)
    assert [coeffs.shape for coeffs, _, _ in drawn] == [(2, 256, 6), (2, 256, 6), (2, 88, 6)]
    assert all(coeffs.flags.c_contiguous and lo == -2 for coeffs, lo, _ in drawn)
    got = [([[int(c) for c in coeffs[j, b]] for j in range(2)], int(shifts[b]))
           for coeffs, _, shifts in drawn for b in range(coeffs.shape[1])]
    pairs = oracles.law_pairs(field, 2, 300, 7)
    assert got == [([[f.coefficient(e) for e in range(-2, 4)] for f in a], k)
                   for pair in pairs for a, k in pair]


def test_law_check_maps_each_batch_with_two_products(monkeypatch):
    """A chunk costs one product with phi for the drawn batch, f(a) and f(b)
    split from it, and one for f(ab); _image reads a C-contiguous (g, B, W)
    array, so the product needs no copy of the batch."""
    epi = law_case_epi("free_rank2_p3")
    g = epi.source.generators
    mul_sums, image = wreath._mul_sums, type(epi)._image
    products, batches = [], []

    def counting(*args):
        products.append(args)
        return mul_sums(*args)

    def recording(self, batch):
        batches.append(batch[0])
        return image(self, batch)

    monkeypatch.setattr(wreath, "_mul_sums", counting)
    monkeypatch.setattr(type(epi), "_image", recording)
    epi.law_check(samples=1000)
    assert len(products) == 16
    assert [c.shape[1] for c in batches] == [m for n in [256] * 7 + [208] for m in (n, n // 2)]
    assert all(c.ndim == 3 and c.shape[0] == g and c.flags.c_contiguous for c in batches)


def test_law_check_memory_does_not_grow_with_samples():
    epi = law_case_epi("disguised16")
    epi.law_check(samples=10)  # first-use allocations stay out of the peaks
    peaks = []
    for samples in (1000, 8000):
        tracemalloc.start()
        try:
            epi.law_check(samples=samples)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.25 * peaks[0], peaks


_BROKEN_LAW_SCRIPT = """
import json
from lamprigid import FieldSpec, ModulePresentation, build_lamplighter_epimorphism
from lamprigid import epimorphism_to_free, wreath
from lamprigid.errors import CertificateError

pres = ModulePresentation.free(FieldSpec(2), 1)
epi = build_lamplighter_epimorphism(pres, epimorphism_to_free(pres, 1))


def untwisted(x, y, p):
    # (a, k)(a', k') = (a + a', k + k'): drops the x^k twist of the candidate law
    # or, on lamps, the translation of the right factor; neither is the group law
    return (x[0] + y[0]) % p, x[1], x[2] + y[2]


def outcome():
    try:
        epi.law_check(samples=1000, seed=0)
        return "accepted"
    except CertificateError as exc:
        return str(exc)


result = {"debug": __debug__}
for law in ("candidate_mul", "lamp_mul"):
    intact = getattr(wreath, law)
    setattr(wreath, law, untwisted)
    result["broken " + law] = outcome()
    setattr(wreath, law, intact)
result["intact"] = outcome()
print(json.dumps(result))
"""


_CORRUPTED_PHI_SCRIPT = """
import json
from lamprigid import FieldSpec, FpPoly, ModulePresentation, PolyMatrix
from lamprigid import build_lamplighter_epimorphism, epimorphism_to_free
from lamprigid.errors import CertificateError

field = FieldSpec(2)
pres = ModulePresentation.make(field, 2, [[FpPoly.zero(field)], [FpPoly(field, (1, 1, 1))]])
result = {"debug": __debug__}
for name, phi in (("intact", epimorphism_to_free(pres, 1)),
                  ("all-zero", PolyMatrix.zeros(field, 1, 2))):
    try:
        build_lamplighter_epimorphism(pres, phi)
        result[name] = "accepted"
    except CertificateError as exc:
        result[name] = str(exc)
print(json.dumps(result))
"""


def test_corrupted_phi_rejected_under_optimize():
    proc = subprocess.run([sys.executable, "-O", "-c", _CORRUPTED_PHI_SCRIPT],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"debug": False, "intact": "accepted",
                                       "all-zero": NOT_CERTIFIED}


def test_broken_law_rejected_under_optimize():
    proc = subprocess.run([sys.executable, "-O", "-c", _BROKEN_LAW_SCRIPT],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {
        "debug": False,
        "broken candidate_mul": "homomorphism law failed on a sampled pair",
        "broken lamp_mul": "homomorphism law failed on a sampled pair",
        "intact": "accepted",
    }


class TestScaleShiftHelpers:
    def test_shift_wraps_cyclically(self):
        a = element(W123, {2: [1]}, 0)
        assert shift_lamps(a, 1) == element(W123, {0: [1]}, 0)


@st.composite
def base_pair_and_element(draw):
    """Two base elements and any element of (Z/pZ)^n wr Z/m, p in {2, 3, 5},
    n <= 2, m <= 5."""
    p, n, m = draw(st.sampled_from([2, 3, 5])), draw(st.integers(1, 2)), draw(st.integers(1, 5))
    spec = LamplighterSpec(FieldSpec(p), n, m)
    lamps = st.dictionaries(st.integers(-m, 2 * m),
                            st.lists(st.integers(0, p - 1), min_size=n, max_size=n))
    a, b, t_lamps = (draw(lamps) for _ in range(3))
    return spec, element(spec, a), element(spec, b), element(spec, t_lamps, draw(st.integers()))


@settings(max_examples=200, deadline=None)
@given(base_pair_and_element())
def test_base_facts_that_hom_verification_relies_on(case):
    # hom_from_generator_images checks only that module images are base-valued:
    # base elements have order dividing p, commute, and t-conjugation shifts them
    spec, a, b, t = case
    assert wreath_pow(a, spec.field.p).is_identity
    assert wreath_mul(a, b) == wreath_mul(b, a)
    assert wreath_mul(wreath_mul(t, a), wreath_inv(t)) == shift_lamps(a, t.shift)


@st.composite
def relator_case(draw):
    """Base-valued images of 1-3 generators in (Z/pZ)^n wr Z/m, p in {2, 3, 5},
    n <= 2, m <= 6, a t-image of any unit shift sigma, and 0-3 relator columns of
    degree up to 3m. A column is random, or (x^m - 1) f, or, when the last image's
    lamp polynomials are c times the first's (0 < deg c < m, so the product needs
    the fold by x^m = 1), that plus c(x^(1 / sigma)) in the first row and -1 in the
    last: the images kill it only if x acts as x^sigma on the right lamps."""
    p, n, m = draw(st.sampled_from([2, 3, 5])), draw(st.integers(1, 2)), draw(st.integers(1, 6))
    field, spec = FieldSpec(p), LamplighterSpec(FieldSpec(p), n, m)
    g, cols = draw(st.integers(1, 3)), draw(st.integers(0, 3))
    sigma = draw(st.sampled_from([s for s in range(m) if math.gcd(s, m) == 1]))
    lamps = st.dictionaries(st.integers(0, m - 1),
                            st.lists(st.integers(0, p - 1), min_size=n, max_size=n))
    images = [element(spec, draw(lamps)) for _ in range(g)]
    modulus = x_pow_minus_one(field, m)

    def random_poly(degree):
        return FpPoly(field, tuple(draw(st.lists(st.integers(0, p - 1), max_size=degree + 1))))

    kinds = ["random", "multiple"]
    if g > 1 and m > 2:
        low = draw(st.lists(st.integers(0, p - 1), min_size=1, max_size=m - 1))
        c = FpPoly(field, tuple(low) + (draw(st.integers(1, p - 1)),))
        images[0] = element(spec, draw(lamps.filter(bool)))
        last = [(c * lamp) % modulus for lamp in oracles.lamp_polynomials(images[0])]
        images[-1] = element(spec, [(i, [f.coefficient(i) for f in last]) for i in range(m)])
        kinds.append("dependent")
    columns = []
    for _ in range(cols):
        kind = draw(st.sampled_from(kinds))
        column = [random_poly(3 * m) if kind == "random" else modulus * random_poly(2 * m - 1)
                  for _ in range(g)]
        if kind == "dependent":
            unit = pow(sigma, -1, m) if m > 1 else 0
            column[0] += oracles.substitute_x_power(c, unit) % modulus
            column[-1] -= FpPoly.one(field)
        columns.append(column)
    relations = PolyMatrix.from_rows(field, [[col[k] for col in columns] for k in range(g)])
    return GeneratorImages(source=ModulePresentation(field, g, relations), target=spec,
                           module_gen_images=tuple(images),
                           t_image=element(spec, draw(lamps), sigma))


@settings(max_examples=300, deadline=None)
@given(relator_case())
def test_relators_decided_as_the_fppoly_oracle(gi):
    # the relator check reads the coefficient dictionary and the x^sigma action
    # off one array product; the oracle composes and reduces entry by entry
    failing = [c for c, image in enumerate(oracles.relator_images(gi)) if any(image)]
    if failing:
        with pytest.raises(AlgebraError, match=rf"^relator {failing[0]} not satisfied: "):
            hom_from_generator_images(gi)
    else:
        hom_from_generator_images(gi)


def _example_generator_images():
    """Generator images of every example hom in this file and in the acceptance
    suite, plus images of 1 + x, where the lamp part of t-image^m decides."""
    free2 = ModulePresentation.free(F2, 1)
    torsion = ModulePresentation.make(F2, 1, [[poly(F2, 1, 0, 0, 1)]])
    w124, w125 = LamplighterSpec(F2, 1, 4), LamplighterSpec(F2, 1, 5)
    w325 = LamplighterSpec(F3, 2, 5)
    one_plus_x = element(W123, {0: [1], 1: [1]})
    cases = [(free2, W123, (delta(W123, 0),), element(W123, t_lamps, 1))
             for t_lamps in ({}, {0: [1]}, {1: [1], 2: [1]})]
    cases += [
        (free2, W123, (identity(W123),), translation(W123)),
        (torsion, W123, (delta(W123, 0),), translation(W123)),
        (free2, w124, (delta(w124, 0),), translation(w124)),
        (free2, w125, (delta(w125, 0),), element(w125, {}, 2)),
        (free2, w125, (delta(w125, 0),), element(w125, {3: [1]}, 2)),
        (ModulePresentation.free(F3, 2), w325, (delta(w325, 0, 0), delta(w325, 0, 1)),
         element(w325, {2: [1, 2]}, 3)),
        (free2, W123, (one_plus_x,), translation(W123)),
        (free2, W123, (one_plus_x,), element(W123, {0: [1]}, 1)),
    ]
    return [GeneratorImages(source=source, target=target, module_gen_images=images,
                            t_image=t_image)
            for source, target, images, t_image in cases]


def test_surjectivity_matches_bfs_oracle():
    verdicts = []
    for gi in _example_generator_images():
        surjective = hom_from_generator_images(gi).surjective
        assert surjective == oracles.bfs_surjective(gi), gi
        verdicts.append(surjective)
    assert verdicts == [True] * 3 + [False, True, True, True, True, True, False, True]



def test_random_surjectivity_matches_bfs_oracle():
    # sources of rank r <= 2 with 0-2 relator columns (x^m - 1) f into
    # (Z/pZ)^n wr Z/m, n <= 2: every base-valued image set and every unit t-shift
    # kills those columns and is a homomorphism, onto or not; the relator check and
    # surjectivity read one lamp array
    rng = random.Random(19)
    verdicts = set()
    for _ in range(60):
        field = rng.choice([F2, F3])
        rank, n, m = rng.randint(1, 2), rng.randint(1, 2), rng.randint(1, 4)
        spec = LamplighterSpec(field, n, m)

        def lamps():
            return {i: [rng.randrange(field.p) for _ in range(n)]
                    for i in range(m) if rng.random() < 0.4}

        sigma = rng.choice([s for s in range(1, m + 1) if math.gcd(s, m) == 1])
        cols = rng.randint(0, 2)
        relations = PolyMatrix.from_rows(field, [
            [x_pow_minus_one(field, m) * FpPoly(field, [rng.randrange(field.p) for _ in range(m)])
             for _ in range(cols)] for _ in range(rank)])
        gi = GeneratorImages(source=ModulePresentation(field, rank, relations), target=spec,
                             module_gen_images=tuple(element(spec, lamps()) for _ in range(rank)),
                             t_image=element(spec, lamps(), sigma))
        surjective = hom_from_generator_images(gi).surjective
        assert surjective == oracles.bfs_surjective(gi), gi
        verdicts.add(surjective)
    assert verdicts == {True, False}
