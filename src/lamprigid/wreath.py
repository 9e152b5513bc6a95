"""Group arithmetic in lamp groups (Z/pZ)^n wr Z and (Z/pZ)^n wr (Z/mZ).

Elements are pairs (lamps, shift): a finitely supported map from base indices
to vectors in F_p^n, plus a base translation. Multiplication shifts the right
factor's support by the left factor's translation before adding lamps. The
base subgroup (shift zero) is an F_p-space, and conjugation by the translation
generator realizes multiplication by x under the coefficient dictionary:
coefficient of x^i in coordinate j  <->  lamp value at index i, coordinate j.

Homomorphisms out of a module semidirect product are verified from generator
images: images of module generators must be base-valued, must satisfy every
relator column with x acting as conjugation by the t-image, and the t-image's
shift must be invertible mod m so that the normalizing automorphism (forcing
the t-image shift to 1) exists. The normalization is recorded, not applied to
the user's data.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import AlgebraError, require
from .fppoly import FieldSpec
from .laurent_modules import ModulePresentation, decompose, epimorphism_to_free
from .polymatrix import PolyMatrix, _mul_sums, smith_normal_form


@dataclass(frozen=True)
class LamplighterSpec:
    """Lamp rank n over F_p with an integer base (base_order None) or Z/mZ base."""

    field: FieldSpec
    n: int
    base_order: int | None = None

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("lamp rank must be positive")
        if self.base_order is not None and self.base_order < 1:
            raise ValueError("cyclic base order must be positive")

    @property
    def is_cyclic(self) -> bool:
        return self.base_order is not None

    def reduce_index(self, i: int) -> int:
        return i % self.base_order if self.base_order else i


@dataclass(frozen=True)
class WreathElement:
    """Canonical pair (lamps, shift); lamp entries sorted, nonzero, index-reduced."""

    spec: LamplighterSpec
    lamps: tuple[tuple[int, tuple[int, ...]], ...]
    shift: int

    def __post_init__(self):
        p = self.spec.field.p
        acc: dict[int, list[int]] = {}
        for idx, vec in self.lamps:
            if len(vec) != self.spec.n:
                raise ValueError("lamp vector has wrong length")
            key = self.spec.reduce_index(idx)
            cur = acc.setdefault(key, [0] * self.spec.n)
            for t, c in enumerate(vec):
                cur[t] = (cur[t] + c) % p
        cleaned = tuple(
            (i, tuple(v)) for i, v in sorted(acc.items()) if any(v)
        )
        object.__setattr__(self, "lamps", cleaned)
        object.__setattr__(self, "shift", self.spec.reduce_index(self.shift))

    @property
    def is_identity(self) -> bool:
        return not self.lamps and self.shift == 0

    @property
    def in_base(self) -> bool:
        return self.shift == 0

    def __str__(self) -> str:
        body = ", ".join(f"{i}:{list(v)}" for i, v in self.lamps) or "-"
        return f"({body} | t^{self.shift})"


def element(spec: LamplighterSpec,
            lamps: Mapping[int, Sequence[int]] | Iterable[tuple[int, Sequence[int]]],
            shift: int = 0) -> WreathElement:
    items = lamps.items() if isinstance(lamps, Mapping) else lamps
    return WreathElement(spec, tuple((i, tuple(v)) for i, v in items), shift)


def identity(spec: LamplighterSpec) -> WreathElement:
    return WreathElement(spec, (), 0)


def delta(spec: LamplighterSpec, idx: int = 0, coord: int = 0, value: int = 1) -> WreathElement:
    """Single lamp at the given index and coordinate."""
    vec = [0] * spec.n
    vec[coord] = value
    return element(spec, [(idx, vec)], 0)


def translation(spec: LamplighterSpec, k: int = 1) -> WreathElement:
    return WreathElement(spec, (), k)


def _check_specs(a: WreathElement, b: WreathElement) -> None:
    if a.spec != b.spec:
        raise AlgebraError("elements of different wreath products")


def wreath_mul(a: WreathElement, b: WreathElement) -> WreathElement:
    """(L1, g1)(L2, g2) = (L1 + g1.L2, g1 + g2), where (g1.L2)(i) = L2(i - g1)."""
    _check_specs(a, b)
    merged = list(a.lamps) + [(i + a.shift, v) for i, v in b.lamps]
    return WreathElement(a.spec, tuple(merged), a.shift + b.shift)


def wreath_inv(a: WreathElement) -> WreathElement:
    """(L, g)^(-1) = (-((-g).L), -g)."""
    p = a.spec.field.p
    inv_lamps = tuple(
        (i - a.shift, tuple((-c) % p for c in v)) for i, v in a.lamps
    )
    return WreathElement(a.spec, inv_lamps, -a.shift)


def wreath_pow(a: WreathElement, k: int) -> WreathElement:
    if k < 0:
        return wreath_pow(wreath_inv(a), -k)
    out = identity(a.spec)
    base = a
    while k:
        if k & 1:
            out = wreath_mul(out, base)
        base = wreath_mul(base, base)
        k >>= 1
    return out


def abelianize(a: WreathElement) -> tuple[tuple[int, ...], int]:
    """Image in (Z/pZ)^n x base: sum of the lamp vectors, plus the shift."""
    p = a.spec.field.p
    total = [0] * a.spec.n
    for _, v in a.lamps:
        for t, c in enumerate(v):
            total[t] = (total[t] + c) % p
    return tuple(total), a.shift


def shift_lamps(a: WreathElement, k: int) -> WreathElement:
    """Translate the support by k: conjugation by t^k on base elements."""
    return WreathElement(a.spec, tuple((i + k, v) for i, v in a.lamps), a.shift)


# --- verified homomorphisms --------------------------------------------------

@dataclass(frozen=True)
class GeneratorImages:
    """Proposed images for the generators of a module semidirect product.

    The source group is N x| Z with t acting as multiplication by x on the
    presented module N; module generator images must be base-valued in the
    finite target and the t-image drives the x-action by conjugation.
    """

    source: ModulePresentation
    target: LamplighterSpec
    module_gen_images: tuple[WreathElement, ...]
    t_image: WreathElement

    def __post_init__(self):
        if not self.target.is_cyclic:
            raise AlgebraError("verification target must have a cyclic base")
        if self.target.field != self.source.field:
            raise AlgebraError("source and target over different prime fields")
        if len(self.module_gen_images) != self.source.generators:
            raise ValueError("one image per module generator required")
        for w in tuple(self.module_gen_images) + (self.t_image,):
            if w.spec != self.target:
                raise AlgebraError("image lives in a different group")


@dataclass(frozen=True)
class VerifiedHom:
    """A checked homomorphism N x| Z -> (Z/pZ)^n wr (Z/mZ).

    sigma is the t-image's shift; sigma_inverse is the recorded normalizing
    automorphism (index relabeling by sigma_inverse) that moves the t-image
    shift to 1 without touching the supplied images.
    """

    images: GeneratorImages
    sigma: int
    sigma_inverse: int
    surjective: bool

    @property
    def target(self) -> LamplighterSpec:
        return self.images.target

    def normalized(self, w: WreathElement) -> WreathElement:
        """Apply the recorded automorphism, base index i -> sigma_inverse * i; the
        normalized t-image has shift 1."""
        u = self.sigma_inverse
        return WreathElement(self.target, tuple((u * i, v) for i, v in w.lamps), u * w.shift)

    def section_lamp(self, k: int) -> WreathElement:
        """Lamp part of the normalized image of (0, k)."""
        w = self.normalized(wreath_pow(self.images.t_image, k))
        return element(self.target, w.lamps, 0)


def hom_from_generator_images(gi: GeneratorImages) -> VerifiedHom:
    """Check the proposed images and return the homomorphism they define.

    Checks, in the finite target: base-valuedness, invertibility of the
    t-image shift mod m, and every relator column (x acting by t-image
    conjugation). Base-valued images need no further check: the base of
    (Z/pZ)^n wr Z/m is an F_p-vector space, so they have order dividing p and
    commute, and (T, s)(L, 0)(T, s)^-1 = (s.L, 0) for every t-image (T, s).
    The base is cyclic (GeneratorImages rejects any other target), so it is
    the F_p[x]-module (F_p[x]/(x^m - 1))^n, the lamp at index i in coordinate j
    read as the coefficient of x^i in coordinate j. Conjugation by the t-image
    (T, sigma) sends (L, 0) to (x^sigma L, 0), so relator column c maps to
    sum_k rel[k, c](x^sigma) L_k mod x^m - 1, L_k the lamp polynomials of
    generator k's image: one matrix product for all columns. Surjectivity is
    decided from the certified Smith normal form of the same lamp polynomials,
    with those of t-image^m, bordered by (x^m - 1) I_n.
    """
    spec, rel = gi.target, gi.source.relations
    p, n, m, g = spec.field.p, spec.n, spec.base_order, rel.rows
    for i, w in enumerate(gi.module_gen_images):
        if not w.in_base:
            raise AlgebraError(f"image of generator {i} has shift {w.shift}")

    sigma = gi.t_image.shift
    if math.gcd(sigma, m) != 1:
        raise AlgebraError(
            f"t-image shift {sigma} is not invertible mod {m}; "
            "conjugation cannot realize an invertible x-action")
    sigma_inverse = pow(sigma, -1, m) if m > 1 else 0

    # lamps[j, k, i]: coordinate j at index i of generator k's image, k = g for t-image^m
    lamps = np.zeros((n, g + 1, m), dtype=rel.coeffs.dtype)
    for k, w in enumerate((*gi.module_gen_images, wreath_pow(gi.t_image, m))):
        for i, v in w.lamps:
            lamps[:, k, i] = v
    # rel(x) -> rel(x^sigma) mod x^m - 1: the coefficient of x^e moves to x^(sigma e mod m)
    at_sigma = np.zeros((g, rel.cols, m), dtype=rel.coeffs.dtype)
    np.add.at(at_sigma, (..., sigma * np.arange(rel.coeffs.shape[2]) % m), rel.coeffs)
    relator_images = _mul_sums(lamps[:, :g], at_sigma % p, p) % p
    relator_images[..., :m - 1] += relator_images[..., m:]
    bad = np.flatnonzero((relator_images[..., :m] % p).any(axis=(0, 2)))
    if bad.size:
        raise AlgebraError(f"relator {bad[0]} not satisfied: relator image is nontrivial")

    # The image maps onto Z/mZ and meets the base in the F_p[x]-submodule of (F_p[x]/(x^m - 1))^n
    # generated by the lamp polynomials of the generator images and of t-image^m, as t-image
    # conjugation translates by the unit sigma. That is the whole base iff
    # [(x^m - 1) I_n | lamp polynomials as columns] has only unit invariant factors.
    bordered = np.zeros((n, n + g + 1, m + 1), dtype=lamps.dtype)
    bordered[range(n), range(n), 0], bordered[range(n), range(n), m] = -1, 1
    bordered[:, n:, :m] = lamps
    diag = smith_normal_form(PolyMatrix(spec.field, bordered)).diag
    return VerifiedHom(images=gi, sigma=sigma, sigma_inverse=sigma_inverse,
                       surjective=all(f.degree == 0 for f in diag))


@dataclass(frozen=True)
class CocycleReport:
    """Witness table for the section k -> lamp part of the image of (0, k)."""

    values: tuple[tuple[int, WreathElement], ...]
    pairs_checked: int


def cocycle_verify(hom: VerifiedHom, bound: int) -> CocycleReport:
    """Assert the section identity g(k + k') = g(k) + x^k g(k') for |k|, |k'| <= bound.

    It is a theorem for any verified homomorphism (in normalized form); a
    failure here means the hom object is corrupted, not that the input is bad,
    so it raises CertificateError. The pairs imply g(0) = 0, from the pair
    (0, 0), and g(km) = k g(m) for |km| <= bound, by induction on k: x^m acts
    trivially on a base of order m, so g(km + m) = g(km) + x^(km) g(m) = g(km) + g(m).
    """
    g: dict[int, WreathElement] = {}
    for k in range(-2 * bound, 2 * bound + 1):
        g[k] = hom.section_lamp(k)
    pairs = 0
    for k in range(-bound, bound + 1):
        for k2 in range(-bound, bound + 1):
            require(g[k + k2] == wreath_mul(g[k], shift_lamps(g[k2], k)),
                    f"cocycle identity failed at ({k}, {k2})")
            pairs += 1
    table = tuple((k, g[k]) for k in range(-bound, bound + 1))
    return CocycleReport(values=table, pairs_checked=pairs)


# --- the epimorphism onto the free lamp group --------------------------------

Batch = tuple[np.ndarray, int, np.ndarray]
"""B elements (a, k) as (coeffs, lo, shifts), coordinate-major: coeffs[j, b, e] is the
coefficient of x^(lo + e) in coordinate j of the b-th a (the g x B matrix phi multiplies),
shifts[b] is its k. Candidates have a coordinate per module generator; lamp-group elements
one per lamp coordinate, read through the coefficient dictionary."""

LAW_CHUNK = 128
"""Pairs per law-check batch, drawn as 2 * LAW_CHUNK elements by one _draw_elements call;
it bounds the arrays, and so peak memory, at any sample count."""


def _twisted_sum(x: Batch, y: Batch, p: int) -> Batch:
    """(a + x^k a', k + k') for each pair of elements. Both hold residues mod p, so
    subtracting p in place where a sum reaches p reduces it. The rows of a' land by one
    flat scatter, row (j, b) moved k_b columns right."""
    (xc, xlo, xk), (yc, ylo, yk) = x, y
    lo = min(xlo, ylo + int(xk.min()))
    width = max(xlo + xc.shape[2], ylo + int(xk.max()) + yc.shape[2]) - lo
    coords, count, cols = yc.shape
    out = np.zeros((coords, count, width), dtype=xc.dtype)
    out[:, :, xlo - lo:xlo - lo + xc.shape[2]] = xc
    starts = np.arange(coords * count).reshape(coords, count) * width + (ylo - lo + xk)
    out.reshape(-1)[starts[:, :, None] + np.arange(cols)] += yc
    np.subtract(out, p, out=out, where=out >= p)
    return out, lo, xk + yk


def candidate_mul(a: Batch, b: Batch, p: int) -> Batch:
    """(a, k)(a', k') = (a + x^k a', k + k') in the module semidirect product."""
    return _twisted_sum(a, b, p)


def lamp_mul(u: Batch, v: Batch, p: int) -> Batch:
    """(L, g)(L', g') = (L + g.L', g + g') in the lamp group, L' translated by g."""
    return _twisted_sum(u, v, p)


def _draw_elements(rng: random.Random, p: int, g: int, count: int, dtype) -> Batch:
    """count seeded elements (a, k), exponents -2..3 at columns 0..5, from one rng.randbytes
    call holding only the bytes the residues need, in order: for each of the size =
    count * g * 6 coefficients of the a's (in C order of (count, g, 6)) a little-endian
    integer of w bytes reduced mod p, w the byte length of p - 1, in the narrowest unsigned
    dtype of w bytes (Python integers past 8); then ceil(size / 8) bytes of keep flags,
    coefficient i keeping its value if bit i % 8 of byte i // 8 is set (otherwise it is
    zero); then one byte per element, with k = byte mod 7 - 3. The batch is C-contiguous."""
    size = count * g * 6
    width = max(1, -(-(p - 1).bit_length() // 8))
    flags = -(-size // 8)
    data = rng.randbytes(size * width + flags + count)
    digits = np.frombuffer(data, dtype=np.uint8, count=size * width).reshape(size, width)
    kind = np.dtype(f"u{1 << (width - 1).bit_length()}") if width <= 8 else object
    values = sum(digits[:, i].astype(kind) << 8 * i for i in range(width))
    values -= values // p * p  # mod p: numpy's // by a scalar is fast, its % is not
    keep = np.unpackbits(np.frombuffer(data, dtype=np.uint8, count=flags, offset=size * width),
                         count=size, bitorder="little")
    shifts = np.frombuffer(data, dtype=np.uint8, offset=size * width + flags)
    return ((values * keep).reshape(count, g, 6).transpose(1, 0, 2).astype(dtype, order="C"),
            -2, shifts.astype(np.int64) % 7 - 3)


@dataclass(frozen=True)
class LawCheckReport:
    samples: int
    seed: int


@dataclass(frozen=True)
class VerifiedGroupEpi:
    """Certified epimorphism (a, k) -> (phi(a), k) onto the free lamp group.

    Certified by build_lamplighter_epimorphism: phi is the free rows of the relations'
    certified Smith transform U, so it kills every relator and is onto; t maps to t.
    """

    source: ModulePresentation
    phi: PolyMatrix
    target: LamplighterSpec

    def _image(self, batch: Batch) -> Batch:
        """(phi(a), k) for a candidate batch: one _mul_sums product of phi with the batch's
        g x B matrix of a's as it is, reduced mod p in place; exact for every prime."""
        (coeffs, lo, shifts), p = batch, self.source.field.p
        out = _mul_sums(self.phi.coeffs, coeffs, p)
        return np.subtract(out, out // p * p, out=out), lo, shifts

    def law_check(self, samples: int = 1000, seed: int = 0) -> LawCheckReport:
        """Verify f(ab) = f(a) f(b) on seeded random pairs of group elements.

        The pairs are drawn a_1, b_1, a_2, ..., one _draw_elements call per LAW_CHUNK pairs,
        and checked a batch at a time, each side as one array computation. f(a) and f(b) are
        the even and odd columns of the drawn batch's image, so a batch costs two products
        with phi. Both sides span the same exponent window, so they are compared as they are.
        """
        rng, p = random.Random(seed), self.source.field.p
        for start in range(0, samples, LAW_CHUNK):
            count = min(LAW_CHUNK, samples - start)
            coeffs, lo, shifts = drawn = _draw_elements(rng, p, self.source.generators,
                                                        2 * count, self.phi.coeffs.dtype)
            images = self._image(drawn)[0]
            a, b = ((coeffs[:, i::2], lo, shifts[i::2]) for i in (0, 1))
            lhs = self._image(candidate_mul(a, b, p))
            fa, fb = ((images[:, i::2], lo, shifts[i::2]) for i in (0, 1))
            rhs = lamp_mul(fa, fb, p)
            require(lhs[1] == rhs[1] and np.array_equal(lhs[0], rhs[0])
                    and np.array_equal(lhs[2], rhs[2]),
                    "homomorphism law failed on a sampled pair")
        return LawCheckReport(samples=samples, seed=seed)


def build_lamplighter_epimorphism(pres: ModulePresentation,
                                  phi: PolyMatrix) -> VerifiedGroupEpi:
    """Certify phi and wrap it as the group map (a, k) -> (phi(a), k).

    phi must be the free rows of U in the certified U * relations * V = D of pres.smith,
    as epimorphism_to_free reads them. Those rows of D are zero and V is invertible, so
    phi kills every relator; U is unimodular, so phi is onto. Any other phi is rejected.
    """
    require(0 < phi.rows <= decompose(pres).free_rank
            and phi == epimorphism_to_free(pres, phi.rows),
            "phi is not the certified projection onto the free coordinates")
    target = LamplighterSpec(pres.field, phi.rows, None)
    return VerifiedGroupEpi(source=pres, phi=phi, target=target)
