"""End-to-end certification pipeline and machine-readable report.

A candidate is a module semidirect product N x| Z handed over as presentation
data, together with a prime p and a target lamp rank n. The pipeline:

  1. abelianization check: dim N/(x-1)N must equal n;
  2. invariant-factor decomposition of N;
  3. pick the smallest m >= (sum of torsion degrees) + 2 with p not dividing m;
  4. rank check: free rank r >= n (the bounding inequality
     (n - r) * m <= sum deg f_i + 1 is displayed alongside);
  5. on success, read phi off the certified normal form of step 2 and wrap
     it as the epimorphism (a, k) -> (phi(a), k) onto the rank-n lamp group,
     with seeded homomorphism-law sampling;
  6. compare order-bounded finite-quotient sets of the candidate and the
     target lamp group.

The quotient comparison runs even when the rank check fails: it is the
refutation branch and typically produces the distinguishing witness. The
epimorphism stage is constructive and only runs after a passing rank check.

Reports are deterministic given (input, seed): serializing the same report
twice yields identical bytes. The fields of AbelianizationCheck, RankCheck and
LawCheckReport are the keys of the ab_check, rank_check and
epimorphism.law_check blocks of the rigidity-report/1 JSON, written as they
are: renaming a field changes the schema.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import require
from .fppoly import FieldSpec
from .laurent_modules import (
    ModuleDecomposition,
    ModulePresentation,
    decompose,
    epimorphism_to_free,
    quotient_dim,
    torsion_quotient_order,
)
from .polymatrix import PolyMatrix
from .quotients import QuComparison, compare_qu
from .wreath import LamplighterSpec, LawCheckReport, build_lamplighter_epimorphism

EXTERNAL_STEP = (
    "epimorphism Gamma_0 -> L_{{n,p}} constructed and verified; "
    "isomorphism conclusion requires Qu-equality and [DFPR, Theorem 3], "
    "checked here only up to order {bound}"
)


@dataclass(frozen=True)
class CandidateGroup:
    """Candidate N x| Z: prime field, target lamp rank, module presentation."""

    field: FieldSpec
    n: int
    presentation: ModulePresentation

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("target lamp rank must be positive")
        if self.presentation.field != self.field:
            raise ValueError("presentation over a different field")

    @classmethod
    def free(cls, field: FieldSpec, n: int) -> "CandidateGroup":
        return cls(field, n, ModulePresentation.free(field, n))


@dataclass(frozen=True)
class AbelianizationCheck:
    passed: bool
    coinvariant_dimension: int
    expected_rank: int


@dataclass(frozen=True)
class RankCheck:
    passed: bool
    free_rank: int
    target_rank: int
    m: int
    torsion_degree_sum: int
    inequality_lhs: int
    inequality_rhs: int
    inequality_holds: bool


@dataclass(frozen=True)
class EpimorphismRecord:
    phi: PolyMatrix
    law_check: LawCheckReport


@dataclass(frozen=True)
class RigidityReport:
    """All stage outcomes; the epimorphism is present iff the rank check passed."""

    candidate: CandidateGroup
    seed: int
    qu_bound: int
    ab_check: AbelianizationCheck
    decomposition: ModuleDecomposition
    torsion_orders: tuple[int, ...]
    chosen_m: int
    rank_check: RankCheck | None
    epimorphism: EpimorphismRecord | None
    qu_comparison: QuComparison
    certified: bool
    failed_stage: str | None
    conclusion: str

    def __post_init__(self):
        rank_passed = self.rank_check is not None and self.rank_check.passed
        require((self.epimorphism is not None) == rank_passed,
                "epimorphism recorded iff the rank check passed")
        require(self.ab_check.passed or not rank_passed,
                "rank check passed after a failed abelianization check")


def abelianization_check(candidate: CandidateGroup) -> AbelianizationCheck:
    """The abelianization of N x| Z is (Z/pZ)^dim x Z with dim = dim N/(x-1)N."""
    dim = quotient_dim(decompose(candidate.presentation), 1)
    return AbelianizationCheck(
        passed=(dim == candidate.n),
        coinvariant_dimension=dim,
        expected_rank=candidate.n,
    )


def choose_m(dec: ModuleDecomposition) -> int:
    """Smallest m >= (sum of torsion degrees) + 2 that p does not divide."""
    p = dec.field.p
    m = dec.torsion_degree_sum + 2
    while m % p == 0:
        m += 1
    return m


def rank_check(dec: ModuleDecomposition, n: int, m: int) -> RankCheck:
    """Decide r >= n and display the bounding inequality (n - r) m <= sum deg f_i + 1."""
    total = dec.torsion_degree_sum
    lhs = (n - dec.free_rank) * m
    rhs = total + 1
    return RankCheck(
        passed=(dec.free_rank >= n),
        free_rank=dec.free_rank,
        target_rank=n,
        m=m,
        torsion_degree_sum=total,
        inequality_lhs=lhs,
        inequality_rhs=rhs,
        inequality_holds=(lhs <= rhs),
    )


def certify(candidate: CandidateGroup, qu_bound: int = 8, seed: int = 0) -> RigidityReport:
    """Run the full pipeline and assemble the report."""
    dec = decompose(candidate.presentation)
    ab = abelianization_check(candidate)
    m = choose_m(dec)
    torsion_orders = tuple(torsion_quotient_order(f) for f in dec.invariant_factors)

    rank: RankCheck | None = None
    epi_record: EpimorphismRecord | None = None
    failed: str | None = None
    if not ab.passed:
        failed = "abelianization_check"
    else:
        rank = rank_check(dec, candidate.n, m)
        if not rank.passed:
            failed = "rank_check"
        else:
            phi = epimorphism_to_free(candidate.presentation, candidate.n)
            epi = build_lamplighter_epimorphism(candidate.presentation, phi)
            epi_record = EpimorphismRecord(phi=phi, law_check=epi.law_check(seed=seed))

    lamp = LamplighterSpec(candidate.field, candidate.n, None)
    qu = compare_qu(candidate.presentation, lamp, qu_bound)
    if failed is None and not qu.equal:
        failed = "qu_comparison"

    certified = failed is None
    if certified:
        conclusion = EXTERNAL_STEP.format(bound=qu_bound)
    else:
        conclusion = f"candidate not certified; failed stage: {failed}"

    return RigidityReport(
        candidate=candidate,
        seed=seed,
        qu_bound=qu_bound,
        ab_check=ab,
        decomposition=dec,
        torsion_orders=torsion_orders,
        chosen_m=m,
        rank_check=rank,
        epimorphism=epi_record,
        qu_comparison=qu,
        certified=certified,
        failed_stage=failed,
        conclusion=conclusion,
    )
