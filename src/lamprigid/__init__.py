"""Exact algebra for lamplighter-style wreath products.

Layers, bottom up: arithmetic over F_p[x] and the Laurent ring; Smith normal
form with unimodular certificates; finitely generated Laurent-module
decomposition and finite truncations; wreath product group arithmetic and
verified homomorphisms; a brute-force finite-quotient oracle; and the
certification pipeline tying them together.
"""

from .errors import AlgebraError
from .fppoly import (
    FieldSpec,
    FpPoly,
    LaurentPoly,
    laurent_canonicalize,
    poly_divmod,
    poly_gcd,
    poly_gcd_ext,
    x_pow_minus_one,
)
from .laurent_modules import (
    FiniteTruncation,
    ModuleDecomposition,
    ModulePresentation,
    decompose,
    epimorphism_to_free,
    finite_truncation,
    quotient_dim,
    torsion_quotient_order,
)
from .pipeline import (
    CandidateGroup,
    RigidityReport,
    abelianization_check,
    certify,
    choose_m,
    rank_check,
)
from .polymatrix import (
    PolyMatrix,
    SmithDecomposition,
    determinant,
    is_unimodular,
    matrix_mul,
    smith_normal_form,
)
from .quotients import (
    FiniteGroupTable,
    QuComparison,
    QuSet,
    QuotientFingerprint,
    admits_surjection_from_lamplighter,
    build_group_table,
    compare_qu,
    enumerate_normal_subgroups,
    fingerprint,
    isomorphic,
    quotient_table,
    semidirect_table,
    truncated_qu,
)
from .wreath import (
    GeneratorImages,
    LamplighterSpec,
    VerifiedGroupEpi,
    VerifiedHom,
    WreathElement,
    abelianize,
    build_lamplighter_epimorphism,
    cocycle_verify,
    element,
    hom_from_generator_images,
    identity,
    wreath_inv,
    wreath_mul,
    wreath_pow,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
