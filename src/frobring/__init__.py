"""Finite rings over Z_n, Frobenius structure, and ring-linear code duality."""

from .znmod import (
    DEFAULT_CAP,
    EnumerationCapError,
    ModuleShape,
    ZnLinearForm,
    enumerate_forms,
    enumerate_module,
    enumeration_cap,
    kernel_elements,
    span,
)
from .finring import (
    FiniteRing,
    Ideal,
    RingValidationError,
    SocleCertificate,
    cyclic_left_ideals,
    cyclic_right_ideals,
    is_frobenius_socle,
    left_ideals,
    right_ideals,
    ring_from_table,
    ring_group_algebra,
    ring_matrix,
    ring_product,
    ring_zn,
)
from .frobenius import (
    AmbientForm,
    DegenerateFormError,
    FrobeniusFunctional,
    find_frobenius_functional,
    functional_left_orthogonal,
    functional_orthogonal,
    functional_right_orthogonal,
    is_associative,
    is_nondegenerate,
    left_annihilator,
    orthogonal,
    pairing_from_gram,
    pairing_of_functional,
    right_annihilator,
    verify_generator_equivalences,
)
from .skewpoly import (
    AutomorphismError,
    NotTwoSidedError,
    RingAutomorphism,
    SkewQuotient,
    UnsupportedModulusError,
    check_two_sided,
)
from .codes import (
    LinearCode,
    MacWilliamsReport,
    TransformError,
    WeightEnumerator,
    dual,
    euclidean_dual,
    group_algebra_dual_report,
    identity_form,
    is_monomial,
    is_skew_cyclic,
    macwilliams_holds,
    macwilliams_transform,
    quotient_left_ideal_codes,
    skew_cyclic_dual_report,
    submodule_codes,
    weight_enumerator,
)

__version__ = "0.1.0"
