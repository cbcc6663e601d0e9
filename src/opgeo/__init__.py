"""Operator-geometry toolkit for finite direct sums of full matrix algebras.

Classifies partial isometries, unitaries, invertibles, self-adjoint,
positive, and projection operators both algebraically and through the
geometry of their norming functionals, producing checkable witnesses and
certificates along the way.
"""

from opgeo.algebra import (
    AlgebraShape,
    Element,
    Functional,
    NormingSetDescription,
    element_norm,
    evaluate,
    functional_norm,
    min_real_over_norming,
    norming_set,
    numeric_span_rank,
    sample_norming_functional,
)
from opgeo.classify import (
    InvertibilityCertificate,
    PartialIsometryWitness,
    Tolerances,
    Verdict,
    construct_witness,
    defect_norm_identity,
    invertibility_certificate,
    is_extreme_point,
    is_partial_isometry_algebraic,
    is_partial_isometry_geometric,
    is_positive,
    is_projection,
    is_self_adjoint_lumer,
    is_self_adjoint_states,
    is_unitary_algebraic,
    is_unitary_geometric,
    norming_annihilates_defect,
    recover_adjoint,
    verify_certificate,
    verify_witness,
    x1_member,
    x2_member,
)
from opgeo.errors import (
    DegenerateInputError,
    LinalgError,
    MalformedCertificateError,
    PreconditionError,
    ShapeMismatchError,
)
from opgeo.harness import SuiteReport, TrialConfig, run_suite

__version__ = "0.1.0"

__all__ = [
    "AlgebraShape",
    "DegenerateInputError",
    "Element",
    "Functional",
    "InvertibilityCertificate",
    "LinalgError",
    "MalformedCertificateError",
    "NormingSetDescription",
    "PartialIsometryWitness",
    "PreconditionError",
    "ShapeMismatchError",
    "SuiteReport",
    "Tolerances",
    "TrialConfig",
    "Verdict",
    "construct_witness",
    "defect_norm_identity",
    "element_norm",
    "evaluate",
    "functional_norm",
    "invertibility_certificate",
    "is_extreme_point",
    "is_partial_isometry_algebraic",
    "is_partial_isometry_geometric",
    "is_positive",
    "is_projection",
    "is_self_adjoint_lumer",
    "is_self_adjoint_states",
    "is_unitary_algebraic",
    "is_unitary_geometric",
    "min_real_over_norming",
    "norming_annihilates_defect",
    "norming_set",
    "numeric_span_rank",
    "recover_adjoint",
    "run_suite",
    "sample_norming_functional",
    "verify_certificate",
    "verify_witness",
    "x1_member",
    "x2_member",
]
