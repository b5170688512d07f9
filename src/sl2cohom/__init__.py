"""Exact Farrell-Tate cohomology data for rank-one S-arithmetic groups."""

from .abelian import (
    ENUMERATION_BOUND,
    EnumerationBoundExceeded,
    FinGenAbGroup,
    GroupHom,
    Involution,
    Orbit,
    cokernel,
    contains_in_image,
    involution_orbits,
    kernel,
    smith_normal_form,
)
from .arithdata import (
    ArithmeticDatum,
    DatumConsistencyError,
    DatumError,
    DatumParseError,
    QuadraticForm,
    build_split_datum,
    class_group_imaginary_quadratic,
    load_datum,
)
from .cohomengine import (
    ComponentRing,
    Decomposition,
    FreenessCertificate,
    GateParams,
    Verdict,
    conjugacy_classes,
    decompose_function_field,
    decompose_number_field,
    detection_verdict,
    freeness_certificate,
    graded_dimension,
    nonvanishing,
    refined_gate,
    subgroup_classes,
)
from .curve import (
    CurveSpec,
    EllipticMinusPoint,
    FiniteField,
    FiniteFieldSpec,
    P1Minus,
    SingularCurveError,
    count_and_structure_elliptic,
    pic_p1_minus,
)
from .essential import (
    GradedAlgebraSpec,
    GradedElement,
    essential_product,
    regularity_check,
    restrict,
    weyl_invariance,
)

__version__ = "0.1.0"
