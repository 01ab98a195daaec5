"""Exact computations with finite-dimensional baric algebras.

A baric algebra is an algebra A over a field K together with a nonzero
algebra homomorphism (the weight) w: A -> K. This package works with
such algebras through their structure constants, entirely in exact
arithmetic over the rationals or a prime field, and centers on the
bowtie product that glues two baric algebras into a new one on the
direct sum of their underlying spaces.
"""

from .algebra import (
    Algebra,
    Element,
    PropertyFlags,
    associator,
    change_basis,
    commutative_center,
    commutator,
    property_flags,
)
from .bowtie import (
    AssociativityCharacter,
    StructuralIsos,
    associativity_character,
    associator_closed_form,
    bowtie,
    commutator_closed_form,
    embed,
    factor,
    factors,
    idempotent_family,
    project,
    split_element,
    structural_isos,
    swap_matrix,
    transport_iso,
)
from .errors import (
    BaricError,
    CharacteristicObstruction,
    DimensionMismatch,
    DivisionByZero,
    DuplicateTriple,
    EnumerationTooLarge,
    FactorsNotCommutativeUnital,
    FieldMismatch,
    FieldNotFinite,
    NotABowtie,
    NotIdempotentInput,
    NotWeightPreserving,
    ParseError,
    SingularTransform,
    UnknownProposition,
    WeightInvalid,
    WeightNotOne,
)
from .fields import FieldElement, FieldSpec, parse_scalar
from .ideals import (
    DecompOutcome,
    Decomposability,
    Ideal,
    IdealProjection,
    KernelIdealBijection,
    Sided,
    decomposability,
    embedded_ideal_check,
    ideal_closure,
    is_two_sided_ideal,
    kernel_ideal_bijection,
    kernel_ideals,
    project_ideal,
    sidedness,
)
from .linalg import (
    Matrix,
    Subspace,
    enumerate_subspaces,
    enumeration_cap,
    iter_vectors,
    kernel_basis,
    solve,
    span,
    span_of,
)
from .propcheck import (
    PROPOSITION_IDS,
    PropReport,
    RunConfig,
    check,
    random_baric,
    random_rational_baric,
    run_all,
)
from .weights import (
    BaricAlgebra,
    BowtieTag,
    Weight,
    baric_isomorphic_by,
    classify_scalar_action,
    enumerate_weights,
    find_weight_one_idempotents,
    is_nil_kernel,
    is_scalar_action,
    kpow,
    nil_kernel_witness,
    normalize_weight_one_basis,
    validate_weight,
)

__version__ = "0.1.0"
