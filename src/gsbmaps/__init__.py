"""Decision procedures for rational maps between products of generalized
Severi-Brauer varieties and for isomorphism of their upper motives, over a
finite abelian p-group model of p-primary Brauer classes."""

from .brauer import (
    AlgebraSpec,
    BrauerClass,
    BrauerGroupModel,
    Subgroup,
    class_exponent,
    combine,
    division_algebra,
    generic_index,
    subgroup_generated,
    subgroups_equal,
    vp,
)
from .errors import (
    GsbError,
    InstanceFormatError,
    InvariantViolation,
    ModelMismatchError,
    PreconditionError,
)
from .instance import (
    Instance,
    load_instance,
    parse_instance,
    parse_variety_expression,
)
from .maps import (
    DirectionReport,
    FactorWitness,
    MutualRelation,
    RationalMapReport,
    classical_criterion,
    dimension,
    equivalent,
    exists_rational_map,
    has_rational_point_over,
    mutual_relation_witness,
    relation_witness,
)
from .motives import (
    FamilyComparison,
    FamilyVerdict,
    UpperMotiveDescriptor,
    classify_single,
    compare_families,
    family_motives,
    motives_isomorphic,
    upper_motive,
)
from .reduction import (
    GSBFactor,
    GSBProduct,
    ReducedIndex,
    reduced_index,
    reduction_term,
)

__version__ = "0.1.0"

__all__ = [
    "AlgebraSpec",
    "BrauerClass",
    "BrauerGroupModel",
    "DirectionReport",
    "FactorWitness",
    "FamilyComparison",
    "FamilyVerdict",
    "GSBFactor",
    "GSBProduct",
    "GsbError",
    "Instance",
    "InstanceFormatError",
    "InvariantViolation",
    "ModelMismatchError",
    "MutualRelation",
    "PreconditionError",
    "RationalMapReport",
    "ReducedIndex",
    "Subgroup",
    "UpperMotiveDescriptor",
    "class_exponent",
    "classical_criterion",
    "classify_single",
    "combine",
    "compare_families",
    "dimension",
    "division_algebra",
    "equivalent",
    "exists_rational_map",
    "family_motives",
    "generic_index",
    "has_rational_point_over",
    "load_instance",
    "motives_isomorphic",
    "mutual_relation_witness",
    "parse_instance",
    "parse_variety_expression",
    "reduced_index",
    "reduction_term",
    "relation_witness",
    "subgroup_generated",
    "subgroups_equal",
    "upper_motive",
    "vp",
]
