"""Exact-arithmetic kernel for homotopy Lie and Loday structures.

Everything is computed over the rationals with sparse structure constants;
identities are verified on words of bounded length and every verdict is
"up to the stated weight".
"""
from types import ModuleType as _ModuleType

from .graded import (
    GradedSpace,
    increasing_unshuffles,
    koszul_sign,
    permute,
)
from .multimap import (
    MultiMap,
    TruncatedCoderivation,
    TruncatedComorphism,
    balavoine_bracket,
    commutator,
    lift_comorphism,
    lift_symmetric_coderivation,
    lift_zinbiel_coderivation,
)
from .homotopy import (
    HomotopyStructure,
    check_lie_infinity,
    check_lie_morphism,
    check_loday_infinity,
    check_loday_morphism,
    lie_to_loday,
)
from .action import (
    ActionFamily,
    BiMultiMap,
    HemiProduct,
    adjoint_action,
    adjoint_representation,
    check_action,
    check_coherence,
    hemisemidirect,
    theorem_crosscheck,
)
from .tensor import (
    DeformationComplex,
    EmbeddingTensor,
    adjoint_strict_check,
    centroid_check,
    check_descendent_morphism,
    check_embedding,
    check_embedding_explicit,
    check_embedding_mc,
    cohomology_rank,
    deformation_complex,
    descendent,
    identity_tensor,
)
from .fileformat import StructureFile, parse, parse_path, serialize
from .report import CheckReport, InputError, Residual, RouteDisagreement

# the public names, without the submodules the imports above bind
__all__ = sorted(
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
