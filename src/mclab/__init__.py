"""mclab — a finite-scale laboratory for marked categories.

Everything is exhaustive: categories are finite presentations with full
composition tables, lifting properties are decided by enumerating squares,
and the model-category notions (premodels, weak models, saturation,
localization, semi-model recognition) are checked rather than assumed.
"""

from .errors import ConstructionError, InputError, ParseError, VerificationError
from .fincat import (
    AdjunctionData,
    Cone,
    DiagramShape,
    FiniteCategory,
    FunctorData,
    NatTrans,
    Verdict,
    check_adjunction,
    check_functor,
    check_nat_trans,
    colimit,
    coproduct,
    identity_functor,
    isomorphisms,
    mediating_out,
    poset_category,
    pushout,
    validate_category,
)
from .lifting import (
    cell_closure,
    complement_llp,
    complement_rlp,
    factor,
    factorizations,
    generate_wfs,
    has_lift,
    llp,
    retract_closure,
    verify_wfs,
)
from .premodel import (
    PremodelStructure,
    SaturationFlags,
    acyclic_cofibrations,
    acyclic_fibrations,
    check_quillen_adjunction,
    cofibrant_replacement,
    core_acyclic_cofibrations,
    core_acyclic_fibrations,
    core_cofibrations,
    core_fibrations,
    dualize,
    fibrant_replacement,
    same_classes,
    saturation_flags,
    verify_premodel,
)
from .homotopy import (
    CylinderWitness,
    HomotopyCategory,
    WeakModelReport,
    check_cylinder_witness,
    equivalences,
    find_cylinder,
    homotopic,
    homotopy_category,
    is_equivalence,
    iter_cylinder_witnesses,
    verify_weak_model,
    weak_to_strong,
)
from .saturate import saturate
from .localize import (
    LeftLocalization,
    RightLocalization,
    left_bousfield,
    nabla,
    right_bousfield,
)
from .classify import (
    ClassificationReport,
    LeftSemiReport,
    QuillenReport,
    RightSemiReport,
    TwoSidedReport,
    classify_full,
    compute_WL,
    compute_WR,
)
from .olschok import (
    OlschokReport,
    QuillenCylinderData,
    check_pre_cylinder,
    corner_product,
    identity_cylinder,
    nt_is_anodyne,
    nt_is_cofibration,
    olschok_lambda,
    olschok_model,
    pair_functor,
    verify_quillen_cylinder,
)
from . import fixtures

__version__ = "0.1.0"
