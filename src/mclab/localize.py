"""Bousfield-style localizations of weak model structures.

Left localization at a set of arrows S: replace each s by a cofibration
between well-behaved objects, close the replacements under the cylinder
inclusion operator ∇, enlarge the anodyne cofibrations by the closure, and
saturate.  Cofibrations never move; fibrant objects shrink to the local
ones.  Right localization is the mirror image, driven by a right Quillen
functor into another verified structure instead of a set of arrows.  Every
rebuilt system comes from ``premodel._rebuild_fibrations``; the right-hand
rebuilds run it on the dual.

The operator ∇ sends a cofibration i to the cylinder inclusion
B ⊔_A B -> Z of its first weak cylinder witness; iterating it is what makes
the localized lifting problems solvable, so the closure is computed as an
honest fixpoint.
"""

from typing import NamedTuple

from .errors import ConstructionError, InputError, VerificationError
from .fincat import _closure
from .homotopy import (
    core_cofibration_representative,
    find_cylinder,
    is_equivalence,
    verify_weak_model,
)
from .lifting import complement_llp, complement_rlp
from .saturate import saturate
from .premodel import (
    PremodelStructure,
    _assert_premodel,
    _rebuild_fibrations,
    acyclic_fibrations,
    check_quillen_adjunction,
    core_fibrations,
)


def nabla(p, i):
    """Cylinder inclusion of the first weak witness of i."""
    w = find_cylinder(p, i)
    if w is None:
        raise ConstructionError("no weak cylinder witness for %s" % i, witness=i)
    return w.cylinder_cof


def _require_weak_model(p, what):
    if not verify_weak_model(p).ok:
        raise InputError("%s requires a verified weak model structure" % what)


def _between(cat, arrows, objects):
    """The members of ``arrows`` with both endpoints in ``objects``."""
    return {f for f in arrows if cat.source[f] in objects and cat.target[f] in objects}


class LeftLocalization(NamedTuple):
    structure: PremodelStructure
    representatives: dict          # s -> core cofibration standing in for it
    nabla_closure: frozenset       # the ∇-closure J of the representatives
    intermediate: PremodelStructure  # before saturation


def left_bousfield(p, arrows, mode="Lc"):
    """Left localization at ``arrows``; keeps (C, AF), rebuilds (AC, F).

    Asserted afterwards: cofibrations unchanged, fibrations between locally
    fibrant objects unchanged, every representative anodyne and an
    equivalence of the localized structure, and the localized structure
    verifies the weak model axioms again.
    """
    if mode not in ("L", "Lc"):
        raise InputError("left localization mode must be 'L' or 'Lc', got %r" % mode)
    _require_weak_model(p, "left localization")
    cat = p.cat

    reps = {s: core_cofibration_representative(p, s) for s in arrows}
    closure = _closure(reps.values(), lambda i: (nabla(p, i),))

    new_fib = complement_rlp(cat, p.anodyne_cofibrations | closure)
    intermediate = _rebuild_fibrations(p, new_fib, "left localization", "%s_loc" % p.label)
    _assert_premodel(intermediate, "left localization intermediate")

    result = saturate(intermediate, mode)

    if result.cofibrations != p.cofibrations:
        raise VerificationError("left localization moved the cofibrations")
    local = result.fibrant
    if _between(cat, p.fibrations, local) != _between(cat, result.fibrations, local):
        raise VerificationError(
            "left localization changed fibrations between locally fibrant objects"
        )
    for s, rep in reps.items():
        if rep not in result.anodyne_cofibrations:
            raise VerificationError("representative %s of %s is not locally anodyne" % (rep, s))
    if not verify_weak_model(result).ok:
        raise VerificationError("left localization does not verify the weak model axioms")
    for s, rep in reps.items():
        if not is_equivalence(result, rep):
            raise VerificationError("representative %s of %s is not a local equivalence" % (rep, s))
    return LeftLocalization(result, reps, closure, intermediate)


class RightLocalization(NamedTuple):
    structure: PremodelStructure
    localizer: frozenset           # the core fibrations made anodyne-worthy
    intermediate: PremodelStructure


def right_bousfield(p, adj, target, mode="Rc"):
    """Right localization along a right Quillen functor into ``target``.

    ``adj.right`` must run p.cat -> target.cat and be right Quillen (its left
    adjoint preserves cofibrations, itself preserves fibrations).  The new
    cofibrations are those lifting against every core fibration that the
    right adjoint sends to an acyclic fibration of the target.
    """
    if mode not in ("R", "Rc"):
        raise InputError("right localization mode must be 'R' or 'Rc', got %r" % mode)
    _require_weak_model(p, "right localization")
    _require_weak_model(target, "right localization target")
    quillen = check_quillen_adjunction(adj, target, p)
    if not quillen.ok:
        raise InputError(
            "right localization needs a right Quillen functor: %s" % "; ".join(quillen.violations)
        )

    cat = p.cat
    target_acyclic = acyclic_fibrations(target)
    localizer = frozenset(
        q for q in core_fibrations(p) if adj.right.on_morphism(q) in target_acyclic
    )
    new_cof = p.cofibrations & complement_llp(cat, localizer)
    name = "%s_rloc" % p.label
    intermediate = _rebuild_fibrations(p.dual, new_cof, "right localization", name).dual
    _assert_premodel(intermediate, "right localization intermediate")

    result = saturate(intermediate, mode)

    if result.fibrations != p.fibrations:
        raise VerificationError("right localization moved the fibrations")
    local = result.cofibrant
    if _between(cat, p.cofibrations, local) != _between(cat, result.cofibrations, local):
        raise VerificationError(
            "right localization changed cofibrations between locally cofibrant objects"
        )
    if not verify_weak_model(result).ok:
        raise VerificationError("right localization does not verify the weak model axioms")
    return RightLocalization(result, localizer, intermediate)
