"""Saturation: enlarge an anodyne class to the full acyclic class.

Four modes, two per side:

* ``L``  — new fibrations are those lifting against all acyclic
           cofibrations; new anodyne cofibrations are their llp complement.
* ``Lc`` — same, but only acyclic cofibrations with cofibrant source vote.
* ``R`` / ``Rc`` — the mirror images on the other system.

The cofibration system is untouched by L/Lc, the fibration system by R/Rc.
Saturation never moves the bifibrant core: cofibrant and fibrant objects,
core (acyclic) cofibrations and fibrations all stay put — this is asserted,
not assumed.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InputError, VerificationError
from .lifting import complement_llp, complement_rlp, require_factorizations
from .premodel import (
    PremodelStructure,
    acyclic_cofibrations,
    acyclic_fibrations,
    core_acyclic_cofibrations,
    core_acyclic_fibrations,
    core_cofibrations,
    core_fibrations,
    cofibrant_objects,
    fibrant_objects,
    same_classes,
    saturation_flags,
)

MODES = ("L", "Lc", "R", "Rc")


def _core_signature(p):
    return (
        cofibrant_objects(p),
        fibrant_objects(p),
        core_cofibrations(p),
        core_fibrations(p),
        core_acyclic_cofibrations(p),
        core_acyclic_fibrations(p),
    )


def saturate(p, mode):
    """Rebuild one system from the (core) acyclic class of the other side.

    Raises ConstructionError when the rebuilt pair fails to factor some
    morphism — the only obstruction at finite scale — and VerificationError
    if the bifibrant core moves, which would contradict the theory for a
    verified input.
    """
    if mode not in MODES:
        raise InputError("saturation mode must be one of %s, got %r" % (", ".join(MODES), mode))
    cat = p.cat
    before = _core_signature(p)

    if mode in ("L", "Lc"):
        votes = acyclic_cofibrations(p) if mode == "L" else core_acyclic_cofibrations(p)
        new_fib = p.fibrations & complement_rlp(cat, votes)
        new_ac = complement_llp(cat, new_fib)
        q = p.with_classes(anodyne_cofibrations=new_ac, fibrations=new_fib)
        left, right = new_ac, new_fib
    else:
        votes = acyclic_fibrations(p) if mode == "R" else core_acyclic_fibrations(p)
        new_cof = p.cofibrations & complement_llp(cat, votes)
        new_af = complement_rlp(cat, new_cof)
        q = p.with_classes(cofibrations=new_cof, anodyne_fibrations=new_af)
        left, right = new_cof, new_af

    require_factorizations(cat, left, right, "saturation %s loses factorization of %%s" % mode)

    after = _core_signature(q)
    if before != after:
        raise VerificationError(
            "saturation %s moved the bifibrant core of %s" % (mode, p.name or cat.name)
        )
    flags = saturation_flags(q)
    expected_flag = {
        "L": flags.left_saturated,
        "Lc": flags.core_left_saturated,
        "R": flags.right_saturated,
        "Rc": flags.core_right_saturated,
    }[mode]
    if not expected_flag:
        raise VerificationError("saturation %s failed to set its flag" % mode)
    return q


@dataclass(frozen=True)
class BiSaturationReport:
    structure: PremodelStructure     # saturate R after saturate L
    reversed_structure: PremodelStructure  # saturate L after saturate R
    orders_agree: bool


def bi_saturate(p):
    """Saturate left then right; report whether the other order agrees.

    The returned structure is the right-of-left composite.  Both orders are
    computed because they need not agree in general; the report records the
    comparison instead of asserting it.
    """
    rl = saturate(saturate(p, "L"), "R")
    lr = saturate(saturate(p, "R"), "L")
    flags = saturation_flags(rl)
    if not flags.bi_saturated:
        raise VerificationError("bi-saturation did not produce a bi-saturated structure")
    return BiSaturationReport(rl, lr, same_classes(rl, lr))
