"""Saturation: enlarge an anodyne class to the full acyclic class.

Four modes, two per side:

* ``L``  — new fibrations are those lifting against all acyclic
           cofibrations; new anodyne cofibrations are their llp complement.
* ``Lc`` — same, but only acyclic cofibrations with cofibrant source vote.
* ``R`` / ``Rc`` — the mirror images on the other system: ``L`` / ``Lc``
           on the dual structure, carried back.

The cofibration system is untouched by L/Lc, the fibration system by R/Rc.
Saturation never moves the bifibrant core: cofibrant and fibrant objects,
core (acyclic) cofibrations and fibrations all stay put — this is asserted,
not assumed.
"""

from .errors import InputError, VerificationError
from .lifting import complement_rlp
from .premodel import (
    _rebuild_fibrations,
    acyclic_cofibrations,
    core_acyclic_cofibrations,
    core_acyclic_fibrations,
    core_cofibrations,
    core_fibrations,
    saturation_flags,
)

MODES = ("L", "Lc", "R", "Rc")


def _core_signature(p):
    return (
        p.cofibrant,
        p.fibrant,
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
    # read on p first, so a missing endpoint is named as p's and not the dual's
    before = _core_signature(p)
    side = p.dual if mode in ("R", "Rc") else p
    votes = acyclic_cofibrations(side) if mode in ("L", "R") else core_acyclic_cofibrations(side)
    fibrations = side.fibrations & complement_rlp(side.cat, votes)
    q = _rebuild_fibrations(side, fibrations, "saturation %s" % mode)
    q = q if side is p else q.dual

    if before != _core_signature(q):
        raise VerificationError("saturation %s moved the bifibrant core of %s" % (mode, p.label))
    flag = {"L": "left", "Lc": "core_left", "R": "right", "Rc": "core_right"}[mode]
    if not saturation_flags(q).as_dict()[flag + "_saturated"]:
        raise VerificationError("saturation %s failed to set its flag" % mode)
    return q
