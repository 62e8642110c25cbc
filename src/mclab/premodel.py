"""Premodel structures: two interleaved weak factorization systems.

A premodel structure marks four classes on one finite category —
cofibrations C, anodyne fibrations AF, anodyne cofibrations AC, fibrations F
— such that (C, AF) and (AC, F) are weak factorization systems and
AC ⊆ C (equivalently AF ⊆ F).  The category must have an initial and a
terminal object so that cofibrant/fibrant make sense.

Naming: "anodyne" marks the classes coming from the *other* system's side —
anodyne cofibrations lift against all fibrations, anodyne fibrations against
all cofibrations.  "Acyclic" is reserved for the derived classes computed
against the bifibrant core, see ``acyclic_cofibrations``.

A right-hand construction is its left twin on ``dualize(p)``: the fibrant
replacement of x is its cofibrant replacement in the dual, kept there.  So is
a rebuild: every construction (saturation, localization, Olschok generation)
replaces one system by the system a new fibration class F' determines,
``_rebuild_fibrations``, and rebuilds (C, AF) as that step on the dual.

The checks, ``verify_premodel`` and ``check_quillen_adjunction``, answer a
``fincat.Verdict``: ok exactly when the list of failures is empty.
"""

from dataclasses import dataclass, replace

from .errors import ConstructionError, InputError, VerificationError
from .fincat import FiniteCategory, Verdict, _fact, check_adjunction, involution, validate_category
from .lifting import (
    _system,
    complement_llp,
    complement_rlp,
    factor,
    require_factorizations,
    verify_wfs,
)

_CLASSES = ("cofibrations", "anodyne_fibrations", "anodyne_cofibrations", "fibrations")


@dataclass(frozen=True, eq=False)
class PremodelStructure:
    """Four marked classes on one category; immutable, so each derived fact
    (the dual, the cofibrant and fibrant objects, the acyclic classes, each
    equivalence verdict and each cofibration's cylinder verdict) is computed
    once on first use; the acyclic classes are cut from lifting complements.
    The first (C, AF) factorizations, which the replacements are read off, the
    WL grouping, those complements and the two systems' ``verify_wfs`` verdicts live in
    the category's per-WFS table, ``lifting._system``, shared by every
    structure on that system; the cylinder verdicts are ``homotopy._cylinder_verdict``'s."""

    cat: FiniteCategory
    cofibrations: frozenset
    anodyne_fibrations: frozenset
    anodyne_cofibrations: frozenset
    fibrations: frozenset
    name: str = ""
    _opposite = _base = None  # not fields: kept by ``dual``, see ``fincat.involution``

    def __post_init__(self):
        for name in _CLASSES:
            object.__setattr__(self, name, frozenset(getattr(self, name)))

    @involution
    def dual(self):
        """See ``dualize``: built once, and ``dual.dual is self``."""
        return PremodelStructure(
            cat=self.cat.op,
            cofibrations=self.fibrations,
            anodyne_fibrations=self.anodyne_cofibrations,
            anodyne_cofibrations=self.anodyne_fibrations,
            fibrations=self.cofibrations,
            name=self.name,
        )

    @_fact
    def cofibrant(self):
        """Objects whose arrow from the initial object is a cofibration."""
        arrows = _endpoint_arrows(self.cat, self.cat.from_initial, "initial")
        return frozenset(x for x, i in arrows.items() if i in self.cofibrations)

    @_fact
    def fibrant(self):
        """Objects whose arrow to the terminal object is a fibration."""
        arrows = _endpoint_arrows(self.cat, self.cat.to_terminal, "terminal")
        return frozenset(x for x, t in arrows.items() if t in self.fibrations)

    @_fact
    def acyclic_cofibrations(self):
        return _acyclic(self.cat, self.cofibrations, (self.anodyne_cofibrations, self.fibrations), self.fibrant, 1)

    @_fact
    def acyclic_fibrations(self):
        # computed here, not through ``dual``, so the mirror stays independent
        return _acyclic(self.cat, self.fibrations, (self.cofibrations, self.anodyne_fibrations), self.cofibrant, 0)

    @_fact
    def _cof_system(self):
        return _system(self.cat, self.cofibrations, self.anodyne_fibrations)

    @_fact
    def equivalence_verdicts(self):
        """``{f: bool}``: each ``homotopy.is_equivalence`` answer, kept once found."""
        return {}

    @_fact
    def cylinder_verdicts(self):
        """``{i: (weak, strong)}``: whether the cofibration i has a weak and a strong
        cylinder witness, kept once decided by ``homotopy._cylinder_verdict``."""
        return {}

    @property
    def label(self):
        """The name reports use: the structure's own, else its category's."""
        return self.name or self.cat.name

    def classes(self):
        return {name: getattr(self, name) for name in _CLASSES}

    def with_classes(self, **kw):
        return replace(self, **kw)


def _acyclic(cat, members, pair, ends, side):
    """The members that lift against each gate: each arrow of ``pair[side]``
    between objects of ``ends``, those that class makes bifibrant.  The gates'
    lifting complement (``complement_rlp`` on side 0, ``complement_llp`` on
    side 1) is found once per system ``pair`` and kept in its ``gates``."""
    system = _system(cat, *pair)
    if system.gates[side] is None:
        gate = frozenset(g for g in pair[side] if cat.source[g] in ends and cat.target[g] in ends)
        system.gates[side] = (complement_rlp, complement_llp)[side](cat, gate)
    return members & system.gates[side]


def same_classes(p, q):
    """Equality of the four marked classes (categories assumed shared)."""
    return p.classes() == q.classes()


def _require_object(p, x):
    if not p.cat.has_object(x):
        raise InputError("unknown object %r in %s" % (x, p.cat.name))


def _endpoint_arrows(cat, arrows, end):
    if arrows is None:
        raise ConstructionError("category %s has no %s object" % (cat.name, end))
    return arrows


def core_cofibrations(p):
    """Cofibrations whose source is cofibrant (their target then is too)."""
    return frozenset(f for f in p.cofibrations if p.cat.source[f] in p.cofibrant)


def core_fibrations(p):
    """Fibrations whose target is fibrant."""
    return frozenset(f for f in p.fibrations if p.cat.target[f] in p.fibrant)


def acyclic_cofibrations(p):
    """Cofibrations lifting against every fibration between fibrant objects.

    This class contains the anodyne cofibrations and is the left-hand
    yardstick of acyclicity for everything downstream.
    """
    return p.acyclic_cofibrations


def acyclic_fibrations(p):
    """Fibrations lifting against every cofibration between cofibrant objects."""
    return p.acyclic_fibrations


def core_acyclic_cofibrations(p):
    return frozenset(f for f in acyclic_cofibrations(p) if p.cat.source[f] in p.cofibrant)


def core_acyclic_fibrations(p):
    return frozenset(g for g in acyclic_fibrations(p) if p.cat.target[g] in p.fibrant)


@dataclass(frozen=True)
class SaturationFlags:
    left_saturated: bool
    core_left_saturated: bool
    right_saturated: bool
    core_right_saturated: bool

    @property
    def bi_saturated(self):
        return self.left_saturated and self.right_saturated

    def as_dict(self):
        return {
            "left_saturated": self.left_saturated,
            "core_left_saturated": self.core_left_saturated,
            "right_saturated": self.right_saturated,
            "core_right_saturated": self.core_right_saturated,
            "bi_saturated": self.bi_saturated,
        }


def saturation_flags(p):
    """Whether the anodyne classes already swallow their acyclic classes.

    Left-saturated:       AC = acyclic cofibrations.
    Core-left-saturated:  AC ⊇ acyclic cofibrations with cofibrant source.
    (and the duals on the right).  AC ⊆ acyclic always holds in a verified
    premodel, so equality and containment agree on the left flags; the core
    flags are genuine containments.
    """
    cat = p.cat
    acyclic_cof, acyclic_fib = acyclic_cofibrations(p), acyclic_fibrations(p)
    ac, af = p.anodyne_cofibrations, p.anodyne_fibrations
    return SaturationFlags(
        left_saturated=ac == acyclic_cof,
        core_left_saturated=not any(cat.source[f] in p.cofibrant for f in acyclic_cof - ac),
        right_saturated=af == acyclic_fib,
        core_right_saturated=not any(cat.target[g] in p.fibrant for g in acyclic_fib - af),
    )


def verify_premodel(p):
    """Both systems verified, AC ⊆ C and AF ⊆ F, initial and terminal exist:
    a Verdict naming each failure."""
    failures = ["category: %s" % x for x in validate_category(p.cat).violations]
    cof = verify_wfs(p.cat, p.cofibrations, p.anodyne_fibrations)
    fib = verify_wfs(p.cat, p.anodyne_cofibrations, p.fibrations)
    failures.extend("(C, AF): %s" % x for x in cof.violations)
    failures.extend("(AC, F): %s" % x for x in fib.violations)
    for name, inner, outer in (
        ("cofibrations", p.anodyne_cofibrations, p.cofibrations),
        ("fibrations", p.anodyne_fibrations, p.fibrations),
    ):
        bad = p.cat.sort_morphisms(inner - outer)
        if bad:
            failures.append("anodyne %s outside %s: %s" % (name, name, ", ".join(bad)))
    failures.extend("no %s object" % end for end in ("initial", "terminal") if getattr(p.cat, end) is None)
    return Verdict.from_violations(failures)


def _assert_premodel(q, context):
    report = verify_premodel(q)
    if not report.ok:
        raise VerificationError("%s is not a premodel: %s" % (context, "; ".join(report.violations)))


def _rebuild_fibrations(p, fibrations, what, name=None):
    """p with (AC, F) replaced by (llp F', F'), F' = ``fibrations``, or p itself,
    with every fact it has found, when that changes neither class nor the name;
    a (C, AF) rebuild is this step on ``p.dual``, then ``.dual``.  The first
    arrow h, in morphism order, that the new pair does not factor raises
    ConstructionError "<what> loses factorization of h", with witness h."""
    anodyne = complement_llp(p.cat, fibrations)
    require_factorizations(p.cat, anodyne, fibrations, what + " loses factorization of %s")
    name = p.name if name is None else name
    if (anodyne, fibrations, name) == (p.anodyne_cofibrations, p.fibrations, p.name):
        return p
    return p.with_classes(anodyne_cofibrations=anodyne, fibrations=fibrations, name=name)


def dualize(p):
    """The opposite premodel: swap the two systems across the opposite category.

    Cofibrations become fibrations and vice versa.  Built once per structure,
    on ``p.cat.op``, and involutive on the nose: ``dualize(dualize(p)) is p``.
    Only a dual whose ``p`` has been freed builds a new, equal structure.
    """
    return p.dual


def _first_factorization(p, h):
    """The first (C, AF) factorization (l, r) of h, kept in the system's
    ``factors`` once found, or None, keeping nothing."""
    factors = p._cof_system.factors
    hit = factors.get(h) or factor(p.cat, p.cofibrations, p.anodyne_fibrations, h)
    if hit is not None:
        factors[h] = hit
    return hit


def factor_cof_afib(p, h):
    """h = (anodyne fibration) ∘ (cofibration); first choice in order."""
    hit = _first_factorization(p, h)
    if hit is None:
        raise ConstructionError("no (cofibration, anodyne fibration) factorization of %s" % h, witness=h)
    return hit


def cofibrant_replacement(p, x):
    """(x', r) with x' cofibrant and r: x' -> x an anodyne fibration.

    When x is already cofibrant this is the identity; otherwise factor the
    arrow from the initial object.
    """
    _require_object(p, x)
    return _cofibrant_replacement(p, x)


def fibrant_replacement(p, x):
    """(x', j) with x' fibrant and j: x -> x' an anodyne cofibration: the
    cofibrant replacement of x in the dual, kept there."""
    _require_object(p, x)
    return _fibrant_replacement(p, x)


def _cofibrant_replacement(p, x):
    """The two replacements of an object read off the tables, unchecked."""
    if x in p.cofibrant:
        return x, p.cat.identity(x)
    h = p.cat.from_initial[x]
    hit = _first_factorization(p, h)
    if hit is None:
        raise ConstructionError(
            "no factorization of %s gives a replacement of %s" % (h, x), witness=h
        )
    return p.cat.target[hit[0]], hit[1]


def _fibrant_replacement(p, x):
    return (x, p.cat.identity(x)) if x in p.fibrant else _cofibrant_replacement(p.dual, x)


def check_quillen_adjunction(adj, p_src, p_tgt):
    """Is adj.left ⊣ adj.right a Quillen adjunction p_src -> p_tgt?

    adj.left must run p_src.cat -> p_tgt.cat.  Decision: left preserves
    cofibrations and right preserves fibrations; a Verdict naming each arrow
    that is not preserved.
    """
    failures = list(check_adjunction(adj).violations)
    if adj.left.source != p_src.cat or adj.left.target != p_tgt.cat:
        failures.append("left adjoint does not run between the given premodel categories")
    if failures:
        return Verdict.from_violations(failures)
    failures.extend(
        "left adjoint sends cofibration %s outside cofibrations" % f
        for f in p_src.cat.morphisms
        if f in p_src.cofibrations and adj.left.on_morphism(f) not in p_tgt.cofibrations
    )
    failures.extend(
        "right adjoint sends fibration %s outside fibrations" % g
        for g in p_tgt.cat.morphisms
        if g in p_tgt.fibrations and adj.right.on_morphism(g) not in p_src.fibrations
    )
    return Verdict.from_violations(failures)
