"""Cylinder functors, corner products, and generated model structures.

The corner (pushout-product) of a natural transformation λ: F -> G with a
morphism v: X -> Y is the mediating map

    F(Y) ⊔_{F(X)} G(X)  ->  G(Y)

out of the pushout of F(v) against λ_X.  A transformation is a *cofibration*
when all its corners with cofibrations are cofibrations and all its corners
with anodyne cofibrations are anodyne; it is *anodyne* when all its corners
with cofibrations are anodyne.

A weak Quillen cylinder is a functorial factorization of the fold map:
Id ⊔ Id --i--> I --e--> D <--j-- Id with e∘i = j∘fold, i a cofibration
transformation, j and i∘inl anodyne ones.  Strong means D = Id and j the
identity.  A whole model structure can be generated from a localizer and
such a cylinder through the Λ construction.
"""

from typing import NamedTuple

from .errors import ConstructionError, InputError, VerificationError
from .classify import classify_full
from .fincat import (
    FunctorData,
    Verdict,
    _closure,
    check_functor,
    coproduct,
    identity_functor,
    mediating_out,
    pushout,
)
from .lifting import _require_morphisms, _unknown_morphism, complement_rlp, verify_wfs
from .premodel import PremodelStructure, _assert_premodel, _rebuild_fibrations
from .saturate import saturate


class NatTrans(NamedTuple):
    name: str
    source: FunctorData
    target: FunctorData
    components: dict   # object -> morphism of the target category

    def at(self, x):
        return self.components[x]


def check_nat_trans(nt):
    v = []
    F, G = nt.source, nt.target
    if F.source != G.source or F.target != G.target:
        v.append("source and target functors are not parallel")
        return Verdict.from_violations(v)
    cat, dst = F.source, F.target
    for x in cat.objects:
        comp = nt.components.get(x)
        if comp is None or not dst.has_morphism(comp):
            v.append("component at %r missing or unknown" % x)
            continue
        if dst.source[comp] != F.on_object(x) or dst.target[comp] != G.on_object(x):
            v.append("component at %r is not F(%r) -> G(%r)" % (x, x, x))
    if v:
        return Verdict.from_violations(v)
    for f in cat.morphisms:
        x, y = cat.source[f], cat.target[f]
        lhs = dst.compose_table[(G.on_morphism(f), nt.components[x])]
        rhs = dst.compose_table[(nt.components[y], F.on_morphism(f))]
        if lhs != rhs:
            v.append("naturality fails at %s" % f)
    return Verdict.from_violations(v)


def compose_nt(outer, inner):
    """Vertical composition (outer after inner)."""
    dst = inner.source.target
    return NatTrans(
        "%s∘%s" % (outer.name, inner.name),
        inner.source,
        outer.target,
        {
            x: dst.compose_table[(outer.components[x], inner.components[x])]
            for x in inner.source.source.objects
        },
    )


def identity_nt(fun):
    return NatTrans(
        "id_%s" % fun.name,
        fun,
        fun,
        {x: fun.target.identity(fun.on_object(x)) for x in fun.source.objects},
    )


def pair_functor(cat):
    """X ↦ X ⊔ X with its two inclusions and the fold transformation.

    Raises ConstructionError when some binary coproduct is absent.
    """
    cones = {}
    for x in cat.objects:
        cone = coproduct(cat, x, x)
        if cone is None:
            raise ConstructionError("coproduct of %r with itself is absent" % x, witness=x)
        cones[x] = cone
    object_map = {x: cones[x].apex for x in cat.objects}
    morphism_map = {}
    for v in cat.morphisms:
        x, y = cat.source[v], cat.target[v]
        q0y, q1y = cones[y].legs
        morphism_map[v] = mediating_out(
            cat, cones[x], (cat.compose_table[(q0y, v)], cat.compose_table[(q1y, v)])
        )
    fun = FunctorData("pair_%s" % cat.name, cat, cat, object_map, morphism_map)
    ident = identity_functor(cat)
    inl = NatTrans("inl", ident, fun, {x: cones[x].legs[0] for x in cat.objects})
    inr = NatTrans("inr", ident, fun, {x: cones[x].legs[1] for x in cat.objects})
    fold = NatTrans(
        "fold",
        fun,
        ident,
        {x: mediating_out(cat, cones[x], (cat.identity(x), cat.identity(x))) for x in cat.objects},
    )
    return fun, inl, inr, fold


def corner_product(lam, v):
    """The corner of a transformation with a morphism of its source category."""
    F, G = lam.source, lam.target
    cat = F.source
    dst = F.target
    if not cat.has_morphism(v):
        raise _unknown_morphism(cat, v)
    x, y = cat.source[v], cat.target[v]
    cone = pushout(dst, F.on_morphism(v), lam.components[x])
    if cone is None:
        raise ConstructionError(
            "corner pushout of %s with %s is absent" % (lam.name, v), witness=v
        )
    return mediating_out(dst, cone, (lam.components[y], G.on_morphism(v)))


def _corners_outside(lam, cat, members, into, text):
    """``text`` for each member whose corner with ``lam`` is not in ``into``."""
    return [text % i for i in cat.sort_morphisms(members) if corner_product(lam, i) not in into]


def nt_is_cofibration(lam, p):
    """Corners with cofibrations of p are cofibrations, with anodyne anodyne."""
    cat, cof, ac = p.cat, p.cofibrations, p.anodyne_cofibrations
    not_cof = "corner with cofibration %s is not a cofibration"
    not_anodyne = "corner with anodyne %s is not anodyne"
    return Verdict.from_violations(
        _corners_outside(lam, cat, cof, cof, not_cof) + _corners_outside(lam, cat, ac, ac, not_anodyne)
    )


def nt_is_anodyne(lam, p):
    """Corners with all cofibrations of p are anodyne cofibrations."""
    text = "corner with cofibration %s is not anodyne"
    return Verdict.from_violations(
        _corners_outside(lam, p.cat, p.cofibrations, p.anodyne_cofibrations, text)
    )


class QuillenCylinderData(NamedTuple):
    name: str
    pair: FunctorData
    inl: NatTrans
    inr: NatTrans
    fold: NatTrans
    cylinder: FunctorData       # I
    weak_target: FunctorData    # D
    inclusion: NatTrans         # i: pair -> I
    leg: NatTrans               # j: Id -> D
    comparison: NatTrans        # e: I -> D


def identity_cylinder(cat):
    """I = D = Id: the inclusion is the fold itself, leg and comparison are
    identities.  On thin categories every corner collapses to an identity,
    so this is a strong Quillen cylinder for any marked structure there.
    """
    fun, inl, inr, fold = pair_functor(cat)
    ident = identity_functor(cat)
    return QuillenCylinderData(
        name="identity",
        pair=fun,
        inl=inl,
        inr=inr,
        fold=fold,
        cylinder=ident,
        weak_target=ident,
        inclusion=NatTrans("i", fun, ident, dict(fold.components)),
        leg=identity_nt(ident),
        comparison=identity_nt(ident),
    )


class CylinderReport(NamedTuple):
    ok: bool
    strong: bool
    failures: tuple[str, ...]


def _structural_cylinder_check(cyl, cat):
    if cyl.pair.source != cat:
        text = "cylinder lives on %s, not on %s" % (cyl.pair.source.name, cat.name)
        return Verdict.from_violations([text])
    v = []
    for fun in (cyl.pair, cyl.cylinder, cyl.weak_target):
        verdict = check_functor(fun)
        v.extend("functor %s: %s" % (fun.name, x) for x in verdict.violations)
    for nt in (cyl.inl, cyl.inr, cyl.fold, cyl.inclusion, cyl.leg, cyl.comparison):
        verdict = check_nat_trans(nt)
        v.extend("transformation %s: %s" % (nt.name, x) for x in verdict.violations)
    if v:
        return Verdict.from_violations(v)
    for x in cat.objects:
        lhs = cat.compose_table[(cyl.comparison.at(x), cyl.inclusion.at(x))]
        rhs = cat.compose_table[(cyl.leg.at(x), cyl.fold.at(x))]
        if lhs != rhs:
            v.append("factorization square fails at %r" % x)
    return Verdict.from_violations(v)


def _cylinder_is_strong(cyl, cat):
    d = cyl.weak_target
    return (
        d.object_map == {x: x for x in cat.objects}
        and d.morphism_map == {m: m for m in cat.morphisms}
        and all(cat.is_identity(cyl.leg.at(x)) for x in cat.objects)
    )


def verify_quillen_cylinder(cyl, p):
    """Full check against a premodel: structure, classes, and the square."""
    cat = p.cat
    failures = list(_structural_cylinder_check(cyl, cat).violations)
    if not failures:
        failures.extend("inclusion: %s" % x for x in nt_is_cofibration(cyl.inclusion, p).violations)
        failures.extend("leg: %s" % x for x in nt_is_anodyne(cyl.leg, p).violations)
        first = compose_nt(cyl.inclusion, cyl.inl)
        failures.extend("first inclusion: %s" % x for x in nt_is_anodyne(first, p).violations)
    ok = not failures
    return CylinderReport(ok, ok and _cylinder_is_strong(cyl, cat), tuple(failures))


def check_pre_cylinder(cyl, p):
    """The single-system cylinder condition on p's (C, AF): corners of the
    inclusion with cofibrations are cofibrations (plus all structural checks)."""
    text = "corner of inclusion with %s leaves the cofibrations"
    return Verdict.from_violations(
        _structural_cylinder_check(cyl, p.cat).violations
        or _corners_outside(cyl.inclusion, p.cat, p.cofibrations, p.cofibrations, text)
    )


def olschok_lambda(p, cyl, seeds, include_second=True):
    """Λ: close the localizer under the cylinder's corner operators.

    Λ contains the seeds and the corners σ0 ⌢ i (optionally also σ1 ⌢ i)
    for every cofibration i of p, and is closed under j ↦ σ ⌢ j.  Every
    member must be a cofibration; a stray member raises, because the
    closure is only meaningful below the marked system.
    """
    cat = p.cat
    sigma = cyl.inclusion
    sigma0 = compose_nt(cyl.inclusion, cyl.inl)
    sigma1 = compose_nt(cyl.inclusion, cyl.inr)

    members = set(seeds)
    for i in p.cofibrations:
        members.add(corner_product(sigma0, i))
        if include_second:
            members.add(corner_product(sigma1, i))
    members = _closure(members, lambda j: (corner_product(sigma, j),))
    stray = cat.sort_morphisms(members - p.cofibrations)
    if stray:
        raise VerificationError("Λ contains non-cofibrations: %s" % ", ".join(stray))
    return members


class OlschokReport(NamedTuple):
    lambda_set: frozenset
    lambda_without_second: frozenset
    second_corner_matters: bool
    premodel: PremodelStructure
    saturated: PremodelStructure
    classification: object
    all_cofibrant: bool
    quillen_asserted: bool
    left_semi_asserted: bool


def olschok_model(p, cyl, seeds=()):
    """Generate a premodel structure from a cylinder and a localizer.

    The result keeps p's (C, AF); its anodyne side is generated by Λ, which
    starts from the seeds and the corners of p's cofibrations: anodyne
    cofibrations llp(rlp(Λ)), fibrations rlp(Λ).  A category without an
    initial or terminal object, a (C, AF) that is not a weak factorization
    system, a cylinder that fails ``check_pre_cylinder``, or a seed that is
    not a cofibration raises InputError.  The result is saturated
    (core-left) and classified.  When every object is cofibrant the
    classification must come out Quillen; otherwise, when the cylinder still
    verifies on the saturated structure, the left semi-model verdict must
    hold.  Both implications are enforced, not assumed.
    """
    cat = p.cat
    missing = " and no ".join(end for end in ("initial", "terminal") if getattr(cat, end) is None)
    if missing:
        text = "olschok needs initial and terminal objects: %s has no %s object"
        raise InputError(text % (cat.name, missing))
    system_report = verify_wfs(cat, p.cofibrations, p.anodyne_fibrations)
    if not system_report.ok:
        raise InputError(
            "olschok needs a verified marked system: %s" % "; ".join(system_report.violations)
        )
    pre = check_pre_cylinder(cyl, p)
    if not pre.ok:
        raise InputError("olschok needs a verified cylinder: %s" % "; ".join(pre.violations))
    _require_morphisms(cat, seeds)
    stray = cat.sort_morphisms(set(seeds) - p.cofibrations)
    if stray:
        raise InputError("olschok seeds must be cofibrations: %s" % ", ".join(stray))
    lam = olschok_lambda(p, cyl, seeds, include_second=True)
    lam_first_only = olschok_lambda(p, cyl, seeds, include_second=False)

    name = "%s_olschok" % p.label
    generated = _rebuild_fibrations(p, complement_rlp(cat, lam), "generated system", name)
    _assert_premodel(generated, "generated structure")
    saturated = saturate(generated, "Lc")
    classification = classify_full(saturated)
    all_cofibrant = saturated.cofibrant == frozenset(cat.objects)

    quillen_asserted = all_cofibrant
    left_semi_asserted = not all_cofibrant and verify_quillen_cylinder(cyl, saturated).ok
    if quillen_asserted and (classification.quillen is None or not classification.quillen.ok):
        raise VerificationError("all objects cofibrant but the generated structure is not Quillen")
    if left_semi_asserted and not classification.left_semi.fresse:
        raise VerificationError("cylinder verifies but the generated structure is not left semi")
    return OlschokReport(
        lambda_set=lam,
        lambda_without_second=lam_first_only,
        second_corner_matters=lam != lam_first_only,
        premodel=generated,
        saturated=saturated,
        classification=classification,
        all_cofibrant=all_cofibrant,
        quillen_asserted=quillen_asserted,
        left_semi_asserted=left_semi_asserted,
    )
