"""Cylinders, path objects, the weak model axioms, and equivalences.

The central object is a *relative weak cylinder witness* for a cofibration
i: A -> B.  Write Q for the pushout B ⊔_A B with coprojections q0, q1 and
codiagonal ∇: Q -> B.  A witness consists of

    c: Q -> Z      a cofibration (the cylinder inclusion),
    l: B -> D      an acyclic cofibration (the anodyne leg),
    e: Z -> D      a comparison morphism,

such that e∘c = l∘∇ and the first leg c∘q0: B -> Z is an acyclic
cofibration.  The witness is *strong* when D = B and l is the identity, in
which case e∘c = ∇ on the nose.  A path witness for a fibration is a
cylinder witness of the dual structure: the same morphism ids, read in the
opposite category, where the pushout is a pullback and ∇ a diagonal.

"Acyclic" always means: lifts against every fibration between fibrant
objects (or dually), computed fresh from the marked classes — see the
premodel module.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .errors import ConstructionError, InputError, VerificationError
from .fincat import FiniteCategory, Verdict, fold, validate_category
from .premodel import (
    _cofibrant_replacement,
    _fibrant_replacement,
    acyclic_cofibrations,
    arrow_from_initial,
    arrow_to_terminal,
    dualize,
    factor_cof_afib,
    verify_premodel,
)
from .lifting import _require_morphisms, _unknown_morphism, has_lift


@dataclass(frozen=True)
class CylinderWitness:
    base: str            # the cofibration i: A -> B
    fold_apex: str       # Q = B ⊔_A B
    coproj0: str         # q0: B -> Q
    coproj1: str         # q1: B -> Q
    codiagonal: str      # ∇: Q -> B
    cylinder_obj: str    # Z
    cylinder_cof: str    # c: Q -> Z, a cofibration
    weak_target: str     # D
    anodyne_leg: str     # l: B -> D, an acyclic cofibration
    comparison: str      # e: Z -> D with e∘c = l∘∇
    strong: bool


_BASES = "a cylinder needs a cofibration, a path a fibration"
_LEGS = "a cylinder needs an acyclic cofibration, a path an acyclic fibration"


def fold_cone(p, i):
    """The pushout B ⊔_A B of a cofibration along itself, plus ∇.

    Returns (Cone, codiagonal), found once per category.  Raises
    ConstructionError when the pushout is absent — no cylinder can exist then;
    a wrong base's text holds also for a path search, run on the dual.
    """
    if i not in p.cofibrations:
        name = p.name or p.cat.name
        raise InputError("%s does not fit this search in %s: %s" % (i, name, _BASES))
    folded = fold(p.cat, i)
    if folded is None:
        raise ConstructionError("pushout of %s along itself is absent" % i, witness=i)
    return folded


def iter_cylinder_witnesses(p, i, mode="weak"):
    """All witnesses for i, searching candidates in enumeration order."""
    cat = p.cat
    for c, l, e in _cylinder_search(p, i, mode):
        cone, codiag = fold(cat, i)
        yield CylinderWitness(
            base=i, fold_apex=cone.apex, coproj0=cone.legs[0], coproj1=cone.legs[1],
            codiagonal=codiag, cylinder_obj=cat.target[c], cylinder_cof=c,
            weak_target=cat.target[l], anodyne_leg=l, comparison=e,
            strong=l == cat.identity(cat.target[i]),
        )


def find_cylinder(p, i, mode="weak"):
    """First witness in search order, or None."""
    return next(iter_cylinder_witnesses(p, i, mode), None)


def _cylinder_search(p, i, mode):
    """The one search behind every witness: (c, l, e) in enumeration order; an
    existence check runs it without building witnesses.

    The strong search is the weak one with the identity as its only anodyne
    leg l.  A candidate c with no witness, because no l∘∇ factors through it,
    is skipped: its bit is clear in every ``cat.left_factors[l∘∇]``.
    """
    if mode not in ("weak", "strong"):
        raise InputError("cylinder mode must be 'weak' or 'strong', got %r" % mode)
    cat = p.cat
    cone, codiag = fold_cone(p, i)
    q0 = cone.legs[0]
    b = cat.target[i]
    acyclic = acyclic_cofibrations(p)
    table, index = cat.compose_table, cat._morphism_index
    if mode == "strong":
        legs = [cat.identity(b)]
    else:
        legs = [l for l in cat.arrows_from(b) if l in acyclic]
    reach = 0
    for l in legs:
        reach |= cat.left_factors[table[(l, codiag)]]

    for c in cat.arrows_from(cone.apex):
        if reach >> index[c] & 1 and c in p.cofibrations and table[(c, q0)] in acyclic:
            for l in legs:
                rhs = table[(l, codiag)]
                for e in cat.hom(cat.target[c], cat.target[l]):
                    if table[(e, c)] == rhs:
                        yield c, l, e


def check_cylinder_witness(p, w):
    """Recheck every defining condition of a witness against the tables.

    The fold data must match the canonical pushout (all witnesses built by
    this package do).
    """
    cat = p.cat
    v = []
    for m in (w.base, w.coproj0, w.coproj1, w.codiagonal, w.cylinder_cof, w.anodyne_leg, w.comparison):
        if not cat.has_morphism(m):
            v.append("unknown morphism %r" % m)
    if v:
        return Verdict.from_violations(v)

    if w.base not in p.cofibrations:
        v.append("base %s does not fit this search: %s" % (w.base, _BASES))
        return Verdict.from_violations(v)
    cone, codiag = fold_cone(p, w.base)
    if (w.fold_apex, w.coproj0, w.coproj1, w.codiagonal) != (cone.apex, cone.legs[0], cone.legs[1], codiag):
        v.append("fold data does not match the canonical pushout")
        return Verdict.from_violations(v)

    b = cat.target[w.base]
    acyclic = acyclic_cofibrations(p)
    if w.cylinder_cof not in p.cofibrations:
        v.append("cylinder inclusion %s does not fit this search: %s" % (w.cylinder_cof, _BASES))
    if cat.source.get(w.cylinder_cof) != w.fold_apex or cat.target.get(w.cylinder_cof) != w.cylinder_obj:
        v.append("cylinder inclusion endpoints are wrong")
    first_leg = cat.compose_table.get((w.cylinder_cof, w.coproj0))
    if first_leg is not None and first_leg not in acyclic:
        v.append("first leg %s does not fit this search: %s" % (first_leg, _LEGS))
    if w.anodyne_leg not in acyclic:
        v.append("anodyne leg %s does not fit this search: %s" % (w.anodyne_leg, _LEGS))
    if cat.source.get(w.anodyne_leg) != b or cat.target.get(w.anodyne_leg) != w.weak_target:
        v.append("anodyne leg endpoints are wrong")
    if cat.source.get(w.comparison) != w.cylinder_obj or cat.target.get(w.comparison) != w.weak_target:
        v.append("comparison endpoints are wrong")
    if not v:
        lhs = cat.compose_table[(w.comparison, w.cylinder_cof)]
        rhs = cat.compose_table[(w.anodyne_leg, w.codiagonal)]
        if lhs != rhs:
            v.append("square fails: e∘c = %s but l∘∇ = %s" % (lhs, rhs))
    if w.strong:
        if w.weak_target != b:
            v.append("strong witness must target the base's codomain")
        if w.anodyne_leg != cat.identity(b):
            v.append("strong witness must have an identity anodyne leg")
    return Verdict.from_violations(v)


def weak_to_strong(p, w):
    """Upgrade a weak witness over a fibrant base codomain.

    Lifting the identity through the anodyne leg against B -> 1 yields a
    retraction r of l; composing the comparison with r gives a strong
    witness with the same cylinder object.
    """
    if w.strong:
        return w
    cat = p.cat
    b = cat.target[w.base]
    if b not in p.fibrant:
        raise ConstructionError(
            "cannot strengthen: %s is not fibrant" % b, witness=w.base
        )
    r = has_lift(
        cat,
        w.anodyne_leg,
        arrow_to_terminal(p, b),
        cat.identity(b),
        arrow_to_terminal(p, w.weak_target),
    )
    if r is None:
        # The anodyne leg is acyclic and B -> 1 is a fibration between
        # fibrant objects, so this lift is guaranteed; reaching here means
        # the input was not a valid witness.
        raise VerificationError("no retraction of the anodyne leg %s" % w.anodyne_leg)
    upgraded = replace(
        w,
        comparison=cat.compose_table[(r, w.comparison)],
        weak_target=b,
        anodyne_leg=cat.identity(b),
        strong=True,
    )
    verdict = check_cylinder_witness(p, upgraded)
    if not verdict.ok:
        raise VerificationError(
            "strengthened witness fails validation: %s" % "; ".join(verdict.violations)
        )
    return upgraded


def find_path(p, g, mode="weak"):
    """First path witness for a fibration g: a cylinder witness of the dual."""
    return find_cylinder(dualize(p), g, mode)


def check_path_witness(p, w):
    """Recheck a path witness as the cylinder witness it is on the dual."""
    return check_cylinder_witness(dualize(p), w)


@dataclass(frozen=True)
class WeakModelReport:
    ok: bool
    cylinder_axiom: bool
    path_axiom: bool
    alt_criterion: bool
    dual_alt_criterion: bool
    cylinder_failures: tuple[str, ...]
    path_failures: tuple[str, ...]
    alt_failures: tuple[str, ...]
    dual_alt_failures: tuple[str, ...]


def _cylinder_axiom(p):
    """Strong cylinders for every cofibration from cofibrant to fibrant."""
    failures = []
    for i in p.cat.sort_morphisms(p.cofibrations):
        if p.cat.source[i] not in p.cofibrant or p.cat.target[i] not in p.fibrant:
            continue
        if not any(_cylinder_search(p, i, "strong")):
            failures.append("no strong cylinder for %s" % i)
    return not failures, tuple(failures)


def _alt_criterion(p):
    """Weak cylinders on the core plus right cancellation of acyclicity.

    Core cofibration = cofibration with cofibrant source.  Right
    cancellation: for composable core cofibrations j then i, if j and i∘j
    are acyclic then so is i.
    """
    cat = p.cat
    failures = []
    core = [f for f in cat.sort_morphisms(p.cofibrations) if cat.source[f] in p.cofibrant]
    for i in core:
        if not any(_cylinder_search(p, i, "weak")):
            failures.append("no weak cylinder for %s" % i)
    acyclic = acyclic_cofibrations(p)
    in_core = set(core)
    for j in core:
        if j not in acyclic:
            continue
        for i in cat.arrows_from(cat.target[j]):
            if i in in_core and i not in acyclic and cat.compose_table[(i, j)] in acyclic:
                failures.append("right cancellation fails at %s after %s" % (i, j))
    return not failures, tuple(failures)


def verify_weak_model(p):
    """The two axioms, their core-criterion reformulations, and agreement.

    ok = cylinder axiom ∧ path axiom.  On a structure that verifies as a
    premodel the reformulation must agree with the axioms; disagreement
    raises, because that would falsify a theorem this package relies on.
    """
    dual = dualize(p)
    cyl_ok, cyl_failures = _cylinder_axiom(p)
    path_ok, path_failures = _cylinder_axiom(dual)
    alt_ok, alt_failures = _alt_criterion(p)
    dual_alt_ok, dual_alt_failures = _alt_criterion(dual)

    main = cyl_ok and path_ok
    alt = alt_ok and dual_alt_ok
    if main != alt and verify_premodel(p).ok:
        raise VerificationError(
            "axioms (%s) and core criterion (%s) disagree on %s"
            % (main, alt, p.name or p.cat.name)
        )
    return WeakModelReport(
        ok=main,
        cylinder_axiom=cyl_ok,
        path_axiom=path_ok,
        alt_criterion=alt_ok,
        dual_alt_criterion=dual_alt_ok,
        cylinder_failures=cyl_failures,
        path_failures=path_failures,
        alt_failures=alt_failures,
        dual_alt_failures=dual_alt_failures,
    )


def homotopic(p, f, g):
    """Left homotopy through the first weak cylinder on the shared source.

    Defined for parallel morphisms from a cofibrant object to a fibrant one.
    The verdict does not depend on which witness is used (the suite checks
    this by exhausting witnesses).
    """
    cat = p.cat
    _require_morphisms(cat, (f, g))
    x, y = cat.source[f], cat.target[f]
    if (cat.source[g], cat.target[g]) != (x, y):
        raise InputError("%s and %s are not parallel" % (f, g))
    if x not in p.cofibrant:
        raise InputError("source %s is not cofibrant" % x)
    if y not in p.fibrant:
        raise InputError("target %s is not fibrant" % y)

    w = find_cylinder(p, arrow_from_initial(p, x), "weak")
    if w is None:
        raise ConstructionError("no weak cylinder on %s" % x, witness=x)
    return _homotopic_via(p, w, f, g)


def _homotopic_via(p, w, f, g):
    cat = p.cat
    e0 = cat.compose_table[(w.cylinder_cof, w.coproj0)]
    e1 = cat.compose_table[(w.cylinder_cof, w.coproj1)]
    y = cat.target[f]
    return any(
        cat.compose_table[(h, e0)] == f and cat.compose_table[(h, e1)] == g
        for h in cat.hom(w.cylinder_obj, y)
    )


@dataclass(frozen=True)
class HomotopyCategory:
    category: FiniteCategory
    class_of: dict      # morphism id (bifibrant endpoints) -> representative id
    classes: dict       # representative id -> tuple of members


def homotopy_category(p):
    """Bifibrant objects, hom-sets modulo homotopy, induced composition.

    Every well-definedness obligation is checked explicitly; a failure
    raises (the caller is expected to have verified the weak model axioms).
    """
    cat = p.cat
    objs = [x for x in cat.objects if x in p.cofibrant and x in p.fibrant]
    class_of = {}
    classes = {}
    for x in objs:
        for y in objs:
            arrows = cat.hom(x, y)
            rel = {
                (f, g): homotopic(p, f, g) for f in arrows for g in arrows
            }
            for f in arrows:
                if not rel[(f, f)]:
                    raise VerificationError("homotopy not reflexive at %s" % f)
                for g in arrows:
                    if rel[(f, g)] != rel[(g, f)]:
                        raise VerificationError("homotopy not symmetric at %s, %s" % (f, g))
                    for h in arrows:
                        if rel[(f, g)] and rel[(g, h)] and not rel[(f, h)]:
                            raise VerificationError(
                                "homotopy not transitive at %s, %s, %s" % (f, g, h)
                            )
            for f in arrows:
                rep = next(m for m in arrows if rel[(f, m)])
                class_of[f] = rep
                classes.setdefault(rep, []).append(f)

    reps = [m for m in cat.morphisms if class_of.get(m) == m]
    morphisms = [(m, cat.source[m], cat.target[m]) for m in reps]
    identities = {x: class_of[cat.identity(x)] for x in objs}
    compose = {}
    for f in reps:
        for g in reps:
            if cat.target[f] != cat.source[g]:
                continue
            rep = class_of[cat.compose_table[(g, f)]]
            for f2 in classes[f]:
                for g2 in classes[g]:
                    if class_of[cat.compose_table[(g2, f2)]] != rep:
                        raise VerificationError(
                            "composition not homotopy-invariant at %s ∘ %s" % (g, f)
                        )
            compose[(g, f)] = rep
    quotient = FiniteCategory(
        "Ho(%s)" % (p.name or cat.name), objs, morphisms, identities, compose
    )
    verdict = validate_category(quotient)
    if not verdict.ok:
        raise VerificationError("homotopy category is not a category: %s" % (verdict.violations,))
    return HomotopyCategory(
        quotient, class_of, {r: tuple(ms) for r, ms in classes.items()}
    )


def cf_arrows(p):
    """Arrows whose endpoints are each cofibrant or fibrant."""
    out = []
    for m in p.cat.morphisms:
        ends_ok = True
        for x in (p.cat.source[m], p.cat.target[m]):
            if x not in p.cofibrant and x not in p.fibrant:
                ends_ok = False
        if ends_ok:
            out.append(m)
    return tuple(out)


def core_cofibration_representative(p, s):
    """A cofibration with cofibrant source standing in for an arbitrary arrow s.

    With r: X' -> X the cofibrant replacement of the source and j: Y -> Y'
    the fibrant replacement of the target, factor j∘s∘r as (cofibration,
    anodyne fibration) and return the cofibration.  Each replacement is the
    identity on an object that needs none.
    """
    cat = p.cat
    if not cat.has_morphism(s):
        raise _unknown_morphism(cat, s)
    _, r = _cofibrant_replacement(p, cat.source[s])
    _, j = _fibrant_replacement(p, cat.target[s])
    composite = cat.compose_table[(j, cat.compose_table[(s, r)])]
    l, _ = factor_cof_afib(p, composite)
    return l


def is_equivalence(p, f):
    """Is the core cofibration representative of f acyclic?

    f must join objects that are each cofibrant or fibrant.  The verdict is
    independent of the replacement and factorization choices; the oracle in
    the test suite recomputes it over *all* choices.
    """
    if f not in p.equivalence_verdicts:
        cat = p.cat
        if not cat.has_morphism(f):
            raise _unknown_morphism(cat, f)
        for z in (cat.source[f], cat.target[f]):
            if z not in p.cofibrant and z not in p.fibrant:
                raise InputError(
                    "equivalence undefined: %s is neither cofibrant nor fibrant" % z
                )
        p.equivalence_verdicts[f] = core_cofibration_representative(p, f) in acyclic_cofibrations(p)
    return p.equivalence_verdicts[f]


def equivalences(p):
    """All equivalences among the arrows where the notion is defined."""
    return frozenset(f for f in cf_arrows(p) if is_equivalence(p, f))
