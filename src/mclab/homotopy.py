"""Cylinders, path objects, the weak model axioms, and equivalences.

The central object is a *relative weak cylinder witness* for a cofibration
i: A -> B.  Write Q for the pushout B ⊔_A B with coprojections q0, q1 and
codiagonal ∇: Q -> B.  A witness is its base i and three arrows

    c: Q -> Z      a cofibration (the cylinder inclusion),
    l: B -> D      an acyclic cofibration (the anodyne leg),
    e: Z -> D      a comparison morphism,

such that e∘c = l∘∇ and the first leg c∘q0: B -> Z is an acyclic
cofibration.  The rest is the category's: Q, q0, q1 and ∇ are
``fold(cat, i)``, Z and D the targets of c and l.  The witness is *strong*
when l is the identity of B, in which case e∘c = ∇ on the nose; that
identity is an anodyne leg like any other, so it too must be an acyclic
cofibration.  A path witness for a fibration is a cylinder witness of the
dual structure: the same morphism ids, read in the opposite category, where
the pushout is a pullback and ∇ a diagonal.  So ``find_cylinder(p.dual, g)``
finds one and ``check_cylinder_witness(p.dual, w)`` checks it.

"Acyclic" always means: lifts against every fibration between fibrant
objects (or dually), computed fresh from the marked classes — see the
premodel module.

One search, ``_cylinder_search``, walks the witnesses in enumeration order.
``iter_cylinder_witnesses`` builds each one it finds;
``_cylinder_verdict`` stops at the first witness whose leg is the identity of B
and keeps the (weak, strong) answer per cofibration in ``cylinder_verdicts``,
read by the axioms, the core criterion and the strong cylinder and path
objects.  The parser and ``poset_category`` list the identities before every
other arrow, and ``cat.op`` keeps that order, so on their categories the
trivial witness (id_Q, id_B, ∇), when it exists, is the first one found.
"""

from typing import NamedTuple

from .errors import ConstructionError, InputError, VerificationError
from .fincat import FiniteCategory, Verdict, fold, validate_category
from .premodel import (
    _cofibrant_replacement,
    _fibrant_replacement,
    acyclic_cofibrations,
    dualize,
    factor_cof_afib,
    verify_premodel,
)
from .lifting import _require_morphisms, _unknown_morphism, has_lift


class CylinderWitness(NamedTuple):
    base: str            # the cofibration i: A -> B
    cylinder_cof: str    # c: Q -> Z, a cofibration
    anodyne_leg: str     # l: B -> D, an acyclic cofibration
    comparison: str      # e: Z -> D with e∘c = l∘∇


_BASES = "a cylinder needs a cofibration, a path a fibration"
_LEGS = "a cylinder needs an acyclic cofibration, a path an acyclic fibration"


def fold_cone(p, i):
    """The pushout B ⊔_A B of a cofibration along itself, plus ∇.

    Returns (Cone, codiagonal), found once per category.  Raises
    ConstructionError when the pushout is absent — no cylinder can exist then;
    a wrong base's text holds also for a path search, run on the dual.
    """
    if i not in p.cofibrations:
        raise InputError("%s does not fit this search in %s: %s" % (i, p.label, _BASES))
    folded = fold(p.cat, i)
    if folded is None:
        raise ConstructionError("pushout of %s along itself is absent" % i, witness=i)
    return folded


def iter_cylinder_witnesses(p, i):
    """All witnesses for i in enumeration order; the strong ones are those whose
    anodyne leg is the identity of B."""
    for c, l, e in _cylinder_search(p, i):
        yield CylinderWitness(i, c, l, e)


def find_cylinder(p, i):
    """First witness in search order, or None."""
    return next(iter_cylinder_witnesses(p, i), None)


def _cylinder_search(p, i):
    """The witnesses (c, l, e) on the cofibration i, in enumeration order: each
    cofibration c leaving Q whose first leg c∘q0 is acyclic, then each acyclic l
    leaving B, then each e: Z -> D with e∘c = l∘∇.  ``fold_cone`` raises first."""
    (apex, (q0, _)), codiag = fold_cone(p, i)
    cat, acyclic = p.cat, p.acyclic_cofibrations
    table = cat.compose_table
    for c in cat.arrows_from(apex):
        if c in p.cofibrations and table[(c, q0)] in acyclic:
            for l in cat.arrows_from(cat.target[i]):
                if l in acyclic:
                    rhs = table[(l, codiag)]
                    for e in cat.hom(cat.target[c], cat.target[l]):
                        if table[(e, c)] == rhs:
                            yield c, l, e


def _cylinder_verdict(p, i):
    """(weak, strong): has the cofibration i a witness, and one whose leg is the
    identity of B?  The search stops at the first such witness; the answer is
    kept in ``p.cylinder_verdicts``."""
    verdict = p.cylinder_verdicts.get(i)
    if verdict is None:
        ident, weak = p.cat.identity(p.cat.target[i]), False
        for _, l, _ in _cylinder_search(p, i):
            weak = True
            if l == ident:
                break
        verdict = p.cylinder_verdicts[i] = (weak, weak and l == ident)
    return verdict


def check_cylinder_witness(p, w):
    """Recheck every defining condition of a witness against the tables: Q, q0
    and ∇ are read off the fold of the base, Z and D are the targets of c and l.
    A base with no fold has no witness, and the verdict says so."""
    cat = p.cat
    v = ["unknown morphism %r" % m for m in w if not cat.has_morphism(m)]
    if v:
        return Verdict.from_violations(v)
    i, c, l, e = w
    if i not in p.cofibrations:
        return Verdict.from_violations(["base %s does not fit this search: %s" % (i, _BASES)])
    try:
        (apex, (q0, _)), codiag = fold_cone(p, i)
    except ConstructionError as err:
        return Verdict.from_violations(["base %s has no fold: %s" % (i, err)])
    table, acyclic = cat.compose_table, acyclic_cofibrations(p)
    if c not in p.cofibrations:
        v.append("cylinder inclusion %s does not fit this search: %s" % (c, _BASES))
    if cat.source[c] != apex:
        v.append("cylinder inclusion endpoints are wrong")
    first_leg = table.get((c, q0))
    if first_leg is not None and first_leg not in acyclic:
        v.append("first leg %s does not fit this search: %s" % (first_leg, _LEGS))
    if l not in acyclic:
        v.append("anodyne leg %s does not fit this search: %s" % (l, _LEGS))
    if cat.source[l] != cat.target[i]:
        v.append("anodyne leg endpoints are wrong")
    if (cat.source[e], cat.target[e]) != (cat.target[c], cat.target[l]):
        v.append("comparison endpoints are wrong")
    if not v:
        lhs, rhs = table[(e, c)], table[(l, codiag)]
        if lhs != rhs:
            v.append("square fails: e∘c = %s but l∘∇ = %s" % (lhs, rhs))
    return Verdict.from_violations(v)


def weak_to_strong(p, w):
    """Upgrade a weak witness over a fibrant base codomain.

    Lifting the identity through the anodyne leg against B -> 1 yields a
    retraction r of l; composing the comparison with r gives a strong
    witness with the same cylinder object.  A witness that fails
    ``check_cylinder_witness`` raises InputError naming its first violation.
    """
    verdict = check_cylinder_witness(p, w)
    if not verdict.ok:
        raise InputError("cannot strengthen an invalid witness: %s" % verdict.violations[0])
    cat = p.cat
    b = cat.target[w.base]
    ident = cat.identity(b)
    if w.anodyne_leg == ident:
        return w
    if b not in p.fibrant:
        raise ConstructionError(
            "cannot strengthen: %s is not fibrant" % b, witness=w.base
        )
    d = cat.target[w.anodyne_leg]
    r = has_lift(cat, w.anodyne_leg, cat.to_terminal[b], ident, cat.to_terminal[d])
    if r is None:
        # The anodyne leg is acyclic and B -> 1 is a fibration between
        # fibrant objects, so this lift is guaranteed for a witness that
        # passed the check above; reaching here means the tables disagree.
        raise VerificationError("no retraction of the anodyne leg %s" % w.anodyne_leg)
    upgraded = w._replace(comparison=cat.compose_table[(r, w.comparison)], anodyne_leg=ident)
    verdict = check_cylinder_witness(p, upgraded)
    if not verdict.ok:
        raise VerificationError(
            "strengthened witness fails validation: %s" % "; ".join(verdict.violations)
        )
    return upgraded


class WeakModelReport(NamedTuple):
    ok: bool
    cylinder_axiom: bool
    path_axiom: bool
    alt_criterion: bool
    dual_alt_criterion: bool
    failures: tuple[str, ...]


def _cylinder_axiom(p):
    """Strong cylinders for every cofibration from cofibrant to fibrant."""
    cat = p.cat
    return Verdict.from_violations(
        "no strong cylinder for %s" % i
        for i in cat.morphisms
        if i in p.cofibrations and cat.source[i] in p.cofibrant and cat.target[i] in p.fibrant
        and not _cylinder_verdict(p, i)[1]
    )


def _alt_criterion(p):
    """Weak cylinders on the core plus right cancellation of acyclicity.

    Core cofibration = cofibration with cofibrant source.  Right
    cancellation: for composable core cofibrations j then i, if j and i∘j
    are acyclic then so is i.
    """
    cat = p.cat
    core = [f for f in cat.morphisms if f in p.cofibrations and cat.source[f] in p.cofibrant]
    failures = ["no weak cylinder for %s" % i for i in core if not _cylinder_verdict(p, i)[0]]
    acyclic = acyclic_cofibrations(p)
    in_core = set(core)
    for j in core:
        if j not in acyclic:
            continue
        for i in cat.arrows_from(cat.target[j]):
            if i in in_core and i not in acyclic and cat.compose_table[(i, j)] in acyclic:
                failures.append("right cancellation fails at %s after %s" % (i, j))
    return Verdict.from_violations(failures)


def verify_weak_model(p):
    """The two axioms, their core-criterion reformulations, and agreement.

    ok = cylinder axiom ∧ path axiom.  On a structure that verifies as a
    premodel the reformulation must agree with the axioms; disagreement
    raises, because that would falsify a theorem this package relies on.
    """
    dual = dualize(p)
    cyl, path = _cylinder_axiom(p), _cylinder_axiom(dual)
    alt, dual_alt = _alt_criterion(p).ok, _alt_criterion(dual).ok
    main, core = cyl.ok and path.ok, alt and dual_alt
    if main != core and verify_premodel(p).ok:
        raise VerificationError(
            "axioms (%s) and core criterion (%s) disagree on %s" % (main, core, p.label)
        )
    return WeakModelReport(main, cyl.ok, path.ok, alt, dual_alt, cyl.violations + path.violations)


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

    w = find_cylinder(p, cat.from_initial[x])
    if w is None:
        raise ConstructionError("no weak cylinder on %s" % x, witness=x)
    (_, (q0, q1)), _ = fold(cat, w.base)
    c, table = w.cylinder_cof, cat.compose_table
    e0, e1 = table[(c, q0)], table[(c, q1)]
    return any(table[(h, e0)] == f and table[(h, e1)] == g for h in cat.hom(cat.target[c], y))


class HomotopyCategory(NamedTuple):
    category: FiniteCategory
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
    quotient = FiniteCategory("Ho(%s)" % p.label, objs, morphisms, identities, compose)
    verdict = validate_category(quotient)
    if not verdict.ok:
        raise VerificationError("homotopy category is not a category: %s" % (verdict.violations,))
    return HomotopyCategory(quotient, {r: tuple(ms) for r, ms in classes.items()})


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
    """All equivalences among the arrows where the notion is defined: those whose
    endpoints are each cofibrant or fibrant."""
    cat, ends = p.cat, p.cofibrant | p.fibrant
    return frozenset(
        f for f in cat.morphisms
        if cat.source[f] in ends and cat.target[f] in ends and is_equivalence(p, f)
    )
