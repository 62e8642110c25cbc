"""Recognition ladder: premodel → weak model → semi-model → Quillen.

Two yardsticks extend the equivalences beyond arrows with cofibrant-or-
fibrant endpoints: WL(f) asks whether the arrow induced between cofibrant
replacements is an equivalence, WR(f) the same with fibrant replacements.
On a Quillen model structure the two agree; the four-object counterexample
in the fixtures is exactly a two-sided weak model where they do not.

The arrow between fibrant replacements is its left twin on ``p.dual``;
WR's verdicts are still asked of ``p``.
The arrows are grouped by their covering arrow once per (C, AF), in
``lifting._system``, so WL and WR ask one ``is_equivalence`` per group.  The
strong cylinder and path objects read the kept verdicts of ``homotopy``.
"""

from typing import NamedTuple

from .errors import VerificationError
from .fincat import Verdict
from .homotopy import (
    _cylinder_verdict,
    equivalences,
    is_equivalence,
    verify_weak_model,
)
from .lifting import factorizations
from .premodel import (
    _cofibrant_replacement,
    _fibrant_replacement,
    dualize,
    saturation_flags,
    verify_premodel,
)


def strong_cylinder_objects(p):
    """Strong cylinders on every cofibrant object (base 0 -> X)."""
    return Verdict.from_violations(
        "no strong cylinder object for %s" % x
        for x in p.cat.objects
        if x in p.cofibrant and not _cylinder_verdict(p, p.cat.from_initial[x])[1]
    )


def strong_path_objects(p):
    return Verdict.from_violations(
        "no strong path object for %s" % x
        for x in p.cat.objects
        if x in p.fibrant and not _cylinder_verdict(p.dual, p.cat.to_terminal[x])[1]
    )


class LeftSemiReport(NamedTuple):
    weak_model: bool
    strong_cylinders: bool
    core_left_saturated: bool
    right_saturated: bool
    failures: tuple[str, ...]

    @property
    def fresse(self):
        return self.weak_model and self.strong_cylinders and self.core_left_saturated

    @property
    def spitzweck(self):
        return self.fresse and self.right_saturated


class RightSemiReport(NamedTuple):
    weak_model: bool
    strong_paths: bool
    core_right_saturated: bool
    left_saturated: bool
    failures: tuple[str, ...]

    @property
    def fresse(self):
        return self.weak_model and self.strong_paths and self.core_right_saturated

    @property
    def spitzweck(self):
        return self.fresse and self.left_saturated


def _left_semi(weak, cylinders, flags):
    """Weak model + strong cylinders on cofibrant objects + core left
    saturation; the stronger convention additionally wants right saturation.
    """
    failures = list(cylinders.violations)
    if not flags.core_left_saturated:
        failures.append("not core left saturated")
    return LeftSemiReport(
        weak.ok, cylinders.ok, flags.core_left_saturated, flags.right_saturated, tuple(failures)
    )


def _right_semi(p, weak, paths, flags):
    """Mirror image of ``_left_semi``, cross-checked through duality."""
    failures = list(paths.violations)
    if not flags.core_right_saturated:
        failures.append("not core right saturated")
    report = RightSemiReport(
        weak.ok, paths.ok, flags.core_right_saturated, flags.left_saturated, tuple(failures)
    )
    # The left-semi recognizer on the dual. Its weak-model report and strong
    # cylinders are ``weak`` and ``paths``, which were already searched on the
    # dual; its flags come from the dual's own acyclic classes, computed from
    # the opposite category's own lifting relation: the independent side.
    mirror = _left_semi(weak, paths, saturation_flags(dualize(p)))
    if (mirror.fresse, mirror.spitzweck) != (report.fresse, report.spitzweck):
        raise VerificationError("right semi recognition disagrees with its dual on %s" % p.label)
    return report


class TwoSidedReport(NamedTuple):
    weak_model: bool
    strong_cylinders: bool
    strong_paths: bool
    bi_saturated: bool

    @property
    def ok(self):
        return (
            self.weak_model
            and self.strong_cylinders
            and self.strong_paths
            and self.bi_saturated
        )


def _induced_groups(q):
    """``{d: arrows}``: the arrows f that the arrow d between q's cofibrant
    replacements covers, kept per (C, AF) in ``lifting._system``.

    d is the first diagonal, in morphism order, of the square the target's
    replacement (an anodyne fibration) makes with the source's cofibrant
    replacement.  The verdicts do not depend on the choice (the test suite's
    ``bruteforce.wl`` and ``wr`` try all of them).
    """
    facts = q._cof_system
    if facts.induced is None:
        cat, table, groups = q.cat, q.cat.compose_table, {}
        for f in cat.morphisms:
            xc, r_x = _cofibrant_replacement(q, cat.source[f])
            yc, r_y = _cofibrant_replacement(q, cat.target[f])
            bottom = table[(f, r_x)]
            d = next((d for d in cat.hom(xc, yc) if table[(r_y, d)] == bottom), None)
            if d is None:
                raise VerificationError("no arrow between replacements covers %s" % f)
            groups.setdefault(d, []).append(f)
        facts.induced = groups
    return facts.induced


def _covered_equivalences(p, q):
    """The arrows whose covering arrow between q's cofibrant replacements is an
    equivalence of p: one ``is_equivalence`` per distinct covering arrow."""
    groups = _induced_groups(q).items()
    return frozenset().union(*[arrows for d, arrows in groups if is_equivalence(p, d)])


def compute_WL(p):
    """Arrows whose cofibrant-replacement comparison is an equivalence.

    Defined for every arrow; callers are expected to have verified the weak
    model axioms first, since the notion is only stable there.
    """
    return _covered_equivalences(p, p)


def compute_WR(p):
    """Arrows whose fibrant-replacement comparison (WL's, on the dual) is an equivalence."""
    p.fibrant  # read on p first, so a missing terminal object is named as such
    return _covered_equivalences(p, p.dual)


class QuillenReport(NamedTuple):
    ok: bool
    wl_equals_wr: bool
    anodyne_in_wl: bool
    replacement_composite_exists: bool       # some factorization choices work
    replacement_composite_canonical: bool    # the canonical choices work
    square_condition: bool                   # informational
    square_condition_vacuous: bool


def _quillen(p, wl, wr):
    """Four equivalent detectors of Quillen-ness on a two-sided structure.

    1. WL = WR;
    2. anodyne cofibrations ⊆ WL;
    3. for every object some cofibrant-then-fibrant replacement composite is
       an equivalence;
    4. the canonical replacement composite is an equivalence at every object.
    These must agree — disagreement raises.  The fibrant-square condition is
    evaluated alongside for the record, with a vacuity flag set when every
    object is already fibrant.
    """
    cat = p.cat
    cond1 = wl == wr
    cond3 = p.anodyne_cofibrations <= wl

    # some (C, AF) then (AC, F) factorization choice gives an equivalence ...
    cond5 = all(
        any(
            is_equivalence(p, cat.compose_table[(l2, r1)])
            for _, r1 in factorizations(cat, p.cofibrations, p.anodyne_fibrations, cat.from_initial[x])
            for l2, _ in factorizations(cat, p.anodyne_cofibrations, p.fibrations, cat.to_terminal[x])
        )
        for x in cat.objects
    )
    # ... and so do the canonical replacements, fibrant after cofibrant
    cond6 = all(
        is_equivalence(
            p, cat.compose_table[(_fibrant_replacement(p, x)[1], _cofibrant_replacement(p, x)[1])]
        )
        for x in cat.objects
    )

    # v passes when some wy∘v, with wy in WL into a fibrant object, factors
    # through such a wx, the first half of one of its ``factor_pairs``
    into_fibrant = {w for w in wl if cat.target[w] in p.fibrant}
    square_ok = all(
        any(
            wx in into_fibrant
            for wy in cat.arrows_from(cat.target[v])
            if wy in into_fibrant
            for wx, _ in cat.factor_pairs[cat.compose_table[(wy, v)]]
        )
        for v in cat.morphisms
    )
    vacuous = all(x in p.fibrant for x in cat.objects)

    verdicts = (cond1, cond3, cond5, cond6)
    if len(set(verdicts)) != 1:
        raise VerificationError(
            "quillen detectors disagree on %s: wl=wr %s, anodyne⊆wl %s, "
            "composite-exists %s, composite-canonical %s"
            % ((p.label,) + verdicts)
        )
    return QuillenReport(cond1, cond1, cond3, cond5, cond6, square_ok, vacuous)


class ClassificationReport(NamedTuple):
    premodel: object
    flags: object
    weak_model: object
    left_semi: object
    right_semi: object
    two_sided: object
    quillen: object
    equivalences: frozenset | None
    wl: frozenset | None
    wr: frozenset | None
    summary: str


def classify_full(p):
    """Run the whole ladder bottom-up, stopping where verification stops.

    This is the ladder's one entry point: each rung is evaluated once on
    ``p`` and handed to the rungs above it.
    """
    premodel_report = verify_premodel(p)
    if not premodel_report.ok:
        return ClassificationReport(
            premodel_report, None, None, None, None, None, None, None, None, None,
            "not a premodel",
        )
    flags = saturation_flags(p)
    weak = verify_weak_model(p)
    if not weak.ok:
        return ClassificationReport(
            premodel_report, flags, weak, None, None, None, None, None, None, None,
            "premodel (weak model axioms fail)",
        )
    cylinders = strong_cylinder_objects(p)
    paths = strong_path_objects(p)
    left = _left_semi(weak, cylinders, flags)
    right = _right_semi(p, weak, paths, flags)
    two = TwoSidedReport(weak.ok, cylinders.ok, paths.ok, flags.bi_saturated)
    wl = compute_WL(p)
    wr = compute_WR(p)
    quillen = _quillen(p, wl, wr) if two.ok else None
    eqs = equivalences(p)

    if two.ok and not (left.spitzweck and right.spitzweck):
        raise VerificationError("two-sided structure fails a semi-model recognizer")

    if quillen is not None and quillen.ok:
        summary = "Quillen model structure"
    elif two.ok:
        summary = "two-sided weak model (not Quillen)"
    elif left.spitzweck and right.spitzweck:
        summary = "left and right semi-model (Spitzweck)"
    elif left.spitzweck:
        summary = "left semi-model (Spitzweck)"
    elif left.fresse and right.fresse:
        summary = "left and right semi-model (Fresse)"
    elif left.fresse:
        summary = "left semi-model (Fresse)"
    elif right.spitzweck:
        summary = "right semi-model (Spitzweck)"
    elif right.fresse:
        summary = "right semi-model (Fresse)"
    else:
        summary = "weak model"
    return ClassificationReport(
        premodel_report, flags, weak, left, right, two, quillen, eqs, wl, wr, summary
    )
