"""End-to-end acceptance checks for the four-object counterexample pipeline.

Each test is one criterion; the conftest hook prints a PASS/FAIL line per
criterion after the run.  These deliberately re-derive everything from
scratch rather than trusting the unit suites.
"""

import pytest

import bruteforce as bf

from mclab import fixtures
from mclab.classify import (
    classify_full,
    compute_WL,
    compute_WR,
    left_localization_object,
    quillen_check,
    recognize_left_semi,
    recognize_right_semi,
    right_localization_object,
    two_sided_check,
)
from mclab.errors import InputError
from mclab.fincat import pushout, reverse_enumeration
from mclab.homotopy import (
    homotopic,
    homotopy_category,
    is_equivalence,
    verify_weak_model,
)
from mclab.lifting import complement_llp, complement_rlp, llp
from mclab.localize import left_bousfield, nabla
from mclab.olschok import (
    identity_cylinder,
    olschok_model,
    verify_quillen_cylinder,
)
from mclab.premodel import (
    PremodelStructure,
    acyclic_cofibrations,
    acyclic_fibrations,
    cofibrant_objects,
    core_acyclic_cofibrations,
    core_cofibrations,
    core_fibrations,
    dualize,
    fibrant_objects,
    same_classes,
    saturation_flags,
    verify_premodel,
)
from mclab.saturate import MODES, bi_saturate, saturate


def _corpus():
    return fixtures.premodel_fixtures()


def _weak_corpus():
    return [p for p in _corpus() if verify_weak_model(p).ok]


def test_criterion_01_base_structure_is_quillen_with_chain_homotopy_category():
    p0 = fixtures.barton_p0()
    report = classify_full(p0)
    assert report.premodel.ok
    assert report.weak_model.ok
    assert report.quillen is not None and report.quillen.ok
    assert report.summary == "Quillen model structure"
    ho = homotopy_category(p0).category
    assert ho.objects == ["a", "c", "d"]
    assert not ho.has_object("b")
    assert set(ho.morphisms) == {"id_a", "id_c", "id_d", "ac", "ad", "cd"}
    assert ho.compose("cd", "ac") == "ad"


def test_criterion_02_cobase_change_of_equivalence_fails():
    p0 = fixtures.barton_p0()
    cone = pushout(p0.cat, "ab", "ac")
    assert cone is not None and cone.legs[1] == "cd"
    assert is_equivalence(p0, "ab")
    assert not is_equivalence(p0, "cd")


def test_criterion_03_left_localization_classes():
    p0 = fixtures.barton_p0()
    loc = left_bousfield(p0, {"ac"}, mode="Lc")
    q = loc.structure
    assert fibrant_objects(q) == ("c", "d")
    assert "ab" in q.anodyne_fibrations
    assert "bd" in q.anodyne_cofibrations
    assert same_classes(q, fixtures.barton_p1(p0.cat))


def test_criterion_04_localized_structure_is_two_sided_but_not_quillen():
    p0 = fixtures.barton_p0()
    loc = left_bousfield(p0, {"ac"}, mode="Lc")
    q = bi_saturate(loc.structure).structure
    assert two_sided_check(q).ok
    report = quillen_check(q)
    assert not report.ok
    wl, wr = compute_WL(q), compute_WR(q)
    assert "ab" in wl and "ab" not in wr
    assert "bd" in wr and "bd" not in wl
    assert "ad" not in wl and "ad" not in wr
    assert left_localization_object(q, "b") == "c"
    assert right_localization_object(q, "b") == "d"


def test_criterion_05_duality_suite():
    for p in _corpus():
        d = dualize(p)
        assert verify_weak_model(p).ok == verify_weak_model(d).ok, p.name
        assert acyclic_cofibrations(p) == acyclic_fibrations(d), p.name
        assert acyclic_fibrations(p) == acyclic_cofibrations(d), p.name
        left, mirrored = recognize_left_semi(p), recognize_right_semi(d)
        assert left.fresse == mirrored.fresse, p.name
        assert left.spitzweck == mirrored.spitzweck, p.name
        if verify_weak_model(p).ok:
            assert compute_WL(p) == compute_WR(d), p.name
            assert compute_WR(p) == compute_WL(d), p.name


def _acyclic_with_fibrant_target_lemma(p, violations):
    fibrant = set(fibrant_objects(p))
    for f in acyclic_cofibrations(p):
        if p.cat.target[f] in fibrant and f not in p.anodyne_cofibrations:
            violations.append((p.name, "fibrant-target", f))


def _right_cancellation_lemma(p, violations):
    cat = p.cat
    acyclic = acyclic_cofibrations(p)
    cofs = p.cofibrations
    for i in cofs:
        for j in cofs:
            if cat.target[i] != cat.source[j]:
                continue
            ji = cat.compose_table[(j, i)]
            if ji not in cofs:
                continue
            for k in cofs:
                if cat.target[j] != cat.source[k]:
                    continue
                kj = cat.compose_table[(k, j)]
                if kj in acyclic and ji in acyclic and i not in acyclic:
                    violations.append((p.name, "right-cancellation", (i, j, k)))


def _cancellation_closure_lemma(p, violations):
    cat = p.cat
    closure = set(p.anodyne_cofibrations)
    changed = True
    while changed:
        changed = False
        for i in p.cofibrations:
            if i in closure:
                continue
            for j in closure:
                if cat.target[j] != cat.source[i]:
                    continue
                if cat.compose_table[(i, j)] in closure:
                    closure.add(i)
                    changed = True
                    break
    if frozenset(closure) != acyclic_cofibrations(p):
        violations.append((p.name, "cancellation-closure", frozenset(closure)))


def _nabla_lift_lemma(p, violations):
    cat = p.cat
    core_fib = core_fibrations(p)
    core_cof = core_cofibrations(p)
    for f in core_fib:
        for g in core_fib:
            if cat.target[f] != cat.source[g]:
                continue
            gf = cat.compose_table[(g, f)]
            for i in core_cof:
                if not llp(cat, i, gf):
                    continue
                if not llp(cat, nabla(p, i), g):
                    continue
                if not llp(cat, i, f):
                    violations.append((p.name, "nabla-lift", (i, f, g)))


def _rlp_core_in_wl_lemma(p, violations):
    cat = p.cat
    wl, wr = compute_WL(p), compute_WR(p)
    for m in cat.morphisms:
        if all(llp(cat, i, m) for i in core_cofibrations(p)) and m not in wl:
            violations.append((p.name, "rlp-core-in-wl", m))
        if all(llp(cat, m, q) for q in core_fibrations(p)) and m not in wr:
            violations.append((p.name, "llp-core-in-wr", m))


def _fresse_intersection_lemma(p, violations):
    left = recognize_left_semi(p)
    if not left.fresse:
        return
    wl = compute_WL(p)
    if p.fibrations & wl != acyclic_fibrations(p):
        violations.append((p.name, "fib-cap-wl", p.fibrations & wl))
    core_wl = core_cofibrations(p) & wl
    if core_wl != core_acyclic_cofibrations(p):
        violations.append((p.name, "core-cap-wl", core_wl))
    if not core_wl <= p.anodyne_cofibrations:
        violations.append((p.name, "core-wl-anodyne", core_wl))
    if left.spitzweck and not p.fibrations & wl <= p.anodyne_fibrations:
        violations.append((p.name, "fib-cap-wl-spitzweck", p.fibrations & wl))


def _strict_flag_lemma(p, violations):
    # the oracle's one-sided reading of "between (co)fibrant objects" lands on
    # the engine's two-sided class
    if not acyclic_cofibrations(p) == bf.acyclic_cofibrations(p) == bf.acyclic_cofibrations(
        p, strict=True
    ):
        violations.append((p.name, "strict-acyclic-cof", None))
    if not acyclic_fibrations(p) == bf.acyclic_fibrations(p) == bf.acyclic_fibrations(
        p, strict=True
    ):
        violations.append((p.name, "strict-acyclic-fib", None))


def test_criterion_06_lemma_suites_have_zero_violations():
    violations = []
    for p in _weak_corpus():
        _acyclic_with_fibrant_target_lemma(p, violations)
        _right_cancellation_lemma(p, violations)
        _cancellation_closure_lemma(p, violations)
        _nabla_lift_lemma(p, violations)
        _rlp_core_in_wl_lemma(p, violations)
        _fresse_intersection_lemma(p, violations)
        _strict_flag_lemma(p, violations)
    assert violations == []


def test_criterion_07_saturation_contracts():
    for p in _corpus():
        for mode in MODES:
            q = saturate(p, mode)  # raises if the bifibrant core moves
            assert same_classes(saturate(q, mode), q), (p.name, mode)
            flags = saturation_flags(q).as_dict()
            key = {
                "L": "left_saturated",
                "Lc": "core_left_saturated",
                "R": "right_saturated",
                "Rc": "core_right_saturated",
            }[mode]
            assert flags[key], (p.name, mode)
        report = bi_saturate(p)
        assert saturation_flags(report.structure).bi_saturated, p.name


def test_criterion_08_localizations_keep_their_class():
    for p in _weak_corpus():
        base = classify_full(p)
        localizers = [frozenset()] + [frozenset({m}) for m in p.cat.morphisms]
        for arrows in localizers:
            loc = left_bousfield(p, arrows, mode="Lc")
            report = classify_full(loc.structure)
            if base.left_semi.fresse:
                assert report.left_semi.fresse, (p.name, sorted(arrows))
            if base.two_sided.ok:
                q = bi_saturate(loc.structure).structure
                assert two_sided_check(q).ok, (p.name, sorted(arrows))


def _reversed_copy(p):
    return PremodelStructure(
        cat=reverse_enumeration(p.cat),
        cofibrations=p.cofibrations,
        anodyne_fibrations=p.anodyne_fibrations,
        anodyne_cofibrations=p.anodyne_cofibrations,
        fibrations=p.fibrations,
        name=p.name,
    )


def test_criterion_09_verdicts_survive_enumeration_reversal():
    for p in _weak_corpus():
        r = _reversed_copy(p)
        cat = p.cat
        cofibrant = set(cofibrant_objects(p))
        fibrant = set(fibrant_objects(p))
        for f in cat.morphisms:
            if cat.source[f] in cofibrant and cat.target[f] in fibrant:
                for g in cat.hom(cat.source[f], cat.target[f]):
                    assert homotopic(p, f, g) == homotopic(r, f, g), (p.name, f, g)
            try:
                want = is_equivalence(p, f)
            except InputError:
                with pytest.raises(InputError):
                    is_equivalence(r, f)
                continue
            assert is_equivalence(r, f) == want, (p.name, f)


def test_criterion_10_cylinder_generation():
    triv = fixtures.trivial_premodel(fixtures.chain3())
    report = olschok_model(triv, identity_cylinder(triv.cat))
    assert report.all_cofibrant
    assert report.quillen_asserted
    assert report.classification.quillen.ok

    for p in _corpus():
        cyl_report = verify_quillen_cylinder(identity_cylinder(p.cat), p)
        if (
            cyl_report.ok
            and cyl_report.strong
            and saturation_flags(p).bi_saturated
            and verify_weak_model(p).ok
        ):
            assert two_sided_check(p).ok, p.name


def test_criterion_11_oracle_agreement():
    for p in _corpus():
        cat = p.cat
        assert frozenset(cofibrant_objects(p)) == bf.cofibrant_set(p), p.name
        assert frozenset(fibrant_objects(p)) == bf.fibrant_set(p), p.name
        assert core_cofibrations(p) == bf.core_cofibrations(p), p.name
        assert core_fibrations(p) == bf.core_fibrations(p), p.name
        assert (
            acyclic_cofibrations(p)
            == bf.acyclic_cofibrations(p)
            == bf.acyclic_cofibrations(p, strict=True)
        ), p.name
        assert (
            acyclic_fibrations(p)
            == bf.acyclic_fibrations(p)
            == bf.acyclic_fibrations(p, strict=True)
        ), p.name
        for cls in p.classes().values():
            assert complement_llp(cat, cls) == bf.llp_class(cat, cls), p.name
            assert complement_rlp(cat, cls) == bf.rlp_class(cat, cls), p.name
        assert verify_premodel(p).ok  # corpus sanity, mirrors the oracle run
        assert verify_weak_model(p).ok == bf.weak_model(p), p.name
        cofibrant, fibrant = bf.cofibrant_set(p), bf.fibrant_set(p)
        for f in cat.morphisms:
            if cat.source[f] in cofibrant and cat.target[f] in fibrant:
                for g in cat.hom(cat.source[f], cat.target[f]):
                    verdicts = bf.homotopies(p, f, g)
                    assert len(set(verdicts)) == 1, (p.name, f, g)
                    assert homotopic(p, f, g) == verdicts[0], (p.name, f, g)
            verdicts = set(bf.equivalence_verdicts(p, f))
            try:
                got = is_equivalence(p, f)
            except InputError:
                continue
            assert verdicts == {got}, (p.name, f)
