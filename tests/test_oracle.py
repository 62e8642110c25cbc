"""Engine results replayed against the direct-quantifier oracle.

Everything here recomputes the same facts as the package, written from the
definitions with nested loops and no shared search code, then insists the
two agree on every fixture.
"""

import dataclasses
import math

import bruteforce as bf
from conftest import reverse_enumeration
from monoids import bounded_monoids, finite_sets

from mclab import fixtures
from mclab.classify import classify_full, strong_cylinder_objects, strong_path_objects
from mclab.errors import InputError
from mclab.fincat import fold, pushout
from mclab.homotopy import homotopic, is_equivalence, verify_weak_model
from mclab.lifting import complement_llp, complement_rlp, factor, factorizations, has_lift, llp
from mclab.premodel import (
    acyclic_cofibrations,
    acyclic_fibrations,
    core_cofibrations,
    core_fibrations,
)


def test_endpoints_agree(category_corpus):
    for cat in category_corpus:
        inits = bf.initial_objects(cat)
        terms = bf.terminal_objects(cat)
        assert cat.initial == (inits[0] if inits else None)
        assert cat.terminal == (terms[0] if terms else None)


def test_opposite_tables_agree(category_corpus):
    for cat in category_corpus:
        op = cat.op
        source, target, table = bf.opposite_tables(cat)
        assert op.source == source
        assert op.target == target
        assert op.compose_table == table


def test_lifting_agrees_on_all_pairs(category_corpus):
    for cat in category_corpus:
        for f in cat.morphisms:
            for g in cat.morphisms:
                assert llp(cat, f, g) == bf.lifts(cat, f, g), (cat.name, f, g)


def test_diagonals_agree(category_corpus):
    for cat in category_corpus:
        for f in cat.morphisms:
            for g in cat.morphisms:
                for u, v in bf.squares(cat, f, g):
                    got = has_lift(cat, f, g, u, v)
                    want = bf.square_has_diagonal(cat, f, g, u, v)
                    assert (got is not None) == want


def test_complements_agree(premodel_corpus):
    for p in premodel_corpus:
        cat = p.cat
        for cls in p.classes().values():
            assert complement_llp(cat, cls) == bf.llp_class(cat, cls)
            assert complement_rlp(cat, cls) == bf.rlp_class(cat, cls)


def test_pushouts_agree(category_corpus):
    for cat in category_corpus:
        for f in cat.morphisms:
            for g in cat.morphisms:
                if cat.source[f] != cat.source[g]:
                    continue
                cones = bf.pushout_cones(cat, f, g)
                cone = pushout(cat, f, g)
                if cones:
                    assert cone is not None
                    assert (cone.apex, cone.legs[0], cone.legs[1]) in cones
                else:
                    assert cone is None


def test_folds_agree(category_corpus):
    for base in [*category_corpus, *bounded_monoids(), finite_sets(1), finite_sets(2)]:
        for cat in (base, base.op):
            for i in cat.morphisms:
                cones, folded = bf.pushout_cones(cat, i, i), fold(cat, i)
                assert (folded is None) == (not cones), (cat.name, i)
                if folded is not None:
                    (apex, (q0, q1)), codiag = folded
                    assert (apex, q0, q1) in cones, (cat.name, i)
                    ident = cat.identity(cat.target[i])
                    assert bf.comp(cat, codiag, q0) == bf.comp(cat, codiag, q1) == ident


def test_factorizations_agree(premodel_corpus):
    for p in premodel_corpus:
        cat = p.cat
        for left, right in (
            (p.cofibrations, p.anodyne_fibrations),
            (p.anodyne_cofibrations, p.fibrations),
        ):
            for h in cat.morphisms:
                pairs = bf.factorizations(cat, left, right, h)
                got = factor(cat, left, right, h)
                if pairs:
                    assert got in pairs
                else:
                    assert got is None


def _reversed(p):
    return dataclasses.replace(p, cat=reverse_enumeration(p.cat))


def test_factorization_order_is_pinned(premodel_corpus):
    # ``factor`` takes the first pair, and replacements and reports follow
    # that choice, so the whole sequence must match the oracle's scan order
    corpus = premodel_corpus + [fixtures.trivial_premodel(cat) for cat in bounded_monoids()]
    for p in corpus + [_reversed(p) for p in corpus]:
        cat = p.cat
        everything = frozenset(cat.morphisms)  # the whole index, every middle object
        for left, right in (
            (p.cofibrations, p.anodyne_fibrations),
            (p.anodyne_cofibrations, p.fibrations),
            (everything, everything),
        ):
            for h in cat.morphisms:
                want = bf.factorizations(cat, left, right, h)
                assert list(factorizations(cat, left, right, h)) == want, (p.name, h)


def test_object_classes_agree(premodel_corpus):
    for p in premodel_corpus:
        assert p.cofibrant == bf.cofibrant_set(p)
        assert p.fibrant == bf.fibrant_set(p)
        assert core_cofibrations(p) == bf.core_cofibrations(p)
        assert core_fibrations(p) == bf.core_fibrations(p)


def test_acyclic_classes_agree(premodel_corpus):
    # the oracle's one-sided reading of "between (co)fibrant objects" lands on
    # the same class as the two-sided one on every verified premodel
    for p in premodel_corpus:
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


def test_weak_model_verdicts_agree(premodel_corpus):
    for p in premodel_corpus:
        assert verify_weak_model(p).ok == bf.weak_model(p), p.name


def test_homotopy_verdicts_agree(premodel_corpus):
    # witness-independence is only a theorem for arrows running from a
    # cofibrant object to a fibrant one, so that is the domain compared
    for p in premodel_corpus:
        cat = p.cat
        cofibrant = bf.cofibrant_set(p)
        fibrant = bf.fibrant_set(p)
        for f in cat.morphisms:
            if cat.source[f] not in cofibrant or cat.target[f] not in fibrant:
                continue
            for g in cat.hom(cat.source[f], cat.target[f]):
                verdicts = bf.homotopies(p, f, g)
                assert verdicts, (p.name, f, g)
                assert len(set(verdicts)) == 1, (p.name, f, g)
                assert homotopic(p, f, g) == verdicts[0]


def test_equivalence_verdicts_agree(premodel_corpus):
    # the reversed copy picks other factorizations first; a kept verdict must
    # still be the one every choice gives
    for p in premodel_corpus + [_reversed(p) for p in premodel_corpus]:
        for f in p.cat.morphisms:
            verdicts = set(bf.equivalence_verdicts(p, f))
            try:
                got = is_equivalence(p, f)
            except InputError:
                # outside the declared domain no agreement is owed; the
                # broad reading may well disagree with the localization
                continue
            # inside it, every replacement/factorization choice must say
            # the same thing, and that thing is the engine verdict
            assert verdicts == {got}, (p.name, f)


# model structures among all premodels of each category: on a chain of m
# objects there are C(2m-1, m) of them
QUILLEN_COUNTS = {"chain3": math.comb(5, 3), "chain4": math.comb(7, 4), "barton": 23}


def test_quillen_verdicts_agree_on_the_census(census):
    assert sum(len(census[name]) for name in QUILLEN_COUNTS) == 125
    for name, count in QUILLEN_COUNTS.items():
        found = 0
        for p in census[name]:
            model = bf.is_model_structure(p)
            assert model == (classify_full(p).summary == "Quillen model structure"), p.classes()
            found += model
        assert found == count, name


def test_wl_and_wr_agree_on_the_census(census):
    # every census weak model; the oracle asserts that each choice of
    # replacements and covering arrow gives the same verdict
    compared = 0
    for name in QUILLEN_COUNTS:
        for p in census[name]:
            report = classify_full(p)
            if report.wl is None:
                continue
            assert report.wl == bf.wl(p), p.classes()
            assert report.wr == bf.wr(p), p.classes()
            compared += 1
    assert compared == 125


def test_strong_cylinder_and_path_objects_agree_on_the_census(census):
    # the rung reads the kept strong verdicts of 0 -> x and, on the dual, of
    # x -> 1.  On a thin category the fold of 0 -> x is x itself and the
    # identities form a strong witness, so every census answer is yes; the
    # corpus check in test_homotopy meets the no answers
    compared = 0
    for name in QUILLEN_COUNTS:
        for p in census[name]:
            cat, dual = p.cat, bf.opposite_premodel(p)
            zero, one = bf.initial_objects(cat)[0], bf.terminal_objects(cat)[0]
            acyclic, dual_acyclic = bf.acyclic_cofibrations(p), bf.acyclic_cofibrations(dual)
            cylinders = tuple(
                "no strong cylinder object for %s" % x
                for x in cat.objects
                if x in bf.cofibrant_set(p)
                and not bf.has_strong_cylinder(p, bf.hom(cat, zero, x)[0], acyclic)
            )
            paths = tuple(
                "no strong path object for %s" % x
                for x in cat.objects
                if x in bf.fibrant_set(p)
                and not bf.has_strong_cylinder(dual, bf.hom(cat, x, one)[0], dual_acyclic)
            )
            assert strong_cylinder_objects(p) == (not cylinders, cylinders), p.classes()
            assert strong_path_objects(p) == (not paths, paths), p.classes()
            compared += 1
    assert compared == 125


# per category: weak models, left/right Fresse, left/right Spitzweck, and
# left/core-left/right/core-right saturated structures of the census
SEMI_COUNTS = {
    "chain3": (13, 12, 12, 11, 11, 12, 12, 12, 12),
    "barton": (44, 39, 39, 34, 34, 39, 39, 39, 39),
    "chain4": (68, 58, 58, 44, 44, 54, 58, 54, 58),
}


def test_saturation_and_semi_flags_agree_on_the_census(census):
    for name, counts in SEMI_COUNTS.items():
        found = [0] * len(counts)
        for p in census[name]:
            report = classify_full(p)
            flags = bf.saturation_flags(p)
            left, right = bf.semi_flags(p)
            assert report.flags.as_dict() == flags, p.classes()
            if report.left_semi is None:
                assert not left["weak_model"], p.classes()
            else:
                assert {k: getattr(report.left_semi, k) for k in left} == left, p.classes()
                assert {k: getattr(report.right_semi, k) for k in right} == right, p.classes()
            seen = (
                left["weak_model"], left["fresse"], right["fresse"], left["spitzweck"],
                right["spitzweck"], flags["left_saturated"], flags["core_left_saturated"],
                flags["right_saturated"], flags["core_right_saturated"],
            )
            found = [n + bool(b) for n, b in zip(found, seen)]
        assert tuple(found) == counts, name
