import dataclasses
import gc
import weakref

import pytest

import bruteforce as bf
from conftest import identity_adjunction

import mclab.fincat
import mclab.lifting
from mclab import fixtures
from mclab.classify import classify_full
from mclab.errors import ConstructionError, InputError
from mclab.fincat import Verdict
from mclab.homotopy import equivalences, fold_cone, verify_weak_model
from mclab.lifting import factor, factorizations, llp, verify_wfs
from mclab.premodel import (
    acyclic_cofibrations,
    acyclic_fibrations,
    check_quillen_adjunction,
    cofibrant_replacement,
    core_acyclic_cofibrations,
    core_cofibrations,
    core_fibrations,
    dualize,
    factor_cof_afib,
    fibrant_replacement,
    same_classes,
    saturation_flags,
    verify_premodel,
)

IDS = frozenset({"id_a", "id_b", "id_c", "id_d"})


@pytest.fixture(scope="module")
def p0():
    return fixtures.barton_p0()


@pytest.fixture(scope="module")
def p1():
    return fixtures.barton_p1()


def test_corpus_verifies(premodel_corpus):
    for p in premodel_corpus:
        verdict = verify_premodel(p)
        assert verdict.ok, (p.name, verdict.violations)


def test_p0_classes_frozen(p0):
    assert p0.cofibrations == IDS | {"ac", "ad", "bd", "cd"}
    assert p0.anodyne_fibrations == IDS | {"ab"}
    assert p0.anodyne_cofibrations == IDS
    assert p0.fibrations == IDS | {"ab", "ac", "ad", "bd", "cd"}


def test_p1_classes_frozen(p1):
    assert p1.cofibrations == IDS | {"ac", "ad", "bd", "cd"}
    assert p1.anodyne_cofibrations == IDS | {"ac", "bd"}
    assert p1.fibrations == IDS | {"ab", "cd"}
    assert p1.anodyne_fibrations == IDS | {"ab"}


def test_object_status(p0, p1):
    assert p0.cofibrant == {"a", "c", "d"}
    assert p0.fibrant == {"a", "b", "c", "d"}
    assert p1.cofibrant == {"a", "c", "d"}
    assert p1.fibrant == {"c", "d"}
    assert "b" not in p1.cofibrant and "b" not in p1.fibrant
    assert p1.cat.from_initial["b"] == "ab"
    assert p1.cat.to_terminal["b"] == "bd"
    # b is neither, so each replacement factors its endpoint arrow
    assert cofibrant_replacement(p1, "b") == ("a", "ab")
    assert fibrant_replacement(p1, "b") == ("d", "bd")


def test_core_classes(p1):
    # cofibrations with both ends cofibrant / fibrations with both ends fibrant
    assert core_cofibrations(p1) == frozenset(
        {"id_a", "id_c", "id_d", "ac", "ad", "cd"}
    )
    assert core_fibrations(p1) == frozenset({"id_c", "id_d", "cd"})
    assert core_acyclic_cofibrations(p1) == frozenset({"id_a", "id_c", "id_d", "ac"})


def test_acyclic_classes_frozen(p0, p1):
    assert acyclic_cofibrations(p0) == IDS
    assert acyclic_fibrations(p0) == IDS | {"ab"}
    assert acyclic_cofibrations(p1) == IDS | {"ac", "bd"}
    assert acyclic_fibrations(p1) == IDS | {"ab"}



def test_strict_flag_agrees_on_verified_premodels(premodel_corpus):
    # the engine keeps one reading of "between (co)fibrant objects"; the
    # oracle's strict reading probes more (co)fibrations, but on a verified
    # structure both cuts land on the same class
    for p in premodel_corpus:
        assert acyclic_cofibrations(p) == bf.acyclic_cofibrations(p, strict=True)
        assert acyclic_fibrations(p) == bf.acyclic_fibrations(p, strict=True)

def test_saturation_flags(premodel_corpus):
    for p in premodel_corpus:
        flags = saturation_flags(p)
        assert flags.bi_saturated, p.name
        assert set(flags.as_dict()) == {
            "left_saturated",
            "core_left_saturated",
            "right_saturated",
            "core_right_saturated",
            "bi_saturated",
        }


def test_replacements(p1):
    assert cofibrant_replacement(p1, "b") == ("a", "ab")
    assert cofibrant_replacement(p1, "a") == ("a", "id_a")
    assert fibrant_replacement(p1, "a") == ("c", "ac")
    assert fibrant_replacement(p1, "b") == ("d", "bd")
    assert fibrant_replacement(p1, "d") == ("d", "id_d")


def test_structures_on_one_system_share_its_facts():
    cat = fixtures.barton()
    everything = frozenset(cat.morphisms)
    p0, p1 = fixtures.barton_p0(cat), fixtures.barton_p1(cat)
    # P0 and P1 have the same (C, AF) and different (AC, F); a replacement is
    # read off the kept first factorization of the arrow from the initial object
    assert p0._cof_system is p1._cof_system and p1._cof_system.factors == {}
    assert cofibrant_replacement(p1, "b") == ("a", "ab")
    assert p0._cof_system.factors == {"ab": ("id_a", "ab")}
    assert verify_wfs(cat, p0.cofibrations, p0.anodyne_fibrations) is verify_wfs(
        cat, p1.cofibrations, p1.anodyne_fibrations
    )
    assert verify_wfs(cat, p0.anodyne_cofibrations, p0.fibrations) is not verify_wfs(
        cat, p1.anodyne_cofibrations, p1.fibrations
    )
    # the same C with another AF is another pair: a key on C alone would mix them
    bare = p1.with_classes(anodyne_fibrations=IDS)
    assert bare._cof_system is not p1._cof_system and bare._cof_system.factors == {}
    with pytest.raises(ConstructionError, match="no factorization of ab gives a replacement of b"):
        cofibrant_replacement(bare, "b")
    assert verify_wfs(cat, p1.cofibrations, p1.anodyne_fibrations).ok
    assert not verify_wfs(cat, bare.cofibrations, bare.anodyne_fibrations).ok
    # a fibrant replacement is kept by the dual, on the pair (F, AC) of cat.op
    q = p1.with_classes(cofibrations=everything, anodyne_fibrations=IDS)
    assert verify_premodel(q).ok
    assert q.dual._cof_system is p1.dual._cof_system is not p0.dual._cof_system
    assert fibrant_replacement(p1, "b") == ("d", "bd")
    assert q.dual._cof_system.factors == {"bd": ("id_d", "bd")}
    assert p0.dual._cof_system.factors == {}


def test_dualize_is_involutive_and_swaps_classes(premodel_corpus):
    for p in premodel_corpus:
        q = dualize(p)
        assert q.cat == p.cat.op
        assert q.cofibrations == p.fibrations
        assert q.anodyne_cofibrations == p.anodyne_fibrations
        assert verify_premodel(q).ok, p.name
        assert same_classes(dualize(q), p)
        assert dualize(q).cat == p.cat


def test_premodel_is_frozen():
    p = fixtures.barton_p1()
    with pytest.raises(dataclasses.FrozenInstanceError):
        p.cofibrations = IDS
    with pytest.raises(dataclasses.FrozenInstanceError):
        p.name = "renamed"


def test_derived_classes_are_computed_once_per_structure():
    p0 = fixtures.barton_p0()
    assert dualize(p0) is dualize(p0)
    assert acyclic_cofibrations(p0) == IDS
    # same cofibration system as P1, P1's fibration system: the acyclic
    # classes and the dual are recomputed for the new classes, not copied
    q = p0.with_classes(
        anodyne_cofibrations=IDS | {"ac", "bd"}, fibrations=IDS | {"ab", "cd"}
    )
    assert acyclic_cofibrations(q) == IDS | {"ac", "bd"}
    assert acyclic_fibrations(q) == IDS | {"ab"}
    assert dualize(q).cofibrations == q.fibrations
    assert acyclic_cofibrations(p0) == IDS


def test_derived_facts_hold_no_reference_cycles():
    # cat.op.op is cat and p.dual.dual is p through weak links back; a strong
    # link would make a cycle that only the cyclic garbage collector could free
    gc.disable()
    try:
        cat = fixtures.barton()
        p = fixtures.barton_p1(cat)
        cat.op
        cat.terminal
        llp(cat, "ab", "cd")
        dualize(p)
        acyclic_fibrations(p)
        fold_cone(p, "ac")
        factor(cat, p.cofibrations, p.anodyne_fibrations, "ab")
        for x in cat.objects:
            cofibrant_replacement(p, x)
            fibrant_replacement(p, x)
        equivalences(p)
        verify_weak_model(p)
        classify_full(p)
        classify_full(dualize(p))
        assert cat.op.op is cat
        assert dualize(dualize(p)) is p
        refs = [weakref.ref(x) for x in (cat, cat.op, p, dualize(p))]
        del cat, p
        assert [r() for r in refs] == [None] * 4
    finally:
        gc.enable()


def test_orphaned_dual_builds_its_opposite_once():
    cat = fixtures.barton()
    p = fixtures.barton_p1(cat)
    classify_full(p)
    dual = dualize(p)
    refs = [weakref.ref(cat), weakref.ref(p)]
    del cat, p
    assert [r() for r in refs] == [None, None]
    # only now does the dual's category build an opposite: a new, equal one,
    # whose own opposite is the dual's category again
    rebuilt = dual.cat.op
    assert rebuilt == fixtures.barton()
    assert dual.cat.op is rebuilt and rebuilt.op is dual.cat
    q = dualize(dual)
    assert dualize(dual) is q and q.cat is rebuilt and q.dual is dual
    got, want = classify_full(q), classify_full(fixtures.barton_p1())
    assert (got.summary, got.flags, got.equivalences, got.wl, got.wr) == (
        want.summary, want.flags, want.equivalences, want.wl, want.wr
    )


def test_weak_model_check_of_the_dual_searches_nothing_new(monkeypatch, premodel_corpus):
    rows, colimits, epi_folds = [], [], []
    search_rows, search_colimit = mclab.lifting._lifting_rows, mclab.fincat._search_colimit
    epi_fold = mclab.fincat._epi_fold

    def counted_rows(cat):
        rows.append(cat)
        return search_rows(cat)

    def counted_colimit(cat, feet, equations):
        colimits.append(equations)
        return search_colimit(cat, feet, equations)

    def counted_epi_fold(cat, i):
        epi_folds.append(i)
        return epi_fold(cat, i)

    first = 0
    for p in premodel_corpus:
        monkeypatch.setattr(mclab.lifting, "_lifting_rows", counted_rows)
        monkeypatch.setattr(mclab.fincat, "_search_colimit", counted_colimit)
        monkeypatch.setattr(mclab.fincat, "_epi_fold", counted_epi_fold)
        verify_weak_model(p)
        first += len(epi_folds)
        del rows[:], colimits[:], epi_folds[:]
        # p.dual.dual is p, so every row search and fold was already run
        assert verify_weak_model(dualize(p)).ok == verify_weak_model(p).ok
        assert (rows, colimits, epi_folds) == ([], [], []), p.name
        monkeypatch.undo()
    # the counters see the folds: the first checks ran some
    assert first > 0


def test_factoring_an_unknown_arrow_names_it(p0):
    calls = (
        lambda: factor(p0.cat, p0.cofibrations, p0.anodyne_fibrations, "zz"),
        lambda: list(factorizations(p0.cat, p0.cofibrations, p0.anodyne_fibrations, "zz")),
        lambda: factor_cof_afib(p0, "zz"),
    )
    for call in calls:
        for _ in range(2):
            with pytest.raises(InputError, match="'zz'"):
                call()


def test_verify_premodel_failure_flags(p0):
    broken = p0.with_classes(anodyne_cofibrations=IDS | {"ab"})
    verdict = verify_premodel(broken)
    assert not verdict.ok
    assert "anodyne cofibrations outside cofibrations: ab" in verdict.violations
    broken = p0.with_classes(anodyne_cofibrations=IDS | {"cd"})
    verdict = verify_premodel(broken)
    assert not verdict.ok
    assert not any(v.startswith("anodyne ") for v in verdict.violations)
    assert any(v.startswith("(AC, F): ") for v in verdict.violations)
    assert not any(v.startswith("(C, AF): ") for v in verdict.violations)


def test_premodel_requires_endpoints():
    p = fixtures.trivial_premodel(fixtures.discrete2())
    verdict = verify_premodel(p)
    assert not verdict.ok
    assert "no initial object" in verdict.violations
    assert "no terminal object" in verdict.violations


def test_quillen_adjunction_check(collapse_setup, p0, p1):
    adj, pt_triv, p0_fresh = collapse_setup
    assert check_quillen_adjunction(adj, pt_triv, p0_fresh) == Verdict(True, ())
    # a left Quillen functor between premodels also keeps the anodyne and
    # the acyclic cofibrations
    for ours, theirs in (
        (pt_triv.anodyne_cofibrations, p0_fresh.anodyne_cofibrations),
        (acyclic_cofibrations(pt_triv), acyclic_cofibrations(p0_fresh)),
    ):
        assert {adj.left.on_morphism(f) for f in ours} <= theirs

    # the identity is left Quillen from the coarse structure to the fine one,
    # and only its right adjoint fails the other way
    adj = identity_adjunction(p0.cat)
    assert check_quillen_adjunction(adj, p0, p1).ok
    assert check_quillen_adjunction(adj, p1, p0).violations == tuple(
        "right adjoint sends fibration %s outside fibrations" % g for g in ("ac", "ad", "bd")
    )


def test_quillen_adjunction_rejects_wrong_categories(p0):
    adj = identity_adjunction(fixtures.point())
    report = check_quillen_adjunction(adj, p0, p0)
    assert not report.ok
    assert any("premodel categories" in s for s in report.violations)


def test_arrow_lookup_rejects_unknown_object(p0):
    lookups = (cofibrant_replacement, fibrant_replacement)
    for lookup in lookups:
        with pytest.raises(InputError):
            lookup(p0, "z")
    # an unknown object is reported before a missing endpoint
    p = fixtures.trivial_premodel(fixtures.discrete2())
    for lookup in lookups:
        with pytest.raises(InputError):
            lookup(p, "z")
    for lookup, end in zip(lookups, ("initial", "terminal")):
        with pytest.raises(ConstructionError, match="no %s object" % end):
            lookup(p, "u")
    # the tables hold no arrow where the endpoint is missing
    assert p.cat.from_initial is None and p.cat.to_terminal is None
    # the object status itself needs the endpoint
    for status, end in (("cofibrant", "initial"), ("fibrant", "terminal")):
        with pytest.raises(ConstructionError, match="no %s object" % end):
            getattr(p, status)


def test_object_status_is_kept_per_structure(premodel_corpus):
    for p in premodel_corpus:
        assert p.cofibrant == bf.cofibrant_set(p), p.name
        assert p.fibrant == bf.fibrant_set(p), p.name
        assert p.cofibrant is p.cofibrant
        # the dual computes its own status on the opposite category
        assert dualize(p).fibrant == p.cofibrant
        assert dualize(p).cofibrant == p.fibrant
