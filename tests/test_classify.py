import itertools
from dataclasses import replace

import pytest

import bruteforce as bf
import mclab.classify
from mclab import fixtures
from mclab.classify import (
    classify_full,
    compute_WL,
    compute_WR,
    strong_cylinder_objects,
    strong_path_objects,
)
from mclab.errors import ConstructionError, VerificationError
from mclab.fincat import poset_category
from mclab.homotopy import is_equivalence
from mclab.premodel import (
    PremodelStructure,
    cofibrant_replacement,
    dualize,
    fibrant_replacement,
    same_classes,
)
from mclab.saturate import MODES, saturate

from conftest import categories_built, transport
from monoids import bounded_monoids

IDS = frozenset({"id_a", "id_b", "id_c", "id_d"})


@pytest.fixture(scope="module")
def p0():
    return fixtures.barton_p0()


@pytest.fixture(scope="module")
def p1():
    return fixtures.barton_p1()


def test_classify_p0_is_quillen(p0):
    report = classify_full(p0)
    assert report.summary == "Quillen model structure"
    assert report.premodel.ok
    assert report.weak_model.ok
    assert report.left_semi.spitzweck and report.right_semi.spitzweck
    assert report.two_sided.ok
    assert report.quillen.ok
    assert report.wl == report.wr == IDS | {"ab"}
    assert report.equivalences == IDS | {"ab"}


def test_classify_p1_is_two_sided_not_quillen(p1):
    report = classify_full(p1)
    assert report.summary == "two-sided weak model (not Quillen)"
    assert report.two_sided.ok
    assert not report.quillen.ok
    q = report.quillen
    # all four detectors must come down on the same side, here: false
    assert not q.wl_equals_wr
    assert not q.anodyne_in_wl
    assert not q.replacement_composite_exists
    assert not q.replacement_composite_canonical
    assert not q.square_condition
    assert not q.square_condition_vacuous
    assert report.wl == IDS | {"ab", "ac"}
    assert report.wr == IDS | {"ac", "bd"}


def test_wl_wr_membership_tells_the_two_localizations_apart(p1):
    wl = compute_WL(p1)
    wr = compute_WR(p1)
    assert "ab" in wl and "ab" not in wr
    assert "bd" in wr and "bd" not in wl
    assert "ad" not in wl and "ad" not in wr
    assert "ac" in wl and "ac" in wr


def test_localization_objects(p1):
    # left: the fibrant replacement of the cofibrant replacement; right: the
    # cofibrant replacement of the fibrant replacement
    assert fibrant_replacement(p1, cofibrant_replacement(p1, "b")[0])[0] == "c"
    assert cofibrant_replacement(p1, fibrant_replacement(p1, "b")[0])[0] == "d"
    assert fibrant_replacement(p1, cofibrant_replacement(p1, "a")[0])[0] == "c"
    assert cofibrant_replacement(p1, fibrant_replacement(p1, "d")[0])[0] == "d"


def test_a_missing_terminal_object_is_named_as_such():
    # t above x and y: an initial object and no terminal one.  WR's comparison
    # and saturation R/Rc run on the dual, whose missing initial object is V's
    # terminal one.  W, t below x and y, is the mirror.
    v = poset_category("V", ["t", "x", "y"], [("x", "t"), ("y", "t")])
    w = poset_category("W", ["t", "x", "y"], [("t", "x"), ("t", "y")])
    saturations = [lambda p, mode=mode: saturate(p, mode) for mode in MODES]
    for cat, missing, checks in (
        (v, "terminal", [compute_WR, lambda p: fibrant_replacement(p, "x"), *saturations]),
        (w, "initial", saturations),
    ):
        ids, every = frozenset(cat.identities.values()), frozenset(cat.morphisms)
        for classes in itertools.product((ids, every), repeat=4):
            p = PremodelStructure(cat, *classes, name=cat.name)
            for check in checks:
                with pytest.raises(ConstructionError) as err:
                    check(p)
                assert str(err.value) == "category %s has no %s object" % (cat.name, missing)


@pytest.fixture(scope="module")
def monoid_premodels(census):
    """Every verified premodel on the bounded monoids."""
    return [p for cat in bounded_monoids() for p in census[cat.name]]


def _oracle_fibrant_replacement(p, x):
    """The first (anodyne cofibration, fibration) factorization of x -> 1."""
    cat = p.cat
    if x in bf.fibrant_set(p):
        return x, cat.identities[x]
    to_one = bf.hom(cat, x, bf.terminal_objects(cat)[0])[0]
    l, _ = bf.factorizations(cat, p.anodyne_cofibrations, p.fibrations, to_one)[0]
    return cat.target[l], l


def test_fibrant_replacements_on_bounded_monoids(monoid_premodels):
    # non-thin categories: several arrows x -> z can factor x -> 1
    pairs = [(p, x) for p in monoid_premodels for x in p.cat.objects if x not in bf.fibrant_set(p)]
    assert (len(monoid_premodels), len(pairs)) == (66, 62)
    for p, x in pairs:
        assert fibrant_replacement(p, x) == _oracle_fibrant_replacement(p, x), (p.name, x)


def test_wr_on_bounded_monoids(monoid_premodels):
    for p in monoid_premodels:
        cat = p.cat
        wr = set()
        for f in cat.morphisms:
            xf, j_x = _oracle_fibrant_replacement(p, cat.source[f])
            yf, j_y = _oracle_fibrant_replacement(p, cat.target[f])
            top = bf.comp(cat, j_y, f)
            d = next(d for d in bf.hom(cat, xf, yf) if bf.comp(cat, d, j_x) == top)
            if is_equivalence(p, d):
                wr.add(f)
        assert compute_WR(p) == wr, p.name


def test_quillen_check_needs_two_sided_structure():
    bart = fixtures.barton()
    ids = frozenset(bart.identities.values())
    lopsided = fixtures.trivial_premodel(bart).with_classes(
        anodyne_cofibrations=ids | {"ad", "bd", "cd"},
        fibrations=ids | {"ab", "ac"},
    )
    report = classify_full(lopsided)
    assert report.premodel.ok and not report.two_sided.ok
    assert report.quillen is None


def test_semi_recognizers_on_corpus(premodel_corpus):
    for p in premodel_corpus:
        report = classify_full(p)
        assert report.left_semi.spitzweck, (p.name, report.left_semi.failures)
        assert report.right_semi.spitzweck, (p.name, report.right_semi.failures)
        assert report.two_sided.ok
        assert report.wl == compute_WL(p)
        assert report.wr == compute_WR(p)


RUNGS = (
    "verify_weak_model",
    "saturation_flags",
    "strong_cylinder_objects",
    "strong_path_objects",
    "compute_WL",
    "compute_WR",
)


def test_classify_full_evaluates_each_rung_once(p0, p1, premodel_corpus, monkeypatch):
    calls = []

    def counting(name, fn):
        def wrapper(q, *args, **kwargs):
            calls.append((name, q))
            return fn(q, *args, **kwargs)

        return wrapper

    for name in RUNGS:
        monkeypatch.setattr(mclab.classify, name, counting(name, getattr(mclab.classify, name)))
    for p in (p0, p1, *premodel_corpus):
        calls.clear()
        assert classify_full(p).weak_model.ok
        # the right-semi mirror reuses the weak-model report and the strong
        # path objects; the dual contributes only its own saturation flags
        counts = {name: sum(1 for n, q in calls if n == name and q is p) for name in RUNGS}
        assert counts == dict.fromkeys(RUNGS, 1), p.name
        assert [(n, q) for n, q in calls if q is not p] == [("saturation_flags", dualize(p))]


def test_classify_full_builds_no_second_opposite():
    p = fixtures.barton_p1()
    with categories_built() as built:
        classify_full(p)
    # one opposite in all: the dual's dual is p, on p.cat
    assert built == [p.cat.name]
    assert p.dual.dual is p and p.cat.op.op is p.cat


def test_right_semi_mirror_still_votes(monkeypatch):
    p = fixtures.barton_p1()
    real = mclab.classify.saturation_flags

    def flipped(q):
        flags = real(q)
        if q is not p:
            return flags
        return replace(flags, core_right_saturated=not flags.core_right_saturated)

    monkeypatch.setattr(mclab.classify, "saturation_flags", flipped)
    with pytest.raises(VerificationError, match="disagrees with its dual"):
        classify_full(p)


def test_recognizers_mirror_under_duality(premodel_corpus):
    for p in premodel_corpus:
        left = classify_full(p).left_semi
        mirrored = classify_full(dualize(p)).right_semi
        assert left.fresse == mirrored.fresse
        assert left.spitzweck == mirrored.spitzweck


def test_strong_cylinder_and_path_objects(p1):
    ok, failures = strong_cylinder_objects(p1)
    assert ok, failures
    ok, failures = strong_path_objects(p1)
    assert ok, failures


def test_classify_rejects_gracefully():
    p = fixtures.trivial_premodel(fixtures.discrete2())
    report = classify_full(p)
    assert report.summary == "not a premodel"
    assert report.flags is None
    assert report.quillen is None


def test_classify_summaries_cover_corpus(premodel_corpus):
    summaries = {classify_full(p).summary for p in premodel_corpus}
    assert summaries == {
        "Quillen model structure",
        "two-sided weak model (not Quillen)",
    }


def _semi_flags(report):
    return None if report is None else (report.fresse, report.spitzweck)


def _verdict(report):
    return None if report is None else report.ok


def test_census_classifications_mirror_under_duality(census):
    structures = [p for name in ("chain3", "barton", "chain4") for p in census[name]]
    assert len(structures) == 125
    for p in structures:
        r, d = classify_full(p), classify_full(p.dual)
        assert _semi_flags(r.left_semi) == _semi_flags(d.right_semi), p
        assert _semi_flags(r.right_semi) == _semi_flags(d.left_semi), p
        assert (r.wl, r.wr) == (d.wr, d.wl), p
        for rung in ("weak_model", "two_sided", "quillen"):
            assert _verdict(getattr(r, rung)) == _verdict(getattr(d, rung)), (rung, p)
        assert r.equivalences == d.equivalences, p


def _mirror(summary):
    swapped = summary.replace("left", "<").replace("right", "left").replace("<", "right")
    return swapped.replace("right and left", "left and right")


@pytest.mark.parametrize("name", [
    "chain3",
    "barton",
    # the summary ladder tries left before right, so one pair of chain4
    # reads "left semi-model (Spitzweck)" one way and "left and right
    # semi-model (Fresse)" the other
    pytest.param("chain4", marks=pytest.mark.xfail(strict=True, raises=AssertionError)),
])
def test_census_summaries_mirror_under_duality(census, name):
    for p in census[name]:
        assert _mirror(classify_full(p).summary) == classify_full(p.dual).summary, p


# barton's automorphism: b and c trade places, a and d stay
BARTON_SWAP = {"id_b": "id_c", "id_c": "id_b", "ab": "ac", "ac": "ab", "bd": "cd", "cd": "bd"}


def test_census_classifications_are_invariant_under_barton_swap(census):
    """The first slice of transport invariance: moving a barton premodel along
    its automorphism moves its equivalences, WL and WR, and keeps its summary,
    saturation flags and weak-model flags."""
    structures = census["barton"]
    assert len(structures) == 44

    def move(arrows):
        return frozenset(BARTON_SWAP.get(m, m) for m in arrows)

    for p in structures:
        q = transport(p, BARTON_SWAP)
        assert any(same_classes(q, other) for other in structures), p
        r, m = classify_full(p), classify_full(q)
        assert (m.summary, m.flags, m.weak_model[:5]) == (r.summary, r.flags, r.weak_model[:5]), p
        assert (m.equivalences, m.wl, m.wr) == (move(r.equivalences), move(r.wl), move(r.wr)), p
