import contextlib
import itertools
import re

import pytest

import bruteforce as bf
from mclab import fixtures
from mclab.fincat import (
    AdjunctionData,
    FiniteCategory,
    FunctorData,
    NatTrans,
    check_functor,
    identity_functor,
    mediating_out,
    poset_category,
    pushout,
)
from mclab.olschok import QuillenCylinderData, pair_functor
from mclab.premodel import PremodelStructure, verify_premodel
from monoids import bounded_monoids

_ACCEPTANCE = {}
_PATTERN = re.compile(r"test_criterion_(\d+)")


def premodel_fixtures():
    """The premodel corpus the property suites quantify over.

    Every entry passes verify_premodel; names are stable identifiers.
    """
    b = fixtures.barton()
    return [
        fixtures.trivial_premodel(fixtures.point(), "point/trivial"),
        fixtures.trivial_premodel(fixtures.interval(), "interval/trivial"),
        fixtures.trivial_premodel(fixtures.chain3(), "chain3/trivial"),
        fixtures.trivial_premodel(fixtures.barton(), "barton/trivial"),
        fixtures.barton_p0(b),
        fixtures.barton_p1(b),
    ]


def category_fixtures():
    return [
        fixtures.point(), fixtures.interval(), fixtures.discrete2(), fixtures.chain3(), fixtures.barton()
    ]


@pytest.fixture
def premodel_corpus():
    return premodel_fixtures()


@pytest.fixture
def category_corpus():
    return category_fixtures()


def same_presentation(a, b):
    """Equality of categories up to enumeration order (names ignored)."""
    return (
        sorted(a.objects) == sorted(b.objects)
        and sorted(a.morphisms) == sorted(b.morphisms)
        and a.source == b.source
        and a.target == b.target
        and a.identities == b.identities
        and a.compose_table == b.compose_table
    )


def reverse_enumeration(cat):
    """Same category, object and morphism lists reversed.

    Used to check that nothing downstream depends on enumeration order.
    """
    morphisms = [(m, cat.source[m], cat.target[m]) for m in reversed(cat.morphisms)]
    return FiniteCategory(
        cat.name, list(reversed(cat.objects)), morphisms, cat.identities, cat.compose_table
    )


def identity_adjunction(cat):
    ident = identity_functor(cat)
    return AdjunctionData(
        "id_adj_%s" % cat.name,
        ident,
        ident,
        {x: cat.identity(x) for x in cat.objects},
        {x: cat.identity(x) for x in cat.objects},
    )


def oracle_premodels(cat):
    """Every verified premodel on ``cat``, from the oracle's weak factorization
    systems (llp rlp S, rlp S) over all sets S of arrows."""
    systems = []
    for k in range(len(cat.morphisms) + 1):
        for s in itertools.combinations(cat.morphisms, k):
            right = bf.rlp_class(cat, s)
            wfs = (bf.llp_class(cat, right), right)
            if wfs not in systems and all(bf.factorizations(cat, *wfs, h) for h in cat.morphisms):
                systems.append(wfs)
    found = []
    for (c, af), (ac, f) in itertools.product(systems, repeat=2):
        p = PremodelStructure(cat, c, af, ac, f, name=cat.name)
        if ac <= c and verify_premodel(p).ok:
            found.append(p)
    return found


@pytest.fixture(scope="session")
def census():
    """``{category name: its verified premodels}`` on chain3, barton, chain4
    and the bounded monoids; each category is one instance shared by its
    structures."""
    chain4 = poset_category("chain4", "abcd", [("b", "a"), ("c", "b"), ("d", "c")])
    cats = [fixtures.chain3(), fixtures.barton(), chain4, *bounded_monoids()]
    return {cat.name: oracle_premodels(cat) for cat in cats}


def _le(cat, x, y):
    """x ≤ y in a thin category: ``hom(y, x)`` is non-empty (arrows run downward)."""
    return bool(cat.hom(y, x))


def _thin_functor(name, src, tgt, obj):
    """The functor with object map ``obj`` between thin categories, each arrow
    sent to the unique one between the images."""
    arrows = {m: tgt.hom(obj[src.source[m]], obj[src.target[m]])[0] for m in src.morphisms}
    return FunctorData(name, src, tgt, obj, arrows)


def poset_adjunctions(P, Q):
    """Every adjunction L ⊣ R with R: P -> Q between thin categories, R's
    object maps in ``itertools.product`` order over Q's objects.

    R is a monotone object map with, for each q, an object l such that
    x ≤ l ⟺ R x ≤ q for every x; L q is the first such l in object order,
    and each functor, unit and counit arrow is the unique one.
    """
    found = []
    for images in itertools.product(Q.objects, repeat=len(P.objects)):
        r = dict(zip(P.objects, images))
        if not all(_le(Q, r[x], r[y]) for x in P.objects for y in P.objects if _le(P, x, y)):
            continue
        left = {}
        for q in Q.objects:
            fits = [l for l in P.objects if all(_le(P, x, l) == _le(Q, r[x], q) for x in P.objects)]
            if fits:
                left[q] = fits[0]
        if len(left) == len(Q.objects):
            name = "adj%d" % len(found)
            found.append(AdjunctionData(
                name, _thin_functor(name + "_L", Q, P, left), _thin_functor(name + "_R", P, Q, r),
                {q: Q.hom(q, r[left[q]])[0] for q in Q.objects},
                {x: P.hom(left[r[x]], x)[0] for x in P.objects},
            ))
    return found


def poset_cylinders(cat):
    """Every Quillen cylinder datum on the thin category ``cat`` whose I and D
    are monotone endomaps with D(x) ≤ I(x) ≤ x, I's maps in
    ``itertools.product`` order over the objects, then D's.

    The pair data are ``pair_functor(cat)``'s.  Each functor arrow, and each
    component of the inclusion X ⊔ X = X -> I(X), the leg X -> D(X) and the
    comparison I(X) -> D(X), is the unique arrow.
    """
    objs = cat.objects
    maps = [dict(zip(objs, images)) for images in itertools.product(objs, repeat=len(objs))]
    maps = [
        m for m in maps
        if all(_le(cat, m[x], x) for x in objs)
        and all(_le(cat, m[x], m[y]) for x in objs for y in objs if _le(cat, x, y))
    ]
    pair, inl, inr, fold = pair_functor(cat)
    ident = identity_functor(cat)

    def nt(name, src, tgt):
        return NatTrans(name, src, tgt, {x: cat.hom(src.on_object(x), tgt.on_object(x))[0] for x in objs})

    for k, (i, d) in enumerate(
        (i, d) for i in maps for d in maps if all(_le(cat, d[x], i[x]) for x in objs)
    ):
        cyl, weak = _thin_functor("I%d" % k, cat, cat, i), _thin_functor("D%d" % k, cat, cat, d)
        yield QuillenCylinderData(
            "cyl%d" % k, pair, inl, inr, fold, cyl, weak,
            nt("i", pair, cyl), nt("j", ident, weak), nt("e", cyl, weak),
        )


def transport(p, arrow_map):
    """p moved along an automorphism of its category, given by the images of
    the arrows it moves; each arrow it leaves out is fixed.  The map must be
    a bijective functor."""
    cat = p.cat
    arrows = {m: arrow_map.get(m, m) for m in cat.morphisms}
    objects = {x: cat.source[arrows[i]] for x, i in cat.identities.items()}
    assert sorted(arrows.values()) == sorted(cat.morphisms), arrow_map
    assert check_functor(FunctorData("move", cat, cat, objects, arrows)).ok, arrow_map

    def move(arrow_set):
        return frozenset(arrows[m] for m in arrow_set)

    return PremodelStructure(
        cat, move(p.cofibrations), move(p.anodyne_fibrations),
        move(p.anodyne_cofibrations), move(p.fibrations), name=p.name,
    )


def fresh_fold(cat, i):
    """The fold of i found by ``pushout`` and ``mediating_out`` on a fresh copy
    of ``cat``: the general colimit search, with nothing kept beforehand."""
    morphisms = [(m, cat.source[m], cat.target[m]) for m in cat.morphisms]
    copy = FiniteCategory(cat.name, cat.objects, morphisms, cat.identities, cat.compose_table)
    cone, ident = pushout(copy, i, i), cat.identity(cat.target[i])
    return None if cone is None else (cone, mediating_out(copy, cone, (ident, ident)))


def collapse_adjunction(pt, bart):
    """x ↦ a (left) against the constant functor to the point (right)."""
    left = FunctorData("include_bottom", pt, bart, {"x": "a"}, {"id_x": "id_a"})
    right = FunctorData(
        "squash",
        bart,
        pt,
        {x: "x" for x in bart.objects},
        {m: "id_x" for m in bart.morphisms},
    )
    counit = {"a": "id_a", "b": "ab", "c": "ac", "d": "ad"}
    return AdjunctionData("collapse", left, right, {"x": "id_x"}, counit)


@contextlib.contextmanager
def categories_built():
    """The names of the categories constructed inside the block, in order."""
    built = []
    init = FiniteCategory.__init__

    def counted_init(obj, *args):
        built.append(args[0])
        init(obj, *args)

    FiniteCategory.__init__ = counted_init
    try:
        yield built
    finally:
        FiniteCategory.__init__ = init


@pytest.fixture
def collapse_setup():
    bart = fixtures.barton()
    pt = fixtures.point()
    return (
        collapse_adjunction(pt, bart),
        fixtures.trivial_premodel(pt, name="point/trivial"),
        fixtures.barton_p0(bart),
    )


def pytest_runtest_logreport(report):
    if report.when != "call":
        return
    m = _PATTERN.search(report.nodeid)
    if not m:
        return
    _ACCEPTANCE[int(m.group(1))] = (report.outcome, report.nodeid)


def pytest_terminal_summary(terminalreporter):
    if not _ACCEPTANCE:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for num in sorted(_ACCEPTANCE):
        outcome, nodeid = _ACCEPTANCE[num]
        label = "PASS" if outcome == "passed" else outcome.upper()
        short = nodeid.split("::")[-1]
        terminalreporter.write_line("criterion %02d: %s  (%s)" % (num, label, short))
