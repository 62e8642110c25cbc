import os
import pathlib
import subprocess
import sys

import pytest

import mclab.fincat
from mclab import fixtures
from mclab.errors import ConstructionError, InputError, VerificationError
from mclab.fincat import (
    AdjunctionData,
    Cone,
    FiniteCategory,
    FunctorData,
    check_adjunction,
    check_functor,
    coproduct,
    fold,
    identity_functor,
    isomorphisms,
    mediating_out,
    poset_category,
    pushout,
    validate_category,
)
from monoids import bounded_monoids, finite_sets

from conftest import (
    category_fixtures,
    fresh_fold,
    identity_adjunction,
    reverse_enumeration,
    same_presentation,
)


def test_all_fixture_categories_validate(category_corpus):
    for cat in category_corpus:
        verdict = validate_category(cat)
        assert verdict.ok, (cat.name, verdict.violations)


def test_barton_presentation():
    cat = fixtures.barton()
    assert cat.objects == ["a", "b", "c", "d"]
    assert cat.morphisms == ["id_a", "id_b", "id_c", "id_d", "ab", "ac", "ad", "bd", "cd"]
    assert cat.compose("cd", "ac") == "ad"
    assert cat.compose("bd", "ab") == "ad"
    assert cat.hom("a", "d") == ["ad"]
    assert cat.hom("d", "a") == []
    with pytest.raises(InputError):
        cat.compose("ab", "cd")


def test_validate_catches_broken_associativity():
    good = fixtures.chain3()
    table = dict(good.compose_table)
    table[("cd", "ac")] = "id_a"  # wrong endpoints and wrong value
    broken = FiniteCategory(
        "broken",
        list(good.objects),
        [(m, good.source[m], good.target[m]) for m in good.morphisms],
        dict(good.identities),
        table,
    )
    verdict = validate_category(broken)
    assert verdict.violations == ("composite cd ∘ ac = id_a has wrong endpoints",)
    assert not verdict.ok


def test_validate_reports_every_associativity_failure_in_order():
    # a non-associative unital magma {id_x, a, b} on x, with a terminal
    # object adjoined so that composable triples are not all triples
    morphisms = [("id_x", "x", "x"), ("a", "x", "x"), ("t", "x", "1"), ("id_1", "1", "1"),
                 ("b", "x", "x")]
    endo = ("id_x", "a", "b")
    magma = {("a", "a"): "id_x", ("a", "b"): "id_x", ("b", "a"): "b", ("b", "b"): "b"}
    table = {("id_1", "t"): "t", ("id_1", "id_1"): "id_1"}
    for g in endo:
        table[("t", g)] = "t"
        for f in endo:
            table[(g, f)] = f if g == "id_x" else g if f == "id_x" else magma[(g, f)]
    cat = FiniteCategory("magma", ["x", "1"], morphisms, {"x": "id_x", "1": "id_1"}, table)
    assert validate_category(cat).violations == (
        "associativity fails: (a∘b)∘a = a but a∘(b∘a) = id_x",
        "associativity fails: (a∘a)∘b = b but a∘(a∘b) = a",
        "associativity fails: (a∘b)∘b = b but a∘(b∘b) = id_x",
    )


def test_arrows_from_is_the_out_arrows_in_order(category_corpus):
    for base in category_corpus + bounded_monoids():
        for cat in (base, reverse_enumeration(base)):
            for x in cat.objects:
                assert cat.arrows_from(x) == [
                    m for m in cat.morphisms if cat.source[m] == x
                ], (cat.name, x)


def test_validate_catches_missing_identity_law():
    cat = FiniteCategory(
        "bad_id",
        ["x"],
        [("id_x", "x", "x"), ("e", "x", "x")],
        {"x": "id_x"},
        {
            ("id_x", "id_x"): "id_x",
            ("e", "id_x"): "id_x",  # violates e . id = e
            ("id_x", "e"): "e",
            ("e", "e"): "id_x",
        },
    )
    verdict = validate_category(cat)
    assert not verdict.ok
    assert any("identity" in v for v in verdict.violations)


def test_opposite_is_involutive(category_corpus):
    for cat in category_corpus:
        assert cat.op.op == cat


def test_derived_facts_are_computed_once(monkeypatch):
    cat = fixtures.barton()
    assert cat.op is cat.op
    # the opposite links back (weakly), so op.op is the category itself
    assert cat.op.op is cat
    assert cat.initial == "a"
    p = fixtures.barton_p1(cat)
    calls, search = [], mclab.fincat._search_colimit

    def counting_search(*args):
        calls.append(args)
        return search(*args)

    monkeypatch.setattr(mclab.fincat, "_search_colimit", counting_search)
    assert cat.initial == "a"
    assert [x in p.cofibrant for x in cat.objects] == [True, False, True, True]
    assert calls == []


def _fresh_copy(cat):
    morphisms = [(m, cat.source[m], cat.target[m]) for m in cat.morphisms]
    return FiniteCategory(cat.name, cat.objects, morphisms, cat.identities, cat.compose_table)


def test_colimits_are_searched_once_per_shape():
    cat = fixtures.barton()
    assert pushout(cat, "ab", "ac") is pushout(cat, "ab", "ac")
    assert pushout(cat.op, "bd", "cd") is pushout(cat.op, "bd", "cd")
    # a span's legs are checked on every call, also once its answer is kept
    for _ in range(2):
        with pytest.raises(InputError, match="span legs ab, bd must share their source"):
            pushout(cat, "ab", "bd")
    # the span on id_x and the pair on x are different colimits
    idem = _one_object("idem", "e", "e")
    assert pushout(idem, "id_x", "id_x") == Cone("x", ("id_x", "id_x"))
    assert coproduct(idem, "x", "x") is None
    assert pushout(idem, "id_x", "id_x") == Cone("x", ("id_x", "id_x"))


def test_pushouts_coproducts_and_folds_share_one_search(monkeypatch):
    searched = []
    search = mclab.fincat._search_colimit

    def counted(cat, feet, equations):
        searched.append((cat.name, feet, equations))
        return search(cat, feet, equations)

    monkeypatch.setattr(mclab.fincat, "_search_colimit", counted)
    cat, sets = fixtures.barton(), finite_sets(2)
    for _ in range(2):
        pushout(cat, "ab", "ac")
        coproduct(cat, "b", "c")
        fold(sets, "0>1:")  # not epi: its fold searches the pushout of 0>1: along itself
        fold(cat, "ab")  # epi: no search
    assert searched == [
        ("barton", ("b", "c"), ((0, "ab", 1, "ac"),)),
        ("barton", ("b", "c"), ()),
        (sets.name, ("1", "1"), ((0, "0>1:", 1, "0>1:"),)),
    ]


def test_cached_colimits_equal_a_fresh_search():
    for cat in category_fixtures():
        spans = [
            (f, g)
            for f in cat.morphisms
            for g in cat.morphisms
            if cat.source[f] == cat.source[g]
        ]
        for f, g in spans:
            pushout(cat, f, g)
        for f, g in spans:
            assert pushout(cat, f, g) == pushout(_fresh_copy(cat), f, g), (cat.name, f, g)


def _fold_corpus():
    bases = [*category_fixtures(), *bounded_monoids(), finite_sets(1), finite_sets(2)]
    return [cat for base in bases for cat in (base, reverse_enumeration(base), base.op)]


def test_folds_equal_a_fresh_search():
    # an epimorphism folds without a colimit search, any other arrow through
    # one; both give the cone and ∇ the general search gives on a fresh copy
    epis = arrows = 0
    for cat in _fold_corpus():
        for i in cat.morphisms:
            assert fold(cat, i) == fresh_fold(cat, i), (cat.name, i)
            epis += mclab.fincat._epi_fold(cat, i) is not None
            arrows += 1
    assert 0 < epis < arrows


def test_only_an_arrow_that_is_not_epi_searches_its_fold(monkeypatch):
    searched = []
    search = mclab.fincat._search_colimit

    def counted(cat, feet, equations):
        searched.append(equations)
        return search(cat, feet, equations)

    monkeypatch.setattr(mclab.fincat, "_search_colimit", counted)
    cat = fixtures.barton()
    for i in cat.morphisms:
        fold(cat, i)
    assert searched == []
    # 0 -> 1 is no epimorphism among finite sets: both maps 1 -> 2 restrict to
    # the empty map; its fold is 1 ⊔ 1 = 2, found by the search
    sets = finite_sets(2)
    assert fold(sets, "0>1:") == (Cone("2", ("1>2:0", "1>2:1")), "2>1:00")
    assert searched == [((0, "0>1:", 1, "0>1:"),)]


def test_endpoint_arrows_and_verdict_are_kept():
    cat = fixtures.barton()
    assert cat.from_initial == {"a": "id_a", "b": "ab", "c": "ac", "d": "ad"}
    assert cat.to_terminal == {"a": "ad", "b": "bd", "c": "cd", "d": "id_d"}
    assert cat.from_initial is cat.from_initial
    assert validate_category(cat) is validate_category(cat)
    assert fixtures.discrete2().from_initial is None
    assert fixtures.discrete2().to_terminal is None


def test_opposite_swaps_homs():
    cat = fixtures.barton()
    op = cat.op
    assert op.hom("b", "a") == ["ab"]
    assert op.hom("a", "b") == []
    assert op.compose("ac", "cd") == "ad"


def test_initial_and_terminal():
    cat = fixtures.barton()
    assert cat.initial == "a"
    assert cat.terminal == "d"
    assert fixtures.discrete2().initial is None
    assert fixtures.discrete2().terminal is None


def test_pushouts_on_barton():
    cat = fixtures.barton()
    cone = pushout(cat, "ab", "ac")
    assert cone.apex == "d"
    assert cone.legs == ("bd", "cd")
    cone = pushout(cat, "ab", "ab")
    assert cone.apex == "b"
    assert cone.legs == ("id_b", "id_b")
    cone = pushout(cat, "ac", "ab")
    assert (cone.apex, cone.legs) == ("d", ("cd", "bd"))


def test_pushout_absent_on_discrete():
    cat = fixtures.discrete2()
    assert pushout(cat, "id_u", "id_u") is not None
    assert coproduct(cat, "u", "v") is None
    assert coproduct(cat.op, "u", "v") is None


def test_limit_is_colimit_on_opposite():
    cat = fixtures.barton()
    pb = pushout(cat.op, "bd", "cd")
    assert pb.apex == "a"
    assert pb.legs == ("ab", "ac")
    # meet/join through the generic entry points
    assert coproduct(cat, "b", "c").apex == "d"
    assert coproduct(cat.op, "b", "c").apex == "a"


def test_mediating_out_missing_raises():
    cat = fixtures.barton()
    with pytest.raises(ConstructionError):
        mediating_out(cat, Cone("b", ("id_b", "id_b")), ("ab", "ab"))
    cone = pushout(cat, "ab", "ac")
    assert mediating_out(cat, cone, ("bd", "cd")) == "id_d"


def test_unknown_legs_are_input_errors():
    cat = fixtures.barton()
    calls = (
        lambda: mediating_out(cat, pushout(cat, "ab", "ab"), ("zz",)),
        lambda: mediating_out(cat, Cone("b", ("zz", "id_b")), ("id_b", "id_b")),
        lambda: fold(cat, "zz"),
    )
    for call in calls:
        for _ in range(2):
            with pytest.raises(InputError, match="'zz'"):
                call()
    # one target leg per cone leg: a missing one is no IndexError
    with pytest.raises(InputError, match="one target leg per cone leg"):
        mediating_out(cat, pushout(cat, "ab", "ac"), ("bd",))


def test_legs_off_the_cone_are_input_errors():
    # a hand-made cone whose legs miss its apex, or target legs with no one
    # shared target, name the offending leg instead of failing a table lookup
    cat = fixtures.barton()
    calls = (
        (Cone("b", ("ac", "ab")), ("cd", "bd"), "cone leg ac does not end at b"),
        (pushout(cat, "ab", "ac"), ("bd", "ac"), "target leg ac does not end at d"),
    )
    for cone, legs, text in calls:
        with pytest.raises(InputError) as err:
            mediating_out(cat, cone, legs)
        assert str(err.value) == text


def test_mediating_out_ambiguity_is_a_verification_error():
    # both id_x and e satisfy m∘e = e, so Cone("x", ("e",)) is no colimit
    idem = _one_object("idem", "e", "e")
    with pytest.raises(VerificationError):
        mediating_out(idem, Cone("x", ("e",)), ("e",))


def test_unknown_ids_are_named():
    cat = fixtures.barton()
    calls = (
        (lambda: coproduct(cat, "nope", "a"), "'nope'"),
        (lambda: coproduct(cat.op, "a", "nope"), "'nope'"),
        (lambda: cat.compose("zz", "ab"), "'zz'"),
        (lambda: cat.compose("bd", "zz"), "'zz'"),
    )
    for call, name in calls:
        for _ in range(2):
            with pytest.raises(InputError, match=name):
                call()


def test_poset_category_rejects_cycles():
    with pytest.raises(InputError):
        poset_category("cyc", ["x", "y"], [("x", "y"), ("y", "x")])


def test_poset_category_rejects_colliding_arrow_names():
    # a -> bc and ab -> c are both named abc; id -> _x is named like id_x
    calls = (
        (["a", "bc", "ab", "c"], [("bc", "a"), ("c", "ab")], "'abc'"),
        (["x", "id", "_x"], [("_x", "id")], "'id_x'"),
    )
    for objects, le, arrow in calls:
        with pytest.raises(InputError) as err:
            poset_category("P", objects, le)
        assert str(err.value) == "poset P: generated arrow name %s collides" % arrow


def test_a_cycle_is_named_alike_under_every_hash_seed():
    # the partner is the first in object order, not the first a set yields
    code = (
        "from mclab.fincat import poset_category\n"
        "try:\n"
        "    poset_category('P', 'abcd', [('a', 'b'), ('b', 'c'), ('c', 'd'), ('d', 'a')])\n"
        "except ValueError as e:\n"
        "    print(e)\n"
    )
    src = str(pathlib.Path(mclab.fincat.__file__).resolve().parent.parent)
    texts = set()
    for seed in range(1, 7):
        env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=src)
        run = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
        )
        texts.add((run.returncode, run.stdout, run.stderr))
    assert texts == {(0, "poset P: cycle through 'a' and 'b'\n", "")}


def test_poset_category_transitive_closure():
    cat = poset_category("chain", ["a", "b", "c"], [("c", "b"), ("b", "a")])
    assert "ac" in cat.morphisms  # composite arrow from closure
    assert cat.compose("bc", "ab") == "ac"


def test_same_presentation_ignores_order():
    cat = fixtures.barton()
    rev = reverse_enumeration(cat)
    assert rev.objects == list(reversed(cat.objects))
    assert validate_category(rev).ok
    assert cat != rev
    assert same_presentation(cat, rev)


def test_isomorphisms_are_identities_on_posets():
    cat = fixtures.barton()
    assert isomorphisms(cat) == frozenset(cat.identities.values())


def test_identity_functor_and_adjunction_check():
    cat = fixtures.barton()
    fun = identity_functor(cat)
    assert check_functor(fun).ok
    adj = identity_adjunction(cat)
    assert check_adjunction(adj).ok


def test_functor_check_catches_wrong_shape():
    cat = fixtures.chain3()
    fun = FunctorData(
        "collapse_wrong",
        cat,
        cat,
        {x: "a" for x in cat.objects},
        {m: "id_a" if m != "ad" else "ac" for m in cat.morphisms},
    )
    report = check_functor(fun)
    assert not report.ok
    assert any("wrong target" in s for s in report.violations)


def _one_object(name, endo, square):
    return FiniteCategory(
        name,
        ["x"],
        [("id_x", "x", "x"), (endo, "x", "x")],
        {"x": "id_x"},
        {
            ("id_x", "id_x"): "id_x",
            ("id_x", endo): endo,
            (endo, "id_x"): endo,
            (endo, endo): square,
        },
    )


def test_functor_check_catches_noncomposition():
    # idempotent monoid into the two-element group: shapes are fine, the
    # multiplication is not respected
    idem = _one_object("idem", "e", "e")
    group = _one_object("flip", "s", "id_x")
    assert validate_category(idem).ok
    assert validate_category(group).ok
    fun = FunctorData(
        "bad", idem, group, {"x": "x"}, {"id_x": "id_x", "e": "s"}
    )
    report = check_functor(fun)
    assert not report.ok
    assert report.violations == ("composition not preserved at e ∘ e",)
    good = FunctorData(
        "collapse", idem, group, {"x": "x"}, {"id_x": "id_x", "e": "id_x"}
    )
    assert check_functor(good).ok


def test_adjunction_check_catches_bad_triangle():
    cat = fixtures.interval()
    adj = identity_adjunction(cat)
    broken = AdjunctionData(
        adj.name, adj.left, adj.right, dict(adj.unit), {"0": "id_0", "1": "01"}
    )
    # 01 does not even end at 1, so the triangles are not reached
    assert check_adjunction(broken).violations == ("counit component at '1' is not F('1') -> G('1')",)
    # on the idempotent monoid {1, e} the unit e is natural, as is the counit
    # 1, but both triangles compose to e, not to the identity
    idem = _one_object("idem", "e", "e")
    ident = identity_functor(idem)
    verdict = check_adjunction(AdjunctionData("idem", ident, ident, {"x": "e"}, {"x": "id_x"}))
    assert verdict.violations == ("triangle identity fails at L('x')", "triangle identity fails at R('x')")


def test_adjunction_check_names_unit_and_counit_failures():
    # components: missing, unknown, or with the wrong endpoints
    cat = fixtures.interval()
    ident = identity_functor(cat)
    verdict = check_adjunction(AdjunctionData("bad", ident, ident, {"0": "01"}, {"0": "zz", "1": "id_1"}))
    assert verdict.violations == (
        "unit component at '0' is not F('0') -> G('0')",
        "unit component at '1' missing or unknown",
        "counit component at '0' missing or unknown",
    )
    # naturality: in the left-zero monoid {1, p, q} (g∘f = g unless g = 1) the
    # unit and counit p have the right endpoints, but q∘p = q and p∘q = p
    arrows = ("id_x", "p", "q")
    left_zero = FiniteCategory(
        "left_zero", ["x"], [(m, "x", "x") for m in arrows], {"x": "id_x"},
        {(g, f): f if g == "id_x" else g for g in arrows for f in arrows},
    )
    assert validate_category(left_zero).ok
    ident = identity_functor(left_zero)
    verdict = check_adjunction(AdjunctionData("lz", ident, ident, {"x": "p"}, {"x": "p"}))
    assert verdict.violations == ("unit naturality fails at q", "counit naturality fails at q")


def test_unknown_arrows_and_objects_are_named_with_their_category():
    cat = fixtures.barton()
    for call in (
        lambda: cat.compose("zz", "ab"),
        lambda: pushout(cat, "ab", "zz"),
        lambda: mediating_out(cat, Cone("b", ("ab",)), ("zz",)),
        lambda: fold(cat, "zz"),
    ):
        with pytest.raises(InputError) as err:
            call()
        assert str(err.value) == "unknown morphism 'zz' in barton"
    with pytest.raises(InputError) as err:
        coproduct(cat, "b", "zz")
    assert str(err.value) == "unknown object 'zz' in barton"
