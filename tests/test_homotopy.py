from collections import Counter

import pytest

import bruteforce as bf
from mclab import fixtures
from mclab.errors import ConstructionError, InputError
from mclab.fincat import fold, validate_category
from mclab.homotopy import (
    CylinderWitness,
    _cylinder_verdict,
    check_cylinder_witness,
    equivalences,
    find_cylinder,
    fold_cone,
    homotopic,
    homotopy_category,
    is_equivalence,
    iter_cylinder_witnesses,
    verify_weak_model,
    weak_to_strong,
)
from mclab.premodel import (
    PremodelStructure,
    cofibrant_replacement,
    dualize,
    fibrant_replacement,
    verify_premodel,
)
from conftest import oracle_premodels, premodel_fixtures
from monoids import bounded_monoids, finite_sets, monoids


@pytest.fixture(scope="module")
def p0():
    return fixtures.barton_p0()


@pytest.fixture(scope="module")
def p1():
    return fixtures.barton_p1()


def test_fold_cone(p1):
    cone, codiag = fold_cone(p1, "ac")
    assert cone.apex == "c"
    assert cone.legs == ("id_c", "id_c")
    assert codiag == "id_c"
    with pytest.raises(InputError):
        fold_cone(p1, "ab")  # not a cofibration there


def test_folds_are_found_once_per_category():
    cat = fixtures.barton()
    p0, p1 = fixtures.barton_p0(cat), fixtures.barton_p1(cat)
    folded = fold_cone(p0, "ac")
    assert fold_cone(p1, "ac") is folded
    # membership is checked on every call, also once another structure has
    # cached the fold of that arrow
    fold_cone(fixtures.trivial_premodel(cat), "ab")
    with pytest.raises(InputError):
        fold_cone(p1, "ab")
    # an absent fold pushout raises on every call, not only the first
    z2 = fixtures.trivial_premodel(bounded_monoids()[0])
    for _ in range(2):
        with pytest.raises(ConstructionError, match="pushout of z along itself is absent"):
            fold_cone(z2, "z")


def test_a_wrong_base_is_named_truly_on_both_sides(p1):
    # a path search is a cylinder search on the dual, so the text must hold
    # on either side: ab is no cofibration of P1, bd (a cofibration) no fibration
    bases = "a cylinder needs a cofibration, a path a fibration"
    for q, g in ((p1, "ab"), (p1.dual, "bd")):
        with pytest.raises(InputError) as err:
            find_cylinder(q, g)
        assert str(err.value) == "%s does not fit this search in P1: %s" % (g, bases)
    w = find_cylinder(p1.dual, "cd")
    assert check_cylinder_witness(p1.dual, w._replace(base="bd")).violations == (
        "base bd does not fit this search: %s" % bases,
    )


def test_path_witness_violations_hold_on_both_sides(p1):
    # a path witness is checked as a cylinder witness on the dual: bd and ac
    # are cofibrations of P1, ac an acyclic one, and neither is a fibration
    bases = "a cylinder needs a cofibration, a path a fibration"
    legs = "a cylinder needs an acyclic cofibration, a path an acyclic fibration"
    w = find_cylinder(p1.dual, "cd")

    def violations(**changes):
        return check_cylinder_witness(p1.dual, w._replace(**changes)).violations

    # Z and D are the targets of c and l, so a swapped c or l moves them and
    # the comparison id_c no longer runs Z -> D
    assert violations(cylinder_cof="bd") == (
        "cylinder inclusion bd does not fit this search: %s" % bases,
        "cylinder inclusion endpoints are wrong",
        "comparison endpoints are wrong",
    )
    assert violations(cylinder_cof="ac") == (
        "cylinder inclusion ac does not fit this search: %s" % bases,
        "first leg ac does not fit this search: %s" % legs,
        "comparison endpoints are wrong",
    )
    assert violations(anodyne_leg="ac") == (
        "anodyne leg ac does not fit this search: %s" % legs,
        "comparison endpoints are wrong",
    )


def _cylinder_corpus(census):
    """(structure, base) for every cofibration with a fold in the fixture
    premodels and the census, and in their duals."""
    structures = premodel_fixtures() + [p for ps in census.values() for p in ps]
    for p in structures:
        for q in (p, p.dual):
            for i in q.cat.sort_morphisms(q.cofibrations):
                if fold(q.cat, i) is not None:
                    yield q, i


def test_pruned_search_is_complete_and_in_order(census):
    # every witness the oracle finds on the engine's fold cone, and no other,
    # in (c, l, e) morphism order; the first is find_cylinder's answer, and
    # the kept (weak, strong) verdict, decided by masks, says whether one exists
    pairs = seen = 0
    for p, i in _cylinder_corpus(census):
        pairs += 1
        cat = p.cat
        order = lambda t: [cat.morphism_index(m) for m in t]
        cone, codiag = fold(cat, i)
        oracle = [
            w for w in bf.cylinder_witnesses(p, i, bf.acyclic_cofibrations(p))
            if w[1:5] == (cone.apex, *cone.legs, codiag)
        ]
        witnesses = list(iter_cylinder_witnesses(p, i))
        first = find_cylinder(p, i)
        assert first == (witnesses[0] if witnesses else None)
        # the strong witnesses are the weak ones whose leg is the identity of B,
        # in the same order
        ident = cat.identity(cat.target[i])
        for strong in (False, True):
            want = {(c, l, e) for s, *_, c, l, e in oracle if s or not strong}
            assert _cylinder_verdict(p, i) is p.cylinder_verdicts[i]
            assert p.cylinder_verdicts[i][strong] == bool(want), (p.name, i, strong)
            got = [
                (w.cylinder_cof, w.anodyne_leg, w.comparison)
                for w in witnesses if w.anodyne_leg == ident or not strong
            ]
            assert got == sorted(want, key=order), (p.name, i, strong)
            seen += len(got)
    assert (pairs, seen) == (2567, 8328)


def test_search_and_verdicts_agree_with_the_oracle_on_every_small_monoid():
    # every monoid of order ≤ 3 (OEIS A058129: 1, 2, 7), bounded, with its
    # verified premodels.  On each structure and its dual the search finds the
    # oracle's witnesses on the engine's fold cone, in (c, l, e) morphism
    # order, and the kept verdict says whether a weak and a strong one exist.
    # Every fold here that exists is an identity, so the trivial witness comes
    # first and the verdicts stop there; the witness lists run past it
    counts, pairs, seen = [], Counter(), 0
    for n in (1, 2, 3):
        cats = monoids(n)
        structures = [p for cat in cats for p in oracle_premodels(cat)]
        counts.append((len(cats), len(structures)))
        for p in structures:
            for q in (p, p.dual):
                cat, acyclic = q.cat, bf.acyclic_cofibrations(q)
                order = lambda t: [cat.morphism_index(m) for m in t]
                for i in cat.sort_morphisms(q.cofibrations):
                    if fold(cat, i) is None:
                        continue
                    cone, codiag = fold(cat, i)
                    oracle = [
                        w for w in bf.cylinder_witnesses(q, i, acyclic)
                        if w[1:5] == (cone.apex, *cone.legs, codiag)
                    ]
                    got = [
                        (w.cylinder_cof, w.anodyne_leg, w.comparison)
                        for w in iter_cylinder_witnesses(q, i)
                    ]
                    assert got == sorted((w[6:] for w in oracle), key=order), (cat.name, i)
                    verdict = _cylinder_verdict(q, i)
                    assert verdict == (bool(oracle), any(w[0] for w in oracle)), (cat.name, i)
                    pairs[verdict] += 1
                    seen += len(got)
    assert counts == [(1, 13), (2, 33), (7, 133)]
    assert (pairs, seen) == ({(True, True): 1776}, 5496)


def test_kept_cylinder_verdicts_say_no_where_the_oracle_does(census):
    # on a premodel of a thin category every cofibration has the identities as
    # a strong witness; dropping id_b from C leaves bases into b with a weak
    # witness only, or none, so both bits of the kept verdict get tested
    seen = Counter()
    for name in ("chain3", "barton"):
        for p in census[name]:
            for b in p.cat.objects:
                holed = p.with_classes(cofibrations=p.cofibrations - {p.cat.identity(b)})
                for q in (holed, holed.dual):
                    acyclic = bf.acyclic_cofibrations(q)
                    for i in q.cat.morphisms:
                        if i in q.cofibrations and fold(q.cat, i) is not None:
                            strong = [w[0] for w in bf.cylinder_witnesses(q, i, acyclic)]
                            verdict = _cylinder_verdict(q, i)
                            assert verdict == (bool(strong), any(strong)), (q.classes(), i)
                            seen[verdict] += 1
    assert seen == {(True, True): 2567, (True, False): 25, (False, False): 145}


def test_kept_cylinder_verdicts_read_the_first_leg():
    # among finite sets the fold of 0 -> 1 is 1 ⊔ 1 = 2, so a first leg c∘q0
    # is not c itself.  With every map but 2 -> 1 a cofibration and only the
    # bijections anodyne, each c leaving 2 has a first leg 1 -> 2, never
    # acyclic, so 0 -> 1 has no witness although ∇ factors through c = id.
    # With id_2 = 2>2:01 dropped from C instead, id_2 is no acyclic
    # cofibration, so it is no anodyne leg and no strong witness uses it:
    # the swap 2>2:10 has a weak witness but no strong one
    cat = finite_sets(2)
    assert validate_category(cat).ok and len(cat.morphisms) == 11
    isos = frozenset({"0>0:", "1>1:0", "2>2:01", "2>2:10"})
    every = frozenset(cat.morphisms)
    holed = PremodelStructure(cat, every - {"2>1:00"}, isos, isos, every, name="holed")
    no_id = PremodelStructure(cat, every - {"2>2:01"}, isos, isos, every, name="no id_2")
    for p in (holed, no_id):
        acyclic = bf.acyclic_cofibrations(p)
        for i in cat.morphisms:
            if i in p.cofibrations and fold(cat, i) is not None:
                cone, codiag = fold(cat, i)
                strong = [
                    w[0] for w in bf.cylinder_witnesses(p, i, acyclic)
                    if w[1:5] == (cone.apex, *cone.legs, codiag)
                ]
                assert _cylinder_verdict(p, i) == (bool(strong), any(strong)), (p.name, i)
                for w in iter_cylinder_witnesses(p, i):
                    assert check_cylinder_witness(p, w).ok, (p.name, i, w)
    assert fold(cat, "0>1:")[0].apex == "2"
    assert _cylinder_verdict(holed, "0>1:") == (False, False)
    assert _cylinder_verdict(no_id, "2>2:10") == (True, False)


def test_find_cylinder_on_identity_like_data(p1):
    w = find_cylinder(p1, "ac")
    assert w is not None
    cat = p1.cat
    assert w.anodyne_leg == cat.identity(cat.target[w.base])
    (apex, _), codiag = fold(cat, w.base)
    assert (apex, codiag, cat.target[w.cylinder_cof]) == ("c", "id_c", "c")
    assert check_cylinder_witness(p1, w).ok
    # every enumerated witness must itself check out
    for w in iter_cylinder_witnesses(p1, "ac"):
        assert check_cylinder_witness(p1, w).ok


def test_witness_check_rejects_tampering(p1):
    w = find_cylinder(p1, "cd")
    assert w is not None
    assert not check_cylinder_witness(p1, w._replace(anodyne_leg="cd")).ok


def test_witness_check_reads_a_fold_that_is_not_an_identity():
    # among finite sets the fold of 0 -> 1 is 1 ⊔ 1 = 2 with q0 = 1>2:0 and
    # ∇ = 2>1:00, so the check must read Q, q0 and ∇ off the fold, not off
    # the witness.  On the trivial premodel only the bijections are acyclic.
    # With every map an anodyne cofibration and only the bijections
    # fibrations, 1 is the one fibrant object, so every map is acyclic and
    # 0 -> 1 has witnesses through Z = D = 2 as well
    cat = finite_sets(2)
    isos = frozenset({"0>0:", "1>1:0", "2>2:01", "2>2:10"})
    every = frozenset(cat.morphisms)
    trivial = fixtures.trivial_premodel(cat)
    all_acyclic = PremodelStructure(cat, every, isos, every, isos, name="all acyclic")
    assert fold(cat, "0>1:")[0].apex == "2"
    counts = []
    for p in (trivial, all_acyclic):
        assert verify_premodel(p).ok
        witnesses = list(iter_cylinder_witnesses(p, "0>1:"))
        counts.append(len(witnesses))
        for w in witnesses:
            assert check_cylinder_witness(p, w).ok, (p.name, w)
    assert counts == [1, 19]

    legs = "a cylinder needs an acyclic cofibration, a path an acyclic fibration"
    w = find_cylinder(trivial, "0>1:")
    assert w == ("0>1:", "2>1:00", "1>1:0", "1>1:0")

    def violations(p, w, **changes):
        return check_cylinder_witness(p, w._replace(**changes)).violations

    assert violations(trivial, w, cylinder_cof="1>1:0") == ("cylinder inclusion endpoints are wrong",)
    # the swap leaves Q, but its first leg 1>2:1 is no bijection
    assert violations(trivial, w, cylinder_cof="2>2:10", comparison="2>1:00") == (
        "first leg 1>2:1 does not fit this search: %s" % legs,
    )
    assert violations(trivial, w, comparison="1>2:0") == ("comparison endpoints are wrong",)
    w = w._replace(cylinder_cof="2>2:01", anodyne_leg="1>2:0", comparison="2>2:00")
    assert check_cylinder_witness(all_acyclic, w).ok
    assert violations(all_acyclic, w, comparison="2>2:11") == (
        "square fails: e∘c = 2>2:11 but l∘∇ = 2>2:00",
    )


def test_weak_to_strong_checks_its_input(p1):
    # an unknown base, or a leg that is no acyclic cofibration, is bad input
    # named by the witness check's first violation, whatever the leg is
    w = find_cylinder(p1, "cd")
    assert w.anodyne_leg == "id_d"
    with pytest.raises(InputError) as err:
        weak_to_strong(p1, w._replace(base="zz"))
    assert str(err.value) == "cannot strengthen an invalid witness: unknown morphism 'zz'"
    with pytest.raises(InputError) as err:
        weak_to_strong(p1, w._replace(anodyne_leg="ab"))
    assert str(err.value) == (
        "cannot strengthen an invalid witness: anodyne leg ab does not fit this search: "
        "a cylinder needs an acyclic cofibration, a path an acyclic fibration"
    )
    assert weak_to_strong(p1, w) is w


def test_a_base_without_a_fold_is_a_violation():
    # seven cofibrations of the trivial bounded monoids have no pushout along
    # themselves: the witness check answers a verdict naming the base, so
    # weak_to_strong refuses the witness as bad input, while the searches raise
    checked = []
    for cat in bounded_monoids():
        p = fixtures.trivial_premodel(cat)
        for i in cat.morphisms:
            if fold(cat, i) is not None:
                continue
            text = "base %s has no fold: pushout of %s along itself is absent" % (i, i)
            w = CylinderWitness(i, i, i, i)
            assert check_cylinder_witness(p, w) == (False, (text,))
            with pytest.raises(InputError) as err:
                weak_to_strong(p, w)
            assert str(err.value) == "cannot strengthen an invalid witness: " + text
            with pytest.raises(ConstructionError, match="along itself is absent"):
                find_cylinder(p, i)
            checked.append((cat.name, i))
    assert checked == [
        ("Z2", "z"), ("Z3", "z"), ("idempotent", "e"), ("idempotent", "z"),
        ("left_zero", "p"), ("left_zero", "q"), ("left_zero", "z"),
    ]


def _upgrades(structures):
    """(witnesses, already strong) over every weak witness of a cofibration
    with a fibrant base codomain; each one comes out strong and checks out."""
    seen = strong = 0
    for p in structures:
        for i in p.cat.sort_morphisms(p.cofibrations):
            if p.cat.target[i] not in p.fibrant or fold(p.cat, i) is None:
                continue
            ident = p.cat.identity(p.cat.target[i])
            for w in iter_cylinder_witnesses(p, i):
                s = weak_to_strong(p, w)
                assert s.anodyne_leg == ident and s.cylinder_cof == w.cylinder_cof
                assert check_cylinder_witness(p, s).ok
                seen, strong = seen + 1, strong + (w.anodyne_leg == ident)
    return seen, strong


def test_weak_to_strong(p0, p1, census):
    # in a thin category the retraction of an anodyne leg out of a fibrant
    # base makes that leg an identity, so every such witness is strong already
    census_models = [p for name in ("chain3", "barton") for p in census[name]]
    weak_models = [p for p in census_models if verify_weak_model(p).ok]
    assert _upgrades([p0, p1, *weak_models]) == (300, 300)
    # finite sets of size ≤ 2: C = the bijections and every map out of a
    # non-empty set, AF = the bijections and the maps out of 0, AC = the
    # bijections and 2 -> 1, F = AF and the maps 1 -> 2; here the anodyne leg
    # 1 -> 2 of a weak witness needs its retraction 2 -> 1
    cat = finite_sets(2)
    isos = frozenset({"0>0:", "1>1:0", "2>2:01", "2>2:10"})
    from_empty = frozenset(m for m in cat.morphisms if cat.source[m] == "0")
    af = isos | from_empty
    p = PremodelStructure(
        cat, isos | (frozenset(cat.morphisms) - from_empty), af, isos | {"2>1:00"},
        af | {"1>2:0", "1>2:1"}, name="FinSet2",
    )
    assert verify_premodel(p).ok and verify_weak_model(p).ok
    assert _upgrades([p]) == (27, 7)


def test_path_witnesses_mirror_cylinders(p1):
    # a path witness is the dual structure's cylinder witness, ids unchanged
    g = "cd"
    w = find_cylinder(p1.dual, g)
    assert w is not None and w == find_cylinder(dualize(p1), g)
    assert check_cylinder_witness(p1.dual, w).ok
    (_, (q0, _)), codiag = fold(p1.dual.cat, g)
    legs = {q0, codiag, w.cylinder_cof, w.anodyne_leg, w.comparison}
    assert w.base == g and legs <= set(p1.cat.morphisms)


def test_verify_weak_model_corpus(premodel_corpus):
    for p in premodel_corpus:
        report = verify_weak_model(p)
        assert report.ok, (p.name, report)
        assert report.cylinder_axiom and report.path_axiom
        assert report.alt_criterion and report.dual_alt_criterion


def test_homotopic_is_reflexive_on_cf_arrows(p1):
    assert homotopic(p1, "ac", "ac")
    assert homotopic(p1, "cd", "cd")
    with pytest.raises(InputError):
        homotopic(p1, "ac", "cd")  # not parallel


def test_homotopy_category_p0(p0):
    ho = homotopy_category(p0)
    assert validate_category(ho.category).ok
    assert ho.category.objects == ["a", "c", "d"]
    assert set(ho.category.morphisms) == {"id_a", "id_c", "id_d", "ac", "ad", "cd"}
    assert ho.category.compose("cd", "ac") == "ad"
    # b is not cofibrant, so it simply does not appear
    assert not ho.category.has_object("b")


def test_homotopy_category_p1(p1):
    ho = homotopy_category(p1)
    assert validate_category(ho.category).ok
    assert ho.category.objects == ["c", "d"]
    assert set(ho.category.morphisms) == {"id_c", "id_d", "cd"}
    assert ho.classes["cd"] == ("cd",)


def test_is_equivalence_frozen(p0, p1):
    assert is_equivalence(p0, "ab")
    assert not is_equivalence(p0, "ac")
    assert not is_equivalence(p0, "ad")
    assert is_equivalence(p1, "ac")
    assert not is_equivalence(p1, "ad")
    assert not is_equivalence(p1, "cd")


def test_is_equivalence_domain(p1):
    # b is neither cofibrant nor fibrant in the localized structure, so
    # arrows touching it fall outside the decidable domain
    for m in ("ab", "id_b", "bd"):
        with pytest.raises(InputError):
            is_equivalence(p1, m)


def test_kept_answers_keep_the_contract(p1):
    # every call re-checks its preconditions, and a call that raises keeps nothing
    equivalences(p1)
    for _ in range(2):
        for m in ("zz", "ab", "id_b", "bd"):
            with pytest.raises(InputError):
                is_equivalence(p1, m)
    ids = frozenset({"id_a", "id_b", "id_c", "id_d"})
    p = PremodelStructure(fixtures.barton(), ids, ids, ids, ids, name="bare")
    # a fibrant replacement is the dual's cofibrant one, so its text names
    # neither side's classes
    calls = (
        (cofibrant_replacement, "b", "no factorization of ab gives a replacement of b"),
        (fibrant_replacement, "b", "no factorization of bd gives a replacement of b"),
        (is_equivalence, "ad", "no (cofibration, anodyne fibration) factorization of ad"),
    )
    for _ in range(2):
        for call, arg, text in calls:
            with pytest.raises(ConstructionError) as err:
                call(p, arg)
            assert str(err.value) == text
    assert p._cof_system.factors == {} and p.equivalence_verdicts == {}
    assert p.dual._cof_system.factors == {}
    assert is_equivalence(p1, "ac") and is_equivalence(p1, "ac")
    assert p1.equivalence_verdicts["ac"] is True


def test_equivalences_frozen(p0, p1):
    assert sorted(equivalences(p0)) == ["ab", "id_a", "id_b", "id_c", "id_d"]
    assert sorted(equivalences(p1)) == ["ac", "id_a", "id_c", "id_d"]


def test_equivalences_satisfy_two_out_of_three_where_applicable(premodel_corpus):
    for p in premodel_corpus:
        w = equivalences(p)
        cat = p.cat
        for f in w:
            for g in w:
                if cat.target[f] == cat.source[g]:
                    h = cat.compose_table[(g, f)]
                    if h in equivalences(p):
                        continue
                    # composites of equivalences stay equivalences whenever
                    # the composite is itself in the testable domain
                    pytest.fail("%s ∘ %s fails closure in %s" % (g, f, p.name))


def test_anodyne_classes_are_equivalences(premodel_corpus):
    for p in premodel_corpus:
        w = equivalences(p)
        domain_objects = {
            x
            for x in p.cat.objects
            if any(m in w for m in (p.cat.identity(x),))
        }
        for m in p.anodyne_cofibrations | p.anodyne_fibrations:
            src, tgt = p.cat.source[m], p.cat.target[m]
            if src in domain_objects and tgt in domain_objects:
                assert m in w, (p.name, m)
