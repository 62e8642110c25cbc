import random

import pytest

import bruteforce as bf
from mclab import fixtures
from mclab.classify import classify_full
from mclab.errors import InputError
from mclab.fincat import poset_category, validate_category
from mclab.lifting import (
    cell_closure,
    complement_llp,
    complement_rlp,
    factor,
    generate_wfs,
    has_lift,
    llp,
    retract_closure,
    verify_wfs,
)
from mclab.premodel import PremodelStructure
from monoids import bounded_monoids


@pytest.fixture(scope="module")
def barton():
    return fixtures.barton()


def test_squares_between(barton):
    squares = list(bf.squares(barton, "ab", "cd"))
    assert squares == [("ac", "bd")]
    assert list(bf.squares(barton, "cd", "ab")) == []


def test_has_lift_basics(barton):
    # the only square ab -> cd has no diagonal b -> c in the lattice
    assert has_lift(barton, "ab", "cd", "ac", "bd") is None
    assert has_lift(barton, "ab", "bd", "ab", "bd") == "id_b"
    with pytest.raises(InputError):
        has_lift(barton, "ab", "cd", "ac", "id_d")


def test_llp_on_thin_category_is_hom_emptiness(barton):
    # f has llp against g iff the (unique) square, when it exists, lifts
    assert llp(barton, "id_a", "ab")
    assert not llp(barton, "ab", "ab")  # would force ab to be invertible
    assert not llp(barton, "ab", "cd")
    assert llp(barton, "ac", "ab")  # no square at all between them


def test_llp_agrees_with_the_oracle_on_bounded_monoids():
    # non-thin: squares commute in several ways and may have several diagonals
    several = 0
    for base in bounded_monoids():
        for cat in (base, base.op):
            assert validate_category(cat).ok, (cat.name, cat.verdict.violations)
            for f in cat.morphisms:
                for g in cat.morphisms:
                    assert llp(cat, f, g) == bf.lifts(cat, f, g), (cat.name, f, g)
                    assert llp(cat, f, g) == llp(cat.op, g, f), (cat.name, f, g)
            several += _several_diagonal_visits(cat)
    # no thin category has a top with two diagonals, so only these inputs
    # reach the case of ``_lifting_rows`` that compares sets
    assert several > 0


def _several_diagonal_visits(cat):
    """How often ``_lifting_rows`` reaches its two-or-more-diagonal case at
    least: a top u: src f -> src g with d∘f = u for two or more d, where f
    lifts against g, so g's bit is still set when the search gets there."""
    table = cat.compose_table
    return sum(
        1
        for f in cat.morphisms
        for u in cat.arrows_from(cat.source[f])
        if sum(table[(d, f)] == u for d in cat.arrows_from(cat.target[f])) >= 2
        for g in cat.arrows_from(cat.target[u])
        if llp(cat, f, g)
    )


def test_llp_rejects_unknown_morphisms(barton):
    with pytest.raises(InputError):
        llp(barton, "nope", "ab")
    with pytest.raises(InputError):
        llp(barton, "ab", "nope")
    for complement in (complement_llp, complement_rlp):
        with pytest.raises(InputError):
            complement(barton, ["ab", "nope"])
        with pytest.raises(InputError):
            complement(barton, iter(["nope"]))
    # the first unknown id in iteration order is the one named
    with pytest.raises(InputError, match="'nope'"):
        complement_rlp(barton, ["ab", "nope", "zz"])


def test_complements_are_decoded_once(barton):
    right = complement_rlp(barton, ["ab"])
    assert complement_rlp(barton, ["ab"]) is right
    assert complement_rlp(barton, iter(["ab"])) is right
    assert complement_llp(barton, right) is complement_llp(barton, sorted(right))


def _table_categories():
    """Fresh chain2-chain5, barton and B2, so every complement table starts empty."""
    chains = [
        poset_category("chain%d" % n, "abcde"[:n], list(zip("bcde"[: n - 1], "abcd")))
        for n in range(2, 6)
    ]
    b2 = poset_category(
        "B2", ["00", "10", "01", "11"], [("00", "10"), ("00", "01"), ("10", "11"), ("01", "11")]
    )
    return chains + [fixtures.barton(), b2]


def _generator_sample(cat, rng, size=12):
    return [[m for m in cat.morphisms if rng.random() < 0.3] for _ in range(size)]


@pytest.mark.parametrize("opposite", [False, True], ids=["cat", "op"])
def test_frozenset_complements_are_answered_from_the_table(opposite):
    rng = random.Random(13)
    for base in _table_categories():
        cat = base.op if opposite else base
        for gens in _generator_sample(cat, rng):
            for complement, oracle in (
                (complement_llp, bf.llp_class), (complement_rlp, bf.rlp_class),
            ):
                first = complement(cat, frozenset(gens))
                assert first == oracle(cat, gens), (cat.name, gens)
                # the list runs the AND loop and meets the same decoded class
                assert complement(cat, gens) is first
                assert complement(cat, frozenset(gens)) is first


@pytest.mark.parametrize("opposite", [False, True], ids=["cat", "op"])
def test_unknown_ids_never_enter_the_complement_table(opposite):
    rng = random.Random(17)
    for base in _table_categories():
        cat = base.op if opposite else base
        for gens in _generator_sample(cat, rng, size=4):
            for complement in (complement_llp, complement_rlp):
                before = tuple(dict(side) for side in cat._complements)
                bad = frozenset(gens) | {"nope"}
                for _ in range(2):
                    with pytest.raises(InputError, match="'nope'"):
                        complement(cat, bad)
                assert cat._complements == before
                complement(cat, frozenset(gens))


def test_the_opposite_keeps_its_own_complement_table():
    rng = random.Random(19)
    for cat in _table_categories():
        op = cat.op
        for gens in _generator_sample(cat, rng):
            right = complement_rlp(cat, frozenset(gens))
            complement_llp(cat, right)
        assert op._complements == ({}, {})
        # asked afterwards, the opposite answers from its own lifting relation
        for right, left in cat._complements[1].items():
            assert complement_rlp(op, right) == left
        assert op._complements[0] and op._complements[1] == {}


def test_a_category_decodes_only_the_complements_asked_for(census):
    """Classifying every census structure leaves no decoded class behind but the
    answered complements: each value of ``_classes``, on the category and on its
    opposite, is a value of that category's ``_complements``.  The acyclic
    classes are kept by each structure, and WL and WR are only returned.  Only
    frozenset asks are answered from ``_complements``; an ask with a list is
    decoded all the same, and its answer is the one class it adds."""
    chain4 = poset_category("chain4", "abcd", [("b", "a"), ("c", "b"), ("d", "c")])
    for cat in (fixtures.chain3(), fixtures.barton(), chain4):
        for p in census[cat.name]:
            classify_full(PremodelStructure(cat, **p.classes(), name=p.name))
        for side in (cat, cat.op):
            answered = {members for table in side._complements for members in table.values()}
            assert side._classes and set(side._classes.values()) <= answered, side.name
    fresh = fixtures.chain3()
    listed = complement_llp(fresh, ["cd"])
    assert fresh._complements == ({}, {})
    assert list(fresh._classes.values()) == [listed]


def test_complements_are_galois(barton):
    s = frozenset({"ab"})
    right = complement_rlp(barton, s)
    left = complement_llp(barton, right)
    assert s <= left
    assert complement_rlp(barton, left) == right
    # frozen values, checked by hand against the lattice
    assert barton.sort_morphisms(right) == [
        "id_a", "id_b", "id_c", "id_d", "ac", "bd",
    ]
    assert barton.sort_morphisms(left) == ["id_a", "id_b", "id_c", "id_d", "ab", "cd"]


def test_retract_closure_frozen(barton):
    # in a poset every morphism parallel to a retract diagram is the arrow
    # itself, so closure only ever adds isomorphism-conjugates: nothing here
    base = frozenset({"ab", "cd"})
    assert retract_closure(barton, base) == base
    ids = frozenset(barton.identities.values())
    assert retract_closure(barton, frozenset()) == frozenset()
    assert retract_closure(barton, ids) == ids


def test_cell_closure_frozen(barton):
    got = cell_closure(barton, frozenset({"ab"}))
    # the only cobase change of ab that lands anywhere new is along ac,
    # which yields cd; no composite of {ab, cd} creates more
    assert barton.sort_morphisms(got) == [
        "id_a", "id_b", "id_c", "id_d", "ab", "cd",
    ]
    assert cell_closure(barton, frozenset()) == frozenset(
        barton.identities.values()
    )


def test_factor_deterministic(barton):
    left = frozenset(barton.morphisms)
    right = frozenset(barton.morphisms)
    assert factor(barton, left, right, "ad") == ("id_a", "ad")
    assert factor(barton, frozenset({"id_a"}), frozenset({"ad"}), "ad") == ("id_a", "ad")
    assert factor(barton, frozenset({"ab"}), frozenset({"cd"}), "ad") is None


def test_verify_wfs_accepts_trivial_system(barton):
    everything = frozenset(barton.morphisms)
    ids = frozenset(barton.identities.values())
    verdict = verify_wfs(barton, everything, ids)
    assert verdict.ok, verdict.violations
    verdict = verify_wfs(barton, ids, everything)
    assert verdict.ok, verdict.violations


def test_verify_wfs_reports_each_failure_kind(barton):
    ids = frozenset(barton.identities.values())
    # left class too small: factorization of ab fails, complements disagree
    verdict = verify_wfs(barton, ids, ids)
    assert not verdict.ok
    assert "no factorization of ab" in verdict.violations
    assert "right class misses lifting members: ab, ac, ad, bd, cd" in verdict.violations
    # lifting itself can fail: ab against cd has an unliftable square
    verdict = verify_wfs(barton, frozenset({"ab"}) | ids, frozenset({"cd"}) | ids)
    assert not verdict.ok
    assert "no lift of ab against cd" in verdict.violations


def test_kept_reports_equal_fresh_ones():
    # each pair's report is kept once per category; a key that mixed two
    # pairs would hand one pair's report, failures included, to the other
    cat = fixtures.barton()
    everything = frozenset(cat.morphisms)
    ids = frozenset(cat.identities.values())
    pairs = [
        (everything, ids), (ids, everything), (ids, ids),
        (ids | {"ab"}, ids | {"cd"}), (everything, everything),
    ]
    kept = [verify_wfs(cat, *pair) for pair in pairs]
    assert [r.ok for r in kept] == [True, True, False, False, False]
    for pair, report in zip(pairs, kept):
        assert verify_wfs(cat, *pair) is report
        fresh = verify_wfs(fixtures.barton(), *pair)
        assert fresh is not report and fresh == report


def test_generate_wfs_round_trips(barton):
    left, right = generate_wfs(barton, frozenset({"ab"}))
    assert verify_wfs(barton, left, right).ok
    assert "ab" in left
    assert right == complement_rlp(barton, left)
    # generating from the generated left class is idempotent
    assert generate_wfs(barton, left) == (left, right)

