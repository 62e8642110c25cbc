import pytest

import bruteforce as bf
from mclab import fixtures
from mclab.errors import ConstructionError, InputError
from mclab.parser import load
from mclab.premodel import (
    PremodelStructure,
    core_acyclic_cofibrations,
    core_acyclic_fibrations,
    same_classes,
    saturation_flags,
    verify_premodel,
)
from mclab.report import to_text
from mclab.run import OK, run_directives
from mclab.saturate import MODES, saturate
from monoids import bounded_monoids


def test_mode_validation():
    p = fixtures.barton_p0()
    with pytest.raises(InputError):
        saturate(p, "both")


@pytest.mark.parametrize("mode", MODES)
def test_saturate_contracts(premodel_corpus, mode):
    for p in premodel_corpus:
        q = saturate(p, mode)
        assert verify_premodel(q).ok, (p.name, mode)
        # the bifibrant core is untouched
        assert q.cofibrant == p.cofibrant
        assert q.fibrant == p.fibrant
        assert core_acyclic_cofibrations(q) == core_acyclic_cofibrations(p)
        assert core_acyclic_fibrations(q) == core_acyclic_fibrations(p)
        # target flag holds and a second pass changes nothing
        flags = saturation_flags(q).as_dict()
        key = {
            "L": "left_saturated",
            "Lc": "core_left_saturated",
            "R": "right_saturated",
            "Rc": "core_right_saturated",
        }[mode]
        assert flags[key], (p.name, mode)
        assert same_classes(saturate(q, mode), q), (p.name, mode)


def test_saturate_fixes_already_saturated(premodel_corpus):
    # the shipped fixtures are all bi-saturated, so every mode is a no-op
    for p in premodel_corpus:
        for mode in MODES:
            assert same_classes(saturate(p, mode), p), (p.name, mode)


def test_an_unchanged_saturation_returns_its_input(census):
    # a rebuild that changes nothing returns the structure it was given, so
    # every fact already found on it is kept; any other gives a new structure
    structures = census["barton"]
    for p in structures:
        assert (saturate(p, "Lc") is p) == saturation_flags(p).core_left_saturated, p.classes()
    kept = next(p for p in structures if saturation_flags(p).core_left_saturated)
    moved = next(p for p in structures if not saturation_flags(p).core_left_saturated)
    assert not same_classes(saturate(moved, "Lc"), moved)
    # ``run`` compares classes, so it still reports the first as unchanged
    names = {
        field: ", ".join(sorted(kept.classes()[field]))
        for field in ("cofibrations", "anodyne_cofibrations")
    }
    env = load(
        "poset barton { d <= b <= a; d <= c <= a; }\n"
        "premodel P on barton { cofibrations: {%(cofibrations)s}; "
        "anodyne_cofibrations: {%(anodyne_cofibrations)s}; }\n"
        "run { saturate P mode Lc; }" % names
    )
    outcome = run_directives(env, env.directives)
    assert outcome.code == OK and outcome.trees[0]["changed"] is False
    assert "changed: no" in to_text(outcome.trees[0])


def test_left_and_right_saturation_commute(premodel_corpus):
    for p in premodel_corpus:
        rl = saturate(saturate(p, "L"), "R")
        lr = saturate(saturate(p, "R"), "L")
        assert verify_premodel(rl).ok
        assert verify_premodel(lr).ok
        assert saturation_flags(rl).bi_saturated
        # the two orders need not agree in general; on these fixtures they do
        assert same_classes(rl, lr), p.name


def test_saturate_moves_an_unsaturated_structure():
    # only d stays fibrant here, so every cofibration lifts against the
    # remaining core fibrations and Lc must sweep them all in
    bart = fixtures.barton()
    ids = frozenset(bart.identities.values())
    p = fixtures.trivial_premodel(bart).with_classes(
        anodyne_cofibrations=ids | {"ad", "bd", "cd"},
        fibrations=ids | {"ab", "ac"},
    )
    assert verify_premodel(p).ok
    assert not saturation_flags(p).core_left_saturated
    q = saturate(p, "Lc")
    assert q.anodyne_cofibrations == frozenset(bart.morphisms)
    assert q.fibrations == ids
    assert verify_premodel(q).ok
    assert saturation_flags(q).core_left_saturated


def _oracle_saturation(p, mode):
    """The four classes saturation in ``mode`` should give, from the oracle:
    the votes are its acyclic class (with cofibrant source, or fibrant
    target, for the core modes), then one complement and its partner."""
    cat = p.cat
    if mode in ("L", "Lc"):
        votes = bf.acyclic_cofibrations(p)
        if mode == "Lc":
            votes = {f for f in votes if cat.source[f] in bf.cofibrant_set(p)}
        fib = p.fibrations & bf.rlp_class(cat, votes)
        return p.cofibrations, p.anodyne_fibrations, bf.llp_class(cat, fib), fib
    votes = bf.acyclic_fibrations(p)
    if mode == "Rc":
        votes = {g for g in votes if cat.target[g] in bf.fibrant_set(p)}
    cof = p.cofibrations & bf.llp_class(cat, votes)
    return cof, bf.rlp_class(cat, cof), p.anodyne_cofibrations, p.fibrations


@pytest.mark.parametrize("mode, moved", [("L", 20), ("Lc", 16), ("R", 20), ("Rc", 16)])
def test_saturate_census_matches_the_oracle(census, mode, moved):
    # the fixtures are all bi-saturated; the census is not
    count = 0
    for p in (p for name in ("chain3", "barton", "chain4") for p in census[name]):
        q = saturate(p, mode)
        expected = PremodelStructure(p.cat, *_oracle_saturation(p, mode))
        assert same_classes(q, expected), (p.cat.name, p.classes(), mode)
        assert q.name == p.name
        count += not same_classes(q, p)
    assert count == moved


@pytest.mark.parametrize("mode", MODES)
def test_saturate_loses_factorization_with_a_witness(mode):
    # on the idempotent monoid, C = AC = {z} and AF = F = {t} (with the
    # identities) leave e with no factorization, in every mode
    cat = next(m for m in bounded_monoids() if m.name == "idempotent")
    ids = frozenset(cat.identities.values())
    cof, fib = ids | {"z"}, ids | {"t"}
    p = PremodelStructure(cat, cof, fib, cof, fib, name="idempotent")
    with pytest.raises(ConstructionError) as err:
        saturate(p, mode)
    assert str(err.value) == "saturation %s loses factorization of e" % mode
    assert err.value.witness == "e"
