"""Randomized structural laws over small generated posets.

The generators build bounded DAG posets (a top and bottom are forced in so
premodels always have their endpoints) and derive marked systems from random
generating sets, discarding draws whose factorizations do not exist.
"""

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
import pytest

import bruteforce as bf

from mclab.classify import classify_full, compute_WL, compute_WR
from mclab.errors import ConstructionError, InputError
from mclab.fincat import fold, poset_category
from mclab.homotopy import _alt_criterion, find_cylinder, verify_weak_model
from mclab.lifting import (
    cell_closure,
    complement_llp,
    complement_rlp,
    generate_wfs,
    llp,
    retract_closure,
)
from mclab.premodel import (
    PremodelStructure,
    acyclic_cofibrations,
    acyclic_fibrations,
    dualize,
    same_classes,
    verify_premodel,
)
from mclab.saturate import MODES, saturate

from conftest import (
    categories_built,
    category_fixtures,
    fresh_fold,
    premodel_fixtures,
    reverse_enumeration,
)

LETTERS = "uvwxy"


@st.composite
def posets(draw, bounded=False):
    n = draw(st.integers(min_value=1, max_value=4))
    objs = list(LETTERS[:n])
    pairs = []
    for i in range(n):
        for j in range(i + 1, n):
            if draw(st.booleans()):
                pairs.append((objs[j], objs[i]))
    if bounded:
        objs = ["s"] + objs + ["z"]
        pairs += [("z", x) for x in objs if x != "z"]
        pairs += [(x, "s") for x in objs if x != "s"]
    return poset_category("rnd", objs, pairs)


@st.composite
def relations(draw):
    """Any relation on at most six elements, cycles and repeats included."""
    objs = list("abcdef"[: draw(st.integers(min_value=1, max_value=6))])
    pair = st.tuples(st.sampled_from(objs), st.sampled_from(objs))
    return objs, draw(st.lists(pair, max_size=12))


@st.composite
def marked_classes(draw):
    cat = draw(posets())
    gens = draw(st.sets(st.sampled_from(cat.morphisms)))
    return cat, frozenset(gens)


@st.composite
def premodels(draw):
    cat = draw(posets(bounded=True))
    gens = draw(st.sets(st.sampled_from(cat.morphisms)))
    try:
        cofibrations, anodyne_fibrations = generate_wfs(cat, frozenset(gens))
    except ConstructionError:
        assume(False)
    anodyne_gens = draw(st.sets(st.sampled_from(sorted(cofibrations))))
    try:
        anodyne_cofibrations, fibrations = generate_wfs(cat, frozenset(anodyne_gens))
    except ConstructionError:
        assume(False)
    return PremodelStructure(
        cat=cat,
        cofibrations=cofibrations,
        anodyne_fibrations=anodyne_fibrations,
        anodyne_cofibrations=anodyne_cofibrations,
        fibrations=fibrations,
        name="rnd",
    )


@given(marked_classes())
@settings(max_examples=80, deadline=None)
def test_lifting_galois_connection(data):
    cat, s = data
    right = complement_rlp(cat, s)
    left = complement_llp(cat, right)
    assert s <= left
    assert complement_rlp(cat, left) == right
    # complements are retract-closed and see through the cell closure
    assert retract_closure(cat, left) == left
    assert retract_closure(cat, right) == right
    assert complement_rlp(cat, cell_closure(cat, s)) == right
    # the bitmask rows decode to the oracle's quantifier loops
    assert right == bf.rlp_class(cat, s)
    assert left == bf.llp_class(cat, right)
    everything = frozenset(cat.morphisms)
    assert complement_rlp(cat, ()) == complement_llp(cat, iter(())) == everything
    assert bf.rlp_class(cat, ()) == bf.llp_class(cat, ()) == everything


@given(relations())
@settings(max_examples=200, deadline=None)
def test_poset_category_is_the_reflexive_transitive_closure(relation):
    objs, pairs = relation
    le = {(x, x) for x in objs} | set(pairs)
    for z in objs:  # Warshall
        le |= {(x, y) for x in objs for y in objs if (x, z) in le and (z, y) in le}
    if any(x != y and (y, x) in le for x, y in le):
        with pytest.raises(InputError, match="cycle through"):
            poset_category("rel", objs, pairs)
        return
    cat = poset_category("rel", objs, pairs)
    # one arrow x -> y exactly when y <= x
    assert sorted((cat.source[m], cat.target[m]) for m in cat.morphisms) == sorted(
        (x, y) for y, x in le
    )


@given(posets())
@settings(max_examples=80, deadline=None)
def test_opposite_involution_and_duality(cat):
    assert cat.op.op == cat
    assert cat.initial == cat.op.terminal
    assert cat.terminal == cat.op.initial
    # the opposite searches its own rows: this checks one search against the other
    op = cat.op
    for f in cat.morphisms:
        for g in cat.morphisms:
            assert llp(cat, f, g) == llp(op, g, f)


@given(posets())
@settings(max_examples=80, deadline=None)
def test_poset_folds_equal_a_fresh_search(cat):
    # every arrow of a poset is epi, so each fold is read off the hom-sets
    for base in (cat, reverse_enumeration(cat), cat.op):
        for i in base.morphisms:
            assert fold(base, i) == fresh_fold(base, i), (i, base.objects)


def _endpoints_build_nothing_and_match_the_oracle(cat):
    op = cat.op
    with categories_built() as built:
        ends = (cat.initial, cat.terminal, op.initial, op.terminal)
    # endpoints are read off the hom-sets: no query builds a new opposite of op
    assert built == []
    first = lambda xs: xs[0] if xs else None
    assert ends == tuple(
        first(objects(c)) for c in (cat, op) for objects in (bf.initial_objects, bf.terminal_objects)
    )


@given(posets())
@settings(max_examples=80, deadline=None)
def test_endpoints_build_nothing_and_match_the_oracle(cat):
    _endpoints_build_nothing_and_match_the_oracle(cat)


def test_endpoints_build_nothing_and_match_the_oracle_on_fixtures():
    for cat in category_fixtures():
        _endpoints_build_nothing_and_match_the_oracle(cat)


@given(premodels())
@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)
def test_generated_premodels_verify(p):
    assert verify_premodel(p).ok
    q = dualize(p)
    assert verify_premodel(q).ok
    assert same_classes(dualize(q), p)
    assert acyclic_cofibrations(p) == acyclic_fibrations(q)
    assert verify_weak_model(p).ok == verify_weak_model(q).ok


@given(premodels(), st.sampled_from(MODES))
@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)
def test_saturation_is_idempotent(p, mode):
    try:
        q = saturate(p, mode)
    except ConstructionError:
        assume(False)
    assert verify_premodel(q).ok
    assert same_classes(saturate(q, mode), q)


@given(premodels())
@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)
def test_classification_never_contradicts_itself(p):
    # classify_full raises VerificationError when any of its internal
    # cross-checks disagree; running clean on random inputs is the point
    report = classify_full(p)
    assert report.summary
    if report.two_sided is not None and report.two_sided.ok:
        assert report.left_semi.spitzweck and report.right_semi.spitzweck


def _alt_failures_by_pairs(p):
    """The core criterion's failures, right cancellation read over core × core."""
    cat = p.cat
    acyclic = acyclic_cofibrations(p)
    core = [f for f in cat.sort_morphisms(p.cofibrations) if cat.source[f] in p.cofibrant]
    failures = ["no weak cylinder for %s" % i for i in core if find_cylinder(p, i) is None]
    for j in core:
        for i in core:
            if cat.target[j] != cat.source[i]:
                continue
            if j in acyclic and cat.compose_table[(i, j)] in acyclic and i not in acyclic:
                failures.append("right cancellation fails at %s after %s" % (i, j))
    return tuple(failures)


def _alt_criterion_walks_composable_pairs(p):
    for q in (p, dualize(p)):
        failures = _alt_failures_by_pairs(q)
        assert _alt_criterion(q) == (not failures, failures), q.name


def test_alt_criterion_walks_composable_pairs_on_fixtures():
    for p in premodel_fixtures():
        _alt_criterion_walks_composable_pairs(p)


@given(premodels())
@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)
def test_alt_criterion_walks_composable_pairs(p):
    _alt_criterion_walks_composable_pairs(p)


def _reversed_copy(p):
    return PremodelStructure(
        cat=reverse_enumeration(p.cat),
        cofibrations=p.cofibrations,
        anodyne_fibrations=p.anodyne_fibrations,
        anodyne_cofibrations=p.anodyne_cofibrations,
        fibrations=p.fibrations,
        name=p.name,
    )


@given(premodels())
@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)
def test_enumeration_order_is_irrelevant(p):
    r = _reversed_copy(p)
    assert verify_premodel(r).ok
    assert acyclic_cofibrations(r) == acyclic_cofibrations(p)
    assert acyclic_fibrations(r) == acyclic_fibrations(p)
    assert verify_weak_model(r).ok == verify_weak_model(p).ok
    if verify_weak_model(p).ok:
        assert compute_WL(r) == compute_WL(p)
        assert compute_WR(r) == compute_WR(p)
        assert classify_full(r).summary == classify_full(p).summary
