"""The paper's localization and extension theorems, checked exhaustively on
the census of chain3, barton and chain4.

Localization: a left Bousfield localization of a Quillen model structure
exists and is both a left and a right semi-model structure (two-sided),
without always being Quillen.  So is a right one, along every adjunction
from barton into chain2 whose right adjoint is right Quillen.  Extension: a weak model structure becomes a
left semi-model structure under left saturation and a right one under right
saturation.  The counts are pinned, so a change in what the census holds or
in how many localizations stay Quillen shows.

Small objects: on every census category, the bounded monoids included, the
class llp(rlp S) that a set S of arrows generates is the retract closure of
S's cell closure, wherever the pushouts that closure needs exist.
"""

import itertools

import pytest

from mclab.classify import classify_full
from mclab.errors import InputError
from mclab.fincat import check_adjunction, poset_category
from mclab.homotopy import verify_weak_model
from mclab.lifting import cell_closure, complement_llp, complement_rlp, retract_closure
from mclab.localize import left_bousfield, right_bousfield
from mclab.saturate import saturate

from conftest import oracle_premodels, poset_adjunctions

CATEGORIES = ("chain3", "barton", "chain4")
QUILLEN = "Quillen model structure"
# category -> (localizations per mode, how many of them are not Quillen)
LOCALIZATIONS = {"chain3": (30, 0), "barton": (115, 2), "chain4": (210, 0)}
WEAK_MODELS = {"chain3": 13, "barton": 44, "chain4": 68}


@pytest.mark.parametrize("mode", ["L", "Lc"])
@pytest.mark.parametrize("name", CATEGORIES)
def test_left_localization_at_one_arrow_is_two_sided(census, name, mode):
    # every Quillen structure, at every non-identity arrow; none may raise
    results = [
        classify_full(left_bousfield(p, [s], mode).structure)
        for p in census[name]
        if classify_full(p).summary == QUILLEN
        for s in p.cat.morphisms
        if not p.cat.is_identity(s)
    ]
    assert all(r.two_sided.ok for r in results)
    assert (len(results), sum(r.summary != QUILLEN for r in results)) == LOCALIZATIONS[name]


@pytest.mark.parametrize("mode", ["R", "Rc"])
def test_right_localization_into_chain2_is_two_sided(census, mode):
    # every Quillen structure on barton, every weak model on chain2 and every
    # adjunction between them: a right adjoint that is not right Quillen is
    # refused as input, and nothing else may raise
    chain2 = poset_category("chain2", "ab", [("b", "a")])
    targets = [t for t in oracle_premodels(chain2) if verify_weak_model(t).ok]
    sources = [p for p in census["barton"] if classify_full(p).summary == QUILLEN]
    adjunctions = poset_adjunctions(sources[0].cat, chain2)
    assert all(check_adjunction(adj).ok for adj in adjunctions)
    assert (len(sources), len(targets), len(adjunctions)) == (23, 3, 4)
    results, refused = [], 0
    for p in sources:
        for t in targets:
            for adj in adjunctions:
                try:
                    results.append(classify_full(right_bousfield(p, adj, t, mode).structure))
                except InputError as err:
                    assert "needs a right Quillen functor" in str(err)
                    refused += 1
    assert all(r.two_sided.ok for r in results)
    assert (refused, len(results), sum(r.summary != QUILLEN for r in results)) == (87, 189, 2)


@pytest.mark.parametrize("name", CATEGORIES)
def test_saturation_extends_every_weak_model_to_a_semi_model(census, name):
    assert sum(verify_weak_model(p).ok for p in census[name]) == WEAK_MODELS[name]
    assert len(census[name]) == WEAK_MODELS[name]
    for p in census[name]:
        for mode in ("L", "Lc"):
            assert classify_full(saturate(p, mode)).left_semi.fresse, mode
        for mode in ("R", "Rc"):
            assert classify_full(saturate(p, mode)).right_semi.fresse, mode


# category -> (sets S of non-identity arrows, how many of them generate more
# than the retract closure of their cell closure)
SMALL_OBJECT = {
    "chain3": (8, 0),
    "barton": (32, 0),
    "chain4": (64, 0),
    "Z2": (16, 0),
    "Z3": (32, 0),
    # the pushouts the cell closure needs are absent (ROADMAP.md item 4)
    "idempotent": (16, 5),
    "left_zero": (32, 21),
}


def test_small_object_identity(census):
    found = {}
    for structures in census.values():
        cat = structures[0].cat
        arrows = [m for m in cat.morphisms if not cat.is_identity(m)]
        sets = [S for k in range(len(arrows) + 1) for S in itertools.combinations(arrows, k)]
        short = 0
        for S in sets:
            generated = complement_llp(cat, complement_rlp(cat, frozenset(S)))
            cells = retract_closure(cat, cell_closure(cat, S))
            # an llp class is closed under pushout, composition and retract
            assert cells <= generated, (cat.name, S)
            short += cells != generated
        found[cat.name] = (len(sets), short)
    assert found == SMALL_OBJECT
