"""The paper's localization and extension theorems, checked exhaustively on
the census of chain3, barton and chain4.

Localization: a left Bousfield localization of a Quillen model structure
exists and is both a left and a right semi-model structure (two-sided),
without always being Quillen.  Extension: a weak model structure becomes a
left semi-model structure under left saturation and a right one under right
saturation.  The counts are pinned, so a change in what the census holds or
in how many localizations stay Quillen shows.
"""

import pytest

from mclab.classify import classify_full
from mclab.homotopy import verify_weak_model
from mclab.localize import left_bousfield
from mclab.saturate import saturate

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


@pytest.mark.parametrize("name", CATEGORIES)
def test_saturation_extends_every_weak_model_to_a_semi_model(census, name):
    assert sum(verify_weak_model(p).ok for p in census[name]) == WEAK_MODELS[name]
    assert len(census[name]) == WEAK_MODELS[name]
    for p in census[name]:
        for mode in ("L", "Lc"):
            assert classify_full(saturate(p, mode)).left_semi.fresse, mode
        for mode in ("R", "Rc"):
            assert classify_full(saturate(p, mode)).right_semi.fresse, mode
