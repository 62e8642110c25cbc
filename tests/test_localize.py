import pytest

from mclab import fixtures
from mclab.errors import InputError
from mclab.localize import (
    core_cofibration_representative,
    left_bousfield,
    nabla,
    right_bousfield,
)
from mclab.premodel import (
    same_classes,
    verify_premodel,
)
from mclab.homotopy import is_equivalence, verify_weak_model
from mclab.saturate import saturate

from conftest import collapse_adjunction

IDS = frozenset({"id_a", "id_b", "id_c", "id_d"})


@pytest.fixture(scope="module")
def p0():
    return fixtures.barton_p0()


def test_nabla(p0):
    assert nabla(p0, "ac") == "id_c"
    assert nabla(p0, "ad") == "id_d"
    assert nabla(p0, "id_c") == "id_c"


def test_representative_of_generator(p0):
    # ac already runs cofibrant -> fibrant, so it stands for itself
    assert core_cofibration_representative(p0, "ac") == "ac"
    # ab is not a cofibration; its stand-in is the left factor of the
    # replacement-composite, which lands on the identity of a
    rep = core_cofibration_representative(p0, "ab")
    assert rep in p0.cofibrations


def test_left_bousfield_reproduces_localized_structure(p0):
    loc = left_bousfield(p0, {"ac"}, mode="Lc")
    p1 = fixtures.barton_p1(p0.cat)
    assert same_classes(loc.structure, p1)
    assert loc.representatives == {"ac": "ac"}
    assert loc.nabla_closure == frozenset({"ac", "id_c"})
    # here the raw rebuild is already saturated
    assert same_classes(loc.intermediate, loc.structure)
    assert verify_weak_model(loc.structure).ok


def test_left_bousfield_postconditions(p0):
    loc = left_bousfield(p0, {"ac"}, mode="Lc")
    q = loc.structure
    assert q.cofibrations == p0.cofibrations
    assert q.fibrant == {"c", "d"}
    for s, rep in loc.representatives.items():
        assert rep in q.anodyne_cofibrations
        assert is_equivalence(q, rep)
    # the result is core-left-saturated, so saturating it again returns it
    # with the verdicts ``left_bousfield`` found on it
    assert saturate(q, "Lc") is q and q.equivalence_verdicts


def test_left_bousfield_at_ad_collapses_everything():
    triv = fixtures.trivial_premodel(fixtures.barton())
    loc = left_bousfield(triv, {"ad"}, mode="Lc")
    assert loc.structure.anodyne_cofibrations == frozenset(triv.cat.morphisms)
    assert loc.structure.fibrations == IDS
    assert loc.intermediate.anodyne_cofibrations == IDS | {"ad", "bd", "cd"}
    assert loc.intermediate.fibrations == IDS | {"ab", "ac"}
    assert not same_classes(loc.intermediate, loc.structure)
    assert loc.structure.fibrant == {"d"}


def test_left_bousfield_rejects_unknown_arrows(p0):
    with pytest.raises(InputError):
        left_bousfield(p0, {"zz"})
    with pytest.raises(InputError):
        left_bousfield(p0, {"ac"}, mode="R")  # not a left mode


def test_right_bousfield_against_point(p0):
    pt = fixtures.point()
    target = fixtures.trivial_premodel(pt, name="point/trivial")
    adj = collapse_adjunction(pt, p0.cat)
    loc = right_bousfield(p0, adj, target, mode="Rc")
    # every core fibration squashes to an identity, hence gets localized
    assert loc.localizer == frozenset(
        m for m in p0.fibrations
        if {p0.cat.source[m], p0.cat.target[m]} <= {"a", "b", "c", "d"}
    )
    assert loc.structure.cofibrations == IDS
    assert loc.structure.anodyne_fibrations == frozenset(p0.cat.morphisms)
    assert verify_premodel(loc.structure).ok


def test_right_bousfield_requires_right_quillen(p0):
    pt = fixtures.point()
    target = fixtures.trivial_premodel(pt, name="point/trivial")
    adj = collapse_adjunction(pt, p0.cat)
    broken = type(adj)(
        adj.name, adj.left, adj.right, adj.unit,
        {"a": "id_a", "b": "ab", "c": "ac", "d": "id_d"},
    )
    with pytest.raises(InputError, match="right Quillen"):
        right_bousfield(p0, adj=broken, target=target)


def test_nabla_rejects_non_cofibrations(p0):
    with pytest.raises(InputError):
        nabla(p0, "ab")
