import pytest

from mclab import fixtures
from mclab.errors import ConstructionError, InputError, VerificationError
from mclab.fincat import identity_functor
from mclab.olschok import (
    CylinderReport,
    NatTrans,
    _structural_cylinder_check,
    check_nat_trans,
    check_pre_cylinder,
    compose_nt,
    corner_product,
    identity_cylinder,
    identity_nt,
    nt_is_anodyne,
    nt_is_cofibration,
    olschok_lambda,
    olschok_model,
    pair_functor,
    verify_quillen_cylinder,
    weak_cylinder_theorem_harness,
)
from mclab.premodel import dualize, same_classes

IDS = frozenset({"id_a", "id_b", "id_c", "id_d"})


@pytest.fixture(scope="module")
def p0():
    return fixtures.barton_p0()


@pytest.fixture(scope="module")
def p1():
    return fixtures.barton_p1()


def test_pair_functor_on_lattice(p0):
    cat = p0.cat
    q, inl, inr, fold = pair_functor(cat)
    # binary joins are idempotent, so the pair functor collapses pointwise
    assert all(q.on_object(x) == x for x in cat.objects)
    for nt in (inl, inr, fold):
        assert check_nat_trans(nt).ok, nt.name
    assert compose_nt(fold, inl).components == identity_nt(identity_functor(cat)).components


def test_check_nat_trans_catches_bad_components(p0):
    cat = p0.cat
    ident = identity_functor(cat)
    bad = NatTrans(
        "skew", ident, ident,
        {"a": "ab", "b": "id_b", "c": "id_c", "d": "id_d"},
    )
    verdict = check_nat_trans(bad)
    assert not verdict.ok
    assert any("component at 'a'" in s for s in verdict.violations)
    missing = NatTrans("partial", ident, ident, {"a": "id_a"})
    assert not check_nat_trans(missing).ok


def test_corner_products_on_identity_cylinder(p0):
    cat = p0.cat
    cyl = identity_cylinder(cat)
    sigma0 = compose_nt(cyl.inclusion, cyl.inl)
    # the corner of a leg with any arrow degenerates to the far identity
    assert corner_product(sigma0, "ac") == "id_c"
    assert corner_product(sigma0, "ad") == "id_d"
    assert corner_product(cyl.inclusion, "cd") == "id_d"


def test_nt_class_checks(p0):
    cyl = identity_cylinder(p0.cat)
    assert nt_is_cofibration(cyl.inclusion, p0, p0).ok
    assert nt_is_anodyne(cyl.leg, p0, p0).ok


def test_identity_cylinder_verifies_everywhere(premodel_corpus):
    for p in premodel_corpus:
        cyl = identity_cylinder(p.cat)
        report = verify_quillen_cylinder(cyl, p)
        assert report.ok, (p.name, report.failures)
        assert report.strong
        dual = dualize(p)
        assert verify_quillen_cylinder(identity_cylinder(dual.cat), dual).ok


def test_weak_cylinder_theorem_harness(p0, p1):
    for p in (p0, p1):
        cyl = identity_cylinder(p.cat)
        witnesses = weak_cylinder_theorem_harness(p, cyl)
        assert set(witnesses) == {"ac", "ad", "cd", "id_a", "id_c", "id_d"}
        for w in witnesses.values():
            assert w.strong


def test_harness_rejects_unverified_input(p0):
    broken = p0.with_classes(anodyne_cofibrations=IDS | {"ab"})
    with pytest.raises(InputError):
        weak_cylinder_theorem_harness(broken, identity_cylinder(p0.cat))


def test_olschok_on_fully_cofibrant_chain():
    triv = fixtures.trivial_premodel(fixtures.chain3())
    report = olschok_model(triv, identity_cylinder(triv.cat))
    assert report.lambda_set == frozenset({"id_a", "id_c", "id_d"})
    assert report.lambda_set == report.lambda_without_second
    assert not report.second_corner_matters
    assert report.all_cofibrant
    assert report.quillen_asserted
    assert not report.left_semi_asserted
    assert report.classification.summary == "Quillen model structure"
    assert same_classes(report.saturated, triv)


def test_olschok_regenerates_the_marked_structure(p0):
    report = olschok_model(p0, identity_cylinder(p0.cat))
    assert same_classes(report.saturated, p0)
    assert not report.all_cofibrant  # b never becomes cofibrant
    assert not report.quillen_asserted
    assert report.left_semi_asserted
    assert report.classification.summary == "Quillen model structure"


def test_olschok_with_seed_localizes(p0, p1):
    report = olschok_model(p0, identity_cylinder(p0.cat), seeds=("ac",))
    assert report.lambda_set == IDS | {"ac"}
    assert same_classes(report.premodel, p1)
    assert same_classes(report.saturated, p1)
    assert report.classification.summary == "two-sided weak model (not Quillen)"
    assert report.left_semi_asserted


def test_olschok_lambda_rejects_non_cofibration_seed(p0):
    cyl = identity_cylinder(p0.cat)
    with pytest.raises(VerificationError, match="non-cofibration"):
        olschok_lambda(p0, cyl, seeds=("ab",))


def test_pre_cylinder_check(p0):
    assert check_pre_cylinder(identity_cylinder(p0.cat), p0).ok


CISINSKI_OLSCHOK_COUNTS = {
    # category: (runs, Quillen-asserted, left-semi-asserted)
    "chain3": (77, 35, 42),
    "barton": (365, 100, 265),
    "chain4": (593, 154, 439),
}


def test_cisinski_olschok_census(census):
    """The identity cylinder generates from every census premodel, with no
    seed and with each single cofibration; each run asserts exactly one of
    the two implications."""
    for name, want in CISINSKI_OLSCHOK_COUNTS.items():
        runs = quillen = left_semi = 0
        for p in census[name]:
            cyl = identity_cylinder(p.cat)
            for seeds in [(), *((i,) for i in p.cat.sort_morphisms(p.cofibrations))]:
                report = olschok_model(p, cyl, seeds)
                assert report.quillen_asserted != report.left_semi_asserted, (name, seeds)
                runs += 1
                quillen += report.quillen_asserted
                left_semi += report.left_semi_asserted
        assert (runs, quillen, left_semi) == want, name


def test_bounded_monoids_have_no_identity_cylinder(census):
    for name in ("Z2", "Z3", "idempotent", "left_zero"):
        cat = census[name][0].cat
        with pytest.raises(ConstructionError, match="coproduct of 'x' with itself"):
            identity_cylinder(cat)


def test_olschok_needs_initial_and_terminal_objects():
    two = fixtures.discrete2()
    triv = fixtures.trivial_premodel(two)
    with pytest.raises(InputError) as err:
        olschok_model(triv, identity_cylinder(two))
    assert str(err.value) == (
        "olschok needs initial and terminal objects: discrete2 has no initial and no terminal object"
    )


def test_olschok_seeds_must_be_known_cofibrations(p0):
    cyl = identity_cylinder(p0.cat)
    for seeds, text in (
        (("ab", "bd"), "olschok seeds must be cofibrations: ab"),
        (("zz",), "unknown morphism 'zz' in barton"),
    ):
        with pytest.raises(InputError) as err:
            olschok_model(p0, cyl, seeds)
        assert str(err.value) == text


def test_a_foreign_cylinder_is_bad_input(p0):
    cyl = identity_cylinder(fixtures.chain3())
    text = "cylinder lives on chain3, not on barton"
    assert _structural_cylinder_check(cyl, p0.cat) == [text]
    assert verify_quillen_cylinder(cyl, p0) == CylinderReport(False, False, (text,))
    assert check_pre_cylinder(cyl, p0).violations == (text,)
    with pytest.raises(InputError, match="^olschok needs a verified cylinder: %s$" % text):
        olschok_model(p0, cyl)
    with pytest.raises(InputError, match="^harness needs a verified Quillen cylinder: %s$" % text):
        weak_cylinder_theorem_harness(p0, cyl)
