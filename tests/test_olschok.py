import pytest

from conftest import oracle_premodels, poset_cylinders
from mclab import fixtures
from mclab.errors import ConstructionError, InputError, VerificationError
from mclab.fincat import identity_functor
from mclab.homotopy import verify_weak_model
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
    assert nt_is_cofibration(cyl.inclusion, p0).ok
    assert nt_is_anodyne(cyl.leg, p0).ok


def test_identity_cylinder_verifies_everywhere(premodel_corpus):
    for p in premodel_corpus:
        cyl = identity_cylinder(p.cat)
        report = verify_quillen_cylinder(cyl, p)
        assert report.ok, (p.name, report.failures)
        assert report.strong
        dual = dualize(p)
        assert verify_quillen_cylinder(identity_cylinder(dual.cat), dual).ok


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


def olschok_counts(pairs):
    """(runs, Quillen-asserted, left-semi-asserted) of ``olschok_model`` on each
    (premodel, cylinder) pair, with no seed and with each single cofibration;
    each run asserts exactly one of the two implications."""
    runs = quillen = left_semi = 0
    for p, cyl in pairs:
        for seeds in [(), *((i,) for i in p.cat.sort_morphisms(p.cofibrations))]:
            report = olschok_model(p, cyl, seeds)
            assert report.quillen_asserted != report.left_semi_asserted, (p.cat.name, cyl.name, seeds)
            runs += 1
            quillen += report.quillen_asserted
            left_semi += report.left_semi_asserted
    return runs, quillen, left_semi


def test_cisinski_olschok_census(census):
    """The identity cylinder generates from every census premodel."""
    for name, want in CISINSKI_OLSCHOK_COUNTS.items():
        assert olschok_counts((p, identity_cylinder(p.cat)) for p in census[name]) == want, name


def verified_pairs(premodels, cylinders):
    """The (premodel, cylinder) pairs that pass ``verify_quillen_cylinder``."""
    return [(p, cyl) for p in premodels for cyl in cylinders if verify_quillen_cylinder(cyl, p).ok]


@pytest.fixture(scope="module")
def chain3_cylinder_pairs(census):
    """(all pairs, verified pairs) of a chain3 census premodel and a cylinder
    of ``conftest.poset_cylinders``."""
    cylinders = list(poset_cylinders(census["chain3"][0].cat))
    assert len(cylinders) == 14
    pairs = [(p, cyl) for p in census["chain3"] for cyl in cylinders]
    return pairs, verified_pairs(census["chain3"], cylinders)


def test_cisinski_olschok_on_poset_cylinders(chain3_cylinder_pairs):
    """Beyond the identity cylinder: every verified pair generates."""
    pairs, verified = chain3_cylinder_pairs
    assert (len(pairs), len(verified)) == (182, 150)
    assert olschok_counts(verified) == (886, 378, 508)


def test_verified_poset_cylinders_give_weak_models(census, chain3_cylinder_pairs):
    """The cylinder-to-weak-model implication, tested at its conclusion: every
    premodel of a verified (premodel, poset cylinder) pair passes
    ``verify_weak_model``, on chain3 and on barton.  A failing pair is a
    finding, not a pair to filter out."""
    _, chain3 = chain3_cylinder_pairs
    barton = verified_pairs(census["barton"], list(poset_cylinders(census["barton"][0].cat)))
    assert (len(chain3), len(barton)) == (150, 1269)
    failing = [(p.label, cyl.name) for p, cyl in chain3 + barton if not verify_weak_model(p).ok]
    assert failing == []


def test_cisinski_olschok_on_the_dual_of_chain3(census):
    """The dual side: chain3ᵒᵖ's premodels are chain3's duals and its poset
    cylinders are chain3's path objects; they generate with chain3's counts."""
    cat = census["chain3"][0].cat.op
    premodels, cylinders = oracle_premodels(cat), list(poset_cylinders(cat))
    def classes(structures):
        return sorted(tuple(map(sorted, p.classes().values())) for p in structures)

    assert classes(premodels) == classes(p.dual for p in census["chain3"])
    assert len(cylinders) == 14
    verified = verified_pairs(premodels, cylinders)
    assert len(verified) == 150
    assert olschok_counts(verified) == (886, 378, 508)


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
    assert _structural_cylinder_check(cyl, p0.cat).violations == (text,)
    assert verify_quillen_cylinder(cyl, p0) == CylinderReport(False, False, (text,))
    assert check_pre_cylinder(cyl, p0).violations == (text,)
    with pytest.raises(InputError, match="^olschok needs a verified cylinder: %s$" % text):
        olschok_model(p0, cyl)
