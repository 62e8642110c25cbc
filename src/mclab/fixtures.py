"""Built-in categories and marked structures used by tests and docs.

The same fixtures ship twice: built here in code, and as ``data/*.mcl``
source files for the command line.  A test pins the two presentations to
each other.

BARTON is the four-object lattice

        a
       / \\
      b   c          arrows run downward; a is initial, d terminal,
       \\ /           bd∘ab = ad = cd∘ac, and the square is the whole story.
        d

It carries two marked structures: P0, where only ab is anodyne on the right,
and P1, the left localization of P0 at {ac}.  P1 is the small example where
the left and right equivalence yardsticks genuinely disagree.
"""

from .fincat import FiniteCategory, isomorphisms, poset_category
from .premodel import PremodelStructure


def point():
    return poset_category("point", ["x"], [])


def interval():
    """The walking arrow 0 -> 1 (so 0 is initial: arrows run downward)."""
    return poset_category("interval", ["0", "1"], [("1", "0")])


def discrete2():
    """Two objects, identities only; no initial or terminal object.

    Useful for exercising the absent-(co)limit paths; cannot carry any
    premodel structure.
    """
    return FiniteCategory(
        "discrete2",
        ["u", "v"],
        [("id_u", "u", "u"), ("id_v", "v", "v")],
        {"u": "id_u", "v": "id_v"},
        {("id_u", "id_u"): "id_u", ("id_v", "id_v"): "id_v"},
    )


def barton():
    return poset_category("barton", ["a", "b", "c", "d"], [("d", "b"), ("b", "a"), ("d", "c"), ("c", "a")])


def chain3():
    """The three-object chain a -> c -> d (the b-less slice of barton)."""
    return poset_category("chain3", ["a", "c", "d"], [("d", "c"), ("c", "a")])


def trivial_premodel(cat, name="trivial"):
    """Cofibrations = everything, anodyne classes = isomorphisms.

    The smallest-footprint structure a category carries; every object is both
    cofibrant and fibrant.
    """
    isos = isomorphisms(cat)
    everything = frozenset(cat.morphisms)
    return PremodelStructure(
        cat=cat,
        cofibrations=everything,
        anodyne_fibrations=isos,
        anodyne_cofibrations=isos,
        fibrations=everything,
        name=name,
    )


_BARTON_IDS = frozenset({"id_a", "id_b", "id_c", "id_d"})


def barton_p0(cat=None):
    """Cofibrations are everything except ab; only ab is anodyne on the right."""
    cat = cat or barton()
    everything = frozenset(cat.morphisms)
    return PremodelStructure(
        cat=cat,
        cofibrations=everything - {"ab"},
        anodyne_fibrations=_BARTON_IDS | {"ab"},
        anodyne_cofibrations=_BARTON_IDS,
        fibrations=everything,
        name="P0",
    )


def barton_p1(cat=None):
    """The left localization of P0 at {ac}, written out explicitly."""
    cat = cat or barton()
    everything = frozenset(cat.morphisms)
    return PremodelStructure(
        cat=cat,
        cofibrations=everything - {"ab"},
        anodyne_fibrations=_BARTON_IDS | {"ab"},
        anodyne_cofibrations=_BARTON_IDS | {"ac", "bd"},
        fibrations=_BARTON_IDS | {"ab", "cd"},
        name="P1",
    )
