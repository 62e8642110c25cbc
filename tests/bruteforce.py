"""Independent oracle: every notion evaluated by direct quantification.

This module re-derives the definitions from scratch — no complements, no
caches, no canonical choices — so the tests can compare the engine against
a second, dumber implementation.  Where the engine commits to a first
candidate (a pushout apex, a factorization, a cylinder witness), the oracle
quantifies over ALL candidates and also reports whether the candidates
agree, which is what makes the comparison meaningful.

Only the raw tables of a category / the four frozensets of a premodel are
read; nothing here calls engine search code.
"""

from itertools import product


# ---- raw category helpers -------------------------------------------------

def hom(cat, x, y):
    return [m for m in cat.morphisms if cat.source[m] == x and cat.target[m] == y]


def comp(cat, g, f):
    return cat.compose_table[(g, f)]


def is_id(cat, m):
    return m in set(cat.identities.values())


def initial_objects(cat):
    return [x for x in cat.objects if all(len(hom(cat, x, y)) == 1 for y in cat.objects)]


def terminal_objects(cat):
    return [y for y in cat.objects if all(len(hom(cat, x, y)) == 1 for x in cat.objects)]


def opposite_tables(cat):
    """(source, target, compose) of the opposite, built by hand."""
    src = dict(cat.target)
    tgt = dict(cat.source)
    table = {(f, g): h for (g, f), h in cat.compose_table.items()}
    return src, tgt, table


# ---- lifting by quantification --------------------------------------------

def squares(cat, f, g):
    fs, ft = cat.source[f], cat.target[f]
    gs, gt = cat.source[g], cat.target[g]
    for u in hom(cat, fs, gs):
        for v in hom(cat, ft, gt):
            if comp(cat, v, f) == comp(cat, g, u):
                yield u, v


def square_has_diagonal(cat, f, g, u, v):
    return any(
        comp(cat, d, f) == u and comp(cat, g, d) == v
        for d in hom(cat, cat.target[f], cat.source[g])
    )


def lifts(cat, f, g):
    return all(square_has_diagonal(cat, f, g, u, v) for u, v in squares(cat, f, g))


def llp_class(cat, right):
    return frozenset(f for f in cat.morphisms if all(lifts(cat, f, g) for g in right))


def rlp_class(cat, left):
    return frozenset(g for g in cat.morphisms if all(lifts(cat, f, g) for f in left))


def factorizations(cat, left, right, h):
    out = []
    for z in cat.objects:
        for l in hom(cat, cat.source[h], z):
            if l not in left:
                continue
            for r in hom(cat, z, cat.target[h]):
                if r in right and comp(cat, r, l) == h:
                    out.append((l, r))
    return out


# ---- colimits by quantification --------------------------------------------

def pushout_cones(cat, f, g):
    """All universal cocones over the span (f, g); empty when none exist."""
    a = cat.source[f]
    assert cat.source[g] == a
    b, c = cat.target[f], cat.target[g]
    cocones = [
        (z, u, v)
        for z in cat.objects
        for u in hom(cat, b, z)
        for v in hom(cat, c, z)
        if comp(cat, u, f) == comp(cat, v, g)
    ]
    universal = []
    for z, u, v in cocones:
        ok = True
        for z2, u2, v2 in cocones:
            mediators = [
                m
                for m in hom(cat, z, z2)
                if comp(cat, m, u) == u2 and comp(cat, m, v) == v2
            ]
            if len(mediators) != 1:
                ok = False
                break
        if ok:
            universal.append((z, u, v))
    return universal


# ---- premodel classes -------------------------------------------------------

def cofibrant_set(p):
    cat = p.cat
    inits = initial_objects(cat)
    if not inits:
        return frozenset()
    zero = inits[0]
    return frozenset(
        x for x in cat.objects if any(m in p.cofibrations for m in hom(cat, zero, x))
    )


def fibrant_set(p):
    cat = p.cat
    terms = terminal_objects(cat)
    if not terms:
        return frozenset()
    one = terms[0]
    return frozenset(
        x for x in cat.objects if any(m in p.fibrations for m in hom(cat, x, one))
    )


def core_cofibrations(p):
    cofibrant = cofibrant_set(p)
    return frozenset(f for f in p.cofibrations if p.cat.source[f] in cofibrant)


def core_fibrations(p):
    fibrant = fibrant_set(p)
    return frozenset(g for g in p.fibrations if p.cat.target[g] in fibrant)


def acyclic_cofibrations(p, strict=False):
    cat = p.cat
    fibrant = fibrant_set(p)
    gates = [
        g
        for g in p.fibrations
        if cat.target[g] in fibrant and (strict or cat.source[g] in fibrant)
    ]
    return frozenset(
        f for f in p.cofibrations if all(lifts(cat, f, g) for g in gates)
    )


def acyclic_fibrations(p, strict=False):
    cat = p.cat
    cofibrant = cofibrant_set(p)
    gates = [
        f
        for f in p.cofibrations
        if cat.source[f] in cofibrant and (strict or cat.target[f] in cofibrant)
    ]
    return frozenset(
        g for g in p.fibrations if all(lifts(cat, f, g) for f in gates)
    )


# ---- cylinders, by definition ----------------------------------------------

def _fold_data(p, i):
    """All universal fold cones (Q, q0, q1, codiagonal) for a cofibration."""
    cat = p.cat
    b = cat.target[i]
    out = []
    for q, q0, q1 in pushout_cones(cat, i, i):
        nabla = [
            m
            for m in hom(cat, q, b)
            if comp(cat, m, q0) == cat.identities[b] and comp(cat, m, q1) == cat.identities[b]
        ]
        assert len(nabla) == 1
        out.append((q, q0, q1, nabla[0]))
    return out


def cylinder_witnesses(p, i, acyclic):
    """All weak relative cylinders on i, over every universal fold cone.

    Yields (strong, components...) tuples; ``acyclic`` is the acyclic
    cofibration class to use for the side conditions (passed in so the
    oracle is parameterized by its own computation of that class).
    """
    cat = p.cat
    b = cat.target[i]
    for q, q0, q1, nabla in _fold_data(p, i):
        for l in acyclic:
            if cat.source[l] != b:
                continue
            d = cat.target[l]
            for z in cat.objects:
                for c in hom(cat, q, z):
                    if c not in p.cofibrations:
                        continue
                    if comp(cat, c, q0) not in acyclic:
                        continue
                    for e in hom(cat, z, d):
                        if comp(cat, e, c) == comp(cat, l, nabla):
                            yield (is_id(cat, l), q, q0, q1, nabla, z, c, l, e)


def has_weak_cylinder(p, i, acyclic):
    return any(True for _ in cylinder_witnesses(p, i, acyclic))


def has_strong_cylinder(p, i, acyclic):
    return any(w[0] for w in cylinder_witnesses(p, i, acyclic))


class _OpCat:
    """Minimal opposite-category view for reusing the cylinder search."""

    def __init__(self, cat):
        self.objects = list(cat.objects)
        self.morphisms = list(cat.morphisms)
        self.identities = dict(cat.identities)
        self.source, self.target, self.compose_table = opposite_tables(cat)


class _OpPremodel:
    def __init__(self, p):
        self.cat = _OpCat(p.cat)
        self.cofibrations = frozenset(p.fibrations)
        self.anodyne_fibrations = frozenset(p.anodyne_cofibrations)
        self.anodyne_cofibrations = frozenset(p.anodyne_fibrations)
        self.fibrations = frozenset(p.cofibrations)


def opposite_premodel(p):
    return _OpPremodel(p)


def cylinder_axiom(p):
    """Strong cylinders on every cofibration from cofibrant to fibrant."""
    acyclic = acyclic_cofibrations(p)
    cofibrant, fibrant = cofibrant_set(p), fibrant_set(p)
    return all(
        has_strong_cylinder(p, i, acyclic)
        for i in p.cofibrations
        if p.cat.source[i] in cofibrant and p.cat.target[i] in fibrant
    )


def path_axiom(p):
    return cylinder_axiom(opposite_premodel(p))


def weak_model(p):
    return cylinder_axiom(p) and path_axiom(p)


# ---- saturation and the semi-model recognizers ------------------------------

def saturation_flags(p):
    """Whether the anodyne classes hold the acyclic ones: all of them, or those
    with cofibrant source (fibrant target) for the core flags."""
    acyclic_cof, acyclic_fib = acyclic_cofibrations(p), acyclic_fibrations(p)
    cofibrant, fibrant = cofibrant_set(p), fibrant_set(p)
    left = p.anodyne_cofibrations == acyclic_cof
    right = p.anodyne_fibrations == acyclic_fib
    return {
        "left_saturated": left,
        "core_left_saturated": all(
            f in p.anodyne_cofibrations for f in acyclic_cof if p.cat.source[f] in cofibrant
        ),
        "right_saturated": right,
        "core_right_saturated": all(
            g in p.anodyne_fibrations for g in acyclic_fib if p.cat.target[g] in fibrant
        ),
        "bi_saturated": left and right,
    }


def semi_flags(p):
    """(left, right): the Fresse and Spitzweck semi-model flags and their parts.

    Left Fresse: a weak model with a strong cylinder on 0 -> x for every
    cofibrant x that is core left saturated; Spitzweck adds right saturation.
    The right flags mirror them with strong path objects on x -> 1, searched
    as strong cylinders of the opposite structure.
    """
    cat, dual = p.cat, opposite_premodel(p)
    zero, one = initial_objects(cat)[0], terminal_objects(cat)[0]
    acyclic, dual_acyclic = acyclic_cofibrations(p), acyclic_cofibrations(dual)
    weak, flags = weak_model(p), saturation_flags(p)
    cylinders = all(
        has_strong_cylinder(p, hom(cat, zero, x)[0], acyclic) for x in cofibrant_set(p)
    )
    paths = all(
        has_strong_cylinder(dual, hom(cat, x, one)[0], dual_acyclic) for x in fibrant_set(p)
    )
    left_fresse = weak and cylinders and flags["core_left_saturated"]
    right_fresse = weak and paths and flags["core_right_saturated"]
    left = {
        "weak_model": weak,
        "strong_cylinders": cylinders,
        "core_left_saturated": flags["core_left_saturated"],
        "right_saturated": flags["right_saturated"],
        "fresse": left_fresse,
        "spitzweck": left_fresse and flags["right_saturated"],
    }
    right = {
        "weak_model": weak,
        "strong_paths": paths,
        "core_right_saturated": flags["core_right_saturated"],
        "left_saturated": flags["left_saturated"],
        "fresse": right_fresse,
        "spitzweck": right_fresse and flags["left_saturated"],
    }
    return left, right


# ---- model structures, by the Joyal–Tierney criterion -----------------------

def is_model_structure(p):
    """With W = {r∘l : l ∈ AC, r ∈ AF}, the premodel p is a model structure
    exactly when W has 2-out-of-3, C ∩ W = AC and F ∩ W = AF."""
    cat = p.cat
    weak = {
        comp(cat, r, l)
        for l in p.anodyne_cofibrations
        for r in p.anodyne_fibrations
        if cat.target[l] == cat.source[r]
    }
    two_out_of_three = all(
        (f in weak) + (g in weak) + (comp(cat, g, f) in weak) != 2
        for f in cat.morphisms
        for g in cat.morphisms
        if cat.target[f] == cat.source[g]
    )
    return (
        two_out_of_three
        and p.cofibrations & weak == p.anodyne_cofibrations
        and p.fibrations & weak == p.anodyne_fibrations
    )


# ---- homotopy and equivalences ----------------------------------------------

def homotopies(p, f, g):
    """Homotopy verdict per cylinder witness on the common source.

    Returns the list of per-witness booleans (empty when no witness
    exists); the relation is well-defined exactly when they all agree.
    """
    cat = p.cat
    x = cat.source[f]
    zero = initial_objects(cat)[0]
    i = hom(cat, zero, x)[0]
    acyclic = acyclic_cofibrations(p)
    verdicts = []
    for _, q, q0, q1, nabla, z, c, l, e in cylinder_witnesses(p, i, acyclic):
        found = any(
            comp(cat, h, comp(cat, c, q0)) == f and comp(cat, h, comp(cat, c, q1)) == g
            for h in hom(cat, z, cat.target[f])
        )
        verdicts.append(found)
    return verdicts


def equivalence_verdicts(p, f):
    """is_equivalence over every replacement and factorization choice."""
    cat = p.cat
    zero = initial_objects(cat)[0]
    one = terminal_objects(cat)[0]
    x, y = cat.source[f], cat.target[f]
    acyclic_cof = acyclic_cofibrations(p)
    acyclic_fib = acyclic_fibrations(p)
    cofibrant, fibrant = cofibrant_set(p), fibrant_set(p)

    sources = [
        (cat.source[r], r)
        for r in cat.morphisms
        if cat.target[r] == x and r in acyclic_fib and cat.source[r] in cofibrant
    ]
    targets = [
        (cat.target[j], j)
        for j in cat.morphisms
        if cat.source[j] == y and j in acyclic_cof and cat.target[j] in fibrant
    ]
    verdicts = []
    for (_, r), (_, j) in product(sources, targets):
        composite = comp(cat, j, comp(cat, f, r))
        for l, _right in factorizations(cat, p.cofibrations, p.anodyne_fibrations, composite):
            verdicts.append(l in acyclic_cof)
    return verdicts


# ---- WL and WR, over every replacement choice --------------------------------

def _compared(p, replacements, covering):
    """The arrows f whose comparison between replacements is an equivalence.

    Every replacement of each endpoint of f and every arrow d between them
    that covers f is judged by ``equivalence_verdicts``; all of these choices
    must give one verdict.
    """
    cat = p.cat
    judged = {}  # d -> the set of its equivalence verdicts
    out = []
    for f in cat.morphisms:
        verdicts = set()
        for rx in replacements(cat.source[f]):
            for ry in replacements(cat.target[f]):
                for d in covering(f, rx, ry):
                    if d not in judged:
                        judged[d] = set(equivalence_verdicts(p, d))
                    verdicts |= judged[d]
        assert len(verdicts) == 1, (f, verdicts)
        if True in verdicts:
            out.append(f)
    return frozenset(out)


def wl(p):
    """WL over every cofibrant replacement r: x' -> x, the second half of a
    (C, AF) factorization of 0 -> x, and every d: x' -> y' with r_y∘d = f∘r_x."""
    cat = p.cat
    zero = initial_objects(cat)[0]

    def replacements(x):
        return [r for _, r in factorizations(cat, p.cofibrations, p.anodyne_fibrations, hom(cat, zero, x)[0])]

    def covering(f, rx, ry):
        top = comp(cat, f, rx)
        return [d for d in hom(cat, cat.source[rx], cat.source[ry]) if comp(cat, ry, d) == top]

    return _compared(p, replacements, covering)


def wr(p):
    """WR over every fibrant replacement j: x -> x', the first half of an
    (AC, F) factorization of x -> 1, and every d: x' -> y' with d∘j_x = j_y∘f."""
    cat = p.cat
    one = terminal_objects(cat)[0]

    def replacements(x):
        return [j for j, _ in factorizations(cat, p.anodyne_cofibrations, p.fibrations, hom(cat, x, one)[0])]

    def covering(f, jx, jy):
        bottom = comp(cat, jy, f)
        return [d for d in hom(cat, cat.target[jx], cat.target[jy]) if comp(cat, d, jx) == bottom]

    return _compared(p, replacements, covering)
