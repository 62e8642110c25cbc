"""Lifting problems, complements and weak factorization systems.

All searches are exhaustive over the composition tables.  The lifting
relation depends only on the tables, never on any marked classes, so each
category searches it once, for all pairs, and keeps it as integer bitmask
rows and columns, ``FiniteCategory.lifting_rows``.  The search walks only
composable arrows, through the out-arrow index (``_lifting_rows`` states its
criterion, and decides the squares with at most one diagonal without building
a set); the opposite category runs its own.  A lifting query is one bit
test; a whole-class complement ANDs the rows (or columns) of the class,
looking each id up only there, and decodes each resulting mask to a frozenset
of morphism ids once per category (``_classes``).  A frozenset class is
answered once per category and side: its complement table,
``FiniteCategory._complements``, keeps the answer, so llp(rlp S) costs one AND
loop and one table hit.  Any other iterable runs the AND loop.  Factorization
searches walk the category's index ``FiniteCategory.factor_pairs``.

Masks stay inside this module.  Every other module hands it classes as
iterables of morphism ids and reads frozensets back, and no other module reads
``lifting_rows`` or ``_classes``; ``fincat`` only builds the rows (through
``_lifting_rows``) and declares the tables.

A weak factorization system is the pair (left, right) itself:
``verify_wfs(cat, left, right)`` checks one and ``generate_wfs`` returns one.
Its own facts live in its category's per-WFS table, ``_system``: the
``verify_wfs`` verdict, read off the two complements, for a pair (C, AF), its
first factorizations (the cofibrant replacements are read off them) and the
arrows grouped by the arrow between replacements covering them; and the
complements the acyclic classes are cut from.  Every structure on the pair
shares them.
"""

from types import SimpleNamespace

from .errors import ConstructionError, InputError
from .fincat import Verdict, pushout


def _require_morphisms(cat, ms):
    for m in ms:
        if not cat.has_morphism(m):
            raise _unknown_morphism(cat, m)


def _unknown_morphism(cat, m):
    return InputError("unknown morphism %r in %s" % (m, cat.name))


def has_lift(cat, f, g, u, v):
    """Diagonal filler of one commuting square, or None.

    Returns the first diagonal d: tgt f -> src g (in morphism order) with
    d∘f = u and g∘d = v.  Raises InputError when the square does not commute.
    """
    _require_morphisms(cat, (f, g, u, v))
    if cat.compose(g, u) != cat.compose(v, f):
        raise InputError("square (%s, %s, %s, %s) does not commute" % (u, f, g, v))
    for d in cat.hom(cat.target[f], cat.source[g]):
        if cat.compose_table[(d, f)] == u and cat.compose_table[(g, d)] == v:
            return d
    return None


def _lifting_rows(cat):
    """The exhaustive search behind ``FiniteCategory.lifting_rows``.

    For f: A -> B, ``over[w]`` holds the v leaving B with v∘f = w.  The squares
    from f to g with top u: A -> src g are the (u, v) with v in ``over[g∘u]``,
    and their diagonals are the d in ``over[u]``; since g∘d lies in ``over[g∘u]``
    for each such d, every one of these squares lifts exactly when
    ``over[g∘u] == {g∘d : d in over[u]}``.  A pair with no top u lifts vacuously.
    Without a diagonal that asks that ``over[g∘u]`` be empty, with one, d, that
    it be the single arrow g∘d; only two or more diagonals build the set.
    """
    table, index = cat.compose_table, cat._morphism_index
    full = (1 << len(cat.morphisms)) - 1
    rows = {}
    cols = dict.fromkeys(cat.morphisms, full)
    for i, f in enumerate(cat.morphisms):
        over = {}
        for v in cat.arrows_from(cat.target[f]):
            over.setdefault(table[(v, f)], set()).add(v)
        row = full
        for u in cat.arrows_from(cat.source[f]):
            diagonals = over.get(u, ())
            d = next(iter(diagonals)) if len(diagonals) == 1 else None
            for g in cat.arrows_from(cat.target[u]):
                bit = 1 << index[g]
                if row & bit:
                    target = over.get(table[(g, u)], ())
                    if d is not None:
                        lifts = len(target) == 1 and table[(g, d)] in target
                    else:
                        lifts = target == {table[(g, e)] for e in diagonals} if diagonals else not target
                    if not lifts:
                        row ^= bit
                        cols[g] ^= 1 << i
        rows[f] = row
    return rows, cols


def llp(cat, f, g):
    """True when every commuting square from f to g has a diagonal."""
    rows = cat.lifting_rows[0]
    try:
        return bool(rows[f] >> cat.morphism_index(g) & 1)
    except KeyError as err:
        raise _unknown_morphism(cat, err.args[0]) from None


def _meet(cat, side, ms):
    """The morphisms whose bit is set in side ``side`` of ``lifting_rows`` for
    every member of ``ms``; an unknown id fails the mask lookup.  Each resulting
    mask is decoded once per category, in ``_classes``, and a frozenset ``ms``
    is answered once, from ``_complements``."""
    frozen = isinstance(ms, frozenset)
    if frozen:
        members = cat._complements[side].get(ms)
        if members is not None:
            return members
    masks = cat.lifting_rows[side]
    meet = (1 << len(cat.morphisms)) - 1
    try:
        for m in ms:
            meet &= masks[m]
    except KeyError as err:
        raise _unknown_morphism(cat, err.args[0]) from None
    members = cat._classes.get(meet)
    if members is None:
        members = cat._classes[meet] = frozenset(m for i, m in enumerate(cat.morphisms) if meet >> i & 1)
    if frozen:
        cat._complements[side][ms] = members
    return members


def complement_llp(cat, right):
    """Everything with the left lifting property against all of ``right``."""
    return _meet(cat, 1, right)


def complement_rlp(cat, left):
    """Everything with the right lifting property against all of ``left``."""
    return _meet(cat, 0, left)


def retract_closure(cat, members):
    """Close a class of morphisms under retracts (in the arrow category).

    g: A -> B is a retract of s: C -> D when there are i1: A -> C,
    r1: C -> A, i2: B -> D, r2: D -> B with r1∘i1 = id, r2∘i2 = id,
    i2∘g = s∘i1 and g∘r1 = r2∘s.
    """
    members = set(members)
    _require_morphisms(cat, members)
    out = set(members)
    for g in cat.morphisms:
        if g in out:
            continue
        a, b = cat.source[g], cat.target[g]
        if any(
            _is_retract_of(cat, g, a, b, s)
            for s in members
        ):
            out.add(g)
    return frozenset(out)


def _is_retract_of(cat, g, a, b, s):
    c, d = cat.source[s], cat.target[s]
    for i1 in cat.hom(a, c):
        si1 = cat.compose_table[(s, i1)]
        for r1 in cat.hom(c, a):
            if cat.compose_table[(r1, i1)] != cat.identity(a):
                continue
            gr1 = cat.compose_table[(g, r1)]
            for i2 in cat.hom(b, d):
                if cat.compose_table[(i2, g)] != si1:
                    continue
                for r2 in cat.hom(d, b):
                    if cat.compose_table[(r2, i2)] != cat.identity(b):
                        continue
                    if gr1 == cat.compose_table[(r2, s)]:
                        return True
    return False


def cell_closure(cat, generators):
    """Least class containing the generators and all identities, closed
    under pushout, composition and retract.

    Pushouts that do not exist simply contribute nothing.  Terminates because
    the morphism set is finite and the class only grows.
    """
    _require_morphisms(cat, generators)
    members = {cat.identity(x) for x in cat.objects}
    members.update(generators)
    while True:
        before = len(members)
        for f in list(members):
            for g in cat.arrows_from(cat.source[f]):
                cone = pushout(cat, f, g)
                if cone is not None:
                    members.add(cone.legs[1])
        for f in list(members):
            for g in list(members):
                if cat.target[f] == cat.source[g]:
                    members.add(cat.compose_table[(g, f)])
        members = set(retract_closure(cat, members))
        if len(members) == before:
            return frozenset(members)


def factorizations(cat, left, right, h):
    """Every factorization h = r ∘ l with l ∈ left, r ∈ right, as (l, r).

    A walk of the category's index: the middle object in object order, then
    l and r in morphism order, so the sequence is deterministic.
    """
    if not cat.has_morphism(h):
        raise _unknown_morphism(cat, h)
    return ((l, r) for l, r in cat.factor_pairs[h] if l in left and r in right)


def factor(cat, left, right, h):
    """First factorization h = r ∘ l with l ∈ left, r ∈ right, or None."""
    return next(factorizations(cat, left, right, h), None)


def require_factorizations(cat, left, right, message):
    """Raise ConstructionError on the first morphism with no factorization.

    ``message`` is a format string with one ``%s`` for that morphism, which
    is also the error's witness.
    """
    for h in cat.morphisms:
        if factor(cat, left, right, h) is None:
            raise ConstructionError(message % h, witness=h)


def _system(cat, left, right):
    """The facts the pair (left, right) of frozensets determines on ``cat``, kept
    there: its ``verify_wfs`` verdict once found and, for a pair (C, AF), each
    first factorization once found (a cofibrant replacement is read off the
    one of the arrow from the initial object) and the arrows grouped by the
    arrow between replacements that covers them (``classify._induced_groups``);
    ``gates`` keeps, per side, the complement ``premodel``'s acyclic classes are
    cut from."""
    facts = cat._systems.get((left, right))
    if facts is None:
        facts = cat._systems[left, right] = SimpleNamespace(
            verdict=None, factors={}, induced=None, gates=[None, None]
        )
    return facts


def verify_wfs(cat, left, right):
    """Check the three defining conditions on the pair: a Verdict whose
    violations are the counterexamples.

    1. every (left, right) pair lifts;
    2. left  = complement_llp(right);
    3. right = complement_rlp(left);
    plus: every morphism factors as right ∘ left.

    The verdict depends on the two classes alone, so a category finds it once
    per pair and every structure built on that pair shares it.
    """
    left, right = frozenset(left), frozenset(right)
    facts = _system(cat, left, right)
    if facts.verdict is not None:
        return facts.verdict
    failures = []
    expected_right = complement_rlp(cat, left)
    expected_left = complement_llp(cat, right)

    # a left member lifts against all of right exactly when it is in llp(right)
    for f in cat.sort_morphisms(left - expected_left):
        failures.extend(
            "no lift of %s against %s" % (f, g)
            for g in cat.morphisms
            if g in right and not llp(cat, f, g)
        )

    for side, members, expected in (("left", left, expected_left), ("right", right, expected_right)):
        extra = cat.sort_morphisms(members - expected)
        missing = cat.sort_morphisms(expected - members)
        if extra:
            failures.append("%s class has non-lifting members: %s" % (side, ", ".join(extra)))
        if missing:
            failures.append("%s class misses lifting members: %s" % (side, ", ".join(missing)))

    unfactored = (h for h in cat.morphisms if factor(cat, left, right, h) is None)
    failures.extend("no factorization of %s" % h for h in unfactored)
    facts.verdict = Verdict.from_violations(failures)
    return facts.verdict


def generate_wfs(cat, generators):
    """The pair (llp(rlp(I)), rlp(I)) generated by a set of morphisms.

    The two complements satisfy the lifting and complement conditions by
    construction; what can genuinely fail at finite scale is factorization,
    in which case a ConstructionError carries the unfactorizable morphism.
    """
    right = complement_rlp(cat, generators)
    left = complement_llp(cat, right)
    require_factorizations(cat, left, right, "no factorization of %s")
    report = verify_wfs(cat, left, right)
    if not report.ok:
        # Unreachable for the generated classes, kept as a loud invariant.
        raise ConstructionError("generated system fails verification: %s" % (report.violations,))
    return left, right
