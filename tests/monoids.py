"""Small non-thin categories for the test suite: bounded monoids, every
monoid of a small order bounded, and the finite sets of size at most n.

A bounded monoid has one object x whose endomorphisms form a monoid M, plus
an initial object 0 and a terminal object 1 adjoined.  Its arrows are the
three identities, the non-identity elements of M, z: 0 -> x, t: x -> 1 and
zt: 0 -> 1, so it has |M| + 5 of them.  Squares in it can commute in several
ways and have several diagonals, unlike in a poset.
"""

import itertools

from mclab.fincat import FiniteCategory


def bounded_monoid(name, elements, product):
    """``elements`` are the non-identity endomorphisms of x; ``product`` maps
    each pair (g, f) of them to g∘f, which may be ``id_x``."""
    identities = {"0": "id_0", "x": "id_x", "1": "id_1"}
    morphisms = [("id_0", "0", "0"), ("id_x", "x", "x"), ("id_1", "1", "1")]
    morphisms += [(m, "x", "x") for m in elements]
    morphisms += [("z", "0", "x"), ("t", "x", "1"), ("zt", "0", "1")]
    endo = ["id_x", *elements]
    compose = {("t", "z"): "zt"}
    for g in endo:
        compose[(g, "z")] = "z"
        compose[("t", g)] = "t"
        for f in endo:
            compose[(g, f)] = f if g == "id_x" else g if f == "id_x" else product[(g, f)]
    for m, s, t in morphisms:
        compose[(identities[t], m)] = m
        compose[(m, identities[s])] = m
    return FiniteCategory(name, ["0", "x", "1"], morphisms, identities, compose)


def bounded_monoids():
    """Z/2, Z/3, {1, e} with e idempotent and {1, p, q} left-zero, bounded."""
    return [
        bounded_monoid("Z2", ["s"], {("s", "s"): "id_x"}),
        bounded_monoid(
            "Z3",
            ["r", "rr"],
            {("r", "r"): "rr", ("r", "rr"): "id_x", ("rr", "r"): "id_x", ("rr", "rr"): "r"},
        ),
        bounded_monoid("idempotent", ["e"], {("e", "e"): "e"}),
        bounded_monoid("left_zero", ["p", "q"], {(g, f): g for g in "pq" for f in "pq"}),
    ]


def monoids(n):
    """Every monoid of order n up to isomorphism, bounded, named "M<n>_<k>".

    A brute force over the multiplication tables on {1, m1, ..., m(n-1)} with
    1 the identity: it keeps the associative ones that no relabelling of m1,
    ..., m(n-1) turns into a table earlier in enumeration order, so one per
    isomorphism class.  Orders 1 to 4 give 1, 2, 7 and 35 (OEIS A058129)."""
    rest = range(1, n)
    pairs = list(itertools.product(rest, repeat=2))
    relabellings = [dict(zip(range(n), (0, *perm))) for perm in itertools.permutations(rest)]
    name = lambda k: "m%d" % k if k else "id_x"
    found = []
    for values in itertools.product(range(n), repeat=len(pairs)):
        table = dict(zip(pairs, values))
        mul = lambda g, f: f if g == 0 else g if f == 0 else table[(g, f)]
        if any(mul(mul(h, g), f) != mul(h, mul(g, f)) for h in rest for g in rest for f in rest):
            continue
        moved = ({(s[g], s[f]): s[v] for (g, f), v in table.items()} for s in relabellings)
        if all(values <= tuple(t[gf] for gf in pairs) for t in moved):
            product = {(name(g), name(f)): name(v) for (g, f), v in table.items()}
            found.append(bounded_monoid("M%d_%d" % (n, len(found) + 1), [name(k) for k in rest], product))
    return found


def finite_sets(n):
    """The sets {0, ..., k-1} for k ≤ n and every map between them; the map
    a -> b sending x to v_x is named "a>b:v_0...v_{a-1}"."""
    arrows = {
        "%d>%d:%s" % (a, b, "".join(map(str, v))): (a, b, v)
        for a in range(n + 1)
        for b in range(n + 1)
        for v in itertools.product(range(b), repeat=a)
    }
    named = {data: m for m, data in arrows.items()}
    compose = {
        (g, f): named[(a, c, tuple(w[x] for x in v))]
        for f, (a, b, v) in arrows.items()
        for g, (b2, c, w) in arrows.items()
        if b2 == b
    }
    return FiniteCategory(
        "FinSet%d" % n,
        [str(a) for a in range(n + 1)],
        [(m, str(a), str(b)) for m, (a, b, _) in arrows.items()],
        {str(a): named[(a, a, tuple(range(a)))] for a in range(n + 1)},
        compose,
    )
