"""Finite categories presented by explicit composition tables.

A category here is a finite list of objects, a finite list of morphisms with
source/target maps, a chosen identity per object, and a composition table
that is total on composable pairs.  Everything downstream — lifting problems,
factorization systems, cylinders — runs by exhaustive search over these
tables, so determinism comes for free from the enumeration order: whenever a
construction has to pick a representative (a colimit apex, a diagonal, a
factorization) it picks the first candidate in enumeration order.

Conventions
-----------
* Objects and morphisms are referred to by their string ids everywhere; every
  module's unknown-id error comes from ``_unknown_morphism`` or ``_require_objects``.
* ``compose(g, f)`` is "g after f" and requires target(f) == source(g).
* ``cat.op`` keeps every id and reverses source/target; ``cat.op.op is cat``,
  the same category, not a copy.
* A category computes each derived fact once and keeps it: its opposite, its
  endpoints and the arrows to and from them, its validation verdict, every
  colimit asked of it, the fold of each arrow (its pushout along itself, with
  the codiagonal; an epimorphism's is read off its hom-sets, without a colimit
  search), its factorization index, its lifting rows, the
  complements decoded from them and, in ``_complements``, the complement of
  each frozenset class asked for, per side.
* The factorization index ``factor_pairs`` lists each arrow's factorizations
  in scan order, and every factorization search walks it.
* Its per-WFS table ``_systems`` keeps what one (left, right) pair decides,
  shared by every structure on that pair (see ``lifting._system``).
* The arrows leaving each object are indexed once, in enumeration order;
  validation, functor checks and the lifting-row and cylinder searches walk
  composable arrows through this index instead of scanning every pair.
"""

import itertools
import weakref
from typing import NamedTuple

from .errors import ConstructionError, InputError, VerificationError


class Verdict(NamedTuple):
    """Outcome of a structural check: ok, or a list of violations."""

    ok: bool
    violations: tuple[str, ...] = ()

    @staticmethod
    def from_violations(violations):
        violations = tuple(violations)
        return Verdict(not violations, violations)


class _fact:
    """``functools.cached_property`` without the lock it takes on each first
    read: computed on first use and kept as an instance attribute, which later
    reads find before this descriptor."""

    def __init__(self, build):
        self.build, self.__doc__ = build, build.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = self.build(obj)
        object.__setattr__(obj, self.name, value)
        return value


def involution(build):
    """Like ``_fact``, for an opposite kept in ``_opposite`` that refers
    back to its base weakly, in ``_base`` (so no reference cycle): its own opposite
    is that base while the base lives; an orphan builds a new opposite once."""
    def get(obj):
        base = obj._base and obj._base()
        if base is None and obj._opposite is None:
            other = build(obj)
            object.__setattr__(other, "_base", weakref.ref(obj))
            object.__setattr__(obj, "_opposite", other)
        return obj._opposite if base is None else base

    return property(get, doc=build.__doc__)


def _closure(seeds, step):
    """The seeds and everything reachable from them, where ``step(x)`` lists
    the elements one step from x.  A worklist, last found first: ``step`` runs
    once per seed as given (a repeated seed again) and once per new element."""
    frontier = list(seeds)
    members = set(frontier)
    while frontier:
        for y in step(frontier.pop()):
            if y not in members:
                members.add(y)
                frontier.append(y)
    return frozenset(members)


def _unknown_morphism(cat, m):
    return InputError("unknown morphism %r in %s" % (m, cat.name))


def _require_morphisms(cat, ms):
    for m in ms:
        if not cat.has_morphism(m):
            raise _unknown_morphism(cat, m)


def _require_objects(cat, xs):
    for x in xs:
        if not cat.has_object(x):
            raise InputError("unknown object %r in %s" % (x, cat.name))


class FiniteCategory:
    """A finite category given by explicit tables.

    Parameters
    ----------
    name:       label used in reports.
    objects:    iterable of object ids, in enumeration order.
    morphisms:  iterable of ``(id, source, target)`` triples, in order.
    identities: mapping object id -> morphism id of its identity.
    compose:    mapping ``(g, f) -> g∘f`` for every composable pair.

    The constructor tolerates malformed data (``validate_category`` is the
    judge of well-formedness); operations assume a validated category.
    """

    def __init__(self, name, objects, morphisms, identities, compose):
        self.name = name
        self.objects = list(objects)
        self.morphisms = [m for m, _, _ in morphisms]
        self.source = {m: s for m, s, _ in morphisms}
        self.target = {m: t for m, _, t in morphisms}
        self.identities = dict(identities)
        self.compose_table = dict(compose)

        self._object_index = {x: i for i, x in enumerate(self.objects)}
        self._morphism_index = {m: i for i, m in enumerate(self.morphisms)}
        self._identity_ids = set(self.identities.values())
        self._hom = {}
        self._out = {}  # object -> arrows leaving it, in morphism order
        for m in self.morphisms:
            self._hom.setdefault((self.source[m], self.target[m]), []).append(m)
            self._out.setdefault(self.source[m], []).append(m)
        self._colimits = {}  # (shape kind, legs) -> Cone or None, filled by ``colimit``
        self._folds = {}  # arrow -> (pushout of it along itself, codiagonal) or None, by ``fold``
        self._classes = {}  # bitmask -> frozenset of ids, decoded by ``lifting._meet``
        self._complements = ({}, {})  # per ``lifting_rows`` side: frozenset -> its complement
        self._systems = {}  # (left, right) -> their facts, see ``lifting._system``
        self._opposite = self._base = None  # kept by ``op``, see ``involution``

    # -- basic queries ----------------------------------------------------

    def hom(self, x, y):
        """Morphisms x -> y, in enumeration order."""
        return self._hom.get((x, y), [])

    def compose(self, g, f):
        _require_morphisms(self, (g, f))
        if self.target[f] != self.source[g]:
            raise InputError(
                "cannot compose %s after %s: target/source mismatch" % (g, f)
            )
        return self.compose_table[(g, f)]

    def identity(self, x):
        return self.identities[x]

    def is_identity(self, m):
        return m in self._identity_ids

    def has_object(self, x):
        return x in self._object_index

    def has_morphism(self, m):
        return m in self._morphism_index

    def morphism_index(self, m):
        return self._morphism_index[m]

    def arrows_from(self, x):
        """Morphisms leaving x, in enumeration order."""
        return self._out.get(x, [])

    def sort_morphisms(self, ms):
        return sorted(ms, key=self._morphism_index.__getitem__)

    # -- derived facts, computed once on first use; never mutate the tables

    @involution
    def op(self):
        """The opposite category, built once; ``op.op is self``."""
        morphisms = [(m, self.target[m], self.source[m]) for m in self.morphisms]
        compose = {(f, g): h for (g, f), h in self.compose_table.items()}
        return FiniteCategory(self.name, self.objects, morphisms, self.identities, compose)

    @_fact
    def initial(self):
        """The first object with exactly one arrow to every object, or None;
        read off the hom-sets, so no endpoint query builds a category."""
        return next(
            (x for x in self.objects if all(len(self.hom(x, y)) == 1 for y in self.objects)),
            None,
        )

    @_fact
    def terminal(self):
        """The first object with exactly one arrow from every object, or None."""
        return next(
            (x for x in self.objects if all(len(self.hom(y, x)) == 1 for y in self.objects)),
            None,
        )

    @_fact
    def from_initial(self):
        """``{y: the arrow initial -> y}``, or None without an initial object."""
        x = self.initial
        return None if x is None else {y: self.hom(x, y)[0] for y in self.objects}

    @_fact
    def to_terminal(self):
        """``{y: the arrow y -> terminal}``, or None without a terminal object."""
        x = self.terminal
        return None if x is None else {y: self.hom(y, x)[0] for y in self.objects}

    @_fact
    def verdict(self):
        """What ``validate_category`` says about the tables."""
        return _validate_tables(self)

    @_fact
    def factor_pairs(self):
        """``{h: [(l, r), ...]}``: every composable pair with r∘l = h, middle
        object in object order, then l and r in morphism order."""
        into = {}
        for m in self.morphisms:
            into.setdefault(self.target[m], []).append(m)
        pairs = {h: [] for h in self.morphisms}
        for z in self.objects:
            for l in into.get(z, ()):
                for r in self.arrows_from(z):
                    pairs[self.compose_table[(r, l)]].append((l, r))
        return pairs

    @_fact
    def lifting_rows(self):
        """``(rows, cols)``: bit j of ``rows[f]`` and bit i of ``cols[g]``, for f and g
        at morphism indices i and j, say each square from f to g has a diagonal."""
        from .lifting import _lifting_rows  # local import to keep module load order simple

        return _lifting_rows(self)

    def __eq__(self, other):
        if not isinstance(other, FiniteCategory):
            return NotImplemented
        return (
            self.name == other.name
            and self.objects == other.objects
            and self.morphisms == other.morphisms
            and self.source == other.source
            and self.target == other.target
            and self.identities == other.identities
            and self.compose_table == other.compose_table
        )

    def __repr__(self):
        return "FiniteCategory(%r, %d objects, %d morphisms)" % (
            self.name,
            len(self.objects),
            len(self.morphisms),
        )


def validate_category(cat):
    """Check the category axioms on the raw tables.

    Reports every violation in a Verdict computed once per category.
    """
    return cat.verdict


def _validate_tables(cat):
    v = []
    seen = set()
    for x in cat.objects:
        if x in seen:
            v.append("duplicate object id %r" % x)
        seen.add(x)
    seen = set()
    for m in cat.morphisms:
        if m in seen:
            v.append("duplicate morphism id %r" % m)
        seen.add(m)

    for m in cat.morphisms:
        if cat.source.get(m) not in cat._object_index:
            v.append("morphism %r has unknown source %r" % (m, cat.source.get(m)))
        if cat.target.get(m) not in cat._object_index:
            v.append("morphism %r has unknown target %r" % (m, cat.target.get(m)))

    for x in cat.objects:
        i = cat.identities.get(x)
        if i is None:
            v.append("object %r has no identity" % x)
        elif i not in cat._morphism_index:
            v.append("identity %r of %r is not a morphism" % (i, x))
        elif not (cat.source[i] == x and cat.target[i] == x):
            v.append("identity %r of %r is not an endomorphism of %r" % (i, x, x))
    for x in cat.identities:
        if x not in cat._object_index:
            v.append("identity table mentions unknown object %r" % x)

    if v:
        # With dangling references the composition checks below would only
        # pile up noise; report the structural problems first.
        return Verdict.from_violations(v)

    for f in cat.morphisms:
        for g in cat.arrows_from(cat.target[f]):
            if (g, f) not in cat.compose_table:
                v.append("missing composite %s ∘ %s" % (g, f))
    for pair, h in cat.compose_table.items():
        g, f = pair
        if not (cat.has_morphism(f) and cat.has_morphism(g) and cat.target[f] == cat.source[g]):
            v.append("composition table has non-composable entry %s ∘ %s" % (g, f))
            continue
        if h not in cat._morphism_index:
            v.append("composite %s ∘ %s is unknown morphism %r" % (g, f, h))
        elif cat.source[h] != cat.source[f] or cat.target[h] != cat.target[g]:
            v.append("composite %s ∘ %s = %s has wrong endpoints" % (g, f, h))
    if v:
        return Verdict.from_violations(v)

    for f in cat.morphisms:
        if cat.compose_table[(cat.identity(cat.target[f]), f)] != f:
            v.append("left identity law fails at %s" % f)
        if cat.compose_table[(f, cat.identity(cat.source[f]))] != f:
            v.append("right identity law fails at %s" % f)

    for f in cat.morphisms:
        for g in cat.arrows_from(cat.target[f]):
            gf = cat.compose_table[(g, f)]
            for h in cat.arrows_from(cat.target[g]):
                left = cat.compose_table[(cat.compose_table[(h, g)], f)]
                right = cat.compose_table[(h, gf)]
                if left != right:
                    v.append(
                        "associativity fails: (%s∘%s)∘%s = %s but %s∘(%s∘%s) = %s"
                        % (h, g, f, left, h, g, f, right)
                    )
    return Verdict.from_violations(v)


def isomorphisms(cat):
    """All isos: m with a two-sided inverse."""
    out = set()
    for m in cat.morphisms:
        x, y = cat.source[m], cat.target[m]
        for n in cat.hom(y, x):
            if (
                cat.compose_table[(n, m)] == cat.identity(x)
                and cat.compose_table[(m, n)] == cat.identity(y)
            ):
                out.add(m)
                break
    return frozenset(out)


# -- diagram shapes and colimits ------------------------------------------


class DiagramShape(NamedTuple):
    """A tiny diagram named by its morphisms.

    kind ∈ {span, pair}: a ``span`` (what ``pushout`` builds) shares a source;
    a ``pair`` (what ``coproduct`` builds) is discrete, its legs identities.
    """

    kind: str
    legs: tuple[str, ...] = ()


class Cone(NamedTuple):
    """Apex plus structure morphisms foot -> apex, one per foot of the diagram."""

    apex: str
    legs: tuple[str, ...] = ()


def _shape_feet(cat, shape):
    """The checked shape's feet (where cocone legs attach) and cocone equations."""
    if shape.kind not in ("span", "pair"):
        raise InputError("unknown shape kind %r" % shape.kind)
    _require_morphisms(cat, shape.legs)
    if len(shape.legs) != 2:
        raise InputError("%s shape needs exactly two legs" % shape.kind)
    f, g = shape.legs
    if shape.kind == "pair":
        for leg in shape.legs:
            if not cat.is_identity(leg):
                raise InputError(
                    "pair shape designates objects by identity legs; %r is not an identity" % leg
                )
        return (cat.source[f], cat.source[g]), ()
    if cat.source[f] != cat.source[g]:
        raise InputError("span legs %s, %s must share their source" % (f, g))
    return (cat.target[f], cat.target[g]), ((0, f, 1, g),)


def _is_cocone(cat, legs, equations):
    for i, f, j, g in equations:
        if cat.compose_table[(legs[i], f)] != cat.compose_table[(legs[j], g)]:
            return False
    return True


def _cocones(cat, feet, equations, apex):
    for legs in itertools.product(*[cat.hom(foot, apex) for foot in feet]):
        if _is_cocone(cat, legs, equations):
            yield legs


def colimit(cat, shape):
    """First universal cocone in enumeration order, or None if absent.

    Universality is checked literally: against *every* competing cocone
    there must be exactly one mediating morphism.  The shape is checked on
    every call; the search runs once per shape and category.
    """
    feet, equations = _shape_feet(cat, shape)
    key = (shape.kind, tuple(shape.legs))
    if key not in cat._colimits:
        cat._colimits[key] = _search_colimit(cat, feet, equations)
    return cat._colimits[key]


def _search_colimit(cat, feet, equations):
    for apex in cat.objects:
        for legs in _cocones(cat, feet, equations, apex):
            if _is_colimit(cat, feet, equations, apex, legs):
                return Cone(apex, tuple(legs))
    return None


def _is_colimit(cat, feet, equations, apex, legs):
    for other_apex in cat.objects:
        for other in _cocones(cat, feet, equations, other_apex):
            n = 0
            for m in cat.hom(apex, other_apex):
                if all(
                    cat.compose_table[(m, legs[i])] == other[i] for i in range(len(feet))
                ):
                    n += 1
            if n != 1:
                return False
    return True


def mediating_out(cat, cone, target_legs):
    """The unique morphism out of a colimit apex hitting the given cocone.

    Raises InputError on an unknown leg, a leg count unlike the cone's or a leg
    off the apex or the first target leg's target, ConstructionError when no
    morphism matches and VerificationError on ambiguity, which a colimit rules out.
    """
    _require_morphisms(cat, (*cone.legs, *target_legs))
    if not target_legs or len(target_legs) != len(cone.legs):
        raise InputError("mediating_out needs one target leg per cone leg, and at least one")
    tgt = cat.target[target_legs[0]]
    for what, legs, end in (("cone", cone.legs, cone.apex), ("target", target_legs, tgt)):
        for leg in legs:
            if cat.target[leg] != end:
                raise InputError("%s leg %s does not end at %s" % (what, leg, end))
    hits = [
        m
        for m in cat.hom(cone.apex, tgt)
        if all(
            cat.compose_table[(m, cone.legs[i])] == target_legs[i]
            for i in range(len(cone.legs))
        )
    ]
    if not hits:
        raise ConstructionError(
            "no mediating morphism %s -> %s" % (cone.apex, tgt), witness=cone.apex
        )
    if len(hits) > 1:
        raise VerificationError("mediating morphism not unique; cone is not a colimit")
    return hits[0]


def pushout(cat, f, g):
    """Pushout cone of the span f, g (shared source); None if absent."""
    return colimit(cat, DiagramShape("span", (f, g)))


def fold(cat, i):
    """``(pushout cone of i along itself, codiagonal ∇)``, or None when that
    pushout is absent; found once per arrow and category, by ``_epi_fold`` for
    an epimorphism and by ``pushout`` and ``mediating_out`` otherwise."""
    if i not in cat._folds:
        _require_morphisms(cat, (i,))
        folded = _epi_fold(cat, i)
        if folded is None:
            cone, ident = pushout(cat, i, i), cat.identity(cat.target[i])
            folded = None if cone is None else (cone, mediating_out(cat, cone, (ident, ident)))
        cat._folds[i] = folded
    return cat._folds[i]


def _epi_fold(cat, i):
    """The fold of i: A -> B without a colimit search when i is epi (g ↦ g∘i is
    injective on the arrows leaving B, as for every arrow of a poset), else None.
    Its cocones are then the (a, a), universal exactly when a is an isomorphism:
    the search's answer is (φ, φ) for the first isomorphism φ out of B (object
    order, then morphism order), and ∇ is φ's inverse."""
    b, table = cat.target[i], cat.compose_table
    ident, out = cat.identity(b), cat.arrows_from(b)
    if len({table[(g, i)] for g in out}) < len(out):
        return None
    for x in cat.objects:
        for phi in cat.hom(b, x):
            for n in cat.hom(x, b):
                if table[(n, phi)] == ident and table[(phi, n)] == cat.identity(x):
                    return Cone(x, (phi, phi)), n


def coproduct(cat, x, y):
    _require_objects(cat, (x, y))
    return colimit(cat, DiagramShape("pair", (cat.identity(x), cat.identity(y))))


# -- functors and adjunctions ----------------------------------------------


class FunctorData(NamedTuple):
    name: str
    source: FiniteCategory
    target: FiniteCategory
    object_map: dict
    morphism_map: dict

    def on_object(self, x):
        return self.object_map[x]

    def on_morphism(self, m):
        return self.morphism_map[m]


def identity_functor(cat):
    return FunctorData(
        "id_%s" % cat.name,
        cat,
        cat,
        {x: x for x in cat.objects},
        {m: m for m in cat.morphisms},
    )


def check_functor(fun):
    """Totality plus preservation of endpoints, identities and composition."""
    v = []
    src, tgt = fun.source, fun.target
    for x in src.objects:
        if x not in fun.object_map:
            v.append("object %r not mapped" % x)
        elif not tgt.has_object(fun.object_map[x]):
            v.append("object %r mapped to unknown %r" % (x, fun.object_map[x]))
    for m in src.morphisms:
        if m not in fun.morphism_map:
            v.append("morphism %r not mapped" % m)
        elif not tgt.has_morphism(fun.morphism_map[m]):
            v.append("morphism %r mapped to unknown %r" % (m, fun.morphism_map[m]))
    if v:
        return Verdict.from_violations(v)

    for m in src.morphisms:
        fm = fun.morphism_map[m]
        if tgt.source[fm] != fun.object_map[src.source[m]]:
            v.append("F(%s) has wrong source" % m)
        if tgt.target[fm] != fun.object_map[src.target[m]]:
            v.append("F(%s) has wrong target" % m)
    if v:
        # composition below would index the target table with mismatched
        # endpoints, so stop at the shape errors
        return Verdict.from_violations(v)
    for x in src.objects:
        if fun.morphism_map[src.identity(x)] != tgt.identity(fun.object_map[x]):
            v.append("identity of %r not preserved" % x)
    for f in src.morphisms:
        for g in src.arrows_from(src.target[f]):
            lhs = fun.morphism_map[src.compose_table[(g, f)]]
            rhs = tgt.compose_table[(fun.morphism_map[g], fun.morphism_map[f])]
            if lhs != rhs:
                v.append("composition not preserved at %s ∘ %s" % (g, f))
    return Verdict.from_violations(v)


def _same(a, b):
    """Category equality, with the cheap identity test first."""
    return a is b or a == b


def _composite(outer, inner):
    """The functor outer∘inner, for two functors that pass ``check_functor``."""
    src = inner.source
    objects = {x: outer.on_object(inner.on_object(x)) for x in src.objects}
    morphisms = {m: outer.on_morphism(inner.on_morphism(m)) for m in src.morphisms}
    return FunctorData("%s∘%s" % (outer.name, inner.name), src, outer.target, objects, morphisms)


class NatTrans(NamedTuple):
    name: str
    source: FunctorData
    target: FunctorData
    components: dict   # object -> morphism of the target category

    def at(self, x):
        return self.components[x]


def check_nat_trans(nt):
    """Parallel functors, components F(x) -> G(x), and naturality."""
    F, G = nt.source, nt.target
    if not (_same(F.source, G.source) and _same(F.target, G.target)):
        return Verdict.from_violations(["source and target functors are not parallel"])
    cat, dst, v = F.source, F.target, []
    for x in cat.objects:
        comp = nt.components.get(x)
        if comp is None or not dst.has_morphism(comp):
            v.append("component at %r missing or unknown" % x)
            continue
        if dst.source[comp] != F.on_object(x) or dst.target[comp] != G.on_object(x):
            v.append("component at %r is not F(%r) -> G(%r)" % (x, x, x))
    if v:
        return Verdict.from_violations(v)
    for f in cat.morphisms:
        x, y = cat.source[f], cat.target[f]
        lhs = dst.compose_table[(G.on_morphism(f), nt.components[x])]
        rhs = dst.compose_table[(nt.components[y], F.on_morphism(f))]
        if lhs != rhs:
            v.append("naturality fails at %s" % f)
    return Verdict.from_violations(v)


def compose_nt(outer, inner):
    """Vertical composition (outer after inner)."""
    table = inner.source.target.compose_table
    components = {x: table[(outer.at(x), inner.at(x))] for x in inner.source.source.objects}
    return NatTrans("%s∘%s" % (outer.name, inner.name), inner.source, outer.target, components)


def identity_nt(fun):
    components = {x: fun.target.identity(fun.on_object(x)) for x in fun.source.objects}
    return NatTrans("id_%s" % fun.name, fun, fun, components)


class AdjunctionData(NamedTuple):
    """Left adjoint, right adjoint, and unit/counit components by object."""

    name: str
    left: FunctorData
    right: FunctorData
    unit: dict
    counit: dict


def check_adjunction(adj):
    """Functor checks, the unit Id -> R∘L and the counit L∘R -> Id as natural
    transformations, both triangle identities."""
    L, R = adj.left, adj.right
    v = ["left adjoint: %s" % x for x in check_functor(L).violations]
    v.extend("right adjoint: %s" % x for x in check_functor(R).violations)
    if not _same(L.source, R.target):
        v.append("left adjoint source differs from right adjoint target")
    if not _same(L.target, R.source):
        v.append("left adjoint target differs from right adjoint source")
    if v:
        return Verdict.from_violations(v)

    C, D = L.source, L.target
    unit = NatTrans("unit", identity_functor(C), _composite(R, L), adj.unit)
    counit = NatTrans("counit", _composite(L, R), identity_functor(D), adj.counit)
    for nt in (unit, counit):
        v.extend("%s %s" % (nt.name, x) for x in check_nat_trans(nt).violations)
    if v:
        return Verdict.from_violations(v)

    for x in C.objects:
        lx = L.on_object(x)
        if D.compose_table[(adj.counit[lx], L.on_morphism(adj.unit[x]))] != D.identity(lx):
            v.append("triangle identity fails at L(%r)" % x)
    for y in D.objects:
        ry = R.on_object(y)
        if C.compose_table[(R.on_morphism(adj.counit[y]), adj.unit[ry])] != C.identity(ry):
            v.append("triangle identity fails at R(%r)" % y)
    return Verdict.from_violations(v)


# -- thin categories from posets -------------------------------------------


def poset_category(name, objects, le):
    """The thin category of a finite poset.

    ``le`` is an iterable of pairs (x, y) meaning x ≤ y; the reflexive
    transitive closure is taken.  Arrows run downward: there is exactly one
    morphism X -> Y when Y ≤ X, named by concatenating the object ids, so the
    minimum (when it exists) is the terminal object and the maximum the
    initial one.  Identities are named ``id_<object>``.  A cycle raises
    InputError naming the first object on one and its first partner, in
    object order.
    """
    objects = list(objects)
    lower = {x: [] for x in objects}  # lower[y] = the x given as x <= y
    for x, y in le:
        for z in (x, y):
            if z not in lower:
                raise InputError("poset %s: unknown element %r" % (name, z))
        lower[y].append(x)
    below = {x: _closure((x,), lower.__getitem__) for x in objects}  # all y with y <= x
    for x in objects:
        for y in objects:
            if x != y and y in below[x] and x in below[y]:
                raise InputError("poset %s: cycle through %r and %r" % (name, x, y))

    morphisms = []
    identities = {}
    for x in objects:
        ident = "id_%s" % x
        identities[x] = ident
        morphisms.append((ident, x, x))
    names = set(identities.values())
    for x in objects:
        for y in objects:
            if y != x and y in below[x]:
                arrow = "%s%s" % (x, y)
                if arrow in names:
                    raise InputError(
                        "poset %s: generated arrow name %r collides" % (name, arrow)
                    )
                names.add(arrow)
                morphisms.append((arrow, x, y))

    src = {m: s for m, s, _ in morphisms}
    tgt = {m: t for m, _, t in morphisms}
    by_ends = {(src[m], tgt[m]): m for m, _, _ in morphisms}
    compose = {}
    for f, fs, ft in morphisms:
        for g, gs, gt in morphisms:
            if ft == gs:
                compose[(g, f)] = by_ends[(fs, gt)]
    return FiniteCategory(name, objects, morphisms, identities, compose)
