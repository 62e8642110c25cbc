"""Parser for the laboratory's description language.

A document is a sequence of blocks:

    category NAME [thin] {
      objects: a, b;
      arrows: f: a -> b;
      relations: g . f = h;
    }
    poset NAME { d <= b <= a; d <= c <= a; }
    premodel NAME on CAT {
      cofibrations: all | all_except {..} | generated {..} | {ids, ..};
      ...
    }
    adjunction NAME {
      left: SRC -> TGT { objects: x -> a; arrows: id_x -> id_a; }
      right: TGT -> SRC { ... }
      unit: x -> id_x;
      counit: a -> id_a;
    }
    cylinder NAME { on: CAT; kind: identity; }
    run { classify NAME; ... }

Posets expand to thin categories whose arrows descend (an arrow X -> Y
exists iff Y <= X), so the least element is terminal and the greatest is
initial.  In a premodel block one class of each factorization system is
enough; the partner is derived by complement and the derivation is
recorded on the resulting entry.  Composites of a non-thin category must
all be listed under `relations`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import NamedTuple

from .errors import ConstructionError, InputError, ParseError
from .fincat import FiniteCategory, FunctorData, AdjunctionData, poset_category
from .lifting import complement_llp, complement_rlp
from .olschok import identity_cylinder
from .premodel import PremodelStructure

# Blanks, line ends and whole comment lines, then one token: a punctuation
# mark, a name, the end of input or a stray character, which is an error.  A
# comment that ends the input is not skipped: the end of input is where it
# starts.
_TOKEN = re.compile(
    r"(?:[ \t\r\n]|#[^\n]*\n)*"
    r"(?:(?P<punct>->|<=|[{};:,.=()])|(?P<name>\w+)|(?P<comment>#[^\n]*)?\Z|(?P<stray>.))"
)


class Token(NamedTuple):
    kind: str   # "name", "punct", "eof"
    value: str
    line: int
    col: int


def _tokenize(text):
    tokens = []
    line, line_start = 1, 0
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        start = m.start(kind) if kind else m.end()
        breaks = text.count("\n", m.start(), start)
        if breaks:
            line += breaks
            line_start = text.rfind("\n", 0, start) + 1
        col = start - line_start + 1
        if kind == "punct" or kind == "name":
            tokens.append(Token(kind, m.group(kind), line, col))
        elif kind == "stray":
            raise ParseError("unexpected character %r" % m.group(kind), line, col)
        else:
            tokens.append(Token("eof", "", line, col))
            break
    return tokens


@dataclass
class CategoryDecl:
    name: str
    thin: bool
    objects: list
    arrows: list        # (name, src, tgt)
    relations: list     # (g, f, h)  meaning  g . f = h
    line: int
    col: int


@dataclass
class PosetDecl:
    name: str
    chains: list        # each a list of object names, ascending
    line: int
    col: int


@dataclass
class PremodelDecl:
    name: str
    cat_name: str
    classes: dict       # field -> ("all",) | ("all_except", names) | ("generated", names) | ("set", names)
    line: int
    col: int


@dataclass
class FunctorDecl:
    src: str
    tgt: str
    objects: list       # (from, to)
    arrows: list        # (from, to)


@dataclass
class AdjunctionDecl:
    name: str
    left: FunctorDecl
    right: FunctorDecl
    unit: list          # (object, morphism)
    counit: list
    line: int
    col: int


@dataclass
class CylinderDecl:
    name: str
    cat_name: str
    kind: str
    line: int
    col: int


@dataclass
class Directive:
    kind: str
    args: dict
    line: int
    col: int


@dataclass
class Document:
    categories: list = field(default_factory=list)
    posets: list = field(default_factory=list)
    premodels: list = field(default_factory=list)
    adjunctions: list = field(default_factory=list)
    cylinders: list = field(default_factory=list)
    directives: list = field(default_factory=list)


# the directives whose first argument is their target; ``check`` and
# ``localize`` name what to check or the side first
_TARGET_FIRST = ("validate", "saturate", "hocat", "equiv", "classify", "dualize", "olschok")


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        t = self.tokens[self.pos]
        self.pos += 1
        return t

    def fail(self, message, token=None):
        t = token or self.peek()
        raise ParseError("%s (found %r)" % (message, t.value or "end of input"), t.line, t.col)

    def expect_punct(self, value):
        t = self.next()
        if t.kind != "punct" or t.value != value:
            self.fail("expected %r" % value, t)
        return t

    def expect_name(self, what="a name"):
        t = self.next()
        if t.kind != "name":
            self.fail("expected %s" % what, t)
        return t

    def accept_punct(self, value):
        t = self.peek()
        if t.kind == "punct" and t.value == value:
            self.pos += 1
            return True
        return False

    def accept_name(self, value):
        t = self.peek()
        if t.kind == "name" and t.value == value:
            self.pos += 1
            return True
        return False

    def expect_keyword(self, phrase):
        """The keyword that starts ``phrase``; fails naming the whole phrase."""
        if not self.accept_name(phrase.split()[0]):
            self.fail("expected %r" % phrase)

    # ---- document ----------------------------------------------------

    def parse_document(self):
        doc = Document()
        while True:
            t = self.peek()
            if t.kind == "eof":
                return doc
            if t.kind != "name":
                self.fail("expected a block keyword")
            if t.value == "category":
                doc.categories.append(self.parse_category())
            elif t.value == "poset":
                doc.posets.append(self.parse_poset())
            elif t.value == "premodel":
                doc.premodels.append(self.parse_premodel())
            elif t.value == "adjunction":
                doc.adjunctions.append(self.parse_adjunction())
            elif t.value == "cylinder":
                doc.cylinders.append(self.parse_cylinder())
            elif t.value == "run":
                self.next()
                self.expect_punct("{")
                while not self.accept_punct("}"):
                    doc.directives.append(self.parse_directive())
            else:
                self.fail("unknown block %r" % t.value)

    def parse_category(self):
        head = self.next()
        name = self.expect_name("a category name")
        thin = self.accept_name("thin")
        self.expect_punct("{")
        objects, arrows, relations = [], [], []
        while not self.accept_punct("}"):
            label = self.expect_name("a field label")
            self.expect_punct(":")
            if label.value == "objects":
                objects.extend(n.value for n in self._items(self.expect_name))
            elif label.value == "arrows":
                arrows.extend(self._items(self._arrow_decl))
            elif label.value == "relations":
                relations.extend(self._items(self._relation))
            else:
                self.fail("unknown category field %r" % label.value, label)
        return CategoryDecl(name.value, thin, objects, arrows, relations, head.line, head.col)

    def _items(self, parse_one):
        """Items read by ``parse_one``, separated by ',' and ending in ';'."""
        items = [parse_one()]
        while not self.accept_punct(";"):
            self.expect_punct(",")
            items.append(parse_one())
        return items

    def _arrow_decl(self):
        """``f: a -> b`` as (f, a, b)."""
        arrow = self.expect_name("an arrow name")
        self.expect_punct(":")
        src = self.expect_name("a source object")
        self.expect_punct("->")
        tgt = self.expect_name("a target object")
        return arrow.value, src.value, tgt.value

    def _relation(self):
        """``g . f = h`` as (g, f, h)."""
        g = self.expect_name("an arrow name")
        self.expect_punct(".")
        f = self.expect_name("an arrow name")
        self.expect_punct("=")
        h = self.expect_name("an arrow name")
        return g.value, f.value, h.value

    def _maps_to(self):
        """``a -> b`` as (a, b)."""
        a = self.expect_name()
        self.expect_punct("->")
        b = self.expect_name()
        return a.value, b.value

    def parse_poset(self):
        head = self.next()
        name = self.expect_name("a poset name")
        self.expect_punct("{")
        chains = []
        while not self.accept_punct("}"):
            chain = [self.expect_name("an object name").value]
            while self.accept_punct("<="):
                chain.append(self.expect_name("an object name").value)
            self.expect_punct(";")
            if len(chain) < 2:
                self.fail("poset chains need at least two objects")
            chains.append(chain)
        return PosetDecl(name.value, chains, head.line, head.col)

    def parse_premodel(self):
        head = self.next()
        name = self.expect_name("a premodel name")
        self.expect_keyword("on CATEGORY")
        cat_name = self.expect_name("a category name")
        self.expect_punct("{")
        classes = {}
        fields = ("cofibrations", "anodyne_cofibrations", "fibrations", "anodyne_fibrations")
        while not self.accept_punct("}"):
            label = self.expect_name("a class label")
            if label.value not in fields:
                self.fail("unknown premodel class %r" % label.value, label)
            if label.value in classes:
                self.fail("duplicate class %r" % label.value, label)
            self.expect_punct(":")
            classes[label.value] = self.parse_class_expr()
            self.expect_punct(";")
        return PremodelDecl(name.value, cat_name.value, classes, head.line, head.col)

    def parse_class_expr(self):
        t = self.peek()
        if t.kind == "name" and t.value == "all":
            self.next()
            return ("all",)
        if t.kind == "name" and t.value == "all_except":
            self.next()
            return ("all_except", self.brace_list())
        if t.kind == "name" and t.value == "generated":
            self.next()
            return ("generated", self.brace_list())
        if t.kind == "punct" and t.value == "{":
            return ("set", self.brace_list())
        self.fail("expected a class expression")

    def brace_list(self):
        self.expect_punct("{")
        names = []
        if not self.accept_punct("}"):
            names.append(self.expect_name().value)
            while not self.accept_punct("}"):
                self.expect_punct(",")
                names.append(self.expect_name().value)
        return names

    def parse_functor_body(self):
        src = self.expect_name("a source category")
        self.expect_punct("->")
        tgt = self.expect_name("a target category")
        self.expect_punct("{")
        objects, arrows = [], []
        while not self.accept_punct("}"):
            label = self.expect_name("a field label")
            self.expect_punct(":")
            if label.value not in ("objects", "arrows"):
                self.fail("unknown functor field %r" % label.value, label)
            pairs = objects if label.value == "objects" else arrows
            pairs.extend(self._items(self._maps_to))
        return FunctorDecl(src.value, tgt.value, objects, arrows)

    def parse_adjunction(self):
        head = self.next()
        name = self.expect_name("an adjunction name")
        self.expect_punct("{")
        left = right = None
        unit, counit = [], []
        while not self.accept_punct("}"):
            label = self.expect_name("a field label")
            self.expect_punct(":")
            if label.value == "left":
                left = self.parse_functor_body()
            elif label.value == "right":
                right = self.parse_functor_body()
            elif label.value in ("unit", "counit"):
                pairs = unit if label.value == "unit" else counit
                pairs.extend(self._items(self._maps_to))
            else:
                self.fail("unknown adjunction field %r" % label.value, label)
        if left is None or right is None:
            self.fail("adjunction %s needs both adjoints" % name.value, head)
        return AdjunctionDecl(name.value, left, right, unit, counit, head.line, head.col)

    def parse_cylinder(self):
        head = self.next()
        name = self.expect_name("a cylinder name")
        self.expect_punct("{")
        cat_name = kind = None
        while not self.accept_punct("}"):
            label = self.expect_name("a field label")
            self.expect_punct(":")
            if label.value == "on":
                cat_name = self.expect_name("a category name").value
            elif label.value == "kind":
                kind = self.expect_name("a cylinder kind").value
            else:
                self.fail("unknown cylinder field %r" % label.value, label)
            self.expect_punct(";")
        if cat_name is None or kind is None:
            self.fail("cylinder %s needs 'on' and 'kind'" % name.value, head)
        if kind != "identity":
            raise ParseError("unsupported cylinder kind %r" % kind, head.line, head.col)
        return CylinderDecl(name.value, cat_name, kind, head.line, head.col)

    # ---- directives ----------------------------------------------------

    def parse_directive(self):
        head = self.expect_name("a directive")
        kind = head.value
        args = {}
        if kind == "check":
            what = self.expect_name("wfs, premodel, or weakmodel").value
            if what not in ("wfs", "premodel", "weakmodel"):
                self.fail("check knows wfs, premodel, weakmodel; got %r" % what)
            args["what"] = what
        elif kind == "localize":
            side = self.expect_name("left or right").value
            if side not in ("left", "right"):
                self.fail("localize knows left and right; got %r" % side)
            args["side"] = side
        elif kind not in _TARGET_FIRST:
            self.fail("unknown directive %r" % kind, head)
        args["target"] = self.expect_name().value
        if kind == "localize" and args["side"] == "left":
            self.expect_keyword("at {arrows}")
            args["arrows"] = self.brace_list()
        elif kind == "localize":
            self.expect_keyword("by ADJUNCTION")
            args["adjunction"] = self.expect_name().value
            self.expect_keyword("into TARGET")
            args["into"] = self.expect_name().value
        elif kind == "equiv":
            args["arrow"] = self.expect_name("an arrow").value
        elif kind == "olschok":
            self.expect_keyword("cylinder NAME")
            args["cylinder"] = self.expect_name().value
            if self.accept_name("seeds"):
                args["seeds"] = self.brace_list()
        if kind in ("saturate", "localize"):
            self.expect_keyword("mode")
            args["mode"] = self.expect_name("a saturation mode").value
        self.expect_punct(";")
        return Directive(kind, args, head.line, head.col)


def parse(text):
    """Parse a document; raises ParseError with line/column on bad input."""
    return _Parser(_tokenize(text)).parse_document()


# ---- semantic resolution -------------------------------------------------


def _build_category(decl):
    pos = (decl.line, decl.col)
    if len(set(decl.objects)) != len(decl.objects):
        raise ParseError("category %s repeats an object" % decl.name, *pos)
    identities = {x: "id_%s" % x for x in decl.objects}
    clash = set(identities.values()) & {a for a, _, _ in decl.arrows}
    if clash:
        raise ParseError(
            "category %s declares reserved identity names: %s"
            % (decl.name, ", ".join(sorted(clash))), *pos
        )
    morphisms = [identities[x] for x in decl.objects] + [a for a, _, _ in decl.arrows]
    if len(set(morphisms)) != len(morphisms):
        raise ParseError("category %s repeats an arrow name" % decl.name, *pos)
    source = {identities[x]: x for x in decl.objects}
    target = dict(source)
    for a, s, t in decl.arrows:
        if s not in identities or t not in identities:
            raise ParseError(
                "arrow %s of %s references an undefined object" % (a, decl.name), *pos
            )
        source[a] = s
        target[a] = t

    by_hom = {}
    for m in morphisms:
        by_hom.setdefault((source[m], target[m]), []).append(m)
    if decl.thin:
        fat = [pair for pair, ms in by_hom.items() if len(ms) > 1]
        if fat:
            raise ParseError(
                "category %s declared thin but hom(%s, %s) has %d arrows"
                % (decl.name, fat[0][0], fat[0][1], len(by_hom[fat[0]])), *pos
            )

    known = set(morphisms)
    compose = {}
    for g, f, h in decl.relations:
        for piece in (g, f, h):
            if piece not in known:
                raise ParseError(
                    "relation in %s references undefined arrow %r" % (decl.name, piece), *pos
                )
        compose[(g, f)] = h
    table = {}
    for f in morphisms:
        for g in morphisms:
            if target[f] != source[g]:
                continue
            if f in identities.values():
                table[(g, f)] = g
            elif g in identities.values():
                table[(g, f)] = f
            elif (g, f) in compose:
                table[(g, f)] = compose[(g, f)]
            elif decl.thin:
                table[(g, f)] = by_hom.get((source[f], target[g]), [None])[0]
                if table[(g, f)] is None:
                    raise ParseError(
                        "thin category %s has no composite for %s . %s"
                        % (decl.name, g, f), *pos
                    )
            else:
                raise ParseError(
                    "category %s lists no relation for %s . %s" % (decl.name, g, f), *pos
                )
    return FiniteCategory(
        decl.name,
        list(decl.objects),
        [(m, source[m], target[m]) for m in morphisms],
        identities,
        table,
    )


def _build_poset(decl):
    order = []
    pairs = set()
    for chain in decl.chains:
        for x in chain:
            if x not in order:
                order.append(x)
        for lo, hi in zip(chain, chain[1:]):
            pairs.add((lo, hi))
    try:
        return poset_category(decl.name, order, sorted(pairs))
    except InputError as exc:   # cycle / arrow-name-collision diagnostics
        raise ParseError(
            "poset %s does not define a category: %s" % (decl.name, exc),
            decl.line,
            decl.col,
        ) from None


_LEFT_FIELDS = ("cofibrations", "anodyne_cofibrations")


def _resolve_class(cat, expr, field_name, decl):
    pos = (decl.line, decl.col)
    kind = expr[0]
    if kind == "all":
        return frozenset(cat.morphisms)
    names = []
    for n in expr[1] if len(expr) > 1 else []:
        if n == "ids":
            names.extend(cat.identities.values())
        elif cat.has_morphism(n):
            names.append(n)
        else:
            raise ParseError(
                "premodel %s references undefined arrow %r" % (decl.name, n), *pos
            )
    base = frozenset(names)
    if kind == "all_except":
        return frozenset(cat.morphisms) - base
    if kind == "generated":
        if field_name in _LEFT_FIELDS:
            return complement_llp(cat, complement_rlp(cat, base))
        return complement_rlp(cat, complement_llp(cat, base))
    return base


# Each class a premodel block may leave out, in the order it is derived, with
# the partner it is derived from and the lifting complement that derives it.
# The first class of each system is named first when both are missing.
_PARTNERS = (
    ("cofibrations", "anodyne_fibrations", complement_llp),
    ("anodyne_fibrations", "cofibrations", complement_rlp),
    ("anodyne_cofibrations", "fibrations", complement_llp),
    ("fibrations", "anodyne_cofibrations", complement_rlp),
)


def _build_premodel(decl, categories):
    pos = (decl.line, decl.col)
    cat = categories.get(decl.cat_name)
    if cat is None:
        raise ParseError(
            "premodel %s references undefined category %r" % (decl.name, decl.cat_name), *pos
        )
    resolved = {
        f: _resolve_class(cat, e, f, decl) for f, e in decl.classes.items()
    }
    derived = []
    for cls, partner, complement in _PARTNERS:
        if cls in resolved:
            continue
        if partner not in resolved:
            raise ParseError(
                "premodel %s gives neither %s nor %s" % (decl.name, cls, partner), *pos
            )
        resolved[cls] = complement(cat, resolved[partner])
        derived.append(cls)
    return PremodelStructure(cat, name=decl.name, **resolved), derived


def _build_functor(name, decl, categories, owner):
    src = categories.get(decl.src)
    tgt = categories.get(decl.tgt)
    if src is None or tgt is None:
        missing = decl.src if src is None else decl.tgt
        raise ParseError(
            "adjunction %s references undefined category %r" % (owner.name, missing),
            owner.line,
            owner.col,
        )
    return FunctorData(name, src, tgt, dict(decl.objects), dict(decl.arrows))


def _build_adjunction(decl, categories):
    left = _build_functor("%s.left" % decl.name, decl.left, categories, decl)
    right = _build_functor("%s.right" % decl.name, decl.right, categories, decl)
    return AdjunctionData(decl.name, left, right, dict(decl.unit), dict(decl.counit))


def _build_cylinder(decl, categories):
    cat = categories.get(decl.cat_name)
    if cat is None:
        raise ParseError(
            "cylinder %s references undefined category %r" % (decl.name, decl.cat_name),
            decl.line,
            decl.col,
        )
    try:
        return identity_cylinder(cat)
    except ConstructionError as exc:   # some X ⊔ X is absent
        raise ParseError(
            "cylinder %s cannot be built on %s: %s" % (decl.name, cat.name, exc),
            decl.line,
            decl.col,
        ) from None


@dataclass
class Environment:
    """Resolved document: named engine objects plus bookkeeping."""

    categories: dict
    premodels: dict
    adjunctions: dict
    cylinders: dict       # name -> QuillenCylinderData
    derived_classes: dict  # premodel name -> list of derived class fields
    directives: list


def resolve(doc):
    categories = {}
    for decl in doc.categories:
        if decl.name in categories:
            raise ParseError("duplicate category %r" % decl.name, decl.line, decl.col)
        categories[decl.name] = _build_category(decl)
    for decl in doc.posets:
        if decl.name in categories:
            raise ParseError("duplicate category %r" % decl.name, decl.line, decl.col)
        categories[decl.name] = _build_poset(decl)
    premodels, derived_classes = {}, {}
    for decl in doc.premodels:
        if decl.name in premodels or decl.name in categories:
            raise ParseError("duplicate name %r" % decl.name, decl.line, decl.col)
        premodels[decl.name], derived_classes[decl.name] = _build_premodel(decl, categories)
    adjunctions = {}
    for decl in doc.adjunctions:
        adjunctions[decl.name] = _build_adjunction(decl, categories)
    cylinders = {}
    for decl in doc.cylinders:
        cylinders[decl.name] = _build_cylinder(decl, categories)
    return Environment(
        categories=categories,
        premodels=premodels,
        adjunctions=adjunctions,
        cylinders=cylinders,
        derived_classes=derived_classes,
        directives=list(doc.directives),
    )


def load(text):
    return resolve(parse(text))
