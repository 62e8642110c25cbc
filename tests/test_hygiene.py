"""Source hygiene.

Every imported name is read somewhere in its module.  ``__init__.py`` is
left out because its imports are the package's exports.  A name that
appears only in a comment or a docstring counts as unread.

The engine imports at module level.  The one function-local import left is
``fincat``'s of ``lifting._lifting_rows``: ``lifting`` imports ``fincat``.

Masks stay inside ``lifting``.  The lifting relation is a table of int
masks, ``lifting_rows``, and the complements are decoded from them once per
category, in ``_classes``; every other module passes classes in and reads
frozensets back.  So only statements of ``lifting.py`` read those names,
except ``fincat``'s ``lifting_rows`` fact, which builds the rows, and its
constructor, which declares the table.

A rebuilt weak factorization system is checked for factorization in one
place: ``require_factorizations`` is called only by the rebuild step
``premodel._rebuild_fibrations`` and by ``lifting.generate_wfs``, which
builds a system from a generating set alone.  Likewise there is one cylinder
search: ``_cylinder_search`` is called only by
``homotopy.iter_cylinder_witnesses``, which builds witnesses, and by
``homotopy._cylinder_verdict``, which keeps whether one exists.  Every witness
is built by ``homotopy.iter_cylinder_witnesses``.

Each category-level check is stated once, in ``fincat``: only its
``_unknown_morphism`` and ``_require_objects`` spell an unknown-arrow or
unknown-object ``InputError``, and ``check_adjunction`` checks its unit and
counit through ``check_nat_trans``.

No engine module reads or writes an instance's ``__dict__``: a derived fact
is a ``fincat._fact`` (a ``cached_property`` without its lock) or an attribute
set in ``__init__``.

The brute-force oracle ``tests/bruteforce.py`` stays independent of the
engine: it imports nothing from ``mclab`` and reads only the raw tables of a
category and the four marked classes of a structure, never a cached fact.

A check answers a ``fincat.Verdict``: a record of ``src/`` with an ``ok``
field of its own is pinned with the reader of its other fields.

The public surface of ``mclab`` is a pinned list of names, and so is every
public function of ``src/`` that nothing in ``src/`` reads, and every one that
only returns a kept fact of its argument, each with the reason it stays.
"""

import ast
import pathlib
import re
import types

import mclab

ROOT = pathlib.Path(__file__).resolve().parent.parent
ORACLE = ROOT / "tests" / "bruteforce.py"
ORACLE_ATTRIBUTES = {
    # raw tables of a category
    "objects", "morphisms", "source", "target", "identities", "compose_table",
    # a premodel structure's category and its four marked classes
    "cat", "cofibrations", "anodyne_fibrations", "anodyne_cofibrations", "fibrations",
    # builtin methods
    "append", "values", "items",
}
ENGINE = sorted((ROOT / "src" / "mclab").glob("*.py"))
SOURCES = sorted(
    [p for p in ENGINE if p.name != "__init__.py"] + list((ROOT / "tests").glob("*.py"))
)


def unread_imports(path):
    """(line, name) for each name imported by ``path`` and never loaded."""
    tree = ast.parse(path.read_text(), str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return sorted((line, name) for name, line in imported.items() if name not in read)


def test_scan_covers_engine_and_tests():
    names = {p.name for p in SOURCES}
    assert {"lifting.py", "premodel.py", "test_hygiene.py", "bruteforce.py"} <= names
    assert "__init__.py" not in names


def test_scan_finds_an_unread_import(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("import os\nfrom a.b import c, d as e\n# c\nprint(e)\n")
    assert unread_imports(probe) == [(1, "os"), (2, "c")]


def test_no_unread_imports():
    found = {
        str(p.relative_to(ROOT)): unread
        for p in SOURCES
        if (unread := unread_imports(p))
    }
    assert found == {}


def local_imports(path):
    """(function, module, names) for each import made inside a function of ``path``."""
    tree = ast.parse(path.read_text(), str(path))
    found = []
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(fn):
                if isinstance(node, ast.ImportFrom):
                    found.append((fn.name, node.module, tuple(a.name for a in node.names)))
                elif isinstance(node, ast.Import):
                    found.append((fn.name, None, tuple(a.name for a in node.names)))
    return found


def test_local_import_check_finds_a_planted_import(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("import os\n\ndef f():\n    import sys\n    from .a import b, c\n")
    assert local_imports(probe) == [("f", None, ("sys",)), ("f", "a", ("b", "c"))]


def test_the_only_function_local_import_is_the_lifting_rows():
    found = {p.name: hits for p in ENGINE if (hits := local_imports(p))}
    assert found == {"fincat.py": [("lifting_rows", "lifting", ("_lifting_rows",))]}


def dict_accesses(path):
    """Lines of ``path`` that touch an object's ``__dict__``."""
    tree = ast.parse(path.read_text(), str(path))
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "__dict__"
    )


def test_dict_check_finds_a_planted_access(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "class C:\n"
        "    def fact(self):\n"
        "        # self.__dict__ in a comment is fine\n"
        "        self.__dict__['fact'] = 1\n"
        "        return self.__dict__.get('fact')\n"
    )
    assert dict_accesses(probe) == [4, 5]


def test_engine_keeps_no_ad_hoc_dict_caches():
    assert len(ENGINE) > 10
    found = {str(p.relative_to(ROOT)): lines for p in ENGINE if (lines := dict_accesses(p))}
    assert found == {}


def oracle_leaks(path):
    """(line, what) for each mclab import and each attribute read outside
    ``ORACLE_ATTRIBUTES`` in ``path``."""
    tree = ast.parse(path.read_text(), str(path))
    leaks = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules = [node.module or ""]
        else:
            modules = []
        leaks += [(node.lineno, m) for m in modules if m.split(".")[0] == "mclab"]
        if isinstance(node, ast.Attribute) and node.attr not in ORACLE_ATTRIBUTES:
            leaks.append((node.lineno, "." + node.attr))
    return sorted(leaks)


def test_oracle_check_finds_a_planted_leak(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "from mclab.lifting import llp\n"
        "import mclab.fincat\n"
        "def rows(cat):\n"
        "    return cat.lifting_rows, cat.morphisms\n"
    )
    assert oracle_leaks(probe) == [(1, "mclab.lifting"), (2, "mclab.fincat"), (4, ".lifting_rows")]


def test_oracle_reads_only_raw_tables():
    assert oracle_leaks(ORACLE) == []


def callers(path, name):
    """(module, function) for each call of ``name`` inside a function of ``path``."""
    tree = ast.parse(path.read_text(), str(path))
    return [
        (path.name, fn.name)
        for fn in ast.walk(tree)
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(fn)
        if isinstance(node, ast.Call)
        and (getattr(node.func, "id", None) or getattr(node.func, "attr", None)) == name
    ]


def test_caller_check_finds_a_planted_call(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("def f():\n    g(1)\n    m.g(2)\n\ndef h():\n    return g\n")
    assert callers(probe, "g") == [("probe.py", "f"), ("probe.py", "f")]


def test_factorization_is_required_in_one_rebuild_step():
    found = sorted(hit for p in ENGINE for hit in callers(p, "require_factorizations"))
    assert found == [("lifting.py", "generate_wfs"), ("premodel.py", "_rebuild_fibrations")]


def test_only_witness_builders_run_the_cylinder_search():
    found = sorted(hit for p in ENGINE for hit in callers(p, "_cylinder_search"))
    assert found == [("homotopy.py", "_cylinder_verdict"), ("homotopy.py", "iter_cylinder_witnesses")]


def test_only_one_function_builds_cylinder_witnesses():
    found = sorted(hit for p in ENGINE for hit in callers(p, "CylinderWitness"))
    assert found == [("homotopy.py", "iter_cylinder_witnesses")]


def public_functions(path):
    """The names of the public functions defined at the top level of ``path``."""
    tree = ast.parse(path.read_text(), str(path))
    return [
        node.name for node in tree.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
    ]


def reads(path, within=None):
    """{(module, statement): names} for each top-level statement of ``path``,
    named by its definition or line, with every name it reads as a bare name
    or an attribute: a call, a decorator or a table entry.  An attribute of a
    module bound by ``import X`` in ``path`` (``itertools.product``) is that
    module's, so it is no read.  With ``within``, the name of a top-level
    class, the statements are those of that class's body."""
    tree = ast.parse(path.read_text(), str(path))
    modules = {
        alias.asname or alias.name.split(".")[0]
        for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names
    }
    body = tree.body if within is None else next(
        top.body for top in tree.body if getattr(top, "name", None) == within
    )
    return {
        (path.name, getattr(top, "name", top.lineno)): {
            node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(top)
            if (isinstance(node, ast.Attribute) and getattr(node.value, "id", None) not in modules)
            or (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load))
        }
        for top in body
    }


def readers(statements, module, name):
    """The statements that read the function ``name`` of ``module``; its own
    definition does not count, so a recursive call is no reader."""
    return [stmt for stmt, names in statements.items() if name in names and stmt != (module, name)]


def test_reader_check_finds_planted_readers(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "def f():\n    return f()\n\n"
        "def g():\n    return m.f\n\n"
        "@f\ndef h():\n    pass\n\n"
        "TABLE = {'f': f}\n\n"
        "import itertools\n\n"
        "def product():\n    pass\n\n"
        "def pairs(xs):\n    return itertools.product(xs, xs)\n"
    )
    assert public_functions(probe) == ["f", "g", "h", "product", "pairs"]
    statements = reads(probe)
    assert readers(statements, "probe.py", "f") == [
        ("probe.py", "g"), ("probe.py", "h"), ("probe.py", 11)
    ]
    assert readers(statements, "probe.py", "g") == []
    # an attribute of an imported module names that module's function
    assert readers(statements, "probe.py", "product") == []
    probe.write_text(
        "class C:\n    def __init__(self):\n        self._t = {}\n\n"
        "    def get(self, k):\n        return self._t.get(k)\n\n"
        "    limit = 3\n"
    )
    assert reads(probe)[("probe.py", "C")] >= {"_t", "get"}
    assert reads(probe, "C") == {
        ("probe.py", "__init__"): {"self", "_t"},
        ("probe.py", "get"): {"self", "_t", "get", "k"},
        ("probe.py", 8): set(),
    }


# The names that hold a category's lifting masks or build them.
MASK_NAMES = {"lifting_rows", "_lifting_rows", "_classes"}


def mask_reads(path, within=None):
    """{statement: sorted mask names it reads} over ``reads(path, within)``."""
    return {
        stmt: sorted(names & MASK_NAMES)
        for stmt, names in reads(path, within).items()
        if names & MASK_NAMES
    }


def test_masks_stay_inside_lifting():
    """Masks stay inside ``lifting``: every other module hands it classes and
    reads frozensets back.  Outside ``lifting.py`` only ``fincat``'s category
    reads a mask name, in two places: its ``lifting_rows`` fact, which builds
    the rows, and its constructor, which declares the decode table."""
    found = {
        stmt: names
        for path in ENGINE if path.name != "lifting.py"
        for stmt, names in mask_reads(path).items()
    }
    assert found == {("fincat.py", "FiniteCategory"): ["_classes", "_lifting_rows"]}
    assert mask_reads(ROOT / "src" / "mclab" / "fincat.py", "FiniteCategory") == {
        ("fincat.py", "__init__"): ["_classes"],
        ("fincat.py", "lifting_rows"): ["_lifting_rows"],
    }


# How an unknown arrow or object is spelled in an error text.
EXISTENCE_TEXTS = ("unknown morphism", "unknown arrow", "unknown object")


def existence_errors(path):
    """The statements of ``path``, named as ``reads`` names them, that read
    ``InputError`` and spell an ``EXISTENCE_TEXTS`` text."""
    tree = ast.parse(path.read_text(), str(path))
    spelled = {
        (path.name, getattr(top, "name", top.lineno))
        for top in tree.body
        for node in ast.walk(top)
        if isinstance(node, ast.Constant) and str(node.value).startswith(EXISTENCE_TEXTS)
    }
    return [stmt for stmt, names in reads(path).items() if "InputError" in names and stmt in spelled]


def test_existence_check_finds_planted_errors(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "class S:\n    def f(self, n):\n        raise InputError('unknown arrow %r' % n)\n\n"
        "def g(m):\n    return InputError('unknown object %r' % m)\n\n"
        "def h(m):\n    return ['unknown morphism %r' % m]\n\n"
        "def k(m):\n    raise InputError('composite is unknown morphism %r' % m)\n"
    )
    assert existence_errors(probe) == [("probe.py", "S"), ("probe.py", "g")]


def test_category_checks_are_stated_once_in_fincat():
    """Only ``fincat`` builds an unknown-arrow or unknown-object ``InputError``,
    and ``check_adjunction`` reads ``check_nat_trans`` for its unit and counit.
    A verdict may still name an unknown arrow among its violations."""
    found = sorted(hit for path in ENGINE for hit in existence_errors(path))
    assert found == [("fincat.py", "_require_objects"), ("fincat.py", "_unknown_morphism")]
    fincat = ROOT / "src" / "mclab" / "fincat.py"
    assert "check_nat_trans" in reads(fincat)[("fincat.py", "check_adjunction")]


# Every public function of ``src/`` that nothing in ``src/`` reads, with the
# reason it stays: the fixture role it plays (``fixture: ...``), the open
# ROADMAP.md item it waits on (``waits on ...``), or the test that calls it
# (``test_<module>.test_<name>``, a test function of ``tests/<module>.py``).
CALLER_LESS = {
    "barton_p0": "fixture: conftest.premodel_fixtures and bench/test_bench.py",
    "barton_p1": "fixture: conftest.premodel_fixtures and bench/test_bench.py",
    "chain3": "fixture: conftest.census",
    "discrete2": "fixture: conftest.category_fixtures and bench/test_bench.py",
    "interval": "fixture: conftest.premodel_fixtures",
    "point": "fixture: conftest.premodel_fixtures",
    "trivial_premodel": "fixture: conftest.premodel_fixtures and bench/workloads.py",
    "cell_closure": "test_theorems.test_small_object_identity",
    "cofibrant_replacement": "test_premodel.test_replacements",
    "fibrant_replacement": "test_classify.test_fibrant_replacements_on_bounded_monoids",
    "from_machine": "test_frontend.test_machine_report_round_trips",
    "generate_wfs": "waits on the census function of ROADMAP.md, which replaces it",
    "weak_to_strong": "test_homotopy.test_weak_to_strong",
}


def test_caller_less_functions_are_pinned():
    """A public function that nothing in ``src/`` reads earns its place by a
    reason in ``CALLER_LESS``.  A new caller-less function, or a pinned one
    that gained a reader or went away, updates the pin."""
    modules = [p for p in ENGINE if p.name != "__init__.py"]
    statements = {stmt: names for path in modules for stmt, names in reads(path).items()}
    found = sorted(
        name
        for path in modules
        for name in public_functions(path)
        if not readers(statements, path.name, name)
    )
    assert found == sorted(CALLER_LESS)


def resolves(reason, tests=ROOT / "tests"):
    """Whether ``reason`` is of one of the three kinds ``CALLER_LESS`` allows;
    a test reason must name a test function defined in its module."""
    if reason.startswith(("fixture: ", "waits on ")):
        return True
    m = re.fullmatch(r"(test_\w+)\.(test_\w+)", reason)
    if m is None:
        return False
    path = tests / ("%s.py" % m[1])
    return path.exists() and any(
        isinstance(node, ast.FunctionDef) and node.name == m[2]
        for node in ast.parse(path.read_text(), str(path)).body
    )


def test_reason_check_rejects_planted_reasons(tmp_path):
    (tmp_path / "test_probe.py").write_text("def test_here():\n    pass\n\nhelper = 1\n")
    assert resolves("test_probe.test_here", tmp_path)
    assert resolves("fixture: conftest.census", tmp_path)
    assert resolves("waits on ROADMAP.md item 4", tmp_path)
    for reason in (
        "test_probe.test_gone",
        "test_probe.helper",
        "test_absent.test_here",
        "test_probe criterion 07",
        "test_probe.test_here and more",
        "used somewhere",
    ):
        assert not resolves(reason, tmp_path), reason


def test_caller_less_reasons_resolve():
    assert [r for r in CALLER_LESS.values() if not resolves(r)] == []


def fact_aliases(path):
    """The public top-level functions of ``path`` whose body, after its
    docstring, is only ``return <parameter>.<attribute>``."""
    tree = ast.parse(path.read_text(), str(path))
    found = []
    for node in tree.body:
        if not isinstance(node, ast.FunctionDef) or node.name.startswith("_"):
            continue
        body = node.body[1:] if ast.get_docstring(node) is not None else node.body
        ret = body[0] if len(body) == 1 else None
        value = getattr(ret, "value", None)
        if (
            isinstance(ret, ast.Return)
            and isinstance(value, ast.Attribute)
            and isinstance(value.value, ast.Name)
            and value.value.id in {a.arg for a in node.args.args}
        ):
            found.append(node.name)
    return found


def test_fact_alias_check_finds_planted_aliases(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        'def f(cat):\n    """Doc."""\n    return cat.op\n\n'
        "def g(p, x):\n    return p.fibrant\n\n"
        "def h(p):\n    return q.op\n\n"
        "def k(p):\n    return p.dual.cat\n\n"
        "def m(p):\n    p.op\n    return p.op\n\n"
        "def n(p):\n    return p.op()\n\n"
        "def _o(p):\n    return p.op\n\n"
        'def e(p):\n    """Only a docstring."""\n\n'
        "class C:\n    def f(self):\n        return self.op\n"
    )
    assert fact_aliases(probe) == ["f", "g"]


# Every public function of ``src/`` that only reads a kept fact of its
# argument, a second name for that fact, with the reason it stays.
COUNTED = "counted by bench/tracing.py; goes with the next benchmark change (ROADMAP item 12)"
FACT_ALIASES = {
    "validate_category": COUNTED,
    "dualize": COUNTED,
    "acyclic_cofibrations": COUNTED,
    "acyclic_fibrations": COUNTED,
}


def test_fact_aliases_are_pinned():
    """Callers read a category's or a structure's fact itself (``cat.op``,
    ``cat.initial``, ``x in p.cofibrant``).  A new public function that only
    returns such a fact, or a pinned one that went away, updates the pin."""
    found = sorted(
        name for path in ENGINE if path.name != "__init__.py" for name in fact_aliases(path)
    )
    assert found == sorted(FACT_ALIASES)


def dataclasses_in(path):
    """Names of the classes in ``path`` decorated with ``dataclass``."""
    tree = ast.parse(path.read_text(), str(path))
    decorated = [
        (node.name, getattr(d, "func", d))
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        for d in node.decorator_list
    ]
    return sorted(
        name
        for name, d in decorated
        if (getattr(d, "id", None) or getattr(d, "attr", None)) == "dataclass"
    )


def test_dataclass_check_finds_planted_records(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "import dataclasses\n"
        "from dataclasses import dataclass\n"
        "from typing import NamedTuple\n\n"
        "@dataclass\nclass A:\n    x: int\n\n"
        "@dataclasses.dataclass(frozen=True)\nclass B:\n    x: int\n\n"
        "class C(NamedTuple):\n    x: int\n"
    )
    assert dataclasses_in(probe) == ["A", "B"]


def test_records_are_named_tuples():
    """A record type is a ``typing.NamedTuple``: each generated dataclass
    costs about a millisecond of every import.  Two stay dataclasses:

    * ``PremodelStructure`` keeps its ``fincat._fact`` facts in an instance
      ``__dict__``, ``with_classes`` is ``dataclasses.replace``, and setting a
      class raises ``FrozenInstanceError``;
    * ``SaturationFlags`` is read with ``dataclasses.asdict`` by the
      benchmark's ``classification_verdict``.
    """
    found = {p.name: names for p in ENGINE if (names := dataclasses_in(p))}
    assert found == {
        "premodel.py": ["PremodelStructure", "SaturationFlags"],
    }


def ok_records(path):
    """Names of the ``NamedTuple`` classes in ``path`` with an ``ok`` field."""
    tree = ast.parse(path.read_text(), str(path))
    return sorted(
        node.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        and any((getattr(b, "id", None) or getattr(b, "attr", None)) == "NamedTuple" for b in node.bases)
        and any(
            isinstance(stmt, ast.AnnAssign) and getattr(stmt.target, "id", None) == "ok"
            for stmt in node.body
        )
    )


def test_ok_record_check_finds_planted_records(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "import typing\n"
        "from typing import NamedTuple\n\n"
        "class A(NamedTuple):\n    ok: bool\n    extra: bool\n\n"
        "class B(typing.NamedTuple):\n    ok: bool = True\n\n"
        "class C(NamedTuple):\n    okay: bool\n\n"
        "class D(NamedTuple):\n    x: int\n\n    @property\n    def ok(self):\n        return True\n\n"
        "class E:\n    ok: bool\n"
    )
    assert ok_records(probe) == ["A", "B"]


# Every record of ``src/`` with an ``ok`` field other than ``fincat.Verdict``,
# with the reader of the fields it adds to ``ok`` and the failure texts.
FLAGGED_REPORTS = {
    "QuillenReport": "the detector flags: run._do_classify",
    "WeakModelReport": "the four axiom flags: bench/workloads.classification_verdict; "
    "the failures: run._do_check and run._do_classify",
}


def test_checks_answer_a_verdict():
    """A check answers a ``Verdict(ok, violations)``.  A record of its own with
    an ``ok`` field stays only while its other fields have a reader, pinned in
    ``FLAGGED_REPORTS``; a new one, or a pinned one that went away, updates the pin."""
    found = sorted(name for path in ENGINE for name in ok_records(path))
    assert found == sorted(["Verdict", *FLAGGED_REPORTS])


def test_public_surface_is_pinned():
    """The public names ``mclab`` exports, modules left out.  A change that adds
    or removes an export updates this list and names the change in CHANGES.md,
    so the surface cannot grow or shrink unnoticed."""
    exported = sorted(
        name for name, value in vars(mclab).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert exported == [
        "AdjunctionData", "ClassificationReport", "Cone", "ConstructionError",
        "CylinderWitness", "DiagramShape", "FiniteCategory", "FunctorData",
        "HomotopyCategory", "InputError", "LeftLocalization", "LeftSemiReport",
        "NatTrans", "OlschokReport", "ParseError", "PremodelStructure",
        "QuillenCylinderData", "QuillenReport", "RightLocalization", "RightSemiReport",
        "SaturationFlags", "TwoSidedReport", "Verdict", "VerificationError",
        "WeakModelReport", "acyclic_cofibrations", "acyclic_fibrations",
        "cell_closure", "check_adjunction", "check_cylinder_witness",
        "check_functor", "check_nat_trans", "check_pre_cylinder",
        "check_quillen_adjunction", "classify_full", "cofibrant_replacement", "colimit",
        "complement_llp", "complement_rlp", "compute_WL", "compute_WR", "coproduct",
        "core_acyclic_cofibrations", "core_acyclic_fibrations", "core_cofibrations",
        "core_fibrations", "corner_product", "dualize", "equivalences", "factor",
        "factorizations", "fibrant_replacement", "find_cylinder", "generate_wfs",
        "has_lift", "homotopic", "homotopy_category", "identity_cylinder",
        "identity_functor", "is_equivalence", "isomorphisms", "iter_cylinder_witnesses",
        "left_bousfield", "llp", "mediating_out",
        "nabla", "nt_is_anodyne", "nt_is_cofibration", "olschok_lambda", "olschok_model",
        "pair_functor", "poset_category", "pushout", "retract_closure", "right_bousfield",
        "same_classes", "saturate", "saturation_flags", "validate_category", "verify_premodel",
        "verify_quillen_cylinder", "verify_weak_model", "verify_wfs", "weak_to_strong",
    ]
