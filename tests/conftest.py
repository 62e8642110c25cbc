import contextlib
import re

import pytest

from mclab import fixtures
from mclab.fincat import AdjunctionData, FiniteCategory, FunctorData

_ACCEPTANCE = {}
_PATTERN = re.compile(r"test_criterion_(\d+)")


@pytest.fixture
def premodel_corpus():
    return fixtures.premodel_fixtures()


@pytest.fixture
def category_corpus():
    return fixtures.category_fixtures()


def collapse_adjunction(pt, bart):
    """x ↦ a (left) against the constant functor to the point (right)."""
    left = FunctorData("include_bottom", pt, bart, {"x": "a"}, {"id_x": "id_a"})
    right = FunctorData(
        "squash",
        bart,
        pt,
        {x: "x" for x in bart.objects},
        {m: "id_x" for m in bart.morphisms},
    )
    counit = {"a": "id_a", "b": "ab", "c": "ac", "d": "ad"}
    return AdjunctionData("collapse", left, right, {"x": "id_x"}, counit)


@contextlib.contextmanager
def categories_built():
    """The names of the categories constructed inside the block, in order."""
    built = []
    init = FiniteCategory.__init__

    def counted_init(obj, *args):
        built.append(args[0])
        init(obj, *args)

    FiniteCategory.__init__ = counted_init
    try:
        yield built
    finally:
        FiniteCategory.__init__ = init


@pytest.fixture
def collapse_setup():
    bart = fixtures.barton()
    pt = fixtures.point()
    return (
        collapse_adjunction(pt, bart),
        fixtures.trivial_premodel(pt, name="point/trivial"),
        fixtures.barton_p0(bart),
    )


def pytest_runtest_logreport(report):
    if report.when != "call":
        return
    m = _PATTERN.search(report.nodeid)
    if not m:
        return
    _ACCEPTANCE[int(m.group(1))] = (report.outcome, report.nodeid)


def pytest_terminal_summary(terminalreporter):
    if not _ACCEPTANCE:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for num in sorted(_ACCEPTANCE):
        outcome, nodeid = _ACCEPTANCE[num]
        label = "PASS" if outcome == "passed" else outcome.upper()
        short = nodeid.split("::")[-1]
        terminalreporter.write_line("criterion %02d: %s  (%s)" % (num, label, short))
