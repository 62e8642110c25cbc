import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mclab.parser
import mclab.run
from conftest import same_presentation
from mclab import fixtures
from mclab.cli import main
from mclab.errors import ParseError, VerificationError
from mclab.parser import Environment, load, parse
from mclab.premodel import same_classes
from mclab.report import check_tree, from_machine, to_machine, to_text
from mclab.run import (
    BAD_INPUT,
    CHECK_FAILED,
    INTERNAL,
    NO_CONSTRUCTION,
    OK,
    run_directives,
)

DATA = Path(__file__).resolve().parent.parent / "src" / "mclab" / "data"

BARTON_POSET = """
poset barton {
  d <= b <= a;
  d <= c <= a;
}
"""

BARTON_EXPLICIT = """
category barton2 thin {
  objects: a, b, c, d;
  arrows: ab: a -> b, ac: a -> c, ad: a -> d, bd: b -> d, cd: c -> d;
}
"""

PREMODEL = """
premodel P0 on barton {
  cofibrations: all_except {ab};
  anodyne_cofibrations: {ids};
}
"""


def test_poset_matches_handwritten_category():
    env1 = load(BARTON_POSET)
    env2 = load(BARTON_EXPLICIT)
    cat1 = env1.categories["barton"]
    cat2 = env2.categories["barton2"]
    assert len(cat1.morphisms) == 9
    assert same_presentation(cat1, cat2)
    assert same_presentation(cat1, fixtures.barton())


def test_poset_enumeration_order_is_first_appearance():
    cat = load(BARTON_POSET).categories["barton"]
    assert cat.objects == ["d", "b", "a", "c"]
    # arrow names do not depend on enumeration order
    assert set(cat.morphisms) >= {"ab", "ac", "ad", "bd", "cd"}


def test_premodel_block_derives_partners():
    env = load(BARTON_POSET + PREMODEL)
    p = env.premodels["P0"]
    assert same_classes(p, fixtures.barton_p0())
    assert set(env.derived_classes["P0"]) == {"anodyne_fibrations", "fibrations"}


def test_document_counts():
    doc = parse((DATA / "barton.mcl").read_text())
    assert len(doc.posets) == 1
    assert len(doc.premodels) == 1
    assert len(doc.directives) == 4


def test_parses_share_no_block_lists():
    # a record's default list would be one list shared by every parse
    first = parse(BARTON_POSET + PREMODEL + "run {\n  classify P0;\n}\n")
    second = parse(BARTON_EXPLICIT)
    assert [decl.name for decl in second.categories] == ["barton2"]
    assert second.posets == second.premodels == second.directives == []
    assert [decl.name for decl in first.posets] == ["barton"]
    assert [d.kind for d in first.directives] == ["classify"]
    assert first.categories == []
    for blocks in ("categories", "posets", "premodels", "adjunctions", "cylinders", "directives"):
        assert getattr(first, blocks) is not getattr(second, blocks), blocks


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as err:
        parse("category broken thin {\n  objects: ;\n}")
    assert err.value.line == 2
    assert err.value.column == 12
    assert "line 2" in str(err.value)


def test_unresolved_reference_is_input_error():
    bad = BARTON_POSET + "run { classify NOPE; }"
    env = load(bad)
    outcome = run_directives(env, env.directives)
    assert outcome.code == BAD_INPUT
    assert outcome.trees[-1]["error"]["kind"] == "input"


def test_duplicate_names_rejected():
    with pytest.raises(ParseError, match="duplicate"):
        load(BARTON_POSET + BARTON_POSET)


def test_engine_error_in_a_poset_is_not_bad_input(monkeypatch):
    def broken(*args):
        raise RuntimeError("engine bug")

    monkeypatch.setattr(mclab.parser, "poset_category", broken)
    with pytest.raises(RuntimeError, match="engine bug"):
        load(BARTON_POSET)


def test_thin_declaration_rejects_parallel_arrows():
    with pytest.raises(ParseError):
        load(
            "category bad thin {\n"
            "  objects: x, y;\n"
            "  arrows: f: x -> y, g: x -> y;\n"
            "}"
        )


def test_nonthin_needs_relations():
    text = (
        "category m thin {\n  objects: x;\n  arrows: e: x -> x;\n}"
    )
    # a thin category cannot carry a non-identity endomorphism
    with pytest.raises(ParseError):
        load(text)
    text = "category m {\n  objects: x;\n  arrows: e: x -> x;\n}"
    with pytest.raises(ParseError, match="relation"):
        load(text)
    text = (
        "category m {\n  objects: x;\n  arrows: e: x -> x;\n"
        "  relations: e . e = e;\n}"
    )
    env = load(text)
    assert env.categories["m"].compose("e", "e") == "e"


def test_machine_report_round_trips():
    env = load((DATA / "barton.mcl").read_text())
    outcome = run_directives(env, env.directives)
    assert outcome.code == OK
    for tree in outcome.trees:
        check_tree(tree)
        assert from_machine(to_machine(tree)) == tree


def test_check_tree_names_the_bad_node():
    with pytest.raises(TypeError) as err:
        check_tree({"a": {"b": True, 1: False}})
    assert str(err.value) == "report.a: non-string key 1"
    with pytest.raises(TypeError) as err:
        check_tree({"a": ["x", (1, 2)]})
    assert str(err.value) == "report.a[1]: unserializable value (1, 2)"
    with pytest.raises(TypeError) as err:
        check_tree({"ok": True, "a": [{"b": None}, {"c": [0, {"d": {"e"}}]}]})
    assert str(err.value) == "report.a[1].c[1].d: unserializable value {'e'}"
    with pytest.raises(TypeError) as err:
        check_tree([None, {2.5: "x"}], path="tree")
    assert str(err.value) == "tree[1]: non-string key 2.5"


def test_text_rendering_spells_out_booleans():
    tree = {"ok": True, "bad": False, "void": None, "names": ["a", "b"]}
    text = to_text(tree)
    assert "yes" in text and "no" in text
    assert "True" not in text and "False" not in text


def test_runs_are_deterministic():
    source = (DATA / "barton.mcl").read_text()
    first = [to_machine(t) for t in run_directives(load(source), load(source).directives).trees]
    second = [to_machine(t) for t in run_directives(load(source), load(source).directives).trees]
    assert first == second


# sha256 of ``mclab run <doc>`` output, as (text, --json): the reports on the
# shipped documents are pinned byte for byte.
SHIPPED_DIGESTS = {
    "barton": (
        "264ab52bf41fb3601fffa2110ff22e14fe4dc24c96a055e0e5054f3534333d90",
        "a1d7c7211b1aa3d254060040bd00e8dd8ae0da53c4d686b338bd2204d597da5c",
    ),
    "chain3": (
        "296bdd10ced40414ec6e8dd49260013b40bc88c4753f877625249ba9a4717745",
        "b857ec99de817a35385a7c95850d38584ca26d9ad35326d459626fd1353c0838",
    ),
    "point": (
        "28a8aeb2da195f526072f5718d97a9b3903c772b29e2d866c4665045b47e1279",
        "74ecb388b4326ff71c027060c3bf95186092beceea5f2b9a228d8a824f3bf264",
    ),
    "interval": (
        "f51d3bb01961c48b5157d4dd8b4e255a2cd867e166d9352505d2195641fb7403",
        "02ec96992d735de137e4e724888eaf25bd8db76e8a5df56326548df6c8dc4d00",
    ),
    "discrete2": (
        "4a26ba1834a78b57e7c46574b2e1f5f8ed25af931db4e4f921a820364b88bd1a",
        "dc40c114625ccf78c01b37a97a874ff4a3d2918222d560d718b8b00d965f6ed4",
    ),
    "collapse": (
        "a17e2e1651e0b47e024f2d7f80e48287b9628700e95f515c3eb334418c3a800d",
        "df424421a4e8a4edc962d6fcd18a386991821a4b1934a74df0e7d4b6bfabf645",
    ),
}


def _sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name", sorted(SHIPPED_DIGESTS))
def test_shipped_documents_run_clean(name, capsys):
    text_digest, json_digest = SHIPPED_DIGESTS[name]
    rc = main(["run", str(DATA / ("%s.mcl" % name))])
    assert rc == OK
    assert _sha256(capsys.readouterr().out) == text_digest
    rc = main(["run", str(DATA / ("%s.mcl" % name)), "--json"])
    out = capsys.readouterr().out
    assert rc == OK
    assert _sha256(out) == json_digest
    for tree in json.loads(out):
        check_tree(tree)


def test_shipped_barton_document_tells_the_story(capsys):
    rc = main(["run", str(DATA / "barton.mcl"), "--json"])
    assert rc == OK
    trees = json.loads(capsys.readouterr().out)
    classify_first, localize, classify_result, equiv = trees
    assert classify_first["summary"] == "Quillen model structure"
    assert classify_result["summary"] == "two-sided weak model (not Quillen)"
    # the poset block enumerates objects in first-appearance order, so the
    # list order differs from the Python fixture; membership must not
    assert set(classify_result["wl"]) == {"id_a", "id_b", "id_c", "id_d", "ab", "ac"}
    assert set(classify_result["wr"]) == {"id_a", "id_b", "id_c", "id_d", "ac", "bd"}
    assert equiv["equivalence"] is True


def test_exit_codes():
    env = load(BARTON_POSET + PREMODEL + "run { equiv P0 ac; }")
    assert run_directives(env, env.directives).code == CHECK_FAILED

    env = load(BARTON_POSET + PREMODEL + "run { saturate P0 mode L; equiv NOPE ac; }")
    outcome = run_directives(env, env.directives)
    assert outcome.code == BAD_INPUT
    assert len(outcome.trees) == 2  # the saturate tree survives

    env = load(
        "category two thin { objects: u, v; }\n"
        "premodel T on two { cofibrations: all; anodyne_cofibrations: {ids}; }\n"
        "run { check premodel T; }"
    )
    outcome = run_directives(env, env.directives)
    assert outcome.code == CHECK_FAILED  # endpoints are missing, verdict false


# barton.mcl's poset and P0, without its run block
BARTON_P0 = (DATA / "barton.mcl").read_text().split("\nrun {")[0] + "\n"


def test_dualize_swaps_the_sides_and_back(tmp_path, capsys):
    doc = tmp_path / "dual.mcl"
    doc.write_text(BARTON_P0 + "run { dualize P0; dualize result; }\n")
    assert main(["run", str(doc), "--json"]) == OK
    once, twice = json.loads(capsys.readouterr().out)
    p0 = load(BARTON_P0).premodels["P0"]
    classes = {name: p0.cat.sort_morphisms(members) for name, members in p0.classes().items()}
    assert once["classes"] == {
        "cofibrations": classes["fibrations"],
        "anodyne_fibrations": classes["anodyne_cofibrations"],
        "anodyne_cofibrations": classes["anodyne_fibrations"],
        "fibrations": classes["cofibrations"],
    }
    assert twice["classes"] == classes


def test_check_weakmodel_on_a_premodel(tmp_path, capsys):
    doc = tmp_path / "weak.mcl"
    doc.write_text(BARTON_P0 + "run { check weakmodel P0; }\n")
    assert main(["run", str(doc), "--json"]) == OK
    tree = json.loads(capsys.readouterr().out)
    assert list(tree.items()) == [
        ("directive", "check weakmodel P0"), ("target", "P0"), ("ok", True),
        ("cylinder_axiom", True), ("path_axiom", True), ("alt_criterion", True),
        ("dual_alt_criterion", True), ("failures", []),
    ]
    assert main(["run", str(doc)]) == OK
    assert capsys.readouterr().out == (
        "directive: check weakmodel P0\ntarget: P0\nok: yes\ncylinder_axiom: yes\n"
        "path_axiom: yes\nalt_criterion: yes\ndual_alt_criterion: yes\nfailures: []\n"
    )


# A premodel on a non-thin category where z ⊔_0 z does not exist
ABSENT_FOLD = """
category Z2 {
  objects: 0, x, 1;
  arrows: s: x -> x, z: 0 -> x, t: x -> 1, zt: 0 -> 1;
  relations: s . s = id_x, s . z = z, t . s = t, t . z = zt;
}
premodel P on Z2 { cofibrations: {ids, s, z}; anodyne_cofibrations: {ids, s}; }
run { check premodel P; hocat P; }
"""


def test_an_absent_construction_exits_3(tmp_path, capsys):
    doc = tmp_path / "z2.mcl"
    doc.write_text(ABSENT_FOLD)
    assert main(["run", str(doc), "--json"]) == NO_CONSTRUCTION
    check, hocat = json.loads(capsys.readouterr().out)
    assert check["ok"] is True
    assert hocat["directive"] == "hocat P"
    # the message ("pushout of z along itself is absent") is not pinned:
    # ROADMAP.md item 4 may turn this raise into a verdict or reword it
    assert hocat["error"]["kind"] == "construction" and hocat["error"]["message"]
    assert hocat["error"]["witness"] == "z"


@pytest.mark.parametrize(
    "steps, kind",
    [("hocat P0; saturate P0 mode L;", "premodel"), ("saturate P0 mode L; hocat P0;", "category")],
)
def test_validate_result_is_the_latest_result(steps, kind):
    env = load(BARTON_POSET + PREMODEL + "run { %s validate result; }" % steps)
    outcome = run_directives(env, env.directives)
    assert outcome.code == OK
    assert outcome.trees[-1]["kind"] == kind
    assert outcome.trees[-1]["target"] == "result"


NOT_A_PREMODEL = BARTON_POSET + """
premodel P on barton {
  cofibrations: {ids, ab};
  anodyne_fibrations: all;
  anodyne_cofibrations: all;
  fibrations: {ids};
}
"""


def test_internal_error_exit_code(tmp_path, capsys, monkeypatch):
    # No document is known to reach a failing cross-check: saturating,
    # localizing, classifying and taking the homotopy category of every
    # verified premodel of the small test categories raises none.  So the
    # failure is planted in saturation, on a genuine premodel.
    def broken(p, mode):
        raise VerificationError("saturation %s moved the bifibrant core of %s" % (mode, p.label))

    monkeypatch.setattr(mclab.run, "saturate", broken)
    doc = tmp_path / "planted.mcl"
    doc.write_text(BARTON_POSET + PREMODEL + "run { check premodel P0; saturate P0 mode L; }\n")
    assert main(["run", str(doc), "--json"]) == INTERNAL
    check, saturate = json.loads(capsys.readouterr().out)
    assert check["directive"] == "check premodel P0" and check["ok"] is True
    assert saturate == {
        "directive": "saturate P0 mode L",
        "error": {"kind": "internal", "message": "saturation L moved the bifibrant core of P0"},
    }
    assert main(["saturate", str(doc), "P0", "--mode", "L"]) == INTERNAL


def test_hocat_and_equiv_need_a_premodel(tmp_path, capsys):
    # and so do check weakmodel, saturate and localize: each is asked of
    # premodels only
    doc = tmp_path / "broken.mcl"
    for directive in (
        "hocat P", "check weakmodel P", "saturate P mode L", "saturate P mode Rc",
        "localize left P at {ab} mode Lc",
    ):
        doc.write_text(NOT_A_PREMODEL + "run { %s; }\n" % directive)
        assert main(["run", str(doc), "--json"]) == BAD_INPUT
        assert json.loads(capsys.readouterr().out) == {
            "directive": directive,
            "error": {"kind": "input", "message": "P is not a premodel: (C, AF): no lift of ab against ad"},
        }
    env = load(NOT_A_PREMODEL + "run { equiv P ab; }\n")
    assert run_directives(env, env.directives).code == BAD_INPUT
    assert main(["hocat", str(doc), "P"]) == BAD_INPUT
    assert main(["equiv", str(doc), "P", "ab"]) == BAD_INPUT
    assert main(["check", "weakmodel", str(doc), "P"]) == BAD_INPUT
    assert capsys.readouterr().out.count("not a premodel") == 3
    # localize right verifies the premodel it maps into as well
    doc.write_text(NOT_A_PREMODEL + PREMODEL + """
adjunction A {
  left: barton -> barton { objects: a -> a, b -> b, c -> c, d -> d; }
  right: barton -> barton { objects: a -> a, b -> b, c -> c, d -> d; }
}
run { localize right P0 by A into P mode Rc; }
""")
    assert main(["run", str(doc), "--json"]) == BAD_INPUT
    assert json.loads(capsys.readouterr().out)["error"] == {
        "kind": "input", "message": "P is not a premodel: (C, AF): no lift of ab against ad",
    }
    # a premodel on a category without an initial object is no premodel either
    doc.write_text(
        "category two thin { objects: u, v; }\n"
        "premodel T on two { cofibrations: all; anodyne_cofibrations: {ids}; }\n"
    )
    assert main(["check", "weakmodel", str(doc), "T", "--json"]) == BAD_INPUT
    assert json.loads(capsys.readouterr().out)["error"] == {
        "kind": "input", "message": "T is not a premodel: no initial object",
    }


# Every kind of check failing, or passing on a failing structure, but check
# weakmodel, which refuses a non-premodel (see above): P is not a premodel,
# T lives on a category without endpoints, A leaves most arrows unmapped and
# C is a cylinder on that category.
FAILING_CHECKS = NOT_A_PREMODEL + """
category two thin { objects: u, v; }
premodel T on two { cofibrations: all; anodyne_cofibrations: {ids}; }
adjunction A {
  left: barton -> barton { objects: a -> a, b -> b, c -> c, d -> d; arrows: ab -> ab; }
  right: barton -> barton { objects: a -> a, b -> b, c -> c, d -> d; }
}
cylinder C { on: two; kind: identity; }
run {
  check wfs P; check premodel P;
  validate P; validate T; validate A; validate C;
  classify P; classify T;
}
"""
# sha256 of its ``mclab run`` output, as (text, --json)
FAILING_CHECKS_DIGESTS = (
    "d20cee69585040e8ba68f15e321177632fc1efa3a90602a94973acf980ecf87a",
    "52dd9eaf84926f62f63e105ecb77ba8e3908ae644b03388187d2b91718bbcf5e",
)


def test_failing_check_reports_are_pinned(tmp_path, capsys):
    """The failure and violation lists of the checks, byte for byte, exit code
    1; a subprocess under each of two hash seeds prints the same digests."""
    doc = tmp_path / "failing.mcl"
    doc.write_text(FAILING_CHECKS)
    for flag, digest in zip(([], ["--json"]), FAILING_CHECKS_DIGESTS):
        assert main(["run", str(doc)] + flag) == CHECK_FAILED
        out = capsys.readouterr().out
        assert _sha256(out) == digest, flag
    for tree in json.loads(out):
        check_tree(tree)
    code = (
        "import contextlib, hashlib, io, sys\n"
        "from mclab.cli import main\n"
        "for flag in ([], ['--json']):\n"
        "    out = io.StringIO()\n"
        "    with contextlib.redirect_stdout(out):\n"
        "        code = main(['run', sys.argv[1]] + flag)\n"
        "    print(code, hashlib.sha256(out.getvalue().encode('utf-8')).hexdigest())\n"
    )
    expected = "".join("%d %s\n" % (CHECK_FAILED, digest) for digest in FAILING_CHECKS_DIGESTS)
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(DATA.parent.parent))
        run = subprocess.run(
            [sys.executable, "-c", code, str(doc)], env=env, capture_output=True, text=True, timeout=60
        )
        assert (run.returncode, run.stdout, run.stderr) == (0, expected, ""), seed


def test_a_cylinder_without_coproducts_is_bad_input(tmp_path, capsys):
    # x ⊔ x does not exist in the one-object category with an idempotent
    doc = tmp_path / "idempotent.mcl"
    doc.write_text(
        "category M { objects: x; arrows: e: x -> x; relations: e . e = e; }\n"
        "cylinder C { on: M; kind: identity; }\n"
        "run { validate M; }\n"
    )
    assert main(["run", str(doc)]) == BAD_INPUT
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "%s: line 2, column 1: cylinder C cannot be built on M: " \
        "coproduct of 'x' with itself is absent\n" % doc


OLSCHOK_ON_TWO = """
category two thin { objects: u, v; }
premodel T on two { cofibrations: all; anodyne_cofibrations: {ids}; }
cylinder C { on: two; kind: identity; }
"""


def test_a_failed_olschok_precondition_is_bad_input(tmp_path, capsys):
    doc = tmp_path / "two.mcl"
    doc.write_text(OLSCHOK_ON_TWO + "run { olschok T cylinder C; }\n")
    text = "olschok needs initial and terminal objects: two has no initial and no terminal object"
    assert _cli(["olschok", str(doc), "T", "--cylinder", "C"], capsys) == (
        BAD_INPUT,
        "directive: olschok T cylinder C\nerror:\n  kind: input\n  message: %s\n" % text,
        "",
    )
    assert main(["run", str(doc), "--json"]) == BAD_INPUT
    assert json.loads(capsys.readouterr().out)["error"] == {"kind": "input", "message": text}

    doc = tmp_path / "barton.mcl"
    doc.write_text(BARTON_POSET + PREMODEL + "cylinder C { on: barton; kind: identity; }\n")
    assert _cli(["olschok", str(doc), "P0", "--cylinder", "C", "--seeds", "ab"], capsys) == (
        BAD_INPUT,
        "directive: olschok P0 cylinder C seeds {ab}\nerror:\n  kind: input\n"
        "  message: olschok seeds must be cofibrations: ab\n",
        "",
    )


def test_a_foreign_cylinder_is_bad_input(tmp_path, capsys):
    doc = tmp_path / "foreign.mcl"
    doc.write_text(
        BARTON_POSET + PREMODEL + OLSCHOK_ON_TWO + "run { validate C; olschok P0 cylinder C; }\n"
    )
    assert main(["run", str(doc), "--json"]) == BAD_INPUT
    validate, olschok = json.loads(capsys.readouterr().out)
    assert validate["ok"] is True
    assert olschok == {
        "directive": "olschok P0 cylinder C",
        "error": {
            "kind": "input",
            "message": "olschok needs a verified cylinder: cylinder lives on two, not on barton",
        },
    }


def test_an_unknown_arrow_names_its_category(capsys):
    path = str(DATA / "barton.mcl")
    code, out, err = _cli(["equiv", path, "P0", "zz", "--json"], capsys)
    assert code == BAD_INPUT and err == ""
    assert json.loads(out)["error"]["message"] == "unknown morphism 'zz' in barton"


def test_unknown_localizer_and_seed_arrows_name_their_category(tmp_path, capsys):
    doc = tmp_path / "barton.mcl"
    for step in ("localize left P0 at {zz} mode Lc", "olschok P0 cylinder C seeds {zz}"):
        doc.write_text(
            BARTON_POSET + PREMODEL + "cylinder C { on: barton; kind: identity; }\n"
            "run { %s; }\n" % step
        )
        assert main(["run", str(doc), "--json"]) == BAD_INPUT
        assert json.loads(capsys.readouterr().out) == {
            "directive": step,
            "error": {"kind": "input", "message": "unknown morphism 'zz' in barton"},
        }


def test_cli_error_paths(tmp_path, capsys):
    missing = tmp_path / "missing.mcl"
    assert main(["validate", str(missing)]) == BAD_INPUT
    capsys.readouterr()

    bad = tmp_path / "bad.mcl"
    bad.write_text("category x thin { objects: ; }")
    assert main(["validate", str(bad)]) == BAD_INPUT
    err = capsys.readouterr().err
    assert "line" in err and "column" in err


def test_cli_single_commands(capsys):
    path = str(DATA / "barton.mcl")
    assert main(["classify", path, "P0"]) == OK
    assert main(["saturate", path, "P0", "--mode", "Lc"]) == OK
    assert main(["localize", "left", path, "P0", "--at", "ac", "--mode", "Lc"]) == OK
    assert main(["hocat", path, "P0"]) == OK
    assert main(["equiv", path, "P0", "ab"]) == OK
    assert main(["equiv", path, "P0", "ac"]) == CHECK_FAILED
    capsys.readouterr()

    assert main(["validate", path]) == OK
    out = capsys.readouterr().out
    assert "yes" in out


# ---- the front end's bytes ---------------------------------------------------

CAT_M = "category M thin { objects: x, y; arrows: f: x -> y; }\n"
PRE_P = CAT_M + "premodel P on M { cofibrations: all; anodyne_cofibrations: {ids}; }\n"
ADJ_A = "adjunction A { left: M -> M { } right: M -> M { } }\n"
CYL_C = "cylinder C { on: M; kind: identity; }\n"

# (document, message, line, column) of each ParseError, as ``load`` raises it
PARSE_ERRORS = [
    ("category M { objects: x $ y; }", "unexpected character '$'", 1, 25),
    # carriage returns and tabs count as one column each
    ("category M thin {\r\n\tobjects: x;\r\n  arrows: f: x => y; }",
     "unexpected character '>'", 3, 17),
    # a comment does not advance the column: the end of input is where it starts
    ("category M thin { objects: x;   # no brace", "expected a field label (found 'end of input')", 1, 33),
    ("run {\n  classify P;  # end", "expected a directive (found 'end of input')", 2, 16),
    ("category M thin { objects: x;\n  # no brace\n", "expected a field label (found 'end of input')", 3, 1),
    ("category M thin {\n  objects: ;\n}", "expected a name (found ';')", 2, 12),
    ("poset V { t <= x; t <= }", "expected an object name (found '}')", 1, 24),
    ("premodel P in M { }", "expected 'on CATEGORY' (found 'in')", 1, 12),
    (PRE_P + "run { saturate P L; }", "expected 'mode' (found 'L')", 3, 18),
    (PRE_P + "run { localize left P {f} mode L; }", "expected 'at {arrows}' (found '{')", 3, 23),
    (PRE_P + "run { localize left P at {f} L; }", "expected 'mode' (found 'L')", 3, 30),
    (PRE_P + "run { localize right P A into P mode L; }", "expected 'by ADJUNCTION' (found 'A')", 3, 24),
    (PRE_P + "run { localize right P by A P mode L; }", "expected 'into TARGET' (found 'P')", 3, 29),
    (PRE_P + "run { olschok P C; }", "expected 'cylinder NAME' (found 'C')", 3, 17),
    (CAT_M + "premodel P on M { fibrations: all; }",
     "premodel P gives neither cofibrations nor anodyne_fibrations", 2, 1),
    (CAT_M + "premodel P on M { cofibrations: all; }",
     "premodel P gives neither anodyne_cofibrations nor fibrations", 2, 1),
    ("block M { }", "unknown block 'block' (found 'block')", 1, 1),
    (CAT_M + "run { frobnicate M; }", "unknown directive 'frobnicate' (found 'frobnicate')", 2, 7),
    (CAT_M + "run { classify; }", "expected a name (found ';')", 2, 15),
    # a refused label or a one-object chain is named at its own token
    ("run { check foo P; }", "check knows wfs, premodel, weakmodel; got 'foo' (found 'foo')", 1, 13),
    ("run { localize up P at {f} mode L; }", "localize knows left and right; got 'up' (found 'up')", 1, 16),
    ("poset V {\n  a <= b;\n  x;\n}", "poset chains need at least two objects (found 'x')", 3, 3),
    # a repeated adjunction or cylinder name is refused at the second block
    (CAT_M + ADJ_A + ADJ_A, "duplicate name 'A'", 3, 1),
    (CAT_M + CYL_C + "\n  " + CYL_C, "duplicate name 'C'", 4, 3),
    # declared names share one namespace, and ``result`` names no block
    (CAT_M + ADJ_A + CYL_C.replace("C", "A", 1), "duplicate name 'A'", 3, 1),
    (PRE_P + "cylinder M { on: M; kind: identity; }", "duplicate name 'M'", 3, 1),
    ("poset result { x <= y; }\nrun { validate result; }", "reserved name 'result'", 1, 1),
    (CAT_M + CYL_C.replace("C", "result", 1), "reserved name 'result'", 2, 1),
    # a single-valued field is given once, and a refused kind is named at its token
    (CAT_M + "cylinder C { on: M; kind: identity; on: M; }",
     "duplicate cylinder field 'on' (found 'on')", 2, 37),
    (CAT_M + "cylinder C { kind: identity; on: M; kind: identity; }",
     "duplicate cylinder field 'kind' (found 'kind')", 2, 37),
    (CAT_M + "adjunction A {\n  left: M -> M { }\n  left: M -> M { }\n  right: M -> M { }\n}",
     "duplicate adjunction field 'left' (found 'left')", 4, 3),
    (CAT_M + "cylinder C {\n  on: M;\n  kind: strong;\n}",
     "unsupported cylinder kind 'strong' (found 'strong')", 4, 9),
    # a source is mapped once, also across a repeated field label
    (CAT_M + "adjunction A {\n  left: M -> M { objects: x -> x, x -> y, y -> y; }\n  right: M -> M { }\n}",
     "duplicate image for 'x' (found 'x')", 3, 35),
    (CAT_M + "adjunction A {\n  left: M -> M { } right: M -> M { }\n"
     "  unit: x -> id_x, y -> id_y;\n  unit: x -> f;\n}",
     "duplicate image for 'x' (found 'x')", 5, 9),
]


def test_parse_errors_are_pinned():
    for text, message, line, column in PARSE_ERRORS:
        with pytest.raises(ParseError) as err:
            load(text)
        got = (str(err.value), err.value.line, err.value.column)
        assert got == ("line %d, column %d: %s" % (line, column, message), line, column), text


# The words of the language, a few names, the punctuation, a comment sign,
# a line break and a stray character.
VOCABULARY = (
    "category poset premodel adjunction cylinder run thin on objects arrows "
    "relations cofibrations anodyne_cofibrations fibrations anodyne_fibrations "
    "all all_except generated ids left right unit counit kind identity validate "
    "check wfs premodel weakmodel saturate mode localize at by into hocat equiv "
    "classify dualize olschok seeds L Lc R Rc x y f id_x id_y M P C result "
    "{ } ; : , . = ( ) -> <= # $"
).split() + ["\n"]


@given(st.lists(st.sampled_from(VOCABULARY), max_size=40))
@settings(max_examples=1000, deadline=None)
def test_token_soup_loads_or_raises_a_parse_error(words):
    try:
        env = load(" ".join(words))
    except ParseError:
        return
    assert isinstance(env, Environment)


# The categories of the fuzz documents, each called G: a poset on up to four
# objects, a thin category with an isomorphism f: a -> b (with an object c
# below or above it, or none), and a bounded one-object category z -> x -> t
# whose endomorphism e of x is an idempotent or an involution.
BOUNDED = (
    "category G {\n  objects: z, x, t;\n  arrows: i: z -> x, e: x -> x, o: x -> t, zt: z -> t;\n"
    "  relations: e . e = %s, e . i = i, o . e = o, o . i = zt;\n}\n"
)
ISO_EXTRAS = {"none": "", "below": ", p: a -> c, q: b -> c", "above": ", p: c -> a, q: c -> b"}


@st.composite
def fuzz_categories(draw):
    """The text of a fuzz category, and whether it has the coproducts X ⊔ X an
    identity cylinder needs (the bounded categories have none)."""
    shape = draw(st.sampled_from(["poset", "iso", "bounded"]))
    if shape == "poset":
        objects = "abcd"[: draw(st.integers(2, 4))]
        pairs = [(x, y) for i, x in enumerate(objects) for y in objects[i + 1:]]
        chains = draw(st.lists(st.sampled_from(pairs), min_size=1, unique=True))
        return "poset G { %s }\n" % " ".join("%s <= %s;" % pair for pair in chains), True
    if shape == "iso":
        extra = draw(st.sampled_from(sorted(ISO_EXTRAS)))
        objects = "a, b" + (", c" if ISO_EXTRAS[extra] else "")
        arrows = "f: a -> b, g: b -> a" + ISO_EXTRAS[extra]
        return "category G thin { objects: %s; arrows: %s; }\n" % (objects, arrows), True
    return BOUNDED % draw(st.sampled_from(["e", "id_x"])), False


@st.composite
def fuzz_documents(draw):
    """A document on one fuzz category G: a premodel P with a random class
    expression for one class of each system, an identity cylinder C where G
    has the coproducts it needs (when drawn), and one to five random
    directives, whose arrows may include an unknown one."""
    category, has_pairs = draw(fuzz_categories())
    arrows = load(category).categories["G"].morphisms
    some = st.lists(st.sampled_from(arrows), min_size=1, max_size=3, unique=True)
    braces = some.map(lambda ms: "{%s}" % ", ".join(ms))
    expr = st.one_of(
        st.just("all"),
        st.just("{ids}"),
        braces.map("all_except ".__add__),
        braces.map("generated ".__add__),
        braces,
        some.map(lambda ms: "{ids, %s}" % ", ".join(ms)),
    )
    classes = [
        "%s: %s;" % (draw(st.sampled_from(pair)), draw(expr))
        for pair in (("cofibrations", "anodyne_fibrations"), ("anodyne_cofibrations", "fibrations"))
    ]
    cylinder = has_pairs and draw(st.booleans())
    arrow = st.sampled_from(arrows + ["zz"])
    target = st.sampled_from(["P", "P", "P", "result"])
    directive = st.one_of(
        st.sampled_from(["validate G", "validate P", "validate C", "validate result"]),
        st.tuples(st.sampled_from(["wfs", "premodel", "weakmodel"]), target).map(
            lambda a: "check %s %s" % a
        ),
        st.tuples(target, st.sampled_from(["L", "Lc", "R", "Rc"])).map(
            lambda a: "saturate %s mode %s" % a
        ),
        st.tuples(target, st.lists(arrow, min_size=1, max_size=2), st.sampled_from(["L", "Lc"])).map(
            lambda a: "localize left %s at {%s} mode %s" % (a[0], ", ".join(a[1]), a[2])
        ),
        st.tuples(st.sampled_from(["hocat", "classify", "dualize"]), target).map(" ".join),
        st.tuples(target, arrow).map(lambda a: "equiv %s %s" % a),
        st.tuples(target, st.lists(arrow, max_size=2)).map(
            lambda a: "olschok %s cylinder C%s" % (a[0], " seeds {%s}" % ", ".join(a[1]) if a[1] else "")
        ),
    )
    steps = draw(st.lists(directive, min_size=1, max_size=5))
    return "%spremodel P on G { %s }\n%srun { %s }\n" % (
        category,
        " ".join(classes),
        "cylinder C { on: G; kind: identity; }\n" if cylinder else "",
        " ".join(step + ";" for step in steps),
    )


@given(fuzz_documents())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_fuzzed_documents_end_in_a_documented_exit_code(tmp_path_factory, document):
    """``mclab run`` on a fuzz document raises nothing and exits 0, 1, 2 or 3,
    the same in text and in ``--json``, whose trees round-trip exactly."""
    path = tmp_path_factory.mktemp("fuzz") / "doc.mcl"
    path.write_text(document)
    codes, outputs = [], []
    for argv in (["run", str(path)], ["run", str(path), "--json"]):
        with contextlib.redirect_stdout(io.StringIO()) as out, contextlib.redirect_stderr(io.StringIO()):
            codes.append(main(argv))
        outputs.append(out.getvalue())
    assert codes[0] == codes[1] and codes[0] in (OK, CHECK_FAILED, BAD_INPUT, NO_CONSTRUCTION)
    if outputs[1]:
        payload = from_machine(outputs[1])
        assert to_machine(payload) == outputs[1]
        for tree in payload if isinstance(payload, list) else [payload]:
            assert from_machine(to_machine(tree)) == tree


def _cli(argv, capsys):
    """(exit code, stdout, stderr) of ``mclab argv``, usage errors included."""
    try:
        code = main(argv)
    except SystemExit as stop:
        code = stop.code
    out, err = capsys.readouterr()
    return code, out, err


# sha256 of ``mclab [COMMAND] --help`` at 80 columns
HELP_DIGESTS = {
    "": "aa3474ef40c3b26d525ba020c95c0f19b697db74f5eed1805799b5b7e2e7b9a9",
    "validate": "be6bb10d82a39610e6a63fbcb5ae5d3f7df787788c215090bbb4ce67fde2322c",
    "check": "8c9c905fb1ec6c8bbfa8b94f180765ab8ffcdefa1ec576e3c0bd0c2f6b173d86",
    "saturate": "710388019a244a05e9cf1afbc921c4ee41119f90ee2a0c3616c09327e7b95252",
    "localize": "becf065344449937549f588174e8755a5a7a237d17abca5480f29353ad198554",
    "hocat": "8d9819886d9a99fd08c9aa56fa4e3c9e8f619ed99c8eb906f2d41e6ee702ce72",
    "equiv": "fde842abc36564687be7f142518f1d1995e77d73d26b2eb443536ca140d82e1c",
    "classify": "ef3cf549590f5c293d8906e40cc289fda4ff710eefc8cca06cf56c6e7535ec60",
    "dualize": "b531ad502c34bb6ebd977be79f6f7023e29137c67a7028c76923875872888c43",
    "olschok": "b421cd8d12068eff35a67e298af08e71b93c93521b5024bf9883fe49e462851a",
    "run": "d9bf14fb91ee233b392a5611723d700ed6a5a008757173490d367236605711d3",
}

# stderr of ``mclab [COMMAND]`` with no further argument, at 80 columns
USAGE_ERRORS = {
    "": "usage: mclab [-h]\n"
    "             {validate,check,saturate,localize,hocat,equiv,classify,dualize,olschok,run}\n"
    "             ...\n"
    "mclab: error: the following arguments are required: command\n",
    "validate": "usage: mclab validate [-h] [--json] file [name]\n"
    "mclab validate: error: the following arguments are required: file\n",
    "check": "usage: mclab check [-h] [--json] {wfs,premodel,weakmodel} file name\n"
    "mclab check: error: the following arguments are required: what, file, name\n",
    "saturate": "usage: mclab saturate [-h] [--json] --mode {L,Lc,R,Rc} file name\n"
    "mclab saturate: error: the following arguments are required: file, name, --mode\n",
    "localize": "usage: mclab localize [-h] [--at AT] [--by BY] [--into INTO] --mode\n"
    "                      {L,Lc,R,Rc} [--json]\n"
    "                      {left,right} file name\n"
    "mclab localize: error: the following arguments are required: side, file, name, --mode\n",
    "hocat": "usage: mclab hocat [-h] [--json] file name\n"
    "mclab hocat: error: the following arguments are required: file, name\n",
    "equiv": "usage: mclab equiv [-h] [--json] file name arrow\n"
    "mclab equiv: error: the following arguments are required: file, name, arrow\n",
    "classify": "usage: mclab classify [-h] [--json] file name\n"
    "mclab classify: error: the following arguments are required: file, name\n",
    "dualize": "usage: mclab dualize [-h] [--json] file name\n"
    "mclab dualize: error: the following arguments are required: file, name\n",
    "olschok": "usage: mclab olschok [-h] [--json] --cylinder CYLINDER [--seeds SEEDS]\n"
    "                     file name\n"
    "mclab olschok: error: the following arguments are required: file, name, --cylinder\n",
    "run": "usage: mclab run [-h] [--json] file\n"
    "mclab run: error: the following arguments are required: file\n",
}


def test_cli_help_and_usage_errors_are_pinned(monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    assert HELP_DIGESTS.keys() == USAGE_ERRORS.keys()
    for command in HELP_DIGESTS:
        code, out, err = _cli(command.split() + ["--help"], capsys)
        assert (code, _sha256(out), err) == (0, HELP_DIGESTS[command], ""), command
        assert _cli(command.split(), capsys) == (2, "", USAGE_ERRORS[command]), command


def test_localize_options_are_checked_before_the_file_is_read(tmp_path, capsys):
    missing = str(tmp_path / "missing.mcl")
    for at in ([], ["--at", ""], ["--at", " , "], ["--at", ","]):
        assert _cli(["localize", "left", missing, "P", "--mode", "L"] + at, capsys) == (
            BAD_INPUT, "", "localize left needs --at\n",
        )
    for extra in ([], ["--by", "A"], ["--into", "Q"]):
        assert _cli(["localize", "right", missing, "P", "--mode", "R"] + extra, capsys) == (
            BAD_INPUT, "", "localize right needs --by and --into\n",
        )
    # a flag of the other side is refused, not ignored, even when empty
    left = ["localize", "left", missing, "P", "--mode", "L", "--at", "f"]
    for stray in (["--by", "A"], ["--into", "Q"], ["--by", ""], ["--by", "A", "--into", "Q"]):
        assert _cli(left + stray, capsys) == (
            BAD_INPUT, "", "localize left takes no --by or --into\n",
        )
    right = ["localize", "right", missing, "P", "--mode", "R", "--by", "A", "--into", "Q"]
    for stray in (["--at", "f"], ["--at", ""]):
        assert _cli(right + stray, capsys) == (BAD_INPUT, "", "localize right takes no --at\n")
