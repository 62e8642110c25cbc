import hashlib
import json
from pathlib import Path

import pytest

import mclab.parser
from mclab import fixtures
from mclab.cli import main
from mclab.errors import ParseError
from mclab.fincat import same_presentation
from mclab.parser import load, parse
from mclab.premodel import same_classes
from mclab.report import check_tree, from_machine, to_machine, to_text
from mclab.run import (
    BAD_INPUT,
    CHECK_FAILED,
    INTERNAL,
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


NOT_A_PREMODEL = BARTON_POSET + """
premodel P on barton {
  cofibrations: {ids, ab};
  anodyne_fibrations: all;
  anodyne_cofibrations: all;
  fibrations: {ids};
}
"""


def test_internal_error_exit_code(tmp_path, capsys):
    # not a premodel: saturation breaks an internal cross-check
    doc = tmp_path / "broken.mcl"
    doc.write_text(NOT_A_PREMODEL + "run { check premodel P; saturate P mode L; }\n")
    assert main(["run", str(doc), "--json"]) == INTERNAL
    check, saturate = json.loads(capsys.readouterr().out)
    assert check["directive"] == "check premodel P" and check["ok"] is False
    assert saturate["directive"] == "saturate P mode L"
    assert saturate["error"]["kind"] == "internal"
    assert saturate["error"]["message"]
    assert main(["saturate", str(doc), "P", "--mode", "L"]) == INTERNAL


def test_hocat_and_equiv_need_a_premodel(tmp_path, capsys):
    doc = tmp_path / "broken.mcl"
    doc.write_text(NOT_A_PREMODEL + "run { hocat P; }\n")
    assert main(["run", str(doc), "--json"]) == BAD_INPUT
    hocat = json.loads(capsys.readouterr().out)
    assert hocat["error"] == {
        "kind": "input",
        "message": "P is not a premodel: (C, AF): no lift of ab against ad",
    }
    env = load(NOT_A_PREMODEL + "run { equiv P ab; }\n")
    assert run_directives(env, env.directives).code == BAD_INPUT
    assert main(["hocat", str(doc), "P"]) == BAD_INPUT
    assert main(["equiv", str(doc), "P", "ab"]) == BAD_INPUT
    assert "not a premodel" in capsys.readouterr().out


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
