"""The benchmark's checker must count mistakes as failed operations.

    python3 -m pytest bench/test_bench.py
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads as wl  # noqa: E402
from run import import_mclab  # noqa: E402


def _classify_verdict(mclab, p):
    return {"digest": wl.digest(wl.classification_verdict(p.cat, mclab.classify_full(p)))}


def test_wrong_verdict_and_altered_byte_count_as_failures(tmp_path):
    mclab, cli = import_mclab(ROOT)
    tally = wl.Tally()

    cat = mclab.fixtures.barton()
    p0, p1 = mclab.fixtures.barton_p0(cat), mclab.fixtures.barton_p1(cat)
    right = _classify_verdict(mclab, p0)
    wrong = _classify_verdict(mclab, p1)  # P1's verdict offered as P0's
    built = [(("barton",), "p0/right", cat, p0, right), (("barton",), "p0/wrong", cat, p0, wrong)]
    wl.ladder_pass(mclab, built, tally, wl.PassResult())

    path = os.path.join(ROOT, "src", "mclab", "data", "barton.mcl")
    code, out = wl.run_document(cli, path, True)
    altered = out[:100] + chr(ord(out[100]) ^ 1) + out[101:]
    docs = [
        ("barton/right", path, True, {"code": code, "digest": wl.digest(out)}),
        ("barton/altered", path, True, {"code": code, "digest": wl.digest(altered)}),
    ]
    wl.pipeline_pass(cli, docs, tally, wl.PassResult())

    assert tally.attempted == 4
    assert tally.failures == ["p0/wrong", "barton/altered"]
    assert tally.failed_share == 0.5


def test_exception_counts_as_failure():
    mclab, cli = import_mclab(ROOT)
    tally = wl.Tally()
    cat = mclab.fixtures.discrete2()
    p = mclab.fixtures.trivial_premodel(cat)
    # An arrow the category does not have makes classify_full raise.
    broken = mclab.PremodelStructure(cat, {"nope"}, set(), set(), set(), name="broken")
    built = [(("discrete2",), "ok", cat, p, _classify_verdict(mclab, p)),
             (("discrete2",), "broken", cat, broken, {"digest": ""})]
    wl.ladder_pass(mclab, built, tally, wl.PassResult())
    assert len(tally.failures) == 1 and tally.failures[0].startswith("broken: InputError")
