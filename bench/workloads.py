"""Inputs, passes and correctness checks of the three benchmark workloads.

Every input is built from plain data (poset specs, arrow lists, document
texts) stored in ``reference.json``; the run seed only chooses which pool
entries a run uses.  The engine is reached through the ``mclab`` package
object handed in by the caller, so a traced run sees the same calls.

A pass runs every input once.  Only the engine call of each operation is
timed; building the expected answer and comparing it happen outside.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import os
import random
import time

WORKLOADS = ("ladder", "census", "pipeline")

# Independent answers, not derived from the engine under test.  WFS on the
# chain with n objects are counted by Catalan(n) (Balchin-Ormsby-Osorno-
# Roitzheim, arXiv:2109.07803); the premodel splits are the published
# census of the two small examples.
CATALAN_WFS = {"chain2": 2, "chain3": 5, "chain4": 14, "chain5": 42}
BARTON_WFS = 10
PREMODEL_SPLITS = {
    "chain3": {
        "Quillen model structure": 10,
        "two-sided weak model (not Quillen)": 1,
        "left semi-model (Fresse)": 1,
        "right semi-model (Fresse)": 1,
    },
    "barton": {
        "Quillen model structure": 23,
        "two-sided weak model (not Quillen)": 11,
        "left semi-model (Fresse)": 5,
        "right semi-model (Fresse)": 5,
    },
}

LADDER_RUNGS = (("chain", 6), ("chain", 8), ("chain", 10), ("boolean", 3), ("boolean", 4))
LADDER_PICKS = 6      # generated structures per rung, one per cost band
CENSUS_ENUMERATE = (("chain", 2), ("chain", 3), ("chain", 4), ("chain", 5), ("barton",))
CENSUS_CLASSIFY = (("chain", 3), ("barton",), ("chain", 4))
PIPELINE_PICKS = 96   # generated documents per run, spread evenly over cost bands
PIPELINE_BANDS = 8


# -- categories -------------------------------------------------------------


def spec_name(spec):
    if spec[0] == "chain":
        return "chain%d" % spec[1]
    if spec[0] == "boolean":
        return "B%d" % spec[1]
    return spec[0]


def build_category(mclab, spec):
    """A fresh category instance, so that no pass inherits another's caches."""
    kind = spec[0]
    if kind == "chain":
        objs = [chr(ord("a") + i) for i in range(spec[1])]
        le = [(objs[i + 1], objs[i]) for i in range(len(objs) - 1)]
        return mclab.poset_category(spec_name(spec), objs, le)
    if kind == "boolean":
        n = spec[1]
        objs = ["".join("1" if s >> i & 1 else "0" for i in range(n)) for s in range(2 ** n)]
        le = [
            (objs[s], objs[s | 1 << i]) for s in range(2 ** n) for i in range(n) if not s >> i & 1
        ]
        return mclab.poset_category(spec_name(spec), objs, le)
    if kind == "barton":
        return mclab.fixtures.barton()
    raise ValueError("unknown category spec %r" % (spec,))


def build_premodel(mclab, cat, classes, name):
    c, af, ac, f = classes
    return mclab.PremodelStructure(
        cat=cat,
        cofibrations=frozenset(c),
        anodyne_fibrations=frozenset(af),
        anodyne_cofibrations=frozenset(ac),
        fibrations=frozenset(f),
        name=name,
    )


# -- verdicts ---------------------------------------------------------------


def _arrows(cat, ms):
    return None if ms is None else cat.sort_morphisms(ms)


def classification_verdict(cat, rep):
    """The parts of a ``classify_full`` report a user reads: summary, every
    rung's flags and the equivalence, WL and WR classes.  Failure texts are
    left out, so rewording a witness is not a wrong verdict."""
    def fields(obj, names):
        return None if obj is None else {n: getattr(obj, n) for n in names}

    return {
        "summary": rep.summary,
        "premodel": rep.premodel.ok,
        "saturation": None if rep.flags is None else dataclasses.asdict(rep.flags),
        "weak_model": fields(
            rep.weak_model,
            ("ok", "cylinder_axiom", "path_axiom", "alt_criterion", "dual_alt_criterion"),
        ),
        "left_semi": fields(rep.left_semi, ("fresse", "spitzweck")),
        "right_semi": fields(rep.right_semi, ("fresse", "spitzweck")),
        "two_sided": fields(rep.two_sided, ("ok",)),
        "quillen": fields(rep.quillen, ("ok",)),
        "equivalences": _arrows(cat, rep.equivalences),
        "wl": _arrows(cat, rep.wl),
        "wr": _arrows(cat, rep.wr),
    }


def digest(obj):
    text = obj if isinstance(obj, str) else json.dumps(obj, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


class Tally:
    """Operations attempted and the names of those that failed.

    A failure is a verdict or count that differs from the reference, a report
    that is not byte-identical, an unexpected exit code, or any exception.
    """

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def check(self, name, ok, exc=None):
        """Count one operation; a failure is named, with its exception if any."""
        self.attempted += 1
        if not ok:
            self.failures.append(name if exc is None else "%s: %s: %s" % (name, type(exc).__name__, exc))
        return ok

    @property
    def failed(self):
        return len(self.failures)

    @property
    def failed_share(self):
        return self.failed / self.attempted if self.attempted else 0.0


class TimeUp(Exception):
    """The run's measuring time ended in the middle of a pass."""


class PassResult:
    """Seconds of the operations of one pass, in input order, as
    (seconds, in phase, is verdict).  With a deadline the pass stops at the
    first operation that would start after it; the operations done so far
    still count."""

    def __init__(self, deadline=None):
        self.ops = []
        self.deadline = deadline

    def run(self, phase, verdict, call, *args):
        """(result, exception) of one timed engine call; an exception is a
        failed operation, not an abort."""
        if self.deadline is not None and time.perf_counter() >= self.deadline:
            raise TimeUp()
        out = exc = None
        t0 = time.perf_counter()
        try:
            out = call(*args)
        except Exception as e:  # any engine error is a failed operation, named in the tally
            exc = e
        self.ops.append((time.perf_counter() - t0, phase, verdict))
        return out, exc

    def total(self):
        return sum(t for t, _, _ in self.ops)


# -- seeded choice ------------------------------------------------------------


def pick_banded(rng, pool, picks, bands):
    """``picks`` pool indices, the same number from each cost band.

    The pool is sorted by the cost measured when it was recorded, so every
    seed gets a different selection with the same spread of sizes.
    """
    order = sorted(range(len(pool)), key=lambda i: (pool[i]["cost_s"], i))
    width = len(order) / bands
    chosen = []
    for b in range(bands):
        band = order[round(b * width):round((b + 1) * width)]
        chosen.extend(rng.sample(band, picks // bands))
    return chosen


# -- ladder -------------------------------------------------------------------


def ladder_inputs(ref, seed):
    rng = random.Random("ladder:%d" % seed)
    out = []
    for spec in LADDER_RUNGS:
        rung = ref["ladder"][spec_name(spec)]
        items = [("%s/trivial" % spec_name(spec), None, rung["trivial"])]
        for i in pick_banded(rng, rung["pool"], LADDER_PICKS, LADDER_PICKS):
            entry = rung["pool"][i]
            items.append(("%s/g%d" % (spec_name(spec), i), entry["classes"], entry["verdict"]))
        out.append((spec, items))
    return out


def ladder_build(mclab, inputs):
    """Fresh categories and structures for one pass; one instance per rung."""
    built = []
    for spec, items in inputs:
        cat = build_category(mclab, spec)
        for name, classes, expected in items:
            p = (
                mclab.fixtures.trivial_premodel(cat, name)
                if classes is None
                else build_premodel(mclab, cat, classes, name)
            )
            built.append((spec, name, cat, p, expected))
    return built


def ladder_pass(mclab, built, tally, res):
    top = LADDER_RUNGS[-1]
    for spec, name, cat, p, expected in built:
        rep, exc = res.run(spec == top, True, mclab.classify_full, p)
        tally.check(name, exc is None and digest(classification_verdict(cat, rep)) == expected["digest"], exc)
    return res


# -- census -------------------------------------------------------------------


def census_inputs(ref, seed):
    """Exhaustive inputs; the seed only shuffles the order they run in."""
    rng = random.Random("census:%d" % seed)
    enumerate_order = []
    for spec in CENSUS_ENUMERATE:
        n_arrows = len(ref["census"]["wfs"][spec_name(spec)]["arrows"])
        masks = list(range(2 ** n_arrows))
        rng.shuffle(masks)
        enumerate_order.append((spec, masks))
    classify_order = []
    for spec in CENSUS_CLASSIFY:
        entries = list(enumerate(ref["census"]["premodels"][spec_name(spec)]))
        rng.shuffle(entries)
        classify_order.append((spec, entries))
    return enumerate_order, classify_order


def census_build(mclab, ref, inputs):
    enumerate_order, classify_order = inputs
    enum = [(spec, build_category(mclab, spec), masks) for spec, masks in enumerate_order]
    classify = []
    for spec, entries in classify_order:
        cat = build_category(mclab, spec)
        for i, entry in entries:
            name = "%s/p%d" % (spec_name(spec), i)
            classify.append((spec, name, cat, build_premodel(mclab, cat, entry["classes"], name), entry))
    return enum, classify


def enumerate_wfs(mclab, cat, masks):
    """Brute force over generator subsets: (llp(rlp S), rlp S) for every S,
    kept when every arrow factors."""
    arrows = cat.morphisms
    seen = {}
    for mask in masks:
        gens = [arrows[i] for i in range(len(arrows)) if mask >> i & 1]
        right = mclab.complement_rlp(cat, gens)
        left = mclab.complement_llp(cat, right)
        if left in seen:
            continue
        seen[left] = right if all(mclab.factor(cat, left, right, h) is not None for h in arrows) else None
    return {left: right for left, right in seen.items() if right is not None}


def wfs_key(cat, left):
    return ",".join(cat.sort_morphisms(left))


def census_pass(mclab, ref, built, tally, res, keep=None):
    enum, classify = built
    for spec, cat, masks in enum:
        name = spec_name(spec)
        found, exc = res.run(True, False, enumerate_wfs, mclab, cat, masks)
        expected = ref["census"]["wfs"][name]
        ok = exc is None and sorted(wfs_key(cat, left) for left in found) == expected["left_classes"]
        count = CATALAN_WFS.get(name, BARTON_WFS)
        tally.check("census/wfs/%s" % name, ok and len(found) == count, exc)
    summaries = {}
    for spec, name, cat, p, entry in classify:
        rep, exc = res.run(False, True, mclab.classify_full, p)
        ok = exc is None and digest(classification_verdict(cat, rep)) == entry["verdict"]["digest"]
        tally.check(name, ok, exc)
        if rep is not None:
            counts = summaries.setdefault(spec_name(spec), {})
            counts[rep.summary] = counts.get(rep.summary, 0) + 1
            if keep is not None:
                keep.append((name, p, rep))
    for cat_name, split in PREMODEL_SPLITS.items():
        tally.check("census/split/%s" % cat_name, summaries.get(cat_name) == split)
    return res


def census_oracle_check(bruteforce, kept, tally):
    """Weak-model rung of every census structure against the brute-force
    oracle of the test suite.  Runs once, outside the timed passes."""
    for name, p, rep in kept:
        engine = rep.weak_model is not None and rep.weak_model.ok
        tally.check("%s/oracle" % name, engine == bruteforce.weak_model(p))


# -- pipeline -------------------------------------------------------------------


def shipped_documents(root):
    data = os.path.join(root, "src", "mclab", "data")
    return sorted(f for f in os.listdir(data) if f.endswith(".mcl"))


def pipeline_inputs(ref, root, seed):
    """(name, path, text, json flag, expected) for every document a pass runs;
    a generated document has a text and no path until it is written."""
    rng = random.Random("pipeline:%d" % seed)
    out = []
    data = os.path.join(root, "src", "mclab", "data")
    for fname in shipped_documents(root):
        for as_json in (False, True):
            mode = "json" if as_json else "text"
            expected = ref["pipeline"]["shipped"].get(fname, {}).get(mode)
            out.append(("%s/%s" % (fname, mode), os.path.join(data, fname), None, as_json, expected))
    pool = ref["pipeline"]["pool"]
    for i in pick_banded(rng, pool, PIPELINE_PICKS, PIPELINE_BANDS):
        as_json = rng.random() < 0.5
        mode = "json" if as_json else "text"
        out.append(("gen%03d/%s" % (i, mode), None, pool[i]["document"], as_json, pool[i][mode]))
    return out


def pipeline_build(inputs, workdir):
    """Write the generated documents; returns (name, path, json, expected)."""
    os.makedirs(workdir, exist_ok=True)
    built = []
    for name, path, text, as_json, expected in inputs:
        if text is not None:
            path = os.path.join(workdir, name.split("/")[0] + ".mcl")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        built.append((name, path, as_json, expected))
    return built


def run_document(cli, path, as_json):
    """In-process ``mclab run``: (exit code, stdout) with both streams captured."""
    out, err = io.StringIO(), io.StringIO()
    argv = ["run", path] + (["--json"] if as_json else [])
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def pipeline_pass(cli, built, tally, res, keep=None):
    for name, path, as_json, expected in built:
        got, exc = res.run(not name.startswith("gen"), True, run_document, cli, path, as_json)
        ok = (
            exc is None
            and expected is not None
            and got[0] == expected["code"]
            and digest(got[1]) == expected["digest"]
        )
        tally.check(name, ok, exc)
        if keep is not None and got is not None:
            keep[name] = got
    return res


def readme_check(outputs, tally):
    """README's hand-written story for barton.mcl: P0 is Quillen, its left
    localization at ac is a two-sided weak model that is not Quillen, and ac
    became an equivalence; the run exits 0."""
    got = outputs.get("barton.mcl/json")
    ok = False
    if got is not None and got[0] == 0:
        trees = json.loads(got[1])
        ok = (
            len(trees) == 4
            and trees[0].get("summary") == "Quillen model structure"
            and trees[1].get("directive", "").startswith("localize left P0")
            and trees[2].get("summary") == "two-sided weak model (not Quillen)"
            and trees[3].get("arrow") == "ac"
            and trees[3].get("equivalence") is True
        )
    tally.check("barton.mcl/readme", ok)
