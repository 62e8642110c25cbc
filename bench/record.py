"""Record the reference answers the benchmark checks against.

    python3 bench/record.py

Generates the input pools from fixed pool seeds, cross-checks the generated
classes and the WFS census against the brute-force oracle in
``tests/bruteforce.py`` and against the Catalan counts, runs every input once
through the current engine, and writes ``bench/reference.json``: the inputs,
each input's verdict digest and exit code, and the cost that orders the pools
into bands.  Run it only on a commit whose answers are to become the
reference; a run seed later only picks entries from these pools.
"""

from __future__ import annotations

import json
import os
import random
import sys
import time
import types

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads as wl  # noqa: E402
from run import import_bruteforce, import_mclab  # noqa: E402

LADDER_POOL = 24
PIPELINE_POOL = 320


def _sorted(cat, ms):
    return cat.sort_morphisms(ms)


def _cost(fn, *args, repeat=3):
    best = None
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn(*args)
        dt = time.perf_counter() - t0
        best = dt if best is None else min(best, dt)
    return best


def _oracle_classes(bf, cat, gens):
    """(llp(rlp(gens)), rlp(gens)) by direct quantification in the oracle."""
    af = bf.rlp_class(cat, gens)
    return bf.llp_class(cat, af), af


def _verdict(mclab, cat, p):
    rep = mclab.classify_full(p)
    return {"summary": rep.summary, "digest": wl.digest(wl.classification_verdict(cat, rep))}


def record_ladder(mclab, bf):
    out = {}
    for spec in wl.LADDER_RUNGS:
        name = wl.spec_name(spec)
        cat = wl.build_category(mclab, spec)
        trivial = _verdict(mclab, cat, mclab.fixtures.trivial_premodel(cat, name + "/trivial"))
        nonid = [m for m in cat.morphisms if not cat.is_identity(m)]
        ids = set(cat.identities.values())
        pool, seen, k = [], set(), 0
        while len(pool) < LADDER_POOL:
            rng = random.Random("ladder-pool:%s:%d" % (name, k))
            k += 1
            gens = rng.sample(nonid, 2)
            c, af = _oracle_classes(bf, cat, gens)
            inside = _sorted(cat, c - ids)
            sub = rng.sample(inside, min(len(inside), rng.randint(0, 2)))
            ac, f = _oracle_classes(bf, cat, sub)
            classes = [_sorted(cat, x) for x in (c, af, ac, f)]
            key = json.dumps(classes)
            if key in seen:
                continue
            seen.add(key)
            fresh = wl.build_category(mclab, spec)
            p = wl.build_premodel(mclab, fresh, classes, "%s/g%d" % (name, len(pool)))
            verdict = _verdict(mclab, fresh, p)
            cost = _cost(
                lambda: mclab.classify_full(
                    wl.build_premodel(mclab, wl.build_category(mclab, spec), classes, "cost")
                )
            )
            pool.append(
                {"generators": gens, "anodyne_generators": sub, "classes": classes,
                 "verdict": verdict, "cost_s": round(cost, 4)}
            )
        out[name] = {"trivial": trivial, "pool": pool}
        print("ladder", name, trivial["summary"], len(pool), file=sys.stderr)
    return out


def record_census(mclab, bf):
    wfs = {}
    systems = {}
    for spec in wl.CENSUS_ENUMERATE:
        name = wl.spec_name(spec)
        cat = wl.build_category(mclab, spec)
        found = wl.enumerate_wfs(mclab, cat, range(2 ** len(cat.morphisms)))
        for left, right in found.items():
            if bf.llp_class(cat, right) != left or bf.rlp_class(cat, left) != right:
                raise SystemExit("%s: engine and oracle disagree on a WFS" % name)
            if any(not bf.factorizations(cat, left, right, h) for h in cat.morphisms):
                raise SystemExit("%s: oracle finds an arrow that does not factor" % name)
        expected = wl.CATALAN_WFS.get(name, wl.BARTON_WFS)
        if len(found) != expected:
            raise SystemExit("%s: %d WFS, expected %d" % (name, len(found), expected))
        wfs[name] = {
            "arrows": list(cat.morphisms),
            "left_classes": sorted(wl.wfs_key(cat, left) for left in found),
        }
        systems[name] = sorted(
            ((_sorted(cat, l), _sorted(cat, r)) for l, r in found.items()), key=json.dumps
        )
    premodels = {}
    for spec in wl.CENSUS_CLASSIFY:
        name = wl.spec_name(spec)
        cat = wl.build_category(mclab, spec)
        entries = []
        for c, af in systems[name]:
            for ac, f in systems[name]:
                if set(ac) <= set(c):
                    classes = [c, af, ac, f]
                    p = wl.build_premodel(mclab, cat, classes, "%s/p%d" % (name, len(entries)))
                    entries.append({"classes": classes, "verdict": _verdict(mclab, cat, p)})
        premodels[name] = entries
        print("census", name, len(entries), file=sys.stderr)
    return {"wfs": wfs, "premodels": premodels}


def generate_document(mclab, bf, rng, index):
    """A poset block, a premodel with generated classes and a run block.

    ``equiv`` is only asked of arrows whose endpoints the oracle finds
    cofibrant or fibrant, where the question is defined.
    """
    n = rng.randint(3, 5)
    objs = [chr(ord("a") + i) for i in range(n)]
    middle = objs[1:-1]
    le = [(objs[-1], x) for x in middle] + [(x, objs[0]) for x in middle]
    le += [(y, x) for i, x in enumerate(middle) for y in middle[i + 1:] if rng.random() < 0.35]
    if not middle:
        le = [(objs[-1], objs[0])]
    cat = mclab.poset_category("G", objs, le)
    nonid = [m for m in cat.morphisms if not cat.is_identity(m)]
    gens = rng.sample(nonid, rng.randint(1, 2))
    sub = rng.sample(gens, rng.randint(0, len(gens)))
    c, _ = _oracle_classes(bf, cat, gens)
    ac, f = _oracle_classes(bf, cat, sub)
    p = types.SimpleNamespace(cat=cat, cofibrations=c, fibrations=f)
    defined = bf.cofibrant_set(p) | bf.fibrant_set(p)
    cf = [m for m in nonid if cat.source[m] in defined and cat.target[m] in defined]

    lines = ["# generated document %d" % index, "poset G {"]
    lines += ["  %s <= %s;" % pair for pair in le]
    lines += ["}", "", "premodel P on G {"]
    lines.append("  cofibrations: generated {%s};" % ", ".join(gens))
    lines.append(
        "  anodyne_cofibrations: %s;" % ("generated {%s}" % ", ".join(sub) if sub else "{ids}")
    )
    lines += ["}", "", "run {"]
    if cf:
        lines.append("  equiv P %s;" % rng.choice(cf))
    lines.append("  localize left P at {%s} mode %s;" % (rng.choice(nonid), rng.choice(["L", "Lc"])))
    lines.append("  saturate result mode %s;" % rng.choice(["L", "Lc", "R", "Rc"]))
    lines.append("  dualize result;")
    lines.append("  check weakmodel result;")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _outcome(cli, path, as_json):
    try:
        code, out = wl.run_document(cli, path, as_json)
    except Exception as exc:
        return {"code": None, "digest": None, "exception": type(exc).__name__}
    return {"code": code, "digest": wl.digest(out)}


def record_pipeline(mclab, cli, bf, workdir):
    data = os.path.join(ROOT, "src", "mclab", "data")
    shipped = {}
    for fname in wl.shipped_documents(ROOT):
        path = os.path.join(data, fname)
        shipped[fname] = {"text": _outcome(cli, path, False), "json": _outcome(cli, path, True)}
    pool = []
    os.makedirs(workdir, exist_ok=True)
    for i in range(PIPELINE_POOL):
        text = generate_document(mclab, bf, random.Random("pipeline-pool:%d" % i), i)
        path = os.path.join(workdir, "gen%03d.mcl" % i)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        entry = {
            "document": text,
            "text": _outcome(cli, path, False),
            "json": _outcome(cli, path, True),
            "cost_s": round(_cost(wl.run_document, cli, path, False), 5),
        }
        os.remove(path)
        pool.append(entry)
    os.rmdir(workdir)
    codes = {}
    for e in pool:
        key = e["text"].get("exception", e["text"]["code"])
        codes[key] = codes.get(key, 0) + 1
    print("pipeline pool outcomes", codes, file=sys.stderr)
    return {"shipped": shipped, "pool": pool}


def main():
    mclab, cli = import_mclab(ROOT)
    bf = import_bruteforce(ROOT)
    ref = {
        "ladder": record_ladder(mclab, bf),
        "census": record_census(mclab, bf),
        "pipeline": record_pipeline(mclab, cli, bf, os.path.join(HERE, "_work", "record")),
    }
    with open(os.path.join(HERE, "reference.json"), "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
