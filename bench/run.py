"""mclab benchmark: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload ladder|census|pipeline --seed N \\
        --seconds S --trace 0|1

Run from the root of a source checkout; the engine is imported from
``src/`` of that checkout.  Single process, single thread, stdlib only.

Workloads (inputs and reference answers in ``bench/reference.json``):

* ``ladder``   -- ``classify_full`` on chains of 6, 8, 10 objects and the
  boolean lattices B3, B4: the trivial premodel plus six seeded generated
  premodels per rung, all sharing the rung's category instance.  Not listed
  in ``BENCHMARK.json``: with 35 verdicts of up to 3 s, a run holds two
  passes, and on a 2-vCPU virtual machine its times moved by 20-28% from
  run to run.
* ``census``   -- brute-force WFS enumeration over every generator subset
  on chains of 2-5 objects and barton, then ``classify_full`` on all 125
  premodels of chain3, barton and chain4.
* ``pipeline`` -- in-process ``mclab run`` on the six shipped documents in
  text and ``--json`` mode, plus 96 seeded generated documents.

A pass runs every input of the workload once, on fresh category instances,
and times each engine call.  Passes repeat until ``--seconds`` is used up;
the last one may stop part way.  An operation's time is its median over the
passes that reached it.  End-to-end metrics (``--trace 0``), all
lower-is-better:

* ``setup_s``       median of five set-ups: a fresh import of ``mclab`` and
                    building one pass's inputs (engine objects, or document
                    files on ``pipeline``).
* ``wall_s``        one pass: the sum of the operation times.
* ``verdict_p50_s`` / ``verdict_p90_s``  median and 90th percentile of the
                    verdict times.  A verdict is one ``classify_full`` on
                    ``ladder``/``census`` and one document on ``pipeline``;
                    the record line gives their number.
* ``phase_s``       the workload's own phase: the largest rung B4 on
                    ``ladder`` (``top_rung_s``), the WFS enumeration on
                    ``census`` (``enumerate_s``), the shipped documents on
                    ``pipeline``.
* ``peak_rss_mib``  peak resident memory of the process.

With ``--trace 1`` the run alternates whole plain and traced passes; the
metrics are the per-layer counts and self times of ``tracing.py`` plus
``trace_overhead_s``, the traced minus the plain pass time.  The spans of
the first traced pass are written to ``bench/_out/``.

Every operation is checked against the reference; a wrong verdict, a report
that is not byte-identical, an unexpected exit code or any exception counts
in ``failed``.  The line before the result is a JSON record of the seed,
the input digest, the failing inputs, ``failed_share``, the sample counts,
the pass times and the machine (cpu count and model, Python, load average
at start and end, and whether the load marks it busy).
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads as wl  # noqa: E402

SETUP_REPEATS = 5
BUSY_LOAD_PER_CPU = 0.75  # one-minute load above this share of the cpus marks a busy machine


def import_mclab(root):
    """A fresh import of ``mclab`` from ``<root>/src``, refusing any other copy."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "mclab", "__init__.py")):
        raise SystemExit("bench: no mclab sources under %s" % src)
    for name in [n for n in sys.modules if n == "mclab" or n.startswith("mclab.")]:
        del sys.modules[name]
    if sys.path[0] != src:
        sys.path.insert(0, src)
    mclab = importlib.import_module("mclab")
    cli = importlib.import_module("mclab.cli")
    if not os.path.abspath(mclab.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit("bench: imported mclab from %s, not from %s" % (mclab.__file__, src))
    return mclab, cli


def import_bruteforce(root):
    path = os.path.join(root, "tests", "bruteforce.py")
    spec = importlib.util.spec_from_file_location("bench_bruteforce", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def machine():
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        model = platform.processor()
    return {"nproc": os.cpu_count(), "cpu_model": model, "python": platform.python_version()}


class Workload:
    """Binds one workload's input, build and pass functions to a run."""

    def __init__(self, name, ref, root, seed, workdir):
        self.name, self.ref, self.root, self.workdir = name, ref, root, workdir
        if name == "ladder":
            self.inputs = wl.ladder_inputs(ref, seed)
        elif name == "census":
            self.inputs = wl.census_inputs(ref, seed)
        else:
            self.inputs = wl.pipeline_inputs(ref, root, seed)

    def build(self, mclab):
        if self.name == "ladder":
            return wl.ladder_build(mclab, self.inputs)
        if self.name == "census":
            return wl.census_build(mclab, self.ref, self.inputs)
        return wl.pipeline_build(self.inputs, self.workdir)

    def run_pass(self, mclab, cli, built, tally, res, keep=None):
        if self.name == "ladder":
            return wl.ladder_pass(mclab, built, tally, res)
        if self.name == "census":
            return wl.census_pass(mclab, self.ref, built, tally, res, keep)
        return wl.pipeline_pass(cli, built, tally, res, keep)

    def input_digest(self):
        return wl.digest(json.dumps(self.inputs, sort_keys=True, default=list))


def per_operation(passes):
    """(median seconds over the passes that reached it, in phase, is verdict)
    for every operation of a pass."""
    return [
        (statistics.median(p.ops[i][0] for p in passes if i < len(p.ops)), phase, verdict)
        for i, (_, phase, verdict) in enumerate(passes[0].ops)
    ]


def p90(values):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def measure(work, seconds, trace, root, seed):
    """Set up, run passes for ``seconds``, check; returns (metrics, details, tally)."""
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        mclab, cli = import_mclab(root)
        built = work.build(mclab)
        setups.append(time.perf_counter() - t0)

    tally = wl.Tally()
    plain, traced = [], []
    keep = [] if work.name == "census" else {}
    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer()
    deadline = time.perf_counter() + seconds
    while True:
        if tracer is not None and len(traced) < len(plain):
            tracer.install()
            try:
                traced.append(work.run_pass(mclab, cli, built, tally, wl.PassResult()))
            finally:
                tracer.uninstall()
        elif not plain:
            plain.append(work.run_pass(mclab, cli, built, tally, wl.PassResult(), keep))
        else:
            # Plain passes after the first may stop at the deadline; traced
            # runs only use whole passes, so that every count is per pass.
            res = wl.PassResult(None if tracer else deadline)
            try:
                work.run_pass(mclab, cli, built, tally, res)
            except wl.TimeUp:
                pass
            plain.append(res)
        if time.perf_counter() >= deadline and (tracer is None or traced):
            break
        built = work.build(mclab)

    if work.name == "census":
        wl.census_oracle_check(import_bruteforce(root), keep, tally)
    elif work.name == "pipeline":
        wl.readme_check(keep, tally)

    ops = per_operation(plain)
    verdicts = [t for t, _, verdict in ops if verdict]
    if tracer is None:
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "wall_s": (sum(t for t, _, _ in ops), "s"),
            "verdict_p50_s": (statistics.median(verdicts), "s"),
            "verdict_p90_s": (p90(verdicts), "s"),
            "phase_s": (sum(t for t, phase, _ in ops if phase), "s"),
            "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
        }
    else:
        metrics = tracer.metrics()
        overhead = statistics.median(r.total() for r in traced) - statistics.median(
            r.total() for r in plain
        )
        metrics["trace_overhead_s"] = (overhead, "s")
        out_dir = os.path.join(HERE, "_out")
        os.makedirs(out_dir, exist_ok=True)
        tracer.write_spans(os.path.join(out_dir, "spans-%s-%d.tsv.gz" % (work.name, seed)))
    details = {
        "passes": len(plain),
        "traced_passes": len(traced),
        "verdict_samples": len(verdicts),
        "setup_samples_s": setups,
        "pass_wall_s": [r.total() for r in plain],
        "traced_pass_wall_s": [r.total() for r in traced],
    }
    return metrics, details, tally


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "mclab", "__init__.py")):
        print("bench: run from the root of an mclab checkout (no src/mclab here)", file=sys.stderr)
        return 2
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        ref = json.load(fh)

    load_start = os.getloadavg()
    workdir = os.path.join(HERE, "_work", "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    work = Workload(args.workload, ref, root, args.seed, workdir)
    try:
        metrics, details, tally = measure(work, args.seconds, args.trace, root, args.seed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    load_end = os.getloadavg()

    env = machine()
    env["loadavg_start"] = list(load_start)
    env["loadavg_end"] = list(load_end)
    env["busy"] = max(load_start[0], load_end[0]) > BUSY_LOAD_PER_CPU * (env["nproc"] or 1)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "input_digest": work.input_digest(),
        "failed_share": tally.failed_share,
        "failing_inputs": sorted(set(tally.failures)),
        "environment": env,
    }
    record.update(details)
    print(json.dumps({"bench": record}, sort_keys=True))
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
