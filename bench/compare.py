"""Compare benchmark results of two commits.

    python3 bench/compare.py PARENT.log CHANGE.log

Each log holds the standard output of any number of ``bench/run.py`` runs,
one after another.  Runs are paired by workload, trace flag and seed.  For
every workload and metric the table gives each side's median and quartiles,
the share of pairs the change wins (ties count for neither side) and a label:

* ``improved``   the change wins at least 9 of 10 pairs and the medians
                 differ, in the better direction, by more than the distance
                 between the parent's quartiles;
* ``regressed``  the change's median is worse than the parent's by more than
                 the metric's bound in ``BENCHMARK.json`` (for a metric with
                 no bound: the mirror image of ``improved``);
* ``unresolved`` the parent's own quartile spread is wider than the bound and
                 not every run of the change beats every run of the parent,
                 or the change fails more operations than the parent;
* ``unchanged``  otherwise.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load_runs(path):
    """{(workload, trace): [(seed, failed, {metric: value})]} from one log."""
    runs = {}
    record = None
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line.startswith("{"):
                continue
            obj = json.loads(line)
            if "bench" in obj:
                record = obj["bench"]
            elif "metrics" in obj and record is not None:
                values = {k: v["value"] for k, v in obj["metrics"].items()}
                key = (record["workload"], record["trace"])
                runs.setdefault(key, []).append((record["seed"], obj["failed"], values))
                record = None
    return runs


def metric_specs():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    out = {m["name"]: m for m in spec["end_to_end"]}
    out.update({m["name"]: m for m in spec["per_layer"]})
    return out


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def label(base, change, lower_better, bound, more_failures):
    """The section-8 verdict for one metric on one workload."""
    sign = -1.0 if lower_better else 1.0
    pairs = list(zip(base, change))
    wins = sum(1 for b, c in pairs if sign * (c - b) > 0)
    losses = sum(1 for b, c in pairs if sign * (c - b) < 0)
    b1, bm, b3 = quartiles(base)
    cm = statistics.median(change)
    spread = b3 - b1
    gain = sign * (cm - bm)
    improved = wins >= 0.9 * len(pairs) and gain > spread
    if bound is None:
        regressed = losses >= 0.9 * len(pairs) and -gain > spread
    else:
        regressed = -gain > bound * abs(bm)
    all_better = all(sign * (c - b) > 0 for c in change for b in base)
    if improved and not more_failures:
        return "improved", wins
    if regressed:
        return "regressed", wins
    if more_failures:
        return "unresolved", wins
    if bound is not None and bm and spread / abs(bm) > bound and not all_better:
        return "unresolved", wins
    return "unchanged", wins


def compare(base_runs, change_runs, specs):
    rows = []
    for key in sorted(set(base_runs) & set(change_runs)):
        by_seed_b = {}
        for seed, failed, values in base_runs[key]:
            by_seed_b.setdefault(seed, []).append((failed, values))
        paired = []
        for seed, failed, values in change_runs[key]:
            if by_seed_b.get(seed):
                paired.append((by_seed_b[seed].pop(0), (failed, values)))
        if not paired:
            continue
        more_failures = sum(c[0] for _, c in paired) > sum(b[0] for b, _ in paired)
        for name in sorted(set(paired[0][0][1]) & set(paired[0][1][1])):
            spec = specs.get(name, {})
            base = [b[1][name] for b, _ in paired]
            change = [c[1][name] for _, c in paired]
            verdict, wins = label(
                base, change, spec.get("better", "lower") == "lower", spec.get("bound"),
                more_failures,
            )
            rows.append((key, name, quartiles(base), quartiles(change), wins, len(paired), verdict))
    return rows


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip().split("\n\n")[1], file=sys.stderr)
        return 2
    rows = compare(load_runs(argv[0]), load_runs(argv[1]), metric_specs())
    print("%-9s %-5s %-36s %-30s %-30s %-7s %s" % (
        "workload", "trace", "metric", "parent q1/median/q3", "change q1/median/q3", "wins", "label"))
    for (workload, trace), name, b, c, wins, n, verdict in rows:
        print("%-9s %-5d %-36s %-30s %-30s %-7s %s" % (
            workload, trace, name,
            "%.4g/%.4g/%.4g" % b, "%.4g/%.4g/%.4g" % c, "%d/%d" % (wins, n), verdict))
    return 0


if __name__ == "__main__":
    sys.exit(main())
