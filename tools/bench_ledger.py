#!/usr/bin/env python3
"""Append a parent-vs-change entry to the end-to-end ledger (BENCH_e2e.json).

    python3 tools/bench_ledger.py --parent HEAD~1 --change HEAD \\
        --note "what the change does" --claim eval_images_per_s \\
        --pairs-on digits-finetune=10

Exports both revisions into a temporary directory (`git archive`; the
special revision WORKTREE exports the files git tracks, staged new files
included, as they are in the working tree) and runs each export's own
`python3 fdilbench/run.py --workload W --seed 7 --trace 0` on both sides in
alternating pairs, over the three benchmark workloads. The run length is
run.py's default, as for the benchmark itself. The side that runs first
flips every pair, so drift of the host does not favour one side. Each
run's result line is one sample. Pairs per workload default to 5;
--pairs-on WORKLOAD=N changes one.

The entry records the host (nproc, pool threads, ISA, build type, compiler,
parallelism), per-metric medians of each side, the run_s speedup, how many
pairs the change won, the parent's interquartile range, and per-seed
identity: every cell fdilbench reports carries its seed and its exact
accuracies, bytes and retries, and cells with the same seed must agree
across all runs of both sides. With --claim METRIC the same win count,
ratio and spread are recorded for that metric too.

--dry-run prints the entry instead of appending it.
"""

import argparse
import datetime
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LEDGER = os.path.join(ROOT, "BENCH_e2e.json")
WORKLOADS = ["digits-finetune", "digits-reffil", "cohort-q8"]
SEED = 7
PAIRS = 5
# Metrics where a larger value is better; every other metric is a cost.
HIGHER_IS_BETTER = {"train_samples_per_s", "eval_images_per_s", "avg_acc",
                    "last_acc", "update_ok_share"}
CELL_IDENTITY = ("avg_acc", "last_acc", "bytes_down", "bytes_up", "retries")


def git(*args):
    return subprocess.run(["git", "-C", ROOT] + list(args), check=True,
                          capture_output=True, text=True).stdout.strip()


def export(rev, dest):
    """Write the tree of `rev` (or the tracked working-tree files) to dest."""
    os.makedirs(dest)
    if rev == "WORKTREE":
        files = git("ls-files", "-z", "--cached").split("\0")
        for rel in filter(None, files):
            src = os.path.join(ROOT, rel)
            if not os.path.isfile(src):
                continue  # deleted in the working tree
            os.makedirs(os.path.dirname(os.path.join(dest, rel)), exist_ok=True)
            shutil.copy2(src, os.path.join(dest, rel))
        return
    archive = subprocess.run(["git", "-C", ROOT, "archive", rev],
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", dest], input=archive, check=True)


def build(tree):
    """Build fdilbench with the export's own run.py (its flags, its cmake)."""
    code = "import sys; sys.path.insert(0, 'fdilbench'); import run; run.build()"
    subprocess.run([sys.executable, "-c", code], cwd=tree, check=True,
                   stdout=sys.stderr)


def run_once(tree, workload):
    """One benchmark run: (host record, result object, per-cell lines)."""
    proc = subprocess.run(
        [sys.executable, "fdilbench/run.py", "--workload", workload, "--seed",
         str(SEED), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    host, result, cells = None, None, []
    for line in proc.stdout.splitlines():
        line = line.strip()
        if not line.startswith("{"):
            continue
        obj = json.loads(line)
        if "host" in obj:
            host = obj["host"]
        elif "cell" in obj:
            cells.append(obj)
        elif "metrics" in obj:
            result = obj
    if proc.returncode != 0 or host is None or result is None:
        raise RuntimeError(f"fdilbench {workload} failed in {tree} "
                           f"(exit {proc.returncode}): {proc.stderr[-2000:]}")
    return host, result, cells


def iqr(values):
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    return q[2] - q[0]


def wins(parent, change, metric):
    better = (lambda p, c: c > p) if metric in HIGHER_IS_BETTER else \
        (lambda p, c: c < p)
    won = sum(1 for p, c in zip(parent, change) if better(p, c))
    return f"{won}/{len(parent)}"


def per_seed_identity(cells):
    """Cells with equal seeds must agree on every identity field."""
    seen = {}
    seeds_by_side = {side: set() for side in cells}
    identical = True
    for side, side_cells in cells.items():
        for cell in side_cells:
            key = tuple(cell[f] for f in CELL_IDENTITY)
            seeds_by_side[side].add(cell["seed"])
            if seen.setdefault(cell["seed"], key) != key:
                identical = False
    common = seeds_by_side["parent"] & seeds_by_side["change"]
    return {"seeds_compared": len(common),
            "avg_acc_last_acc_bytes_retries_identical": identical}


def summarize(samples, claim):
    sides = ("parent", "change")
    metric_names = list(samples["parent"][0][1]["metrics"])
    values = {side: {m: [r["metrics"][m]["value"] for _, r, _ in samples[side]]
                     for m in metric_names} for side in sides}
    median = {side: {m: round(statistics.median(v), 6)
                     for m, v in values[side].items()} for side in sides}
    out = {
        "runs": {side: len(samples[side]) for side in sides},
        "parallelism": {side: samples[side][0][0].get("parallelism")
                        for side in sides},
        "median": median,
        "run_s_speedup": round(median["parent"]["run_s"] /
                               median["change"]["run_s"], 6),
        "run_s_pairs_change_faster": wins(values["parent"]["run_s"],
                                          values["change"]["run_s"], "run_s"),
        "run_s_parent_iqr": round(iqr(values["parent"]["run_s"]), 6),
        "run_s_all": {side: [round(v, 6) for v in values[side]["run_s"]]
                      for side in sides},
        "peak_rss_mb_all": {side: [round(v, 6)
                                   for v in values[side]["peak_rss_mb"]]
                            for side in sides},
        "cells_per_run": {side: [r["attempted"] for _, r, _ in samples[side]]
                          for side in sides},
        "failed_cells": {side: sum(r["failed"] for _, r, _ in samples[side])
                         for side in sides},
        "per_seed_cells": per_seed_identity(
            {side: [c for _, _, cells in samples[side] for c in cells]
             for side in sides}),
    }
    if claim and claim != "run_s" and claim in metric_names:
        out[f"{claim}_ratio"] = round(median["change"][claim] /
                                      median["parent"][claim], 6)
        out[f"{claim}_pairs_change_better"] = wins(
            values["parent"][claim], values["change"][claim], claim)
        out[f"{claim}_parent_iqr"] = round(iqr(values["parent"][claim]), 6)
        out[f"{claim}_all"] = {side: [round(v, 6) for v in values[side][claim]]
                               for side in sides}
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", default="HEAD~1")
    parser.add_argument("--change", default="HEAD",
                        help="revision, or WORKTREE for the working tree")
    parser.add_argument("--note", required=True,
                        help="one line: what the change does")
    parser.add_argument("--pairs-on", action="append", default=[],
                        metavar="WORKLOAD=N", help="pairs for one workload")
    parser.add_argument("--claim", default="",
                        help="metric the change claims to improve")
    parser.add_argument("--machine", default="",
                        help="free-text host description for the record")
    parser.add_argument("--dry-run", action="store_true")
    args = parser.parse_args()

    pairs = {w: PAIRS for w in WORKLOADS}
    for item in args.pairs_on:
        workload, _, n = item.partition("=")
        if workload not in pairs or not n.isdigit():
            parser.error(f"bad --pairs-on {item!r}")
        pairs[workload] = int(n)

    revs = {"parent": args.parent, "change": args.change}
    names = {side: rev if rev == "WORKTREE" else git("rev-parse", "--short", rev)
             for side, rev in revs.items()}
    with tempfile.TemporaryDirectory(prefix="bench-ledger-") as tmp:
        trees = {}
        for side, rev in revs.items():
            trees[side] = os.path.join(tmp, side)
            print(f"exporting {side} ({names[side]})", file=sys.stderr)
            export(rev, trees[side])
            build(trees[side])

        workloads = {}
        host = None
        for workload, n in pairs.items():
            samples = {"parent": [], "change": []}
            for i in range(n):
                order = ("parent", "change") if i % 2 == 0 else \
                    ("change", "parent")
                for side in order:
                    sample = run_once(trees[side], workload)
                    samples[side].append(sample)
                    host = host or sample[0]
                    print(f"{workload} pair {i + 1}/{n} {side}: run_s "
                          f"{sample[1]['metrics']['run_s']['value']:.3f}",
                          file=sys.stderr)
            workloads[workload] = summarize(samples, args.claim)

    pair_text = ", ".join(f"{n} on {w}" for w, n in pairs.items())
    entry = {
        "change": args.note,
        "parent": names["parent"],
        "change_rev": names["change"],
        "date": datetime.date.today().isoformat(),
        "host": {
            "nproc": host.get("nproc"),
            "pool_threads": host.get("pool_threads"),
            "isa": host.get("isa"),
            "build_type": host.get("build_type"),
            "compiler": host.get("compiler"),
            "machine": args.machine,
        },
        "protocol": (
            "tools/bench_ledger.py: both sides exported and built from "
            "source; python3 fdilbench/run.py --workload W --seed {seed} "
            "--trace 0 at run.py's default run length; runs alternate sides "
            "and the side that goes first flips every pair. Pairs: {pairs}."
        ).format(seed=SEED, pairs=pair_text),
        "workloads": workloads,
    }
    if args.claim:
        entry["claim"] = args.claim
    if args.dry_run:
        print(json.dumps(entry, indent=2))
        return 0
    with open(LEDGER) as f:
        ledger = json.load(f)
    ledger["entries"].append(entry)
    with open(LEDGER, "w") as f:
        json.dump(ledger, f, indent=2)
        f.write("\n")
    print(f"appended entry for {names['change']} vs {names['parent']} to "
          f"{LEDGER}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
