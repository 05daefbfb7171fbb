"""Alternated before/after pairs of perfbench runs.

    python3 scripts/bench_pairs.py --parent REV --pairs 10 --workload W
        [--workload W2 ...] [--seed 0 --seed 7 ...] [--out BENCH.json]

It may be started from any directory.  "The change" is this
checkout's working tree; "the parent" is the committed tree of REV,
unpacked with ``git archive`` under ``.bench-pairs/`` (ignored by git),
as a benchmark of committed files sees it: no untracked or edited file
leaks into it, and no worktree is registered in ``.git``.

Each pair runs the benchmark command of ``BENCHMARK.json`` once in each
tree, for the ``run_seconds`` it sets, in new processes, alternating
which tree runs first, and a win is a lower value for the change; every
workload runs its pairs at every seed given.  The JSON written to --out
(rewritten after every pair, so an interrupted run keeps what it
measured) holds every pair, and per workload and metric the medians,
quartiles, wins and losses, and whether the gain is resolved: at least
ten pairs, at least nine wins in ten, a median gain wider than the
parent's interquartile range, and every run of the comparison correct
with no failed operation.  ``setup_s`` runs the same set-up
code in every workload, so it is also pooled over all workloads' pairs,
where a workload's ten pairs alone cannot resolve a change of a few
percent.  Each run also keeps every operation's median raw wall time over
its passes (perfbench's ``pass N <op> exit R <t> s`` lines), and its
median share of a pass: its time over the summed times of that pass's
operations.  The record gives, per workload and operation, the parent's
and the change's median of each, so a change in ``wall_s`` can be traced
to the operations that moved.  Raw seconds follow the host's speed mode;
shares, taken within one pass, do not.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK = os.path.join(ROOT, ".bench-pairs")
METRICS = ("setup_s", "wall_s", "cpu_s", "peak_rss_mb")
MIN_PAIRS = 10           # fewer pairs never resolve a gain
SIDES = ("parent", "change")
# perfbench's per-operation line: "  pass 1  thm7-distance   exit 0     5.1234 s"
OP_LINE = re.compile(r"\s*pass (\d+)\s+(\S+)\s+exit -?\d+\s+(\S+) s")


def _git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout.strip()


def _unpack_parent(sha):
    """The committed files of sha in a fresh directory; returns its path."""
    tree = os.path.join(WORK, sha[:12])
    shutil.rmtree(tree, ignore_errors=True)
    os.makedirs(tree)
    archive = subprocess.Popen(["git", "archive", sha], cwd=ROOT, stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", tree], stdin=archive.stdout, check=True)
    if archive.wait() != 0:
        sys.exit(f"bench_pairs: git archive {sha} failed")
    return tree


def _run(tree, command):
    """One perfbench run in tree: the fields of its JSON result line."""
    proc = subprocess.run(command, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.exit(f"bench_pairs: no result line from {tree} (exit {proc.returncode}):\n"
                 f"{proc.stderr[-2000:]}")
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            **{m: result["metrics"][m]["value"] for m in METRICS},
            "ops": _op_medians(proc.stdout), "op_shares": _op_shares(proc.stdout)}


def _passes(stdout):
    """Each pass's {operation: wall seconds}, in pass order, from one run's output."""
    passes = {}
    for line in stdout.splitlines():
        m = OP_LINE.fullmatch(line)
        if m:
            passes.setdefault(m.group(1), {})[m.group(2)] = float(m.group(3))
    return list(passes.values())


def _medians(per_pass):
    """Each operation's median over the passes that hold it."""
    values = {}
    for times in per_pass:
        for op, t in times.items():
            values.setdefault(op, []).append(t)
    return {op: statistics.median(v) for op, v in values.items()}


def _op_medians(stdout):
    """Each operation's median wall time over the passes of one run."""
    return _medians(_passes(stdout))


def _op_shares(stdout):
    """Each operation's median share of a pass over the passes of one run: its
    time over the summed times of that pass's operations."""
    return _medians({op: t / sum(times.values()) for op, t in times.items()}
                    for times in _passes(stdout))


def _compare_ops(pairs, key):
    """Per operation in every run's pairs[i][side][key], the median over each
    side's runs, and the change's relative to the parent's."""
    runs = [p[side].get(key, {}) for p in pairs for side in SIDES]
    out = {}
    for op in sorted(set.intersection(*(set(r) for r in runs))):
        med = {side: statistics.median(p[side][key][op] for p in pairs) for side in SIDES}
        out[op] = {**med, "median_change_rel": med["change"] / med["parent"] - 1.0}
    return out


def _stats(values):
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": q2, "q1": q1, "q3": q3, "iqr": q3 - q1,
            "min": min(values), "max": max(values)}


def _all_correct(pairs):
    """Whether every run of pairs, on both sides, was correct with no failure."""
    return all(p[side]["correct"] is True and p[side]["failed"] == 0
               for p in pairs for side in SIDES)


def _compare(pairs, metric):
    """Parent and change statistics of metric over pairs, with the win count.
    A gain resolves only if every run of the comparison was correct."""
    before = [p["parent"][metric] for p in pairs]
    after = [p["change"][metric] for p in pairs]
    parent, change = _stats(before), _stats(after)
    wins = sum(a < b for a, b in zip(after, before))
    return {"parent": parent, "change": change, "pairs": len(pairs),
            "change_wins": wins, "change_losses": sum(a > b for a, b in zip(after, before)),
            "median_change_rel": change["median"] / parent["median"] - 1.0,
            "gain_resolved": len(pairs) >= MIN_PAIRS and wins >= 0.9 * len(pairs)
            and parent["median"] - change["median"] > parent["iqr"]
            and _all_correct(pairs)}


def _summary(record):
    for entry in record["workloads"]:
        if len(entry["pairs"]) >= 2:
            entry["metrics"] = {m: _compare(entry["pairs"], m) for m in METRICS}
            entry["ops"] = _compare_ops(entry["pairs"], "ops")
            entry["op_shares"] = _compare_ops(entry["pairs"], "op_shares")
            entry["all_correct"] = _all_correct(entry["pairs"])
    pooled = [p for entry in record["workloads"] for p in entry["pairs"]]
    if len(pooled) >= 2:
        record["setup_s_pooled"] = _compare(pooled, "setup_s")


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", required=True, help="git revision of the parent tree")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--workload", action="append", required=True,
                   help="a perfbench workload; repeat for several")
    p.add_argument("--seed", type=int, action="append",
                   help="a workload seed (default 0); repeat for several")
    p.add_argument("--out", default="BENCH_pairs.json",
                   help="JSON record, relative to the repository root")
    args = p.parse_args(argv)
    if args.pairs < 2:
        p.error("--pairs must be at least 2")
    args.seed = args.seed or [0]
    return args


def main(argv=None):
    args = _parse(argv)
    import numpy
    import scipy

    sha = _git("rev-parse", "--verify", args.parent + "^{commit}")
    parent_tree = _unpack_parent(sha)
    out = os.path.join(ROOT, args.out)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    record = {
        "parent": sha,
        "change_tree": _git("describe", "--always", "--dirty"),
        "host": {"nproc": os.cpu_count(), "python": platform.python_version(),
                 "numpy": numpy.__version__, "scipy": scipy.__version__},
        "method": "Each pair runs the parent commit's tree and the change's tree once"
                  " each, in new processes, alternating which runs first; a win is a"
                  " lower value for the change. Times are perfbench's speed-normalised"
                  " pass medians; setup_s is the median of perfbench's setup probes per"
                  " run, and setup_s_pooled pools it over every workload's pairs. ops"
                  " holds each operation's median raw wall time over a run's passes,"
                  " and op_shares its median share of a pass (its time over the"
                  " pass's summed op times); per workload each gives the median of"
                  " those over each side's runs. Raw seconds follow the host's speed"
                  " mode, which can differ between runs and sides; shares, taken"
                  " within one pass, do not.",
        "workloads": [],
    }
    trees = {"parent": parent_tree, "change": ROOT}
    for workload, seed in [(w, s) for w in args.workload for s in args.seed]:
        command = [sys.executable, *bench["command"][1:], "--workload", workload,
                   "--seed", str(seed), "--seconds", f"{bench['run_seconds']:g}"]
        entry = {"workload": workload, "seed": seed,
                 "command": " ".join(["python3"] + command[1:]), "pairs": []}
        record["workloads"].append(entry)
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            pair = {"pair": i + 1, "first": order[0]}
            for side in order:
                pair[side] = _run(trees[side], command)
            entry["pairs"].append(pair)
            _summary(record)
            with open(out, "w") as fh:
                json.dump(record, fh, indent=1)
                fh.write("\n")
            print(f"{workload} seed {seed} pair {i + 1}: wall_s parent {pair['parent']['wall_s']:.3f}"
                  f" change {pair['change']['wall_s']:.3f}", flush=True)
    print(f"wrote {os.path.relpath(out, ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
