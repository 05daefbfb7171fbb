"""The pair statistics of scripts/bench_pairs.py."""

import importlib.util
import json
import os
import re
import statistics
import sys

_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "scripts", "bench_pairs.py")
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def _pair(parent, change, setup=(0.5, 0.5)):
    def side(wall, s):
        return {"correct": True, "failed": 0, "setup_s": s, "wall_s": wall,
                "cpu_s": wall, "peak_rss_mb": 100.0}
    return {"parent": side(parent, setup[0]), "change": side(change, setup[1])}


def test_compare_counts_wins_and_resolves_only_wide_gains():
    pairs = [_pair(1.0 + 0.01 * i, 0.7 + 0.01 * i) for i in range(10)]
    got = bench_pairs._compare(pairs, "wall_s")
    assert (got["change_wins"], got["change_losses"], got["pairs"]) == (10, 0, 10)
    assert got["parent"]["median"] == 1.045 and got["change"]["median"] == 0.745
    assert abs(got["parent"]["iqr"] - 0.045) < 1e-12
    assert got["gain_resolved"]
    # a gain narrower than the parent's quartile distance is not resolved
    narrow = [_pair(1.0 + 0.01 * i, 0.99 + 0.01 * i) for i in range(10)]
    assert not bench_pairs._compare(narrow, "wall_s")["gain_resolved"]
    # nor is one that loses two pairs in ten
    two_lost = pairs[:8] + [_pair(1.0, 1.1), _pair(1.0, 1.2)]
    assert not bench_pairs._compare(two_lost, "wall_s")["gain_resolved"]
    # nor does a short or interrupted run, however wide its gain
    for short in (pairs[:2], pairs[:9]):
        got = bench_pairs._compare(short, "wall_s")
        assert got["change_wins"] == len(short)
        assert got["parent"]["median"] - got["change"]["median"] > got["parent"]["iqr"]
        assert not got["gain_resolved"]


def test_incorrect_or_failing_runs_never_resolve_a_gain():
    pairs = [_pair(1.0 + 0.01 * i, 0.7 + 0.01 * i, (0.5 + 0.01 * i, 0.3 + 0.01 * i))
             for i in range(10)]
    clean = {"workloads": [{"pairs": pairs}]}
    bench_pairs._summary(clean)
    assert clean["workloads"][0]["all_correct"]
    assert clean["workloads"][0]["metrics"]["wall_s"]["gain_resolved"]
    assert clean["setup_s_pooled"]["gain_resolved"]
    for side in ("parent", "change"):
        for field, bad in (("correct", False), ("failed", 1)):
            spoiled = [dict(p, **{side: dict(p[side])}) for p in pairs]
            spoiled[3][side][field] = bad
            got = bench_pairs._compare(spoiled, "wall_s")
            assert got["change_wins"] == 10
            assert not got["gain_resolved"], (side, field)
            record = {"workloads": [{"pairs": spoiled}]}
            bench_pairs._summary(record)
            assert not record["workloads"][0]["all_correct"]
            assert not record["setup_s_pooled"]["gain_resolved"]


def test_summary_pools_setup_over_workloads():
    record = {"workloads": [
        {"pairs": [_pair(1.0, 0.9, (0.5, 0.4)) for _ in range(3)]},
        {"pairs": [_pair(2.0, 1.9, (0.6, 0.7)) for _ in range(2)]},
    ]}
    bench_pairs._summary(record)
    pooled = record["setup_s_pooled"]
    assert pooled["pairs"] == 5
    assert (pooled["change_wins"], pooled["change_losses"]) == (3, 2)
    assert all(entry["all_correct"] for entry in record["workloads"])
    assert record["workloads"][0]["metrics"]["setup_s"]["pairs"] == 3


# perfbench's stdout for one run of two passes, one of them with a failed op
_STDOUT = """env {"nproc": 2}
workload kernel-operators  seed 0  passes 2
  pass 1  thm5-trace               exit 0     0.3100 s
  pass 1  prop1                    exit 0     0.1600 s
  pass 1  thm7-distance            exit 0     5.5000 s
  pass 2  thm5-trace               exit 0     0.2900 s
  pass 2  prop1                    exit 1     0.2000 s
  pass 2  thm7-distance            exit 0     5.3000 s
  pass 3  thm5-trace               exit 0     0.3000 s
FAILED pass 2 prop1: exit 1
metric                value unit  samples
wall_s              5.80000 s     2 passes
"""


def test_op_medians_read_every_pass_line():
    got = bench_pairs._op_medians(_STDOUT)
    assert got == {"thm5-trace": 0.3, "prop1": 0.18, "thm7-distance": 5.4}
    assert bench_pairs._op_medians("wall_s 5.8 s\nFAILED pass 2 prop1: exit 1\n") == {}


def test_run_keeps_each_ops_median(tmp_path):
    result = {"correct": True, "attempted": 7, "failed": 1,
              "metrics": {m: {"value": 1.0} for m in bench_pairs.METRICS}}
    stub = tmp_path / "stub.py"
    stub.write_text(f"import sys\nsys.stdout.write({_STDOUT!r})\nprint({json.dumps(result)!r})\n")
    got = bench_pairs._run(str(tmp_path), [sys.executable, str(stub)])
    assert got["ops"] == {"thm5-trace": 0.3, "prop1": 0.18, "thm7-distance": 5.4}
    assert (got["failed"], got["wall_s"]) == (1, 1.0)


def test_summary_compares_ops_timed_in_every_run():
    pairs = [_pair(1.0, 0.8) for _ in range(3)]
    for i, p in enumerate(pairs):
        p["parent"]["ops"] = {"thm7": 6.0 + i, "prop1": 0.2}
        p["change"]["ops"] = {"thm7": 5.0 + i, "prop1": 0.2, "thm5": 0.3}
    pairs[1]["change"]["ops"]["prop1"] = 0.3
    record = {"workloads": [{"pairs": pairs}]}
    bench_pairs._summary(record)
    ops = record["workloads"][0]["ops"]
    # thm5 is missing from the parent's runs, so it is not compared
    assert sorted(ops) == ["prop1", "thm7"]
    assert (ops["thm7"]["parent"], ops["thm7"]["change"]) == (7.0, 6.0)
    assert abs(ops["thm7"]["median_change_rel"] - (6.0 / 7.0 - 1.0)) < 1e-15
    assert (ops["prop1"]["parent"], ops["prop1"]["change"]) == (0.2, 0.2)


def test_op_shares_do_not_follow_the_hosts_speed():
    # a pass's share of an op is its time over the pass's summed op times
    got = bench_pairs._op_shares(_STDOUT)
    assert got["thm7-distance"] == statistics.median([5.5 / 5.97, 5.3 / 5.79])
    assert got["prop1"] == statistics.median([0.16 / 5.97, 0.2 / 5.79])
    # pass 3 timed thm5 alone, so its share there is the whole pass
    assert got["thm5-trace"] == statistics.median([0.31 / 5.97, 0.29 / 5.79, 1.0])
    # a run at half the speed takes twice as long for every op: its raw
    # medians double, and its shares read the same
    slow = re.sub(r"(\d+\.\d+) s$", lambda m: f"{2 * float(m.group(1)):.4f} s", _STDOUT,
                  flags=re.M)
    assert "11.0000 s" in slow
    assert bench_pairs._op_medians(slow) == {"thm5-trace": 0.6, "prop1": 0.36,
                                             "thm7-distance": 10.8}
    assert bench_pairs._op_shares(slow) == got
    pairs = [_pair(1.0, 2.0) for _ in range(3)]
    for p in pairs:
        for side, out in (("parent", _STDOUT), ("change", slow)):
            p[side].update(ops=bench_pairs._op_medians(out), op_shares=bench_pairs._op_shares(out))
    record = {"workloads": [{"pairs": pairs}]}
    bench_pairs._summary(record)
    entry = record["workloads"][0]
    assert entry["ops"]["thm7-distance"]["median_change_rel"] == 1.0
    for op, row in entry["op_shares"].items():
        assert row["parent"] == row["change"] == got[op]
        assert row["median_change_rel"] == 0.0
