"""The pair statistics of scripts/bench_pairs.py."""

import importlib.util
import os

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
