"""Work counts from the tracer repeat exactly between runs.

Two traced runs of one workload and seed must report identical counts, so
a later change may rest a count claim on them.  Each case starts two
benchmark processes, so the whole file takes several minutes:

    python3 -m pytest perfbench/test_counts.py -k cube-quadrature
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
COUNTS = ["kernels.values", "quadrature.rules", "quadrature.nodes", "norms.boxes",
          "operators.node_points", "carleson.boxes_scanned"]


def _traced(workload, seed):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=900)
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload",
                         ["cli-breadth", "cube-quadrature", "kernel-operators"])
def test_counts_repeat_exactly(workload):
    first, second = _traced(workload, 0), _traced(workload, 0)
    assert first["correct"] and second["correct"]
    for name in COUNTS:
        assert first["metrics"][name] == second["metrics"][name], name
