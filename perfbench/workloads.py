"""Workload definitions and seeded input generators.

A workload is a fixed list of operations.  Each operation is one
in-process call of ``harmspace.cli.main(argv)``; the program sees only
the argv below and the files that ``write_inputs`` generates from the
seed.  Paths in argv are relative to the run's work directory, so the
resolved configuration in every summary is the same from run to run.
"""

from __future__ import annotations

import json
import os

import numpy as np

SMOKE = ["--budget", "smoke", "--threads", "1"]

# Registry ids per workload; together they cover all 22 experiments.
CUBE_IDS = ["lemma2", "norm-identities", "thm6-trace", "thm3-carleson",
            "thm2-equivalence"]
KERNEL_IDS = ["thm5-trace", "prop1", "thm7-distance"]
BREADTH_IDS = ["whitney", "kernels", "lemma4", "lemma5", "lemma6",
               "eq14-scaling", "eq15-scaling", "thm4-scaling", "thm4-carleson",
               "ball-basis", "ball-norms", "thm8-multiplier", "thm9-multiplier",
               "thm10-functionals"]

# The carleson region: |x_i| <= 2 (passed as --x-max), 2^-4 <= t <= 4.
MEASURE_X_MAX, MEASURE_T_MIN, MEASURE_T_MAX = 2.0, 2.0 ** -4, 4.0
MEASURE_ATOMS = 400
BALL_DIM, BALL_CAP = 3, 12


def _verify(exp_id):
    return (exp_id, ["verify", exp_id] + SMOKE)


def _ops_cube():
    ops = [_verify(i) for i in CUBE_IDS]
    # The Whitney-box (cube) path of bergman_norm: one Gauss tensor per box.
    ops.append(("norm-bergman-cubes",
                ["norm", "--space", "bergman", "--field", "test-fn:1", "--n", "2",
                 "--p", "2", "--alpha", "0.5", "--x-max", "2"]))
    return ops


def _ops_kernel():
    return [_verify(i) for i in KERNEL_IDS]


def _ops_breadth():
    ops = [_verify(i) for i in BREADTH_IDS]
    ops += [
        ("norm-bergman-layers",
         ["norm", "--space", "bergman", "--field", "bergman-q:2", "--n", "3",
          "--p", "2", "--alpha", "0.5"]),
        ("norm-mixed",
         ["norm", "--space", "mixed", "--field", "test-fn:1", "--n", "2",
          "--p", "2", "--q", "3", "--alpha", "0.5"]),
        ("norm-tl",
         ["norm", "--space", "tl", "--field", "poisson", "--n", "2",
          "--p", "2", "--q", "2", "--alpha", "0.5"]),
        ("norm-sup",
         ["norm", "--space", "sup", "--field", "test-fn:2", "--n", "2",
          "--lam", "1.5"]),
    ]
    mu = ["--measure", "inputs/measure.json", "--x-max", "2"]
    ops += [
        ("carleson-vector", ["carleson", *mu, "--condition", "vector", "--s", "0.5,0.5"]),
        ("carleson-single", ["carleson", *mu, "--condition", "single", "--alpha", "1.5"]),
        ("carleson-mixed", ["carleson", *mu, "--condition", "mixed",
                            "--p", "2", "--q", "3", "--alpha", "0.5"]),
        ("carleson-tent", ["carleson", *mu, "--condition", "tent",
                           "--p", "2", "--alpha", "0.5", "--tau", "1"]),
        ("whitney-lam", ["whitney", "--n", "2", "--lam", "1.0"]),
        ("ball-convolve", ["ball", "convolve", "--left", "inputs/left.json",
                           "--right", "inputs/right.json"]),
        ("ball-lambda", ["ball", "lambda", "--expansion", "inputs/left.json",
                         "--t", "1.5"]),
        ("ball-functional", ["ball", "functional", "--expansion", "inputs/right.json",
                             "--kind", "mixed", "--p", "2", "--q", "3",
                             "--alpha", "0.5"]),
        ("ball-multiplier-check", ["ball", "multiplier-check", "--symbol", "decay:2.0",
                                   "--cap", "16"]),
    ]
    return ops


WORKLOADS = {
    "cube-quadrature": _ops_cube,
    "kernel-operators": _ops_kernel,
    "cli-breadth": _ops_breadth,
}


def operations(workload, seed, out_root):
    """[(op name, argv)] for one pass; each op writes to its own directory."""
    return [(name, argv + ["--seed", str(seed), "--out", f"{out_root}/{name}"])
            for name, argv in WORKLOADS[workload]()]


# ------------------------------------------------------------ generators


def _rng(seed, tag):
    return np.random.default_rng([seed, tag])


def measure_json(seed):
    """Seeded atomic measure on the carleson workload region, n = 2.

    Atoms are uniform in x, log-uniform in t, with exponential weights.
    """
    rng = _rng(seed, 1)
    x = rng.uniform(-MEASURE_X_MAX, MEASURE_X_MAX, size=(MEASURE_ATOMS, 2))
    t = np.exp(rng.uniform(np.log(MEASURE_T_MIN), np.log(MEASURE_T_MAX),
                           MEASURE_ATOMS))
    w = rng.exponential(1.0, MEASURE_ATOMS)
    atoms = [{"x": [float(a), float(b)], "t": float(ti), "w": float(wi)}
             for (a, b), ti, wi in zip(x, t, w)]
    return {"label": f"bench-seed-{seed}", "atoms": atoms}


def expansion_json(seed, tag, decay):
    """Seeded spherical expansion on the ball in R^3 through degree BALL_CAP."""
    rng = _rng(seed, tag)
    coeffs = []
    for k in range(BALL_CAP + 1):
        block = rng.standard_normal((2 * k + 1, 2)) / (1.0 + k) ** decay
        coeffs.append([[float(re), float(im)] for re, im in block])
    return {"n": BALL_DIM, "cap": BALL_CAP, "coeffs": coeffs}


def write_inputs(workdir, seed):
    """Write every generated input file under workdir/inputs."""
    inputs = os.path.join(workdir, "inputs")
    os.makedirs(inputs, exist_ok=True)
    files = {
        "measure.json": measure_json(seed),
        "left.json": expansion_json(seed, 2, 1.5),
        "right.json": expansion_json(seed, 3, 1.0),
    }
    for name, obj in files.items():
        with open(os.path.join(inputs, name), "w") as fh:
            json.dump(obj, fh)
