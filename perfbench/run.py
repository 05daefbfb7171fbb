"""Benchmark for harmspace: named workloads of in-process CLI calls.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root; it imports the package from ``src``.
Each operation is one ``harmspace.cli.main(argv)`` call in this process,
with ``--threads 1`` and BLAS pinned to one thread.  The run repeats
passes over the workload's operation list while the next pass is expected
to end within ``--seconds`` (at least one pass), checks every output
against the stored reference, and prints a human-readable report followed
by one JSON line.

``--trace 0`` reports the end-to-end metrics.  The host's CPU speed
drifts by tens of percent over tens of seconds, more than a pass can
average out, so the gated times are normalised to a reference speed.
During each pass a timer samples the time of fixed pure-Python loops
every ``SPEED_EVERY_S``, and the pass's wall and CPU times are divided by
the mean slowdown sampled (see ``_speed_sample``).  The raw times are
printed beside them; set-up time is not normalised, as a speed sample
tracks neither process start nor imports.  ``--trace 1`` runs one
traced pass instead and reports the per-layer metrics; the spans go to
``.perfbench-out/``.  ``--write-reference`` regenerates the stored
reference outputs for a workload (default seed, plus a second seed to tell
which operations depend on the seed).
"""

import os
import sys
import time

T_START = time.perf_counter()

BLAS_THREADS = 1  # fixed for every run; never above nproc
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import collections  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench-work")
TRACE_OUT = os.path.join(ROOT, ".perfbench-out")
REFERENCE_DIR = os.path.join(HERE, "reference")
DEFAULT_SEED = 0
SETUP_PROBES = 3
MAX_PASSES = 100
SPEED_LOOP = 50_000      # iterations of the arithmetic loop in a speed sample
SPEED_TABLE = 100_000    # entries of the dict a speed sample looks up in
SPEED_LOOKUPS = 4_000    # random lookups in a speed sample
# Seconds the loop and the lookups take on a 2-core x86-64 sandbox when
# the host is quiet.
SPEED_REF_S = (0.0035, 0.0024)
SPEED_EVERY_S = 0.3      # wall seconds between speed samples in a pass

sys.path.insert(0, HERE)


def _fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


# ----------------------------------------------------------------- setup


def _setup(workdir, seed):
    """Imports, generated inputs and one warm-up call; returns the cli module."""
    if not os.path.isdir(os.path.join(SRC, "harmspace")):
        _fail(f"no harmspace package under {SRC}")
    sys.path.insert(0, SRC)
    import harmspace.cli as cli
    import workloads

    os.makedirs(workdir, exist_ok=True)
    os.chdir(workdir)
    workloads.write_inputs(".", seed)
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(["verify", "kernels", "--budget", "smoke", "--threads", "1",
                       "--seed", str(seed), "--out", "warmup"])
    if rc != 0:
        _fail("warm-up call failed")
    return cli


_speed_table = None


def _speed_sample():
    """The host's slowdown now, against SPEED_REF_S.

    A sample times two fixed pure-Python loops: one of integer arithmetic,
    which sees the core's speed, and one of random lookups in a dict of
    several MB, which also sees the memory hierarchy that other tenants of
    the host share.  The workloads' speed follows the geometric mean of the
    two more closely than either alone.
    """
    global _speed_table
    if _speed_table is None:
        keys = random.Random(0).choices(range(SPEED_TABLE), k=SPEED_LOOKUPS)
        _speed_table = ({i: float(i) for i in range(SPEED_TABLE)}, keys)
    table, keys = _speed_table
    t0 = time.perf_counter()
    s = 0
    for i in range(SPEED_LOOP):
        s += i * i
    t1 = time.perf_counter()
    x = 0.0
    for k in keys:
        x += table[k]
    t2 = time.perf_counter()
    return ((t1 - t0) / SPEED_REF_S[0] * (t2 - t1) / SPEED_REF_S[1]) ** 0.5


class SpeedSampler:
    """Takes a speed sample every SPEED_EVERY_S of wall time while active.

    The samples run in a SIGALRM handler, between bytecodes of whatever the
    pass is doing, so they see the speed the host gives this process during
    the pass.  ``wall`` and ``cpu`` total the time the samples took, to be
    taken out of the pass's own times.
    """

    def __init__(self):
        self.samples, self.wall, self.cpu = [], 0.0, 0.0

    def _sample(self, signum, frame):
        w0, c0 = time.perf_counter(), time.process_time()
        self.samples.append(_speed_sample())
        self.wall += time.perf_counter() - w0
        self.cpu += time.process_time() - c0

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SPEED_EVERY_S, SPEED_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def slowdown(self):
        """Harmonic mean of the samples; 1.0 when no sample was taken.

        The samples are evenly spaced in time, so dividing a pass's time by
        their harmonic mean divides each stretch of it by its own slowdown.
        """
        return statistics.harmonic_mean(self.samples) if self.samples else 1.0


def _probe_setups(workload, seed):
    """Set up in SETUP_PROBES fresh processes; seconds from spawn to ready."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(
                [sys.executable, os.path.abspath(__file__), "--workload", workload,
                 "--seed", str(seed), "--setup-probe"],
                cwd=ROOT, stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            ready = time.perf_counter()
            child.stdout.read()
            if child.wait() != 0 or line.strip() != "ready":
                _fail("setup probe failed")
        times.append(ready - t0)
    return times


# ---------------------------------------------------------------- passes


OpResult = collections.namedtuple("OpResult", "name rc wall cpu error")
Pass = collections.namedtuple("Pass", "results wall cpu slowdown samples")


def _run_pass(cli, ops, pass_dir, sampler=None):
    """One pass over ops; outputs end up in pass_dir.

    With a sampler, the time its samples took is left out of every wall and
    CPU time, and the pass's slowdown is the sampler's; without, it is 1.
    """
    sampler = sampler or SpeedSampler()
    results = []
    w_start, c_start = time.perf_counter(), time.process_time()
    sw_start, sc_start = sampler.wall, sampler.cpu
    for name, argv in ops:
        sink = io.StringIO()
        error = None
        w0, c0 = time.perf_counter(), time.process_time()
        sw0, sc0 = sampler.wall, sampler.cpu
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                rc = cli.main(argv)
        except SystemExit as e:
            rc = e.code
        except Exception:  # noqa: BLE001 - a raising operation is a failed one
            rc, error = None, traceback.format_exc(limit=3)
        w1, c1 = time.perf_counter(), time.process_time()
        results.append(OpResult(name, rc, w1 - w0 - (sampler.wall - sw0),
                                c1 - c0 - (sampler.cpu - sc0), error))
    wall = time.perf_counter() - w_start - (sampler.wall - sw_start)
    cpu = time.process_time() - c_start - (sampler.cpu - sc_start)
    if os.path.isdir("out"):
        os.rename("out", pass_dir)
    return Pass(results, wall, cpu, sampler.slowdown(), len(sampler.samples))


def _gate(workload, seed, pass_dirs, results_by_pass):
    """{(pass number, op name): reasons} for failed ops, and the largest drift."""
    import gate

    ref_path = os.path.join(REFERENCE_DIR, f"{workload}.json.gz")
    ref = gate.load_reference(ref_path)
    full_seed = seed == ref["seed"]
    failures, max_rel = {}, 0.0
    first_digest = {}
    for pass_no, (pass_dir, results) in enumerate(zip(pass_dirs, results_by_pass), 1):
        for r in results:
            why = []
            if r.error or r.rc != 0:
                why.append(f"exit {r.rc}" + (f": {r.error.splitlines()[-1]}" if r.error else ""))
            op_dir = os.path.join(pass_dir, r.name)
            if not why:
                files = gate.read_outputs(op_dir)
                d = gate.digest(files)
                if r.name not in first_digest:
                    entry = ref["ops"].get(r.name)
                    if entry is None:
                        why.append("no reference")
                    else:
                        structural = entry["seeded"] and not full_seed
                        cmp = gate.compare(entry["files"], files, seed, structural)
                        max_rel = max(max_rel, cmp.max_rel)
                        if cmp.mismatches:
                            why.append(f"{cmp.mismatches} mismatches: "
                                       + "; ".join(cmp.problems))
                    first_digest[r.name] = d
                elif d != first_digest[r.name]:
                    why.append("repetition differs from the first pass")
            if why:
                failures[pass_no, r.name] = why
    return failures, max_rel


# --------------------------------------------------------------- metrics


def _tail(samples):
    """(quantile, value) of the highest percentile with >= 10 samples above."""
    n = len(samples)
    if n < 11:
        return None
    k = n - 10          # samples at or below the tail value
    return k / n, sorted(samples)[k - 1]


def _environment():
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
    }


def _emit(correct, attempted, failed, metrics, kind):
    """The result line; metric names and units come from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        units = {m["name"]: m["unit"] for m in json.load(fh)[kind]}
    if set(units) != set(metrics):
        _fail(f"metrics differ from BENCHMARK.json {kind}:"
              f" {sorted(set(units) ^ set(metrics))}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))


def _report_untraced(args, setups, own_setup, passes, peak_rss_mb, failures):
    """Print every end-to-end figure with its sample count; return the gated ones.

    The gated wall_s and cpu_s are seconds at the reference speed (see the
    module docstring); the raw ones are printed as wall_raw_s and cpu_raw_s.
    op_p50_s, op_tail_s and fail_frac are printed only: a workload of three
    operations has one operation as its median, too noisy to gate on, the
    tail needs more than ten samples, and fail_frac is 0 on a correct run
    (the result line's attempted and failed carry it).
    """
    lat = [r.wall for p in passes for r in p.results]
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(p.wall / p.slowdown for p in passes),
        "cpu_s": statistics.median(p.cpu / p.slowdown for p in passes),
        "peak_rss_mb": peak_rss_mb,
    }
    tail = _tail(lat)
    tail_row = (("op_tail_s", float("nan"), "s", f"{len(lat)} operations: too few"
                 " for a tail with 10 beyond it") if tail is None else
                ("op_tail_s", tail[1], "s", f"p{100 * tail[0]:.1f} of {len(lat)} operations"))
    rows = [("setup_s", metrics["setup_s"], "s", f"{len(setups)} fresh processes"
             f" (this process: {own_setup:.3f} s)"),
            ("wall_s", metrics["wall_s"], "s", f"{len(passes)} passes"),
            ("wall_raw_s", statistics.median(p.wall for p in passes), "s",
             f"{len(passes)} passes"),
            ("cpu_s", metrics["cpu_s"], "s", f"{len(passes)} passes"),
            ("cpu_raw_s", statistics.median(p.cpu for p in passes), "s",
             f"{len(passes)} passes"),
            ("slowdown", statistics.median(p.slowdown for p in passes), "1",
             f"{sum(p.samples for p in passes)} samples in {len(passes)} passes"),
            ("op_p50_s", statistics.median(lat), "s", f"{len(lat)} operations"),
            tail_row,
            ("peak_rss_mb", peak_rss_mb, "MB", "1 process"),
            ("fail_frac", len(failures) / len(lat), "1",
             f"{len(failures)} of {len(lat)} operations")]
    print(f"workload {args.workload}  seed {args.seed}  passes {len(passes)}")
    print(f"{'metric':14s} {'value':>12s} unit  samples")
    for name, value, unit, samples in rows:
        print(f"{name:14s} {value:12.6g} {unit:4s}  {samples}")
    return metrics


def _print_ops(passes, failures):
    for i, p in enumerate(passes, 1):
        for r in p.results:
            print(f"  pass {i}  {r.name:24s} exit {r.rc}  {r.wall:9.4f} s")
    for (pass_no, name), why in sorted(failures.items()):
        print(f"FAILED pass {pass_no} {name}: {' | '.join(why)}")


# ------------------------------------------------------------------ main


def _parse(argv):
    import workloads

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write-reference", action="store_true",
                   help="regenerate the stored reference outputs and exit")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None):
    args = _parse(argv)
    import workloads

    workdir = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        if args.setup_probe:
            _setup(workdir, args.seed)
            print("ready", flush=True)
            return 0
        if args.write_reference:
            return _write_reference(args, workdir)
        if not os.path.isdir(os.path.join(SRC, "harmspace")):
            _fail(f"no harmspace package under {SRC}")
        env = _environment()
        cli = _setup(workdir, args.seed)
        own_setup = time.perf_counter() - T_START
        setups = [] if args.trace else _probe_setups(args.workload, args.seed)
        ops = workloads.operations(args.workload, args.seed, "out")
        print("env " + json.dumps(env, sort_keys=True))
        if args.trace:
            return _traced_run(args, cli, ops)
        passes = []
        t0 = time.perf_counter()
        # Another pass only if it is expected to end within --seconds.
        while not passes or (time.perf_counter() - t0 + passes[-1].wall <= args.seconds
                             and len(passes) < MAX_PASSES):
            with SpeedSampler() as sampler:
                passes.append(_run_pass(cli, ops, f"pass{len(passes) + 1}", sampler))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        failures, _ = _gate(args.workload, args.seed,
                            [f"pass{i + 1}" for i in range(len(passes))],
                            [p.results for p in passes])
        _print_ops(passes, failures)
        metrics = _report_untraced(args, setups, own_setup, passes, peak_rss_mb, failures)
        attempted = sum(len(p.results) for p in passes)
        _emit(not failures, attempted, len(failures), metrics, "end_to_end")
        return 0
    finally:
        os.chdir(ROOT)
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK)


def _traced_run(args, cli, ops):
    """One traced pass; per-layer metrics from its spans."""
    import workloads
    from tracer import LAYERS, Tracer, wrapper_cost

    span_cost = wrapper_cost()
    tracer = Tracer()
    tracer.install()
    try:
        results, wall = _run_pass(cli, ops, "pass1")[:2]
    finally:
        tracer.uninstall()
    failures, max_rel = _gate(args.workload, args.seed, ["pass1"], [results])
    _print_ops([Pass(results, wall, None, 1.0, 0)], failures)
    ids = workloads.CUBE_IDS + workloads.KERNEL_IDS + workloads.BREADTH_IDS
    m = tracer.layer_metrics(sorted(ids))
    hook_s = m.pop("trace.hook_s")
    # Benchmark time inside the pass: counting hooks plus the loop around ops.
    m["bench.self_s"] = hook_s + (wall - sum(r.wall for r in results))
    m["trace.wall_s"] = wall
    layer_self = sum(m[f"{layer}.self_s"] for layer in LAYERS)
    m["trace.accounted_frac"] = (layer_self + m["bench.self_s"]) / wall
    overhead = m["trace.spans"] * span_cost + hook_s
    m["trace.overhead_frac"] = overhead / (wall - overhead)
    m["verify.drift_max_rel"] = max_rel
    os.makedirs(TRACE_OUT, exist_ok=True)
    span_path = os.path.join(TRACE_OUT, f"trace-{args.workload}.npz")
    tracer.write(span_path)
    print(f"traced pass {wall:.3f} s; {m['trace.spans']} spans at {span_cost * 1e6:.3f} us"
          f" each plus {hook_s:.3f} s of hooks; spans in"
          f" {os.path.relpath(span_path, ROOT)}")
    for name in sorted(m):
        print(f"  {name:40s} {m[name]:.6g}")
    _emit(not failures, len(results), len(failures), m, "per_layer")
    return 0


def _write_reference(args, workdir):
    import gate
    import workloads

    cli = _setup(workdir, DEFAULT_SEED)
    outputs = {}
    for seed in (DEFAULT_SEED, DEFAULT_SEED + 1):
        workloads.write_inputs(".", seed)
        results, wall = _run_pass(cli, workloads.operations(args.workload, seed, "out"),
                                  f"seed{seed}")[:2]
        bad = [r.name for r in results if r.rc != 0]
        if bad:
            _fail(f"operations failed at seed {seed}: {bad}")
        outputs[seed] = {r.name: gate.read_outputs(os.path.join(f"seed{seed}", r.name))
                         for r in results}
        print(f"seed {seed}: {len(results)} operations in {wall:.2f} s")
    ops = {}
    for name, files in outputs[DEFAULT_SEED].items():
        other = gate.compare(files, outputs[DEFAULT_SEED + 1][name], DEFAULT_SEED + 1)
        ops[name] = {"seeded": bool(other.mismatches), "files": files}
    os.makedirs(REFERENCE_DIR, exist_ok=True)
    path = os.path.join(REFERENCE_DIR, f"{args.workload}.json.gz")
    gate.save_reference(path, DEFAULT_SEED, ops)
    seeded = sorted(n for n, e in ops.items() if e["seeded"])
    print(f"wrote {os.path.relpath(path, ROOT)}; seeded operations: {seeded}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
