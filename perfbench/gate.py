"""Correctness gate: every operation's output files against a reference.

The reference holds, for the default seed, the text of every file each
operation writes (summary JSON and CSV traces, timestamp blanked), plus
whether the operation's output depends on the seed at all.

Rules, per leaf value:

* verdicts, booleans, integers and strings match exactly;
* floats agree within 1e-12 relative; a check row's ``value`` may also
  differ by up to 1e-13 absolute, because residual checks (slot
  symmetry, mean-slot collapse, Gram errors ...) report roundoff;
* every ``seed`` field equals the seed of the run.

For a seed other than the reference seed, seed-independent operations are
still compared in full; seeded ones must match the reference's structure
(files, keys, list lengths, CSV shape, strings) and pass their checks.
Repetitions of one operation within a run must be byte-identical apart
from the timestamp.
"""

from __future__ import annotations

import csv
import gzip
import hashlib
import io
import json
import math
import os
import re

REL_TOL = 1e-12
ROUNDOFF_FLOOR = 1e-13
_TIMESTAMP = re.compile(r'"timestamp": "[^"]*"')


def read_outputs(op_dir):
    """{file name: text} for one operation, timestamp blanked."""
    out = {}
    if not os.path.isdir(op_dir):
        return out
    for name in sorted(os.listdir(op_dir)):
        with open(os.path.join(op_dir, name)) as fh:
            out[name] = _TIMESTAMP.sub('"timestamp": ""', fh.read())
    return out


def digest(files):
    h = hashlib.sha256()
    for name, text in sorted(files.items()):
        h.update(name.encode() + b"\0" + text.encode() + b"\0")
    return h.hexdigest()


def save_reference(path, seed, ops):
    """ops: {op name: {"seeded": bool, "files": {name: text}}}."""
    with gzip.open(path, "wt") as fh:
        json.dump({"seed": seed, "ops": ops}, fh, sort_keys=True)


def load_reference(path):
    with gzip.open(path, "rt") as fh:
        return json.load(fh)


class Comparison:
    """Mismatches and the largest relative drift of one comparison."""

    def __init__(self, seed, structural):
        self.seed = seed
        self.structural = structural
        self.problems = []   # the first few mismatches, for the report
        self.mismatches = 0
        self.max_rel = 0.0

    def _bad(self, path, msg):
        self.mismatches += 1
        if len(self.problems) < 5:
            self.problems.append(f"{path}: {msg}")

    def floats(self, path, a, b, floor):
        if self.structural:
            return
        if not (math.isfinite(a) and math.isfinite(b)):
            if not (a == b or (math.isnan(a) and math.isnan(b))):
                self._bad(path, f"{b!r} != reference {a!r}")
            return
        diff = abs(a - b)
        if floor and diff <= ROUNDOFF_FLOOR:
            return
        scale = max(abs(a), abs(b))
        rel = diff / scale if scale > 0 else 0.0
        self.max_rel = max(self.max_rel, rel)
        if rel > REL_TOL:
            self._bad(path, f"{b!r} drifts {rel:.3g} from reference {a!r}")

    def json(self, path, a, b, floor=False):
        if isinstance(a, dict) and isinstance(b, dict):
            if sorted(a) != sorted(b):
                self._bad(path, f"keys {sorted(b)} != reference {sorted(a)}")
                return
            is_check = "name" in a and "ok" in a
            for k in a:
                if k == "timestamp":
                    continue
                if k == "seed":
                    if b[k] != self.seed:
                        self._bad(f"{path}/seed", f"{b[k]!r} != run seed {self.seed}")
                    continue
                self.json(f"{path}/{k}", a[k], b[k], is_check and k == "value")
        elif isinstance(a, list) and isinstance(b, list):
            if len(a) != len(b):
                self._bad(path, f"length {len(b)} != reference {len(a)}")
                return
            for i, (x, y) in enumerate(zip(a, b)):
                self.json(f"{path}/{i}", x, y, floor)
        elif type(a) is not type(b):
            self._bad(path, f"type {type(b).__name__} != reference {type(a).__name__}")
        elif isinstance(a, float):
            self.floats(path, a, b, floor)
        elif isinstance(a, (bool, int)) and self.structural:
            return
        elif a != b:
            self._bad(path, f"{b!r} != reference {a!r}")

    def csv(self, path, a_text, b_text):
        a_rows = list(csv.reader(io.StringIO(a_text)))
        b_rows = list(csv.reader(io.StringIO(b_text)))
        if len(a_rows) != len(b_rows):
            self._bad(path, f"{len(b_rows)} rows != reference {len(a_rows)}")
            return
        for i, (ra, rb) in enumerate(zip(a_rows, b_rows)):
            if len(ra) != len(rb):
                self._bad(f"{path}:{i}", "row width differs")
                continue
            for j, (x, y) in enumerate(zip(ra, rb)):
                self._cell(f"{path}:{i}:{j}", x, y)

    def _cell(self, path, x, y):
        for kind in (int, float):
            try:
                a, b = kind(x), kind(y)
            except ValueError:
                continue
            if kind is float:
                self.floats(path, a, b, False)
            elif a != b and not self.structural:
                self._bad(path, f"{y} != reference {x}")
            return
        if x != y:
            self._bad(path, f"{y!r} != reference {x!r}")


def compare(ref_files, files, seed, structural=False):
    """Compare one operation's files with its reference files."""
    cmp = Comparison(seed, structural)
    if sorted(ref_files) != sorted(files):
        cmp._bad("files", f"{sorted(files)} != reference {sorted(ref_files)}")
        return cmp
    for name in ref_files:
        if name.endswith(".json"):
            cmp.json(name, json.loads(ref_files[name]), json.loads(files[name]))
        else:
            cmp.csv(name, ref_files[name], files[name])
    return cmp
