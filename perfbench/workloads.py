"""Workloads of the oscext benchmark: the CLI jobs each runs and the checks on their output.

A job is one ``oscext.cli.main(argv)`` call.  Its check returns a list of
problems (empty when the output is right) and the part of the output the
result digest covers: the CSV rows, or the extended field plus
``patch_magnitude``.  The digest leaves the rest of the instance document
out, so adding keys to it is not counted as a change of results.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json

DEFAULT_SEED = 42
METHODS = ("glue", "iterated", "layered", "limsup", "retract", "scattered")
DYADIC_GRID = [2.0**-j for j in range(1, 9)]
CANTOR_GRID = sorted(set(DYADIC_GRID + [3.0**-j for j in range(1, 5)]), reverse=True)
TRIADIC = [3.0**-j for j in range(1, 5)]

# Full-size and smoke inputs.  Only cloud_index reads the seed.
SIZES = {
    False: {"depths": "6,8,10,12", "cloud_points": 20000, "ordinal": 3},
    True: {"depths": "6,8", "cloud_points": 5000, "ordinal": 2},
}

# Result digests of the seed code on the default seed, per (workload, smoke).
REFERENCE_DIGESTS = {
    ("cantor_sweep", False):
        "9217185d2db4597f5b04d2b7289911cb79a51d551faaea9eaa5fd77f96cc91aa",
    ("cantor_sweep", True):
        "e896e9586c598487f861810482e58e3aeb95bb53e7b155ad7acd6b287f225886",
    ("cloud_index", False):
        "eae525df22691b34fe4fbefb5595b72abe46308e4fb3be1b8d3c2deeb152b083",
    ("cloud_index", True):
        "01285f36fa6c35c9ca03b91d12624034327cf5e02826f168575761acbbd775a8",
    ("ladder_extend", False):
        "366e8e5cb3a74de65515b258c40579e2ed918ae6aa333217db5e176d2aa7839e",
    ("ladder_extend", True):
        "7550cb2e8d3f1f1d8e2aabd7436ceb156d2ca7305508ebf97565a85e370d4a70",
}

# Acceptance gates (criterion number, seconds) the pass time is compared with.
GATES = {"cantor_sweep": (5, 300.0), "cloud_index": (9, 10.0)}


def jobs(workload, seed, smoke):
    """(job name, argv, check) for each job of one pass."""
    size = SIZES[smoke]
    if workload == "cantor_sweep":
        depths = [int(d) for d in size["depths"].split(",")]
        return [("ex1", ["ex1", "--depths", size["depths"], "--format", "csv"],
                 lambda out: check_ex1(out, depths))]
    if workload == "cloud_index":
        n = size["cloud_points"]
        return [("index", ["index", "--generate", f"random:{seed}:{n}:2", "--format", "csv"],
                 lambda out: check_index(out, n))]
    if workload == "ladder_extend":
        spec = f"ordinal:{size['ordinal']}"
        return [(m, ["extend", "--generate", spec, "--method", m],
                 lambda out, m=m: check_extend(out, m)) for m in METHODS]
    raise ValueError(f"unknown workload {workload!r}")


def digest(parts):
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode())
        h.update(b"\0")
    return h.hexdigest()


def _csv_rows(out, header):
    rows = list(csv.reader(io.StringIO(out)))
    if not rows or rows[0] != header:
        return None
    return rows[1:]


def check_ex1(out, depths):
    """Criterion 5: layered index <= 3 at every epsilon.  Criterion 6: limsup
    index >= 3 or SATURATED at 3^-j for depth >= 8."""
    rows = _csv_rows(out, ["depth", "method", "epsilon", "index"])
    if rows is None:
        return ["ex1: missing or wrong CSV header"], out
    problems = []
    expected = len(depths) * 2 * len(CANTOR_GRID)
    if len(rows) != expected:
        problems.append(f"ex1: {len(rows)} rows, expected {expected}")
    for depth, method, eps, index in rows:
        if method == "layered" and (index == "SATURATED" or int(index) > 3):
            problems.append(f"ex1: layered index {index} > 3 at depth {depth}, eps {eps}")
        if (method == "limsup" and int(depth) >= 8 and float(eps) in TRIADIC
                and index != "SATURATED" and int(index) < 3):
            problems.append(f"ex1: limsup index {index} < 3 at depth {depth}, eps {eps}")
    return problems, out


def check_index(out, n):
    """8 rows on the default grid; level sizes start at n and strictly decrease."""
    rows = _csv_rows(out, ["epsilon", "index", "level_sizes"])
    if rows is None:
        return ["index: missing or wrong CSV header"], out
    problems = []
    if [float(r[0]) for r in rows] != DYADIC_GRID:
        problems.append(f"index: {len(rows)} rows, expected the 8-epsilon default grid")
    for eps, index, levels in rows:
        sizes = [int(s) for s in levels.split(";")]
        if sizes[0] != n or any(b >= a for a, b in zip(sizes, sizes[1:])):
            problems.append(f"index: level sizes not strictly decreasing from {n} at eps {eps}")
        emptied = sizes[-1] == 0
        if emptied != (index != "SATURATED") or (emptied and int(index) != len(sizes) - 1):
            problems.append(f"index: index {index} disagrees with level sizes at eps {eps}")
    return problems, out


def check_extend(out, method):
    """F_<method> restricts bit-exactly to f on Y."""
    try:
        doc = json.loads(out)
        fields = doc["instance"]["fields"]
        f, F = fields["f"], fields[f"F_{method}"]
        Y = doc["instance"]["subsets"]["Y"]
        patch = doc["report"]["patch_magnitude"]
        restriction_error = doc["report"]["restriction_error"]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"{method}: unreadable output ({exc!r})"], out
    f_at = dict(zip(f["domain"], f["values"]))
    F_at = dict(zip(F["domain"], F["values"]))
    problems = []
    bad = [y for y in Y if y not in F_at or F_at[y] != f_at[y]]
    if bad:
        problems.append(f"{method}: F_{method} differs from f at {len(bad)} points of Y")
    if restriction_error != 0.0:
        problems.append(f"{method}: restriction_error {restriction_error!r}")
    return problems, json.dumps([F["domain"], F["values"], patch])
