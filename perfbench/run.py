"""Benchmark of the oscext command line, run in-process from a source checkout.

    python3 perfbench/run.py --workload cantor_sweep --seed 42 --seconds 50 --trace 0

Each job calls ``oscext.cli.main([...])`` in this process; one caller runs
the jobs back to back (a closed loop).  A pass is one run over a workload's
jobs.  After one untimed warm-up pass on the smoke inputs, passes repeat
while the next one still fits in ``--seconds``.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json: ``setup_s``
(median over fresh interpreters running ``import oscext.cli``), ``wall_s``
(the pass time: each job's median time across the passes, summed) and
``peak_rss_mb`` (this process's ``ru_maxrss`` at the end of the first
measured pass).
``--trace 1`` spends half the time on untraced passes and the rest on passes
with every public oscext function wrapped (see tracer.py), and reports the
per-layer metrics: medians over the traced passes, plus per-job times from
the untraced passes and the traced/untraced pass-time ratio.

Every job's output is checked (workloads.py); a job fails when it exits
non-zero, raises, or fails a check.  The last line of standard output is the
result: ``{"correct", "attempted", "failed", "metrics"}``.  The line before it
(``info ...``) holds the run context, the fail ratio, the result digest and
the distance from the acceptance gates.  ``--smoke`` runs the same checks on
small inputs.  The exit code is 0 only when the run is correct.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import workloads
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 5

# Per-layer metrics that must read non-zero in a workload's traced pass.  Each
# names a layer whose cost the workload's wall_s should follow, so a change
# to that layer is expected to move wall_s there (and only there).  Entries
# are metric-name prefixes.
SHOULD_MOVE = {
    # cantor backend: cylinder layering and the cantor branch of local_scales.
    "cantor_sweep": (
        "space.local_scales.", "derive.pair_step.", "derive.iterate.",
        "derive.index_profile.self_s", "derive.index_profile.entries",
        "extend.layered_extension.", "extend.limsup_extension.", "extend.nearest_in_set.",
        "instances.cantor_instance.", "instances.block_parity_field.",
        "cli.self_s", "cli.out_bytes", "cli.job_s.ex1",
    ),
    # kd-tree derivation: iterate (with its incremental engine) and index_profile.
    "cloud_index": (
        "derive.iterate.", "derive.index_profile.self_s", "derive.index_profile.entries",
        "instances.generate_from_spec.", "cli.self_s", "cli.out_bytes",
    ),
    # many small dense calls, the unity layer, the six constructions, JSON emission.
    "ladder_extend": (
        "space.local_scales.", "space.dists_among.", "space.ball.", "space.cb_filtration.",
        "space.space_to_document.", "derive.pair_step.", "derive.osc_at_point.", "unity.",
        "extend.glue_extension.", "extend.iterated_extension.", "extend.layered_extension.",
        "extend.limsup_extension.", "extend.retract_extension.", "extend.scattered_extension.",
        "extend.nearest_in_set.", "extend.visibility_components.",
        "instances.generate_from_spec.", "cli.self_s", "cli.out_bytes",
    ) + tuple(f"cli.job_s.{m}" for m in workloads.METHODS),
}
# Layers a workload does not reach; a non-zero reading is reported, not failed.
EXPECT_ZERO = {"cantor_sweep": ("unity.",), "cloud_index": ("unity.", "extend.")}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", required=True, choices=("cantor_sweep", "cloud_index", "ladder_extend"))
    p.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    p.add_argument("--seconds", type=int, default=50)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="small inputs, same checks")
    return p.parse_args(argv)


def run_context(seed):
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "seed": seed,
        "loadavg_start": os.getloadavg(),
    }


def measure_setup():
    """Median wall time of a fresh interpreter importing oscext.cli."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    times = []
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import oscext.cli"], env=env, cwd=ROOT,
                       check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - started)
    return statistics.median(times)


def run_job(cli, argv):
    """(exit code or None on an exception, seconds, stdout text, error text)."""
    out, err = io.StringIO(), io.StringIO()
    started = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except SystemExit as exc:  # argparse rejects its arguments
        rc = exc.code
    except Exception:  # a crash is a failed job, not a failed benchmark
        rc = None
        err.write(traceback.format_exc())
    return rc, time.perf_counter() - started, out.getvalue(), err.getvalue()


def run_pass(cli, job_list, tracer=None, pass_id=0):
    result = {"wall": 0.0, "job_s": {}, "failed": 0, "problems": [], "out_bytes": 0, "jobs": set()}
    parts = []
    for name, argv, check in job_list:
        job_id = f"{pass_id}:{name}"
        if tracer is not None:
            tracer.job = job_id
        rc, seconds, out, err = run_job(cli, argv)
        result["wall"] += seconds
        result["job_s"][name] = seconds
        result["out_bytes"] += len(out.encode())
        result["jobs"].add(job_id)
        if rc == 0:
            problems, part = check(out)
        else:
            problems, part = [f"{name}: exit {rc}: {err.strip()[-300:]}"], ""
        parts.append(part)
        if problems:
            result["failed"] += 1
            result["problems"].extend(problems)
    result["digest"] = workloads.digest(parts)
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return result


def job_times(passes):
    """Each job's median time across the passes."""
    return {name: statistics.median(p["job_s"][name] for p in passes)
            for name in passes[0]["job_s"]}


def pass_time(passes):
    return sum(job_times(passes).values())


def run_passes(cli, job_list, budget, tracer=None, first_id=0):
    """Passes back to back while the next one (at the median pass time) fits."""
    passes = []
    started = time.perf_counter()
    while not passes or (time.perf_counter() - started
                         + statistics.median(p["wall"] for p in passes) <= budget):
        passes.append(run_pass(cli, job_list, tracer, first_id + len(passes)))
    return passes


def layer_metrics(tracer, traced, untraced, spec):
    summaries = [tracer.summary(p["jobs"]) for p in traced]
    med = statistics.median
    metrics = {}
    for m in spec:
        name = m["name"]
        if name == "trace_overhead_ratio":
            value = pass_time(traced) / pass_time(untraced)
        elif name == "cli.out_bytes":
            value = med([p["out_bytes"] for p in traced])
        elif name.startswith("cli.job_s."):
            job = name[len("cli.job_s."):]
            value = job_times(untraced).get(job, 0.0)
        elif name == "derive.pair_step.kept_ratio":
            value = med([s["derive.pair_step.kept"] / s["derive.pair_step.members"]
                         if s["derive.pair_step.members"] else 0.0 for s in summaries])
        else:
            value = med([s.get(name, 0.0) for s in summaries])
        metrics[name] = {"value": value, "unit": m["unit"]}
    return metrics


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "oscext" / "cli.py").is_file():
        print(f"no oscext sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    context = run_context(args.seed)
    if not args.trace:
        setup_s = measure_setup()
    sys.path.insert(0, str(SRC))
    from oscext import cli

    job_list = workloads.jobs(args.workload, args.seed, args.smoke)
    runs = [run_pass(cli, workloads.jobs(args.workload, args.seed, True), pass_id="warmup")]
    problems = []
    if args.trace:
        untraced = run_passes(cli, job_list, args.seconds / 2)
        tracer = Tracer()
        left = tracer.install()
        if left:
            problems.append(f"unwrapped import sites: {left}")
        remaining = args.seconds - sum(p["wall"] for p in untraced)
        traced = run_passes(cli, job_list, remaining, tracer, first_id=len(untraced))
        runs += untraced + traced
        metrics = layer_metrics(tracer, traced, untraced, spec["per_layer"])
        for name, m in metrics.items():
            if name.startswith(SHOULD_MOVE[args.workload]) and m["value"] == 0:
                problems.append(f"{name} reads zero on {args.workload}")
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json")
        measured = untraced
    else:
        measured = run_passes(cli, job_list, args.seconds)
        runs += measured
    wall_s = pass_time(measured)
    if not args.trace:
        values = {
            "setup_s": setup_s,
            "wall_s": wall_s,
            # High-water mark up to the end of the first pass, so it does
            # not depend on how many passes fit in the run.
            "peak_rss_mb": measured[0]["rss_mb"],
        }
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}

    digests = sorted({p["digest"] for p in runs[1:]})
    if len(digests) != 1:
        problems.append(f"passes disagree on the result digest: {digests}")
    notes = [n for n, m in metrics.items()
             if n.startswith(EXPECT_ZERO.get(args.workload, ())) and m["value"] != 0]
    # Only cloud_index reads the seed; the reference holds for the default one.
    compared = args.workload != "cloud_index" or args.seed == workloads.DEFAULT_SEED
    if compared:
        for smoke, p in ((True, runs[0]), (args.smoke, runs[1])):
            reference = workloads.REFERENCE_DIGESTS[(args.workload, smoke)]
            if p["digest"] != reference:
                problems.append(f"result digest {p['digest']} differs from the reference {reference}")
    attempted = sum(len(p["jobs"]) for p in runs)
    failed = sum(p["failed"] for p in runs)
    info = {
        "workload": args.workload,
        "smoke": args.smoke,
        "trace": args.trace,
        "context": dict(context, loadavg_end=os.getloadavg()),
        "passes": len(measured),
        "pass_s": [p["wall"] for p in measured],
        "job_s": [p["job_s"] for p in measured],
        "fail_ratio": f"{failed}/{attempted}",
        "digest": runs[1]["digest"],
        "digest_compared": compared,
        "problems": [q for p in runs for q in p["problems"]][:20] + problems,
        "nonzero_outside_layers": notes,
    }
    if args.workload in workloads.GATES:
        crit, limit = workloads.GATES[args.workload]
        info["gate"] = {"criterion": crit, "limit_s": limit, "wall_s": wall_s,
                        "share_of_limit": wall_s / limit}
    correct = failed == 0 and not problems
    print("info " + json.dumps(info, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
