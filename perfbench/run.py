"""necklace-walks benchmark: closed-loop CLI workloads, checked and timed.

Run from the root of a checkout:

    python3 perfbench/run.py --workload mix-curve --seed 1 --seconds 30 --trace 0

Each run of a workload spawns a fresh child process (child.py) that
imports the package from ./src and runs the workload's CLI operations one
after the other, in-process, through ``necklace_walks.cli.main``.  Runs
repeat until the next one would overrun ``--seconds``.  Every output is
checked against an independent reference (checks.py) outside the timed
region.  The last stdout line is one JSON object: with ``--trace 0`` the
end-to-end metrics (medians over runs), with ``--trace 1`` the per-layer
metrics from traced runs that alternate with untraced ones.  Lines before
it summarise failures, ops_failed_frac and the environment.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
# Set-up is sampled by this many extra children that only import the package.
SETUP_PROBES = 3
# A child gets this long at most; a run must end within 180 s.
RUN_LIMIT_S = 170.0
# Package worker threads on the workload that exercises the thread pool;
# BLAS is pinned to one thread so threads x BLAS threads <= nproc.
POOL_THREADS = 2
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny sizes are for the benchmark's own tests")
    return parser.parse_args(argv)


def _benchmark_spec() -> dict:
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


class Runner:
    """Spawns children for one workload invocation and collects their results."""

    def __init__(self, root: str, workdir: str, started: float):
        self.src = os.path.join(root, "src")
        self.workdir = workdir
        self.started = started
        self.env = {k: v for k, v in os.environ.items() if k != "NECKLACE_WALKS_THREADS"}
        self.env.update({name: "1" for name in BLAS_ENV})

    def child(self, ops: list[list[str]], trace: bool) -> dict | None:
        """Run one child; None if it produced no result."""
        spec_path = os.path.join(self.workdir, "child_spec.json")
        result_path = os.path.join(self.workdir, "child_result.json")
        with open(spec_path, "w", encoding="utf-8") as handle:
            json.dump({"src": self.src, "ops": ops, "trace": trace}, handle)
        if os.path.exists(result_path):
            os.remove(result_path)
        timeout = max(1.0, RUN_LIMIT_S - (time.perf_counter() - self.started))
        with open(os.path.join(self.workdir, "child.log"), "a", encoding="utf-8") as log:
            spawned = time.perf_counter()
            try:
                subprocess.run([sys.executable, os.path.join(HERE, "child.py"), spec_path,
                                result_path], env=self.env, stdout=log, stderr=log,
                               timeout=timeout, check=False)
            except subprocess.TimeoutExpired:
                return None
        if not os.path.exists(result_path):
            return None
        with open(result_path, encoding="utf-8") as handle:
            result = json.load(handle)
        result["setup_s"] = result["ready"] - spawned
        result["span_s"] = time.perf_counter() - spawned
        return result


def main(argv=None) -> int:
    args = _parse(argv)
    started = time.perf_counter()
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "necklace_walks", "cli.py")):
        print(f"error: no package source at {src}/necklace_walks", file=sys.stderr)
        return 2
    for name in BLAS_ENV:
        os.environ[name] = "1"
    sys.path[:0] = [src, HERE]
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    bench = _benchmark_spec()
    workdir = os.path.join(root, ".perfbench_work", args.workload)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    runner = Runner(root, workdir, started)

    threads = min(POOL_THREADS, len(os.sched_getaffinity(0)))
    ops = workloads.build(args.workload, args.seed, args.size, threads, workdir)
    t_check = time.perf_counter()
    for op in ops:
        op.ref = op.reference()
    check_s = time.perf_counter() - t_check

    setups = []
    for _ in range(SETUP_PROBES):
        probe = runner.child([], trace=False)
        if probe is not None:
            setups.append(probe["setup_s"])

    argvs = [op.argv for op in ops]
    runs = {False: [], True: []}
    attempted = failed = 0
    messages: list[str] = []
    measure_start = time.perf_counter()
    longest = 0.0
    traced = False
    while True:
        result = runner.child(argvs, trace=traced)
        t_check = time.perf_counter()
        for i, op in enumerate(ops):
            attempted += op.records
            if result is None or result["ops"][i]["exit"] != 0:
                failed += op.records
                messages.append(f"{op.name}: no result" if result is None
                                else f"{op.name}: exit code {result['ops'][i]['exit']}")
                continue
            with open(op.argv[op.argv.index("--output") + 1], encoding="utf-8") as handle:
                text = handle.read()
            try:
                failures = op.check(text, op.ref)
            except (ValueError, IndexError) as exc:
                failures = [f"{op.name}: unreadable output ({exc})"] * op.records
            failed += min(len(failures), op.records)
            messages += failures
        check_s += time.perf_counter() - t_check
        if result is not None:
            runs[traced].append(result)
            setups.append(result["setup_s"])
            longest = max(longest, result["span_s"] + time.perf_counter() - t_check)
        if args.trace:
            traced = not traced
        elapsed = time.perf_counter() - measure_start
        need_more = not runs[False] or (args.trace and not runs[True])
        if result is None or not (need_more or elapsed + longest <= args.seconds):
            break

    if not runs[False] or (args.trace and not runs[True]):
        print("error: no run produced a result; see " + os.path.join(workdir, "child.log"),
              file=sys.stderr)
        return 1

    plain = runs[False]
    wall = statistics.median(r["wall_s"] for r in plain)
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    if args.trace:
        samples = [spans.layer_metrics(r["trace"], r["ops"]) for r in runs[True]]
        values = spans.median_metrics(samples)
        values["oracle.check_s"] = check_s
        values["setup.import_s"] = statistics.median(r["import_s"] for r in runs[True])
        values["trace.overhead_s"] = statistics.median(r["wall_s"] for r in runs[True]) - wall
        names = [m["name"] for m in bench["per_layer"]]
    else:
        values = {
            "wall_s": wall,
            "cpu_s": statistics.median(r["cpu_s"] for r in plain),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(r["peak_rss_kb"] for r in plain) / 1024.0,
        }
        names = [m["name"] for m in bench["end_to_end"]]

    for message in messages[:20]:
        print(f"# failed: {message}")
    if len(messages) > 20:
        print(f"# failed: ... {len(messages) - 20} more")
    print(f"# runs: {len(plain)} untraced, {len(runs[True])} traced; "
          f"set-up samples: {len(setups)}")
    print(f"# wall_s per untraced run: {[round(r['wall_s'], 4) for r in plain]}")
    print(f"# ops_failed_frac = {failed / attempted!r} ({failed} of {attempted})")
    record = {"workload": args.workload, "seed": args.seed, **plain[-1]["env"]}
    print(f"# environment: {json.dumps(record, sort_keys=True)}")
    for name in names:
        print(f"# {name} = {values[name]!r} {units[name]}")
    metrics = {name: {"value": values[name], "unit": units[name]} for name in names}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
