"""Benchmark of the meshgaze CLI: verb wall times plus a traced per-layer run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The workload's inputs are generated from
the seed (see ``workloads.py``).  The runner then repeats the workload's
verb sequence for about S seconds, each verb in a fresh interpreter that
calls ``meshgaze.cli.main`` (``launch.py``), as a user pays for it.  A
closed loop: one client, at most one verb process at a time.

* ``--trace 0``: each repetition is preceded by a set-up probe.  The last
  line of output is a JSON object whose metrics are the ``end_to_end``
  metrics of ``BENCHMARK.json`` (see ``end_to_end``).
* ``--trace 1``: repetitions alternate between untraced and traced; the
  metrics are the ``per_layer`` metrics, computed from spans recorded
  around calls into each module (``tracing.py``), plus the tracing
  overhead.

Every verb's outputs pass the workload's correctness gate, and the sha256
of every output file must be the same in every repetition.  A verb
process that exits non-zero or fails either check is a failed operation.
The full run record (platform, versions, sizes, per-verb timings, output
hashes) is written to ``.perfbench/results/``.  To run every workload:

    for w in recordings views study; do
        python3 perfbench/run.py --workload $w --seed 1 --seconds 34 --trace 0
    done
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
LAUNCH = os.path.join(HERE, "launch.py")
MIN_REPEATS = 2          # the determinism check needs two repetitions
RUN_LIMIT_S = 150.0      # stop repeating well before a run's 180 s limit
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
            "NUMEXPR_NUM_THREADS")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--toy", action="store_true",
                    help="shrink every input (harness self-check)")
    return ap.parse_args(argv)


def spawn(args, log, deadline):
    """Run launch.py ARGS; return (wall s, CPU s, peak RSS MB, exit code)."""
    t0 = time.perf_counter()
    with open(log, "ab") as err:
        proc = subprocess.Popen([sys.executable, LAUNCH] + args, cwd=ROOT,
                                stdout=subprocess.DEVNULL, stderr=err)
        # a sleeping timer, not polling, so the runner stays off the CPUs
        timer = threading.Timer(max(0.0, deadline - t0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    cpu = usage.ru_utime + usage.ru_stime
    return wall, cpu, usage.ru_maxrss / 1024.0, proc.returncode


def tree_hashes(top, rel):
    """sha256 of every file under top/rel, keyed by path relative to top."""
    out = {}
    base = os.path.join(top, rel)
    paths = [base] if os.path.isfile(base) else [
        os.path.join(d, f) for d, _, files in os.walk(base) for f in files]
    for path in sorted(paths):
        with open(path, "rb") as fh:
            out[os.path.relpath(path, top)] = hashlib.sha256(
                fh.read()).hexdigest()
    return out


def timing(samples):
    """Median, the highest percentile with ten samples beyond it, and n."""
    out = {"median": statistics.median(samples), "n": len(samples),
           "samples": samples}
    ordered = sorted(samples)
    for q in (99, 95, 90, 75, 50):
        if len(samples) * (100 - q) / 100.0 >= 10:
            out[f"p{q}"] = ordered[math.ceil(q / 100.0 * len(ordered)) - 1]
            break
    return out


def run_record(args, wl):
    commit = None
    if os.path.exists(os.path.join(ROOT, ".git")):   # not in an export
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    import numpy
    import scipy
    return {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "toy": args.toy, "commit": commit,
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "platform": platform.platform(),
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "sizes": wl.sizes,
    }


class Runner:
    def __init__(self, args, wl, work):
        self.args, self.wl, self.work = args, wl, work
        self.log = os.path.join(work, "stderr.log")
        self.deadline = time.perf_counter() + RUN_LIMIT_S
        self.attempted = 0
        self.problems = []           # one entry per failed operation
        self.first_hashes = None
        self.repeats = []

    def fail(self, what, why):
        self.problems.append(f"repeat {len(self.repeats)}: {what}: {why}")

    def repeat(self, traced: bool):
        """One set-up probe (untraced only) and one verb sequence."""
        k = len(self.repeats)
        run = os.path.join(self.work, f"run{k}")
        rep = {"traced": traced, "wall": {}, "cpu": {}, "rss_mb": 0.0,
               "spans": []}
        if not traced:
            wall, cpu, _, code = spawn(["--setup"] + self.wl.meshes,
                                       self.log, self.deadline)
            self.attempted += 1
            rep["setup"] = (wall, cpu)
            if code != 0:
                self.fail("set-up probe", f"exit {code}")
        steps = self.wl.steps(run)
        codes = []
        seq_t0 = time.perf_counter()
        for i, step in enumerate(steps):
            if step.before is not None:
                step.before()
            argv = list(step.argv)
            if traced:
                spans = os.path.join(self.work, f"spans{k}_{i}.json")
                argv = ["--spans", spans] + argv
                rep["spans"].append((step.verb, spans))
            wall, cpu, rss, code = spawn(argv, self.log, self.deadline)
            rep["wall"][step.verb] = rep["wall"].get(step.verb, 0.0) + wall
            rep["cpu"][step.verb] = rep["cpu"].get(step.verb, 0.0) + cpu
            rep["rss_mb"] = max(rep["rss_mb"], rss)
            codes.append(code)
        rep["total_s"] = time.perf_counter() - seq_t0
        rep["cpu_s"] = sum(rep["cpu"].values())

        hashes = {}
        for step, code in zip(steps, codes):
            self.attempted += 1
            problems = [f"exit {code}"] if code != 0 else step.gate(run)
            step_hashes = {}
            for rel in step.outputs:
                if os.path.exists(os.path.join(run, rel)):
                    step_hashes.update(tree_hashes(run, rel))
            if self.first_hashes is not None and not problems:
                expect = {p: h for p, h in self.first_hashes.items()
                          if any(p == r or p.startswith(r + os.sep)
                                 for r in step.outputs)}
                if step_hashes != expect:
                    problems = ["output bytes differ from repeat 0"]
            hashes.update(step_hashes)
            if problems:
                self.fail(f"{step.verb} {step.argv[0]}", "; ".join(problems))
        if self.first_hashes is None:
            self.first_hashes = hashes
        rep["layers"] = self.layers(rep) if traced else None
        shutil.rmtree(run, ignore_errors=True)
        self.repeats.append(rep)

    def layers(self, rep):
        processes = []
        for verb, path in rep["spans"]:
            if not os.path.exists(path):
                continue
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
            processes.append({"verb": verb, **data})
        return tracing.layer_metrics(processes)

    def loop(self):
        """Repeat until the next repetition would end past --seconds."""
        start = time.perf_counter()
        while True:
            traced = self.args.trace == 1 and len(self.repeats) % 2 == 1
            self.repeat(traced)
            n = len(self.repeats)
            now = time.perf_counter()
            per = (now - start) / n
            end = min(start + self.args.seconds, self.deadline)
            if n >= MIN_REPEATS and now + per > end:
                break


def end_to_end(reps):
    """Timings of the untraced repeats.

    ``setup_s`` and ``sequence_cpu_s`` are CPU seconds (user + system) of
    the child processes.  On a shared machine wall times also count time
    the processes were runnable but not running; they are kept beside.
    """
    plain = [r for r in reps if not r["traced"]]
    out = {
        "setup_s": timing([r["setup"][1] for r in plain]),
        "sequence_cpu_s": timing([r["cpu_s"] for r in plain]),
        "peak_rss_mb": max(r["rss_mb"] for r in plain),
        "setup_wall_s": timing([r["setup"][0] for r in plain]),
        "total_s": timing([r["total_s"] for r in plain]),
    }
    for verb in plain[0]["wall"]:
        out[f"{verb}_s"] = timing([r["wall"][verb] for r in plain])
        out[f"{verb}_cpu_s"] = timing([r["cpu"][verb] for r in plain])
    return out


def per_layer(reps):
    """Per-layer medians over the traced repeats, and the tracing overhead.

    The overhead compares sequence CPU seconds, traced against untraced.
    """
    traced = [r["layers"] for r in reps if r["traced"]]
    out = {}
    for name in traced[0]:
        vals = [t[name] for t in traced]
        out[name] = None if any(v is None for v in vals) else \
            statistics.median(vals)
    plain = statistics.median(r["cpu_s"] for r in reps if not r["traced"])
    with_spans = statistics.median(r["cpu_s"] for r in reps if r["traced"])
    out["trace.overhead_frac"] = with_spans / plain - 1.0
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "meshgaze", "cli.py")):
        print(f"error: no meshgaze sources under {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    work = os.path.join(ROOT, ".perfbench",
                        f"{args.workload}-{args.seed}-{os.getpid()}")
    inputs = os.path.join(work, "inputs")
    os.makedirs(inputs)
    try:
        wl = WORKLOADS[args.workload](toy=args.toy)
        wl.prepare(inputs, args.seed)
        runner = Runner(args, wl, work)
        runner.loop()
        with open(runner.log, "r", encoding="utf-8", errors="replace") as fh:
            errors = [ln for ln in fh.read().splitlines()
                      if ln.startswith(("error", "Traceback"))]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    reps = runner.repeats
    e2e = end_to_end(reps)
    layers = per_layer(reps) if args.trace else {}
    failed = len(runner.problems)
    record = run_record(args, wl)
    record.update(
        repeats=len(reps), attempted=runner.attempted, failed=failed,
        failed_frac=failed / runner.attempted, problems=runner.problems,
        stderr_errors=errors[:20], end_to_end=e2e, per_layer=layers,
        output_sha256=runner.first_hashes)
    results = os.path.join(ROOT, ".perfbench", "results")
    os.makedirs(results, exist_ok=True)
    with open(os.path.join(results, f"{args.workload}-seed{args.seed}"
                           f"-trace{args.trace}.json"), "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)

    print(f"{wl.name} seed {args.seed}: {len(reps)} repeats, "
          f"{runner.attempted} operations, {failed} failed "
          f"(failed_frac {failed / runner.attempted:.4g})")
    for p in runner.problems:
        print(f"  FAILED {p}")
    for name, val in e2e.items():
        if isinstance(val, dict):
            tail = "".join(f" {k} {v:.4f}" for k, v in val.items()
                           if k[0] == "p" and k[1:].isdigit())
            print(f"  {name:<16} {val['median']:10.4f} s   "
                  f"(median of {val['n']}{tail})")
        else:
            print(f"  {name:<16} {val:10.1f} MB")
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for m in listed:
        val = (layers if args.trace else e2e)[m["name"]]
        if isinstance(val, dict):
            val = val["median"]
        metrics[m["name"]] = {"value": val, "unit": m["unit"]}
        if args.trace:
            shown = "unmeasured" if val is None else f"{val:.6g}"
            print(f"  {m['name']:<38} {shown} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": runner.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
