"""Fast self-check of the benchmark harness, at toy size.

    python3 perfbench/selfcheck.py

1. Runs every workload untraced and traced for one second at toy size and
   asserts that the last output line is the result object, that it names
   every metric of ``BENCHMARK.json`` with its unit, that nothing failed,
   and that layers a workload must not touch read zero.
2. Runs every workload's verb sequence once in-process, asserts that each
   gate passes, then corrupts one output per gate and asserts that the gate
   reports it.

Exits 0 when every check holds; prints the first failure and exits 1
otherwise.
"""
from __future__ import annotations

import csv
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

# per-layer metrics that must read zero: layers the workload never touches
UNTOUCHED = {
    "recordings": ["visibility.visible_s", "visibility.calls",
                   "saliency.fpfh_s", "saliency.uniqueness_s",
                   "saliency.map_self_s", "saliency.baseline_s"],
    "views": ["gaze.rays", "gaze.trace_s", "gaze.recording_read_s"],
    "study": ["gaze.rays"],
}


def check(cond, msg):
    if not cond:
        raise AssertionError(msg)


def check_result_lines(spec):
    for wl in [w["name"] for w in spec["workloads"]]:
        for trace, listed in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                 wl, "--seed", "0", "--seconds", "1", "--trace", str(trace),
                 "--toy"], cwd=ROOT, capture_output=True, text=True,
                timeout=170)
            where = f"{wl} --trace {trace}"
            check(proc.returncode == 0, f"{where}: exit {proc.returncode}\n"
                  f"{proc.stderr[-2000:]}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  f"{where}: result keys {sorted(result)}")
            check(result["correct"] and result["failed"] == 0
                  and result["attempted"] >= 1, f"{where}: {proc.stdout}")
            metrics = result["metrics"]
            check(set(metrics) == {m["name"] for m in listed},
                  f"{where}: metrics {sorted(metrics)}")
            for m in listed:
                got = metrics[m["name"]]
                check(got["unit"] == m["unit"], f"{where}: {m['name']} unit")
                check(isinstance(got["value"], (int, float)),
                      f"{where}: {m['name']} = {got['value']!r}")
            if trace:
                for name in UNTOUCHED[wl]:
                    check(metrics[name]["value"] == 0,
                          f"{where}: {name} = {metrics[name]['value']}")
            else:
                for name, got in metrics.items():
                    check(got["value"] > 0, f"{where}: {name} is not positive")
            print(f"ok   {where}: {len(metrics)} metrics")


# ---------------------------------------------------------------------------
# corruptions: each breaks one output that one gate must catch

def _rewrite_csv(path, edit):
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    rows = [rows[0]] + [edit(r) for r in rows[1:]]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def _edit_json(path, edit):
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    edit(data)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)


def _first_pose_csv(out):
    name = sorted(f for f in os.listdir(out) if f.endswith(".meta.json"))[0]
    return os.path.join(out, name[:-len(".meta.json")])


def _move_fixations(run):
    _rewrite_csv(os.path.join(run, "fix", "s00.csv"),
                 lambda r: r[:2] + [repr(float(x) + 0.5) for x in r[2:5]]
                 + r[5:])


def _saliency_out_of_range(run):
    base = _first_pose_csv(os.path.join(run, "sal_sphere"))
    _rewrite_csv(base + ".csv", lambda r: [r[0], "1.5"] + r[2:])


def _flip_subsampled(run):
    base = _first_pose_csv(os.path.join(run, "sal_grid"))
    _edit_json(base + ".meta.json",
               lambda d: d.update(uniqueness_subsampled=False))


def _infinite_ground_truth(run):
    gt = os.path.join(run, "gt")
    bucket = sorted(f for f in os.listdir(gt) if f.endswith(".vis.csv"))[0]
    _rewrite_csv(os.path.join(gt, bucket.replace(".vis.csv", ".csv")),
                 lambda r: [r[0], "inf"])


CORRUPT = {
    ("recordings", "synth"): lambda run: os.remove(
        os.path.join(run, "recs", "targets.json")),
    ("recordings", "process"): _move_fixations,
    ("recordings", "fdm"): lambda run: _rewrite_csv(
        os.path.join(run, "maps", "fdm.csv"), lambda r: [r[0], "nan"]),
    ("views", "saliency"): _saliency_out_of_range,
    ("views", "saliency#2"): _flip_subsampled,
    ("views", "baseline"): lambda run: _rewrite_csv(
        os.path.join(run, "base", "curvature.csv"), lambda r: [r[0], "-1.0"]),
    ("study", "fdm_by_pose"): _infinite_ground_truth,
    ("study", "baseline"): lambda run: _rewrite_csv(
        os.path.join(run, "base", "curvature.csv"), lambda r: [r[0], "0.0"]),
    ("study", "evaluate"): lambda run: _edit_json(
        os.path.join(run, "report.json"),
        lambda d: d["aggregate"].update(E_cc=float("nan"))),
    ("study", "analyze"): lambda run: _edit_json(
        os.path.join(run, "stats", "inter_observer.json"),
        lambda d: d.update(skipped="corrupted")),
}


def check_gates():
    from meshgaze.cli import main as cli_main
    from workloads import WORKLOADS
    top = os.path.join(ROOT, ".perfbench", f"selfcheck-{os.getpid()}")
    try:
        for name, cls in WORKLOADS.items():
            wl = cls(toy=True)
            inputs = os.path.join(top, name, "inputs")
            run = os.path.join(top, name, "run")
            os.makedirs(inputs)
            wl.prepare(inputs, seed=0)
            steps = wl.steps(run)
            keys, seen = [], {}
            for step in steps:
                if step.before is not None:
                    step.before()
                check(cli_main(step.argv) == 0, f"{name} {step.verb} failed")
                problems = step.gate(run)
                check(not problems, f"{name} {step.verb}: {problems}")
                n = seen[step.verb] = seen.get(step.verb, 0) + 1
                keys.append((name, step.verb if n == 1 else f"{step.verb}#{n}"))
            for step, key in zip(steps, keys):
                if key not in CORRUPT:
                    continue
                saved = os.path.join(top, name, "saved")
                shutil.copytree(run, saved)
                CORRUPT[key](run)
                problems = step.gate(run)
                check(problems, f"{key}: corrupted output passed the gate")
                print(f"ok   {name} {step.verb} gate: {problems[0]}")
                shutil.rmtree(run)
                os.rename(saved, run)
            missing = [k for k in CORRUPT if k[0] == name and k not in keys]
            check(not missing, f"no step for corruptions {missing}")
    finally:
        shutil.rmtree(top, ignore_errors=True)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    try:
        check_gates()
        check_result_lines(spec)
    except AssertionError as exc:
        print(f"FAIL {exc}")
        return 1
    print("selfcheck passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
