#!/usr/bin/env python3
"""Runs one workload of the repository benchmark and reports its metrics.

    python3 perfbench/run.py --workload <name|all> --seed N --seconds S --trace 0|1 [--smoke]

Run it from the root of a checkout.  It builds the `perfbench` harness
(`perfbench/Cargo.toml`, into `$CARGO_TARGET_DIR`, default `.bench_build`),
then runs the workload in a fresh single-threaded process per iteration
until `--seconds` have passed, and prints medians with quartiles and sample
counts, host facts, and as its last line one JSON object:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

`--trace 0` reports the end-to-end metrics of BENCHMARK.json from plain
iterations.  `--trace 1` alternates plain and traced iterations and reports
the per-layer metrics from the traced ones, plus `trace_overhead_ratio`.
Outputs are checked on every iteration (see README.md); stores and exports
go to `.bench_run/` and are removed, summaries and the last span trace are
kept in `.bench_results/`.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("report-quick", "broadcast-large", "sweep-store")
# Every process must end within this many seconds of the start.
HARD_LIMIT_S = 170.0
# Fewest iterations (plain) or plain+traced pairs (trace) per run.
MIN_STEPS = {False: 3, True: 2}
# Set-up-only processes after each plain iteration: set-up takes well under
# a second, so a run can afford many more set-up samples than full runs.
SETUP_SAMPLES = 5


def log(*parts):
    print(*parts, flush=True)


def metric_specs():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["end_to_end"], spec["per_layer"]


def host_facts():
    facts = {"cores": os.cpu_count(), "cores_usable": len(os.sched_getaffinity(0))}
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                facts["cpu"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        facts["commit"] = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        facts["commit"] = "unknown (not a git checkout)"
    config = ROOT / ".cargo" / "config.toml"
    native = config.is_file() and "target-cpu=native" in config.read_text()
    facts["codegen"] = "target-cpu=native (.cargo/config.toml)" if native else "default target"
    return facts


def build():
    """Builds the harness; exits non-zero (printing no result) on failure."""
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(HERE / "Cargo.toml")]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, timeout=880)
    except (OSError, subprocess.TimeoutExpired) as exc:
        sys.exit(f"run.py: cannot build the harness: {exc}")
    if done.returncode != 0:
        sys.exit("run.py: building the harness failed; run from the root of a full checkout")
    return target / "release" / "perfbench"


class Iterations:
    """Runs harness processes and keeps what each measured."""

    def __init__(self, binary, args, deadline, spans_path):
        self.binary = binary
        self.args = args
        self.deadline = deadline
        self.spans_path = spans_path
        self.rundir = ROOT / ".bench_run" / f"{args.workload}-{os.getpid()}"
        self.plain, self.traced, self.setups, self.errors = [], [], [], []
        self.count = 0

    def run(self, traced=False, setup_only=False):
        self.count += 1
        workdir = self.rundir / f"it{self.count}"
        cmd = [str(self.binary), "--workload", self.args.workload, "--seed", str(self.args.seed),
               "--dir", str(workdir)]
        if traced:
            cmd += ["--trace", "--spans", str(self.spans_path)]
        if setup_only:
            cmd.append("--setup-only")
        if self.count == 1:
            cmd.append("--verify")
        if self.args.smoke:
            cmd.append("--smoke")
        try:
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            self.errors.append("iteration timed out")
            return
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        if done.returncode != 0:
            self.errors.append(done.stderr.strip() or f"exit code {done.returncode}")
            return
        sample = json.loads(done.stdout.strip().splitlines()[-1])
        if setup_only:
            self.setups.append(sample["setup_s"])
        else:
            (self.traced if traced else self.plain).append(sample)

    def cleanup(self):
        shutil.rmtree(self.rundir, ignore_errors=True)
        try:
            self.rundir.parent.rmdir()
        except OSError:
            pass


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def check_outputs(it, args):
    """Every iteration passed its checks and produced the same outputs."""
    problems = list(it.errors)
    samples = it.plain + it.traced
    for sample in samples:
        problems += [f"check `{name}` failed" for name, ok in sample["checks"].items() if not ok]
    digests = {json.dumps(s["digests"], sort_keys=True) for s in samples}
    if len(digests) > 1:
        problems.append(f"outputs differ between iterations: {sorted(digests)}")
    if samples and not args.smoke:
        pinned = json.loads((HERE / "digests.json").read_text())
        want = pinned.get(args.workload, {}).get(str(args.seed))
        if want is not None and want != samples[0]["digests"]:
            problems.append(f"outputs differ from the pinned digests {want}")
    return problems


def run_workload(binary, args, facts):
    end_to_end, per_layer = metric_specs()
    start = time.monotonic()
    results = ROOT / ".bench_results"
    results.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{int(args.trace)}{'-smoke' if args.smoke else ''}"
    it = Iterations(binary, args, start + HARD_LIMIT_S, results / f"{stem}.spans.jsonl")
    steps, step_s = 0, 0.0
    try:
        while True:
            t0 = time.monotonic()
            it.run()
            if args.trace:
                it.run(traced=True)
            else:
                for _ in range(SETUP_SAMPLES):
                    it.run(setup_only=True)
            steps += 1
            step_s = time.monotonic() - t0
            elapsed = time.monotonic() - start
            if it.errors or elapsed + step_s > HARD_LIMIT_S:
                break
            if steps >= MIN_STEPS[args.trace] and elapsed + step_s > args.seconds:
                break
    finally:
        it.cleanup()
    elapsed = time.monotonic() - start

    problems = check_outputs(it, args)
    per_iteration = max([s["attempted"] for s in it.plain + it.traced] or [1])
    attempted = sum(s["attempted"] for s in it.plain + it.traced) + per_iteration * len(it.errors)
    failed = sum(s["failed"] for s in it.plain + it.traced) + per_iteration * len(it.errors)
    for sample in it.plain:
        sample["cells_per_s"] = (sample["attempted"] - sample["failed"]) / sample["run_s"]

    summary = {}
    if args.trace:
        for m in per_layer:
            if m["name"] == "trace_overhead_ratio":
                continue
            summary[m["name"]] = [s["layers"][m["name"]] for s in it.traced]
        if it.plain and it.traced:
            summary["trace_overhead_ratio"] = [
                statistics.median(s["run_s"] for s in it.traced)
                / statistics.median(s["run_s"] for s in it.plain) - 1.0
            ]
        wanted = per_layer
    else:
        for m in end_to_end:
            summary[m["name"]] = [s[m["name"]] for s in it.plain]
        summary["setup_s"] += it.setups
        wanted = end_to_end
    missing = [m["name"] for m in wanted if not summary.get(m["name"])]
    if missing:
        problems.append(f"no samples for {', '.join(missing)}")

    mode = "traced + plain pairs" if args.trace else "plain iterations"
    log(f"host: cores={facts['cores']} usable={facts['cores_usable']} cpu=\"{facts.get('cpu', '?')}\" "
        f"commit={facts['commit']} codegen={facts['codegen']}")
    log(f"workload {args.workload} seed {args.seed}{' (smoke size)' if args.smoke else ''}: "
        f"{steps} {mode} in {elapsed:.1f} s, single-threaded")
    log(f"  {'metric':<28} {'median':>14} {'q1':>14} {'q3':>14} {'n':>3}  unit")
    table = {}
    for m in wanted:
        values = summary.get(m["name"]) or [float("nan")]
        q1, med, q3 = quartiles(values)
        table[m["name"]] = {"median": med, "q1": q1, "q3": q3, "n": len(values), "unit": m["unit"]}
        log(f"  {m['name']:<28} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} {len(values):>3}  {m['unit']}")
    output_ok = int(not problems)
    log(f"  {'output_ok':<28} {output_ok:>14}")
    log(f"  {'fail_ratio':<28} {failed / attempted:>14.6g}  ({failed} of {attempted} cells failed)")
    if it.traced:
        self_ms = {}
        for sample in it.traced:
            for name, ms in sample["self_ms"].items():
                self_ms.setdefault(name, []).append(ms)
        self_ms["unattributed"] = [s["layers"]["unattributed_ms"] for s in it.traced]
        run_ms = statistics.median(s["run_s"] for s in it.traced) * 1e3
        log(f"  self time per layer (median of {len(it.traced)} traced runs; run {run_ms:.1f} ms):")
        for name, values in sorted(self_ms.items(), key=lambda kv: -statistics.median(kv[1])):
            med = statistics.median(values)
            log(f"    {name:<26} {med:>12.3f} ms {100 * med / run_ms:>6.1f}%")
    for sample in (it.plain + it.traced)[:1]:
        log("  digests: " + " ".join(f"{k}={v}" for k, v in sample["digests"].items()))
    for problem in problems:
        log(f"  PROBLEM: {problem}")

    record = {"workload": args.workload, "seed": args.seed, "trace": int(args.trace),
              "smoke": args.smoke, "host": facts, "elapsed_s": elapsed, "metrics": table,
              "problems": problems, "samples": it.plain + it.traced}
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    metrics = {name: {"value": row["median"], "unit": row["unit"]} for name, row in table.items()}
    return {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="reduced sizes, for the harness tests")
    args = parser.parse_args()
    args.trace = bool(args.trace)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    binary = build()
    facts = host_facts()
    if args.workload != "all":
        result = run_workload(binary, args, facts)
    else:
        result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for name in WORKLOADS:
            args.workload = name
            one = run_workload(binary, args, facts)
            result["correct"] &= one["correct"]
            result["attempted"] += one["attempted"]
            result["failed"] += one["failed"]
            for metric, value in one["metrics"].items():
                result["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
