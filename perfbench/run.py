#!/usr/bin/env python3
"""End-to-end benchmark of eccspec: census, verification and spectrum queries.

Usage, from the root of an eccspec checkout:

    python3 perfbench/run.py --workload census-n8|verify-n8|query-random \\
        --seed N --seconds S --trace 0|1

The benchmark first builds the package's extension in place if the checkout
has one to build (``setup.py build_ext --inplace``; skipped while the build's
inputs match those of the checkout's last build), then runs repetitions
of the workload, each in a fresh process, until ``--seconds`` have passed
(at least one).  It checks every output, prints each metric with its unit,
and ends with one JSON line: ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
runs the job once untraced and once traced and reports the per-layer
metrics and the tracing overhead.  Full results and the spans go to
``.bench_build/perfbench/``.
"""

import argparse
import glob
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
PREFIX = "@@perfbench "
BUDGET_S = 165.0  # one run, after the build, stays under 180 s
MAX_REPS = 50
SETUP_SAMPLES = 11  # set-up is sampled up to this often when it is short
SHORT_SETUP_S = 5.0
SETUP_SAMPLING_S = 4.0  # extra set-up samples stop after this much time
BUILD_INPUTS = ["setup.py", "pyproject.toml"]
BUILD_SOURCES = ("*.pyx", "*.pxd", "*.c", "*.h")


class BenchError(Exception):
    pass


def monotonic():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def build(root, out_dir):
    """Build the package's extension modules in place, if it declares any.
    The build is skipped when its inputs are those of the last successful
    build in this checkout."""
    digest = hashlib.sha256()
    for path in BUILD_INPUTS + sorted(
            os.path.relpath(p, root) for ext in BUILD_SOURCES
            for p in glob.glob(os.path.join(root, "src", "eccspec", ext))):
        with open(os.path.join(root, path), "rb") as fh:
            digest.update(path.encode() + b"\0" + fh.read())
    stamp = os.path.join(out_dir, "build.stamp")
    if os.path.exists(stamp):
        with open(stamp) as fh:
            if fh.read() == digest.hexdigest():
                return
    proc = subprocess.run(
        [sys.executable, "setup.py", "-q", "build_ext", "--inplace",
         "--build-temp", os.path.join(out_dir, "build-temp")],
        cwd=root, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True, timeout=850)
    if proc.returncode != 0:
        raise BenchError("build failed:\n" + proc.stdout)
    with open(stamp, "w") as fh:
        fh.write(digest.hexdigest())


class Runner:
    def __init__(self, root, args, out_dir, deadline):
        self.root = root
        self.args = args
        self.out_dir = out_dir
        self.deadline = deadline
        src = os.path.join(root, "src")
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ,
                        PYTHONPATH=src + (os.pathsep + path if path else ""))

    def child(self, mode, rep):
        """Run one repetition in a fresh process and return its report."""
        work_dir = os.path.join(self.out_dir, f"work-{os.getpid()}-{rep}")
        os.makedirs(work_dir, exist_ok=True)
        spans = os.path.join(
            self.out_dir,
            f"spans-{self.args.workload}-seed{self.args.seed}.tsv")
        cmd = [sys.executable, os.path.join(HERE, "child.py"),
               "--workload", self.args.workload, "--seed", str(self.args.seed),
               "--rep", str(rep), "--mode", mode, "--work-dir", work_dir,
               "--spans", spans]
        started = time.perf_counter()
        now = monotonic()
        cmd += ["--spawned", repr(now), "--deadline",
                repr(now + self.deadline - started)]
        proc = subprocess.Popen(cmd, cwd=self.root,
                                env=self.env, stdout=subprocess.PIPE,
                                text=True)
        try:
            out, _ = proc.communicate(
                timeout=max(1.0, self.deadline - time.perf_counter()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise BenchError(f"{mode} repetition exceeded the run budget")
        finally:
            try:
                os.rmdir(work_dir)
            except OSError:
                pass
        if proc.returncode != 0:
            raise BenchError(f"{mode} repetition exited with "
                             f"{proc.returncode}")
        lines = [ln for ln in out.splitlines() if ln.startswith(PREFIX)]
        if not lines:
            raise BenchError(f"{mode} repetition printed no report")
        report = json.loads(lines[-1][len(PREFIX):])
        report["wall_s"] = time.perf_counter() - started
        return report

    def untraced(self):
        """Repetitions until --seconds have passed, then set-up samples."""
        reps = []
        t0 = time.perf_counter()
        while True:
            reps.append(self.child("job", len(reps)))
            now = time.perf_counter()
            if (now - t0 >= self.args.seconds or len(reps) >= MAX_REPS
                    or now + 1.5 * reps[-1]["wall_s"] > self.deadline):
                break
        setups = [r["setup_s"] for r in reps]
        t1 = time.perf_counter()
        while (len(setups) < SETUP_SAMPLES and max(setups) < SHORT_SETUP_S
               and time.perf_counter() - t1 < SETUP_SAMPLING_S
               and time.perf_counter() + 3 * max(setups) < self.deadline):
            setups.append(self.child("setup", len(setups))["setup_s"])
        latencies = [x for r in reps for x in r["latencies"]]
        metrics = {
            "setup_s": statistics.median(setups),
            "latency_p50_ms": 1e3 * statistics.median(latencies)
            if latencies else 0.0,
            "latency_p90_ms": 1e3 * p90(latencies) if latencies else 0.0,
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
        }
        extra = {"repetitions": len(reps), "setup_samples": len(setups),
                 "operations": len(latencies)}
        return reps, metrics, extra

    def traced(self):
        """One traced and one untraced pass of the job; per-layer metrics
        from the traced one.  The untraced pass runs in the traced process
        when the job can repeat there, else in a fresh process of its own.
        The run fails when the untraced pass could not end within the run's
        budget, since the tracing overhead would then be unmeasured."""
        rep = self.child("trace", 0)
        reps = [rep]
        if "untraced_s" in rep:
            untraced = rep["untraced_s"]
        elif time.perf_counter() + 1.2 * rep["wall_s"] < self.deadline:
            reps.append(self.child("job", 0))
            untraced = reps[-1]["job_s"]
        else:
            untraced = None
        if untraced is None:
            raise BenchError("no time left for the untraced pass, so the "
                             "tracing overhead cannot be measured")
        metrics = dict(rep["layers"])
        traced = rep["job_s"]
        metrics.update({
            "trace.traced_s": traced,
            "trace.untraced_s": untraced,
            "trace.overhead_s": traced - untraced,
            "trace.overhead_ratio": (traced - untraced) / untraced,
        })
        extra = {"missing_targets": rep.get("missing", [])}
        return reps, metrics, extra


def p90(values):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10)[8]


def git_commit(root):
    if not os.path.isdir(os.path.join(root, ".git")):
        return "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() or "unknown"


def main(argv=None):
    root = os.getcwd()
    try:
        with open(os.path.join(root, "BENCHMARK.json")) as fh:
            manifest = json.load(fh)
    except (OSError, ValueError) as exc:
        print(f"perfbench: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in manifest["workloads"]])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=5.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(root, "src", "eccspec", "__init__.py")):
        print("perfbench: no eccspec sources under ./src; run from the root "
              "of an eccspec checkout", file=sys.stderr)
        return 2
    out_dir = os.path.join(root, ".bench_build", "perfbench")
    os.makedirs(out_dir, exist_ok=True)
    try:
        build(root, out_dir)
        runner = Runner(root, args, out_dir, time.perf_counter() + BUDGET_S)
        reps, metrics, extra = (runner.traced() if args.trace
                                else runner.untraced())
    except (BenchError, subprocess.SubprocessError, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    attempted = sum(r["attempted"] for r in reps)
    failures = [f for r in reps for f in r["failures"]]
    units = {m["name"]: m["unit"] for m in
             manifest["per_layer" if args.trace else "end_to_end"]}
    info = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "backend": reps[-1]["backend"], "python": platform.python_version(),
        "nproc": os.cpu_count(), "commit": git_commit(root),
        "run_seconds": args.seconds,
        "fail_ratio": len(failures) / attempted if attempted else 1.0,
        **extra,
    }
    if "order_histogram" in reps[-1]:
        orders = Counter()
        for r in reps:
            orders.update(r["order_histogram"])
        info["queries"] = sum(orders.values())
        info["order_histogram"] = dict(sorted(orders.items(),
                                              key=lambda kv: int(kv[0])))
    result = {
        "correct": not failures and attempted > 0,
        "attempted": max(attempted, 1),
        "failed": len(failures) if attempted else 1,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    with open(os.path.join(out_dir, f"result-{args.workload}-seed{args.seed}"
                           f"-trace{args.trace}.json"), "w") as fh:
        json.dump({"info": info, "failures": failures, **result}, fh,
                  indent=1)
    for failure in failures[:20]:
        print(f"FAILED {failure}")
    print("info " + json.dumps(info))
    for name, unit in units.items():
        print(f"{name} {metrics[name]:.6g} {unit}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
