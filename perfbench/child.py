"""One repetition of a workload in a fresh process; started by run.py.

Modes:
  job    set up, run the job untraced
  setup  set up only (another set-up time sample)
  trace  set up and run the job with every traced function wrapped.  A job
         that repeats in one process with the same cost (``repeatable``)
         then runs again untraced, after the spans are written out and
         dropped, if it can end before ``--deadline``; the report carries
         ``untraced_s`` (None when there was no time).

The last line of standard output is ``@@perfbench <json>``.  Set-up time
runs from ``--spawned``, a CLOCK_MONOTONIC reading the parent took just
before starting this process, to the moment the inputs are ready.
"""

import argparse
import gc
import importlib
import json
import resource
import sys
import time
import traceback

import tracer as tracing
from workloads import VERIFY_SUITES, WORKLOADS, JobResult

PREFIX = "@@perfbench "


def monotonic():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _run_job(wl, state):
    """The job, with an exception counted as one failed operation."""
    try:
        return wl.job(state)
    except Exception:  # the benchmark reports the failure and keeps going
        traceback.print_exc()
        res = JobResult()
        res.gate(False, "exception: " + traceback.format_exc()
                 .strip().splitlines()[-1])
        return res


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--rep", type=int, default=0)
    parser.add_argument("--mode", default="job",
                        choices=("job", "setup", "trace"))
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--deadline", type=float, required=True)
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--spans", required=True)
    args = parser.parse_args(argv)

    # the package re-exports a function named quotient, so import modules
    # by their full names
    layers = {name: importlib.import_module(f"eccspec.{name}") for name in (
        "kernels", "census", "graphs", "exactalg", "eccentricity", "quotient")}

    wl = WORKLOADS[args.workload]
    traced = args.mode == "trace"
    pair = traced and wl.repeatable
    tracer = None
    if traced:
        tracer = tracing.Tracer()
        tracer.install(tracing.default_targets(layers))
    state = wl.setup(args.seed, args.work_dir, args.rep)
    out = {"setup_s": monotonic() - args.spawned,
           "backend": layers["kernels"].BACKEND}
    if wl.info is not None:
        out.update(wl.info(state))
    if args.mode == "setup":
        print(PREFIX + json.dumps(out), flush=True)
        return 0

    res = _run_job(wl, state)
    out["job_s"] = sum(res.latencies)
    out["peak_rss_mb"] = _peak_rss_mb()
    if traced:
        if wl.probe is not None:
            wl.probe(state, res)
        tracer.uninstall()
        out["layers"] = tracing.layer_metrics(tracer.spans)
        out["layers"].update({f"suites.{name}.s": res.suite_s.get(name, 0.0)
                              for name, _ in VERIFY_SUITES})
        out["missing"] = tracer.missing
        tracer.write(args.spans)
        # the untraced pass must not pay for walking the spans in every
        # garbage collection
        tracer.spans.clear()
        gc.collect()
    if wl.check is not None:
        wl.check(state, res)
    if pair:
        out["untraced_s"] = None
        if monotonic() + 1.2 * out["job_s"] + 5.0 < args.deadline:
            untraced = _run_job(wl, state)
            out["untraced_s"] = sum(untraced.latencies)
            if wl.check is not None:
                wl.check(state, untraced)
            res.attempted += untraced.attempted
            res.failures += untraced.failures
    if wl.cleanup is not None:
        wl.cleanup(state)
    out.update(latencies=res.latencies, attempted=res.attempted,
               failures=res.failures)
    print(PREFIX + json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
