#!/usr/bin/env python3
"""Front end of the end-to-end benchmark. Run it from the repository root.

  python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 e2ebench/run.py --all [--seed N] [--runs R] [--seconds S]
                          [--json-out FILE] [--traced DIR]
  python3 e2ebench/run.py --compare A.json B.json [--json-out FILE]
  python3 e2ebench/run.py --smoke

Every mode first builds bench_e2e from the source tree into
.bench_build/e2ebench and warms the cost-model cache in
.bench_build/costmodel, so that no timed region trains the model.

A run fits in --seconds, set-up and warm-up included. It starts with
cold set-up processes, which also warm an idle host. A tuning workload
then runs one short untimed session and repeats tuning sessions, one
per process as one felix-tune invocation would, while the longest so
far still fits. serve-fleet runs one process that serves the traffic
the rest of the run holds. With --trace 0 the run reports the
end-to-end metrics of BENCHMARK.json; with --trace 1 it runs
untraced, traced and untraced processes of one length and reports the
per-layer metrics. Every metric is printed as `workload metric value
unit`, and the last line of standard output is one JSON object with
`correct`, `attempted`, `failed` and `metrics`. The exit code is 0
only when every output check held.

--compare reads the bounds from BENCHMARK.json and prints, per
workload and end-to-end metric, each side's median and quartiles and
a verdict: within bound, worse, or unresolved when a side's spread
exceeds the bound. A metric that is a pure function of the seed is
compared seed by seed instead. With --json-out it also writes the
comparison as a baseline record. README.md defines the workloads and
metrics.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "e2ebench")
CACHE_DIR = os.path.join(BUILD_ROOT, "costmodel")
TRACE_DIR = os.path.join(BUILD_ROOT, "traces")
BINARY = os.path.join(BUILD_DIR, "bench_e2e")
SPEC = os.path.join(ROOT, "BENCHMARK.json")

# setup_s is the median over a run's processes and its extra
# --setup-only processes: as many of those as SETUP_BUDGET_S holds, at
# least one and at most SETUP_SAMPLES.
SETUP_SAMPLES = 7
SETUP_BUDGET_S = 1
# A serve-fleet process spends about this long outside its traffic
# (cold start, closing sweep, exit). An untraced run also spends one
# more cold start on its extra set-up, and its traffic length varies
# by a few percent from seed to seed.
SERVE_PROCESS_S = 2
SERVE_UNTRACED_RESERVE_S = 5
# No single bench_e2e process may take longer than this.
PROCESS_TIMEOUT_S = 150
# Metrics that are a pure function of the seed. --compare pairs their
# runs by seed and judges the median of the per-seed changes against
# this bound. The bound in BENCHMARK.json is for medians taken over
# different seeds, so it also has to cover the spread between seeds.
PAIRED_BOUNDS = {"tuned_latency_ms": 0.01}


class BenchError(Exception):
    pass


def log(message):
    print(message, file=sys.stderr, flush=True)


def load_spec():
    with open(SPEC) as f:
        return json.load(f)


def quantile(values, q):
    """Linear-interpolation quantile, the rule bench_e2e uses too."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (pos - lo) * (ordered[hi] - ordered[lo])


def build():
    """Build bench_e2e and warm the cost-model cache; returns the
    host fingerprint."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("no felix source tree at " + ROOT)
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR] + generator)
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "bench_e2e",
                  "-j", "4"])
    for step in steps:
        done = subprocess.run(step, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr)
        if done.returncode != 0:
            raise BenchError("build step failed: " + " ".join(step))
    return bench(["--warm-cache"])["fingerprint"]


def bench(args):
    """Run one bench_e2e process and return its JSON object."""
    cmd = [BINARY, "--cache-dir", CACHE_DIR] + args
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=PROCESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError("timed out: " + " ".join(cmd))
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        raise BenchError("no result from: " + " ".join(cmd))
    result["exit_code"] = done.returncode
    return result


def process_args(workload, seed, seconds, scale):
    return ["--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--scale", str(scale)]


def run_args(workload, seed, seconds, scale, traced):
    """bench_e2e arguments of a run's processes. A serve-fleet process
    gets the traffic that the run holds beside its other processes."""
    if workload == "serve-fleet":
        if traced:
            seconds = seconds // 3 - SERVE_PROCESS_S
        else:
            seconds = seconds - SERVE_UNTRACED_RESERVE_S
    return process_args(workload, seed, max(1, seconds), scale)


def warm_up(workload, seed, scale):
    """An untimed tenth of a tuning session: a host that was idle runs
    its first second of work up to twice as slowly. serve-fleet needs
    none, as its cold start comes first."""
    if workload != "serve-fleet":
        bench(process_args(workload, seed, 1, scale / 10))


def cold_setups(args):
    """Set-up times of extra --setup-only processes."""
    setups = []
    start = time.monotonic()
    while len(setups) < SETUP_SAMPLES and (
            not setups or time.monotonic() - start < SETUP_BUDGET_S):
        setup = bench(args + ["--setup-only"])
        if setup["exit_code"] != 0:
            raise BenchError("set-up failed: %s" % setup["failures"])
        setups.append(setup["setup_s"])
    return setups


def run_untraced(workload, seed, seconds, scale, spec):
    """The end-to-end metrics of one run, and its processes."""
    deadline = time.monotonic() + seconds
    args = run_args(workload, seed, seconds, scale, False)
    # The cold set-ups come first, so that they warm the host too.
    setups = cold_setups(args)
    warm_up(workload, seed, scale)
    procs, longest = [], 0.0
    while True:
        start = time.monotonic()
        procs.append(bench(args))
        longest = max(longest, time.monotonic() - start)
        # serve-fleet is one process; a tuning workload repeats whole
        # sessions while the longest one so far still fits.
        if (workload == "serve-fleet"
                or time.monotonic() + longest > deadline):
            break
    setups += [p["setup_s"] for p in procs]
    rounds = [ms for p in procs for ms in p["round_ms"]]
    requests = [ms for p in procs for ms in p["request_ms"]]
    values = {
        "setup_s": statistics.median(setups),
        "tune_wall_s": statistics.median(p["tune_wall_s"] for p in procs),
        "round_ms_p50": quantile(rounds, 0.5),
        "round_ms_p90": quantile(rounds, 0.9),
        "request_ms_p50": quantile(requests, 0.5),
        "request_ms_p90": quantile(requests, 0.9),
        "tuned_latency_ms": procs[0]["tuned_latency_ms"],
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in procs),
    }
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    metrics = {name: {"value": values[name], "unit": units[name]}
               for name in units}
    return metrics, procs


def run_traced(workload, seed, seconds, scale, trace_out):
    """The per-layer metrics of one run, and its processes: untraced,
    traced and, if it fits, untraced again, all alike. The trace
    overhead compares the traced session with the median untraced
    one, so that neither side alone meets the host cold."""
    deadline = time.monotonic() + seconds
    args = run_args(workload, seed, seconds, scale, True)
    warm_up(workload, seed, scale)
    start = time.monotonic()
    plain = [bench(args)]
    plain_s = time.monotonic() - start
    traced = bench(args + ["--trace", "--trace-out", trace_out])
    if time.monotonic() + plain_s <= deadline:
        plain.append(bench(args))
    untraced_wall = statistics.median(p["tune_wall_s"] for p in plain)
    metrics = dict(traced["layers"])
    metrics["bench.trace_overhead_pct"] = {
        "value": 100.0 * (traced["tune_wall_s"] / untraced_wall - 1.0),
        "unit": "%"}
    return metrics, plain + [traced]


def run_workload(workload, seed, seconds, trace, scale=1.0,
                 trace_out=None):
    """One run: its metrics, output checks, counts and digest."""
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if workload not in names:
        raise BenchError("unknown workload %r (have %s)"
                         % (workload, ", ".join(names)))
    if trace:
        os.makedirs(TRACE_DIR, exist_ok=True)
        metrics, procs = run_traced(
            workload, seed, seconds, scale,
            trace_out or os.path.join(TRACE_DIR, workload + ".trace.json"))
    else:
        metrics, procs = run_untraced(workload, seed, seconds, scale, spec)
    failures = [f for p in procs for f in p["failures"]]
    failed = sum(p["failed"] for p in procs)
    failed += sum(1 for p in procs if p["exit_code"] != 0 and not p["failed"])
    digests = {p["digest"] for p in procs}
    attempted = sum(p["attempted"] for p in procs) + 1
    if len(digests) != 1:
        failed += 1
        failures.append("outputs differ between processes of one seed")
    for failure in failures:
        log("%s: check failed: %s" % (workload, failure))
    return {"workload": workload, "seed": seed, "trace": bool(trace),
            "correct": failed == 0, "attempted": attempted,
            "failed": failed, "digest": digests.pop(),
            "metrics": metrics}


def print_metrics(run):
    for name, metric in run["metrics"].items():
        print("%s %s %r %s" % (run["workload"], name, metric["value"],
                               metric["unit"]))
    sys.stdout.flush()


def run_all(args):
    spec = load_spec()
    fingerprint = build()
    runs = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for r in range(args.runs):
            run = run_workload(workload, args.seed + r, args.seconds, False)
            print_metrics(run)
            runs.append(run)
        if args.traced:
            os.makedirs(args.traced, exist_ok=True)
            run = run_workload(
                workload, args.seed, args.seconds, True,
                trace_out=os.path.join(args.traced,
                                       workload + ".trace.json"))
            print_metrics(run)
            runs.append(run)
    if args.json_out:
        with open(args.json_out, "w") as f:
            json.dump({"fingerprint": fingerprint, "seconds": args.seconds,
                       "runs": runs}, f, indent=1)
    bad = [r["workload"] for r in runs if not r["correct"]]
    if bad:
        log("checks failed on: " + ", ".join(sorted(set(bad))))
    return 1 if bad else 0


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def compare(path_a, path_b, out=None):
    """Print the comparison; with @p out, also write it there as the
    baseline record (both sides' quartiles and the traced layers)."""
    spec = load_spec()
    with open(path_a) as f:
        a = json.load(f)
    with open(path_b) as f:
        b = json.load(f)
    if a["fingerprint"] != b["fingerprint"]:
        print("refusing to compare: fingerprints differ\n  %s\n  %s"
              % (json.dumps(a["fingerprint"]), json.dumps(b["fingerprint"])))
        return 2

    def timed(data, workload):
        return [r for r in data["runs"]
                if r["workload"] == workload and not r["trace"]]

    def traced(data, workload):
        return [r["metrics"] for r in data["runs"]
                if r["workload"] == workload and r["trace"]]

    rows, layers = [], {}
    worse = 0
    print("%-15s %-17s %12s %23s %12s %23s  %s" % (
        "workload", "metric", "A median", "A quartiles", "B median",
        "B quartiles", "verdict"))
    for workload in [w["name"] for w in spec["workloads"]]:
        runs_a, runs_b = timed(a, workload), timed(b, workload)
        if sorted(r["seed"] for r in runs_a) != sorted(
                r["seed"] for r in runs_b):
            print("refusing to compare %s: the seeds differ" % workload)
            return 2
        if not runs_a:
            continue
        layers[workload] = {"A": traced(a, workload),
                            "B": traced(b, workload)}
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            va = [r["metrics"][name]["value"] for r in runs_a]
            vb = [r["metrics"][name]["value"] for r in runs_b]
            qa, qb = quartiles(va), quartiles(vb)
            sign = 1.0 if metric["better"] == "lower" else -1.0
            spread = max((qa[2] - qa[0]) / qa[1] if qa[1] else 0.0,
                         (qb[2] - qb[0]) / qb[1] if qb[1] else 0.0)
            paired = name in PAIRED_BOUNDS
            if paired:
                bound = PAIRED_BOUNDS[name]
                by_seed = {r["seed"]: r["metrics"][name]["value"]
                           for r in runs_a}
                change = statistics.median(
                    sign * (r["metrics"][name]["value"] / by_seed[r["seed"]]
                            - 1.0) for r in runs_b)
            else:
                change = sign * (qb[1] / qa[1] - 1.0) if qa[1] else 0.0
            b_always_better = all(sign * (y - x) < 0 for x in va for y in vb)
            if not paired and spread > bound and not b_always_better:
                verdict = "unresolved"
            elif change > bound:
                verdict = "worse"
                worse += 1
            else:
                verdict = "within bound"
            rows.append({"workload": workload, "metric": name,
                         "unit": metric["unit"], "bound": bound,
                         "A": qa, "B": qb, "spread": spread,
                         "paired": paired, "change": change,
                         "verdict": verdict})
            print("%-15s %-17s %12.6g [%10.6g,%10.6g] %12.6g "
                  "[%10.6g,%10.6g]  %s (%+.1f%%%s, bound %.0f%%)" % (
                      workload, name, qa[1], qa[0], qa[2], qb[1], qb[0],
                      qb[2], verdict, 100 * change,
                      " per seed" if paired else "", 100 * bound))
    if out:
        with open(out, "w") as f:
            json.dump({"claim": None, "fingerprint": a["fingerprint"],
                       "seconds": a["seconds"],
                       "seeds": sorted({r["seed"] for r in a["runs"]}),
                       "quartiles": "[q1, median, q3] of each set's runs",
                       "end_to_end": rows, "per_layer": layers},
                      f, indent=1)
            f.write("\n")
    return 1 if worse else 0


def smoke():
    """Every workload at a small scale, in both modes: each declared
    metric is printed with its declared unit and every check holds."""
    spec = load_spec()
    build()
    ok = True
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, declared in ((False, spec["end_to_end"]),
                                (True, spec["per_layer"])):
            run = run_workload(workload, 1, 1, trace, scale=0.02)
            print_metrics(run)
            for metric in declared:
                got = run["metrics"].get(metric["name"])
                if got is None or got["unit"] != metric["unit"]:
                    log("%s: metric %s missing or not in %s"
                        % (workload, metric["name"], metric["unit"]))
                    ok = False
            extra = set(run["metrics"]) - {m["name"] for m in declared}
            if extra:
                log("%s: undeclared metrics %s" % (workload, sorted(extra)))
                ok = False
            ok = ok and run["correct"]
    print("smoke " + ("ok" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark (see e2ebench/README.md).")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true")
    parser.add_argument("--runs", type=int, default=1)
    parser.add_argument("--json-out")
    parser.add_argument("--traced")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    try:
        if args.compare:
            return compare(*args.compare, out=args.json_out)
        if args.smoke:
            return smoke()
        if args.seconds is None:
            args.seconds = load_spec()["run_seconds"]
        if args.all:
            return run_all(args)
        if not args.workload:
            parser.error("need --workload, --all, --compare or --smoke")
        build()
        run = run_workload(args.workload, args.seed, args.seconds,
                           args.trace)
    except BenchError as error:
        log("run.py: %s" % error)
        return 2
    print_metrics(run)
    print(json.dumps({"correct": run["correct"],
                      "attempted": run["attempted"],
                      "failed": run["failed"],
                      "metrics": run["metrics"]}))
    return 0 if run["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
