#!/usr/bin/env python3
"""Fleet benchmark: builds the benchmark binaries, runs one workload, prints metrics.

    python3 perfbench/run.py --workload stream_25k --seed 2018 --seconds 12 --trace 0

Run it from the repository root. With ``--trace 0`` it measures the
end-to-end metrics with tracing off; with ``--trace 1`` it makes the
separate traced run and prints the per-layer metrics. The last line of
standard output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``; the line before it is a JSON ``{"record": ...}`` with the raw
measurements and host diagnostics, the input of ``perfbench/compare.py``.
The exit status is 0 only if every correctness check passed, 2 if a
guarded environment variable is set or an argument is bad, and 1
otherwise. See perfbench/README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORKLOADS = ("batch_1m", "stream_25k", "chaos_25k")

# Each of these changes what the measured program does; a stray export
# would silently change the numbers, so the benchmark refuses to run.
GUARDED_ENV = (
    "ULP_DEVICE_ENGINE",
    "ULP_FLEET_INGEST_PATH",
    "ULP_SAMPLER_PATH",
    "ULP_SERVICE_WINDOW_EPOCHS",
    "ULP_SERVICE_QUEUE_FRAMES",
    "ULP_CHAOS_SEED",
)

# Timed processes per run, each given an equal share of --seconds. Each
# process is summarized by its fastest repetition after warm-up (host
# noise only slows a repetition); the run reports the median across
# processes, so neither one process that lands in a slow host episode nor
# one that catches a rare quiet spell moves it.
TIMED_PROCESSES = 4
# Fresh processes measuring set-up time, spread between the timed ones.
SETUP_PROCESSES = 10
# Alternating off/full run_service pairs in the traced run.
TRACE_REPS = 3
CHILD_TIMEOUT_S = 150


def die(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def guard_env():
    for var in GUARDED_ENV:
        if var in os.environ:
            die(
                f"{var} is set ({os.environ[var]!r}); it changes the measured "
                "program, so unset it before benchmarking",
                code=2,
            )


def target_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))


def build(package, binary):
    """Builds one benchmark package in release mode; returns the binary path."""
    manifest = os.path.join(BENCH, package, "Cargo.toml")
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    result = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=850)
    if result.returncode != 0:
        sys.stderr.write(result.stderr[-4000:])
        die(f"building perfbench/{package} failed")
    return os.path.join(target_dir(), "release", binary)


def run_child(cmd):
    """Runs one benchmark process to completion; returns (status, JSON lines, stderr).

    The child runs on one worker thread with the program's metrics off;
    the traced run raises the level itself where it needs spans.
    """
    env = dict(os.environ, ULP_PAR_THREADS="1", ULP_METRICS="off")
    result = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    lines = []
    for line in result.stdout.splitlines():
        try:
            lines.append(json.loads(line))
        except json.JSONDecodeError:
            pass
    return result.returncode, lines, result.stderr


def metric(value, unit):
    return {"value": value, "unit": unit}


def run_processes(binary, seconds, workload_args):
    """Runs the set-up and timed processes; returns (set-up runs, timed runs).

    The set-up processes are spread between the timed ones, so a slow host
    episode falls on both kinds alike. Each run is a run_child result.
    """
    between = SETUP_PROCESSES // TIMED_PROCESSES
    setup_cmd = [binary, "setup", *workload_args]
    timed_cmd = [binary, "timed", *workload_args, "--seconds", f"{seconds / TIMED_PROCESSES}"]
    setup_runs, timed_runs = [], []
    for _ in range(TIMED_PROCESSES):
        setup_runs.extend(run_child(setup_cmd) for _ in range(between))
        timed_runs.append(run_child(timed_cmd))
    setup_runs.extend(run_child(setup_cmd) for _ in range(SETUP_PROCESSES - len(setup_runs)))
    return setup_runs, timed_runs


def end_to_end(setup_runs, timed_runs):
    """Checks the processes' output and derives the end-to-end metrics.

    Pure, so the self-tests can feed it planted child output. A process
    that exited without its result line, or non-zero without naming a
    failed check, counts as one failed attempt and adds no measurement;
    so does each failed repetition, and each kind of process whose
    outcome digests differ across processes. Returns (problems, attempted,
    failed, metrics, record); metrics is None when no repetition completed.
    """
    problems, setups, processes = [], [], []
    crashed = 0
    for kind, runs, key in (("set-up", setup_runs, "setup_s"), ("timed", timed_runs, "hwm_kib")):
        for i, (status, lines, err) in enumerate(runs):
            results = [l for l in lines if key in l]
            if not results or (status != 0 and not any(l.get("failures") for l in lines)):
                crashed += 1
                problems.append(f"{kind} process {i} exited {status}: {err.strip()[-500:]}")
            elif kind == "set-up":
                setups.extend(results)
            else:
                processes.append({"reps": [l for l in lines if "rep" in l], "summary": results[0]})

    reps = [r for p in processes for r in p["reps"]]
    runs = reps + setups
    failed = crashed + sum(1 for r in runs if r["failures"])
    problems.extend(f for r in runs for f in r["failures"])
    for kind, items in (("timed", reps), ("set-up", setups)):
        digests = {r["digest"] for r in items}
        if len(digests) > 1:
            failed += 1
            problems.append(f"{kind} outcome digests differ across processes: {sorted(digests)}")
    attempted = len(runs) + crashed
    failed = min(failed, attempted)
    bests = [min(r["seconds"] for r in p["reps"] if not r["warmup"]) for p in processes]
    if not bests or not setups:
        return problems, attempted, failed, None, {}

    # Every repetition carries the same counts: the workload is seeded.
    first = reps[0]
    hwm_mib = [p["summary"]["hwm_kib"] / 1024.0 for p in processes]
    metrics = {
        "reports_per_s": metric(first["accepted"] / statistics.median(bests), "reports/s"),
        "peak_rss_mb": metric(statistics.median(hwm_mib), "MiB"),
        "setup_s": metric(statistics.median(s["setup_s"] for s in setups), "s"),
        "delivered_share": metric(first["accepted"] / first["expected"], "fraction"),
    }
    record = {
        "process_best_s": bests,
        "process_hwm_mib": hwm_mib,
        "rss_before_mib": [p["summary"]["rss_before_kib"] / 1024.0 for p in processes],
        "setup_s": [s["setup_s"] for s in setups],
        "reps": [
            {k: r[k] for k in ("seconds", "warmup", "cpu_s", "minflt", "nivcsw", "steal_ticks", "alu_s", "mem_s")}
            for r in reps
        ],
    }
    return problems, attempted, failed, metrics, record


def traced(binary, args, workload_args):
    """Makes the traced run; returns (problems, attempted, failed, metrics, record)."""
    traces = os.path.join(target_dir(), "perfbench-traces")
    os.makedirs(traces, exist_ok=True)
    out = os.path.join(traces, f"{args.workload}-seed{args.seed}.json")
    reps = 1 if args.smoke else TRACE_REPS
    status, lines, err = run_child([binary, *workload_args, "--reps", str(reps), "--out", out])
    sys.stderr.write(err)
    result = next((l for l in lines if "metrics" in l), None)
    if result is None:
        return [f"traced process exited {status}"], 1, 1, None, {}
    problems = list(result["failures"])
    if status != 0 and not problems:
        problems.append(f"traced process exited {status}")
    keys = ("trace_id", "off_best_s", "full_best_s", "replay_s", "replay_over_off", "layers", "counts")
    record = {k: result[k] for k in keys}
    record["trace_file"] = os.path.relpath(out, ROOT)
    attempted = result["attempted"]
    return problems, attempted, min(len(problems), attempted), result["metrics"], record


def result_line(problems, attempted, failed, metrics):
    """The benchmark's last line of output."""
    return {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="small populations, for self-tests")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        die("--seed must be non-negative and --seconds positive", code=2)
    guard_env()

    workload_args = ["--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        workload_args.append("--smoke")
    started = time.monotonic()
    if args.trace:
        outcome = traced(build("trace", "fleet_trace"), args, workload_args)
    else:
        outcome = end_to_end(*run_processes(build("e2e", "fleet_e2e"), args.seconds, workload_args))
    problems, attempted, failed, metrics, record = outcome
    for p in problems:
        print(f"perfbench: check failed: {p}", file=sys.stderr)
    if metrics is None:
        die("the run produced no measurement")
    record.update(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        smoke=args.smoke,
        wall_s=time.monotonic() - started,
        problems=problems,
    )
    print(json.dumps({"record": record}))
    result = result_line(problems, attempted, failed, metrics)
    print(json.dumps(result))
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
