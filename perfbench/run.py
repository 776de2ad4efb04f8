"""Benchmark driver for the toricqh engine.

    python3 perfbench/run.py --workload cli_cold --seed 1 --seconds 10 \
        --trace 0

One process, one thread, one client in a closed loop: each op is issued
only after the previous one returns.  Set-up runs SETUP_REPS times and the
median counts.  The timed phase runs whole rounds of the workload's seeded
op list until --seconds have passed.  Times are reported in seconds at
nominal machine speed (see speed.py).  Answers are checked against
perfbench/reference.json after the timed phase.

--trace 0 prints the end-to-end metrics.  --trace 1 runs rounds untraced
for half of --seconds, then the same number of rounds under the tracer, and
prints the per-layer metrics of the traced rounds with the traced/untraced
wall ratio as `trace_overhead`.  `--workload all` runs every workload in
turn.  The last line of stdout is the result as one JSON object; a results
file (with the git sha, the Python version and nproc) and, for traced runs,
the spans go to .perfbench/ at the repository root.
"""

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench")
WORKLOAD_NAMES = ("cli_cold", "seidel_sweep", "battery_sweep")
SETUP_REPS = 3
TAIL_BEYOND = 10

END_TO_END_UNITS = {"ops_per_s": "ops/s", "op_p50_ms": "ms",
                    "op_tail_ms": "ms", "setup_s": "s", "peak_rss_mb": "MB"}


def import_engine():
    """Import every toricqh layer; return the (start, end) of the import."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "toricqh", "__init__.py")):
        raise SystemExit(f"perfbench: no toricqh sources under {src}")
    for path in (src, HERE):
        if path not in sys.path:
            sys.path.insert(0, path)
    start = time.perf_counter()
    importlib.import_module("toricqh.cli")  # imports every layer
    return start, time.perf_counter()


def git_sha():
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def run_rounds(speed, ops, seconds=None, rounds=None, tracer=None):
    """Run whole rounds until `seconds` have passed or `rounds` are done,
    calibrating before every op and after the last one.  Returns (rounds
    run, [(start, end)] per op, [(op, raw, error)])."""
    spans, results = [], []
    done = 0
    start = time.perf_counter()
    while True:
        for i, op in enumerate(ops):
            if tracer is not None:
                tracer.op = f"{done}:{i}"
            speed.calibrate()
            t0 = time.perf_counter()
            try:
                raw, error = op.run(), None
            except Exception as exc:  # a crashing op counts as failed
                raw, error = None, exc
            spans.append((t0, time.perf_counter()))
            results.append((op, raw, error))
        done += 1
        wall = time.perf_counter() - start
        if (rounds is not None and done >= rounds) or \
                (rounds is None and wall >= seconds):
            speed.calibrate()
            return done, spans, results


def check_results(results, reference):
    """Count failed ops, wrong answers and reproduced known defects.

    An op fails if it raises, exits non-zero or answers differently from
    the reference; a known defect that reproduces its recorded answer is a
    failed op but not a wrong answer."""
    from answers import matches

    failed = wrong = defects = 0
    for op, raw, error in results:
        entry = reference.get(op.key)
        if error is not None:
            print(f"perfbench: {op.key} raised {type(error).__name__}: "
                  f"{error}", file=sys.stderr)
            wrong += 1
            failed += 1
            continue
        answer = op.answer(raw)
        if entry is None or not matches(entry, answer):
            print(f"perfbench: wrong answer for {op.key}", file=sys.stderr)
            wrong += 1
            failed += 1
        elif answer.get("exit", 0) != 0:
            failed += 1
            defects += "known_defect" in entry
    return failed, wrong, defects


def tail(latencies, round_size):
    """The highest percentile with TAIL_BEYOND samples of one round beyond
    it.  It depends only on the round size, so every run of a workload
    reports the same percentile.  Returns (percentile, value, beyond)."""
    ordered = sorted(latencies)
    rank = -(-len(ordered) * (round_size - TAIL_BEYOND) // round_size)
    pct = 100.0 * (round_size - TAIL_BEYOND) / round_size
    return pct, ordered[rank - 1], len(ordered) - rank


def unit_of(name):
    if name.endswith(".self_s"):
        return "s"
    if name.endswith(".calls"):
        return "count"
    return "ratio"


def run_workload(workload, seed, seconds, trace, speed, import_span,
                 workdir, reference):
    """Set up, run and check one workload; returns (record, units)."""
    from tracer import Tracer, metric_names
    from workloads import draw_round

    costs = {key: entry["cost_s"] for key, entry in reference.items()}
    setup_spans = []
    for _ in range(SETUP_REPS):
        speed.calibrate()
        start = time.perf_counter()
        state = workload.setup(workdir)
        ops = draw_round(workload.templates(state), workload.name, seed,
                         costs)
        if workload.warm_up:
            run_rounds(speed, ops, rounds=1)
        setup_spans.append((start, time.perf_counter()))
        speed.calibrate()

    if not trace:
        rounds, spans, results = run_rounds(speed, ops, seconds=seconds)
    else:
        rounds, spans, results = run_rounds(speed, ops, seconds=seconds / 2)
        tracer = Tracer()
        with tracer:
            _, traced_spans, traced = run_rounds(speed, ops, rounds=rounds,
                                                 tracer=tracer)
        results += traced
    setup_times = [speed.nominal(*s) for s in setup_spans]
    latencies = [speed.nominal(*s) for s in spans]
    record = {"workload": workload.name, "seed": seed, "seconds": seconds,
              "trace": trace, "round_size": len(ops), "rounds": rounds,
              "import_s": speed.nominal(*import_span),
              "setup_reps_s": setup_times,
              "raw_busy_s": sum(end - start for start, end in spans),
              "latencies_s": [[op.key, t] for (op, _, _), t
                              in zip(results, latencies)]}

    if not trace:
        pct, tail_s, beyond = tail(latencies, len(ops))
        metrics = {
            "ops_per_s": len(latencies) / sum(latencies),
            "op_p50_ms": statistics.median(latencies) * 1000,
            "op_tail_ms": tail_s * 1000,
            "setup_s": record["import_s"] + statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END_UNITS
        record.update(tail_percentile=pct, tail_samples=len(latencies),
                      tail_beyond=beyond)
    else:
        traced_busy = sum(speed.nominal(*s) for s in traced_spans)
        metrics = tracer.metrics(traced_busy / sum(latencies))
        units = {name: unit_of(name) for name in metric_names()}
        tracer.write_spans(os.path.join(
            OUT_DIR, f"spans-{workload.name}-seed{seed}.json"))

    failed, wrong, defects = check_results(results, reference)
    record.update(attempted=len(results), failed=failed, wrong=wrong,
                  error_rate=failed / len(results),
                  known_defects_reproduced=defects, metrics=metrics)
    return record, units


def report(record, units):
    name = record["workload"]
    for metric, value in record["metrics"].items():
        print(f"{name} {metric} = {value:.6g} {units[metric]}")
    if "tail_percentile" in record:
        print(f"{name} op_tail_ms is p{record['tail_percentile']:.2f} of "
              f"{record['tail_samples']} ops ({record['tail_beyond']} "
              f"beyond)")
    print(f"{name} error_rate = {record['error_rate']:.6g} fraction "
          f"({record['failed']} of {record['attempted']} ops failed, "
          f"{record['wrong']} wrong answers, "
          f"{record['known_defects_reproduced']} known defects reproduced)")
    print(json.dumps({
        "correct": record["wrong"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {m: {"value": v, "unit": units[m]}
                    for m, v in record["metrics"].items()},
    }))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    from speed import SpeedLog

    with SpeedLog() as speed:
        return run(args, speed)


def run(args, speed):
    speed.calibrate()
    import_span = import_engine()
    speed.calibrate()
    from answers import load_reference
    from workloads import WORKLOADS

    reference = load_reference()
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    env = {"git_sha": git_sha(), "python": platform.python_version(),
           "nproc": len(os.sched_getaffinity(0))}
    try:
        for name in names:
            record, units = run_workload(
                WORKLOADS[name], args.seed, args.seconds, bool(args.trace),
                speed, import_span, workdir, reference)
            record.update(env)
            path = os.path.join(OUT_DIR, f"result-{name}-seed{args.seed}"
                                         f"-trace{args.trace}.json")
            with open(path, "w") as fh:
                json.dump(record, fh, indent=2)
            report(record, units)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
