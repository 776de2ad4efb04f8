"""Record the reference answer and cost of every op any round can draw.

    python3 perfbench/record.py

Run it only at the commit that defines the baseline: it overwrites
perfbench/reference.json with whatever the engine answers now.  A recorded
answer must not come from a failing op, except for the listed known
defects.  The cost (nominal seconds, on warm caches for workloads with a
warm-up pass) only orders ops into the strata that rounds draw from.
"""

import json
import os
import shutil
import sys
import time

import run


def main():
    from speed import SpeedLog

    with SpeedLog() as speed:
        reference = record(speed)
    from answers import REFERENCE_FILE

    with open(REFERENCE_FILE, "w") as fh:
        json.dump(reference, fh, indent=0, sort_keys=True)
        fh.write("\n")


def record(speed):
    run.import_engine()
    from answers import reference_entry
    from workloads import KNOWN_DEFECTS, WORKLOADS, universe

    reference, spans = {}, {}
    workdir = os.path.join(run.OUT_DIR, f"record-{os.getpid()}")
    try:
        for name in run.WORKLOAD_NAMES:
            workload = WORKLOADS[name]
            ops = universe(workload.templates(workload.setup(workdir)))
            start = time.perf_counter()
            if workload.warm_up:
                for op in ops:
                    op.run()
            for op in ops:
                speed.calibrate()
                t0 = time.perf_counter()
                raw = op.run()
                spans[op.key] = (t0, time.perf_counter())
                speed.calibrate()
                answer = op.answer(raw)
                entry = reference_entry(answer)
                if op.key in KNOWN_DEFECTS:
                    entry["known_defect"] = KNOWN_DEFECTS[op.key]
                elif answer.get("exit", 0) != 0:
                    raise SystemExit(f"{op.key} fails at the baseline")
                reference[op.key] = entry
            print(f"{name}: {len(ops)} answers in "
                  f"{time.perf_counter() - start:.1f} s", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    missing = set(KNOWN_DEFECTS) - set(reference)
    if missing:
        raise SystemExit(f"known defects outside every universe: {missing}")
    for key, span in spans.items():
        reference[key]["cost_s"] = round(speed.nominal(*span), 6)
    return reference


if __name__ == "__main__":
    main()
