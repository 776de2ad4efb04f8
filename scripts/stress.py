#!/usr/bin/env python3
"""Run a fixed list of large `toricqh` cases, each under a budget.

Each case runs as `python -m toricqh.cli ...` in a child process, with an
address-space limit (`RLIMIT_AS`) set on that child and a wall-clock
timeout that includes interpreter start.  One line per case gives its
verdict: `answered` (exit 0), `typed error` (exit 1 with a one-line
`error: <ToricError subclass>: ...` message) or `over budget` (killed at
the timeout, or out of memory under the limit).  Any other exit is
`crashed`.  Each case records the verdict expected today and the ROADMAP
item that will move it; the script exits 1 when a verdict differs from the
expected one.  It compares no timings across commits:

    python3 scripts/stress.py

It imports `toricqh` from the `src/` of its own checkout, and so do the
children.

The polytopes are the corpus of perfbench/corpus.py plus cube5, cube6,
cube8 and cube9 from its `cube`, built by import only, and two polytopes
written straight from facet data: box10+top, the unit 10-cube with the
facet sum(x) <= 10 through its top vertex, and cube9-pyramid, the pyramid
over the 9-cube; all go to a temporary directory.  A run takes
about half a minute on one core.
"""

import json
import os
import resource
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path[:0] = [SRC, os.path.join(os.path.dirname(HERE), "perfbench")]
CHILD_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    [SRC] + [p for p in [os.environ.get("PYTHONPATH")] if p]))

import corpus  # noqa: E402

SECONDS = 5
MEMORY_BYTES = 512 * 2 ** 20

ANSWERED, TYPED, OVER = "answered", "typed error", "over budget"

# (polytope, CLI arguments after the file, expected verdict, the item that
# will move it or the fix that moved it)
CASES = (
    ("cp2", ["seidel", "--xi=30000,1"], TYPED, "ROADMAP item 16"),
    ("blowup_cp2", ["seidel", "--xi=200,37"], OVER, "ROADMAP item 16"),
    ("cube5", ["analyze", "--xi=1,1,1,1,1", "--no-quantum"], ANSWERED,
     "ROADMAP item 17: the cheapest chains counted"),
    ("gon12", ["analyze", "--xi=-2,2", "--no-quantum"], ANSWERED,
     "mended: no division above degree n"),
    # gon12 is not Fano, yet Fano mode prints its presentation: a typed
    # error once Fano mode checks its input
    ("gon12", ["quantum"], ANSWERED, "ROADMAP item 2"),
    ("cube6", ["verify", "--trials", "1"], OVER, "ROADMAP item 11"),
    ("blowup_cp2", ["product", "x1^300", "x1"], OVER,
     "ROADMAP item 16, in the reduction"),
    ("cp2", ["product", "x1^10000000", "x1"], ANSWERED,
     "mended: powers by squaring"),
    ("cp2", ["analyze", "--xi=1000000,1", "--no-quantum"], ANSWERED,
     "mended: powers by squaring"),
    ("cp2", ["analyze", "--xi=99999999999999999999999,1", "--no-quantum"],
     ANSWERED, "mended: q over the gcd-closure of the orders"),
    ("cube8", ["fixed", "--xi=1,2,3,4,5,6,7,8"], ANSWERED,
     "polytope loading by pivots"),
    ("cube9", ["validate"], ANSWERED, "centroid by localization"),
    ("cube8", ["cohomology"], ANSWERED, "pairings by integer localization"),
    ("box10+top", ["validate"], TYPED, "ROADMAP item 24"),
    ("cube9-pyramid", ["validate"], TYPED,
     "mended: the edge check only after a ray"),
)


def box_with_top(n):
    """The polytope file of the unit n-cube and sum(x) <= n, a facet
    through its top vertex, which then lies on n + 1 facets."""
    facets = [{"normal": [sign * int(j == i) for j in range(n)],
               "support": str(max(sign, 0))}
              for i in range(n) for sign in (1, -1)]
    facets.append({"normal": [1] * n, "support": str(n)})
    return {"name": f"box{n}+top", "dim": n, "facets": facets}


def cube_pyramid(n):
    """The polytope file of the pyramid |y_j| <= t <= 1 over the n-cube,
    whose apex lies on 2n facets."""
    facets = [{"normal": [sign * int(j == i) for j in range(n)] + [-1],
               "support": "0"} for i in range(n) for sign in (1, -1)]
    facets.append({"normal": [0] * n + [1], "support": "1"})
    return {"name": f"cube{n}-pyramid", "dim": n + 1, "facets": facets}


def _limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_BYTES, MEMORY_BYTES))


def run_case(path, args):
    """(verdict, seconds) of one case."""
    start = time.perf_counter()
    try:
        done = subprocess.run(
            [sys.executable, "-m", "toricqh.cli", args[0], path, *args[1:]],
            capture_output=True, text=True, timeout=SECONDS,
            preexec_fn=_limit_memory, env=CHILD_ENV)
    except subprocess.TimeoutExpired:
        return OVER, time.perf_counter() - start
    seconds = time.perf_counter() - start
    if done.returncode == 0:
        return ANSWERED, seconds
    if "MemoryError" in done.stderr:
        return OVER, seconds
    lines = done.stderr.splitlines()
    if done.returncode == 1 and len(lines) == 1 and \
            lines[0].startswith("error: "):
        return TYPED, seconds
    return f"crashed (exit {done.returncode})", seconds


def main():
    polys = corpus.build_polytopes()
    polys["cube5"] = corpus.cube(5)
    polys["cube6"] = corpus.cube(6)
    polys["cube8"] = corpus.cube(8)
    polys["cube9"] = corpus.cube(9)
    differ = 0
    with tempfile.TemporaryDirectory() as directory:
        paths = corpus.write_corpus(directory, polys)
        for document in (box_with_top(10), cube_pyramid(9)):
            name = document["name"]
            paths[name] = os.path.join(directory, f"{name}.json")
            with open(paths[name], "w") as fh:
                json.dump(document, fh)
        for name, args, expected, mover in CASES:
            verdict, seconds = run_case(paths[name], args)
            note = "as expected" if verdict == expected else \
                f"DIFFERS: expected {expected}"
            differ += verdict != expected
            print(f"{verdict:<12} {seconds:6.2f} s  {name} {' '.join(args)}"
                  f"  [{note}; {mover}]", flush=True)
    print(f"{len(CASES) - differ} of {len(CASES)} cases as expected "
          f"(budget {SECONDS} s and {MEMORY_BYTES // 2 ** 20} MB per case)")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
