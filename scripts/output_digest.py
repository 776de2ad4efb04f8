#!/usr/bin/env python3
"""Print one sha256 per class of CLI output, plus a total.

Runs a fixed list of `toricqh` commands in process and hashes, for each
command, its arguments, its exit status and its stdout (and, for the
`usage` class, its stderr).  Two checkouts that print the same total print
byte-identical output on every command listed here, so a refactor can be
checked against its parent commit:

    python3 scripts/output_digest.py

It imports `toricqh` from the `src/` of its own checkout.

Its output is committed as `scripts/output_digest.expected`, which CI
diffs it against, so a change to the output shows in that file's diff.

The classes:
  - `seidel` and `analyze` with `--format structured`, and `fixed` (which
    has text output only), on the bundled examples with xi in [-2, 2]^n and
    on cp3 and cube3 with xi in [-1, 1]^3;
  - `analyze --no-quantum --format structured` on cp4, cube4 (xi in
    [-1, 1]^4) and gon12 (xi in [-1, 1]^2);
  - `verify --trials 4 --format structured` at seeds 7193 and 11 on the
    bundled examples, cp3 and cube3, and on hirzebruch2 in NEF mode;
  - `cohomology` (text output) on the ten corpus polytopes and on cube5
    and cube6 from the corpus's `cube`, whose pairings are the longest
    vertex sums here;
  - `product --format structured` on every facet pair i <= j of cp2,
    blowup_cp2, s2xs2, cp3 and cube3, and of hirzebruch2 in NEF mode;
  - `product, expressions`: `product --format structured` on cp2,
    blowup_cp2 and cp3 with the EXPRESSION_PAIRS, whose rationals, q and t
    powers, parentheses and unary minus go through the expression parser;
  - `quantum` (text output) on the eight Fano corpus polytopes, and on
    hirzebruch2 in NEF mode at the default cutoff and at `--cutoff 2`;
  - `seidel --format structured` on hirzebruch2 in NEF mode with xi in
    [-2, 2]^2, at the default cutoff and at `--cutoff 2`;
  - `seidel and product, text`: the homology reports of text output, from
    `seidel` on the 2-D bundled examples and on hirzebruch2 in NEF mode
    (which decodes the point class) with xi in [-2, 2]^2, and on cp3 with
    xi in [-1, 1]^3 (whose report is unavailable), and from `product` on
    every facet pair i <= j of cp2, blowup_cp2, s2xs2 and of hirzebruch2 in
    NEF mode;
  - `small cutoff`: Fano mode below the default cutoff, at `--cutoff 1/2`
    and `--cutoff 1`, on cp2, blowup_cp2, s2xs2 and cp3: `quantum` (text
    output), `seidel --format structured` with xi in [-1, 1]^n, and
    `verify --trials 4 --format structured`;
  - `analyze --format structured` on translated copies of the 2-D bundled
    examples (xi in [-1, 1]^2) and of cp3 (xi in [-1, 1]^3): each support
    grows by <eta, (1/2, 1/3, 1/5)>, truncated to n components, so the
    moment data is not mean normalized;
  - `validate` (text output: vertices and centroid) on the ten corpus
    polytopes and on the translated copies, whose centroids are nonzero;
  - `usage`: help and usage errors, with stdout and stderr, at a pinned
    COLUMNS=80 so that help wrapping does not follow the terminal: no
    arguments, `-h`, an unknown command, `--help seidel`, each command with
    `-h` and with no arguments, malformed `--xi`, `--trials` and `--cutoff`
    values, an unrecognized flag, and an `example --mu` out of range;
    and, for each command around valid arguments, an unrecognized flag, an
    extra positional, an abbreviated long option (`verify cp2 --tri 1`),
    `--xi` given twice and options before the positionals;
  - the stdout of scripts/run_paper_tables.py.

The polytopes and the hirzebruch2 Y-table come from perfbench/corpus.py,
which this script only imports.  A run takes a few minutes on one core.
"""

import contextlib
import hashlib
import io
import itertools
import json
import os
import runpy
import sys
import tempfile
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"),
                os.path.join(os.path.dirname(HERE), "perfbench")]

import corpus  # noqa: E402
from toricqh import cli  # noqa: E402
from toricqh.linalg import vec_dot  # noqa: E402
from toricqh.polytope import validate_delzant  # noqa: E402

SEEDS = ("7193", "11")
SHIFT = (Fraction(1, 2), Fraction(1, 3), Fraction(1, 5))
TRANSLATED = tuple(name for name in corpus.BUNDLED if name != "s2") + ("cp3",)
FANO = ("s2", "cp2", "blowup_cp2", "s2xs2", "cp3", "cp4", "cube3", "cube4")
SMALL = ("cp2", "blowup_cp2", "s2xs2", "cp3")
SMALL_CUTOFFS = ("1/2", "1")
LARGE_CUBES = (5, 6)  # cohomology only
# no expression starts with "-", which argparse would read as a flag
EXPRESSION_PAIRS = (
    ("2*x1^2 - 1/2*q*t^{1/3}*(x2 + x3)", "x1"),
    ("(x1 - x2)^3", "x3 - 2*x1"),
    ("q^-1 * t^{-2/3} * x1*x2", "3/4"),
    ("0", "x1"),
    ("x1^0 + t^{1/2}*q^2", "x2 - -x3"),
)
COMMANDS = ("validate", "cohomology", "quantum", "product", "seidel", "fixed",
            "analyze", "verify", "example")
# command -> (valid positionals, valid options, one long option abbreviated)
USAGE_ARGS = {
    "validate": (["cp2"], [], ["--he"]),
    "cohomology": (["cp2"], [], ["--he"]),
    "quantum": (["cp2"], ["--cutoff", "2"], ["--cut", "2"]),
    "product": (["cp2", "x1", "x2"], ["--format", "structured"],
                ["--form", "structured"]),
    "seidel": (["cp2"], ["--xi=1,0"], ["--x", "1,0"]),
    "fixed": (["cp2"], ["--xi=1,0"], ["--x=1,0"]),
    "analyze": (["cp2"], ["--xi=1,0", "--no-quantum"], ["--xi=1,0", "--no"]),
    "verify": (["cp2"], ["--trials", "1"], ["--tri", "1"]),
    "example": (["blowup_cp2"], ["--mu", "1/2"], ["--m", "1/2"]),
}


def box(n, r):
    """Nonzero integer vectors with entries in [-r, r]."""
    return [xi for xi in itertools.product(range(-r, r + 1), repeat=n)
            if any(xi)]


def xi_flag(xi):
    return "--xi=" + ",".join(str(x) for x in xi)


def write_translated(directory, polys):
    """Write each polytope of TRANSLATED moved by SHIFT (its first n
    components) as "<name>+shift"; return the name -> path map."""
    paths = {}
    for name in TRANSLATED:
        poly, key = polys[name], f"{name}+shift"
        moved = validate_delzant(
            [(f.normal, f.support + vec_dot(f.normal, SHIFT[:poly.n]),
              f.label) for f in poly.facets], name=key)
        paths[key] = os.path.join(directory, f"{key}.json")
        with open(paths[key], "w") as fh:
            json.dump(cli.polytope_to_json(moved), fh, indent=2)
    return paths


def facet_pairs(poly):
    """The products x_i * x_j, i <= j, as `product` arguments."""
    return [[f"x{i + 1}", f"x{j + 1}"]
            for i in range(poly.num_facets)
            for j in range(i, poly.num_facets)]


def parse_paths(command):
    """Argv that take the parser off its plain path, around valid
    arguments of `command`: an unrecognized flag, an extra positional, an
    abbreviated long option, --xi given twice, and options before the
    positionals."""
    positionals, options, abbreviated = USAGE_ARGS[command]
    twice = [o for o in options if not o.startswith("--xi")] \
        + ["--xi=1,0", "--xi=0,1"]
    return [[command, *positionals, *options, "--bogus"],
            [command, *positionals, *options, "extra"],
            [command, *positionals, *abbreviated],
            [command, *positionals, *twice],
            [command, *(options or abbreviated), *positionals]]


def command_classes(polys):
    """Class name -> list of argv, with corpus names in place of files."""
    circles = [(name, xi) for name in corpus.BUNDLED
               for xi in box(polys[name].n, 2)]
    circles += [(name, xi) for name in ("cp3", "cube3") for xi in box(3, 1)]
    nef = ["--mode", "nef", "--y-table", corpus.Y_TABLE_FILE]
    verified = corpus.BUNDLED + ("cp3", "cube3")
    return {
        "seidel": [["seidel", name, xi_flag(xi), "--format", "structured"]
                   for name, xi in circles],
        "fixed": [["fixed", name, xi_flag(xi)] for name, xi in circles],
        "analyze": [["analyze", name, xi_flag(xi), "--format",
                     "structured"] for name, xi in circles],
        "analyze --no-quantum": [
            ["analyze", name, xi_flag(xi), "--no-quantum", "--format",
             "structured"]
            for name in ("cp4", "cube4", "gon12")
            for xi in box(polys[name].n, 1)],
        "verify": [["verify", name, "--trials", "4", "--seed", seed,
                    "--format", "structured"]
                   for seed in SEEDS for name in verified]
        + [["verify", "hirzebruch2", "--trials", "4", "--seed", seed,
            "--format", "structured", *nef] for seed in SEEDS],
        "cohomology": [["cohomology", name] for name in polys]
        + [["cohomology", f"cube{n}"] for n in LARGE_CUBES],
        "product": [["product", name, *pair, "--format", "structured"]
                    for name in ("cp2", "blowup_cp2", "s2xs2", "cp3",
                                 "cube3")
                    for pair in facet_pairs(polys[name])]
        + [["product", "hirzebruch2", *pair, "--format", "structured", *nef]
           for pair in facet_pairs(polys["hirzebruch2"])],
        "product, expressions": [
            ["product", name, *pair, "--format", "structured"]
            for name in ("cp2", "blowup_cp2", "cp3")
            for pair in EXPRESSION_PAIRS],
        "quantum": [["quantum", name] for name in FANO]
        + [["quantum", "hirzebruch2", *nef, *cut]
           for cut in ([], ["--cutoff", "2"])],
        "seidel, nef": [["seidel", "hirzebruch2", xi_flag(xi), "--format",
                         "structured", *nef, *cut]
                        for cut in ([], ["--cutoff", "2"])
                        for xi in box(2, 2)],
        "seidel and product, text": [
            ["seidel", name, xi_flag(xi)] for name in corpus.BUNDLED
            if polys[name].n == 2 for xi in box(2, 2)]
        + [["seidel", "hirzebruch2", xi_flag(xi), *nef] for xi in box(2, 2)]
        + [["seidel", "cp3", xi_flag(xi)] for xi in box(3, 1)]
        + [["product", name, *pair] for name in ("cp2", "blowup_cp2", "s2xs2")
           for pair in facet_pairs(polys[name])]
        + [["product", "hirzebruch2", *pair, *nef]
           for pair in facet_pairs(polys["hirzebruch2"])],
        "small cutoff": [
            argv + ["--cutoff", cut] for cut in SMALL_CUTOFFS
            for name in SMALL
            for argv in [["quantum", name]]
            + [["seidel", name, xi_flag(xi), "--format", "structured"]
               for xi in box(polys[name].n, 1)]
            + [["verify", name, "--trials", "4", "--format", "structured"]]],
        "analyze, translated": [
            ["analyze", f"{name}+shift", xi_flag(xi), "--format",
             "structured"]
            for name in TRANSLATED for xi in box(polys[name].n, 1)],
        "validate": [["validate", name] for name in polys]
        + [["validate", f"{name}+shift"] for name in TRANSLATED],
        "usage": [[], ["-h"], ["bogus"], ["--help", "seidel"]]
        + [[command, "-h"] for command in COMMANDS]
        + [[command] for command in COMMANDS]
        + [["seidel", "cp2", "--xi=1.5,0"],
           ["verify", "cp2", "--trials", "0"],
           ["seidel", "cp2", "--xi=1,0", "--cutoff", "abc"],
           ["seidel", "cp2", "--xi=1,0", "--bogus"],
           ["example", "blowup_cp2", "--mu", "2"]]
        + [argv for command in COMMANDS for argv in parse_paths(command)],
    }


def run_quietly(fn):
    """(exit status, stdout, stderr) of fn()."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = fn()
        except SystemExit as exc:  # help and argparse usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def main():
    os.environ["COLUMNS"] = "80"  # argparse wraps help to the terminal
    polys = corpus.build_polytopes()
    digests = {}
    with tempfile.TemporaryDirectory() as workdir:
        paths = corpus.write_corpus(workdir, polys)
        paths.update(corpus.write_corpus(
            workdir, {f"cube{n}": corpus.cube(n) for n in LARGE_CUBES}))
        paths.update(write_translated(workdir, polys))
        for name, argvs in command_classes(polys).items():
            h = hashlib.sha256()
            for argv in argvs:
                real = [paths.get(a, a) for a in argv]
                code, out, err = run_quietly(lambda: cli.main(real))
                record = (argv, code, out) + ((err,) if name == "usage"
                                              else ())
                h.update(repr(record).replace(workdir, "<corpus>").encode())
            digests[name] = (h.hexdigest(), len(argvs))
    tables = os.path.join(HERE, "run_paper_tables.py")
    _, out, _ = run_quietly(
        lambda: runpy.run_path(tables, run_name="__main__"))
    digests["run_paper_tables"] = (
        hashlib.sha256(out.encode()).hexdigest(), 1)
    total = hashlib.sha256()
    for name, (digest, count) in digests.items():
        print(f"{name:22} {digest}  ({count} commands)")
        total.update(f"{name} {digest}\n".encode())
    print(f"{'total':22} {total.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
