"""The three workloads: their set-up, their op universes and seeded rounds.

A round is the op list one pass runs.  Each workload is a list of templates
(count, candidates).  A round sorts each template's candidates by the cost
recorded with the reference answers, cuts them into `count` strata of
neighbouring cost, draws one op from each stratum with the workload seed,
and shuffles the round.  So every round of a workload has the same size,
the same mix of op kinds and nearly the same cost profile: runs of
different seeds run different inputs but do comparable work.  The union
of all candidates is the op universe that the reference answers cover.

Ops call the engine through module attributes looked up at call time, so a
tracer that rebinds those attributes sees every call.
"""

import contextlib
import io
import itertools
import json
import random
from typing import Callable, NamedTuple

import corpus
from toricqh import cli, obstructions, quantum, seidel
from toricqh.errors import ToricError


class Op(NamedTuple):
    key: str  # names the op in the reference answers
    run: Callable  # timed; returns the raw result
    answer: Callable  # raw result -> JSON-able answer, untimed


class Template(NamedTuple):
    count: int
    candidates: list


def box(n, r):
    """Nonzero integer vectors with entries in [-r, r]."""
    return [xi for xi in itertools.product(range(-r, r + 1), repeat=n)
            if any(xi)]


def xi_text(xi):
    return ",".join(str(x) for x in xi)


def draw_round(templates, workload, seed, costs):
    """The seeded round; `costs` maps op keys to recorded seconds."""
    rng = random.Random(f"{workload}:{seed}")
    ops = []
    for t in templates:
        pool = sorted(t.candidates, key=lambda op: (costs[op.key], op.key))
        n = len(pool)
        ops += [rng.choice(pool[i * n // t.count:(i + 1) * n // t.count])
                for i in range(t.count)]
    rng.shuffle(ops)
    return ops


def universe(templates):
    seen = {}
    for t in templates:
        for op in t.candidates:
            seen.setdefault(op.key, op)
    return list(seen.values())


# ------------------------------------------------------------------ cli_cold

FANO_FILES = ("s2", "cp2", "blowup_cp2", "s2xs2", "cp3", "cp4", "cube3",
              "cube4")
FANO_2D = ("cp2", "blowup_cp2", "s2xs2")


def _cli_answer(argv, raw):
    code, out = raw
    if code == 0 and "seidel" in argv and "structured" in argv:
        payload = json.loads(out)
        return {"classes": {"element": payload["element"]},
                "rest": {"exit": code, "xi": payload["xi"],
                         **payload["leading"]}}
    return {"exit": code, "stdout": out}


# op key -> the wrong answer recorded for it at the baseline
KNOWN_DEFECTS = {
    "cli verify hirzebruch2 --trials 4 --mode nef --y-table "
    "hirzebruch2_y.json":
        "NEF oracle suite at seed 7193 reports 1 homomorphism and 4 inverse "
        "violations (NEF products are exact only to cutoff minus s); "
        "exits 1",
}


def cli_op(argv, paths):
    """An in-process `toricqh` command; file arguments are corpus names."""
    real = [paths.get(a, a) for a in argv]

    def run():
        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            try:
                code = cli.main(real)
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
        return code, out.getvalue()

    return Op("cli " + " ".join(argv), run, lambda raw: _cli_answer(argv,
                                                                   raw))


def cli_templates(state):
    polys, paths = state["polys"], state["paths"]
    nef = ["--mode", "nef", "--y-table", corpus.Y_TABLE_FILE]

    def op(*argv):
        return cli_op(list(argv), paths)

    def r(name):
        return 1 if polys[name].n == 4 else 2

    names = list(polys)
    return [
        # the named heavy ops, once in every round
        Template(1, [op("cohomology", "gon12")]),
        Template(1, [op("seidel", "cube4", "--xi=1,2,3,4",
                        "--format", "structured")]),
        Template(1, [op("verify", "cube3", "--trials", "4")]),
        Template(1, [op("verify", "hirzebruch2", "--trials", "4", *nef)]),
        # seeded mix
        Template(10, [op("validate", n) for n in names]),
        Template(9, [op("cohomology", n) for n in names if n != "gon12"]),
        Template(9, [op("quantum", n) for n in FANO_FILES]
                 + [op("quantum", "hirzebruch2", *nef)]),
        Template(16, [op("product", n, f"x{i + 1}", f"x{j + 1}")
                      for n in FANO_2D + ("cp3", "cube3")
                      for i in range(polys[n].num_facets)
                      for j in range(i, polys[n].num_facets)]),
        Template(40, [op("seidel", n, f"--xi={xi_text(xi)}",
                         "--format", "structured")
                      for n in ("s2",) + FANO_2D + ("cp3", "cp4")
                      for xi in box(polys[n].n, r(n))]),
        Template(2, [op("seidel", "hirzebruch2", f"--xi={xi_text(xi)}",
                        "--format", "structured", *nef)
                     for xi in box(2, 2)]),
        Template(48, [op("fixed", n, f"--xi={xi_text(xi)}")
                      for n in names for xi in box(polys[n].n, r(n))]),
        Template(6, [op("analyze", n, f"--xi={xi_text(xi)}",
                        "--format", "structured")
                     for n in ("s2",) + FANO_2D + ("cp3",)
                     for xi in box(polys[n].n, 2)]),
        # gon12 is not Fano: classical rules only
        Template(1, [op("analyze", "gon12", f"--xi={xi_text(xi)}",
                        "--no-quantum", "--format", "structured")
                     for xi in box(2, 1)]),
        Template(1, [op("verify", n, "--trials", "4")
                     for n in FANO_2D + ("cp3", "cp4")]),
    ]


def cli_setup(workdir):
    polys = corpus.build_polytopes()
    paths = corpus.write_corpus(workdir, polys)
    return {"polys": polys, "paths": paths}


# -------------------------------------------------------------- seidel_sweep

SEIDEL_POLYTOPES = ("cp2", "blowup_cp2", "s2xs2", "hirzebruch2", "cp3",
                    "cp4", "cube3", "cube4")


def _seidel_answer(qp, raw):
    element, report, homology = raw
    if isinstance(homology, ToricError):
        homology = {"error": type(homology).__name__}
    else:
        homology = cli.homology_text(homology)
    rest = {k: v for k, v in report.items() if k != "K_max"}
    rest["K_max"] = str(report["K_max"])
    rest["homology"] = homology
    return {"classes": {"element": cli.qclass_to_json(element.qclass,
                                                      qp.ring)},
            "rest": rest}


def seidel_op(name, qp, xi):
    def run():
        element = seidel.seidel_element(qp, xi)
        _, report = seidel.verify_leading_term(qp, xi, element=element)
        try:
            homology = seidel.to_homology_report(
                seidel.build_dictionary(qp), element.qclass, qp)
        except ToricError as err:  # DictionaryIncomplete beyond dimension 2
            homology = err
        return element, report, homology

    return Op(f"seidel {name} {xi_text(xi)}", run,
              lambda raw: _seidel_answer(qp, raw))


def seidel_templates(state):
    return [Template(24, [seidel_op(name, qp, xi)
                          for xi in box(qp.polytope.n, 2)])
            for name, qp in state["presentations"].items()]


def seidel_setup(workdir):
    """One presentation per polytope; the warm-up pass runs separately."""
    polys = corpus.build_polytopes()
    paths = corpus.write_corpus(workdir, {"hirzebruch2":
                                          polys["hirzebruch2"]})
    presentations = {}
    for name in SEIDEL_POLYTOPES:
        if name == "hirzebruch2":
            presentations[name] = cli.build_presentation(
                polys[name], "nef", paths[corpus.Y_TABLE_FILE])
        else:
            presentations[name] = quantum.fano_presentation(polys[name])
    return {"presentations": presentations}


# ------------------------------------------------------------- battery_sweep

def _analyze_answer(report):
    return {
        "verdict": report.verdict,
        "normalized": report.normalized,
        "triggered": report.triggered_rules(),
        "findings": [
            {"rule": f.rule, "triggered": f.triggered,
             "definitive": f.definitive,
             "assumptions": list(f.assumptions),
             "certificate": json.loads(json.dumps(f.certificate,
                                                  default=str))}
            for f in report.findings],
    }


def analyze_op(name, poly, xi):
    return Op(f"analyze {name} {xi_text(xi)}",
              lambda: obstructions.analyze(poly, xi, None), _analyze_answer)


def battery_templates(state):
    polys = state["polys"]
    return [
        # the chain-DFS worst case within budget, and a circle with 64
        # optimal chains
        Template(1, [analyze_op("cube4", polys["cube4"], (1, 2, 3, 4))]),
        Template(1, [analyze_op("cube4", polys["cube4"], (0, 1, 1, 1))]),
        Template(26, [analyze_op("cube3", polys["cube3"], xi)
                      for xi in box(3, 1)]),
        Template(80, [analyze_op("cp4", polys["cp4"], xi)
                      for xi in box(4, 1)]),
        Template(4, [analyze_op("gon12", polys["gon12"], xi)
                     for xi in box(2, 1)]),
    ]


def battery_setup(workdir):
    return {"polys": corpus.build_polytopes()}


class Workload(NamedTuple):
    name: str
    setup: Callable  # workdir -> state
    templates: Callable  # state -> [Template]
    warm_up: bool  # whether set-up runs one untimed pass of the round


WORKLOADS = {
    "cli_cold": Workload("cli_cold", cli_setup, cli_templates, False),
    "seidel_sweep": Workload("seidel_sweep", seidel_setup, seidel_templates,
                             True),
    "battery_sweep": Workload("battery_sweep", battery_setup,
                              battery_templates, False),
}
