"""Self-tests of the benchmark: python3 -m pytest perfbench -q"""

import copy
from fractions import Fraction

import pytest

import run

run.import_engine()

import corpus  # noqa: E402
from answers import load_reference, matches, reference_entry  # noqa: E402
from toricqh import cli, quantum  # noqa: E402
from toricqh.cohomology import betti_morse, generic_vector  # noqa: E402
from toricqh.polytope import centroid  # noqa: E402
from tracer import Tracer, leftover_wrappers  # noqa: E402
from workloads import (KNOWN_DEFECTS, WORKLOADS, draw_round,  # noqa: E402
                       universe)


@pytest.fixture(scope="module")
def states(tmp_path_factory):
    workdir = str(tmp_path_factory.mktemp("corpus"))
    return {name: w.setup(workdir) for name, w in WORKLOADS.items()}


def test_workload_names_match_the_driver():
    assert tuple(WORKLOADS) == run.WORKLOAD_NAMES


def test_round_is_deterministic_per_seed(states):
    costs = {key: e["cost_s"] for key, e in load_reference().items()}
    for name, w in WORKLOADS.items():
        templates = w.templates(states[name])

        def keys(seed):
            return [op.key for op in draw_round(templates, name, seed, costs)]

        assert keys(7) == keys(7)
        assert len(keys(7)) == sum(t.count for t in templates)
        assert keys(7) != keys(8)


def test_corpus_validates_and_round_trips():
    polys = corpus.build_polytopes()
    assert len(polys) == 10
    for name, poly in polys.items():
        assert all(c == 0 for c in centroid(poly)), name
        again = cli.polytope_from_json(cli.polytope_to_json(poly))
        assert again.facets == poly.facets, name
    gon = polys["gon12"]
    assert betti_morse(gon, generic_vector(gon)) == (1, 10, 1)


def test_reference_covers_every_op(states):
    reference = load_reference()
    for name, w in WORKLOADS.items():
        missing = [op.key for op in universe(w.templates(states[name]))
                   if op.key not in reference]
        assert not missing, missing[:5]
    for key in KNOWN_DEFECTS:
        assert reference[key]["known_defect"] == KNOWN_DEFECTS[key]


def _answer(states, key):
    templates = WORKLOADS["seidel_sweep"].templates(states["seidel_sweep"])
    (op,) = [op for op in universe(templates) if op.key == key]
    return op.answer(op.run())


def test_checker_rejects_one_flipped_coefficient(states):
    answer = _answer(states, "seidel blowup_cp2 -2,-1")
    entry = reference_entry(answer)
    assert "sha256" in entry and matches(entry, answer)
    flipped = copy.deepcopy(answer)
    term = flipped["classes"]["element"]["terms"][0]
    term["c"] = str(-Fraction(term["c"]))
    assert not matches(entry, flipped)


def test_checker_compares_nef_classes_above_the_window_only(states):
    answer = _answer(states, "seidel hirzebruch2 -2,-2")
    element = answer["classes"]["element"]
    assert element["truncated"]
    entry = reference_entry(answer)
    cutoff = Fraction(element["cutoff"])
    slack = -min(Fraction(t["t"]) for t in element["terms"])
    assert slack > 0

    def with_extra_term(t):
        changed = copy.deepcopy(answer)
        changed["classes"]["element"]["terms"].append(
            {"m": [0, 0, 0, 0], "q": 0, "t": str(t), "c": "1"})
        return changed

    assert matches(entry, with_extra_term(cutoff - slack / 2))
    assert not matches(entry, with_extra_term(cutoff - slack - 1))


def test_tracer_restores_every_binding(states):
    qprod = quantum.qprod
    templates = WORKLOADS["seidel_sweep"].templates(states["seidel_sweep"])
    ops = [op for op in universe(templates)
           if op.key.startswith("seidel cp2")][:3]
    with Tracer() as tracer:
        assert quantum.qprod is not qprod
        for op in ops:
            op.run()
    assert quantum.qprod is qprod
    assert leftover_wrappers() == []
    metrics = tracer.metrics(1.0)
    assert metrics["seidel.verify_leading_term.calls"] == 3
    assert metrics["seidel.seidel_element.self_s"] > 0


def test_known_defect_accepts_a_clean_pass():
    reference = load_reference()
    for key in KNOWN_DEFECTS:
        entry = reference[key]
        clean = {"exit": 0, "stdout": "oracle suite\nall checks passed\n"}
        assert matches(entry, clean)
        assert not matches(entry, {"exit": 1, "stdout": "FAILURES FOUND\n"})
