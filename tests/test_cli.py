import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import toricqh
from toricqh import examples
from toricqh.cli import (
    COMMANDS,
    build_arg_parser,
    command_parser,
    main,
    parse_command_line,
    polytope_from_json,
    polytope_to_json,
    qclass_from_json,
    qclass_to_json,
    lift_expression,
    to_plain,
)
from toricqh.errors import ExprSyntaxError, TooManyDigits
from toricqh.exprparse import parse_expression
from toricqh.polytope import validate_delzant
from toricqh.quantum import fano_presentation, qprod, qsub

F = Fraction


@pytest.fixture()
def blow_file(tmp_path):
    path = tmp_path / "blowup.json"
    assert main(["example", "blowup_cp2", "--mu", "1/2",
                 "-o", str(path)]) == 0
    return str(path)


def test_example_round_trip(tmp_path):
    for name in ("s2", "cp2", "blowup_cp2", "s2xs2", "hirzebruch2"):
        path = tmp_path / f"{name}.json"
        assert main(["example", name, "-o", str(path)]) == 0
        data = json.loads(path.read_text())
        poly = polytope_from_json(data)
        assert polytope_to_json(poly) == data
        assert main(["validate", str(path)]) == 0


def test_example_blowup_epsilon(blow_file):
    data = json.loads(open(blow_file).read())
    assert data["facets"][0]["support"] == "7/20"


def test_validate_reports_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "name": "bad", "dim": 2,
        "facets": [{"normal": [-1, 0], "support": "1"},
                   {"normal": [0, -1], "support": "1"},
                   {"normal": [2, 1], "support": "1"}]}))
    assert main(["validate", str(path)]) == 1
    err = capsys.readouterr().err
    assert "NotSmooth" in err


@pytest.mark.parametrize("facets, error", [
    ([([1], 1), ([-1], 1), ([1], 1)], "NotSimple: vertex (1) lies on"),
    ([([1, 0], "1/2"), ([0, 1], 0), ([-1, -1], 1), ([-1, 1], "1/2")],
     "NotSmooth: vertex (-3/4, -1/4) on facets"),
    ([([-1, 0], "1/2"), ([0, -1], "1/3")],
     "Unbounded: the edge of vertex (-1/2, -1/3) along facets"),
], ids=["not_simple", "not_smooth", "unbounded"])
def test_polytope_errors_print_points_as_rationals(tmp_path, capsys, facets,
                                                   error):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"facets": [
        {"normal": normal, "support": str(support)}
        for normal, support in facets]}))
    assert main(["validate", str(path)]) == 1
    err = capsys.readouterr().err
    assert error in err
    assert "Fraction(" not in err


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["product"])  # missing arguments
    assert exc.value.code == 2


def test_expression_parser():
    value = parse_expression("x1*x2 - x4*q*t^{1/4}", 4)
    assert value[((1, 1, 0, 0), 0, F(0))] == 1
    assert value[((0, 0, 0, 1), 1, F(1, 4))] == -1
    value = parse_expression("2*q^-2*t^{-3/4} + (x3 - x4)^2", 4)
    assert value[((0, 0, 0, 0), -2, F(-3, 4))] == 2
    assert value[((0, 0, 1, 1), 0, F(0))] == -2
    with pytest.raises(ExprSyntaxError):
        parse_expression("x9", 4)
    with pytest.raises(ExprSyntaxError):
        parse_expression("x1 +", 4)
    with pytest.raises(ExprSyntaxError):
        parse_expression("t^{1/0}", 4)


def test_product_command_paper_table(blow_file, capsys):
    assert main(["product", blow_file, "x1", "x3"]) == 0
    out = capsys.readouterr().out
    assert "homology: B * L = p" in out
    assert main(["product", blow_file, "x4", "x1*x3"]) == 0
    out = capsys.readouterr().out
    assert "B (x) q^{-2} t^{-3/4}" in out


def test_product_structured_round_trip(blow_file, capsys):
    assert main(["product", blow_file, "x1", "x3",
                 "--format", "structured"]) == 0
    payload = json.loads(capsys.readouterr().out)
    qp = fano_presentation(examples.blowup_cp2(F(1, 2)))
    restored = qclass_from_json(payload["product"], qp)
    direct = qprod(lift_expression(qp, "x1"), lift_expression(qp, "x3"), qp)
    assert qsub(restored, direct).is_zero()
    assert qclass_to_json(restored, qp.ring) == payload["product"]


def test_a_flagged_zero_class_reads_back_flagged():
    """A term above the cutoff leaves a flagged zero, which serializes with
    no terms; reading it back keeps the flag."""
    qp = fano_presentation(examples.cp2())
    zero = lift_expression(qp, f"x1*t^{{{qp.cutoff + 1}}}")
    assert zero.is_zero() and zero.truncated
    payload = json.loads(json.dumps(qclass_to_json(zero, qp.ring)))
    assert payload["terms"] == [] and payload["truncated"] is True
    restored = qclass_from_json(payload, qp)
    assert restored.is_zero() and restored.truncated
    assert restored.cutoff is qp.cutoff
    assert qclass_to_json(restored, qp.ring) == payload
    unflagged = qclass_from_json({**payload, "truncated": False}, qp)
    assert unflagged.is_zero() and not unflagged.truncated


def test_seidel_command(blow_file, capsys):
    assert main(["seidel", blow_file, "--xi=-1,0"]) == 0
    out = capsys.readouterr().out
    assert "B (x) q t^{7/20}" in out
    assert "leading term check: ok" in out
    assert "exactness (fano facet maximum): ok" in out


def test_seidel_text_says_when_exactness_was_not_checked(tmp_path, capsys):
    # cp3's F_max for xi = (1, 0, 0) is middle-dimensional: no geometric
    # lift, so the report's exact_ok is None
    specs = [((-1, 0, 0), F(1, 4)), ((0, -1, 0), F(1, 4)),
             ((0, 0, -1), F(1, 4)), ((1, 1, 1), F(1, 4))]
    path = tmp_path / "cp3.json"
    path.write_text(json.dumps(polytope_to_json(validate_delzant(specs))))
    assert main(["seidel", str(path), "--xi=1,0,0"]) == 0
    out = capsys.readouterr().out
    assert "exactness (semifree maximum, all edge classes have 2c1 >= " \
        "codim): not checked" in out
    assert "MISMATCH" not in out
    assert main(["seidel", str(path), "--xi=1,0,0", "--format",
                 "structured"]) == 0
    assert json.loads(capsys.readouterr().out)["leading"]["exact_ok"] is None


def test_seidel_structured(blow_file, capsys):
    assert main(["seidel", blow_file, "--xi=-2,-1",
                 "--format", "structured"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["leading"]["leading_ok"]
    assert payload["leading"]["f_max"] == [1, 4]
    qp = fano_presentation(examples.blowup_cp2(F(1, 2)))
    restored = qclass_from_json(payload["element"], qp)
    from toricqh.seidel import seidel_element
    assert qsub(restored, seidel_element(qp, (-2, -1)).qclass).is_zero()


def test_fixed_command(blow_file, capsys):
    assert main(["fixed", blow_file, "--xi", "1,-1"]) == 0
    out = capsys.readouterr().out
    assert "Z/2" in out
    assert "global isotropy bound: 2" in out


def test_analyze_command(tmp_path, capsys):
    path = tmp_path / "square.json"
    main(["example", "s2xs2", "--mu", "2", "-o", str(path)])
    capsys.readouterr()
    assert main(["analyze", str(path), "--xi", "1,1"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("ESSENTIAL [")
    assert "T1" in out and "SD" in out


def test_analyze_structured(blow_file, capsys):
    assert main(["analyze", blow_file, "--xi=-2,-1",
                 "--format", "structured"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] == "essential"
    assert "T2" in payload["triggered"]


def test_quantum_command(blow_file, capsys):
    assert main(["quantum", blow_file]) == 0
    out = capsys.readouterr().out
    assert "x3*x4 = q^2 t^{3/4}" in out
    assert "x1*x2 = x4 (x) q t^{1/4}" in out


def test_verify_command(tmp_path, capsys):
    path = tmp_path / "cp2.json"
    main(["example", "cp2", "-o", str(path)])
    capsys.readouterr()
    assert main(["verify", str(path), "--trials", "4"]) == 0
    out = capsys.readouterr().out
    assert "all checks passed" in out


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_verify_rejects_nonpositive_trials(tmp_path, capsys, trials):
    path = tmp_path / "cp2.json"
    main(["example", "cp2", "-o", str(path)])
    with pytest.raises(SystemExit) as exc:
        main(["verify", str(path), "--trials", trials])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "all checks passed" not in captured.out
    assert "--trials" in captured.err


@pytest.mark.parametrize("cutoff", ["abc", "1/0", "0", "-1"])
def test_cutoff_must_be_a_positive_rational(tmp_path, capsys, cutoff):
    path = tmp_path / "cp2.json"
    main(["example", "cp2", "-o", str(path)])
    with pytest.raises(SystemExit) as exc:
        main(["seidel", str(path), "--xi=1,0", f"--cutoff={cutoff}"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "--cutoff" in captured.err
    assert "Traceback" not in captured.err


def test_point_lift_below_its_energy_is_a_typed_error(tmp_path, capsys):
    # the point lift of cp2 is S(-1,-1) times t^{2/3}, a monomial above the
    # cutoff 1/2, so it loses its classical part; the exactness check of a
    # vertex maximum needs that lift
    path = tmp_path / "cp2.json"
    main(["example", "cp2", "-o", str(path)])
    assert main(["seidel", str(path), "--xi=1,0", "--cutoff", "1/2"]) == 1
    captured = capsys.readouterr()
    assert "PointLiftUnnormalized" in captured.err
    assert "Traceback" not in captured.err
    # a facet maximum needs no lift: only the homology line is given up
    assert main(["seidel", str(path), "--xi=-1,0", "--cutoff", "1/2"]) == 0
    captured = capsys.readouterr()
    assert "homology report unavailable" in captured.out


def test_expression_lift_matches_relations(blow_file):
    qp = fano_presentation(examples.blowup_cp2(F(1, 2)))
    lhs = lift_expression(qp, "x3*x4")
    rhs = lift_expression(qp, "q^2*t^{3/4}")
    assert qsub(lhs, rhs).is_zero()


def _hirz_y_table_json():
    # corrections for the projectivized degree-2 bundle at mu = 2, written
    # as explicit series terms up to the default cutoff 4
    terms2 = [{"m": [0, 1, 0, 0], "q": 0, "t": str(k), "c": "1"}
              for k in range(1, 5)]
    terms3 = [{"m": [0, 0, 1, 0], "q": 0, "t": "0", "c": "1"},
              {"m": [0, 0, 0, 1], "q": 0, "t": "0", "c": "-1"}] + \
             [{"m": [0, 1, 0, 0], "q": 0, "t": str(k), "c": "-1"}
              for k in range(1, 5)]
    return {"1": [], "2": terms2, "3": terms3, "4": terms3}


def test_nef_cli_with_y_table_file(tmp_path, capsys):
    poly_path = tmp_path / "hirz.json"
    main(["example", "hirzebruch2", "--mu", "2", "-o", str(poly_path)])
    table_path = tmp_path / "ytable.json"
    table_path.write_text(json.dumps(_hirz_y_table_json()))
    capsys.readouterr()
    assert main(["seidel", str(poly_path), "--xi", "0,1",
                 "--mode", "nef", "--y-table", str(table_path)]) == 0
    out = capsys.readouterr().out
    assert "A+B (x) q t^{5/12}" in out
    assert main(["seidel", str(poly_path), "--xi=0,-1",
                 "--mode", "nef", "--y-table", str(table_path)]) == 0
    out = capsys.readouterr().out
    assert "O(t^{4})" in out  # truncated series marked
    assert main(["quantum", str(poly_path),
                 "--mode", "nef", "--y-table", str(table_path)]) == 0


def test_analyze_normalizes_raw_polytope_with_quantum(tmp_path, capsys):
    # a unit square in [0, 1]^2: not mean normalized, quantum rule on
    path = tmp_path / "square.json"
    path.write_text(json.dumps({
        "name": "unit_square", "dim": 2,
        "facets": [{"normal": [1, 0], "support": "1"},
                   {"normal": [-1, 0], "support": "0"},
                   {"normal": [0, 1], "support": "1"},
                   {"normal": [0, -1], "support": "0"}]}))
    assert main(["analyze", str(path), "--xi", "1,0",
                 "--format", "structured"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["normalized"] is True
    assert "SD" in [f["rule"] for f in payload["findings"]]


# ---------------------------------------------------------- malformed input

def _cp2_json():
    return polytope_to_json(examples.cp2())


def _write(path, document):
    if isinstance(document, bytes):
        path.write_bytes(document)
    else:
        path.write_text(json.dumps(document))
    return str(path)


def _polytope_case(mutate):
    """`validate` on cp2 rewritten by mutate(document)."""
    return lambda tmp: ["validate", _write(tmp / "p.json",
                                           mutate(_cp2_json()))]


def _y_table_case(mutate):
    """NEF `quantum` on hirzebruch2 with its Y-table rewritten."""
    def argv(tmp):
        poly = polytope_to_json(examples.hirzebruch2(F(2)))
        return ["quantum", _write(tmp / "h.json", poly), "--mode", "nef",
                "--y-table", _write(tmp / "y.json",
                                    mutate(_hirz_y_table_json()))]
    return argv


def _s2_case(change):
    """`validate` on the 1-D s2 with its top-level keys changed."""
    document = {**polytope_to_json(examples.s2()), **change}
    return lambda tmp: ["validate", _write(tmp / "p.json", document)]


def _facet0(document, **change):
    """The polytope with its first facet changed."""
    facets = document["facets"]
    return {**document, "facets": [{**facets[0], **change}] + facets[1:]}


def _term0(table, **change):
    """The table with the first term of entry 2 changed; None drops a key."""
    term = {k: v for k, v in {**table["2"][0], **change}.items()
            if v is not None}
    return {**table, "2": [term] + table["2"][1:]}


def _utf16_bom(document):
    return b"\xff\xfe" + json.dumps(document).encode()


MALFORMED = {
    # raw tracebacks before typed readers
    "dim_string": (_polytope_case(lambda d: {**d, "dim": "x"}), 1),
    "facets_int": (_polytope_case(lambda d: {**d, "facets": 3}), 1),
    "polytope_utf16_bom": (_polytope_case(_utf16_bom), 1),
    "y_utf16_bom": (_y_table_case(_utf16_bom), 1),
    "y_term_without_c": (_y_table_case(lambda t: _term0(t, c=None)), 1),
    "y_key_abc": (_y_table_case(lambda t: {**t, "abc": []}), 1),
    "y_value_object": (_y_table_case(lambda t: {**t, "2": {"m": 1}}), 1),
    "y_top_level_list": (_y_table_case(lambda t: [t]), 1),
    "polytope_as_y_table": (_y_table_case(
        lambda t: polytope_to_json(examples.hirzebruch2(F(2)))), 1),
    "mu_zero_denominator": (lambda tmp: ["example", "cp2", "--mu", "1/0"], 2),
    "mu_junk": (lambda tmp: ["example", "cp2", "--mu", "abc"], 2),
    # silent coercions before typed readers
    "normal_float": (_polytope_case(
        lambda d: _facet0(d, normal=[-1.7, 0])), 1),
    "dim_float": (_s2_case({"dim": 1.9}), 1),
    "dim_bool": (_s2_case({"dim": True}), 1),
    "support_float": (_polytope_case(lambda d: _facet0(d, support=0.5)), 1),
    "label_int": (_polytope_case(lambda d: _facet0(d, label=5)), 1),
    "y_q_float": (_y_table_case(lambda t: {**t, "2": t["2"] + [
        {"m": [0, 0, 0, 0], "q": 1.5, "t": "1", "c": "1"}]}), 1),
    "y_missing_facet": (_y_table_case(
        lambda t: {k: v for k, v in t.items() if k != "2"}), 1),
    "y_negative_exponent": (_y_table_case(
        lambda t: _term0(t, m=[2, -1, 0, 0])), 1),
    "mu_zero": (lambda tmp: ["example", "cp2", "--mu", "0"], 2),
    "cutoff_decimal": (lambda tmp: [
        "seidel", _write(tmp / "p.json", _cp2_json()), "--xi=1,0",
        "--cutoff", "0.5"], 2),
    # a malformed flag value is a usage error, a wrong count a domain error
    "xi_decimal": (lambda tmp: [
        "seidel", _write(tmp / "p.json", _cp2_json()), "--xi=1.5,0"], 2),
    "xi_empty_component": (lambda tmp: [
        "fixed", _write(tmp / "p.json", _cp2_json()), "--xi=1,,0"], 2),
    "xi_component_count": (lambda tmp: [
        "analyze", _write(tmp / "p.json", _cp2_json()), "--xi=1,0,0"], 1),
    # each example's own bound on mu is checked with the others
    "mu_above_range": (lambda tmp: ["example", "blowup_cp2", "--mu", "2"], 2),
    "mu_at_lower_bound": (
        lambda tmp: ["example", "hirzebruch2", "--mu", "1"], 2),
}


def _exit_code(argv):
    """main's exit status; the only exception main may raise is argparse's
    SystemExit(2) for a usage error."""
    try:
        return main(argv)
    except SystemExit as exc:
        assert exc.code == 2
        return exc.code


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_is_a_typed_error(tmp_path, capsys, case):
    write, code = MALFORMED[case]
    assert _exit_code(write(tmp_path)) == code
    err = capsys.readouterr().err
    assert "error:" in err and "Traceback" not in err


@pytest.mark.parametrize("expression", [
    "1" * 5000, "x" + "1" * 5000, "t^{1/" + "1" * 5000 + "}", "x1\u00b2",
    "\u00b2"], ids=["numeral", "index", "denominator", "x1_squared",
                     "squared"])
def test_an_unreadable_numeral_is_a_syntax_error(tmp_path, capsys,
                                                 expression):
    """Numerals past the int() limit and superscript digits are
    ExprSyntaxErrors, not ValueErrors out of the conversion."""
    argv = ["product", _write(tmp_path / "p.json", _cp2_json()), expression,
            "x1"]
    assert _exit_code(argv) == 1
    assert capsys.readouterr().err.startswith("error: ExprSyntaxError: ")


def _nodes(document, path=()):
    """(path, value) for every node below the root of a JSON tree."""
    items = (document.items() if isinstance(document, dict) else
             enumerate(document) if isinstance(document, list) else ())
    for key, value in items:
        yield path + (key,), value
        yield from _nodes(value, path + (key,))


JUNK = st.sampled_from([1.5, -2.0, True, False, None, "x", "", "1/0", "0.5",
                        "1e3", " 2", [], [1, 2], {}, 2 ** 70, -(2 ** 70)])


@st.composite
def mutated(draw, document):
    """The document with one node swapped for junk, one node dropped, or
    one key or element added."""
    document = json.loads(json.dumps(document))
    path, _ = draw(st.sampled_from(list(_nodes(document))))
    parent = document
    for key in path[:-1]:
        parent = parent[key]
    action = draw(st.sampled_from(["swap", "drop", "add"]))
    if action == "swap":
        parent[path[-1]] = draw(JUNK)
    elif action == "drop":
        del parent[path[-1]]
    elif isinstance(parent, dict):
        parent[draw(st.sampled_from(["extra", "0", "9", "name"]))] = \
            draw(JUNK)
    else:
        parent.append(draw(JUNK))
    return document


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz")
    (path / "hirz.json").write_text(json.dumps(polytope_to_json(
        examples.hirzebruch2(F(2)))))
    return path


def _quiet_exit_code(argv):
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        return _exit_code(argv)


@settings(max_examples=100, deadline=None)
@given(document=mutated(polytope_to_json(examples.blowup_cp2(F(1, 2)))))
def test_mutated_polytope_files_fail_cleanly(fuzz_dir, document):
    path = _write(fuzz_dir / "poly.json", document)
    code = _quiet_exit_code(["validate", path])
    assert code in (0, 1, 2)
    if code == 0:
        # nothing was coerced: the file reads back as written
        written = polytope_to_json(polytope_from_json(document))
        for got, given_facet in zip(written["facets"], document["facets"]):
            assert got["normal"] == given_facet["normal"]
            assert all(type(x) is int for x in given_facet["normal"])
            assert F(got["support"]) == F(given_facet["support"])
            assert got.get("label", "") == given_facet.get("label", "")
        assert len(written["facets"]) == len(document["facets"])
        assert polytope_to_json(polytope_from_json(written)) == written


@settings(max_examples=100, deadline=None)
@given(table=mutated(_hirz_y_table_json()))
def test_mutated_y_tables_fail_cleanly(fuzz_dir, table):
    path = _write(fuzz_dir / "y.json", table)
    code = _quiet_exit_code(["quantum", str(fuzz_dir / "hirz.json"),
                             "--mode", "nef", "--y-table", path])
    assert code in (0, 1, 2)


def _count_builds(monkeypatch):
    """Count the classical rings and the polytopes built from here on, by
    class name."""
    from collections import Counter
    from toricqh.cohomology import ClassicalRing
    from toricqh.polytope import DelzantPolytope
    counts = Counter()

    def counting(cls):
        init = cls.__init__

        def counted(self, *args, **kwargs):
            counts[cls.__name__] += 1
            init(self, *args, **kwargs)
        return counted

    for cls in (ClassicalRing, DelzantPolytope):
        monkeypatch.setattr(cls, "__init__", counting(cls))
    return counts


def test_analyze_with_quantum_builds_one_ring(blow_file, monkeypatch):
    counts = _count_builds(monkeypatch)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["analyze", blow_file, "--xi=-2,-1"]) == 0
    assert counts["ClassicalRing"] == 1


def test_analyze_reads_the_presentation_of_unnormalized_data(
        tmp_path, monkeypatch):
    # the square [0, 2] x [0, 1]: one validation on load and one for the
    # normalized data the presentation is built on
    path = tmp_path / "square.json"
    path.write_text(json.dumps({
        "name": "square", "dim": 2,
        "facets": [{"normal": [1, 0], "support": "2"},
                   {"normal": [-1, 0], "support": "0"},
                   {"normal": [0, 1], "support": "1"},
                   {"normal": [0, -1], "support": "0"}]}))
    counts = _count_builds(monkeypatch)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["analyze", str(path), "--xi=1,0",
                     "--format", "structured"]) == 0
    assert json.loads(out.getvalue())["normalized"] is True
    assert counts == {"ClassicalRing": 1, "DelzantPolytope": 2}


# ------------------------------------------------- one parser per command

def _subparsers(parser):
    """name -> subparser of a parser from build_arg_parser."""
    action, = [a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction)]
    return action.choices


@pytest.mark.parametrize("command", list(COMMANDS))
def test_a_command_parser_holds_that_command_alone(command, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    alone = command_parser(command)
    assert not any(isinstance(a, argparse._SubParsersAction)
                   for a in alone._actions)
    full = _subparsers(build_arg_parser())[command]
    assert alone.format_help() == full.format_help()
    assert alone.format_usage() == full.format_usage()


def _count_subparsers(monkeypatch):
    built = []
    add_parser = argparse._SubParsersAction.add_parser

    def counted(self, name, **kwargs):
        built.append(name)
        return add_parser(self, name, **kwargs)
    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counted)
    return built


def _count_parsers(monkeypatch):
    """The prog of every ArgumentParser built, sub-parsers included."""
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    return built


def test_main_builds_only_the_invoked_command(blow_file, monkeypatch):
    built = _count_parsers(monkeypatch)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["fixed", blow_file, "--xi=1,0"]) == 0
    assert built == ["toricqh fixed"]


def test_arguments_left_over_build_the_full_tree(blow_file, monkeypatch):
    built = _count_parsers(monkeypatch)
    with contextlib.redirect_stderr(io.StringIO()), \
            pytest.raises(SystemExit):
        main(["fixed", blow_file, "--xi=1,0", "extra"])
    assert built == ["toricqh fixed", "toricqh"] \
        + [f"toricqh {name}" for name in COMMANDS]


@pytest.mark.parametrize("argv", [["-h"], [], ["bogus"], ["--help", "seidel"]])
def test_help_and_unknown_commands_build_every_parser(argv, monkeypatch):
    built = _count_subparsers(monkeypatch)
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()), \
            pytest.raises(SystemExit):
        main(argv)
    assert built == list(COMMANDS)


def test_an_unrecognized_argument_lists_every_command(
        blow_file, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(["seidel", blow_file, "--xi=1,0", "--bogus"])
    assert exc.value.code == 2
    usage = build_arg_parser().format_usage()
    assert "{validate,cohomology,quantum,product,seidel,fixed,analyze," \
        "verify,example}" in usage
    assert capsys.readouterr().err == \
        usage + "toricqh: error: unrecognized arguments: --bogus\n"


def _exit_and_streams(parse, argv, capsys):
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    return exc.value.code, capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["seidel"], ["seidel", "-h"], ["seidel", "F", "--xi=1.5,0"],
    ["seidel", "F", "--xi=1,0", "--cutoff", "abc"], ["fixed", "F"],
    ["verify", "F", "--trials", "0"], ["example", "nope"],
    ["product", "F", "x1", "x2", "x3"], ["analyze", "F", "--xi=1,0", "-q"],
])
def test_a_command_parser_prints_what_the_full_tree_prints(
        argv, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    full = _exit_and_streams(build_arg_parser().parse_args, argv, capsys)
    assert _exit_and_streams(main, argv, capsys) == full


# ------------------------------------ the former parse, as a reference

def reference_build_arg_parser(command=None):
    """The former `build_arg_parser`, verbatim."""
    parser = argparse.ArgumentParser(
        prog="toricqh",
        description="Exact quantum cohomology of toric manifolds from "
                    "moment polytopes")
    # the metavar would rename `command` in the full tree's errors
    metavar = {"metavar": "{%s}" % ",".join(COMMANDS)} if command else {}
    subs = parser.add_subparsers(dest="command", required=True, **metavar)
    for name in [command] if command else COMMANDS:
        help_text, handler, specs = COMMANDS[name]
        sub = subs.add_parser(name, help=help_text)
        for flags, kwargs in specs:
            sub.add_argument(*flags, **kwargs)
        sub.set_defaults(func=handler, usage_error=sub.error)
    return parser


def reference_parse(argv):
    """The former parse in `main`: the invoked command's tree alone."""
    command = argv[0] if argv and argv[0] in COMMANDS else None
    return reference_build_arg_parser(command).parse_args(argv)


def _parse_outcome(parse, argv):
    """(exit status, stdout, stderr, parsed values) of parse(argv), with
    the prog of the parser whose `error` is the usage_error value."""
    out, err = io.StringIO(), io.StringIO()
    code = values = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            values = vars(parse(list(argv)))
        except SystemExit as exc:
            code = exc.code
    if values is not None:
        values["usage_error"] = values["usage_error"].__self__.prog
    return code, out.getvalue(), err.getvalue(), values


# command -> (valid positionals, valid options, one option abbreviated)
PARSE_ARGS = {
    "validate": (["F"], [], ["--he"]),
    "cohomology": (["F"], [], ["--he"]),
    "quantum": (["F"], ["--mode", "nef", "--y-table", "Y"], ["--cut", "2"]),
    "product": (["F", "x1", "x2"], ["--format", "structured"],
                ["--form", "structured"]),
    "seidel": (["F"], ["--xi=1,0", "--cutoff", "3/2"], ["--x", "1,0"]),
    "fixed": (["F"], ["--xi=1,0"], ["--x=1,0"]),
    "analyze": (["F"], ["--xi=1,0", "--no-quantum"], ["--xi=1,0", "--no"]),
    "verify": (["F"], ["--trials", "4", "--seed", "-3"], ["--tri", "4"]),
    "example": (["blowup_cp2"], ["--mu", "1/2", "-o", "out"],
                ["--m", "1/2"]),
}


def _parse_argvs(command):
    """Success and error argv of `command`."""
    positionals, options, abbreviated = PARSE_ARGS[command]
    twice = [o for o in options if not o.startswith("--xi")] \
        + ["--xi=1,0", "--xi=0,1"]
    return [[command], [command, "-h"], [command, *positionals],
            [command, *positionals, *options],
            [command, *options, *positionals],
            [command, *positionals, *options, "--bogus"],
            [command, *positionals, *options, "extra"],
            [command, *positionals, *abbreviated],
            [command, *positionals, *twice],
            [command, "--", *positionals, *options],
            [command, *positionals, "--format", "json", "--trials", "x"]]


@pytest.mark.parametrize("argv", [argv for command in COMMANDS
                                  for argv in _parse_argvs(command)],
                         ids=" ".join)
def test_a_named_command_parses_as_the_former_tree(argv, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert _parse_outcome(parse_command_line, argv) == \
        _parse_outcome(reference_parse, argv)


TOKENS = ("F", "x1", "--xi=1,0", "--xi", "1,0", "-1,0", "--x", "--format",
          "structured", "--form", "--mode", "nef", "--y-table", "Y",
          "--cutoff", "2", "--cut", "abc", "--no-quantum", "--no",
          "--trials", "4", "--tri", "--seed", "--mu", "1/2", "--m", "-o",
          "--output", "-h", "--he", "--bogus", "--", "-q", "cp2", "seidel")


@given(st.sampled_from([None, *COMMANDS]),
       st.lists(st.sampled_from(TOKENS), max_size=6))
@settings(max_examples=300, deadline=None)
def test_any_argv_parses_as_the_former_tree(command, tokens):
    argv = ([command] if command else []) + tokens
    assert _parse_outcome(parse_command_line, argv) == \
        _parse_outcome(reference_parse, argv)


# ------------------------------------------------------ flags and outputs

@pytest.mark.parametrize("where", ["missing", "directory"])
def test_an_unwritable_example_output_is_a_typed_error(
        tmp_path, capsys, where):
    target = tmp_path / "missing" / "x.json" if where == "missing" \
        else tmp_path
    assert main(["example", "cp2", "-o", str(target)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        f"error: FileFormatError: cannot write {target}: ")


@pytest.mark.parametrize("argv", [
    ["seidel", "{poly}", "--xi=1,0"],
    ["analyze", "{poly}", "--xi=1,0"],
    ["analyze", "{poly}", "--xi=1,0", "--no-quantum"],
    ["quantum", "{poly}"],
    ["product", "{poly}", "x1", "x2"],
    ["verify", "{poly}", "--mode", "fano"],
])
def test_a_y_table_outside_nef_mode_is_a_typed_error(
        tmp_path, capsys, argv):
    poly = tmp_path / "cp2.json"
    main(["example", "cp2", "-o", str(poly)])
    table = tmp_path / "y.json"
    table.write_text("{}")
    capsys.readouterr()
    real = [a.format(poly=poly) for a in argv]
    assert main(real + ["--y-table", str(table)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == \
        "error: FileFormatError: --y-table FILE needs --mode nef\n"


@pytest.mark.parametrize("flags, message", [
    (["--mode", "nef"], "--mode nef has no effect with --no-quantum"),
    (["--cutoff", "1"], "--cutoff has no effect with --no-quantum"),
], ids=["mode nef", "cutoff"])
def test_presentation_flags_with_no_quantum_are_a_typed_error(
        tmp_path, capsys, flags, message):
    poly = tmp_path / "cp2.json"
    main(["example", "cp2", "-o", str(poly)])
    capsys.readouterr()
    argv = ["analyze", str(poly), "--xi=1,0", "--no-quantum", *flags]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: FileFormatError: {message}\n"


@pytest.mark.parametrize("argv", [
    ["(" * 3000 + "x1" + ")" * 3000, "x1"],
    ["--", "-" * 5000 + "x1", "x1"]], ids=["parentheses", "minus"])
def test_deep_nesting_is_a_typed_error(tmp_path, capsys, argv):
    poly = tmp_path / "cp2.json"
    main(["example", "cp2", "-o", str(poly)])
    capsys.readouterr()
    assert main(["product", str(poly), *argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == \
        "error: ExprSyntaxError: expression nested too deeply\n"


@pytest.mark.parametrize("which", ["polytope", "y-table"])
def test_a_deeply_nested_json_file_is_a_typed_error(tmp_path, capsys, which):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000)
    poly = tmp_path / "h.json"
    main(["example", "hirzebruch2", "--mu", "2", "-o", str(poly)])
    capsys.readouterr()
    argv = ["validate", str(deep)] if which == "polytope" else \
        ["quantum", str(poly), "--mode", "nef", "--y-table", str(deep)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == \
        f"error: FileFormatError: {deep} is nested too deeply\n"


@pytest.fixture()
def digit_limit():
    """Python's default limit on the digits of an int turned into text."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this Python turns ints of any length into text")
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield 4300
    sys.set_int_max_str_digits(old)


@pytest.mark.parametrize("fmt", ["text", "structured"])
def test_a_number_too_long_to_print_is_a_typed_error(tmp_path, capsys,
                                                     digit_limit, fmt):
    """(10^3000 - 1)^2 has 6,000 digits: the product is made, and printing
    it ends in a typed error, not a ValueError traceback."""
    poly = tmp_path / "cp2.json"
    main(["example", "cp2", "-o", str(poly)])
    capsys.readouterr()
    nines = "9" * 3000
    assert main(["product", str(poly), f"{nines}*{nines}", "x1",
                 "--format", fmt]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: TooManyDigits: a number in the answer "
                            f"has more than {digit_limit} digits\n")


def test_a_structured_int_too_long_to_print_is_a_typed_error(digit_limit):
    with pytest.raises(TooManyDigits):
        to_plain({"q": [1, 10 ** digit_limit]})
    assert to_plain({"q": [1, 10 ** (digit_limit - 1)]}) == \
        {"q": [1, 10 ** (digit_limit - 1)]}


# ------------------------------------------------------------- closed pipes

@pytest.mark.parametrize("unbuffered", [False, True],
                         ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("command", [["cohomology", "{poly}"],
                                     ["analyze", "{poly}", "--xi=1,0",
                                      "--no-quantum"], ["example", "cp2"]],
                         ids=["cohomology", "analyze", "example"])
def test_a_closed_pipe_ends_with_status_1_and_nothing_on_stderr(
        tmp_path, command, unbuffered):
    poly = tmp_path / "cp2.json"
    assert main(["example", "cp2", "-o", str(poly)]) == 0
    src = os.path.dirname(os.path.dirname(os.path.abspath(toricqh.__file__)))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read, write = os.pipe()
    os.close(read)  # the reader is gone before the first line is written
    try:
        done = subprocess.run(
            [sys.executable, "-m", "toricqh.cli",
             *(a.format(poly=poly) for a in command)],
            stdout=write, stderr=subprocess.PIPE, env=env, timeout=120)
    finally:
        os.close(write)
    assert (done.returncode, done.stderr) == (1, b"")
