import contextlib
import io
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricqh import examples
from toricqh.cli import (
    main,
    polytope_from_json,
    polytope_to_json,
    qclass_from_json,
    qclass_to_json,
    lift_expression,
)
from toricqh.errors import ExprSyntaxError
from toricqh.exprparse import parse_expression
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


def test_seidel_command(blow_file, capsys):
    assert main(["seidel", blow_file, "--xi=-1,0"]) == 0
    out = capsys.readouterr().out
    assert "B (x) q t^{7/20}" in out
    assert "leading term check: ok" in out
    assert "exactness (fano facet maximum): ok" in out


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
