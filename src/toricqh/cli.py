"""Command-line front end: file formats, bundled examples, reports.

Polytope files are JSON with rationals as "p/q" strings; no floating point
appears anywhere.  Domain errors exit with status 1 and a structured
message; usage errors exit with status 2.
"""

import argparse
import json
import sys
from fractions import Fraction

from . import examples as bundled
from .actions import (
    FIXED,
    fixed_components,
    global_isotropy_bound,
    isotropy_order,
)
from .cohomology import build_ring
from .errors import FileFormatError, ToricError
from .exprparse import parse_expression
from .novikov import NovScalar
from .obstructions import analyze
from .oracle import verify_all
from .polytope import centroid, normalize, validate_delzant
from .quantum import (
    QClass,
    default_cutoff,
    fano_presentation,
    kept_qpoly,
    nef_presentation,
    qpoly_atoms,
    qprod,
    quantum_nf,
)
from .seidel import (
    build_dictionary,
    seidel_element,
    to_homology_report,
    verify_leading_term,
)


# ------------------------------------------------------------------ file I/O

def polytope_to_json(poly):
    return {
        "name": poly.name,
        "dim": poly.n,
        "facets": [
            {"normal": list(f.normal), "support": str(f.support),
             **({"label": f.label} if f.label else {})}
            for f in poly.facets],
    }


def polytope_from_json(data):
    if not isinstance(data, dict) or "facets" not in data:
        raise FileFormatError("polytope files need a 'facets' list")
    specs = []
    for entry in data["facets"]:
        try:
            normal = tuple(int(x) for x in entry["normal"])
            support = Fraction(str(entry["support"]))
        except (KeyError, ValueError, TypeError) as err:
            raise FileFormatError(f"bad facet entry {entry!r}: {err}")
        specs.append((normal, support, entry.get("label", "")))
    poly = validate_delzant(specs, name=str(data.get("name", "")))
    if "dim" in data and int(data["dim"]) != poly.n:
        raise FileFormatError(
            f"declared dim {data['dim']} does not match the normals")
    return poly


def load_polytope(path):
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as err:
        raise FileFormatError(f"cannot read {path}: {err}")
    except json.JSONDecodeError as err:
        raise FileFormatError(f"{path} is not valid JSON: {err}")
    return polytope_from_json(data)


def load_y_table(path, poly, cutoff):
    """Y-table files map 1-based facet indices to correction term lists:
    {"2": [{"m": [0,1,0,0], "q": 0, "t": "1", "c": "-1"}], ...}."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as err:
        raise FileFormatError(f"cannot read {path}: {err}")
    except json.JSONDecodeError as err:
        raise FileFormatError(f"{path} is not valid JSON: {err}")
    table = {i: {} for i in range(poly.num_facets)}
    for key, items in data.items():
        i = int(key) - 1
        if not 0 <= i < poly.num_facets:
            raise FileFormatError(f"facet index {key} out of range")
        terms = {}
        for item in items:
            mono = tuple(int(x) for x in item["m"])
            if len(mono) != poly.num_facets:
                raise FileFormatError(f"monomial {mono} has wrong length")
            scalar = NovScalar.monomial(Fraction(str(item["c"])),
                                        int(item["q"]),
                                        Fraction(str(item["t"])), cutoff)
            cur = terms.get(mono)
            terms[mono] = scalar if cur is None else cur + scalar
        table[i] = terms
    return table


# ----------------------------------------------------------------- rendering

def frac_str(x):
    return str(Fraction(x))


def _exp_str(base, e):
    e = Fraction(e)
    if e == 0:
        return ""
    if e == 1:
        return base
    if e.denominator == 1 and e >= 0:
        return f"{base}^{e}"
    return f"{base}^{{{e}}}"


def nov_monomial_str(d, kappa):
    parts = [s for s in (_exp_str("q", d), _exp_str("t", kappa)) if s]
    return " ".join(parts)


def mono_str(mono, kept=None):
    names = []
    for pos, e in enumerate(mono):
        if not e:
            continue
        index = (kept[pos] if kept is not None else pos) + 1
        names.append(f"x{index}" + (f"^{e}" if e > 1 else ""))
    return "*".join(names) if names else "1"


def qclass_text(qclass, ring):
    """Canonical rendering: terms by (valuation, q-degree, monomial)."""
    atoms = sorted(qpoly_atoms(qclass.coeffs),
                   key=lambda a: (a[2], a[1], a[0]))
    if not atoms:
        return "0" + (" + O(t^{%s})" % frac_str(qclass.cutoff)
                      if qclass.truncated else "")
    bits = []
    for m, d, kappa, c in atoms:
        body = mono_str(m, ring.kept)
        tail = nov_monomial_str(d, kappa)
        if body == "1" and tail:
            head = tail if c == 1 else (
                f"- {tail}" if c == -1 else f"{frac_str(c)} {tail}")
        else:
            coeff = "" if c == 1 else ("- " if c == -1 else f"{frac_str(c)} ")
            head = f"{coeff}{body}" + (f" (x) {tail}" if tail else "")
        bits.append(head)
    text = " + ".join(bits).replace("+ - ", "- ")
    if qclass.truncated:
        text += " + O(t^{%s})" % frac_str(qclass.cutoff)
    return text


def homology_text(report):
    if not report.entries and not report.raw:
        return "0"
    bits = []
    for name, c, d, kappa in report.entries:
        tail = nov_monomial_str(d, kappa)
        coeff = "" if c == 1 else ("- " if c == -1 else f"{frac_str(c)} ")
        body = f"{coeff}{name}"
        bits.append(body + (f" (x) {tail}" if tail else ""))
    for m, d, kappa, c in report.raw:
        tail = nov_monomial_str(-d, -kappa)
        bits.append(f"{frac_str(c)} <mono {m}>" + (f" (x) {tail}" if tail
                                                   else ""))
    text = " + ".join(bits).replace("+ - ", "- ")
    if report.truncated:
        text += " + O(t^{%s})" % frac_str(report.cutoff)
    return text


def qclass_to_json(qclass, ring):
    """Serialization with full-variable monomial exponents, sorted by
    (t-exponent, q-exponent, monomial)."""
    items = []
    for m, d, kappa, c in sorted(qpoly_atoms(qclass.coeffs),
                                 key=lambda a: (a[2], a[1], a[0])):
        full = [0] * ring.polytope.num_facets
        for pos, e in enumerate(m):
            full[ring.kept[pos]] = e
        items.append({"m": full, "q": d, "t": frac_str(kappa),
                      "c": frac_str(c)})
    return {"terms": items, "cutoff": frac_str(qclass.cutoff),
            "truncated": qclass.truncated}


def qclass_from_json(data, qp):
    terms = {}
    for item in data["terms"]:
        mono = tuple(int(x) for x in item["m"])
        key = (mono, int(item["q"]), Fraction(item["t"]))
        terms[key] = terms.get(key, Fraction(0)) + Fraction(item["c"])
    coeffs = _kept_terms(qp, terms)
    if data.get("truncated"):
        coeffs = {m: s.with_truncated(True) for m, s in coeffs.items()}
    return quantum_nf(coeffs, qp)


# ------------------------------------------------------------- presentations

def build_presentation(poly, mode, y_table_path=None, cutoff=None):
    cutoff = Fraction(cutoff) if cutoff is not None else default_cutoff(poly)
    if mode == "nef":
        if y_table_path is None:
            raise FileFormatError("--mode nef needs --y-table FILE")
        table = load_y_table(y_table_path, poly, cutoff)
        return nef_presentation(poly, table, cutoff)
    return fano_presentation(poly, cutoff)


def _kept_terms(qp, terms):
    """Kept-variable form of {(full monomial, d, kappa): coefficient}."""
    return kept_qpoly(qp.ring, [
        (mono, NovScalar.monomial(c, d, kappa, qp.cutoff))
        for (mono, d, kappa), c in terms.items()])


def lift_expression(qp, text):
    parsed = parse_expression(text, qp.polytope.num_facets)
    return quantum_nf(_kept_terms(qp, parsed), qp)


# -------------------------------------------------------------- subcommands

def cmd_validate(args):
    poly = load_polytope(args.file)
    print(f"{poly.name or args.file}: valid Delzant polytope")
    print(f"  dimension {poly.n}, {poly.num_facets} facets, "
          f"{len(poly.vertices)} vertices")
    c = centroid(poly)
    print(f"  centroid ({', '.join(frac_str(x) for x in c)})")
    for vid in range(len(poly.vertices)):
        point = ", ".join(frac_str(x) for x in poly.vertex_point(vid))
        facets = sorted(i + 1 for i in poly.vertex_facets(vid))
        print(f"  vertex ({point}) on facets {facets}")
    return 0


def cmd_cohomology(args):
    poly = load_polytope(args.file)
    ring = build_ring(poly)
    print(f"classical cohomology of {poly.name or args.file}")
    print("  linear relations:")
    for gen in ring.linear_gens:
        bits = []
        for mono, c in sorted(gen.items(), reverse=True):
            i = mono.index(1)
            bits.append(f"{'+' if c > 0 else '-'} "
                        f"{'' if abs(c) == 1 else frac_str(abs(c)) + ' '}"
                        f"x{i + 1}")
        print("    " + " ".join(bits).lstrip("+ "))
    print("  Stanley-Reisner generators:")
    for key in sorted(ring.sr_gens, key=sorted):
        print("    " + "*".join(f"x{i + 1}" for i in sorted(key)))
    kept = ", ".join(f"x{i + 1}" for i in ring.kept)
    print(f"  kept variables after elimination: {kept}")
    print("  standard monomials: "
          + ", ".join(mono_str(m, ring.kept)
                      for m in ring.standard_monomials))
    print(f"  betti numbers: {list(ring.betti)}")
    for k in range(poly.n + 1):
        matrix = ring.pd_matrix(2 * k)
        rows = ["[" + ", ".join(frac_str(x) for x in row) + "]"
                for row in matrix]
        print(f"  pairing deg {2 * k} x deg {2 * (poly.n - k)}: "
              + "; ".join(rows))
    return 0


def cmd_quantum(args):
    poly = load_polytope(args.file)
    qp = build_presentation(poly, args.mode, args.y_table, args.cutoff)
    print(f"quantum presentation ({qp.mode}) of {poly.name or args.file}")
    print(f"  cutoff {frac_str(qp.cutoff)}, hbar {frac_str(qp.hbar)}")
    for p in qp.prims:
        lhs = "*".join(f"x{i + 1}" for i in p.indices)
        correction = QClass(qp.corrections[p.key], qp.cutoff)
        print(f"  {lhs} = {qclass_text(correction, qp.ring)}"
              f"   [c1 {p.beta.c1()}, energy "
              f"{frac_str(p.beta.omega(poly))}]")
    return 0


def cmd_product(args):
    poly = load_polytope(args.file)
    qp = build_presentation(poly, args.mode, args.y_table, args.cutoff)
    a = lift_expression(qp, args.lhs)
    b = lift_expression(qp, args.rhs)
    product = qprod(a, b, qp)
    if args.format == "structured":
        print(json.dumps({"product": qclass_to_json(product, qp.ring)},
                         indent=2))
        return 0
    print(f"cohomology: {qclass_text(product, qp.ring)}")
    try:
        dictionary = build_dictionary(qp)
        names = []
        for z in (a, b):
            rep = to_homology_report(dictionary, z, qp)
            if len(rep.entries) == 1 and not rep.raw:
                name, c, d, kappa = rep.entries[0]
                if c == 1 and d == 0 and kappa == 0:
                    names.append(name)
        rep = to_homology_report(dictionary, product, qp)
        if len(names) == 2:
            print(f"homology: {names[0]} * {names[1]} = {homology_text(rep)}")
        else:
            print(f"homology: {homology_text(rep)}")
    except ToricError as err:
        print(f"homology report unavailable: {err}")
    return 0


def cmd_seidel(args):
    poly = load_polytope(args.file)
    qp = build_presentation(poly, args.mode, args.y_table, args.cutoff)
    xi = parse_xi(args.xi, poly.n)
    element = seidel_element(qp, xi)
    ok, report = verify_leading_term(qp, xi, element=element)
    if args.format == "structured":
        payload = {
            "xi": list(xi),
            "element": qclass_to_json(element.qclass, qp.ring),
            "leading": {
                "f_max": [i + 1 for i in report["f_max"]],
                "m_max": report["m_max"],
                "K_max": frac_str(report["K_max"]),
                "leading_ok": report["leading_ok"],
                "exactness": report["exactness"],
                "exact_ok": report["exact_ok"],
                "assumptions": report["assumptions"],
            },
        }
        print(json.dumps(payload, indent=2))
        return 0
    print(f"S(xi) for xi = {list(xi)} on {poly.name or args.file} "
          f"({qp.mode} mode)")
    print(f"  cohomology: {qclass_text(element.qclass, qp.ring)}")
    try:
        dictionary = build_dictionary(qp)
        rep = to_homology_report(dictionary, element.qclass, qp)
        print(f"  homology:   {homology_text(rep)}")
    except ToricError as err:
        print(f"  homology report unavailable: {err}")
    print(f"  F_max on facets {[i + 1 for i in report['f_max']]}: "
          f"m_max {report['m_max']}, K_max {frac_str(report['K_max'])}")
    print(f"  leading term check: {'ok' if report['leading_ok'] else 'MISMATCH'}")
    if report["exactness"]:
        state = "ok" if report["exact_ok"] else "MISMATCH"
        print(f"  exactness ({report['exactness']}): {state}")
        for note in report["assumptions"]:
            print(f"    assumption: {note}")
    return 0


def cmd_fixed(args):
    poly = load_polytope(args.file)
    xi = parse_xi(args.xi, poly.n)
    comps = fixed_components(poly, xi)
    print(f"fixed components of xi = {list(xi)} on {poly.name or args.file}")
    for c in comps:
        face = sorted(i + 1 for i in c.facets)
        weights = {i + 1: w for i, w in sorted(c.weights.items())}
        print(f"  face {face}: K = {frac_str(c.K)}, weights {weights}, "
              f"m = {c.m}, index {c.index}, "
              f"{'semifree' if c.semifree else 'not semifree'}")
    print("  isotropy orders on non-fixed faces:")
    for key in sorted(poly.faces, key=lambda s: (len(s), sorted(s))):
        face = poly.faces[key]
        order = isotropy_order(poly, xi, face)
        if order is FIXED or face.dim == poly.n:
            continue
        if order > 1:
            label = sorted(i + 1 for i in key)
            print(f"    face {label}: Z/{order}")
    print(f"  global isotropy bound: {global_isotropy_bound(poly, xi)}")
    return 0


def cmd_analyze(args):
    poly = load_polytope(args.file)
    xi = parse_xi(args.xi, poly.n)
    qp = None
    if not args.no_quantum:
        qp = build_presentation(normalize(poly), args.mode, args.y_table,
                                args.cutoff)
    report = analyze(poly, xi, qp)
    if args.format == "structured":
        payload = {
            "verdict": report.verdict,
            "normalized": report.normalized,
            "triggered": report.triggered_rules(),
            "findings": [
                {"rule": f.rule, "triggered": f.triggered,
                 "definitive": f.definitive,
                 "assumptions": list(f.assumptions),
                 "certificate": json.loads(json.dumps(
                     f.certificate, default=str))}
                for f in report.findings],
        }
        print(json.dumps(payload, indent=2))
        return 0
    verdict = report.verdict.upper()
    rules = ", ".join(report.triggered_rules())
    print(f"{verdict}" + (f" [{rules}]" if rules else ""))
    for f in report.findings:
        mark = "triggered" if f.triggered else "quiet"
        kind = "definitive" if f.definitive else "conditional"
        print(f"  {f.rule}: {mark} ({kind})")
        for key, value in f.certificate.items():
            print(f"      {key}: {_plain(value)}")
        for note in f.assumptions:
            print(f"      assumption: {note}")
    return 0


def _plain(value):
    """Render certificate data with rationals as p/q strings."""
    if isinstance(value, Fraction):
        return frac_str(value)
    if isinstance(value, dict):
        return {_plain(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value


def cmd_verify(args):
    poly = load_polytope(args.file)
    qp = build_presentation(poly, args.mode, args.y_table, args.cutoff)
    report = verify_all(poly, qp, trials=args.trials, seed=args.seed)
    if args.format == "structured":
        print(json.dumps(json.loads(json.dumps(report, default=str)),
                         indent=2))
    else:
        print(f"oracle suite on {poly.name or args.file} "
              f"({qp.mode} mode, seed {report['seed']})")
        for key, value in report.items():
            if key in ("seed", "ok"):
                continue
            status = value if isinstance(value, bool) else not value
            name = key.replace("_", " ")
            print(f"  {name}: {'ok' if status else f'FAILED {value}'}")
        print("all checks passed" if report["ok"] else "FAILURES FOUND")
    return 0 if report["ok"] else 1


def cmd_example(args):
    poly = bundled.build(args.name, args.mu)
    data = polytope_to_json(poly)
    text = json.dumps(data, indent=2)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text + "\n")
        print(f"wrote {args.output}")
    else:
        print(text)
    return 0


def parse_xi(text, n):
    try:
        xi = tuple(int(x) for x in text.split(","))
    except ValueError:
        raise FileFormatError(f"--xi needs comma-separated integers: {text}")
    if len(xi) != n:
        raise FileFormatError(f"--xi needs {n} components")
    return xi


# ------------------------------------------------------------------- driver

def positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1: {text}")
    return value


def positive_rational(text):
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational number: {text}")
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive: {text}")
    return value


def _add_presentation_flags(sub):
    sub.add_argument("--mode", choices=("fano", "nef"), default="fano")
    sub.add_argument("--y-table", default=None, metavar="FILE")
    sub.add_argument("--cutoff", type=positive_rational, default=None,
                     metavar="RAT")


def build_arg_parser():
    parser = argparse.ArgumentParser(
        prog="toricqh",
        description="Exact quantum cohomology of toric manifolds from "
                    "moment polytopes")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("validate", help="check a polytope file")
    p.add_argument("file")
    p.set_defaults(func=cmd_validate)

    p = subs.add_parser("cohomology", help="classical ring data")
    p.add_argument("file")
    p.set_defaults(func=cmd_cohomology)

    p = subs.add_parser("quantum", help="quantum relations")
    p.add_argument("file")
    _add_presentation_flags(p)
    p.set_defaults(func=cmd_quantum)

    p = subs.add_parser("product", help="quantum product of two expressions")
    p.add_argument("file")
    p.add_argument("lhs")
    p.add_argument("rhs")
    _add_presentation_flags(p)
    p.add_argument("--format", choices=("text", "structured"),
                   default="text")
    p.set_defaults(func=cmd_product)

    p = subs.add_parser("seidel", help="Seidel element of a circle")
    p.add_argument("file")
    p.add_argument("--xi", required=True)
    _add_presentation_flags(p)
    p.add_argument("--format", choices=("text", "structured"),
                   default="text")
    p.set_defaults(func=cmd_seidel)

    p = subs.add_parser("fixed", help="fixed components and isotropy")
    p.add_argument("file")
    p.add_argument("--xi", required=True)
    p.set_defaults(func=cmd_fixed)

    p = subs.add_parser("analyze", help="obstruction battery")
    p.add_argument("file")
    p.add_argument("--xi", required=True)
    p.add_argument("--no-quantum", action="store_true",
                   help="skip the Seidel rule")
    _add_presentation_flags(p)
    p.add_argument("--format", choices=("text", "structured"),
                   default="text")
    p.set_defaults(func=cmd_analyze)

    p = subs.add_parser("verify", help="run the oracle suite")
    p.add_argument("file")
    _add_presentation_flags(p)
    p.add_argument("--trials", type=positive_int, default=20)
    p.add_argument("--seed", type=int, default=7193)
    p.add_argument("--format", choices=("text", "structured"),
                   default="text")
    p.set_defaults(func=cmd_verify)

    p = subs.add_parser("example", help="emit a bundled polytope")
    p.add_argument("name", choices=sorted(bundled.BUILDERS))
    p.add_argument("--mu", default=None, metavar="RAT")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_example)

    return parser


def main(argv=None):
    parser = build_arg_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ToricError as err:
        print(f"error: {type(err).__name__}: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
