"""Command-line front end: file formats, bundled examples, reports.

Every value read from a file or a flag is an int or a "p/q" rational; no
floating point appears anywhere.  Domain errors, malformed files among them,
exit with status 1 and a structured message; usage errors exit with 2.
"""

import argparse
import json
import os
import re
import sys
from fractions import Fraction

from . import examples as bundled
from .actions import FIXED, CircleTable
from .cohomology import build_ring
from .errors import FileFormatError, ToricError, TooManyDigits
from .exprparse import parse_expression
from .novikov import NovScalar, check_cutoff
from .obstructions import analyze
from .oracle import verify_all
from .polytope import centroid, validate_delzant
from .quantum import (
    QClass,
    default_cutoff,
    fano_presentation,
    lift,
    nef_presentation,
    qpoly_atoms,
    qprod,
)
from .seidel import (
    build_dictionary,
    seidel_element,
    to_homology_report,
    verify_leading_term,
)


# ------------------------------------------------------------------ file I/O

# every value read from a file or a flag goes through _integer or _rational
_INTEGER = re.compile(r"[+-]?[0-9]+")
_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def _integer(value, what):
    """A JSON int that is not a bool, or an integral string."""
    return _number(value, _INTEGER, int, what, "an integer")


def _rational(value, what):
    """A JSON int that is not a bool, or a "p" or "p/q" string, q != 0."""
    return _number(value, _RATIONAL, Fraction, what,
                   'an int or a "p/q" string with q != 0')


def _number(value, pattern, parse, what, kind):
    if type(value) is int or (isinstance(value, str)
                              and pattern.fullmatch(value)):
        try:
            return parse(value)
        except (ValueError, ZeroDivisionError):  # q = 0, or too many digits
            pass
    raise FileFormatError(f"{what} must be {kind}, not {value!r}")


def _expect(value, kind, what):
    """value, if it is a JSON list, object (dict), string or bool."""
    if not isinstance(value, kind):
        raise FileFormatError(
            f"{what} must be a JSON {kind.__name__}, not {value!r}")
    return value


def _read_json(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as err:
        raise FileFormatError(f"cannot read {path}: {err}")
    except ValueError as err:  # bad JSON, bad UTF-8, an oversized integer
        raise FileFormatError(f"{path} is not valid JSON: {err}")
    except RecursionError:
        raise FileFormatError(f"{path} is nested too deeply") from None


def polytope_to_json(poly):
    return {
        "name": poly.name,
        "dim": poly.n,
        "facets": [
            {"normal": list(f.normal), "support": frac_str(f.support),
             **({"label": f.label} if f.label else {})}
            for f in poly.facets],
    }


def polytope_from_json(data):
    data = _expect(data, dict, "a polytope file")
    specs = []
    for k, entry in enumerate(_expect(data.get("facets"), list, "'facets'")):
        what = f"facet {k + 1}"
        entry = _expect(entry, dict, what)
        normal = tuple(_integer(x, f"{what} normal entry")
                       for x in _expect(entry.get("normal"), list,
                                      f"{what} normal"))
        specs.append((normal,
                       _rational(entry.get("support"), f"{what} support"),
                       _expect(entry.get("label", ""), str, f"{what} label")))
    dim = _integer(data["dim"], "dim") if "dim" in data else None
    poly = validate_delzant(specs,
                            name=_expect(data.get("name", ""), str, "name"))
    if dim is not None and dim != poly.n:
        raise FileFormatError(f"declared dim {dim} does not match the normals")
    return poly


def load_polytope(path):
    return polytope_from_json(_read_json(path))


def _term(item, num_facets, what):
    """One {"m": [N exponents >= 0], "q": int, "t": rational, "c":
    rational} term, as (monomial, q, t, c)."""
    item = _expect(item, dict, what)
    if set(item) != {"m", "q", "t", "c"}:
        raise FileFormatError(f"{what} needs exactly the keys m, q, t, c")
    mono = tuple(_integer(x, f"{what} exponent")
                 for x in _expect(item["m"], list, f"{what} m"))
    if len(mono) != num_facets or any(e < 0 for e in mono):
        raise FileFormatError(f"{what} m must hold {num_facets} exponents "
                              f">= 0, not {list(mono)}")
    return (mono, _integer(item["q"], f"{what} q"),
            _rational(item["t"], f"{what} t"),
            _rational(item["c"], f"{what} c"))


def load_y_table(path, poly, cutoff):
    """Y-table files map 1-based facet indices to correction term lists:
    {"2": [{"m": [0,1,0,0], "q": 0, "t": "1", "c": "-1"}], ...}.  A facet
    without an entry stays out of the table, for nef_presentation to
    report."""
    data = _expect(_read_json(path), dict, "a Y-table file")
    index = {str(i + 1): i for i in range(poly.num_facets)}
    table = {}
    for key, items in data.items():
        if key not in index:
            raise FileFormatError(
                f"Y-table key {key!r} is not a facet index "
                f"1..{poly.num_facets}")
        terms = {}
        for item in _expect(items, list, f"Y-table entry {key}"):
            mono, d, kappa, c = _term(item, poly.num_facets,
                                      f"a term of Y-table entry {key}")
            terms[mono] = terms.get(mono, NovScalar.zero(cutoff)) \
                + NovScalar.monomial(c, d, kappa, cutoff)
        table[index[key]] = terms
    return table


# ----------------------------------------------------------------- rendering

def to_plain(value):
    """Report data made JSON-ready: Fractions become "p/q" strings, tuples
    and lists become lists, dicts keep their keys, and anything else is
    returned unchanged.  Every int and Fraction passes `frac_str`."""
    kind = type(value)
    if kind is Fraction:
        return frac_str(value)
    if kind is int:  # which JSON writes as frac_str does
        frac_str(value)
    if kind is dict:
        return {k: to_plain(v) for k, v in value.items()}
    if kind is list or kind is tuple:
        return [to_plain(v) for v in value]
    return value


def print_structured(report):
    """The one writer of structured (JSON) reports."""
    print(json.dumps(to_plain(report), indent=2))


def frac_str(x):
    """x as "p" or "p/q", the one conversion of every number printed;
    TooManyDigits past Python's limit on the digits of an int as text."""
    try:
        return str(x if type(x) is int else Fraction(x))
    except ValueError:
        raise TooManyDigits(f"a number in the answer has more than "
                            f"{sys.get_int_max_str_digits()} digits") from None


def _exp_str(base, e):
    e = Fraction(e)
    if e == 0:
        return ""
    if e == 1:
        return base
    if e.denominator == 1 and e >= 0:
        return f"{base}^{frac_str(e)}"
    return f"{base}^{{{frac_str(e)}}}"


def nov_monomial_str(d, kappa):
    parts = [s for s in (_exp_str("q", d), _exp_str("t", kappa)) if s]
    return " ".join(parts)


def mono_str(mono, kept):
    names = []
    for pos, e in enumerate(mono):
        if not e:
            continue
        names.append(f"x{kept[pos] + 1}" + (f"^{e}" if e > 1 else ""))
    return "*".join(names) if names else "1"


def _coeff_str(c):
    return "" if c == 1 else ("- " if c == -1 else f"{frac_str(c)} ")


def _sum_str(bits, truncated, cutoff):
    text = " + ".join(bits).replace("+ - ", "- ")
    if truncated:
        text += " + O(t^{%s})" % frac_str(cutoff)
    return text


def qclass_text(qclass, ring):
    """Canonical rendering: terms by (valuation, q-degree, monomial)."""
    bits = []
    for m, d, kappa, c in sorted(qpoly_atoms(qclass.coeffs),
                                 key=lambda a: (a[2], a[1], a[0])):
        body = mono_str(m, ring.kept)
        tail = nov_monomial_str(d, kappa)
        if body == "1" and tail:
            bits.append(_coeff_str(c) + tail)
        else:
            bits.append(_coeff_str(c) + body
                        + (f" (x) {tail}" if tail else ""))
    return _sum_str(bits or ["0"], qclass.truncated, qclass.cutoff)


def homology_text(report):
    if not report.entries and not report.raw:
        return "0"
    bits = []
    for name, c, d, kappa in report.entries:
        tail = nov_monomial_str(d, kappa)
        bits.append(_coeff_str(c) + name + (f" (x) {tail}" if tail else ""))
    for m, d, kappa, c in report.raw:
        tail = nov_monomial_str(-d, -kappa)
        bits.append(f"{frac_str(c)} <mono {m}>" + (f" (x) {tail}" if tail
                                                   else ""))
    return _sum_str(bits, report.truncated, report.cutoff)


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
    data = _expect(data, dict, "a class")
    terms = {}
    for item in _expect(data.get("terms"), list, "'terms'"):
        mono, d, kappa, c = _term(item, qp.polytope.num_facets, "a term")
        terms[mono, d, kappa] = terms.get((mono, d, kappa), Fraction(0)) + c
    return lift(qp, terms, _expect(data.get("truncated", False), bool,
                                   "'truncated'"))


# ------------------------------------------------------------- presentations

def build_presentation(poly, mode, y_table_path=None, cutoff=None):
    if mode == "nef":
        if y_table_path is None:
            raise FileFormatError("--mode nef needs --y-table FILE")
        cutoff = check_cutoff(cutoff) if cutoff is not None else \
            default_cutoff(poly)
        table = load_y_table(y_table_path, poly, cutoff)
        return nef_presentation(poly, table, cutoff)
    return fano_presentation(poly, cutoff)


def lift_expression(qp, text):
    return lift(qp, parse_expression(text, qp.polytope.num_facets))


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
    for p in qp.ring.prims:
        lhs = "*".join(f"x{i + 1}" for i in p.indices)
        correction = QClass(qp.corrections[p.key], qp.cutoff)
        print(f"  {lhs} = {qclass_text(correction, qp.ring)}"
              f"   [c1 {frac_str(p.beta.c1())}, energy "
              f"{frac_str(p.energy)}]")
    return 0


def cmd_product(args):
    poly = load_polytope(args.file)
    qp = build_presentation(poly, args.mode, args.y_table, args.cutoff)
    a = lift_expression(qp, args.lhs)
    b = lift_expression(qp, args.rhs)
    product = qprod(a, b, qp)
    if args.format == "structured":
        print_structured({"product": qclass_to_json(product, qp.ring)})
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
    xi = check_xi_length(args.xi, poly.n)
    element = seidel_element(qp, xi)
    ok, report = verify_leading_term(qp, xi, element=element)
    if args.format == "structured":
        leading = {key: report[key] for key in (
            "f_max", "m_max", "K_max", "leading_ok", "exactness", "exact_ok",
            "assumptions")}
        leading["f_max"] = [i + 1 for i in report["f_max"]]
        print_structured({"xi": xi,
                          "element": qclass_to_json(element.qclass, qp.ring),
                          "leading": leading})
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
          f"m_max {frac_str(report['m_max'])}, "
          f"K_max {frac_str(report['K_max'])}")
    print(f"  leading term check: {'ok' if report['leading_ok'] else 'MISMATCH'}")
    if report["exactness"]:
        exact_ok = report["exact_ok"]
        state = "not checked" if exact_ok is None else \
            "ok" if exact_ok else "MISMATCH"
        print(f"  exactness ({report['exactness']}): {state}")
        for note in report["assumptions"]:
            print(f"    assumption: {note}")
    return 0


def cmd_fixed(args):
    poly = load_polytope(args.file)
    xi = check_xi_length(args.xi, poly.n)
    circle = CircleTable(poly, xi)
    print(f"fixed components of xi = {list(xi)} on {poly.name or args.file}")
    for c in circle.components:
        face = sorted(i + 1 for i in c.facets)
        weights = to_plain({i + 1: w for i, w in sorted(c.weights.items())})
        print(f"  face {face}: K = {frac_str(c.K)}, weights {weights}, "
              f"m = {frac_str(c.m)}, index {c.index}, "
              f"{'semifree' if c.semifree else 'not semifree'}")
    print("  isotropy orders on non-fixed faces:")
    for key in sorted(poly.faces, key=lambda s: (len(s), sorted(s))):
        order = circle.orders[key]
        if order is FIXED or not key:
            continue
        if order > 1:
            label = sorted(i + 1 for i in key)
            print(f"    face {label}: Z/{frac_str(order)}")
    print(f"  global isotropy bound: {frac_str(circle.isotropy_bound)}")
    return 0


def cmd_analyze(args):
    poly = load_polytope(args.file)
    xi = check_xi_length(args.xi, poly.n)
    qp = None
    if not args.no_quantum:
        qp = build_presentation(poly.normalized, args.mode, args.y_table,
                                args.cutoff)
    report = analyze(poly, xi, qp)
    if args.format == "structured":
        print_structured({
            "verdict": report.verdict,
            "normalized": report.normalized,
            "triggered": report.triggered_rules(),
            "findings": [
                {"rule": f.rule, "triggered": f.triggered,
                 "definitive": f.definitive, "assumptions": f.assumptions,
                 "certificate": f.certificate}
                for f in report.findings],
        })
        return 0
    verdict = report.verdict.upper()
    rules = ", ".join(report.triggered_rules())
    print(f"{verdict}" + (f" [{rules}]" if rules else ""))
    for f in report.findings:
        mark = "triggered" if f.triggered else "quiet"
        kind = "definitive" if f.definitive else "conditional"
        print(f"  {f.rule}: {mark} ({kind})")
        for key, value in f.certificate.items():
            print(f"      {key}: {to_plain(value)}")
        for note in f.assumptions:
            print(f"      assumption: {note}")
    return 0


def cmd_verify(args):
    poly = load_polytope(args.file)
    qp = build_presentation(poly, args.mode, args.y_table, args.cutoff)
    report = verify_all(poly, qp, trials=args.trials, seed=args.seed)
    if args.format == "structured":
        print_structured(report)
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
    try:
        poly = bundled.build(args.name, args.mu)
    except FileFormatError as err:  # --mu outside the example's range
        args.usage_error(str(err))
    data = polytope_to_json(poly)
    if args.output:
        try:
            with open(args.output, "w") as fh:
                fh.write(json.dumps(data, indent=2) + "\n")
        except OSError as err:
            raise FileFormatError(f"cannot write {args.output}: {err}")
        print(f"wrote {args.output}")
    else:
        print_structured(data)
    return 0


def check_xi_length(xi, n):
    if len(xi) != n:
        raise FileFormatError(f"--xi needs {n} components")
    return xi


# ------------------------------------------------------------------- driver

def _flag_type(reader, positive=False):
    """An argparse type that reads a flag value with `reader`; a malformed
    or, if asked, non-positive value is a usage error."""
    def read(text):
        try:
            value = reader(text, "the value")
        except FileFormatError as err:
            raise argparse.ArgumentTypeError(str(err))
        if positive and value <= 0:
            raise argparse.ArgumentTypeError(f"must be positive: {text}")
        return value
    return read


def _integers(text, what):
    """Comma-separated integers."""
    return tuple(_integer(x.strip(), f"each component of {what}")
                 for x in text.split(","))


integer = _flag_type(_integer)
integers = _flag_type(_integers)
positive_int = _flag_type(_integer, positive=True)
positive_rational = _flag_type(_rational, positive=True)


def _arg(*flags, **kwargs):
    return flags, kwargs


_FILE = _arg("file")
_XI = _arg("--xi", type=integers, required=True)
_FORMAT = _arg("--format", choices=("text", "structured"), default="text")
_PRESENTATION = (
    _arg("--mode", choices=("fano", "nef"), default="fano"),
    _arg("--y-table", default=None, metavar="FILE"),
    _arg("--cutoff", type=positive_rational, default=None, metavar="RAT"))

# name -> (help, handler, argument specs), in the order of the help text
COMMANDS = {
    "validate": ("check a polytope file", cmd_validate, (_FILE,)),
    "cohomology": ("classical ring data", cmd_cohomology, (_FILE,)),
    "quantum": ("quantum relations", cmd_quantum, (_FILE, *_PRESENTATION)),
    "product": ("quantum product of two expressions", cmd_product,
                (_FILE, _arg("lhs"), _arg("rhs"), *_PRESENTATION, _FORMAT)),
    "seidel": ("Seidel element of a circle", cmd_seidel,
               (_FILE, _XI, *_PRESENTATION, _FORMAT)),
    "fixed": ("fixed components and isotropy", cmd_fixed, (_FILE, _XI)),
    "analyze": ("obstruction battery", cmd_analyze,
                (_FILE, _XI, _arg("--no-quantum", action="store_true",
                                  help="skip the Seidel rule"),
                 *_PRESENTATION, _FORMAT)),
    "verify": ("run the oracle suite", cmd_verify,
               (_FILE, *_PRESENTATION,
                _arg("--trials", type=positive_int, default=20),
                _arg("--seed", type=integer, default=7193), _FORMAT)),
    "example": ("emit a bundled polytope", cmd_example,
                (_arg("name", choices=sorted(bundled.BUILDERS)),
                 _arg("--mu", type=positive_rational, default=None,
                      metavar="RAT"),
                 _arg("-o", "--output", default=None))),
}


def _command_arguments(parser, name):
    """Give `parser` the arguments and defaults of COMMANDS[name]."""
    _, handler, specs = COMMANDS[name]
    for flags, kwargs in specs:
        parser.add_argument(*flags, **kwargs)
    parser.set_defaults(command=name, func=handler, usage_error=parser.error)
    return parser


def build_arg_parser():
    """The toricqh parser with a sub-parser for every entry of COMMANDS."""
    parser = argparse.ArgumentParser(
        prog="toricqh",
        description="Exact quantum cohomology of toric manifolds from "
                    "moment polytopes")
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _, _) in COMMANDS.items():
        _command_arguments(subs.add_parser(name, help=help_text), name)
    return parser


def command_parser(name):
    """The parser of COMMANDS[name] alone.  It has the prog of the full
    tree's sub-parser for `name`, so it parses and prints as that does."""
    return _command_arguments(
        argparse.ArgumentParser(prog=f"toricqh {name}"), name)


def parse_command_line(argv):
    """The arguments as the full tree's parse_args gives them.  A named
    command is parsed by command_parser alone; the full tree parses only
    when no command is named (help, an unknown command or a leading
    option) or when arguments are left over, for its usage line."""
    if argv and argv[0] in COMMANDS:
        args, extra = command_parser(argv[0]).parse_known_args(argv[1:])
        if not extra:
            return args
    return build_arg_parser().parse_args(argv)


def main(argv=None):
    args = parse_command_line(sys.argv[1:] if argv is None else argv)
    try:
        if getattr(args, "y_table", None) is not None and args.mode != "nef":
            raise FileFormatError("--y-table FILE needs --mode nef")
        if getattr(args, "no_quantum", False) and args.mode == "nef":
            raise FileFormatError("--mode nef has no effect with --no-quantum")
        if getattr(args, "no_quantum", False) and args.cutoff is not None:
            raise FileFormatError("--cutoff has no effect with --no-quantum")
        status = args.func(args)
        sys.stdout.flush()
        return status
    except ToricError as err:
        print(f"error: {type(err).__name__}: {err}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # the reader is gone: what stdout still holds goes to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
