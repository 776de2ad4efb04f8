"""The cases that test modules share: the corpora of polytopes and
presentations, the circles and monomials they are asked about, and the
typed forms in which a test compares what two calls gave.  A test module
imports shared cases from here and references from `reference`, and
imports nothing from another test module."""

import dataclasses
import functools
import itertools
from fractions import Fraction

from hypothesis import strategies as st

from toricqh import examples, linalg
from toricqh.errors import ToricError
from toricqh.novikov import NovScalar
from toricqh.polytope import normalize, validate_delzant
from toricqh.quantum import (
    QClass,
    default_cutoff,
    fano_presentation,
    lift,
    nef_presentation,
    qadd,
)
from toricqh.seidel import to_homology_report

F = Fraction


# ------------------------------------------------------------------- polytopes

def simplex(n):
    """CP^n: the standard simplex with every support 1/4, mean normalized."""
    specs = [(tuple(-1 if j == i else 0 for j in range(n)), F(1, 4))
             for i in range(n)]
    specs.append(((1,) * n, F(1, 4)))
    return normalize(validate_delzant(specs, name=f"cp{n}"))


def box(n):
    """The box with support 1/2 + i/7 on both facets of axis i = 1..n,
    mean normalized."""
    specs = [(tuple(s if j == i else 0 for j in range(n)),
              F(1, 2) + F(i + 1, 7))
             for i in range(n) for s in (1, -1)]
    return normalize(validate_delzant(specs, name=f"cube{n}"))


# a smooth 12-gon: the square with its four corners blown up twice each
GON12 = [(ray, F(s)) for ray, s in zip(
    ((1, 0), (2, 1), (1, 1), (1, 2), (0, 1), (-1, 1), (-1, 0), (-2, -1),
     (-1, -1), (-1, -2), (0, -1), (1, -1)),
    ("3", "13/2", "4", "13/2", "3", "5", "3", "13/2", "4", "13/2", "3", "5"))]


@st.composite
def smooth_polytopes(draw):
    """Facet data of a Delzant polytope: a box or a simplex with rational
    supports, blown up at up to two faces, moved by a unimodular map,
    translated and shuffled.

    A face F_I of the n facets at a vertex is blown up by the facet
    <sum_I eta_i, .> <= sum_I support_i - eps, with eps below the drop of
    that functional from F_I to every other vertex, so that the cut meets
    only the edges leaving F_I."""
    n = draw(st.sampled_from((2, 3, 4, 1)))
    rational = st.builds(F, st.integers(-6, 6), st.integers(1, 4))
    size = st.builds(F, st.integers(1, 6), st.integers(1, 4))
    units = [tuple(int(j == i) for j in range(n)) for i in range(n)]
    low = [draw(rational) for _ in range(n)]
    if draw(st.booleans()):  # the box low <= x <= low + size
        specs = [spec for i, e in enumerate(units) for spec in (
            (e, low[i] + draw(size)), (tuple(-x for x in e), -low[i]))]
    else:  # the simplex low <= x, sum(x) <= sum(low) + size
        specs = [(tuple(-x for x in e), -c) for e, c in zip(units, low)]
        specs.append(((1,) * n, sum(low) + draw(size)))
    for _ in range(draw(st.integers(0, 2)) if n > 1 else 0):
        poly = validate_delzant(specs)
        vid = draw(st.integers(0, len(poly.vertices) - 1))
        face = draw(st.lists(st.sampled_from(sorted(poly.vertex_facets(vid))),
                             min_size=2, max_size=n, unique=True))
        normal = tuple(map(sum, zip(*(poly.normal(i) for i in face))))
        top = sum(poly.support(i) for i in face)
        drop = min(top - linalg.vec_dot(normal, point)
                   for point, active in poly.vertices
                   if not active.issuperset(face))
        specs.append((normal, top - drop * F(draw(st.integers(1, 4)), 5)))
    for _ in range(draw(st.integers(0, 3)) if n > 1 else 0):
        i, j = draw(st.permutations(range(n)))[:2]
        c = draw(st.sampled_from((-2, -1, 1, 2)))
        specs = [(tuple(x + c * normal[j] if k == i else x
                        for k, x in enumerate(normal)), s)
                 for normal, s in specs]  # eta -> (I + c E_ij) eta
    shift = [draw(rational) for _ in range(n)]
    specs = [(normal, s + linalg.vec_dot(normal, shift))
             for normal, s in specs]
    return draw(st.permutations(specs))


def hirz_y_table(cutoff, mu=F(2)):
    """Corrections for the projectivized degree-2 bundle: Y1 = x1,
    Y2 = x2/(1 - t^{mu-1}), Y3 = Y4 = x3 - x2 t^{mu-1}/(1 - t^{mu-1})."""
    one = NovScalar.one(cutoff)
    h = one - NovScalar.monomial(1, 0, mu - 1, cutoff)
    g = h.invert()  # 1 + t^{mu-1} + ...
    series = g - one  # t^{mu-1} + t^{2(mu-1)} + ...
    x2 = (0, 1, 0, 0)
    x3 = (0, 0, 1, 0)
    x4 = (0, 0, 0, 1)
    minus = NovScalar.monomial(-1, 0, 0, cutoff)
    tmg = NovScalar.monomial(-1, 0, mu - 1, cutoff) * g  # -t^{mu-1} g
    return {0: {}, 1: {x2: series}, 2: {x2: tmg},
            3: {x3: one, x4: minus, x2: tmg}}


def _presented():
    """Name -> (polytope, presentation builder taking a cutoff)."""
    out = {name: examples.build(name)
           for name in ("s2", "cp2", "blowup_cp2", "s2xs2")}
    out.update(cp3=simplex(3), cp4=simplex(4), cube3=box(3), cube4=box(4))
    corpus = {name: (poly, fano_presentation) for name, poly in out.items()}
    corpus["hirzebruch2 nef"] = (
        examples.hirzebruch2(F(2)),
        lambda poly, c: nef_presentation(poly, hirz_y_table(c), cutoff=c))
    return corpus


PRESENTED = _presented()
FANO = {name: poly for name, (poly, build) in PRESENTED.items()
        if build is fano_presentation}
GON12_POLY = validate_delzant(GON12, name="gon12")
# the Fano corpus, hirzebruch2 and the 12-gon, each a polytope alone
POLYTOPES = dict(FANO, hirzebruch2=examples.hirzebruch2(F(2)),
                 gon12=GON12_POLY)

# hirzebruch2 NEF has no presentation at cutoff 1/2 (BadCorrectionValuation:
# a relation correction lies wholly above it), so it is taken at 2 instead
CUTOFFS = {name: (None, F(1), F(2) if "nef" in name else F(1, 2))
           for name in PRESENTED}


@functools.lru_cache(maxsize=None)
def presented(name, cutoff=None):
    """One shared presentation per corpus entry and cutoff (None: default);
    a test that replaces corrections builds its own."""
    poly, present = PRESENTED[name]
    return present(poly, default_cutoff(poly) if cutoff is None else cutoff)


def presentation(name, fraction=1):
    poly, present = PRESENTED[name]
    return present(poly, default_cutoff(poly) * fraction)


def hirzebruch2_nef(cutoff):
    poly = examples.hirzebruch2(F(2))
    table_cutoff = default_cutoff(poly) if cutoff is None else cutoff
    return nef_presentation(poly, hirz_y_table(table_cutoff), cutoff=cutoff)


# ---------------------------------------------- circles, monomials and classes

def box_vectors(n, r=2):
    return [xi for xi in itertools.product(range(-r, r + 1), repeat=n)
            if any(xi)]


def facet_monomials(N, top):
    """Every exponent tuple of width N and degree at most `top`."""
    return [m for m in itertools.product(range(top + 1), repeat=N)
            if sum(m) <= top]


# (coefficient, q-exponent, t-exponent) of the Novikov monomial factors
NOVIKOV = [(1, 0, F(0)), (F(-3, 2), 1, F(-1, 2)), (2, -1, F(2, 3))]


def monomial_class(qp, mono, i):
    c, d, kappa = NOVIKOV[i % len(NOVIKOV)]
    return QClass({mono: NovScalar.monomial(c, d, kappa, qp.cutoff)},
                  qp.cutoff)


def fexpr(qp, powers, d=0, kappa=0, coeff=1):
    full = [0] * qp.polytope.num_facets
    for i, e in powers.items():
        full[i] = e
    return lift(qp, {(tuple(full), d, kappa): coeff})


def point_and_facet(qp, dictionary):
    """The point lift plus the first facet class: its report names both."""
    facet = QClass({m: NovScalar.monomial(c, 0, 0, qp.cutoff)
                    for m, c in dictionary.facet_images[0].items()},
                   qp.cutoff)
    z = qadd(dictionary.point_lift, facet)
    names = {e[0] for e in to_homology_report(dictionary, z, qp).entries}
    assert names == {"p", dictionary.labels[0]}
    return z


# ------------------------------------------------------------ what a call gave

def exact(value):
    """repr, so that the types and the order of the terms count too."""
    return repr(value)


def snapshot(qclass):
    """Everything a class says: each scalar's terms, cutoff and flag."""
    return qclass.cutoff, {m: (s.terms, s.cutoff, s.truncated)
                           for m, s in qclass.coeffs.items()}


def typed_class(qclass):
    """`snapshot` plus the type of every exponent, coefficient and cutoff."""
    return snapshot(qclass), type(qclass.cutoff), {
        m: (type(s.cutoff), sorted(((d, k), (type(d), type(k), type(c)))
                                   for (d, k), c in s.terms.items()))
        for m, s in qclass.coeffs.items()}


def class_outcome(qclass):
    return snapshot(qclass), qclass.truncated


def typed(value):
    """A value with the type of every leaf, so that 1 and Fraction(1), or a
    tuple and a list, read as different."""
    if isinstance(value, dict):
        return ("dict", [(typed(k), typed(v)) for k, v in value.items()])
    if isinstance(value, frozenset):
        # `<` on sets is inclusion, not a total order: sort by a total key
        return ("frozenset", sorted(map(typed, value), key=repr))
    if isinstance(value, (list, tuple)):
        return (type(value).__name__, [typed(v) for v in value])
    if isinstance(value, NovScalar):
        return ("scalar", typed(value.terms), typed(value.cutoff),
                value.truncated)
    if isinstance(value, QClass):
        return ("class", typed(value.coeffs), typed(value.cutoff))
    if dataclasses.is_dataclass(value):
        return (type(value).__name__,
                [(f.name, typed(getattr(value, f.name)))
                 for f in dataclasses.fields(value)])
    return (type(value).__name__, value)


def outcome(fn, *args, **kwargs):
    """A call's typed value, or the type and message of its domain error."""
    try:
        return typed(fn(*args, **kwargs))
    except ToricError as err:
        return ("error", type(err).__name__, str(err))


def value_or_error(compute):
    """compute()'s value, or the name of its domain error's type."""
    try:
        return compute()
    except ToricError as err:
        return type(err).__name__
