"""Strata walked on the polytope's face lattice table, and the battery
comparing fixed components by their integer levels, against the former
code.

`DelzantPolytope.face_lattice` holds each face's immediate subfaces and
the face keys in `sorted` order, read off the keys alone and built on the
first stratum; `actions._stratum` walks it.  `CircleTable.components`
sorts on the integer level at each component's first vertex, and S2, T2
and C compare levels, making a Fraction only for a certificate or a
message.  The references are `FormerCircleTable`, whose strata are
`former_stratum`'s, and the former rules, which compared K as Fractions,
on the circles of the battery benchmark, the bundled examples and drawn
polytopes.
"""

import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cases import GON12_POLY, box, box_vectors, outcome, simplex, \
    smooth_polytopes
from reference import (
    FormerCircleTable,
    former_rule_c,
    former_rule_p6,
    former_rule_s2,
    former_rule_t2,
)
from toricqh import examples, polytope
from toricqh.actions import (
    CircleTable,
    _stratum,
    fixed_components,
    isotropy_components,
)
from toricqh.cli import main
from toricqh.cohomology import build_ring
from toricqh.errors import StratumNotClosed
from toricqh.obstructions import (
    _rule_c,
    _rule_p6,
    _rule_s2,
    _rule_t2,
    analyze,
)
from toricqh.polytope import build_face_lattice, normalize, validate_delzant

BATTERY = {"cp4": simplex(4), "cube3": box(3), "cube4": box(4),
           "gon12": normalize(GON12_POLY)}
# the circles of the battery benchmark's rounds
BATTERY_CIRCLES = [("cp4", xi) for xi in box_vectors(4, 1)] + \
    [("cube3", xi) for xi in box_vectors(3, 1)] + \
    [("cube4", (1, 2, 3, 4)), ("cube4", (0, 1, 1, 1))] + \
    [("gon12", xi) for xi in box_vectors(2, 1)]
BUNDLED = {name: normalize(examples.build(name))
           for name in sorted(examples.BUILDERS)}


@functools.lru_cache(maxsize=None)
def battery_ring(name):
    return build_ring(BATTERY[name])


def compare_with_the_former_code(poly, xi, ring):
    """Components and their order, every q-stratum up to one past the
    isotropy bound, and the S2, T2, C and P6 findings, typed, against the
    former table and rules."""
    table, former = CircleTable(poly, xi), FormerCircleTable(poly, xi)
    assert outcome(lambda: table.components) == \
        outcome(lambda: former.components), xi
    assert table.orders == former.orders
    for q in range(1, table.isotropy_bound + 2):
        assert outcome(table.stratum, q) == outcome(former.stratum, q), \
            (xi, q)
    for rule, former_rule in ((_rule_s2, former_rule_s2),
                              (_rule_c, former_rule_c),
                              (_rule_p6, former_rule_p6)):
        assert outcome(rule, table) == outcome(former_rule, former), \
            (xi, rule.__name__)
    assert outcome(_rule_t2, ring, table) == \
        outcome(former_rule_t2, ring, former), xi


# ------------------------------------------------------------- the table

@pytest.mark.parametrize("name", sorted(BATTERY) + sorted(BUNDLED))
def test_the_table_lists_every_immediate_subface_and_the_sorted_order(
        name):
    poly = BATTERY.get(name) or BUNDLED[name]
    lattice = poly.face_lattice
    assert lattice.ordered == tuple(sorted(poly.faces, key=sorted))
    facets = frozenset(range(poly.num_facets))
    keys = {key: key for key in poly.faces}
    assert lattice.subfaces.keys() == keys.keys()
    for key, subs in lattice.subfaces.items():
        assert subs == tuple(key | {i} for i in sorted(facets - key)
                             if key | {i} in keys)
        # the very keys of the polytope, so a dict finds them by identity
        assert all(sub is keys[sub] for sub in subs)
        assert all(poly.faces[sub].dim == poly.faces[key].dim - 1
                   for sub in subs)
    assert poly.face_lattice is lattice


def test_the_table_is_built_on_the_first_stratum_alone():
    poly = box(3)
    fixed_components(poly, (1, 2, 3))
    table = CircleTable(poly, (1, 2, 3))
    table.components, table.orders, table.isotropy_bound
    assert "face_lattice" not in vars(poly)
    stratum = isotropy_components(poly, (1, 2, 3), 2)
    lattice = vars(poly)["face_lattice"]
    assert isotropy_components(poly, (1, 0, 0), 2) != stratum
    assert poly.face_lattice is lattice


def test_a_cold_fixed_command_builds_no_table(tmp_path, monkeypatch,
                                               capsys):
    def refuse(keys):
        raise AssertionError("a face lattice table was built")

    path = tmp_path / "cp2.json"
    main(["example", "cp2", "-o", str(path)])
    monkeypatch.setattr(polytope, "build_face_lattice", refuse)
    assert main(["fixed", str(path), "--xi=1,2"]) == 0
    assert capsys.readouterr().err == ""
    with pytest.raises(AssertionError, match="table was built"):
        analyze(validate_delzant(examples.cp2().facets), (1, 0))


def test_a_stratum_that_is_not_closed_names_the_first_subface_missing():
    """The closure check runs over the faces in the order of `orders` and
    their subfaces by increasing i, as before the table on these keys."""
    cube = box(3)
    orders = dict.fromkeys(cube.faces, 1)
    orders[frozenset({0})] = 2
    with pytest.raises(StratumNotClosed) as err:
        _stratum(cube.face_lattice, orders, 2)
    assert str(err.value) == \
        "the 2-stratum holds [0] but not its subface [0, 2]"
    orders = {frozenset(): 2, frozenset({0}): 3}
    with pytest.raises(StratumNotClosed) as err:
        _stratum(build_face_lattice(orders), orders, 2)
    assert str(err.value) == "the 2-stratum holds [] but not its subface [0]"


# --------------------------------------------------- against the former code

@pytest.mark.parametrize("name,xi", BATTERY_CIRCLES,
                         ids=[f"{name} {xi}" for name, xi in BATTERY_CIRCLES])
def test_the_battery_circles_answer_as_the_former_code(name, xi):
    compare_with_the_former_code(BATTERY[name], xi, battery_ring(name))


@pytest.mark.parametrize("name", sorted(BUNDLED))
def test_the_bundled_examples_answer_as_the_former_code(name):
    poly = BUNDLED[name]
    ring = build_ring(poly)
    for xi in box_vectors(poly.n, 2):
        compare_with_the_former_code(poly, xi, ring)


@settings(max_examples=30, deadline=None)
@given(specs=smooth_polytopes(), data=st.data())
def test_drawn_polytopes_answer_as_the_former_code(specs, data):
    poly = normalize(validate_delzant(specs))
    xis = data.draw(st.lists(
        st.tuples(*[st.integers(-2, 2)] * poly.n).filter(any),
        min_size=1, max_size=3, unique=True))
    ring = build_ring(poly)
    for xi in xis:
        compare_with_the_former_code(poly, xi, ring)
