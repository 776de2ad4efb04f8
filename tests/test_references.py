"""The test side's own rules: every reference in `reference.py` is read by
some test, and `cases.typed` gives equal values one typed form."""

import ast
from pathlib import Path

from cases import typed
from reference import former_stratum
from toricqh import examples
from toricqh.actions import CircleTable, _stratum

TESTS = Path(__file__).parent


def names_in(node):
    """Every name that `node` reads, attributes and imported names included."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.alias):
            out.add(sub.asname or sub.name)
    return out


def test_every_reference_is_named_by_a_test_or_another_reference():
    """A reference that no test module names, and that no other top-level
    definition of `reference.py` reads, checks nothing."""
    tree = ast.parse((TESTS / "reference.py").read_text())
    defs = [node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
    named = set().union(*(names_in(ast.parse(path.read_text()))
                          for path in TESTS.glob("test_*.py")))
    dead = [node.name for node in defs
            if node.name not in named and not any(
                node.name in names_in(other)
                for other in defs if other is not node)]
    assert dead == []


def test_equal_frozensets_of_frozensets_type_alike():
    """`<` on frozensets is inclusion, which orders neither {1} nor {0, 2}
    before the other, so sorting by it made the form follow the order in
    which the set was built."""
    a = frozenset([frozenset({1}), frozenset({0, 2})])
    b = frozenset([frozenset({0, 2}), frozenset({1})])
    assert a == b and typed(a) == typed(b)
    cp2 = examples.cp2()
    orders = CircleTable(cp2, (-2, -2)).orders
    got = _stratum(cp2.face_lattice, orders, 1)
    want = former_stratum(orders, 1)
    assert got == want and typed(got) == typed(want)
