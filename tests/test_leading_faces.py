"""What a leading-term check reads of its F_max face, once per face.

`verify_leading_term` keeps what depends on the F_max face alone in one
entry of the presentation's cache, `("leading", face key)`: the sorted
facets, the classical normal form of x_F, the edge-class criterion and,
for a facet outside Fano mode that meets it, the unshifted lift of x_F.
The entry is built once per face, not once per circle, and no report
shares a list with it.  A Seidel element records the checked tuple of its
direction, however xi was passed, and `verify_leading_term` refuses an
element built at another cutoff or with a leading face that its polytope
does not have.
"""

import dataclasses
import re
from collections import Counter

import pytest

from cases import box_vectors, hirzebruch2_nef, presentation
from reference import former_verify_leading_term
from toricqh import examples, seidel
from toricqh.errors import ElementMismatch
from toricqh.novikov import NovScalar
from toricqh.quantum import QClass, fano_presentation
from toricqh.seidel import seidel_element, verify_leading_term


def leading_keys(qp):
    return {key for key in qp._cache
            if isinstance(key, tuple) and key[0] == "leading"}


def sweep(qp):
    """Every circle of box(n, 2) through `verify_leading_term`, with the
    element built first, as the Seidel sweep runs them."""
    return [verify_leading_term(qp, xi, element=seidel_element(qp, xi))
            for xi in box_vectors(qp.polytope.n, 2)]


# ------------------------------------------------------- the per-face entry

def test_a_nef_facet_maximum_lifts_x_f_once_per_face(monkeypatch):
    """On hirzebruch2 NEF, the only lifts a leading-term check makes are of
    x_F for a facet F that passes the edge test: one per face over two
    sweeps of box(2, 2), where some facet is F_max of several circles."""
    qp = hirzebruch2_nef(None)
    lifted = []

    def spy(qp_, items, truncated):
        lifted.append(items[0][0][0])  # the monomial of the one item
        return lift(qp_, items, truncated)

    lift = seidel._lift
    monkeypatch.setattr(seidel, "_lift", spy)
    first = sweep(qp)
    assert sweep(qp) == first
    counts = Counter(lifted)
    assert counts and set(counts.values()) == {1}
    assert all(sum(mono) == 1 for mono in counts)  # x_F of a facet
    faces = Counter(frozenset(report["f_max"]) for _, report in first)
    lifted_faces = {frozenset(i for i, e in enumerate(mono) if e)
                    for mono in counts}
    assert lifted_faces == {face for face in faces if len(face) == 1
                            and ("leading", face) in qp._cache
                            and qp._cache[("leading", face)].x_face_lift
                            is not None}
    assert any(faces[face] > 1 for face in lifted_faces)


def test_each_f_max_face_has_one_entry():
    qp = presentation("cp2")
    reports = sweep(qp)
    faces = {frozenset(report["f_max"]) for _, report in reports}
    assert leading_keys(qp) == {("leading", face) for face in faces}
    assert sweep(qp) == reports


def test_a_replaced_presentation_starts_with_no_leading_entry():
    qp = hirzebruch2_nef(None)
    reports = sweep(qp)
    assert leading_keys(qp)
    replaced = dataclasses.replace(qp)
    assert leading_keys(replaced) == set()
    assert sweep(replaced) == reports


@pytest.mark.parametrize("name", ["cp2", "hirzebruch2 nef"])
def test_mutating_a_report_leaves_the_next_report_of_its_face_unchanged(
        name):
    """(1, 1) and (2, 2) share the edge F_max on cp2; on hirzebruch2 NEF the
    facet (0, 1) is semifree, so its report carries two assumptions."""
    qp = hirzebruch2_nef(None) if "nef" in name else presentation(name)
    xi = (1, 1) if name == "cp2" else (0, 1)
    want = verify_leading_term(qp, xi)
    assert want[1]["assumptions"]
    got = verify_leading_term(qp, xi)[1]
    got["f_max"].append(99)
    got["f_max"].reverse()
    got["assumptions"].clear()
    assert verify_leading_term(qp, xi) == want
    double = tuple(2 * x for x in xi)
    assert verify_leading_term(qp, double)[1]["f_max"] == want[1]["f_max"]
    assert verify_leading_term(qp, xi)[1]["f_max"] is not \
        verify_leading_term(qp, xi)[1]["f_max"]


# ------------------------------------------------ the leading check itself

def regrid(qclass, fine, edit=lambda levels, den: None):
    """qclass with every scalar moved onto a grid `fine` times finer, then
    its level map edited in place by edit(levels, den)."""
    coeffs = {}
    for m, s in qclass.coeffs.items():
        den = s.den * fine
        levels = {(d, level * (den // s.den)): c
                  for (d, level), c in s.levels.items()}
        edit(levels, den)
        coeffs[m] = NovScalar.on_grid(levels, den, s.cutoff, s.truncated)
    return QClass(coeffs, qclass.cutoff)


def near_misses(element):
    """The element's class, on its own grid and a finer one, and classes
    that miss its leading term by one grid step below -K, by a q power at
    -K, by the whole -K slice, or by being zero."""
    K, m = element.K_max, element.m_max

    def level_of(den):  # -K on a grid den that K's denominator divides
        return -K.numerator * (den // K.denominator)

    def below(levels, den):
        levels[m, level_of(den) - 1] = 1

    def other_q(levels, den):
        levels[m + 1, level_of(den)] = 1

    def dropped(levels, den):
        for d, level in list(levels):
            if level * K.denominator == -K.numerator * den:
                del levels[d, level]

    qclass = element.qclass
    return {"as built": qclass, "finer": regrid(qclass, 3),
            "below": regrid(qclass, K.denominator, below),
            "other q": regrid(qclass, K.denominator, other_q),
            "dropped": regrid(qclass, 1, dropped),
            "zero": QClass({}, qclass.cutoff)}


@pytest.mark.parametrize("name", ["cp2", "blowup_cp2", "s2xs2", "cp3",
                                  "hirzebruch2 nef"])
def test_the_leading_check_reads_near_misses_as_the_former_code(name):
    """The integer-grid check against the Fraction valuation and slice of
    the former code, on classes that each miss the leading term by one
    thing; a step below -K is one unit of the finest grid, so an integer K
    puts it one integer level below."""
    qp = hirzebruch2_nef(None) if "nef" in name else presentation(name)
    seen = Counter()
    for xi in box_vectors(qp.polytope.n, 1):
        element = seidel_element(qp, xi)
        for kind, qclass in near_misses(element).items():
            crafted = dataclasses.replace(element, qclass=qclass)
            got = verify_leading_term(qp, xi, element=crafted)[1]
            want = former_verify_leading_term(qp, xi, element=crafted)[1]
            assert got["leading_ok"] is want["leading_ok"], (xi, kind)
            seen[kind, got["leading_ok"]] += 1
    for kind in ("below", "other q", "dropped", "zero"):
        assert seen[kind, True] == 0 and seen[kind, False] > 0, kind
    assert seen["finer", True] == seen["as built", True] > 0


# ----------------------------------------------------- elements and checks

def test_an_element_records_the_checked_direction():
    """A tuple, a list and an iterator give equal elements, each recording
    the tuple, and the element of an iterator passes its own check."""
    qp = presentation("cp2")
    elements = [seidel_element(qp, xi)
                for xi in [(1, 0), [1, 0], iter((1, 0))]]
    assert elements[0] == elements[1] == elements[2]
    assert [element.xi for element in elements] == [(1, 0)] * 3
    want = verify_leading_term(qp, (1, 0))
    assert want[0]
    for element in elements:
        assert verify_leading_term(qp, (1, 0), element=element) == want


@pytest.mark.parametrize("xi", [(-1, -1), (1, 0)])
def test_an_element_at_another_cutoff_is_refused(xi):
    """The cp2 element at the default cutoff 4, checked against cp2 at
    cutoff 8, read `leading_ok: false` and `exact_ok: false` before."""
    qp, doubled = presentation("cp2"), presentation("cp2", 2)
    assert (qp.cutoff, doubled.cutoff) == (4, 8)
    element = seidel_element(qp, xi)
    with pytest.raises(ElementMismatch, match="at cutoff 4, passed at "
                                              "cutoff 8"):
        verify_leading_term(doubled, xi, element=element)
    assert verify_leading_term(qp, xi, element=element)[0]
    assert verify_leading_term(doubled, xi)[0]


def test_an_element_with_a_face_of_another_polytope_is_refused():
    """A cp2 element whose leading face is the vertex {0, 1} is refused by
    s2xs2 at the same cutoff, 8, since its facets 0 and 1 are opposite."""
    cp2, s2xs2 = presentation("cp2", 2), presentation("s2xs2")
    assert cp2.cutoff == s2xs2.cutoff == 8
    foreign = [xi for xi in box_vectors(2, 2)
               if seidel_element(cp2, xi).leading_face
               not in s2xs2.polytope.faces]
    assert foreign == [(-2, -2), (-2, -1), (-1, -2), (-1, -1)]
    for xi in foreign:
        element = seidel_element(cp2, xi)
        assert element.leading_face == {0, 1}
        with pytest.raises(ElementMismatch, match="is not a face of the "
                                                  "polytope"):
            verify_leading_term(s2xs2, xi, element=element)
    assert leading_keys(s2xs2) == set()


def test_an_element_of_another_polytope_is_refused_on_a_shared_face():
    """The cp2 element of (1, 0) at cutoff 8 leads with the edge {1, 2},
    which is a face of s2xs2 as well: checked against s2xs2 at the same
    cutoff, it read (False, {'f_max': [1, 2], ...}) before.  The element
    keeps the facets of its polytope, outside its value and repr."""
    cp2, s2xs2 = presentation("cp2", 2), presentation("s2xs2")
    element = seidel_element(cp2, (1, 0))
    assert element.leading_face in s2xs2.polytope.faces
    assert former_verify_leading_term(s2xs2, (1, 0), element=element)[1][
        "f_max"] == [1, 2]  # the former silent answer
    message = "the element of (1, 0) was made on another polytope"
    with pytest.raises(ElementMismatch, match=f"^{re.escape(message)}$"):
        verify_leading_term(s2xs2, (1, 0), element=element)
    foreign = dataclasses.replace(element,
                                  polytope_facets=s2xs2.polytope.facets)
    assert foreign == element and repr(foreign) == repr(element)
    assert hash(foreign) == hash(element)
    # its own presentation, copies of it and of the element, and an equal
    # polytope built twice still pass
    want = verify_leading_term(cp2, (1, 0))
    assert want[0]
    twice = fano_presentation(examples.cp2(), cutoff=cp2.cutoff)
    assert twice.polytope.facets == cp2.polytope.facets
    assert twice.polytope.facets is not cp2.polytope.facets
    for qp in (cp2, dataclasses.replace(cp2), twice):
        for copy in (element, dataclasses.replace(element)):
            assert verify_leading_term(qp, (1, 0), element=copy) == want
