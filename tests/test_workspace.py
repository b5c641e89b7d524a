from fractions import Fraction

import pytest

from rht.gca import Poly
from rht.workspace import (parse_text, parse_polynomial, print_algebra,
                           print_dgl, WorkspaceError)

F = Fraction

SECTION4 = """\
# the section-4 target
algebra Y
truncation 26
generator x1 degree 4
generator x2 degree 4
generator y degree 7
d y = x1*x2

problem section4 X=S2 Y=Y p=2
"""


def test_parse_section4_fixture():
    ws = parse_text(SECTION4)
    Y = ws.algebras["Y"]
    assert Y.generators == [("x1", 4), ("x2", 4), ("y", 7)]
    assert Y.truncation == 26
    dy = Y.differential.images["y"]
    assert dy == Y.multiply(Y.gen("x1"), Y.gen("x2"))
    prob = ws.resolve_problem("section4")
    assert prob.p == 2 and prob.m == 3
    assert prob.x_model.top_degree == 2


def test_parse_empty_file():
    ws = parse_text("")
    assert not ws.algebras and not ws.dgls and not ws.problems


def test_parse_rejects_degree_zero():
    with pytest.raises(WorkspaceError) as err:
        parse_text("algebra A\ngenerator x degree 0\n")
    assert err.value.line == 2


def test_parse_rejects_duplicates_and_unknowns():
    with pytest.raises(WorkspaceError):
        parse_text("algebra A\ngenerator x degree 2\ngenerator x degree 4\n")
    with pytest.raises(WorkspaceError):
        parse_text("algebra A\ngenerator x degree 2\nd z = x\n")
    with pytest.raises(WorkspaceError):
        parse_text("algebra A\ngenerator x degree 2\n\nalgebra A\n"
                    "generator y degree 2\n")
    with pytest.raises(WorkspaceError):
        parse_text("problem q X=S2 Y=missing p=2\n")


def test_parse_polynomial_forms():
    ws = parse_text("algebra A\ntruncation 30\ngenerator x degree 2\n"
                    "generator y degree 3\ngenerator z degree 5\n")
    A = ws.algebras["A"]
    assert parse_polynomial("0", A, 1) == Poly()
    assert parse_polynomial("x^2", A, 1) == A.power(A.gen("x"), 2)
    assert parse_polynomial("y^2", A, 1) == Poly()
    assert parse_polynomial("y^0*x", A, 1) == A.gen("x")
    assert parse_polynomial("z*y", A, 1) == \
        -A.multiply(A.gen("y"), A.gen("z"))
    assert parse_polynomial("3/2*x*x - y", A, 1) == \
        A.power(A.gen("x"), 2).scale(F(3, 2)) - A.gen("y")
    assert parse_polynomial("-x + 2*x", A, 1) == A.gen("x")
    with pytest.raises(WorkspaceError):
        parse_polynomial("x**2", A, 1)
    with pytest.raises(WorkspaceError):
        parse_polynomial("q", A, 1)


def test_algebra_round_trip():
    ws = parse_text(SECTION4)
    Y = ws.algebras["Y"]
    text = print_algebra(Y, "Y")
    Y2 = parse_text(text).algebras["Y"]
    # the printed text holds every stored field: names, degrees, the
    # truncation and each d
    assert print_algebra(Y2, "Y") == text


def test_dgl_round_trip():
    text = """\
dgl L
truncation 10
basis a degree 3
basis b degree 3
basis c degree 6
bracket [a,b] = c
bracket [a,a] = 2*c
d c = 0
"""
    ws = parse_text(text)
    L = ws.dgls["L"]
    assert L.bracket("b", "a") == {"c": F(1)}  # derived mirror
    # the printed text holds every stored field: the basis with its
    # degrees, the truncation, the stored brackets and d
    printed = print_dgl(L, "L")
    L2 = parse_text(printed).dgls["L"]
    assert print_dgl(L2, "L") == printed
    assert L2.bracket("b", "a") == {"c": F(1)}


def test_dgl_lincomb_rejects_quadratic():
    with pytest.raises(WorkspaceError):
        parse_text("dgl L\nbasis a degree 3\nbasis b degree 3\n"
                    "bracket [a,b] = a*b\n")


def test_sphere_x_specs():
    ws = parse_text("algebra T\ngenerator t degree 3\n\n"
                    "dgl L\ntruncation 12\nbasis l degree 5\n\n"
                    "problem direct X=S3 Y=L p=3\n"
                    "problem via_model X=T Y=L p=3 t=t\n")
    p1 = ws.resolve_problem("direct")
    p2 = ws.resolve_problem("via_model")
    assert p1.x_model.top_degree == 3
    assert p2.x_model.top_degree == 3
    assert p2.t == "t"
