"""Golden output of the reduction to an odd sphere, through the CLI.

X = S^3 x S^5 (free on odd a, b) and Y a Lie model with brackets of two,
three letters.  Without a designated class the reduction splits off the
lowest odd class a and reaches the 3-sphere; with t=b it reaches the
5-sphere.  Each verdict is NONFORMAL from the bar obstruction, its stdout
and certificate are pinned byte for byte, and the certificate replays.

The reduction's one informative check is that q, the retraction of X onto
t, is a cochain algebra map.  X = S^3 x S^3 x S^3 (free on odd a, b, c)
with t = abc fails it: abc is odd and closed, but decomposable, so the
bar obstruction does not apply, the verdict is UNKNOWN and no certificate
is written.  The same X without a designated class splits off a.
"""

import pytest

from rht import cli

WORKSPACE = """\
algebra T
truncation 9
generator a degree 3
generator b degree 5

dgl L
truncation 39
basis u degree 10
basis v degree 10
basis w degree 20
basis x degree 30
basis y degree 30
bracket [u,v] = w
bracket [u,w] = x
bracket [v,w] = y

problem red X=T Y=L p=8
problem redt X=T Y=L p=8 t=b
"""

STDOUT = """\
formality of F(X, Y) for problem %s at N = 22: NONFORMAL
certificate: bar-linearity-obstruction -> %s
note: tensor route: 14 generators
note: d is nonzero on a generator of degree <= 22: no free-cohomology witness
note: not of Koszul shape
note: lemma-3.6 scan: missing witnesses for nothing in range
note: reduced to the %d-sphere: q, the retraction onto the class %s, is a cochain algebra map
"""

CERTIFICATE = """\
rht-certificate bar-linearity-obstruction
verdict nonformal
bound 22
p %d
witness z21_0_bar
algebra target_model
truncation 40
generator v11_0 degree 11
generator v11_1 degree 11
generator v21_0 degree 21
generator v31_0 degree 31
generator v31_1 degree 31
d v21_0 = -v11_0*v11_1
d v31_0 = -v11_0*v21_0
d v31_1 = -v11_1*v21_0
bigraded base
generator z11_0 degree 11 lower 0
generator z11_1 degree 11 lower 0
generator z21_0 degree 21 lower 1
d z21_0 = z11_0*z11_1
rho z11_0 = v11_0
rho z11_1 = v11_1
end-bigraded
"""


SPLIT_CLASS = {"red": "a", "redt": "b"}


@pytest.mark.parametrize("problem,sphere", [("red", 3), ("redt", 5)])
def test_reduction_golden(capsys, tmp_path, problem, sphere):
    path = tmp_path / "red.rht"
    path.write_text(WORKSPACE)
    cert = str(tmp_path / ("%s.cert" % problem))
    code = cli.main(["formality", str(path), problem, "--max-degree", "22",
                     "--certificate-out", cert])
    assert (code, capsys.readouterr().out) == \
        (3, STDOUT % (problem, cert, sphere, SPLIT_CLASS[problem]))
    with open(cert, encoding="utf-8") as fh:
        assert fh.read() == CERTIFICATE % sphere
    assert cli.main(["verify-certificate", cert]) == 0
    assert capsys.readouterr().out == \
        "bar-linearity-obstruction certificate replayed\n"


DEC_WORKSPACE = """\
algebra T
truncation 10
generator a degree 3
generator b degree 3
generator c degree 3

dgl L
truncation 41
basis u degree 10
basis v degree 10
basis w degree 20
basis x degree 30
basis y degree 30
bracket [u,v] = w
bracket [u,w] = x
bracket [v,w] = y

problem dec X=T Y=L p=9 t=abc
problem deca X=T Y=L p=9
"""

DEC_STDOUT = """\
formality of F(X, Y) for problem dec at N = 22: UNKNOWN
note: tensor route: 26 generators
note: d is nonzero on a generator of degree <= 22: no free-cohomology witness
note: not of Koszul shape
note: reduction unavailable: CheckReport(multiplicative: q(a*bc) != q(a)q(bc))
note: no odd sphere reduction: the bar obstruction does not apply
"""


def test_decomposable_class_is_not_split(capsys, tmp_path):
    path = tmp_path / "dec.rht"
    path.write_text(DEC_WORKSPACE)
    cert = tmp_path / "dec.cert"
    code = cli.main(["formality", str(path), "dec", "--max-degree", "22",
                     "--certificate-out", str(cert)])
    assert (code, capsys.readouterr().out) == (2, DEC_STDOUT)
    assert not cert.exists()
    # the same X and Y without t split off a and reach the 3-sphere
    code = cli.main(["formality", str(path), "deca", "--max-degree", "22",
                     "--certificate-out", str(tmp_path / "deca.cert")])
    out = capsys.readouterr().out
    assert code == 3
    assert ("note: reduced to the 3-sphere: q, the retraction onto the "
            "class a, is a cochain algebra map\n") in out
