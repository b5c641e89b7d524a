"""Golden stdout of the commands that print a mapping-space model.

Each expected text is the exact output of the command, so a change in how
the model is built, named or printed shows up here byte for byte.
"""

import json

import pytest

from rht import cli

WORKSPACE = """\
algebra Y
truncation 26
generator x1 degree 4
generator x2 degree 4
generator y degree 7
d y = x1*x2

dgl W
truncation 12
basis a degree 4
basis b degree 4
basis c degree 8
bracket [a,b] = c

problem section4 X=S2 Y=Y p=2
problem wedge X=S3 Y=W p=3
"""

SECTION4_ROUTE = "suspension model with d(Sv) = (-1)^p S(dv), p = 2"
SECTION4_WARNING = "warning: X carries no odd closed class (the even-p path)"

SECTION4_TABLE = """\
# model of F(X, Y) for problem section4 (%s)
%s
algebra model_section4
truncation 26
generator x1 degree 4
generator x2 degree 4
generator y degree 7
generator x1_bar degree 2
generator x2_bar degree 2
generator y_bar degree 5
d y = x1*x2
d y_bar = x1*x2_bar + x2*x1_bar
""" % (SECTION4_ROUTE, SECTION4_WARNING)

SECTION4_JSON = {
    "command": "map-model",
    "problem": "section4",
    "route": SECTION4_ROUTE,
    "generators": [{"name": n, "degree": d} for n, d in
                   (("x1", 4), ("x2", 4), ("y", 7),
                    ("x1_bar", 2), ("x2_bar", 2), ("y_bar", 5))],
    "differential": {"y": "x1*x2", "y_bar": "x1*x2_bar + x2*x1_bar"},
    "warnings": [SECTION4_WARNING],
}

WEDGE_TABLE = """\
# model of F(X, Y) for problem wedge (tensor model cochains)
algebra model_wedge
truncation 7
generator v5_0 degree 5
generator v2_0 degree 2
generator v5_1 degree 5
generator v2_1 degree 2
generator v6_0 degree 6
d v6_0 = -v5_0*v2_1 + v2_0*v5_1

# underlying Lie model
dgl lie_wedge
truncation 6
basis a degree 4
basis t_a degree 1
basis b degree 4
basis t_b degree 1
basis t_c degree 5
bracket [a,t_b] = t_c
bracket [t_a,b] = t_c
"""

WEDGE_JSON = {
    "command": "map-model",
    "problem": "wedge",
    "route": "tensor model cochains",
    "generators": [{"name": n, "degree": d} for n, d in
                   (("v5_0", 5), ("v2_0", 2), ("v5_1", 5), ("v2_1", 2),
                    ("v6_0", 6))],
    "differential": {"v6_0": "-v5_0*v2_1 + v2_0*v5_1"},
    "warnings": [],
}

REPRODUCE_SECTION4 = """\
# the mapping-space model (barred degrees 2, 2, 5):
algebra F_S2_Y
truncation 26
generator x1 degree 4
generator x2 degree 4
generator y degree 7
generator x1_bar degree 2
generator x2_bar degree 2
generator y_bar degree 5
d y = x1*x2
d y_bar = x1*x2_bar + x2*x1_bar
# H^*(Y) ranks up to 16: [1, 0, 0, 0, 2, 0, 0, 0, 2, 0, 0, 0, 2, 0, 0, 0, 2]
# regular sequence (x1*x2, x1*x2_bar + x2*x1_bar) up to degree 20: yes
formality of F(X, Y) for problem section4 at N = 16: FORMAL
certificate: koszul-regular-sequence -> %s
note: suspension route: 6 generators
note: d is nonzero on a generator of degree <= 16: no free-cohomology witness
"""


@pytest.fixture()
def ws_file(tmp_path):
    path = tmp_path / "golden.rht"
    path.write_text(WORKSPACE)
    return str(path)


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    return code, capsys.readouterr().out


@pytest.mark.parametrize("problem,table,payload", [
    ("section4", SECTION4_TABLE, SECTION4_JSON),
    ("wedge", WEDGE_TABLE, WEDGE_JSON),
])
def test_map_model_golden(capsys, ws_file, problem, table, payload):
    code, out = run_cli(capsys, "map-model", ws_file, problem)
    assert code == 0
    assert out == table
    code, out = run_cli(capsys, "map-model", ws_file, problem,
                        "--format", "json")
    assert code == 0
    assert out == json.dumps(payload, indent=2, sort_keys=True) + "\n"


def test_reproduce_section4_golden(capsys, tmp_path, monkeypatch):
    monkeypatch.delenv("RHT_MAX_DEGREE", raising=False)
    cert = str(tmp_path / "s4.cert")
    code, out = run_cli(capsys, "reproduce-section4", "--certificate-out",
                        cert)
    assert code == 0
    assert out == REPRODUCE_SECTION4 % cert
