import json
import os
import subprocess
import sys
from random import Random

import pytest

from rht import cli, dgl
from rht.certificates import (parse_certificate, replay_certificate_text,
                              serialize_verdict)
from test_reduction_golden import WORKSPACE as REDUCTION_WS

NONFORMAL_WS = """\
algebra Yodd
truncation 24
generator x1 degree 5
generator x2 degree 5
generator y degree 9
d y = x1*x2

dgl K4
truncation 16
basis l degree 3

problem nonformal X=S3 Y=Yodd p=3
problem thom X=S2 Y=K4 p=2
"""


@pytest.fixture()
def ws_file(tmp_path):
    path = tmp_path / "work.rht"
    path.write_text(NONFORMAL_WS)
    return str(path)


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_parse_roundtrip_through_cli(capsys, ws_file, tmp_path):
    code, out, _ = run_cli(capsys, "parse", ws_file)
    assert code == 0
    echo = tmp_path / "echo.rht"
    echo.write_text(out)
    code2, out2, _ = run_cli(capsys, "parse", str(echo))
    assert code2 == 0
    assert out2 == out  # canonical form is a fixed point


def test_parse_errors_exit_1(capsys, tmp_path):
    bad = tmp_path / "bad.rht"
    bad.write_text("algebra A\ngenerator x degree 0\n")
    code, _, err = run_cli(capsys, "parse", str(bad))
    assert code == 1
    assert "line 2" in err


def test_cohomology_table_and_json_agree(capsys, ws_file):
    code, table, _ = run_cli(capsys, "cohomology", ws_file, "Yodd",
                             "--max-degree", "19")
    assert code == 0
    code, js, _ = run_cli(capsys, "cohomology", ws_file, "Yodd",
                          "--max-degree", "19", "--format", "json")
    assert code == 0
    payload = json.loads(js)
    table_ranks = [int(line.split()[1]) for line in table.splitlines()[2:]]
    assert payload["ranks"] == table_ranks
    want = [0] * 20
    for n, r in ((0, 1), (5, 2), (14, 2), (19, 1)):
        want[n] = r
    assert payload["ranks"] == want


def test_cohomology_unknown_algebra(capsys, ws_file):
    code, _, err = run_cli(capsys, "cohomology", ws_file, "nope")
    assert code == 1


def test_cohomology_errors_go_through_main(capsys, ws_file, tmp_path):
    code, out, err = run_cli(capsys, "cohomology", ws_file, "nope")
    assert (code, out, err) == (1, "", "error: unknown algebra 'nope'\n")
    path = tmp_path / "bad.rht"
    path.write_text(cli.SECTION4_WORKSPACE.replace("d y = x1*x2",
                                                   "d y = x1^3"))
    code, out, err = run_cli(capsys, "cohomology", str(path), "Y")
    assert (code, out) == (1, "")
    assert err.startswith("error: invalid algebra: ")


def test_map_model_errors_go_through_main(capsys, ws_file, tmp_path):
    code, out, err = run_cli(capsys, "map-model", ws_file, "nope")
    assert (code, out, err) == (1, "", "error: unknown problem 'nope'\n")
    # Y = Lambda(x3) is only 2-connected: m = 2 is read off Y itself
    path = tmp_path / "lowconn.rht"
    path.write_text(NONFORMAL_WS + "\nalgebra Ylow\ntruncation 10\n"
                    "generator x degree 3\n\n"
                    "problem lowconn X=S3 Y=Ylow p=3\n")
    code, out, err = run_cli(capsys, "map-model", str(path), "lowconn")
    assert (code, out, err) == (
        1, "", "error: hypotheses violated: connectivity m=2 < p+1=4\n")


def test_problem_keys_are_refused_at_their_line(capsys, tmp_path):
    # the section-4 Y is only 3-connected, so p = 3 breaks m >= p + 1; the
    # connectivity is read off Y, and no key on the problem line can
    # declare it, nor any key other than X, Y, p and t
    path = tmp_path / "keys.rht"
    cert = tmp_path / "keys.cert"
    for problem, message in (
            ("problem b X=S3 Y=Y p=3 m=10", "line 9: unknown problem key 'm'"),
            ("problem b X=S3 Y=Y p=3 q=1", "line 9: unknown problem key 'q'"),
            ("problem b X=S3 Y=Y p=3 p=4", "line 9: repeated problem key 'p'"),
            ("problem b X=S3 Y=Y p=3",
             "hypotheses violated: connectivity m=3 < p+1=4")):
        path.write_text(cli.SECTION4_WORKSPACE.replace(
            "problem section4 X=S2 Y=Y p=2", problem))
        assert path.read_text().splitlines()[8] == problem
        code, out, err = run_cli(capsys, "formality", str(path), "b",
                                 "--max-degree", "16",
                                 "--certificate-out", str(cert))
        assert (code, out, err) == (1, "", "error: %s\n" % message)
        assert not cert.exists()


def test_formality_unknown_problem_goes_through_main(capsys, ws_file):
    code, out, err = run_cli(capsys, "formality", ws_file, "nope")
    assert (code, out, err) == (1, "", "error: unknown problem 'nope'\n")


def test_cohomology_many_generators(capsys, tmp_path):
    path = tmp_path / "many.rht"
    path.write_text("algebra Many\ntruncation 6\n" + "".join(
        "generator g%d degree 5\n" % k for k in range(1200)))
    code, out, _ = run_cli(capsys, "cohomology", str(path), "Many",
                           "--max-degree", "4", "--format", "json")
    assert code == 0
    assert json.loads(out)["ranks"] == [1, 0, 0, 0, 0]


def test_cohomology_golden_values(capsys, tmp_path):
    path = tmp_path / "g.rht"
    path.write_text("algebra Y\ntruncation 26\n"
                    "generator x1 degree 4\ngenerator x2 degree 4\n"
                    "generator y degree 7\nd y = x1*x2\n\n"
                    "algebra Free\ntruncation 10\n"
                    "generator v2 degree 2\ngenerator v4 degree 4\n")
    code, out, _ = run_cli(capsys, "cohomology", str(path), "Y",
                           "--max-degree", "12", "--format", "json")
    assert code == 0
    assert json.loads(out)["ranks"] == \
        [1, 0, 0, 0, 2, 0, 0, 0, 2, 0, 0, 0, 2]
    code, out, _ = run_cli(capsys, "cohomology", str(path), "Free",
                           "--max-degree", "8", "--format", "json")
    assert code == 0
    assert json.loads(out)["ranks"] == [1, 0, 1, 0, 2, 0, 2, 0, 3]


def test_map_model_thom_case(capsys, ws_file):
    code, out, _ = run_cli(capsys, "map-model", ws_file, "thom",
                           "--format", "json")
    assert code == 0
    payload = json.loads(out)
    gens = {(g["name"], g["degree"]) for g in payload["generators"]}
    assert gens == {("v2_0", 2), ("v4_0", 4)}
    assert payload["differential"] == {}


def test_map_model_hypothesis_failure(capsys, tmp_path):
    path = tmp_path / "bad.rht"
    path.write_text("dgl L\ntruncation 12\nbasis l degree 3\n\n"
                    "problem q X=S3 Y=L p=3\n")
    code, _, err = run_cli(capsys, "map-model", str(path), "q")
    assert code == 1
    assert "connectivity" in err


def test_formality_exit_codes_and_certificates(capsys, ws_file, tmp_path):
    cert = tmp_path / "nf.cert"
    code, out, _ = run_cli(capsys, "formality", ws_file, "nonformal",
                           "--max-degree", "20",
                           "--certificate-out", str(cert))
    assert code == 3
    assert "NONFORMAL" in out
    code, out, _ = run_cli(capsys, "verify-certificate", str(cert))
    assert code == 0 and "replayed" in out

    cert2 = tmp_path / "thom.cert"
    code, _, _ = run_cli(capsys, "formality", ws_file, "thom",
                         "--max-degree", "12",
                         "--certificate-out", str(cert2))
    assert code == 0
    code, _, _ = run_cli(capsys, "verify-certificate", str(cert2))
    assert code == 0


def test_formality_unknown_when_underpowered(capsys, ws_file, tmp_path):
    # at N = 8, d(y_bar) != 0 in degree 6 rules out free cohomology, but
    # the degree-10 relation is invisible, so no checker can conclude
    code, out, _ = run_cli(capsys, "formality", ws_file, "nonformal",
                           "--max-degree", "8",
                           "--certificate-out", str(tmp_path / "u.cert"))
    assert code == 2


def test_reproduce_section4(capsys, tmp_path):
    cert = tmp_path / "s4.cert"
    code, out, _ = run_cli(capsys, "reproduce-section4",
                           "--certificate-out", str(cert))
    assert code == 0
    assert "generator y_bar degree 5" in out
    assert "d y_bar = x1*x2_bar + x2*x1_bar" in out
    assert "regular sequence" in out and "yes" in out
    assert "FORMAL" in out
    code, _, _ = run_cli(capsys, "verify-certificate", str(cert))
    assert code == 0


def test_section4_below_the_degree_of_dy(capsys, tmp_path):
    # |d y| = |x1*x2| = 8: the Koszul check reads d y above the bound N
    path = tmp_path / "s4.rht"
    path.write_text(cli.SECTION4_WORKSPACE)
    for n in ("6", "7"):
        for argv in (["formality", str(path), "section4"],
                     ["reproduce-section4"]):
            cert = tmp_path / ("s4_%s.cert" % n)
            code, out, err = run_cli(capsys, *argv, "--max-degree", n,
                                     "--certificate-out", str(cert))
            assert (code, err) == (0, "")
            assert "at N = %s: FORMAL" % n in out
            code, out, _ = run_cli(capsys, "verify-certificate", str(cert))
            assert (code, out) == (
                0, "koszul-regular-sequence certificate replayed\n")
    # a lowered bound is a weaker claim, and it still replays
    text = cert.read_text().replace("bound 7", "bound 1")
    assert replay_certificate_text(text) == (
        True, "koszul-regular-sequence certificate replayed")


def test_section4_with_a_square_differential_is_not_regular(capsys,
                                                            tmp_path):
    # d y = x1^2 makes x1 a zero divisor of Q[x1, x2, x1_bar, x2_bar]/(x1^2),
    # so d y_bar = 2 x1*x1_bar kills x1 in degree 4: UNKNOWN, exit 2, with
    # the regularity witness in the notes and no certificate
    path = tmp_path / "sq.rht"
    path.write_text(cli.SECTION4_WORKSPACE.replace("d y = x1*x2",
                                                   "d y = x1^2"))
    cert = tmp_path / "sq.cert"
    code, out, err = run_cli(capsys, "formality", str(path), "section4",
                             "--max-degree", "22",
                             "--certificate-out", str(cert))
    assert (code, err) == (2, "")
    assert "at N = 22: UNKNOWN" in out
    assert "note: sequence (y, y_bar) is not regular: index 1 degree 4" \
        in out.splitlines()
    assert not cert.exists()


def test_env_var_default_degree(capsys, ws_file, tmp_path, monkeypatch):
    monkeypatch.setenv("RHT_MAX_DEGREE", "12")
    cert = tmp_path / "t.cert"
    code, out, _ = run_cli(capsys, "formality", ws_file, "thom",
                           "--certificate-out", str(cert))
    assert code == 0
    monkeypatch.setenv("RHT_MAX_DEGREE", "bogus")
    code, _, err = run_cli(capsys, "formality", ws_file, "thom",
                           "--certificate-out", str(cert))
    assert code == 1


@pytest.mark.parametrize("bound", ["0", "-2"])
def test_non_positive_max_degree_rejected(capsys, ws_file, tmp_path,
                                          monkeypatch, bound):
    monkeypatch.chdir(tmp_path)
    before = sorted(os.listdir(tmp_path))
    for argv in (["formality", ws_file, "thom"],
                 ["cohomology", ws_file, "Yodd"],
                 ["reproduce-section4"]):
        code, out, err = run_cli(capsys, *argv, "--max-degree", bound)
        assert code == 1, argv
        assert "--max-degree must be a positive integer" in err
        assert out == ""
    assert sorted(os.listdir(tmp_path)) == before


@pytest.mark.parametrize("argv, env", [(["--max-degree", "0"], None),
                                       ([], "0")],
                         ids=["option", "environment"])
def test_non_positive_bound_error_names_no_line(capsys, ws_file, monkeypatch,
                                                argv, env):
    # neither the option nor the environment variable is a line of a file
    if env is None:
        monkeypatch.delenv("RHT_MAX_DEGREE", raising=False)
        want = "--max-degree"
    else:
        monkeypatch.setenv("RHT_MAX_DEGREE", env)
        want = "RHT_MAX_DEGREE"
    code, out, err = run_cli(capsys, "formality", ws_file, "thom", *argv)
    assert code == 1 and out == ""
    assert err == "error: %s must be a positive integer\n" % want


def parse_outcome(capsys, parse, argv):
    """(exit code or None, stdout, stderr, namespace or None) of parse."""
    try:
        args, code = parse(list(argv)), None
    except SystemExit as exc:
        args, code = None, exc.code
    out = capsys.readouterr()
    return code, out.out, out.err, None if args is None else vars(args)


@pytest.mark.parametrize("argv", [
    ["-h"], [], ["bogus"], ["formality", "w.rht"],
    ["formality", "w.rht", "p", "--max-degree", "abc"],
    ["formality", "w.rht", "p", "--format", "xml"],
    ["formality", "w.rht", "p", "extra"],
    ["formality", "w.rht", "p", "--max-degree", "7", "--format", "json",
     "--certificate-out", "o.cert"],
    ["reproduce-section4", "--max-degree=9"],
    ["cohomology", "w.rht", "Y", "--", "-1"],
    ["verify-certificate", "c.cert"],
] + [[name, "-h"] for name in cli.COMMANDS])
def test_subcommand_parser_matches_the_full_parser(capsys, monkeypatch, argv):
    # usage, help, errors, exit codes and parsed arguments are those of
    # make_parser(), which parse_args builds only when it must
    monkeypatch.setenv("COLUMNS", "80")
    want = parse_outcome(capsys, cli.make_parser().parse_args, argv)
    assert parse_outcome(capsys, cli.parse_args, argv) == want


# option values of plain lines, and odd ones: refused by argparse, or with
# a sign, a non-ASCII digit or a leading "-"
PLAIN_VALUES = {"--max-degree": ["7", "12", "007", "0"],
                "--format": ["table", "json"],
                "--certificate-out": ["o.cert", "a=b", ""]}
ODD_VALUES = {"--max-degree": ["abc", "+7", "\u0663", "\u00b2", "-1", ""],
              "--format": ["xml", "", "-", "JSON"],
              "--certificate-out": ["-", "-o.cert"]}
ODD_TOKENS = ["", "-", "-1", "--", "--max", "+7", "\u0663", "\u00b2", "-h",
              "--help", "--bogus", "bogus", "--format="]
POSITIONALS = ["w.rht", "Y", "p", "", "a b", "x=1", "formality"]


def random_argv(rng):
    """A command line at or near a plain one: a subcommand, then its
    positionals and options in any order, each option as '--opt v' or
    '--opt=v' and maybe repeated; now and then a wrong count, an option of
    another subcommand, an odd value or an option with no value last."""
    name = rng.choice(list(cli.COMMANDS))
    _, _, positionals, options = cli.COMMANDS[name]
    count = len(positionals)
    if rng.random() < 0.1:
        count = max(0, count + rng.choice((-1, 1)))
    groups = [[rng.choice(POSITIONALS)] for _ in range(count)]
    for _ in range(rng.randint(0, 3)):
        opt = rng.choice(options if options and rng.random() < 0.95
                         else list(cli.OPTIONS))
        values = ODD_VALUES if rng.random() < 0.2 else PLAIN_VALUES
        value = rng.choice(values[opt])
        groups.append([opt + "=" + value] if rng.random() < 0.5
                      else [opt, value])
    rng.shuffle(groups)
    argv = [name] + [token for group in groups for token in group]
    if options and rng.random() < 0.1:
        argv.append(rng.choice(options))
    return argv


def test_plain_lines_parse_as_the_full_parser_parses_them(capsys,
                                                         monkeypatch):
    # seeded lines near plain ones: whichever path parse_args takes, the
    # outcome is make_parser()'s, and both paths are taken often
    monkeypatch.setenv("COLUMNS", "80")
    make_parser = cli.make_parser
    full = make_parser()
    built = []
    monkeypatch.setattr(cli, "make_parser",
                        lambda: built.append(None) or make_parser())
    rng = Random(30)
    lines = 400
    for i in range(lines):
        argv = random_argv(rng)
        if i % 4 == 0:  # each odd token about six times, anywhere
            argv.insert(rng.randint(0, len(argv)),
                        ODD_TOKENS[i // 4 % len(ODD_TOKENS)])
        want = parse_outcome(capsys, full.parse_args, argv)
        assert parse_outcome(capsys, cli.parse_args, argv) == want, argv
    assert lines // 4 <= len(built) <= lines - lines // 4


def test_a_plain_line_builds_no_parser(monkeypatch):
    import argparse
    monkeypatch.setattr(argparse, "ArgumentParser",
                        lambda *a, **k: pytest.fail("a parser was built"))
    for argv in [
            ["parse", "w.rht"],
            ["cohomology", "w.rht", "Y", "--max-degree", "9", "--format=json"],
            ["map-model", "--format", "table", "w.rht", "p"],
            ["formality", "w.rht", "p", "--max-degree=7",
             "--certificate-out", "o"],
            ["reproduce-section4", "--certificate-out=o", "--max-degree",
             "40"],
            ["verify-certificate", "c.cert"]]:
        args = cli.parse_args(argv)
        assert args.command == argv[0]
        assert args.func is cli.COMMANDS[argv[0]][1]


@pytest.mark.parametrize("argv, stream, text", [
    (["formality", "w.rht", "p", "-h"], "out", "usage: rht formality"),
    (["formality", "w.rht", "p", "--format", "xml"], "err",
     "usage: rht formality"),
])
def test_help_and_errors_reach_the_full_parser(monkeypatch, capsys, argv,
                                               stream, text):
    make_parser = cli.make_parser
    built = []
    monkeypatch.setattr(cli, "make_parser",
                        lambda: built.append(None) or make_parser())
    with pytest.raises(SystemExit):
        cli.parse_args(argv)
    assert built == [None]
    assert getattr(capsys.readouterr(), stream).startswith(text)


def test_a_plain_command_imports_no_argparse(tmp_path):
    # a fresh interpreter, as the rht command runs: argparse and gettext
    # stay unloaded
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    code = ("import sys; from rht import cli; "
            "code = cli.main(['verify-certificate', 'no.cert']); "
            "print(code, sorted({'argparse', 'gettext'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path,
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=20)
    assert proc.stdout == "1 []\n"
    assert proc.stderr.startswith("cannot read certificate: ")


def test_large_exponent_fails_fast(tmp_path):
    # d y = x1^100000 has the wrong degree; it must be rejected without
    # expanding the power into 100000 letters
    path = tmp_path / "big.rht"
    path.write_text(cli.SECTION4_WORKSPACE.replace("d y = x1*x2",
                                                   "d y = x1^100000"))
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "rht.cli", "formality", str(path), "section4"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=20)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ")


def test_formality_checks_the_y_model(capsys, tmp_path):
    # d y = x1^3 has degree 12, not |y| + 1 = 8: formality must reject the
    # Y model up front, as cohomology does, and write no certificate
    path = tmp_path / "bad.rht"
    path.write_text(cli.SECTION4_WORKSPACE.replace("d y = x1*x2",
                                                   "d y = x1^3"))
    cert = tmp_path / "bad.cert"
    code, out, err = run_cli(capsys, "formality", str(path), "section4",
                             "--certificate-out", str(cert))
    assert code == 1
    assert out == ""
    assert err.startswith("error: invalid algebra: ")
    assert "d(y) is not homogeneous of degree |y|+1" in err
    assert not cert.exists()
    code, _, err = run_cli(capsys, "cohomology", str(path), "Y")
    assert code == 1
    assert "d(y) is not homogeneous of degree |y|+1" in err


INVALID_LIE_WS = """\
dgl L
truncation 12
basis u degree 3
basis v degree 4
basis w degree 7
bracket [u,v] = w
bracket [v,u] = w

problem p1 X=S2 Y=L p=2
"""


def test_invalid_lie_y_model_is_rejected_up_front(capsys, tmp_path):
    # [v,u] must be -[u,v] here; the tensor model and its cochains are built
    # on L unchecked, so without the hypothesis check this read FORMAL
    path = tmp_path / "lie.rht"
    path.write_text(INVALID_LIE_WS)
    cert = tmp_path / "lie.cert"
    for argv in (["formality", str(path), "p1", "--max-degree", "6",
                  "--certificate-out", str(cert)],
                 ["map-model", str(path), "p1"]):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err) == (
            1, "", "error: hypotheses violated: invalid Y model: "
            "[u,v] != -(-1)^(|u||v|) [v,u]\n")
    assert not cert.exists()


def test_designated_class_that_is_not_odd_and_closed_exits_1(capsys,
                                                             tmp_path):
    # X = S^3 x S^5: ab is an even basis class and zz no class at all, so
    # neither can be split off; without t= or with t=b the reduction runs
    path = tmp_path / "red.rht"
    path.write_text(REDUCTION_WS + "problem badt X=T Y=L p=8 t=ab\n"
                    "problem zzt X=T Y=L p=8 t=zz\n")
    for problem, t in (("badt", "ab"), ("zzt", "zz")):
        cert = tmp_path / ("%s.cert" % problem)
        for argv in (["formality", str(path), problem, "--max-degree", "22",
                      "--certificate-out", str(cert)],
                     ["map-model", str(path), problem]):
            code, out, err = run_cli(capsys, *argv)
            assert (code, out, err) == (
                1, "", "error: hypotheses violated: designated class %r is "
                "not odd and closed\n" % t)
        assert not cert.exists()
    for problem in ("red", "redt"):
        code, out, _ = run_cli(capsys, "map-model", str(path), problem)
        assert code == 0 and "warning" not in out


def test_lie_truncation_too_small_goes_through_main(capsys, tmp_path):
    path = tmp_path / "short.rht"
    path.write_text("dgl K\ntruncation 6\nbasis l degree 5\n\n"
                    "problem p1 X=S3 Y=K p=3\n")
    for command in ("map-model", "formality"):
        code, out, err = run_cli(capsys, command, str(path), "p1")
        assert (code, out, err) == (
            1, "", "error: L's truncation is too small for top degree 3\n")


FREE_ODD_X_WS = """\
algebra X
truncation 9
generator a degree 3
generator b degree 3
generator c degree 3

dgl K
truncation 30
basis l degree 11

problem big X=X Y=K p=9
"""


def test_x_model_basis_limit(capsys, tmp_path, monkeypatch):
    # X = Lambda(a3, b3, c3) has 2^3 = 8 basis elements
    path = tmp_path / "x.rht"
    path.write_text(FREE_ODD_X_WS)
    monkeypatch.setattr(dgl, "MAX_X_BASIS", 8)
    code, _, _ = run_cli(capsys, "map-model", str(path), "big")
    assert code == 0
    monkeypatch.setattr(dgl, "MAX_X_BASIS", 7)
    # the limit is checked before the X model is built
    monkeypatch.setattr(dgl.FiniteCdga, "from_free_odd", None)
    for argv in (["map-model", str(path), "big"],
                 ["formality", str(path), "big", "--max-degree", "8"]):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and out == ""
        assert err == "error: X model has 8 basis elements, above the " \
                      "limit 7\n"


def test_pipeline_rejects_non_positive_bound():
    from rht.formality import formality_pipeline
    from rht.workspace import parse_text
    prob = parse_text(NONFORMAL_WS).resolve_problem("thom")
    for N in (0, -2):
        with pytest.raises(ValueError):
            formality_pipeline(prob, N)


def test_corrupted_certificates_fail_replay(capsys, ws_file, tmp_path):
    cert = tmp_path / "nf.cert"
    run_cli(capsys, "formality", ws_file, "nonformal", "--max-degree", "20",
            "--certificate-out", str(cert))
    text = cert.read_text()
    bad = text.replace("witness z9_0_bar", "witness z5_0_bar")
    ok, info = replay_certificate_text(bad)
    assert not ok
    bad2 = text.replace("d z9_0 = z5_0*z5_1", "d z9_0 = 0")
    ok2, _ = replay_certificate_text(bad2)
    assert not ok2
    ok3, _ = replay_certificate_text("garbage")
    assert not ok3


def test_tampered_certificate_lines_fail_at_their_file_line(capsys, ws_file,
                                                           tmp_path):
    cert = tmp_path / "nf.cert"
    run_cli(capsys, "formality", ws_file, "nonformal", "--max-degree", "20",
            "--certificate-out", str(cert))
    text = cert.read_text()
    cases = [
        # the embedded target model: a bad term, and an invalid algebra
        ("d y = x1*x2", "d y = x1*q", 11, "unknown generator 'q'"),
        ("d y = x1*x2", "d y = y", 6, "invalid algebra: CheckReport(degree: "
         "d(y) is not homogeneous of degree |y|+1)"),
        # a d line and a rho line of the bigraded block
        ("d z9_0 = z5_0*z5_1", "d z9_0 = z5_0*q", 26,
         "unknown generator 'q'"),
        ("rho z5_0 = x1", "rho z5_0 = q", 35, "unknown generator 'q'"),
        ("rho z5_0 = x1", "d zz = z5_0", 35, "unknown generator 'zz'"),
        # a bigraded generator above the bound fails at its block header
        ("generator z18_2 degree 18", "generator z18_2 degree 30", 12,
         "d(z18_2) has degree 31 above truncation 21"),
        # a kind the parser does not know fails at the header
        ("rht-certificate bar-linearity-obstruction",
         "rht-certificate transfer", 1, "unknown certificate kind 'transfer'"),
    ]
    # a bar obstruction backs nonformal and nothing else
    cases += [("verdict nonformal", "verdict %s" % v, 2, "a bar-linearity-"
               "obstruction certificate backs verdict nonformal, not %r" % v)
              for v in ("formal", "bogus")]
    # the bound: at least 1, and its bound + 1 within the target model
    cases += [("bound 20", "bound %s" % b, 3, "bound %s is not in 1..23 "
               "(the model is truncated at 24)" % b) for b in ("0", "40")]
    for old, new, line, message in cases:
        assert old in text
        ok, info = replay_certificate_text(text.replace(old, new, 1))
        assert (ok, info) == (False, "parse failure: line %d: %s"
                              % (line, message))
    # the same bound rule for the other two kinds, at the bound line
    k7, thom = tmp_path / "k7.cert", tmp_path / "thom.cert"
    run_cli(capsys, "reproduce-section4", "--max-degree", "7",
            "--certificate-out", str(k7))
    run_cli(capsys, "formality", ws_file, "thom", "--max-degree", "12",
            "--certificate-out", str(thom))
    # and both back formal only, at the verdict line
    k8 = tmp_path / "k8.cert"
    run_cli(capsys, "reproduce-section4", "--max-degree", "8",
            "--certificate-out", str(k8))
    for path, kind, bad in ((k8, "koszul-regular-sequence",
                             ("nonformal", "unknown", "bogus")),
                            (thom, "free-cohomology", ("nonformal",))):
        text = path.read_text()
        for v in bad:
            ok, info = replay_certificate_text(
                text.replace("verdict formal", "verdict " + v, 1))
            assert (ok, info) == (
                False, "parse failure: line 2: a %s certificate backs "
                "verdict formal, not %r" % (kind, v))
    for path, bound, top, bad in ((k7, 7, 25, ("0", "-1", "26", "50")),
                                  (thom, 12, 12, ("0", "-1", "13"))):
        text = path.read_text()
        for b in bad:
            ok, info = replay_certificate_text(
                text.replace("bound %d" % bound, "bound " + b, 1))
            assert (ok, info) == (
                False, "parse failure: line 3: bound %s is not in 1..%d "
                "(the model is truncated at %d)" % (b, top, top + 1))




def test_tampered_bar_obstruction_fields_keep_their_outcomes(capsys, ws_file,
                                                             tmp_path):
    cert = tmp_path / "nf.cert"
    run_cli(capsys, "formality", ws_file, "nonformal", "--max-degree", "20",
            "--certificate-out", str(cert))
    text = cert.read_text()
    last_gen = "generator z18_2 degree 18 lower 1\n"
    # p and the bigraded block must admit a barred model: each violation is
    # a parse failure at the block header, line 12
    cases = [
        ("p 3\n", "p 0\n", "p must be >= 1"),
        ("p 3\n", "p 5\n", "generator degrees must exceed p"),
        (last_gen, last_gen + "generator z99 degree 21 lower 0\n",
         "suspension needs the full differential of Y (truncated: ['z99'])"),
        (last_gen, last_gen + "generator z5_0_bar degree 5 lower 0\n",
         "bar name collision for 'z5_0'"),
        ("d z13_0 = z5_0*z9_0\n", "d z13_0 = z5_0*z9_0 + z14_0\n",
         "suspension model needs a minimal Sullivan algebra"),
    ]
    for old, new, message in cases:
        assert old in text
        ok, info = replay_certificate_text(text.replace(old, new, 1))
        assert (ok, info) == (False, "parse failure: line 12: " + message)
    # an even p and a witness that is not barred parse, and fail replay
    for old, new in (("p 3\n", "p 4\n"),
                     ("witness z9_0_bar\n", "witness z9_0\n")):
        assert old in text
        assert replay_certificate_text(text.replace(old, new, 1)) == (
            False, "bar-linearity-obstruction certificate FAILED replay")
    # another even barred generator of positive lower degree is a witness too
    assert replay_certificate_text(
        text.replace("witness z9_0_bar\n", "witness z13_0_bar\n", 1)) == (
        True, "bar-linearity-obstruction certificate replayed")


# Y = K(Q,3)^3 has free cohomology, so F(S^1, Y) is formal; this certificate
# claims NONFORMAL through rho images of the wrong degrees
FORGED_RHO_CERT = """\
rht-certificate bar-linearity-obstruction
verdict nonformal
bound 7
p 1
witness z_bar
algebra target_model
truncation 10
generator a degree 3
generator b degree 3
generator c degree 3
bigraded base
generator u degree 3 lower 0
generator v degree 3 lower 0
generator w degree 3 lower 0
generator e degree 6 lower 0
generator z degree 5 lower 1
d z = u*v
rho u = b
rho v = a*b
rho w = c
rho e = b
end-bigraded
"""


def test_rho_images_fail_at_their_line_unless_of_their_generators_degree(
        capsys, tmp_path):
    ws = tmp_path / "k3.rht"
    ws.write_text("algebra K\ntruncation 10\ngenerator a degree 3\n"
                  "generator b degree 3\ngenerator c degree 3\n\n"
                  "problem k X=S1 Y=K p=1\n")
    code, out, _ = run_cli(capsys, "formality", str(ws), "k",
                           "--max-degree", "7", "--certificate-out",
                           str(tmp_path / "k.cert"))
    assert code == 0 and "FORMAL" in out
    cases = [(FORGED_RHO_CERT, 19, "rho v has degree 6, but v has degree 3")]
    # the c = -5/6 certificate at N = 16, with one rho line changed
    ws.write_text(NONFORMAL_WS.replace("d y = x1*x2", "d y = -5/6*x1*x2"))
    cert = tmp_path / "c.cert"
    run_cli(capsys, "formality", str(ws), "nonformal", "--max-degree", "16",
            "--certificate-out", str(cert))
    text = cert.read_text()
    old = "rho z14_0 = x1*y\n"
    assert text.splitlines().index(old.strip()) == 24
    for image, message in (
            ("3", "rho z14_0 has degree 0, but z14_0 has degree 14"),
            ("x1", "rho z14_0 has degree 5, but z14_0 has degree 14"),
            ("0", "rho z14_0 = 0: a generator that rho kills has no rho "
                  "line")):
        cases.append((text.replace(old, "rho z14_0 = %s\n" % image), 25,
                       message))
    bad = tmp_path / "bad.cert"
    for forged, line, message in cases:
        bad.write_text(forged)
        code, out, _ = run_cli(capsys, "verify-certificate", str(bad))
        assert (code, out) == (1, "parse failure: line %d: %s\n"
                               % (line, message))
        assert forged.splitlines()[line - 1].startswith("rho ")


# produced before the connectivity m was read off Y, from
# `problem b X=S3 Y=Y p=3 m=10` on the section-4 Y at N = 16: its target
# model has generators of degree 4 < p + 2, so m = 3 < p + 1 and the
# theorem the certificate rests on does not apply
UNDERCONNECTED_CERT = """\
rht-certificate bar-linearity-obstruction
verdict nonformal
bound 16
p 3
witness z7_0_bar
algebra target_model
truncation 26
generator x1 degree 4
generator x2 degree 4
generator y degree 7
d y = x1*x2
bigraded base
generator z4_0 degree 4 lower 0
generator z4_1 degree 4 lower 0
generator z7_0 degree 7 lower 1
d z7_0 = z4_0*z4_1
rho z4_0 = x1
rho z4_1 = x2
end-bigraded
"""


def test_bar_obstruction_replay_checks_the_connectivity(capsys, tmp_path):
    bad = tmp_path / "m10.cert"
    bad.write_text(UNDERCONNECTED_CERT)
    code, out, _ = run_cli(capsys, "verify-certificate", str(bad))
    assert (code, out) == (
        1, "bar-linearity-obstruction certificate FAILED replay\n")
    # over the 1-sphere, m = 3 >= p + 1 holds, and the same block replays
    assert replay_certificate_text(UNDERCONNECTED_CERT.replace(
        "p 3\n", "p 1\n")) == (
        True, "bar-linearity-obstruction certificate replayed")


TWIN_WS = """\
algebra Y
truncation 12
generator a degree 3
generator b degree 3
generator c degree 5
generator e degree 6
d c = a*b

problem twin X=S1 Y=Y p=1
"""

# produced when a free-cohomology verdict was a rank count: up to degree 7
# the twin's model has the ranks of the free algebra on 2, 2, 3, 3, 7, 7,
# but d(c_bar) != 0, and by the theorem F(S1, Y) is not formal
RANK_COUNT_TWIN_CERT = """\
rht-certificate free-cohomology
verdict formal
bound 7
free-generators 2 2 3 3 7 7
algebra model
truncation 12
generator a degree 3
generator b degree 3
generator c degree 5
generator e degree 6
generator a_bar degree 2
generator b_bar degree 2
generator c_bar degree 4
generator e_bar degree 5
d c = a*b
d c_bar = a*b_bar - b*a_bar
"""


def test_twin_verdicts_follow_the_theorem(capsys, tmp_path):
    # Y = Lambda(a3, b3, c5, e6), d c = ab, has d != 0, so F(S1, Y) is not
    # formal: FORMAL only while d = 0 on the model (N <= 3), UNKNOWN until
    # the bigraded model holds a witness, then NONFORMAL, and every
    # certificate replays
    ws = tmp_path / "twin.rht"
    ws.write_text(TWIN_WS)
    want = {0: "FORMAL", 2: "UNKNOWN", 3: "NONFORMAL"}
    for N in range(1, 12):
        cert = tmp_path / ("twin%d.cert" % N)
        code, out, _ = run_cli(capsys, "formality", str(ws), "twin",
                               "--max-degree", str(N),
                               "--certificate-out", str(cert))
        assert code == (0 if N <= 3 else 2 if N <= 5 else 3), N
        assert ": %s\n" % want[code] in out
        assert cert.exists() == (code != 2)
        if code != 2:
            assert run_cli(capsys, "verify-certificate", str(cert))[0] == 0


def test_rank_count_certificate_of_the_twin_fails_replay(capsys, tmp_path):
    bad = tmp_path / "twin7.cert"
    for degrees in ("2 2 3 3 7 7", "2 2 3 3 4 5 5 6"):
        bad.write_text(RANK_COUNT_TWIN_CERT.replace("2 2 3 3 7 7", degrees))
        code, out, _ = run_cli(capsys, "verify-certificate", str(bad))
        assert (code, out) == (1, "free-cohomology certificate FAILED replay\n")
    # with d = 0 the listed degrees are the witness
    good = RANK_COUNT_TWIN_CERT.replace(
        "d c = a*b\nd c_bar = a*b_bar - b*a_bar\n", "").replace(
        "2 2 3 3 7 7", "2 2 3 3 4 5 5 6")
    assert replay_certificate_text(good) == (
        True, "free-cohomology certificate replayed")


ODD_WS = """\
algebra Y
truncation 24
generator x1 degree 5
generator x2 degree 5
generator y degree 9
d y = x1*x2

problem odd X=S3 Y=Y p=3
"""


@pytest.mark.parametrize("kind, argv, workspace", [
    ("koszul-regular-sequence", ["reproduce-section4", "--max-degree", "16"],
     None),
    ("free-cohomology", ["formality", "WS", "thom", "--max-degree", "12"],
     NONFORMAL_WS),
    ("bar-linearity-obstruction", ["formality", "WS", "odd", "--max-degree",
                                   "20"], ODD_WS),
    ("bar-linearity-obstruction", ["formality", "WS", "red", "--max-degree",
                                   "22"], REDUCTION_WS),
], ids=["section4", "thom", "odd", "red"])
def test_certificates_print_back_byte_for_byte(capsys, tmp_path, kind, argv,
                                               workspace):
    # parsing a certificate and printing it again gives the same bytes,
    # rho lines included
    if workspace is not None:
        ws = tmp_path / "work.rht"
        ws.write_text(workspace)
        argv = [str(ws) if a == "WS" else a for a in argv]
    cert = tmp_path / "c.cert"
    run_cli(capsys, *argv, "--certificate-out", str(cert))
    text = cert.read_text()
    assert ("\nrho " in text) == (kind == "bar-linearity-obstruction")
    verdict = parse_certificate(text)
    assert verdict.certificate.kind == kind
    assert serialize_verdict(verdict) == text
