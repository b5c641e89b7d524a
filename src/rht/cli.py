"""Command-line front end.

Subcommands: parse, cohomology, map-model, formality, reproduce-section4,
verify-certificate.  Exit codes: 0 success/Formal, 1 validation error,
2 Unknown, 3 NonFormal.  RHT_MAX_DEGREE overrides the default bound.
"""

import argparse
import json
import os
import sys

from .gca import Cdga, TruncationError
from .dgl import DglError
from .mapmodel import check_hypotheses
from .quotient import ModelCohomology
from .formality import (formality_pipeline, mapping_space_model,
                        regular_sequence_check, koszul_sequence, FORMAL,
                        NONFORMAL)
from .workspace import (parse_path, parse_text, print_algebra, print_dgl,
                        WorkspaceError)
from .certificates import serialize_verdict, replay_certificate_text, \
    CertificateError

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_UNKNOWN = 2
EXIT_NONFORMAL = 3

DEFAULT_MAX_DEGREE = 16

SECTION4_WORKSPACE = """\
# the explicit example: Y = K(Q,4) v K(Q,4), X = the 2-sphere
algebra Y
truncation 26
generator x1 degree 4
generator x2 degree 4
generator y degree 7
d y = x1*x2

problem section4 X=S2 Y=Y p=2
"""


def default_max_degree():
    env = os.environ.get("RHT_MAX_DEGREE")
    if env:
        try:
            value = int(env)
            if value < 1:
                raise ValueError
            return value
        except ValueError:
            raise ValueError("RHT_MAX_DEGREE must be a positive integer")
    return DEFAULT_MAX_DEGREE


def raise_truncation(cdga, needed):
    """The algebra, checked, with its truncation raised to at least needed."""
    if cdga.truncation < needed:
        if cdga.truncated_gens:
            raise ValueError(
                "algebra truncation %d is below %d and the differential is "
                "incomplete; raise 'truncation' in the file"
                % (cdga.truncation, needed))
        cdga = Cdga(cdga.generators, cdga.differential.images, needed)
    report = cdga.check()
    if not report:
        raise ValueError("invalid algebra: %s" % report)
    return cdga


def emit(payload, fmt, table_lines):
    if fmt == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in table_lines:
            print(line)


def cmd_parse(args):
    ws = parse_path(args.file)
    for name, alg in ws.algebras.items():
        report = alg.check()
        if not report:
            print("algebra %s: INVALID (%s)" % (name, report))
            return EXIT_VALIDATION
        sys.stdout.write(print_algebra(alg, name))
        print()
    for name, dgl in ws.dgls.items():
        report = dgl.validate()
        if not report:
            print("dgl %s: INVALID (%s)" % (name, report))
            return EXIT_VALIDATION
        sys.stdout.write(print_dgl(dgl, name))
        print()
    for name, decl in ws.problems.items():
        extras = ""
        if decl.t:
            extras += " t=%s" % decl.t
        print("problem %s X=%s Y=%s p=%d%s"
              % (name, decl.x_spec, decl.y_spec, decl.p, extras))
    return EXIT_OK


def cmd_cohomology(args):
    ws = parse_path(args.file)
    if args.algebra not in ws.algebras:
        raise ValueError("unknown algebra %r" % args.algebra)
    N = args.max_degree
    alg = raise_truncation(ws.algebras[args.algebra], N + 1)
    ranks = [alg.cohomology(n)[0] for n in range(0, N + 1)]
    payload = {"command": "cohomology", "algebra": args.algebra,
               "max_degree": N, "ranks": ranks}
    lines = ["cohomology of %s up to degree %d" % (args.algebra, N),
             "degree rank"]
    lines += ["%6d %4d" % (n, r) for n, r in enumerate(ranks)]
    emit(payload, args.format, lines)
    return EXIT_OK


def cmd_map_model(args):
    ws = parse_path(args.file)
    if args.problem not in ws.problems:
        raise ValueError("unknown problem %r" % args.problem)
    prob = ws.resolve_problem(args.problem)
    hyp = check_hypotheses(prob)
    if not hyp.ok:
        raise ValueError("hypotheses violated: %s" % "; ".join(hyp.messages))
    model, _, lie = mapping_space_model(prob)
    if lie is None:
        note = ("suspension model with d(Sv) = (-1)^p S(dv), p = %d"
                % prob.p)
    else:
        note = "tensor model cochains"
    warnings = [] if hyp.t is not None else \
        ["warning: X carries no odd closed class (the even-p path)"]
    payload = {"command": "map-model", "problem": args.problem,
               "route": note,
               "generators": [{"name": n, "degree": model.gen_degree(n)}
                              for n in model.names],
               "differential": {n: model.poly_str(img) for n, img in
                                model.differential.images.items() if img},
               "warnings": warnings}
    lines = ["# model of F(X, Y) for problem %s (%s)" % (args.problem, note)]
    lines += warnings
    lines.append(print_algebra(model, "model_%s" % args.problem).rstrip("\n"))
    if lie is not None:
        lines.append("")
        lines.append("# underlying Lie model")
        lines.append(print_dgl(lie, "lie_%s" % args.problem).rstrip("\n"))
    emit(payload, args.format, lines)
    return EXIT_OK


def run_formality(prob, N, fmt, cert_out, problem_label):
    verdict = formality_pipeline(prob, N)
    cert_path = None
    if verdict.certificate is not None:
        cert_path = cert_out or ("%s.cert" % problem_label)
        with open(cert_path, "w", encoding="utf-8") as fh:
            fh.write(serialize_verdict(verdict))
    payload = {"command": "formality", "problem": problem_label,
               "max_degree": N, "verdict": verdict.verdict,
               "certificate": getattr(verdict.certificate, "kind", None),
               "certificate_path": cert_path,
               "notes": verdict.notes}
    lines = ["formality of F(X, Y) for problem %s at N = %d: %s"
             % (problem_label, N, verdict.verdict.upper())]
    if verdict.certificate is not None:
        lines.append("certificate: %s -> %s"
                     % (verdict.certificate.kind, cert_path))
    lines += ["note: %s" % s for s in verdict.notes]
    emit(payload, fmt, lines)
    if verdict.verdict == FORMAL:
        return EXIT_OK
    if verdict.verdict == NONFORMAL:
        return EXIT_NONFORMAL
    return EXIT_UNKNOWN


def cmd_formality(args):
    ws = parse_path(args.file)
    if args.problem not in ws.problems:
        raise ValueError("unknown problem %r" % args.problem)
    prob = ws.resolve_problem(args.problem)
    if prob.y_cdga is not None:
        prob.y_cdga = raise_truncation(prob.y_cdga, args.max_degree + 1)
    return run_formality(prob, args.max_degree, args.format,
                         args.certificate_out, args.problem)


def cmd_reproduce_section4(args):
    ws = parse_text(SECTION4_WORKSPACE)
    prob = ws.resolve_problem("section4")
    N = args.max_degree
    prob.y_cdga = raise_truncation(prob.y_cdga, max(N, 20) + 1)
    model, _, _ = mapping_space_model(prob, N)
    print("# the mapping-space model (barred degrees 2, 2, 5):")
    sys.stdout.write(print_algebra(model, "F_S2_Y"))
    H = ModelCohomology(prob.y_cdga, min(N, 24))
    print("# H^*(Y) ranks up to %d: %s" % (min(N, 24), H.ranks()))
    even_alg, seq, _ = koszul_sequence(model)
    ok, _ = regular_sequence_check(even_alg, seq, 20)
    print("# regular sequence (%s) up to degree 20: %s"
          % (", ".join(even_alg.poly_str(f) for f in seq),
             "yes" if ok else "NO"))
    if not ok:
        return EXIT_VALIDATION
    return run_formality(prob, N, args.format, args.certificate_out,
                         "section4")


def cmd_verify_certificate(args):
    try:
        with open(args.certificate, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        print("cannot read certificate: %s" % exc, file=sys.stderr)
        return EXIT_VALIDATION
    ok, info = replay_certificate_text(text)
    print(info)
    return EXIT_OK if ok else EXIT_VALIDATION


# name: (help, handler, positional arguments, options), in the order the
# full parser lists them
COMMANDS = {
    "parse": ("validate a workspace file and echo it", cmd_parse,
              ("file",), ()),
    "cohomology": ("degreewise cohomology ranks", cmd_cohomology,
                   ("file", "algebra"), ("--max-degree", "--format")),
    "map-model": ("print the model of F(X, Y)", cmd_map_model,
                  ("file", "problem"), ("--format",)),
    "formality": ("decide and certify formality", cmd_formality,
                  ("file", "problem"),
                  ("--max-degree", "--format", "--certificate-out")),
    "reproduce-section4": ("run the built-in explicit example end to end",
                           cmd_reproduce_section4, (),
                           ("--max-degree", "--format", "--certificate-out")),
    "verify-certificate": ("replay a certificate file", cmd_verify_certificate,
                           ("certificate",), ()),
}

OPTIONS = {
    "--max-degree": {"type": int, "default": None},
    "--format": {"choices": ("table", "json"), "default": "table"},
    "--certificate-out": {"default": None},
}


def add_command_arguments(parser, name):
    """The arguments and handler of subcommand name, added to parser."""
    _, func, positionals, options = COMMANDS[name]
    for arg in positionals:
        parser.add_argument(arg)
    for opt in options:
        parser.add_argument(opt, **OPTIONS[opt])
    parser.set_defaults(func=func)


def make_parser():
    parser = argparse.ArgumentParser(
        prog="rht",
        description="exact-arithmetic mapping-space models and formality "
                    "certificates")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _, _, _) in COMMANDS.items():
        add_command_arguments(sub.add_parser(name, help=help_text), name)
    return parser


def parse_args(argv):
    """The arguments of argv, parsed as make_parser() parses them.

    Each argparse parser costs a terminal-size query per argument, so a
    named subcommand gets a parser of its own, with the prog, usage, help
    and errors of its subparser in the full one.  The full parser is built
    for top-level help, for no or an unknown command, and to report the
    arguments the subcommand leaves over, which it reports with its own
    usage."""
    name = argv[0] if argv else None
    if name not in COMMANDS:
        return make_parser().parse_args(argv)
    parser = argparse.ArgumentParser(prog="rht %s" % name)
    add_command_arguments(parser, name)
    parser.set_defaults(command=name)
    args, extra = parser.parse_known_args(argv[1:])
    if extra:
        return make_parser().parse_args(argv)
    return args


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    try:
        if hasattr(args, "max_degree"):
            if args.max_degree is None:
                args.max_degree = default_max_degree()
            elif args.max_degree < 1:
                raise ValueError("--max-degree must be a positive integer")
        return args.func(args)
    except (WorkspaceError, ValueError, TruncationError, CertificateError,
            DglError, KeyError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
