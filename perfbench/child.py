"""One step of a benchmark operation, run in a fresh interpreter.

    child.py produce --workload W --coef C --max-degree N [--lie-truncation T]
                     --dir DIR [--spans FILE]
    child.py replay --dir DIR [--spans FILE]

``produce`` builds the workload input, then produces the verdict and writes
its certificate to DIR/cert.txt; ``replay`` replays that certificate with
``rht verify-certificate``.  Sullivan-route workloads go through
``rht.cli.main`` in-process, as the ``rht`` command does; the Lie route calls
the library in the order ``rht formality`` does, since the workspace format
cannot express its X.  The last line of standard output is a JSON object
with the timings (``time.monotonic`` is system-wide, so the parent can
subtract its spawn time from ``ready``), the outcome and the peak RSS.
``--spans FILE`` traces the run and writes the spans to FILE.  Library
functions are looked up on their modules at call time, so that the tracer
can replace them after import.
"""

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time
from fractions import Fraction

import rht.cli

import workloads


def lie_x_model(c):
    """Finite model of X = S^3 x S^2 with t*x = c*tx."""
    zero_products = [("x", "x"), ("t", "t"), ("t", "tx"), ("tx", "t"),
                     ("x", "tx"), ("tx", "x"), ("tx", "tx")]
    mult = {("t", "x"): {"tx": c}, ("x", "t"): {"tx": c}}
    mult.update({pair: {} for pair in zero_products})
    return rht.dgl.FiniteCdga([("1", 0), ("x", 2), ("t", 3), ("tx", 5)], "1",
                              mult)


def produce(args, tracer):
    wl = workloads.WORKLOADS[args.workload]
    c = Fraction(args.coef)
    cert_path = os.path.join(args.dir, "cert.txt")
    if wl.route == workloads.SULLIVAN:
        ws_path = os.path.join(args.dir, "input.ws")
        with open(ws_path, "w", encoding="utf-8") as fh:
            fh.write(workloads.sullivan_workspace(wl, c))
        ready = time.monotonic()
        out = io.StringIO()
        start = time.perf_counter()
        with tracer.span("op.produce"), contextlib.redirect_stdout(out):
            code = rht.cli.main(
                ["formality", ws_path, wl.problem, "--max-degree",
                 str(args.max_degree), "--format", "json",
                 "--certificate-out", cert_path])
        elapsed = time.perf_counter() - start
        try:
            payload = json.loads(out.getvalue())
        except ValueError:
            payload = {}
        return {"ready": ready, "elapsed": elapsed, "exit": code,
                "verdict": payload.get("verdict"),
                "kind": payload.get("certificate"),
                "notes": payload.get("notes", [])}

    x_model = lie_x_model(c)
    ready = time.monotonic()
    start = time.perf_counter()
    with tracer.span("op.produce"):
        L = rht.dgl.free_lie(workloads.LIE_GENERATORS, args.lie_truncation)
        prob = rht.mapmodel.MapSpaceProblem(x_model, workloads.LIE_P,
                                            y_dgl=L, t=workloads.LIE_T)
        verdict = rht.formality.formality_pipeline(prob, args.max_degree)
        kind = None
        if verdict.certificate is not None:
            kind = verdict.certificate.kind
            with open(cert_path, "w", encoding="utf-8") as fh:
                fh.write(rht.certificates.serialize_verdict(verdict))
    elapsed = time.perf_counter() - start
    return {"ready": ready, "elapsed": elapsed, "exit": None,
            "verdict": verdict.verdict, "kind": kind, "notes": verdict.notes}


def replay(args, tracer):
    ready = time.monotonic()
    out = io.StringIO()
    start = time.perf_counter()
    with tracer.span("op.replay"), contextlib.redirect_stdout(out):
        code = rht.cli.main(["verify-certificate",
                             os.path.join(args.dir, "cert.txt")])
    elapsed = time.perf_counter() - start
    return {"ready": ready, "elapsed": elapsed, "exit": code,
            "output": out.getvalue()}


def peak_rss_kb():
    """Peak resident set size of this process in KiB.

    VmHWM belongs to the address space exec created; ru_maxrss would also
    count the parent's resident size at fork time.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class _NoTracer:
    @contextlib.contextmanager
    def span(self, name):
        yield


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("role", choices=("produce", "replay"))
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--coef", default="1")
    parser.add_argument("--max-degree", type=int)
    parser.add_argument("--lie-truncation", type=int)
    parser.add_argument("--dir", required=True)
    parser.add_argument("--spans")
    args = parser.parse_args()

    tracer = _NoTracer()
    if args.spans:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    result = (produce if args.role == "produce" else replay)(args, tracer)
    if args.spans:
        tracer.dump(args.spans)
    result["rss_kb"] = peak_rss_kb()
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
