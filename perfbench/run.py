"""Benchmark of ``rht``: time to a formality verdict and to its replay.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest      # every workload once, desk scale
    python3 perfbench/run.py --scaling       # cost against N, not gated

Run it from the root of a source checkout; it imports ``rht`` from ``src``.
It is a closed loop with one client: one operation at a time, each
"produce a verdict and its certificate, then replay that certificate".
Produce and replay each run in a fresh interpreter, because a user of the
``rht`` command pays one process per command and the library's caches live
on instances; work carried across operations in a process would not show
for them.  Every operation is checked against the workload's oracle.

With ``--trace 0`` the run measures, as medians:

* ``verdict_s``: input text (or Lie presentation) to verdict with its
  certificate written, over the run's operations;
* ``replay_s``: replaying that certificate (``Workload.replays`` times,
  each in a fresh process), over all replays;
* ``setup_s``: child-process start to input ready (interpreter start,
  ``import rht``, building the input), over produce and replay processes;
* ``peak_rss_mb``: the larger peak RSS of the produce and replay processes,
  over operations.

``verdict_s`` and ``replay_s`` are scaled to a reference host speed.  The
benchmark runs on shared hosts whose neighbours slow exact arithmetic by
20-100 % for seconds to minutes at a time, so raw times of the same code
drift from run to run by more than any change worth measuring.  Before each
child process starts, and once after the last, this process (idle
otherwise) times a fixed exact-arithmetic kernel, ``reference_kernel``,
which no change to ``rht`` can touch.  Each produce or replay time is
multiplied by ``REFERENCE_S`` over the mean of the kernel times just before
and just after it.  ``setup_s`` is not scaled: process start and imports
slow less than the kernel does, and scaling made them noisier.  The report
lines also give the raw median and the highest of the 75th, 90th and 99th
percentiles that has ten samples above it.

With ``--trace 1`` the run alternates traced and untraced operations.  The
traced ones wrap the public functions of every layer (see ``tracer.py``)
and give the per-layer self times and counts; the difference between the
raw median verdict times of traced and untraced operations is the tracing
overhead.  End-to-end
numbers come only from untraced operations.

The seed picks the input (see ``workloads.coefficient``).  Compare two
versions of ``rht`` on the same seeds.  Each certificate's sha256 is compared
with the digest pinned in ``digests.json`` for its workload and coefficient
(every coefficient a seed can draw is pinned); a change is reported, not
counted as a failure.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the
lines before it describe the environment, each operation and every metric
with its unit.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Time of ``reference_kernel`` at the reference host speed: about its
# fastest on a 2-vCPU VM with Python 3.11.
REFERENCE_S = 0.020

# A child still running this many seconds after its run began is killed
# and counted as failed, so that a run ends within three minutes.
DEADLINE_S = 170

END_TO_END = (("verdict_s", "s"), ("replay_s", "s"), ("setup_s", "s"),
              ("peak_rss_mb", "MB"))

# Per-layer metrics of a traced operation (produce plus replay), read from
# the tracer's summary ("<span>.self_s", "<span>.calls" and its counts);
# "<span>.useful_ratio" and "<span>.hit_ratio" divide a count by the calls.
PER_LAYER = (
    ("linalg.row_echelon.self_s", "s"),
    ("linalg.row_echelon.calls", "count"),
    ("linalg.row_echelon.cells", "count"),
    ("linalg.kernel_basis.self_s", "s"),
    ("linalg.solve.calls", "count"),
    ("linalg.EchelonSpan.add.self_s", "s"),
    ("linalg.EchelonSpan.add.useful_ratio", "ratio"),
    ("gca.Cdga.cohomology.self_s", "s"),
    ("gca.Cdga.d_matrix.self_s", "s"),
    ("gca.Cdga.d_matrix.nnz", "count"),
    ("gca.Cdga.class_coordinates.calls", "count"),
    ("gca.FreeGCA.degree_basis.self_s", "s"),
    ("gca.FreeGCA.degree_basis.calls", "count"),
    ("gca.FreeGCA.degree_basis.hit_ratio", "ratio"),
    ("gca.FreeGCA.degree_basis_position.calls", "count"),
    ("gca.FreeGCA.apply_derivation.self_s", "s"),
    ("gca.FreeGCA.multiply.calls", "count"),
    ("gca.FreeGCA.poly_str.self_s", "s"),
    ("quotient.QuotientRing.rank.self_s", "s"),
    ("quotient.QuotientRing.multiplication_matrix.self_s", "s"),
    ("quotient.QuotientRing.reduce.calls", "count"),
    ("quotient.ModelCohomology.poly_class.calls", "count"),
    ("formality.regular_sequence_check.self_s", "s"),
    ("formality.RhoMorphism.is_quasi_iso.self_s", "s"),
    ("formality.free_cohomology_check.self_s", "s"),
    ("formality.bigraded_model.self_s", "s"),
    ("formality.barred_bigraded_model.self_s", "s"),
    ("formality.lemma36_scan.self_s", "s"),
    ("formality.bigraded_generators", "count"),
    ("formality.barred_generators", "count"),
    ("dgl.free_lie.self_s", "s"),
    ("dgl.Dgl.validate.self_s", "s"),
    ("dgl.Dgl.bracket_lin.calls", "count"),
    ("dgl.tensor_map_model.self_s", "s"),
    ("dgl.lie_basis_size", "count"),
    ("cefunctor.ce_cochains.self_s", "s"),
    ("cefunctor.ce_cochains.calls", "count"),
    ("cefunctor.ce_cochains.generators", "count"),
    ("mapmodel.reduce_to_odd_sphere.self_s", "s"),
    ("mapmodel.suspension_model.self_s", "s"),
    ("mapmodel.check_hypotheses.self_s", "s"),
    ("certificates.serialize_verdict.self_s", "s"),
    ("certificates.parse_certificate.self_s", "s"),
    ("certificates.cert_bytes", "count"),
    ("workspace.parse_text.self_s", "s"),
    ("workspace.print_algebra.self_s", "s"),
    ("cli.main.self_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.bookkeeping_s", "s"),
    ("trace.hot_share", "share"),
)


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


class Context:
    """One workload at one size and seed, with a scratch directory."""

    def __init__(self, wl, seed, max_degree, lie_truncation, workdir,
                 deadline=None):
        self.wl = wl
        self.seed = seed
        self.coef = workloads.coefficient(seed)
        self.max_degree = max_degree
        self.lie_truncation = lie_truncation
        self.workdir = workdir
        self.deadline = deadline
        self.env = child_environment()
        # reference_kernel times: one before each child process, one at the end
        self.kernel_s = []

    def spawn(self, args):
        """Run child.py; (result dict or None, error text, spawn time)."""
        self.kernel_s.append(reference_kernel())
        cmd = [sys.executable, str(HERE / "child.py")] + args
        timeout = None
        if self.deadline is not None:
            timeout = max(1.0, self.deadline - time.monotonic())
        spawned = time.monotonic()
        try:
            proc = subprocess.run(cmd, env=self.env, capture_output=True,
                                  text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            return None, "timed out after %.0f s" % timeout, spawned
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
            return None, "child exit %d: %s" % (proc.returncode, tail[0]), \
                spawned
        return json.loads(lines[-1]), None, spawned


def reference_kernel():
    """Seconds to row-reduce a fixed 18 x 22 matrix of small integers over
    the rationals, the kind of work ``rht`` spends its time on."""
    start = time.perf_counter()
    state, rows = 12345, []
    for _ in range(18):
        row = []
        for _ in range(22):
            state = (state * 1103515245 + 12345) % 2 ** 31
            row.append(Fraction((state >> 16) % 19 - 9))
        rows.append(row)
    rank = 0
    for col in range(22):
        pivot = next((i for i in range(rank, 18) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inverse = 1 / rows[rank][col]
        rows[rank] = [v * inverse for v in rows[rank]]
        for i in range(18):
            if i != rank and rows[i][col]:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
        if rank == 18:
            break
    return time.perf_counter() - start


def child_environment():
    """Environment of every child: ``rht`` from ``src``, a fixed hash seed,
    and bytecode caching on, as for an installed package, so that set-up
    time does not include compiling ``rht``."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    path = [str(ROOT / "src")]
    if env.get("PYTHONPATH"):
        path.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(path)
    env["PYTHONHASHSEED"] = "0"
    return env


def prepare():
    """Check that this is a source checkout and compile ``rht`` once."""
    if not (ROOT / "src" / "rht" / "__init__.py").is_file():
        raise BenchError("no rht sources under %s" % (ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", "import rht.cli"],
                          env=child_environment(), capture_output=True,
                          text=True, timeout=120)
    if proc.returncode != 0:
        raise BenchError("cannot import rht: %s"
                         % (proc.stderr.strip().splitlines() or ["?"])[-1])


def git_commit():
    """Commit of the checkout if it is a git work tree, else "unknown"."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(ctx, seconds, trace):
    return {"python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "nproc": len(os.sched_getaffinity(0)),
            "host": platform.node(), "machine": platform.machine(),
            "commit": git_commit(), "workload": ctx.wl.name,
            "seed": ctx.seed, "coefficient": str(ctx.coef),
            "max_degree": ctx.max_degree,
            "lie_truncation": ctx.lie_truncation,
            "seconds": seconds, "trace": trace}


def pinned_digest(ctx):
    wl = ctx.wl
    if ctx.max_degree != wl.max_degree or \
            ctx.lie_truncation != wl.lie_truncation:
        return None
    with open(HERE / "digests.json", encoding="utf-8") as fh:
        return json.load(fh).get(wl.name, {}).get(str(ctx.coef))


# -- one operation ------------------------------------------------------------

def run_op(ctx, index, traced):
    """Produce and check once, then replay and check (``wl.replays`` times
    when untraced, each in a fresh process); a dict describing the op."""
    opdir = Path(ctx.workdir) / ("op%d" % index)
    opdir.mkdir()
    op = {"index": index, "traced": traced, "problems": []}
    args = ["produce", "--workload", ctx.wl.name, "--coef=%s" % ctx.coef,
            "--max-degree", str(ctx.max_degree), "--dir", str(opdir)]
    if ctx.lie_truncation is not None:
        args += ["--lie-truncation", str(ctx.lie_truncation)]
    spans = [str(opdir / "produce.spans"), str(opdir / "replay.spans")]
    produced, error, spawned = ctx.spawn(
        args + (["--spans", spans[0]] if traced else []))
    if produced is None:
        op["problems"].append("produce: %s" % error)
        op["timeout"] = "timed out" in error
        return op
    op["verdict_s"] = produced["elapsed"]
    op["verdict_k"] = len(ctx.kernel_s) - 1
    op["setup_s"] = [produced["ready"] - spawned]
    op["rss_kb"] = produced["rss_kb"]
    cert = opdir / "cert.txt"
    text = cert.read_text(encoding="utf-8") if cert.is_file() else None
    op["problems"] += workloads.check_produce(ctx.wl, produced, text)
    if text is not None:
        op["digest"] = hashlib.sha256(text.encode("utf-8")).hexdigest()
        op["replay_s"], op["replay_k"] = [], []
        for _ in range(1 if traced else ctx.wl.replays):
            replayed, error, spawned = ctx.spawn(
                ["replay", "--dir", str(opdir)]
                + (["--spans", spans[1]] if traced else []))
            if replayed is None:
                op["problems"].append("replay: %s" % error)
                op["timeout"] = "timed out" in error
                break
            op["replay_s"].append(replayed["elapsed"])
            op["replay_k"].append(len(ctx.kernel_s) - 1)
            op["setup_s"].append(replayed["ready"] - spawned)
            op["rss_kb"] = max(op["rss_kb"], replayed["rss_kb"])
            op["problems"] += workloads.check_replay(ctx.wl, replayed)
    if traced and not op["problems"]:
        op["layers"] = layer_summary(ctx.wl, spans)
    shutil.rmtree(opdir)
    return op


def layer_summary(wl, span_files):
    """Per-layer metrics of one traced operation, before overhead."""
    counts, missing = {}, set()
    for path in span_files:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        for key, value in data["summary"].items():
            if key in tracer.SIZE_COUNTS:
                counts[key] = max(counts.get(key, 0), value)
            else:
                counts[key] = counts.get(key, 0) + value
        missing.update(data["missing"])
    self_s = {k[:-len(".self_s")]: v for k, v in counts.items()
              if k.endswith(".self_s")}
    total = sum(self_s.values())
    metrics = {}
    for name, unit in PER_LAYER:
        span, _, suffix = name.rpartition(".")
        calls = counts.get(span + ".calls", 0)
        if suffix == "useful_ratio":
            metrics[name] = counts.get(span + ".useful", 0) / calls \
                if calls else 0.0
        elif suffix == "hit_ratio":
            metrics[name] = counts.get(span + ".repeats", 0) / calls \
                if calls else 0.0
        elif name != "trace.overhead_s" and name != "trace.hot_share":
            metrics[name] = counts.get(name, 0)
    metrics["trace.hot_share"] = sum(
        v for span, v in self_s.items() if is_hot(wl, span)) / total
    modules = {}
    for span, value in self_s.items():
        module = span.split(".")[0]
        modules[module] = modules.get(module, 0.0) + value / total
    return {"metrics": metrics, "module_shares": modules,
            "untraced_targets": sorted(missing)}


def is_hot(wl, span):
    return any(span.startswith(h) if h.endswith(".") else span == h
               for h in wl.hot)


# -- a measured run -------------------------------------------------------------

def measure(ctx, seconds, trace):
    """Operations for about `seconds`: the next one starts only if half an
    operation of average length still fits.  Tracing
    alternates traced and untraced operations, traced first, and makes at
    least one of each."""
    ops = []
    start = time.monotonic()
    while True:
        op = run_op(ctx, len(ops), traced=bool(trace) and len(ops) % 2 == 0)
        ops.append(op)
        elapsed = time.monotonic() - start
        if op.get("timeout"):
            break
        if elapsed * (2 * len(ops) + 1) / (2 * len(ops)) > seconds and \
                (not trace or len(ops) >= 2):
            break
    return ops


def samples_of(ops, key):
    values = []
    for op in ops:
        value = op.get(key)
        values += value if isinstance(value, list) else [value]
    return [v for v in values if v is not None]


def median_of(ops, key):
    values = samples_of(ops, key)
    return statistics.median(values) if values else None


def scaled_samples(ops, key, kernel_s):
    """Times of ``key`` ("verdict" or "replay") at the reference speed: each
    over the mean of the kernel times just before and just after it."""
    values = []
    for op in ops:
        for raw, k in zip(samples_of([op], key + "_s"),
                          samples_of([op], key + "_k")):
            values.append(raw * REFERENCE_S
                          / ((kernel_s[k] + kernel_s[k + 1]) / 2))
    return values


def end_to_end(ops, kernel_s):
    untraced = [op for op in ops if not op["traced"]]
    verdict = scaled_samples(untraced, "verdict", kernel_s)
    replay = scaled_samples(untraced, "replay", kernel_s)
    setup = median_of(untraced, "setup_s")
    rss = median_of(untraced, "rss_kb")
    return {"verdict_s": statistics.median(verdict) if verdict else None,
            "replay_s": statistics.median(replay) if replay else None,
            "setup_s": setup,
            "peak_rss_mb": rss / 1024.0 if rss is not None else None}


def spread_note(values):
    """Median and the highest of p75, p90 and p99 with ten samples above."""
    note = "median %.6f" % statistics.median(values)
    for n in (100, 10, 4):
        if len(values) >= 10 * n:
            note += ", p%d %.6f" % (100 - 100 // n,
                                    statistics.quantiles(values, n=n)[-1])
            break
    return note


def per_layer(ops):
    traced = [op for op in ops if "layers" in op]
    if not traced:
        return {}
    metrics = {name: statistics.median_low(op["layers"]["metrics"][name]
                                           for op in traced)
               for name in traced[0]["layers"]["metrics"]}
    timed = [op for op in ops if "verdict_s" in op]
    on = median_of([op for op in timed if op["traced"]], "verdict_s")
    off = median_of([op for op in timed if not op["traced"]], "verdict_s")
    metrics["trace.overhead_s"] = on - off if None not in (on, off) else 0.0
    return {name: metrics[name] for name, _ in PER_LAYER}


def describe_op(op):
    parts = ["op %d%s" % (op["index"], " traced" if op["traced"] else "")]
    if "verdict_s" in op:
        parts.append("verdict %.3f s" % op["verdict_s"])
    for key in ("replay_s", "setup_s"):
        if op.get(key):
            parts.append("%s %s s" % (key[:-2], "/".join(
                "%.3f" % v for v in op[key])))
    if "rss_kb" in op:
        parts.append("rss %.1f MB" % (op["rss_kb"] / 1024.0))
    if "digest" in op:
        parts.append("sha256 %s" % op["digest"][:16])
    parts.append("ok" if not op["problems"] else
                 "FAILED: " + "; ".join(op["problems"]))
    return "  ".join(parts)


def check_digests(ctx, ops):
    """Flag certificates that differ from each other (counted as failures:
    every operation of a run has the same input) or from the pinned digest
    (reported only: a change of certificate format is allowed)."""
    digests = sorted({op["digest"] for op in ops if "digest" in op})
    if len(digests) > 1:
        ref = next(op for op in ops if "digest" in op)
        for op in ops:
            if "digest" in op and op["digest"] != ref["digest"]:
                op["problems"].append("certificate differs from op %d"
                                      % ref["index"])
    pinned = pinned_digest(ctx)
    if not digests:
        return "no certificate"
    if pinned is None:
        return "%s (no pinned digest for this coefficient and size)" % digests[0]
    if digests == [pinned]:
        return "%s (matches the pinned digest)" % digests[0]
    return "%s CHANGED from the pinned %s" % (", ".join(digests), pinned)


def print_report(env, ops, digest_note, e2e, layers, trace, ctx):
    print("perfbench env %s" % json.dumps(env, sort_keys=True))
    for op in ops:
        print("perfbench %s" % describe_op(op))
    print("perfbench certificate %s" % digest_note)
    print("perfbench host speed: reference kernel %s s over %d samples"
          % (spread_note(ctx.kernel_s), len(ctx.kernel_s)))
    untraced = [op for op in ops if not op["traced"]]
    for name, unit in END_TO_END:
        if e2e[name] is None:
            continue
        if name == "peak_rss_mb":
            print("perfbench %-20s %12.6f %-5s median of %d operations"
                  % (name, e2e[name], unit,
                     len(samples_of(untraced, "rss_kb"))))
            continue
        samples = samples_of(untraced, name)
        how = "" if name == "setup_s" else "at the reference speed; raw "
        print("perfbench %-20s %12.6f %-5s median of %d samples (%s%s)"
              % (name, e2e[name], unit, len(samples), how,
                 spread_note(samples)))
    failed = sum(1 for op in ops if op["problems"])
    print("perfbench %-20s %12.6f %-5s %d of %d ops"
          % ("failed_ops", failed / len(ops), "share", failed, len(ops)))
    if trace:
        traced = [op for op in ops if "layers" in op]
        for name, unit in PER_LAYER:
            if name in layers:
                print("perfbench %-52s %18s %s"
                      % (name, layers[name], unit))
        if traced:
            info = traced[0]["layers"]
            print("perfbench self-time share by module (op %d): %s"
                  % (traced[0]["index"], ", ".join(
                      "%s %.3f" % kv for kv in sorted(
                          info["module_shares"].items(),
                          key=lambda kv: -kv[1]))))
            if info["untraced_targets"]:
                print("perfbench not traced (absent from rht): %s"
                      % ", ".join(info["untraced_targets"]))


def bench(args):
    wl = workloads.WORKLOADS[args.workload]
    prepare()
    with tempfile.TemporaryDirectory(prefix="perfbench-",
                                     dir=workdir_root()) as workdir:
        start = time.monotonic()
        ctx = Context(wl, args.seed, wl.max_degree, wl.lie_truncation,
                      workdir, deadline=start + max(DEADLINE_S,
                                                    args.seconds + 60))
        ops = measure(ctx, args.seconds, args.trace)
    ctx.kernel_s.append(reference_kernel())
    digest_note = check_digests(ctx, ops)
    e2e = end_to_end(ops, ctx.kernel_s)
    layers = per_layer(ops) if args.trace else {}
    env = environment(ctx, args.seconds, args.trace)
    print_report(env, ops, digest_note, e2e, layers, args.trace, ctx)
    failed = sum(1 for op in ops if op["problems"])
    chosen = PER_LAYER if args.trace else END_TO_END
    values = layers if args.trace else e2e
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in chosen if values.get(name) is not None}
    complete = len(metrics) == len(chosen)
    result = {"correct": failed == 0 and complete, "attempted": len(ops),
              "failed": failed, "metrics": metrics}
    print(json.dumps(result))


def workdir_root():
    path = HERE / "_work"
    path.mkdir(exist_ok=True)
    return path


# -- desk-scale self-test and scaling report ------------------------------------

def selftest(args):
    """Each workload once untraced and once traced at desk scale: both must
    pass the oracle and write the same certificate."""
    prepare()
    all_ok = True
    for name, (max_degree, lie_truncation) in workloads.DESK_SIZES.items():
        with tempfile.TemporaryDirectory(prefix="perfbench-",
                                         dir=workdir_root()) as workdir:
            ctx = Context(workloads.WORKLOADS[name], args.seed, max_degree,
                          lie_truncation, workdir,
                          deadline=time.monotonic() + DEADLINE_S)
            ops = [run_op(ctx, 0, traced=False), run_op(ctx, 1, traced=True)]
        check_digests(ctx, ops)
        ok = not any(op["problems"] for op in ops) and "layers" in ops[1]
        all_ok = all_ok and ok
        print("selftest %-14s N=%-3d %s" % (name, max_degree,
                                            "pass" if ok else "FAIL"))
        for op in ops:
            print("  %s" % describe_op(op))
    print(json.dumps({"selftest": "pass" if all_ok else "fail"}))
    return 0 if all_ok else 1


def scaling(args):
    """One operation per (workload, N): documents growth with N only."""
    prepare()
    print("%-12s %4s %10s %10s  %s" % ("workload", "N", "verdict_s",
                                       "replay_s", "oracle"))
    rows = []
    for name in workloads.SCALING_WORKLOADS:
        wl = workloads.WORKLOADS[name]
        for max_degree in workloads.SCALING_DEGREES:
            with tempfile.TemporaryDirectory(prefix="perfbench-",
                                             dir=workdir_root()) as workdir:
                ctx = Context(wl, args.seed, max_degree, None, workdir)
                op = run_op(ctx, 0, traced=False)
            row = {"workload": name, "max_degree": max_degree,
                   "verdict_s": median_of([op], "verdict_s"),
                   "replay_s": median_of([op], "replay_s"),
                   "problems": op["problems"]}
            rows.append(row)
            print("%-12s %4d %10s %10s  %s" % (
                name, max_degree,
                "%.3f" % row["verdict_s"] if row["verdict_s"] else "-",
                "%.3f" % row["replay_s"] if row["replay_s"] else "-",
                "; ".join(op["problems"]) or "ok"), flush=True)
    print(json.dumps({"scaling": rows}))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--scaling", action="store_true")
    args = parser.parse_args(argv)
    try:
        if args.selftest:
            return selftest(args)
        if args.scaling:
            return scaling(args)
        if args.workload is None:
            parser.error("--workload is required")
        bench(args)
        return 0
    except BenchError as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
