"""Benchmark for nufunc: one workload per process, closed loop, one caller.

    python3 perfbench/run.py --workload point_mix --seed 1 --seconds 12 --trace 0

Run from the repository root.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` the
run times whole rounds untraced, then whole rounds with every layer
wrapped, and reports the per-layer metrics.  The end-to-end times are
rescaled to a fixed machine speed (perfbench/speed.py).  See
perfbench/README.md.
"""

from __future__ import annotations

import os

# numpy's BLAS must not start threads: set before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

from speed import SpeedReference  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")

# Interpreter starts whose median is setup_s.
SETUP_STARTS = 7
SETUP_TIMEOUT_S = 60
# Seconds of the speed reference kernel before each start and after the last.
SETUP_REF_S = 0.25


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def measure_setup(workload: str) -> float:
    """Median scaled wall time of a fresh interpreter importing nufunc and
    warming up each evaluator the workload uses."""
    speed = SpeedReference()
    spans = []
    for _ in range(SETUP_STARTS):
        speed.sample(SETUP_REF_S)
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "warmup.py"), workload],
            cwd=ROOT, capture_output=True, timeout=SETUP_TIMEOUT_S,
        )
        spans.append((t0, time.perf_counter()))
        if proc.returncode != 0:
            _fail(f"set-up interpreter failed:\n{proc.stderr.decode(errors='replace')}")
    speed.sample(SETUP_REF_S)
    return statistics.median(speed.scaled(t0, t1, near=SETUP_REF_S) for t0, t1 in spans)


class Executor:
    """Turns operation dicts into library calls; outputs are plain tuples
    whose repr is compared bit for bit between rounds and modes."""

    def __init__(self, nufunc):
        self.nf = nufunc
        self.spec = nufunc.QuadSpec()
        self._families = {}

    def family(self, fam):
        sf = self._families.get(fam)
        if sf is None:
            p, q, a, b = fam
            sf = self._families[fam] = self.nf.StructureFn(self.nf.HyperParams(p, q, a, b))
        return sf

    def prepare(self, ops):
        for op in ops:
            if "fam" in op:
                self.family(op["fam"])

    def __call__(self, op):
        try:
            return self._run(op)
        except self.nf.NuFuncError as exc:
            return ("error", type(exc).__name__, str(exc))

    def _run(self, op):
        nf, spec, kind = self.nf, self.spec, op["kind"]
        # Library names are looked up at call time, so traced wrappers apply.
        if kind == "nu":
            res = nf.nu_general_detailed(self.family(op["fam"]), op["w"], spec)
            return ("ok", complex(res.value), res.error_estimate)
        if kind == "nu_alpha":
            res = nf.nu_alpha_detailed(op["w"], op["alpha"], spec)
            return ("ok", complex(res.value), res.error_estimate)
        if kind == "nu_log":
            return ("ok", nf.nu_general_log(self.family(op["fam"]), op["w"], spec))
        if kind == "overlap":
            return ("ok", nf.overlap_continuous(self.family(op["fam"]), op["z1"], op["z2"], spec))
        if kind == "density":
            return ("ok", nf.transition_density(self.family(op["fam"]), op["zsq"], op["E"], spec))
        if kind == "doot":
            expr = nf.parse_expression(op["expr"], z_value=op["z"])
            query = nf.MatrixElementQuery(op["bra"], op["ket"], expr)
            return ("ok", nf.scalarize(query, self.family((0, 0, (), ())), spec))
        if kind == "cli":
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                rc = nf.cli.main(op["argv"])
            return ("ok", rc, buf.getvalue())
        if kind == "identity":
            fn = getattr(nf, op["fn"])
            fam = (self.family(op["fam"]),) if "fam" in op else ()
            rep = fn(*fam, *op["args"])
            return ("ok", {
                "id": rep.id, "description": rep.description,
                "lhs": (rep.lhs.real, rep.lhs.imag), "rhs": (rep.rhs.real, rep.rhs.imag),
                "abs_err": rep.abs_err, "rel_err": rep.rel_err, "tol": rep.tol,
                "passed": rep.passed, "status": rep.status,
            })
        raise ValueError(f"unknown operation kind {kind!r}")


def run_rounds(execute, ops, seconds, min_ops=1, tracer=None, speed=None):
    """Whole rounds of `ops` until `seconds` have passed and at least
    `min_ops` operations have run (at least one round).  With `speed`, its
    reference kernel ticks throughout, inside `seconds`.

    Returns ((start, end) of each operation, outputs of each round,
    elapsed s)."""
    spans, rounds = [], []
    if speed is not None:
        speed.sample(0.2)
        speed.start()
    t_start = time.perf_counter()
    try:
        while True:
            outs = []
            for op in ops:
                if tracer is not None:
                    tracer.current_op += 1
                t0 = time.perf_counter()
                out = execute(op)
                spans.append((t0, time.perf_counter()))
                outs.append(out)
            rounds.append(outs)
            elapsed = time.perf_counter() - t_start
            if elapsed >= seconds and len(spans) >= min_ops:
                break
    finally:
        if speed is not None:
            speed.stop()
    if speed is not None:
        speed.sample(0.2)
    return spans, rounds, elapsed


def percentile(values, q):
    """Nearest-rank percentile."""
    s = sorted(values)
    return s[max(0, math.ceil(q * len(s)) - 1)]


def same(a, b) -> bool:
    return repr(a) == repr(b)


def rows_printed(out) -> int:
    """Data rows in a CLI operation's stdout (CSV, JSON or one doot line)."""
    text = out[2] if out[0] == "ok" and isinstance(out[2], str) else ""
    if text.lstrip().startswith("["):
        return len(json.loads(text))
    return text.count("\n") - (1 if text.startswith("input,") else 0)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "nufunc", "__init__.py")):
        _fail(f"no nufunc sources under {SRC}; run from a repository checkout")
    sys.path.insert(0, SRC)
    sys.path.insert(1, HERE)
    import workloads
    from warmup import warm_up

    if args.workload not in workloads.BUILDERS:
        _fail(f"unknown workload {args.workload!r}; choose from {sorted(workloads.BUILDERS)}")
    ops = workloads.BUILDERS[args.workload](args.seed)

    setup_s = None if args.trace else measure_setup(args.workload)

    import nufunc
    import nufunc.cli  # noqa: F401  (cli operations call nufunc.cli.main)

    warm_up(args.workload)
    execute = Executor(nufunc)
    execute.prepare(ops)

    problems = []
    reference = None
    if args.workload == "cli_tables":
        # The same commands, once outside the timed window: every timed
        # pass must print byte-identical output.
        reference = [execute(op) for op in ops]

    tracer = None
    if args.trace:
        spans, rounds, elapsed = run_rounds(execute, ops, args.seconds / 2.0)
        untraced_ops_per_s = len(spans) / elapsed
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        t_spans, t_rounds, t_elapsed = run_rounds(execute, ops, args.seconds / 2.0, tracer=tracer)
        if args.workload == "cli_tables":
            tracer.counts["cli.rows"] = sum(rows_printed(o) for outs in t_rounds for o in outs)
        traced_ops_per_s = len(t_spans) / t_elapsed
        all_rounds = rounds + t_rounds
    else:
        speed = SpeedReference()
        spans, rounds, _ = run_rounds(execute, ops, args.seconds,
                                      workloads.MIN_OPS.get(args.workload, 1), speed=speed)
        lat = [speed.scaled(t0, t1) for t0, t1 in spans]
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        all_rounds = rounds

    # Every round, traced or not, must repeat the reference bit for bit.
    if reference is None:
        reference = rounds[0]
    if any(not same(a, b) for outs in all_rounds for a, b in zip(outs, reference)):
        problems.append("an operation's output differs between rounds or between traced and untraced runs")

    import checks  # imports scipy; kept out of the timed window and of peak RSS

    failed_idx, found = checks.check_round(ops, reference)
    problems += found
    unexpected = [i for i in failed_idx if not ops[i].get("known_fault")]
    for i in unexpected:
        problems.append(f"operation {i} failed its oracle check: {ops[i]} -> {reference[i]!r}"[:400])
    attempted = len(ops) * len(all_rounds)
    failed = len(failed_idx) * len(all_rounds)

    if args.trace:
        metrics = tracer.metrics(len(t_spans))
        metrics["trace.overhead_pct"] = 100.0 * (untraced_ops_per_s - traced_ops_per_s) / untraced_ops_per_s
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            units = {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}
        os.makedirs(RESULTS, exist_ok=True)
        tracer.write(os.path.join(RESULTS, f"trace-{args.workload}-seed{args.seed}.jsonl"))
        out_metrics = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    else:
        out_metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "ops_per_s": {"value": len(lat) / math.fsum(lat), "unit": "ops/s"},
            "latency_p50_ms": {"value": statistics.median(lat) * 1e3, "unit": "ms"},
            "latency_p99_ms": {"value": percentile(lat, 0.99) * 1e3, "unit": "ms"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    for p in problems:
        print(f"perfbench: {p}", file=sys.stderr)
    result = {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": out_metrics}
    os.makedirs(RESULTS, exist_ok=True)
    with open(os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
