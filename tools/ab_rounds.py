"""Interleaved A/B of two checkouts on the benchmark's seed-1 rounds, in one process.

    python3 tools/ab_rounds.py --a CHECKOUT --b CHECKOUT [--workload W ...] [--rounds N]

Imports each checkout's src/nufunc under its own package name (nf_a, nf_b)
and runs seed-1 rounds of each workload through --a's perfbench Executor,
alternating which side goes first, after one untimed round each.  Separate
processes on a shared host differ in speed by more than the few percent
that rounds interleaved in one process resolve.  For each workload it prints
each side's median round time, the median over rounds of the ratio a/b
(above 1: b is faster), the rounds b won and the number of outputs that
differ between the two sides.
"""

import argparse
import importlib
import importlib.util
import os
import statistics
import sys
import time


def load(name, root):
    """Import ROOT/src/nufunc, and its cli, as the package `name`."""
    pkg = os.path.join(os.path.abspath(root), "src", "nufunc")
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(pkg, "__init__.py"), submodule_search_locations=[pkg]
    )
    module = sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    importlib.import_module(name + ".cli")  # cli operations call nf.cli.main
    return module


def timed_round(execute, ops):
    t0 = time.perf_counter()
    outs = [repr(execute(op)) for op in ops]
    return time.perf_counter() - t0, outs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--a", required=True, help="baseline checkout")
    parser.add_argument("--b", required=True, help="checkout compared with it")
    parser.add_argument("--workload", action="append", help="workload to run (default: all)")
    parser.add_argument("--rounds", type=int, default=10, help="timed rounds per side and workload")
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.join(os.path.abspath(args.a), "perfbench"))
    import workloads
    from run import Executor

    sides = {"a": Executor(load("nf_a", args.a)), "b": Executor(load("nf_b", args.b))}
    print("workload          a_ms      b_ms   ratio  b_won  outputs_differ")
    for name in args.workload or list(workloads.BUILDERS):
        ops = workloads.BUILDERS[name](1)
        for execute in sides.values():
            execute.prepare(ops)
        outs = {side: timed_round(execute, ops)[1] for side, execute in sides.items()}
        times = {"a": [], "b": []}
        for r in range(args.rounds):
            for side in ("a", "b") if r % 2 == 0 else ("b", "a"):
                times[side].append(timed_round(sides[side], ops)[0])
        a_ms, b_ms = (1e3 * statistics.median(times[s]) for s in ("a", "b"))
        pairs = list(zip(times["a"], times["b"]))
        ratio = statistics.median(ta / tb for ta, tb in pairs)
        won = sum(tb < ta for ta, tb in pairs)
        moved = sum(x != y for x, y in zip(outs["a"], outs["b"]))
        print(f"{name:<15} {a_ms:8.2f}  {b_ms:8.2f}  {ratio:6.3f}  {won:>2}/{args.rounds:<2}  {moved:>4} of {len(ops)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
