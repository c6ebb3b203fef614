"""Seeds 1-3 output hashes of every benchmark workload, and the ops that moved.

    python3 tools/output_hashes.py [--root CHECKOUT] [--save RUN.json] [--against RUN.json]

Runs one round of each workload at seeds 1-3 through perfbench's Executor,
on the sources of CHECKOUT (default: this repository), and prints the
operation count and the sha256 of the newline-joined output reprs, as the
BENCH_<n>.json files record them.  --save writes every output's repr;
--against lists each operation whose output differs from such a file.
"""

import argparse
import hashlib
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=ROOT, help="checkout whose src/ and perfbench/ run")
    parser.add_argument("--save", help="write every output's repr here")
    parser.add_argument("--against", help="a file from --save to list the moved outputs against")
    args = parser.parse_args(argv)
    sys.path[:0] = [os.path.join(args.root, "src"), os.path.join(args.root, "perfbench")]
    import nufunc
    import nufunc.cli  # noqa: F401  (cli operations call nufunc.cli.main)
    import workloads
    from run import Executor

    saved = json.loads(open(args.against, encoding="utf-8").read()) if args.against else {}
    outputs, execute = {}, Executor(nufunc)
    for name, build in workloads.BUILDERS.items():
        for seed in (1, 2, 3):
            key, ops = f"{name}/{seed}", build(seed)
            outs = outputs[key] = [repr(execute(op)) for op in ops]
            print(key, len(ops), hashlib.sha256("\n".join(outs).encode()).hexdigest())
            for i, (old, new) in enumerate(zip(saved.get(key, ()), outs)):
                if old != new:
                    print(f"  op {i} {ops[i]}\n    was {old}\n    now {new}")
    if args.save:
        with open(args.save, "w", encoding="utf-8") as fh:
            json.dump(outputs, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
