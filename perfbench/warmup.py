"""One cheap call of each evaluator a workload uses.

``setup_s`` times a fresh interpreter that imports ``nufunc`` and runs
this warm-up; the workload process runs it too before its timed window.
Run as ``python3 perfbench/warmup.py <workload>`` from the repository root.
"""

from __future__ import annotations

import contextlib
import io
import os
import sys


def warm_up(workload: str) -> None:
    import nufunc

    spec = nufunc.QuadSpec()
    plain = nufunc.StructureFn(nufunc.HyperParams(0, 0))
    if workload == "point_mix":
        f11 = nufunc.StructureFn(nufunc.HyperParams(1, 1, (1.5,), (2.0,)))
        nufunc.nu_general_detailed(plain, 1.0, spec)
        nufunc.nu_general_detailed(f11, 0.5 + 0.5j, spec)
        nufunc.nu_alpha_detailed(1.0, 0.5, spec)
        nufunc.nu_general_log(plain, 50.0, spec)
        nufunc.overlap_continuous(plain, 1.0, 0.5j, spec)
        nufunc.transition_density(plain, 2.0, 1.0, spec)
        expr = nufunc.parse_expression("#Ap*Am#")
        nufunc.scalarize(nufunc.MatrixElementQuery(0.5, 0.3j, expr), plain, spec)
    elif workload == "cli_tables":
        import nufunc.cli

        with contextlib.redirect_stdout(io.StringIO()):
            for argv in (["eval", "nu", "--z", "1"], ["eval", "pfq", "--z", "1"],
                         ["doot", "--expr", "#Ap*Am#", "--bra", "0.5", "--ket", "0.3"]):
                if nufunc.cli.main(argv) != 0:
                    raise RuntimeError(f"warm-up command failed: {argv}")
    elif workload == "nested_suite":
        nufunc.nu_positive_batch(plain, [0.5, 1.0], spec)
        nufunc.nu_alpha_positive_batch([0.5, 1.0], 1.0, spec)
        nufunc.nu(1.0, spec)
        nufunc.nu_alpha(1.0, -1.0, spec)
    elif workload == "planar_gaussian":
        nufunc.nu_complex_grid(plain, [0.5], [0.0, 1.0], spec)
        nufunc.nu_general(plain, 0.15, spec)
    else:
        raise ValueError(f"unknown workload {workload!r}")


if __name__ == "__main__":
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "src"))
    warm_up(sys.argv[1])
