"""Span tracer for the benchmark's traced runs.

``install`` wraps the public functions of each ``nufunc`` layer from the
outside: every module that imported a wrapped name gets the wrapper, or the
counts would come out low without any error.  Spans are kept in memory
(name, start, end, parent, operation id) and written out when the run ends.
Wrappers only time, count and pass values through, so a traced operation
returns exactly what an untraced one does.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter, defaultdict

import numpy as np

SPECIAL, PROBE, ENGINE, INTEGRAND, POLAR = "special", "probe", "engine", "integrand", "polar"
NU_SINGLE, NU_BATCH, COHERENT, PARSE, SCALARIZE = "nu_single", "nu_batch", "coherent", "parse", "scalarize"
IDENTITY, CLI = "identity", "cli"

# (module, function, layer).  Layers are the rows of the README's table.
TARGETS = (
    ("special", "log_gamma", SPECIAL),
    ("special", "reciprocal_gamma_log_signed", SPECIAL),
    ("quadrature", "locate_peak", PROBE),
    ("quadrature", "integrate_semi_infinite_detailed", ENGINE),
    ("quadrature", "integrate_vector_semi_infinite", ENGINE),
    ("quadrature", "integrate_polar_2d", POLAR),
    ("nu", "nu", NU_SINGLE),
    ("nu", "nu_general", NU_SINGLE),
    ("nu", "nu_general_detailed", NU_SINGLE),
    ("nu", "nu_general_log", NU_SINGLE),
    ("nu", "nu_alpha", NU_SINGLE),
    ("nu", "nu_alpha_detailed", NU_SINGLE),
    ("nu", "nu_positive_batch", NU_BATCH),
    ("nu", "nu_alpha_positive_batch", NU_BATCH),
    ("nu", "nu_complex_grid", NU_BATCH),
    ("nu", "nu_on_circle", NU_BATCH),
    ("coherent", "cs_coefficient_discrete", COHERENT),
    ("coherent", "cs_coefficient_continuous", COHERENT),
    ("coherent", "overlap_continuous", COHERENT),
    ("coherent", "transition_density", COHERENT),
    ("coherent", "poisson_density_discrete", COHERENT),
    ("coherent", "kp_coefficient", COHERENT),
    ("coherent", "dc_limit_check", COHERENT),
    ("doot", "parse_expression", PARSE),
    ("doot", "scalarize", SCALARIZE),
    ("identities", "check_derivative_relation", IDENTITY),
    ("identities", "check_weighted_nu_integral", IDENTITY),
    ("identities", "check_laplace_nu", IDENTITY),
    ("identities", "check_eq_4_20", IDENTITY),
    ("identities", "check_formal_series_4_21", IDENTITY),
    ("identities", "check_eq_4_22", IDENTITY),
    ("identities", "check_complex_gaussian", IDENTITY),
    ("cli", "main", CLI),
)

# Coherent-state functions that evaluate normalizers.
NORMALIZER_USERS = frozenset(
    {"overlap_continuous", "transition_density", "cs_coefficient_continuous", "dc_limit_check"}
)
IDENTITY_IDS = ("1.6", "4.18", "4.19", "4.20", "4.21", "4.22", "4.23")


class Tracer:
    def __init__(self):
        self.name, self.layer, self.outer = [], [], []
        self.start, self.end, self.parent, self.op = [], [], [], []
        self.identity_id = {}
        self.stack = []
        self.active = Counter()
        self.counts = Counter()
        self.current_op = -1

    def begin(self, name, layer):
        i = len(self.name)
        outer = self.active[layer] == 0
        self.name.append(name)
        self.layer.append(layer)
        self.outer.append(outer)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op.append(self.current_op)
        self.end.append(0)
        self.stack.append(i)
        self.active[layer] += 1
        self.start.append(time.perf_counter_ns())
        return i

    def finish(self, i):
        self.end[i] = time.perf_counter_ns()
        self.stack.pop()
        self.active[self.layer[i]] -= 1

    # ------------------------------------------------------------ wrappers

    def wrap(self, fn, name, layer, normalizer=False):
        tr = self
        counts = self.counts

        def before(args):
            if layer == SPECIAL:
                if tr.active[SPECIAL] == 0:
                    counts["special.nodes"] += int(np.size(args[-1]))
            elif layer in (NU_SINGLE, NU_BATCH):
                if tr.active[NU_SINGLE] == 0 and tr.active[NU_BATCH] == 0:
                    if tr.active["normalizer"]:
                        counts["coherent.nu_evals"] += 1
                    if tr.active[SCALARIZE]:
                        counts["doot.nu_evals"] += 1
                    if tr.active[CLI]:
                        counts["cli.nu_evals"] += 1
            elif layer == PROBE:
                log_integrand = args[0]

                def counted(x):
                    counts["probe.evals"] += 1
                    return log_integrand(x)

                args = (counted,) + tuple(args[1:])
            elif layer == ENGINE:
                f = args[0]

                def integrand(x):
                    counts["integrand.calls"] += 1
                    counts["integrand.nodes"] += int(np.size(x))
                    j = tr.begin("quadrature.integrand", INTEGRAND)
                    try:
                        return f(x)
                    finally:
                        tr.finish(j)

                args = (integrand,) + tuple(args[1:])
            return args

        def after(i, out):
            if layer == ENGINE:
                counts["engine.accepted"] += out.panel_count if hasattr(out, "panel_count") else out[2]
            elif layer == NU_BATCH:
                counts["nu.batch_calls"] += 1
                counts["nu.batch_components"] += int(np.size(out))
            elif layer == IDENTITY:
                tr.identity_id[i] = out.id.split("-")[0]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            args = before(args)
            if normalizer:
                tr.active["normalizer"] += 1
                if tr.active["normalizer"] == 1:
                    counts["coherent.normalizer_calls"] += 1
            i = tr.begin(name, layer)
            try:
                out = fn(*args, **kwargs)
            finally:
                tr.finish(i)
                if normalizer:
                    tr.active["normalizer"] -= 1
            after(i, out)
            return out

        return traced

    def install(self):
        """Replace every traced function in every loaded nufunc module."""
        modules = [m for n, m in list(sys.modules.items()) if n == "nufunc" or n.startswith("nufunc.")]
        for mod_name, fn_name, layer in TARGETS:
            orig = getattr(importlib.import_module("nufunc." + mod_name), fn_name)
            wrapped = self.wrap(orig, f"{mod_name}.{fn_name}", layer, fn_name in NORMALIZER_USERS)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, attr, wrapped)
        from nufunc.nu import StructureFn

        StructureFn.log_rho_continuous = self.wrap(
            StructureFn.log_rho_continuous, "nu.StructureFn.log_rho_continuous", SPECIAL
        )
        scalar = StructureFn.log_rho_scalar
        counts = self.counts

        @functools.wraps(scalar)
        def log_rho_scalar(sf, E):
            counts["special.log_rho_scalar_calls"] += 1
            return scalar(sf, E)

        StructureFn.log_rho_scalar = log_rho_scalar

    # ------------------------------------------------------------- results

    def metrics(self, n_ops: int) -> dict:
        """Per-layer metrics; every figure is per operation unless its
        name says otherwise (see the README)."""
        n = len(self.name)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        ns = defaultdict(int)
        id_ns, id_calls = defaultdict(int), Counter()
        for i in range(n):
            layer, outer = self.layer[i], self.outer[i]
            if layer in (PROBE, ENGINE):
                ns[layer] += dur[i] - child[i]
            elif layer == IDENTITY:
                key = self.identity_id.get(i)
                if key is not None:
                    id_ns[key] += dur[i]
                    id_calls[key] += 1
            elif outer:
                ns[layer] += dur[i]
        c = self.counts

        def per_op(v):
            return v / n_ops

        def ms(layer):
            return ns[layer] / 1e6 / n_ops

        def ratio(a, b):
            return a / b if b else 0.0

        single_calls = sum(1 for i in range(n) if self.layer[i] == NU_SINGLE and self.outer[i])
        scalarize_calls = sum(1 for i in range(n) if self.layer[i] == SCALARIZE and self.outer[i])
        out = {
            "special.log_gamma_ms": ms(SPECIAL),
            "special.log_gamma_nodes": per_op(c["special.nodes"]),
            "special.log_rho_scalar_calls": per_op(c["special.log_rho_scalar_calls"]),
            "quadrature.probe_ms": ms(PROBE),
            "quadrature.probe_evals": per_op(c["probe.evals"]),
            "quadrature.engine_self_ms": ms(ENGINE),
            "quadrature.integrand_calls": per_op(c["integrand.calls"]),
            "quadrature.integrand_nodes": per_op(c["integrand.nodes"]),
            "quadrature.accepted_panels": per_op(c["engine.accepted"]),
            "quadrature.useful_panel_ratio": ratio(c["engine.accepted"], c["integrand.calls"]),
            "quadrature.polar_ms": ms(POLAR),
            "nu.single_calls": per_op(single_calls),
            "nu.single_ms": ms(NU_SINGLE),
            "nu.batch_calls": per_op(c["nu.batch_calls"]),
            "nu.batch_components": ratio(c["nu.batch_components"], c["nu.batch_calls"]),
            "nu.batch_ms": ms(NU_BATCH),
            "coherent.ms": ms(COHERENT),
            "coherent.nu_calls": ratio(c["coherent.nu_evals"], c["coherent.normalizer_calls"]),
            "doot.parse_ms": ms(PARSE),
            "doot.scalarize_ms": ms(SCALARIZE),
            "doot.nu_calls": ratio(c["doot.nu_evals"], scalarize_calls),
        }
        for key in IDENTITY_IDS:
            out[f"identities.{key}_ms"] = ratio(id_ns[key] / 1e6, id_calls[key])
        out["cli.main_ms"] = ms(CLI)
        out["cli.nu_evals_per_row"] = ratio(c["cli.nu_evals"], c["cli.rows"])
        return out

    def write(self, path) -> None:
        """One JSON array per span: [name, start_ns, end_ns, parent, op]."""
        with open(path, "w", encoding="utf-8") as fh:
            for i in range(len(self.name)):
                fh.write(json.dumps([self.name[i], self.start[i], self.end[i], self.parent[i], self.op[i]]))
                fh.write("\n")
