"""The benchmark harness under perfbench/ looks nufunc names up by string.

`Tracer.install` resolves each `TARGETS` entry with `getattr` and wraps every
module attribute bound to it, so a deleted name breaks `--trace 1` and an
aliased one is wrapped twice, counting its calls twice.  The warm-up calls
`nufunc.<name>` directly.  These tests pin both lists to the library, and
run one round of each workload through the harness's own executor and
checks.
"""

import ast
import importlib
import importlib.util
import inspect
import os
import pathlib

import pytest

import nufunc
from nufunc.nu import StructureFn

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_targets_are_distinct_callables():
    seen = {}
    for mod_name, fn_name, _ in _load("tracer").TARGETS:
        target = f"nufunc.{mod_name}.{fn_name}"
        fn = getattr(importlib.import_module("nufunc." + mod_name), fn_name, None)
        assert callable(fn), f"{target} is not a callable"
        assert id(fn) not in seen, f"{target} is the same object as {seen.get(id(fn))}"
        seen[id(fn)] = target
    # The tracer also replaces these two methods on the class.
    assert callable(StructureFn.log_rho_continuous)
    assert callable(StructureFn.log_rho_scalar)


def _nufunc_attribute_chains(tree):
    """Every dotted name rooted at `nufunc` in the tree, e.g. ('cli', 'main')."""
    chains = set()
    for node in ast.walk(tree):
        parts = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if parts and isinstance(node, ast.Name) and node.id == "nufunc":
            chains.add(tuple(reversed(parts)))
    return chains


def test_warmup_names_resolve():
    chains = _nufunc_attribute_chains(ast.parse((PERFBENCH / "warmup.py").read_text()))
    assert {("nu_general_detailed",), ("cli", "main"), ("QuadSpec",)} <= chains
    # The warm-up imports this submodule itself.
    importlib.import_module("nufunc.cli")
    for chain in chains:
        obj = nufunc
        for part in chain:
            assert hasattr(obj, part), "nufunc." + ".".join(chain)
            obj = getattr(obj, part)
        # nufunc.cli, the prefix of nufunc.cli.main, is a module.
        assert callable(obj) or inspect.ismodule(obj), "nufunc." + ".".join(chain)


@pytest.mark.parametrize("workload", ["point_mix", "cli_tables", "nested_suite", "planar_gaussian"])
def test_one_round_passes_the_benchmark_checks(workload, monkeypatch):
    # The run's own path: warm-up, one seed-1 round through its executor,
    # then its oracle checks.  run.py pins BLAS threads in os.environ when
    # imported; a copy keeps that out of this process.
    monkeypatch.setattr(os, "environ", dict(os.environ))
    monkeypatch.syspath_prepend(str(PERFBENCH))
    run, warmup, workloads, checks = (_load(name) for name in ("run", "warmup", "workloads", "checks"))
    ops = workloads.BUILDERS[workload](1)
    warmup.warm_up(workload)
    execute = run.Executor(nufunc)
    execute.prepare(ops)
    outputs = [execute(op) for op in ops]
    failed, problems = checks.check_round(ops, outputs)
    assert problems == []
    assert [(i, outputs[i]) for i in failed if not ops[i].get("known_fault")] == []
