"""The benchmark's contract with the package, checked without the benchmark.

perfbench/ drives the package through CLI subcommands, library calls and a
span tracer that looks functions and methods up by name.  One traced round
and the --threads 2 replay of each workload run here, so a change that
breaks any of them fails this suite, not only a benchmark run.  Nothing
under perfbench/ is written to: the rounds and their spans go to tmp_path.
"""

import importlib
import math
import os
import sys
from pathlib import Path

import pytest

import killedwalk

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def bench():
    """perfbench's run, tracing and workloads modules, imported by the names run.py uses."""
    saved, write_bytecode = dict(os.environ), sys.dont_write_bytecode
    sys.path.insert(0, str(PERFBENCH))
    sys.dont_write_bytecode = True  # no __pycache__ under perfbench/
    try:
        run, tracing, workloads = (importlib.import_module(name) for name in ("run", "tracing", "workloads"))
    finally:
        sys.dont_write_bytecode = write_bytecode
        os.environ.clear()  # run.py pins the BLAS thread counts on import
        os.environ.update(saved)
    yield run, tracing, workloads
    sys.path.remove(str(PERFBENCH))


# a function each workload's round calls, which the tracer must find by name and count
TRACED = {"quenched": "entropy.minimize_variational", "annealed": "lyapunov.estimate_beta", "tree": "tree.rho_environment"}


@pytest.mark.parametrize("name", sorted(TRACED))
def test_a_traced_round_and_its_replay_pass_every_check(bench, tmp_path, name):
    run, tracing, workloads = bench
    tracer = tracing.Tracer(killedwalk, tmp_path / "spans.csv")
    try:
        runner = run.Runner(workloads.WORKLOADS[name], 1, tmp_path, tracer)
        first = runner.round(0, traced=True)
        speedup = runner.probe(first)
    finally:
        tracer.close()
    assert runner.failures == []
    assert speedup is not None
    assert first["tally"][TRACED[name]]["calls"] > 0
    metrics = tracing.layer_metrics(first["tally"])
    assert all(math.isfinite(v) for v in metrics.values()), metrics
