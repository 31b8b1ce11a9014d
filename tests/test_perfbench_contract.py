"""The benchmark's traced-run contract, checked on short runs of its workloads.

perfbench/run.py --trace 1 fails a workload whose traced run leaves a span it
requires without calls, or calls a span it expects idle (check_calls), and
perfbench/tracing.py must find every name it wraps. Each workload runs here
once, as `romctl run` runs it, capped at two iterations, under the same tracer.
"""
import dataclasses
import importlib.util
import sys
from pathlib import Path

import pytest

from romctl import experiments

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while the class is built
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


run, tracing = load("run"), load("tracing")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # rank-capped snapshot bases
@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_traced_run_records_the_expected_calls(workload, tmp_path):
    cfg = experiments.parse_config(PERFBENCH / "workloads" / f"{workload}.cfg")
    cfg = dataclasses.replace(cfg, n_iter=min(cfg.n_iter, 2), out=str(tmp_path))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert experiments.run_scenario(cfg, quiet=True) == 0
        counts = tracing.call_counts(tracer.take())
    finally:
        tracer.uninstall()
    assert run.check_calls(workload, counts) == []
