"""The benchmark reaches into ``wvad`` by name: it wraps module functions
and methods, builds a model and reads its parameters and encoder outputs.
Installing every workload's hooks and running its isolated-layer timing
here makes a rename in ``wvad`` fail this suite instead of a benchmark run.
Nothing under ``bench/`` is changed; the hooks are taken off again.
"""

import sys
from argparse import Namespace
from pathlib import Path

import pytest

import wvad.trainer

BENCH = Path(__file__).resolve().parents[1] / "bench"
BENCH_MODULES = ("workloads", "spec", "tracer")


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    loaded = [name for name in BENCH_MODULES if name in sys.modules]
    import workloads
    yield workloads
    for name in BENCH_MODULES:
        if name not in loaded:
            sys.modules.pop(name, None)


def test_the_benchmark_hooks_install_on_every_workload(workloads):
    for workload in workloads.WORKLOADS:
        run = workloads.Run(Namespace(workload=workload, seed=0, seconds=0.0,
                                      size="small", trace=None))
        try:
            workloads.install_base(run)
            workloads.install_layers(run)
        finally:
            run.tracer.close()
    assert not hasattr(wvad.trainer.train_step, "__wrapped__")


def test_the_benchmark_times_the_isolated_layers(workloads):
    times = workloads.isolated_layers(0)
    assert sorted(times) == ["encoder.heads_ms", "encoder.input_proj_ms"]
    assert all(ms > 0 for ms in times.values())
