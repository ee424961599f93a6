"""Shared fixtures for the benchmark suite.

Every paper table/figure has a ``bench_*`` module here.  Benchmarks run
the experiment drivers in ``quick`` mode (reduced optimizer iterations
and shots) so the whole suite finishes in minutes.  Paper-faithful runs
are ``python -m repro.experiments <name>`` with default settings, checked
against the paper's numbers in ``repro.experiments.config``
(``TABLE2_PAPER`` and its siblings).
"""

import pytest

from repro.experiments import ExperimentConfig


@pytest.fixture(scope="session")
def quick_config() -> ExperimentConfig:
    return ExperimentConfig(quick=True)


def run_once(benchmark, fn, *args, **kwargs):
    """Run an expensive driver exactly once under pytest-benchmark."""
    return benchmark.pedantic(
        fn, args=args, kwargs=kwargs, rounds=1, iterations=1,
        warmup_rounds=0,
    )
