"""Benchmark: regenerate Table II (gate vs hybrid across backends).

Quick mode trains with few iterations, so absolute ARs sit below the
full-budget numbers; the assertions check only the cheap invariants (the
full shape checks against ``repro.experiments.config.TABLE2_PAPER`` run in
``python -m repro.experiments table2`` at the default budget).
"""

from conftest import run_once

from repro.experiments import table2


def test_table2(benchmark, quick_config):
    result = run_once(benchmark, table2.run, quick_config)
    print()
    print(table2.render(result))
    # every AR is a sane ratio and every PO search terminated on the
    # 32 dt grid strictly below the raw duration
    for key, ar in result.ars.items():
        assert 0.0 <= ar <= 1.0, key
    for backend, duration in result.po_durations.items():
        assert duration % 32 == 0
        assert duration < 320
